//! A small self-describing little-endian codec, and the one trait every
//! value that crosses a process boundary implements.
//!
//! Originally the checkpoint payload format, promoted into the cluster
//! substrate when the transport grew a wire: checkpoints, fault schedules,
//! and RPC payloads all cross process boundaries as raw bytes and must be
//! byte-exact and dependency-free. Every value is written with an explicit
//! length where variable, so decoding a truncated or mismatched blob fails
//! loudly instead of misreading.
//!
//! Bytes another process wrote are hostile. A type that crosses a socket
//! or comes back from a store implements [`Wire`], is decoded only through
//! [`Wire::from_bytes`], and has a sample that [`check_wire`] runs: every
//! prefix, flipped bit and forged count of it gives an error or a value
//! that re-encodes to exactly those bytes, never a panic or an allocation
//! sized by a count the bytes cannot back.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// 64-bit content hash: the checksum every checkpoint image carries.
/// Word at a time: each 8-byte little-endian word is folded into a lane
/// by one 64 × 64 → 128-bit multiply (high half ⊕ low half). Even and
/// odd words go to two lanes, so the two multiply chains overlap; the
/// lanes are seeded with the length, so zero padding of the last words
/// cannot alias a shorter input, and are joined by one more multiply and
/// the SplitMix64 finaliser. Dependency-free and stable across
/// platforms, which is all a *simulated* store needs; it is not
/// collision-resistant against adversaries.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    const SEED: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |x: u64, y: u64| {
        let p = u128::from(x) * u128::from(y);
        (p as u64) ^ ((p >> 64) as u64)
    };
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
    let len = bytes.len() as u64;
    let [mut a, mut b] = SEED.map(|s| s ^ len);
    let mut pairs = bytes.chunks_exact(16);
    for p in &mut pairs {
        a = fold(a ^ word(&p[..8]), K);
        b = fold(b ^ word(&p[8..]), K);
    }
    let tail = pairs.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        a = fold(a ^ word(&last[..8]), K);
        b = fold(b ^ word(&last[8..]), K);
    }
    splitmix64(fold(a ^ K, b))
}

/// The SplitMix64 finaliser: a bijective 64-bit mix.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Read past the end of the buffer.
    Eof {
        /// Bytes requested.
        want: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A length prefix is implausible for the remaining buffer.
    BadLength(u64),
    /// An enum tag byte outside the known range.
    BadTag(u8),
    /// A string that is not UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof { want, have } => write!(f, "codec EOF: want {want}, have {have}"),
            CodecError::BadLength(n) => write!(f, "codec bad length prefix {n}"),
            CodecError::BadTag(t) => write!(f, "codec bad enum tag {t}"),
            CodecError::BadUtf8 => write!(f, "codec string is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encoder: append values, then [`Enc::finish`].
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with a capacity hint.
    pub fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n) }
    }

    /// Append a single raw byte (enum tags).
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed `f64` slice. Sized once and filled in
    /// place: ≈ 3× faster than a push per element on 32 768 values.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.u64(vs.len() as u64);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        self.u64(bs.len() as u64);
        self.buf.extend_from_slice(bs);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Take the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder over a byte slice; reads must mirror the encode order.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(CodecError::Eof { want: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single raw byte (enum tags).
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a flag written as `u8(0)` / `u8(1)`; any other byte is a bad
    /// tag, so a flipped bit cannot pass for a value.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an element count and check it against the bytes left, at
    /// `elem` bytes or more per element — before the caller allocates or
    /// loops for it.
    pub fn len_prefix(&mut self, elem: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem as u64).is_none_or(|need| need > remaining) {
            return Err(CodecError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed `f64` slice, all its bytes at once.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len_prefix(8)?;
        let bytes = self.take(8 * n)?;
        Ok(bytes.chunks_exact(8).map(|w| f64::from_le_bytes(w.try_into().unwrap())).collect())
    }

    /// Read a length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.len_prefix(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string; bytes that are not UTF-8 are
    /// an error, so a mangled string cannot decode to a different one.
    pub fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A value that crosses a process boundary — a socket, a pipe, a
/// replica store — as bytes.
///
/// `decode` reads what `encode` wrote and treats the bytes as hostile:
/// every count is bounded by the bytes left before anything is sized
/// from it, and a byte that `encode` could not have written is an error.
/// Every encoding is at least one byte long, which is what lets a
/// `Vec<T>` bound its count by the bytes left.
pub trait Wire: Sized {
    /// Append this value's encoding.
    fn encode(&self, e: &mut Enc);

    /// Read one value written by [`Wire::encode`].
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// This value's encoding.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Decode exactly one value from all of `buf` — the one way in for
    /// bytes another process wrote. Trailing bytes are an error.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(buf);
        let v = Self::decode(&mut d)?;
        match d.remaining() {
            0 => Ok(v),
            n => Err(CodecError::BadLength(n as u64)),
        }
    }
}

impl Wire for u32 {
    fn encode(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Wire for f64 {
    fn encode(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.f64()
    }
}

/// A flag is `u8(0)` or `u8(1)`; any other byte is [`CodecError::BadTag`].
impl Wire for bool {
    fn encode(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.bool()
    }
}

/// A `usize` travels as a `u64`.
impl Wire for usize {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let v = d.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength(v))
    }
}

/// A `Duration` travels as whole nanoseconds in a `u64` (584 years).
impl Wire for Duration {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.as_nanos() as u64);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Duration::from_nanos(d.u64()?))
    }
}

impl Wire for String {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

/// Raw bytes, in one piece ([`Enc::bytes`]).
impl Wire for Vec<u8> {
    fn encode(&self, e: &mut Enc) {
        e.bytes(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.bytes()
    }
}

/// A count, then the elements. The count is bounded by the bytes left
/// (an element takes at least one), and the vector grows as elements
/// decode, so a forged count costs no more than the bytes behind it.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.len() as u64);
        for x in self {
            x.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.len_prefix(1)?;
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(T::decode(d)?);
        }
        Ok(v)
    }
}

/// A flag (`bool`), then the value if there is one.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Enc) {
        self.is_some().encode(e);
        if let Some(x) = self {
            x.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(if d.bool()? { Some(T::decode(d)?) } else { None })
    }
}

/// Shared data travels as the value it points to.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(T::decode(d)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

/// The hostile variants of an encoding that [`check_wire`] decodes: every
/// strict prefix, the encoding plus one trailing byte, single-bit flips,
/// and 8-byte windows forged to `u64::MAX`, `2^40` and the bytes left
/// behind the window plus one (a count one element too long).
///
/// Up to 1 KiB every bit is flipped. Past that, each byte gets one seeded
/// bit flip. Every window is forged.
pub fn mutants(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let len = bytes.len();
    let small = len <= 1024;
    let prefixes = (0..len).map(|n| bytes[..n].to_vec());
    let trailing = std::iter::once([bytes, &[0]].concat());
    let flips = (0..len).flat_map(move |i| {
        let bits = if small {
            0..8
        } else {
            let b = (splitmix64(!(i as u64)) % 8) as u32;
            b..b + 1
        };
        bits.map(move |bit| {
            let mut m = bytes.to_vec();
            m[i] ^= 1 << bit;
            m
        })
    });
    let forges = (0..(len + 1).saturating_sub(8)).flat_map(move |at| {
        let left = (len - at - 8) as u64;
        [u64::MAX, 1 << 40, left + 1].map(move |v| {
            let mut m = bytes.to_vec();
            m[at..at + 8].copy_from_slice(&v.to_le_bytes());
            m
        })
    });
    prefixes.chain(trailing).chain(flips).chain(forges)
}

/// The hostile-bytes property of one sample of a [`Wire`] type; panics
/// on a breach. The sample round-trips; every strict prefix and the
/// encoding plus a trailing byte fail to decode; and every other
/// [`mutants`] variant fails to decode or decodes to a value whose
/// encoding is exactly the mutated bytes — a decoder that accepts a byte
/// it ignores, or misreads one, is caught here.
pub fn check_wire<T: Wire + fmt::Debug>(sample: &T) {
    let bytes = sample.to_bytes();
    assert!(!bytes.is_empty(), "{sample:?} encodes to nothing");
    match T::from_bytes(&bytes) {
        Ok(v) => assert_eq!(v.to_bytes(), bytes, "{sample:?} decodes to {v:?}"),
        Err(e) => panic!("{sample:?} does not decode: {e}"),
    }
    for m in mutants(&bytes) {
        match T::from_bytes(&m) {
            Ok(v) if m.len() != bytes.len() => {
                panic!("{} of {} bytes of {sample:?} decode to {v:?}", m.len(), bytes.len())
            }
            Ok(v) => assert!(v.to_bytes() == m, "a mutant of {sample:?} decodes to {v:?}: {m:?}"),
            Err(_) => {}
        }
    }
}

/// Lowercase hex encoding, for shipping binary blobs through environment
/// variables and line-oriented pipes (the process-backend supervisor
/// hands children their fault schedule this way).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        s.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
    }
    s
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, CodecError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CodecError::BadLength(s.len() as u64));
    }
    let digits: Result<Vec<u8>, CodecError> = s
        .bytes()
        .map(|c| match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(CodecError::BadTag(c)),
        })
        .collect();
    let digits = digits?;
    Ok(digits.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generic_impls_meet_the_wire_property() {
        check_wire::<u32>(&7);
        check_wire::<u64>(&u64::MAX);
        check_wire::<f64>(&-1.5);
        check_wire::<bool>(&true);
        check_wire::<usize>(&40);
        check_wire::<Duration>(&Duration::from_micros(1234));
        check_wire::<String>(&"gaspi.write ✓".to_string());
        check_wire::<Vec<u8>>(&b"xyz".to_vec());
        check_wire::<Vec<u8>>(&Vec::new());
        check_wire::<Vec<String>>(&vec!["a".into(), String::new(), "ckpt.restore".into()]);
        check_wire::<Vec<(u32, u64)>>(&vec![(2, 130), (5, u64::MAX)]);
        check_wire::<Option<u64>>(&Some(9));
        check_wire::<Option<u64>>(&None);
        check_wire::<(u64, f64)>(&(3, 0.25));
        check_wire::<Arc<Vec<u8>>>(&Arc::new(vec![0xAB; 40]));
    }

    /// The property bites: a flag read as "non-zero is true" decodes `2`
    /// to a value that re-encodes as `1`.
    #[test]
    #[should_panic(expected = "a mutant of")]
    fn a_lax_flag_fails_the_wire_property() {
        #[derive(Debug)]
        struct Lax(bool);
        impl Wire for Lax {
            fn encode(&self, e: &mut Enc) {
                e.u32(u32::from(self.0));
            }
            fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(Self(d.u32()? != 0))
            }
        }
        check_wire(&Lax(true));
    }

    /// `n` pseudo-random bytes from `seed` (SplitMix64 stream).
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut out: Vec<u8> = (1..=n.div_ceil(8) as u64)
            .flat_map(|i| {
                splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).to_le_bytes()
            })
            .collect();
        out.truncate(n);
        out
    }

    #[test]
    fn content_hash_is_pinned() {
        // A change here changes every stored image's checksum.
        assert_eq!(content_hash64(b""), 0x1105_069b_6d94_dd77);
        assert_eq!(content_hash64(b"gaspi-ft checkpoint chunk"), 0xe4e9_1a69_ae0c_f47f);
    }

    #[test]
    fn content_hash_sees_every_single_bit_flip() {
        let mut chunk = noise(1, 4096);
        let h = content_hash64(&chunk);
        for bit in 0..chunk.len() * 8 {
            chunk[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_hash64(&chunk), h, "flip of bit {bit} went unseen");
            chunk[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn content_hash_sees_an_appended_zero_byte() {
        let data = noise(2, 4096);
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.push(4095);
        for len in lens {
            assert_ne!(
                content_hash64(&data[..len]),
                content_hash64(&[&data[..len], &[0u8][..]].concat()),
                "length {len} + one zero byte"
            );
        }
        assert_ne!(content_hash64(&[0u8; 4095]), content_hash64(&[0u8; 4096]));
    }

    /// ≥ 100 000 distinct chunks, a third of them mostly zero: every
    /// single-bit chunk, every all-zero length, and zero-padded chunks
    /// (a prefix of f64 values, then zeros to 4 KiB), plus random chunks.
    #[test]
    fn content_hash_has_no_collisions_among_100k_distinct_chunks() {
        const CHUNK: usize = 4096;
        let single_bit = (0..CHUNK * 8).map(|bit| {
            let mut c = vec![0u8; CHUNK];
            c[bit / 8] = 1 << (bit % 8);
            c
        });
        let all_zero = (0..=CHUNK).map(|len| vec![0u8; len]);
        let padded = (0..64u64).flat_map(|seed| {
            (1..=CHUNK / 8).map(move |k| {
                let mut c: Vec<u8> = (0..k)
                    .flat_map(|i| (1.0 + (seed * 1000 + i as u64) as f64 * 0.5).to_le_bytes())
                    .collect();
                c.resize(CHUNK, 0);
                c
            })
        });
        let random = (0..CHUNK as u64 * 8).map(|seed| noise(1_000 + seed, CHUNK));
        let mut seen = std::collections::HashSet::new();
        let mut n = 0usize;
        for c in single_bit.chain(all_zero).chain(padded).chain(random) {
            assert!(seen.insert(content_hash64(&c)), "collision at chunk {n}");
            n += 1;
        }
        assert!(n >= 100_000, "{n} chunks");
    }

    #[test]
    fn hex_roundtrip_and_rejection() {
        let data = vec![0x00, 0x7f, 0xff, 0x10, 0xab];
        let h = to_hex(&data);
        assert_eq!(h, "007fff10ab");
        assert_eq!(from_hex(&h).unwrap(), data);
        assert_eq!(from_hex("AB").unwrap(), vec![0xab]);
        assert!(from_hex("abc").is_err()); // odd length
        assert!(from_hex("zz").is_err()); // bad digit
        assert!(from_hex("").unwrap().is_empty());
    }
}
