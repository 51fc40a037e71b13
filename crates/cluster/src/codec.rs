//! A small self-describing little-endian codec.
//!
//! Originally the checkpoint payload format, promoted into the cluster
//! substrate when the transport grew a wire: checkpoints, fault schedules,
//! and RPC payloads all cross process boundaries as raw bytes and must be
//! byte-exact and dependency-free. Every value is written with an explicit
//! length where variable, so decoding a truncated or mismatched blob fails
//! loudly instead of misreading.

use std::fmt;

/// 64-bit content hash of the incremental checkpoint pipeline (chunk
/// identity and whole-payload checksums). Word at a time: each 8-byte
/// little-endian word is folded into a lane by one 64 × 64 → 128-bit
/// multiply (high half ⊕ low half). Even and odd words go to two lanes,
/// so the two multiply chains overlap; the lanes are seeded with the
/// length, so zero padding of the last words cannot alias a shorter
/// input, and are joined by one more multiply and the SplitMix64
/// finaliser. Dependency-free and stable across platforms, which is all
/// a *simulated* content store needs; it is not collision-resistant
/// against adversaries.
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
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof { want, have } => write!(f, "codec EOF: want {want}, have {have}"),
            CodecError::BadLength(n) => write!(f, "codec bad length prefix {n}"),
            CodecError::BadTag(t) => write!(f, "codec bad enum tag {t}"),
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

    /// Append a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
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

    /// Pad with zero bytes until the encoded length is a multiple of
    /// `align`. Used by chunk-aligned checkpoint layouts so that sections
    /// start on chunk boundaries and an append-only section dirties only
    /// its final chunk. No-op when already aligned; `align` must be ≥ 1.
    pub fn pad_to(&mut self, align: usize) -> &mut Self {
        debug_assert!(align >= 1);
        let rem = self.buf.len() % align;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (align - rem), 0);
        }
        self
    }

    /// Take the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded size.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Read a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
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

    /// Read a length-prefixed UTF-8 string (lossy on invalid UTF-8 —
    /// schedule payloads are produced by `Enc::str`, so this only matters
    /// for corrupted input, which should still decode *loudly elsewhere*,
    /// not panic here).
    pub fn str(&mut self) -> Result<String, CodecError> {
        Ok(String::from_utf8_lossy(&self.bytes()?).into_owned())
    }

    /// Skip `n` bytes (padding written by [`Enc::pad_to`]).
    pub fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(|_| ())
    }

    /// Skip forward to the next multiple of `align`, mirroring
    /// [`Enc::pad_to`]. Errors with [`CodecError::Eof`] if the padding
    /// would run past the buffer (a truncated blob).
    pub fn align_to(&mut self, align: usize) -> Result<(), CodecError> {
        debug_assert!(align >= 1);
        let rem = self.pos % align;
        if rem != 0 {
            self.skip(align - rem)?;
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert full consumption (checkpoints should decode exactly).
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::BadLength(self.remaining() as u64));
        }
        Ok(())
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
    fn roundtrip_mixed() {
        let mut e = Enc::new();
        e.u64(42).u32(7).f64(-1.5).f64s(&[1.0, 2.0, 3.0]).u32s(&[9, 8]).bytes(b"xyz");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.f64().unwrap(), -1.5);
        assert_eq!(d.f64s().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.u32s().unwrap(), vec![9, 8]);
        assert_eq!(d.bytes().unwrap(), b"xyz");
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.f64s(&[1.0, 2.0]);
        let mut buf = e.finish();
        buf.truncate(buf.len() - 1);
        let mut d = Dec::new(&buf);
        assert!(d.f64s().is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_alloc() {
        // A huge bogus length must be caught by the plausibility check.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut d = Dec::new(&buf);
        assert!(matches!(d.f64s(), Err(CodecError::BadLength(_))));
    }

    #[test]
    fn expect_end_catches_trailing_garbage() {
        let mut e = Enc::new();
        e.u32(1);
        let mut buf = e.finish();
        buf.push(0);
        let mut d = Dec::new(&buf);
        d.u32().unwrap();
        assert!(d.expect_end().is_err());
    }

    #[test]
    fn padding_roundtrip_and_truncation() {
        let mut e = Enc::new();
        e.u64(7).pad_to(64);
        e.f64(1.5).pad_to(64).pad_to(64); // second pad is a no-op
        let buf = e.finish();
        assert_eq!(buf.len(), 128);
        let mut d = Dec::new(&buf);
        assert_eq!(d.u64().unwrap(), 7);
        d.align_to(64).unwrap();
        assert_eq!(d.f64().unwrap(), 1.5);
        d.align_to(64).unwrap();
        d.expect_end().unwrap();
        // Truncated padding is a loud EOF, not a silent success.
        let mut d = Dec::new(&buf[..100]);
        d.u64().unwrap();
        d.align_to(64).unwrap();
        d.f64().unwrap();
        assert!(d.align_to(64).is_err());
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
        // A change here changes every stored chunk key and checksum.
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
    /// single-bit chunk, every all-zero length, and section-padded chunks
    /// (a prefix of f64 values, then zeros to 4 KiB — the shape of
    /// `LanczosState`'s chunk-aligned sections), plus random chunks.
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
    fn empty_slices() {
        let mut e = Enc::new();
        e.f64s(&[]).u32s(&[]).bytes(&[]);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(d.f64s().unwrap().is_empty());
        assert!(d.u32s().unwrap().is_empty());
        assert!(d.bytes().unwrap().is_empty());
        d.expect_end().unwrap();
    }

    #[test]
    fn str_and_u8_roundtrip() {
        let mut e = Enc::new();
        e.u8(3).str("gaspi.write");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 3);
        assert_eq!(d.str().unwrap(), "gaspi.write");
        d.expect_end().unwrap();
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
