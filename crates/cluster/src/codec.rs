//! A small self-describing little-endian codec.
//!
//! Originally the checkpoint payload format, promoted into the cluster
//! substrate when the transport grew a wire: checkpoints, fault schedules,
//! and RPC payloads all cross process boundaries as raw bytes and must be
//! byte-exact and dependency-free. Every value is written with an explicit
//! length where variable, so decoding a truncated or mismatched blob fails
//! loudly instead of misreading.

use std::fmt;

/// FNV-1a 64-bit hash — the content hash of the incremental checkpoint
/// pipeline (chunk identity and whole-payload checksums). Dependency-free
/// and stable across platforms, which is all a *simulated* content store
/// needs; it is not collision-resistant against adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
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

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Sensitivity: one flipped bit changes the hash.
        assert_ne!(fnv1a64(&[0u8; 32]), fnv1a64(&[1u8; 32]));
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
