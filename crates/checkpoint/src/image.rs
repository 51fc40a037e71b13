//! One checkpoint version as one self-verifying image.
//!
//! A commit stores the payload followed by a fixed [`Trailer`]
//! `(magic, version, len, checksum)` under the stream's own
//! `BlobKey { rank, tag, version }`, in one `NodeStorage::put`: that put
//! is the atomic commit point. The replica holder and the PFS keep the
//! same bytes, and every tier reads them back through [`verify`], so a
//! torn, truncated or bit-flipped image is rejected the same way
//! wherever it sits.

use ft_cluster::codec::{content_hash64, CodecError, Dec, Enc, Wire};

/// Bytes of the [`Trailer`] at the end of every image.
pub const TRAILER_LEN: usize = 32;

const MAGIC: u64 = u64::from_le_bytes(*b"FTCKIMG1");

/// What an image says about its own payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trailer {
    /// Checkpoint version the image was sealed as.
    pub version: u64,
    /// Payload bytes in front of the trailer.
    pub len: u64,
    /// [`content_hash64`] of the payload.
    pub checksum: u64,
}

impl Wire for Trailer {
    fn encode(&self, e: &mut Enc) {
        e.u64(MAGIC).u64(self.version).u64(self.len).u64(self.checksum);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u64()? {
            MAGIC => Ok(Self { version: d.u64()?, len: d.u64()?, checksum: d.u64()? }),
            m => Err(CodecError::BadLength(m)),
        }
    }
}

/// `payload` sealed as the image of `version`: the payload, then its
/// trailer.
pub fn seal(version: u64, mut payload: Vec<u8>) -> Vec<u8> {
    let trailer =
        Trailer { version, len: payload.len() as u64, checksum: content_hash64(&payload) };
    payload.reserve_exact(TRAILER_LEN);
    payload.extend_from_slice(&trailer.to_bytes());
    payload
}

/// The payload of `blob` if it is an intact image of `version`. The bytes
/// may be a peer's: the trailer's length is checked against the bytes
/// present, and the checksum against the payload, before the caller
/// copies anything out.
pub fn verify(blob: &[u8], version: u64) -> Option<&[u8]> {
    let (payload, tail) = blob.split_at_checked(blob.len().checked_sub(TRAILER_LEN)?)?;
    let t = Trailer::from_bytes(tail).ok()?;
    let intact = t.version == version
        && t.len == payload.len() as u64
        && t.checksum == content_hash64(payload);
    intact.then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sealed_image_verifies_as_its_own_version_only() {
        let img = seal(7, b"state".to_vec());
        assert_eq!(img.len(), 5 + TRAILER_LEN);
        assert_eq!(verify(&img, 7), Some(&b"state"[..]));
        assert_eq!(verify(&img, 6), None);
        assert_eq!(verify(&seal(1, Vec::new()), 1), Some(&[][..]));
    }

    #[test]
    fn every_flip_and_every_cut_is_rejected() {
        let img = seal(3, (0..100u8).collect());
        for n in 0..img.len() {
            assert_eq!(verify(&img[..n], 3), None, "{n}-byte prefix");
        }
        for bit in 0..img.len() * 8 {
            let mut bad = img.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(verify(&bad, 3), None, "flip of bit {bit}");
        }
    }
}
