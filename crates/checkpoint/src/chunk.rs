//! Content-hashed chunking for incremental checkpoints.
//!
//! A checkpoint payload is split into fixed-size chunks; each chunk is
//! identified by its 64-bit content hash
//! ([`ft_cluster::codec::content_hash64`]) and stored under a
//! content-addressed key. A **manifest** per version records the ordered
//! chunk hash list, the payload length, and a whole-payload checksum, so
//! any tier holding the manifest plus the referenced chunks can
//! reconstitute the exact original bytes (and detect when it cannot).
//!
//! Storage schema (on [`ft_cluster::NodeStorage`]):
//!
//! * manifests live under the checkpointer's own stream tag with the
//!   checkpoint version — `BlobKey { rank, tag, version }` — so version
//!   walking, pruning, and node-kill wipe behave exactly as the legacy
//!   full-image store did;
//! * chunks live under the derived [`chunk_tag`] (the tag with the high
//!   bit set) with `version = content hash` — content-addressed, shared
//!   between every manifest that references the same bytes. Application
//!   tags must therefore keep the high bit clear (validated by
//!   [`crate::CheckpointerConfig`]'s builder). **Never** call
//!   `NodeStorage::prune` on a chunk tag: versions there are hashes, not
//!   a monotone counter — chunk garbage collection is an explicit
//!   release list computed against the retained manifests.

use ft_cluster::codec::{content_hash64, CodecError, Dec, Enc, Wire};

/// Default chunk size, and the alignment solvers use for chunk-stable
/// checkpoint layouts (see `LanczosState`'s `Wire` impl in `ft-solver`).
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Tag bit reserved for the content-addressed chunk store.
pub const CHUNK_TAG_BIT: u32 = 0x8000_0000;

/// The chunk-store tag derived from an application stream tag.
pub fn chunk_tag(tag: u32) -> u32 {
    tag | CHUNK_TAG_BIT
}

const MANIFEST_MAGIC: u64 = 0x4654_434b_4d41_4e31; // "FTCKMAN1"

/// Per-version description of a chunked checkpoint: everything needed to
/// reassemble the payload from the chunk store and to verify the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint version this manifest describes.
    pub version: u64,
    /// Exact payload length in bytes (the last chunk may be short).
    pub total_len: u64,
    /// Chunk size the payload was split with.
    pub chunk_size: u32,
    /// Whether this version was written as a *full* checkpoint (every
    /// chunk freshly written — a chain anchor).
    pub full: bool,
    /// Content hash of the whole payload, verified after reassembly.
    pub checksum: u64,
    /// Content hash of each chunk, in payload order.
    pub chunks: Vec<u64>,
}

impl Manifest {
    /// Build the manifest for `payload` at `version`.
    pub fn describe(version: u64, payload: &[u8], chunk_size: usize, full: bool) -> Self {
        Self {
            version,
            total_len: payload.len() as u64,
            chunk_size: chunk_size as u32,
            full,
            checksum: content_hash64(payload),
            chunks: chunk_hashes(payload, chunk_size),
        }
    }

    /// Byte range of chunk `idx` within the payload.
    pub fn chunk_range(&self, idx: usize) -> std::ops::Range<usize> {
        chunk_range(idx, self.chunk_size as usize, self.total_len as usize)
    }
}

/// The blob that is stored and replicated. Decoding validates the
/// structure: a legacy full-image blob (or any corruption) fails loudly —
/// the magic and the chunk-count consistency check reject it.
impl Wire for Manifest {
    fn encode(&self, e: &mut Enc) {
        e.u64(MANIFEST_MAGIC)
            .u64(self.version)
            .u64(self.total_len)
            .u32(self.chunk_size)
            .u8(u8::from(self.full))
            .u64(self.checksum)
            .u64s(&self.chunks);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        let magic = d.u64()?;
        if magic != MANIFEST_MAGIC {
            return Err(CodecError::BadLength(magic));
        }
        let version = d.u64()?;
        let total_len = d.u64()?;
        let chunk_size = d.u32()?;
        let full = d.bool()?;
        let checksum = d.u64()?;
        let chunks = d.u64s()?;
        if chunk_size == 0 {
            return Err(CodecError::BadLength(0));
        }
        let expect = total_len.div_ceil(u64::from(chunk_size));
        if chunks.len() as u64 != expect {
            return Err(CodecError::BadLength(chunks.len() as u64));
        }
        Ok(Self { version, total_len, chunk_size, full, checksum, chunks })
    }
}

/// Byte range of chunk `idx` for a payload of `total_len` split into
/// `chunk_size` chunks (the last chunk may be short).
pub fn chunk_range(idx: usize, chunk_size: usize, total_len: usize) -> std::ops::Range<usize> {
    let start = idx * chunk_size;
    start..total_len.min(start + chunk_size)
}

/// Content hash of every chunk of `payload`, in order.
pub fn chunk_hashes(payload: &[u8], chunk_size: usize) -> Vec<u64> {
    assert!(chunk_size >= 1, "chunk_size must be >= 1");
    payload.chunks(chunk_size).map(content_hash64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_chunk_ranges() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let m = Manifest::describe(7, &payload, 256, false);
        assert_eq!(m.chunks.len(), 4);
        assert_eq!(m.chunk_range(3), 768..1000);
        assert!(Manifest::describe(1, &[], 64, true).chunks.is_empty());
    }

    #[test]
    fn chunk_count_consistency_enforced() {
        let mut m = Manifest::describe(1, &[9u8; 100], 32, false);
        m.chunks.pop();
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn identical_chunks_share_hashes() {
        let payload = vec![42u8; 512];
        let hs = chunk_hashes(&payload, 128);
        assert_eq!(hs.len(), 4);
        assert!(hs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn chunk_tag_sets_reserved_bit() {
        assert_eq!(chunk_tag(0x10), 0x8000_0010);
        assert_ne!(chunk_tag(0), 0);
    }
}
