//! Little-endian scalar/slice packing helpers for segment memory.
//!
//! GASPI hands applications raw segment pointers; our safe equivalent is
//! byte slices, and these helpers keep the `f64`/`u64`/`u32` shuffling in
//! one audited place.

/// Encode a `u64` at `off` (little-endian).
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Decode a `u64` at `off`.
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Encode a `u32` at `off`.
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Decode a `u32` at `off`.
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// Encode an `f64` at `off`.
pub fn put_f64(buf: &mut [u8], off: usize, v: f64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Decode an `f64` at `off`.
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut b = vec![0u8; 32];
        put_u64(&mut b, 0, u64::MAX - 3);
        put_u32(&mut b, 8, 0xDEAD_BEEF);
        put_f64(&mut b, 16, -1.25e-300);
        assert_eq!(get_u64(&b, 0), u64::MAX - 3);
        assert_eq!(get_u32(&b, 8), 0xDEAD_BEEF);
        assert_eq!(get_f64(&b, 16), -1.25e-300);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let b = vec![0u8; 4];
        get_u64(&b, 0);
    }
}
