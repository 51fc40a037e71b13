//! Segments: remotely accessible memory blocks with notification slots.
//!
//! A GASPI segment is a contiguous block of memory registered with the
//! runtime so that *any* rank can read and write it one-sidedly. Each
//! segment also carries an array of 32-bit *notifications* — the remote
//! completion mechanism: a `write_notify` makes the data visible and then
//! sets a notification slot the target can wait on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{GaspiError, GaspiResult};

/// Segment identifier (`gaspi_segment_id_t`).
pub type SegId = u16;

/// Notification identifier within a segment.
pub type NotificationId = u32;

/// One registered segment.
pub struct Segment {
    data: RwLock<Vec<u8>>,
    notifications: Box<[AtomicU32]>,
}

impl Segment {
    pub(crate) fn new(size: usize, slots: u32) -> Self {
        let notifications =
            (0..slots).map(|_| AtomicU32::new(0)).collect::<Vec<_>>().into_boxed_slice();
        Self { data: RwLock::new(vec![0; size]), notifications }
    }

    /// Segment size in bytes.
    pub fn size(&self) -> usize {
        self.data.read().len()
    }

    /// Run `f` over the segment bytes (shared).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.read())
    }

    /// Run `f` over the segment bytes (exclusive).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.data.write())
    }

    /// Bounds-checked copy out.
    pub fn read_at(&self, off: usize, len: usize) -> GaspiResult<Vec<u8>> {
        let d = self.data.read();
        let end = off.checked_add(len).ok_or(GaspiError::Segment { what: "offset overflow" })?;
        if end > d.len() {
            return Err(GaspiError::Segment { what: "read out of bounds" });
        }
        Ok(d[off..end].to_vec())
    }

    /// Bounds-checked copy in.
    pub fn write_at(&self, off: usize, src: &[u8]) -> GaspiResult<()> {
        let mut d = self.data.write();
        let end =
            off.checked_add(src.len()).ok_or(GaspiError::Segment { what: "offset overflow" })?;
        if end > d.len() {
            return Err(GaspiError::Segment { what: "write out of bounds" });
        }
        d[off..end].copy_from_slice(src);
        Ok(())
    }

    /// Set a notification slot (used by remote deliveries).
    pub(crate) fn notify_set(&self, id: NotificationId, value: u32) -> GaspiResult<()> {
        let slot = self
            .notifications
            .get(id as usize)
            .ok_or(GaspiError::Segment { what: "notification id out of range" })?;
        slot.store(value, Ordering::Release);
        Ok(())
    }

    /// Atomically read-and-clear a notification slot
    /// (`gaspi_notify_reset`), returning the old value.
    pub fn notify_reset(&self, id: NotificationId) -> GaspiResult<u32> {
        let slot = self
            .notifications
            .get(id as usize)
            .ok_or(GaspiError::Segment { what: "notification id out of range" })?;
        Ok(slot.swap(0, Ordering::AcqRel))
    }

    /// Non-destructive peek at a notification slot.
    pub fn notify_peek(&self, id: NotificationId) -> GaspiResult<u32> {
        let slot = self
            .notifications
            .get(id as usize)
            .ok_or(GaspiError::Segment { what: "notification id out of range" })?;
        Ok(slot.load(Ordering::Acquire))
    }

    /// First non-zero notification in `[begin, begin+count)`, if any.
    pub fn notify_scan(&self, begin: NotificationId, count: u32) -> Option<NotificationId> {
        let end = (begin as usize + count as usize).min(self.notifications.len());
        for id in begin as usize..end {
            if self.notifications[id].load(Ordering::Acquire) != 0 {
                return Some(id as NotificationId);
            }
        }
        None
    }
}

/// A rank's registered segments. Cleared when the rank dies — its address
/// space is gone, so remote accesses start failing.
#[derive(Default)]
pub(crate) struct SegmentTable {
    map: RwLock<HashMap<SegId, Arc<Segment>>>,
}

impl SegmentTable {
    pub fn create(&self, id: SegId, size: usize, slots: u32) -> GaspiResult<()> {
        let mut m = self.map.write();
        if m.contains_key(&id) {
            return Err(GaspiError::Segment { what: "segment id already exists" });
        }
        m.insert(id, Arc::new(Segment::new(size, slots)));
        Ok(())
    }

    pub fn get(&self, id: SegId) -> Option<Arc<Segment>> {
        self.map.read().get(&id).cloned()
    }

    pub fn require(&self, id: SegId) -> GaspiResult<Arc<Segment>> {
        self.get(id).ok_or(GaspiError::Segment { what: "segment id not found" })
    }

    /// Drop everything (rank death).
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get() {
        let t = SegmentTable::default();
        t.create(3, 64, 8).unwrap();
        assert!(matches!(t.create(3, 1, 1), Err(GaspiError::Segment { .. })));
        assert_eq!(t.require(3).unwrap().size(), 64);
        assert!(t.get(4).is_none());
        assert!(matches!(t.require(4), Err(GaspiError::Segment { .. })));
    }

    #[test]
    fn read_write_bounds() {
        let s = Segment::new(16, 4);
        s.write_at(8, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_at(8, 3).unwrap(), vec![1, 2, 3]);
        assert!(s.write_at(15, &[0, 0]).is_err());
        assert!(s.read_at(14, 4).is_err());
        assert!(s.read_at(usize::MAX, 2).is_err());
    }

    #[test]
    fn notifications_set_scan_reset() {
        let s = Segment::new(8, 16);
        assert_eq!(s.notify_scan(0, 16), None);
        s.notify_set(5, 42).unwrap();
        s.notify_set(9, 7).unwrap();
        assert_eq!(s.notify_scan(0, 16), Some(5));
        assert_eq!(s.notify_scan(6, 10), Some(9));
        assert_eq!(s.notify_reset(5).unwrap(), 42);
        assert_eq!(s.notify_peek(5).unwrap(), 0);
        assert_eq!(s.notify_scan(0, 6), None);
        assert!(s.notify_set(16, 1).is_err());
        assert!(s.notify_reset(99).is_err());
    }

    #[test]
    fn scan_clamps_range() {
        let s = Segment::new(1, 4);
        s.notify_set(3, 1).unwrap();
        // count exceeding the slot array must not panic
        assert_eq!(s.notify_scan(2, 1000), Some(3));
    }

    #[test]
    fn clear_drops_all() {
        let t = SegmentTable::default();
        t.create(0, 8, 1).unwrap();
        t.create(1, 8, 1).unwrap();
        t.clear();
        assert!(t.get(0).is_none());
        assert!(t.get(1).is_none());
    }
}
