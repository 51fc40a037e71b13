//! The failure-acknowledgment channel: control segments.
//!
//! "After detection of failed process(es), the FD process informs all
//! healthy processes about the failed processes as well as their
//! corresponding rescue processes. This is done via one-sided write in the
//! global memory of all healthy processes." (§IV-A)
//!
//! Every rank creates a small *control segment* at startup. The FD writes
//! the encoded [`RecoveryPlan`] into it with `write_notify`; the epoch
//! notification slot doubles as the cheap "has anything happened" flag the
//! workers poll before each communication call — an atomic load, zero
//! communication, which is why the paper measures *no overhead* for the
//! health check in failure-free runs.

use ft_cluster::{Rank, Wire};
use ft_gaspi::{bytes, GaspiProc, GaspiResult, SegId, Timeout};

use crate::detector::{until_reached, DetectorConfig};
use crate::layout::WorldLayout;
use crate::plan::RecoveryPlan;

/// Segment id of the control segment (applications must start their own
/// segments at [`FIRST_APP_SEG`]).
pub const CTRL_SEG: SegId = 0;
/// First segment id available to applications.
pub const FIRST_APP_SEG: SegId = 1;

/// Queue the control traffic goes out on: the detector's acknowledgment
/// writes and the workers' done / abort signals.
pub const ACK_QUEUE: u16 = 0;

/// Notification slot carrying the epoch of the latest plan: a recovery, a
/// detector takeover, or the end plan ([`RecoveryPlan::after_done`]).
pub const EPOCH_NOTIF: u32 = 0;
/// Notification slot of the FD's control segment that app rank 0 sets
/// when the application is done ([`signal`], value 1), or that a rank
/// ended in error sets to stop the job (value [`DONE_ABORTED`]). Unused on
/// every other control segment.
pub const DONE_NOTIF: u32 = 1;
/// [`DONE_NOTIF`] value of an aborted job.
pub const DONE_ABORTED: u32 = 2;
/// Notification slot carrying the stop word ([`broadcast_shutdown`]): the
/// job aborted or ran out of spares. A normal end is a plan.
pub const SHUTDOWN_NOTIF: u32 = 2;
/// First slot of the worker→FD suspect-report channel: slot
/// `SUSPECT_NOTIF_BASE + r` on the FD's control segment flags rank `r` as
/// suspected by some worker. This is the paper's link-fault path — a
/// worker whose one-sided op came back broken may sit on a severed link
/// the FD's own pings do not cross, so detection cannot rely on the FD's
/// vantage point alone. The FD drains these slots every scan and treats
/// reported ranks as failed without re-pinging them (its own ping *would*
/// succeed across an intact FD link; recovery then enforces the suspect's
/// death via `gaspi_proc_kill`, the §IV-A-a false-positive handling).
pub const SUSPECT_NOTIF_BASE: u32 = 3;

/// Bytes of a control segment for a given layout (plan payload is
/// `30 + 8·total` worst case; headroom doubled).
pub fn ctrl_seg_size(layout: &WorldLayout) -> usize {
    128 + 16 * layout.total() as usize
}

/// Create the control segment — the first thing every rank does.
pub fn create_ctrl_segment(proc: &GaspiProc, layout: &WorldLayout) -> GaspiResult<()> {
    proc.segment_create(CTRL_SEG, ctrl_seg_size(layout))
}

/// FD side: broadcast `plan` into the control segment of every rank in
/// `targets` in one batched post, and flush. Returns the ranks whose write
/// failed (they are candidates for the next detection round).
pub fn broadcast_plan(
    proc: &GaspiProc,
    plan: &RecoveryPlan,
    targets: &[Rank],
    queue: u16,
    timeout: Timeout,
) -> GaspiResult<Vec<Rank>> {
    proc.injection_site("ack.broadcast");
    let payload = plan.to_bytes();
    let len = payload.len();
    // Stage [len][payload] in our own control segment, then push it
    // one-sidedly to every target.
    proc.with_segment_mut(CTRL_SEG, |b| {
        bytes::put_u32(b, 0, len as u32);
        b[4..4 + len].copy_from_slice(&payload);
    })?;
    let epoch_value = u32::try_from(plan.epoch).expect("epoch fits u32");
    put_each(proc, targets, 4 + len, EPOCH_NOTIF, epoch_value, queue, timeout)
}

/// FD side: tell `targets` to stop — the job aborted or ran out of
/// spares. Every `HealthWatch::check` on a target fails with
/// `Signal(Shutdown)` from then on. Returns the ranks it did not reach.
pub fn broadcast_shutdown(
    proc: &GaspiProc,
    targets: &[Rank],
    queue: u16,
    timeout: Timeout,
) -> GaspiResult<Vec<Rank>> {
    put_each(proc, targets, 0, SHUTDOWN_NOTIF, 1, queue, timeout)
}

/// Copy the first `len` bytes of this rank's control segment into that of
/// every target but this rank, with `slot` set to `value` after the data
/// (`len == 0`: the notification alone), in one batched post; then flush.
fn put_each(
    proc: &GaspiProc,
    targets: &[Rank],
    len: usize,
    slot: u32,
    value: u32,
    queue: u16,
    timeout: Timeout,
) -> GaspiResult<Vec<Rank>> {
    let to: Vec<Rank> = targets.iter().copied().filter(|&t| t != proc.rank()).collect();
    proc.write_notify_many(CTRL_SEG, 0, &to, CTRL_SEG, 0, len, slot, value, queue)?;
    flush(proc, queue, timeout)
}

/// Wait for `queue`; the ranks a write broke on are returned, not an error
/// of *this* rank.
fn flush(proc: &GaspiProc, queue: u16, timeout: Timeout) -> GaspiResult<Vec<Rank>> {
    match proc.wait(queue, timeout) {
        Ok(()) => Ok(Vec::new()),
        Err(ft_gaspi::GaspiError::QueueFailure { ranks, .. }) => Ok(ranks),
        Err(e) => Err(e),
    }
}

/// Worker side: decode the plan currently in the local control segment.
pub fn read_plan(proc: &GaspiProc) -> GaspiResult<Option<RecoveryPlan>> {
    proc.with_segment(CTRL_SEG, |b| {
        let len = bytes::get_u32(b, 0) as usize;
        if len == 0 || 4 + len > b.len() {
            return None;
        }
        // A torn plan is no plan: the next epoch's write replaces it.
        RecoveryPlan::from_bytes(&b[4..4 + len]).ok()
    })
}

/// Worker side: report `suspect` to the FD's control segment. Best
/// effort: a failure to deliver (the FD may itself be unreachable) is not
/// an error of *this* rank — the caller keeps holding position per the
/// ordinary acknowledgment-wait discipline.
pub fn report_suspect(
    proc: &GaspiProc,
    fd_rank: Rank,
    suspect: Rank,
    queue: u16,
    timeout: Timeout,
) -> GaspiResult<()> {
    put_each(proc, &[fd_rank], 0, SUSPECT_NOTIF_BASE + suspect, 1, queue, timeout).map(drop)
}

/// FD side: drain (find + reset) the set suspect-report slots for all
/// `total` ranks, returning the reported ranks in ascending order.
pub fn drain_suspects(proc: &GaspiProc, total: u32) -> GaspiResult<Vec<Rank>> {
    let (mut reported, end) = (Vec::new(), SUSPECT_NOTIF_BASE + total);
    let mut next = SUSPECT_NOTIF_BASE;
    while next < end {
        match proc.notify_waitsome(CTRL_SEG, next, end - next, Timeout::Test) {
            Ok(nid) => {
                proc.notify_reset(CTRL_SEG, nid)?;
                reported.push(nid - SUSPECT_NOTIF_BASE);
                next = nid + 1;
            }
            Err(ft_gaspi::GaspiError::Timeout) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(reported)
}

/// Worker side: tell the FD the application is done, as [`signal`] does
/// with `timeout` for both the write and the liveness ping. The FD answers
/// every rank with its end plan ([`RecoveryPlan::after_done`]) and leaves.
pub fn signal_done(
    proc: &GaspiProc,
    fd_rank: Rank,
    queue: u16,
    timeout: Timeout,
) -> GaspiResult<()> {
    until_reached(proc, &[fd_rank], timeout, &|to| {
        put_each(proc, to, 0, DONE_NOTIF, 1, queue, timeout)
    })
}

/// Worker side: set the FD's [`DONE_NOTIF`] to `value`, re-sent to a live
/// FD until it lands ([`until_reached`]); each write waits up to the
/// detector's `ack_timeout`, each liveness ping up to its `ping_timeout`.
pub fn signal(proc: &GaspiProc, fd: Rank, value: u32, d: &DetectorConfig) -> GaspiResult<()> {
    until_reached(proc, &[fd], d.ping_timeout, &|to| {
        put_each(proc, to, 0, DONE_NOTIF, value, ACK_QUEUE, d.ack_timeout)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_gaspi::{GaspiConfig, GaspiWorld};

    #[test]
    fn plan_broadcast_roundtrip() {
        let layout = WorldLayout::new(2, 2);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        let failed_writes = broadcast_plan(&fd, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        assert!(failed_writes.is_empty());
        // Worker sees the epoch notification and reads the same plan.
        let nid = w0.notify_waitsome(CTRL_SEG, EPOCH_NOTIF, 1, Timeout::Ms(2000)).unwrap();
        assert_eq!(nid, EPOCH_NOTIF);
        assert_eq!(w0.notify_peek(CTRL_SEG, EPOCH_NOTIF).unwrap(), 1);
        assert_eq!(read_plan(&w0).unwrap(), Some(plan));
    }

    #[test]
    fn broadcast_reports_dead_targets() {
        let layout = WorldLayout::new(2, 1);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        create_ctrl_segment(&fd, &layout).unwrap();
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&w0, &layout).unwrap();
        world.fault().kill_rank(1); // rank 1 never created its segment & died
        let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        let failed = broadcast_plan(&fd, &plan, &[0, 1], 0, Timeout::Ms(2000)).unwrap();
        assert_eq!(failed, vec![1]);
        assert_eq!(read_plan(&w0).unwrap().unwrap().epoch, 1);
    }

    #[test]
    fn done_and_shutdown_signals() {
        let layout = WorldLayout::new(1, 2);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let w0 = world.proc_handle(0);
        let idle = world.proc_handle(1);
        let fd = world.proc_handle(layout.fd_rank());
        for p in [&w0, &idle, &fd] {
            create_ctrl_segment(p, &layout).unwrap();
        }
        signal_done(&w0, layout.fd_rank(), 0, Timeout::Ms(2000)).unwrap();
        fd.notify_waitsome(CTRL_SEG, DONE_NOTIF, 1, Timeout::Ms(2000)).unwrap();
        assert_eq!(fd.notify_reset(CTRL_SEG, DONE_NOTIF).unwrap(), 1);
        signal(&w0, layout.fd_rank(), DONE_ABORTED, &DetectorConfig::default()).unwrap();
        fd.notify_waitsome(CTRL_SEG, DONE_NOTIF, 1, Timeout::Ms(2000)).unwrap();
        assert_eq!(fd.notify_peek(CTRL_SEG, DONE_NOTIF).unwrap(), DONE_ABORTED);
        broadcast_shutdown(&fd, &[1], 0, Timeout::Ms(2000)).unwrap();
        idle.notify_waitsome(CTRL_SEG, SHUTDOWN_NOTIF, 1, Timeout::Ms(2000)).unwrap();
        assert_eq!(idle.notify_peek(CTRL_SEG, SHUTDOWN_NOTIF).unwrap(), 1);
    }
}
