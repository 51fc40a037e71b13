//! Communication reconstruction (the paper's Listing 2).
//!
//! After the acknowledgment, every member of the *new* worker group —
//! surviving workers and activated rescues — runs this sequence:
//!
//! 1. delete the old `COMM_MAIN` group,
//! 2. `gaspi_proc_kill` every failed process ("it explicitly enforces the
//!    processes to die even if they were alive", handling transient and
//!    false-positive failures),
//! 3. create `COMM_MAIN_NEW` with a deterministic id derived from the
//!    plan's adoption history, add the members of its worker set, and
//! 4. `gaspi_group_commit` — the blocking step whose cost dominates OHF2.
//!
//! The commit is one [`HealthWatch::retry`], as every `*_ft` call is: if a
//! *further* failure interrupts it, its plan ends the commit as it lands
//! (the watch's wake), the health watch surfaces it, and the caller
//! restarts recovery with it.

use ft_gaspi::{Group, Timeout};

use crate::error::FtResult;
use crate::events::{EventKind, EventLog};
use crate::health::HealthWatch;
use crate::layout::WorldLayout;
use crate::plan::RecoveryPlan;

/// Timeout of each `gaspi_proc_kill`.
const STEP_TIMEOUT: Timeout = Timeout::Ms(500);

/// Rebuild the worker group per `plan`. Returns the committed group.
///
/// Callers must be members of `plan.worker_set(layout)`. On
/// [`FtError::Signal`](crate::error::FtError::Signal) the caller should
/// restart with the newer plan.
pub fn execute_recovery(
    watch: &HealthWatch,
    layout: &WorldLayout,
    plan: &RecoveryPlan,
    prev_group: Option<Group>,
    events: &EventLog,
) -> FtResult<Group> {
    let proc = watch.proc();
    proc.injection_site("recover.begin");
    // 1. The old group is gone (ignore errors: it may never have existed
    //    for a rescue process).
    if let Some(g) = prev_group {
        let _ = proc.group_delete(g);
    }
    // 2. Enforce death of every failed process — transient failures and
    //    false positives must not keep participating.
    for &f in &plan.failed {
        let _ = proc.proc_kill(f, STEP_TIMEOUT);
    }
    // 3. COMM_MAIN_NEW with the plan-derived id; clear the remnants of an
    //    interrupted previous attempt at this group, if any.
    let gid = plan.group_id();
    proc.injection_site("recover.group.create");
    let group = match proc.group_create_with_id(gid) {
        Ok(g) => g,
        Err(_) => {
            let _ = proc.group_delete(Group(gid));
            proc.group_create_with_id(gid)?
        }
    };
    let members = plan.worker_set(layout);
    debug_assert!(members.contains(&proc.rank()), "recovery caller must be a member");
    for &m in &members {
        proc.group_add(group, m)?;
    }
    // 4. Blocking commit under the watch, so a failure *during* recovery
    //    escalates to the newer epoch as its plan lands.
    watch.retry(|t| proc.group_commit(group, t))?;
    proc.injection_site("recover.committed");
    events.record(proc.rank(), EventKind::GroupRebuilt { epoch: plan.epoch });
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::{self, create_ctrl_segment};
    use crate::detector::DetectorConfig;
    use crate::error::FtError;
    use ft_gaspi::{GaspiConfig, GaspiProc, GaspiWorld, RankOutcome};
    use std::time::{Duration, Instant};

    /// A watch on `proc` that abandons after 10 s.
    fn watch(proc: GaspiProc, layout: WorldLayout) -> HealthWatch {
        let ack = DetectorConfig::default().ack_timeout;
        HealthWatch::new(proc, layout, Duration::from_secs(10), ack)
    }

    /// Survivors + rescue rebuild a group after a kill, concurrently.
    #[test]
    fn rebuild_after_failure() {
        let layout = WorldLayout::new(3, 2); // workers 0-2, idle 3, FD 4
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fault = world.fault();
        fault.kill_rank(1);
        let plan = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        let layout2 = layout;
        let outs = world
            .launch(move |p| {
                let plan = plan.clone();
                if !plan.worker_set(&layout2).contains(&p.rank()) {
                    return Ok(true); // dead / FD ranks sit out
                }
                create_ctrl_segment(&p, &layout2).unwrap();
                let events = EventLog::new();
                let watch = watch(p, layout2);
                let g = execute_recovery(&watch, &layout2, &plan, None, &events).expect("recovery");
                // The rebuilt group is immediately usable.
                watch.proc().barrier(g, Timeout::Ms(5000)).unwrap();
                Ok(true)
            })
            .join();
        for (r, o) in outs.into_iter().enumerate() {
            if r == 1 {
                continue; // pre-killed rank never even started its closure
            }
            assert!(matches!(o, RankOutcome::Completed(true)) || r == 1, "rank {r}: {o:?}");
        }
        assert!(!fault.is_alive(1));
    }

    /// A job's first group forms at scale: 128 workers commit it, the idle
    /// spare and the FD sitting out.
    #[test]
    fn the_first_group_of_128_workers_forms() {
        let layout = WorldLayout::new(128, 2);
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let outs = world
            .launch(move |p| {
                if p.rank() >= layout.num_workers {
                    return Ok(true);
                }
                create_ctrl_segment(&p, &layout).unwrap();
                let watch = watch(p, layout);
                let plan = RecoveryPlan::initial();
                Ok(execute_recovery(&watch, &layout, &plan, None, &EventLog::new()).is_ok())
            })
            .join();
        let formed = outs.iter().filter(|o| matches!(o, RankOutcome::Completed(true))).count();
        assert_eq!(formed, outs.len(), "{formed} of {} ranks committed or sat out", outs.len());
    }

    /// A second failure during a rebuild escalates as its plan lands, not
    /// at abandon.
    #[test]
    fn a_newer_plan_ends_a_blocked_group_commit() {
        let layout = WorldLayout::new(3, 2); // workers 0-2, idle 3, FD 4
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let fd = world.proc_handle(layout.fd_rank());
        let w0 = world.proc_handle(0);
        create_ctrl_segment(&fd, &layout).unwrap();
        create_ctrl_segment(&w0, &layout).unwrap();
        let first = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        let second = first.after_failures(&layout, &[2], None);
        let watch = watch(w0, layout);
        watch.adopt(first.clone());
        let plan = second.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            ack::broadcast_plan(&fd, &plan, &[0], 0, Timeout::Ms(2000)).unwrap();
        });
        // Nobody else commits: rank 0 blocks in the commit until the plan.
        let t0 = Instant::now();
        match execute_recovery(&watch, &layout, &first, None, &EventLog::new()) {
            Err(FtError::Signal(crate::error::FtSignal::Recover(p))) => assert_eq!(p, second),
            other => panic!("expected Recover, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_millis(400), "escalated after {:?}", t0.elapsed());
        h.join().unwrap();
    }
}
