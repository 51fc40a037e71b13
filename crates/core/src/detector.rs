//! The dedicated fault detector process.
//!
//! Implements the paper's Listing 1 (`glo_health_chk`) and §IV-A: a
//! designated spare process periodically pings every other process with
//! `gaspi_proc_ping`; a `GASPI_ERROR` return marks the process failed and
//! adds it to the avoid-list. After a scan that found failures, the FD
//! advances the plan ([`RecoveryPlan::after_failures`]: rescues from the
//! idle pool, epoch bumped) and acknowledges the failure to all healthy
//! processes by one-sided writes into their control segments.
//!
//! There is one scan path, [`glo_health_chk_graced`]: all pings of a scan
//! go out as one batch, so simultaneous failures are detected at the cost
//! of a single one (the result the paper gets from a threaded FD). The
//! paper's sequential per-ping loop lives on only in `examples/fd_demo.rs`.

use std::time::Duration;

use ft_cluster::Rank;
use ft_gaspi::{GaspiProc, GaspiResult, Timeout};

use crate::ack::{self, CTRL_SEG, DONE_NOTIF};
use crate::error::{FtError, FtResult};
use crate::events::{EventKind, EventLog};
use crate::layout::WorldLayout;
use crate::plan::RecoveryPlan;

/// Fault detector tuning.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Pause between ping scans (the paper uses 3 s; the simulation
    /// defaults to 30 ms — same mechanism, scaled clock).
    pub scan_interval: Duration,
    /// Per-ping timeout.
    pub ping_timeout: Timeout,
    /// Timeout for flushing acknowledgment writes.
    pub ack_timeout: Timeout,
    /// Hysteresis before a scan's suspects are re-ping-verified.
    /// A link fault that breaks and heals within this window never
    /// surfaces as a detection — the verifying re-ping crosses the healed
    /// link — so transient partitions shorter than the grace cause no
    /// spurious recovery. The spares' watch on the detector takes the same
    /// second look, so neither an idle nor the shadow gives up on a
    /// detector behind such a link. `ZERO` (the default) verifies
    /// immediately, the pre-link-fault behavior.
    pub suspect_grace: Duration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            scan_interval: Duration::from_millis(30),
            ping_timeout: Timeout::Ms(200),
            ack_timeout: Timeout::Ms(2000),
            suspect_grace: Duration::ZERO,
        }
    }
}

/// One scan — the epoch-batched form of the paper's `glo_health_chk`
/// (Listing 1): all targets are pinged through one
/// `Transport::call_fanout` batch (one shard-lock pass, one shared
/// payload — what keeps scan time linear in targets out to 4096 ranks)
/// and a single poll collects every answer. Returns the same failed set
/// as the sequential per-ping loop — a rank is failed if its ping broke
/// or went unanswered — in ascending rank order.
///
/// The batch shares one `ping_timeout` window across *all* targets,
/// which under CPU load can time out healthy stragglers the sequential
/// loop would have waited for. Suspecting a healthy rank is
/// contract-legal — recovery enforces suspects with `proc_kill` — but it
/// burns a spare and makes replays of a seeded run diverge. So one more
/// batch *verifies* the suspects, each with its own full window. Dead
/// ranks confirm together in ≈`break_detect`, so a scan costs one batch
/// plus one `break_detect` however many ranks died; an all-healthy scan
/// stays a single batch.
///
/// Suspects sit out `grace` before the verifying re-ping, so a link fault
/// that heals within the window (see [`DetectorConfig::suspect_grace`])
/// never surfaces as a detection. An all-healthy batch pays nothing.
pub fn glo_health_chk_graced(
    proc: &GaspiProc,
    targets: &[Rank],
    ping_timeout: Timeout,
    grace: Duration,
) -> Vec<Rank> {
    let suspects = match proc.proc_ping_many(targets, ping_timeout) {
        Ok(s) => s,
        Err(_) => targets.to_vec(),
    };
    if !suspects.is_empty() && !grace.is_zero() {
        std::thread::sleep(grace);
    }
    proc.proc_ping_many(&suspects, ping_timeout).unwrap_or(suspects)
}

/// Say a word with `say` to `targets`, and again to a rank it missed (alive
/// but without a control segment yet) until it lands; a missed rank that
/// does not answer a ping within `ping_timeout` is dead and dropped.
pub fn until_reached(
    proc: &GaspiProc,
    targets: &[Rank],
    ping_timeout: Timeout,
    say: &dyn Fn(&[Rank]) -> GaspiResult<Vec<Rank>>,
) -> GaspiResult<()> {
    let mut unreached = say(targets)?;
    while !unreached.is_empty() {
        let dead = glo_health_chk_graced(proc, &unreached, ping_timeout, Duration::ZERO);
        unreached.retain(|r| !dead.contains(r));
        std::thread::sleep(Duration::from_millis(1));
        unreached = say(&unreached)?;
    }
    Ok(())
}

/// Run the dedicated FD until the application signals completion, the
/// spare pool forces a promotion, or capacity is exhausted. The control
/// segment must already exist.
///
/// Returns the plan to join the workers with when the FD had to promote
/// itself (paper restriction 2), `None` after a normal end. What the
/// detector saw and did is in `events` (`FdDetect`, `FdAck`, …).
pub fn run_detector(
    proc: &GaspiProc,
    layout: &WorldLayout,
    cfg: &DetectorConfig,
    events: &EventLog,
) -> FtResult<Option<RecoveryPlan>> {
    run_detector_from(proc, layout, cfg, events, None, RecoveryPlan::initial())
}

/// [`run_detector`] from `plan` on: the initial plan for the primary FD;
/// for a shadow, the plan whose detector it found dead — it enforces that
/// verdict with `gaspi_proc_kill` (§IV-A-a: a detector condemned while
/// alive must not keep scanning beside its successor), records the
/// takeover and announces itself in that rank's place first. The plan is
/// cumulative, so it is all the detection state there is — which is what
/// lets a shadow continue where a dead primary stopped (the redundancy
/// approach the paper proposes as future work, §VIII). `reserved` (the
/// shadow's rank) is withheld from the rescue pool.
pub fn run_detector_from(
    proc: &GaspiProc,
    layout: &WorldLayout,
    cfg: &DetectorConfig,
    events: &EventLog,
    reserved: Option<Rank>,
    mut plan: RecoveryPlan,
) -> FtResult<Option<RecoveryPlan>> {
    let me = proc.rank();
    let (q, t) = (ack::ACK_QUEUE, cfg.ack_timeout);
    // Acknowledge a plan to the ranks it leaves standing; returns those the
    // write did not reach.
    let announce = |plan: &RecoveryPlan| -> FtResult<Vec<Rank>> {
        let unreached = ack::broadcast_plan(proc, plan, &alive_targets(layout, plan, me), q, t)?;
        events.record(me, EventKind::FdAck { epoch: plan.epoch });
        Ok(unreached)
    };
    // Ranks the plan in force has not reached: dead and not yet detected,
    // or alive and not yet listening (a spare scheduled so late that its
    // control segment did not exist when the write arrived).
    let mut unreached = Vec::new();
    let dead_fd = plan.current_fd(layout);
    if dead_fd != me {
        // Best effort, like recovery's kill loop: an unreachable rank stays
        // condemned by the plan either way.
        let _ = proc.proc_kill(dead_fd, cfg.ping_timeout);
        events.record(me, EventKind::FdTakeover { dead_fd });
        plan = plan.after_takeover(layout, me);
        unreached = announce(&plan)?;
    }

    // The detector's last word (the end plan, the shutdown word, or the
    // plan it joins the workers under) goes to every rank but this one,
    // condemned ones included — one condemned by mistake is alive, and
    // nothing else would release it — and again to a live rank it missed.
    let others: Vec<Rank> = (0..layout.total()).filter(|&r| r != me).collect();
    let last_word = |say: &dyn Fn(&[Rank]) -> GaspiResult<Vec<Rank>>| {
        until_reached(proc, &others, cfg.ping_timeout, say)
    };
    let done = || proc.notify_peek(CTRL_SEG, DONE_NOTIF);
    let ended = |plan: &RecoveryPlan| -> FtResult<bool> {
        match done()? {
            0 => return Ok(false),
            ack::DONE_ABORTED => last_word(&|to| ack::broadcast_shutdown(proc, to, q, t))?,
            _ => last_word(&|to| ack::broadcast_plan(proc, &plan.after_done(), to, q, t))?,
        }
        Ok(true)
    };

    loop {
        if ended(&plan)? {
            return Ok(None);
        }
        // Every rank not on the avoid-list (Listing 1).
        let targets = alive_targets(layout, &plan, me);
        let mut newly = glo_health_chk_graced(proc, &targets, cfg.ping_timeout, cfg.suspect_grace);
        // Merge worker-reported suspects (the link-fault path): a severed
        // worker↔worker link breaks the workers' one-sided ops while the
        // FD's own pings — crossing intact FD links — keep succeeding, so
        // reports are trusted without a re-ping. Recovery then enforces
        // the suspect's death via `proc_kill` (§IV-A-a).
        for r in ack::drain_suspects(proc, layout.total()).unwrap_or_default() {
            if targets.contains(&r) && !newly.contains(&r) {
                newly.push(r);
            }
        }
        newly.sort_unstable();
        // A scan whose findings arrive after done ends the job all the
        // same: no worker group is left to rebuild.
        if ended(&plan)? {
            return Ok(None);
        }
        if newly.is_empty() {
            if !unreached.is_empty() {
                // Everyone answered this scan, so whoever missed the plan
                // is alive: say it again. (A rank that died since is found
                // by the next scan, whose announcement starts a new list.)
                unreached = ack::broadcast_plan(proc, &plan, &unreached, q, t)?;
            }
        } else {
            plan = plan.after_failures(layout, &newly, reserved);
            events.record(me, EventKind::FdDetect { epoch: plan.epoch, failed: newly });
            if plan.fd_alive {
                // The plan is cumulative: the newest is all a straggler needs.
                unreached = announce(&plan)?;
            } else {
                last_word(&|to| ack::broadcast_plan(proc, &plan, to, q, t))?;
                events.record(me, EventKind::FdAck { epoch: plan.epoch });
                if plan.exhausted(layout) {
                    events.record(me, EventKind::CapacityExhausted);
                    last_word(&|to| ack::broadcast_shutdown(proc, to, q, t))?;
                    return Err(FtError::CapacityExhausted);
                }
                events.record(me, EventKind::FdPromoted);
                return Ok(Some(plan));
            }
        }

        // Wait out the scan interval; the done signal cuts it short.
        let interval = Timeout::Ms(cfg.scan_interval.as_millis() as u64);
        let _ = proc.notify_waitsome(CTRL_SEG, DONE_NOTIF, 1, interval);
    }
}

fn alive_targets(layout: &WorldLayout, plan: &RecoveryPlan, me: Rank) -> Vec<Rank> {
    (0..layout.total()).filter(|&r| r != me && !plan.failed.contains(&r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use ft_gaspi::{GaspiConfig, GaspiWorld};

    use crate::driver::{spare_run, FtConfig, FtCtx};

    #[test]
    fn batched_health_chk_matches_sequential() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(10));
        world.fault().kill_rank(1);
        world.fault().kill_rank(7);
        world.fault().kill_rank(8);
        let p = world.proc_handle(9);
        let targets: Vec<Rank> = (0..9).collect();
        // Listing 1: one blocking ping per target.
        let seq: Vec<Rank> = targets
            .iter()
            .copied()
            .filter(|&r| p.proc_ping(r, Timeout::Ms(500)).is_err())
            .collect();
        let bat = glo_health_chk_graced(&p, &targets, Timeout::Ms(500), Duration::ZERO);
        assert_eq!(seq, bat);
        assert_eq!(bat, vec![1, 7, 8]);
    }

    /// §IV-A-a on the takeover path: a successor started from a plan whose
    /// detector is alive (condemned behind a slow or broken link) kills it
    /// before it announces itself, so two detectors never scan at once.
    #[test]
    fn a_takeover_kills_the_detector_it_replaces() {
        let layout = WorldLayout::new(1, 3); // worker 0, idle 1, shadow 2, FD 3
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let procs: Vec<GaspiProc> = (0..4).map(|r| world.proc_handle(r)).collect();
        for p in &procs {
            ack::create_ctrl_segment(p, &layout).unwrap();
        }
        let (cfg, events) = (DetectorConfig::default(), EventLog::new());
        let (shadow, cfg2, events2) = (procs[2].clone(), cfg.clone(), events.clone());
        let run = std::thread::spawn(move || {
            run_detector_from(&shadow, &layout, &cfg2, &events2, Some(2), RecoveryPlan::initial())
        });
        let took_over = || events.first_where(|e| matches!(e.kind, EventKind::FdTakeover { .. }));
        while took_over().is_none() && !run.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(took_over().is_some(), "the takeover must be recorded");
        assert!(!world.fault().is_alive(3), "the replaced detector must be enforced dead");
        ack::signal_done(&procs[0], 2, ack::ACK_QUEUE, cfg.ack_timeout).unwrap();
        assert_eq!(run.join().unwrap(), Ok(None));
    }

    /// An idle the detector condemned by mistake (a ping lost under load),
    /// and so late that it is not listening yet when the job ends, still
    /// learns that the job is over: the end plan goes to every rank, and
    /// again to a live one it missed, until it lands.
    #[test]
    fn a_condemned_late_idle_gets_the_end_plan() {
        let layout = WorldLayout::new(1, 2); // worker 0, idle 1, FD 2
        let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
        let procs: Vec<GaspiProc> = (0..3).map(|r| world.proc_handle(r)).collect();
        for p in [&procs[0], &procs[2]] {
            ack::create_ctrl_segment(p, &layout).unwrap();
        }
        let (cfg, events) = (FtConfig::builder(layout).build().unwrap(), EventLog::new());
        let condemned = RecoveryPlan::initial().after_failures(&layout, &[1], None);
        let (fd, dcfg, ev, plan) =
            (procs[2].clone(), cfg.detector.clone(), events.clone(), condemned.clone());
        let detector =
            std::thread::spawn(move || run_detector_from(&fd, &layout, &dcfg, &ev, None, plan));
        ack::signal_done(&procs[0], 2, ack::ACK_QUEUE, cfg.detector.ack_timeout).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        ack::create_ctrl_segment(&procs[1], &layout).unwrap();
        let (tx, rx) = mpsc::channel();
        let (idle, cfg2) = (procs[1].clone(), cfg.clone());
        std::thread::spawn(move || {
            let _ = tx.send(spare_run(&FtCtx::new(idle, cfg2, events)));
        });
        let ended = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(ended, Ok(Ok(None)), "the idle never learnt the job was over");
        assert_eq!(detector.join().unwrap(), Ok(None));
        assert_eq!(ack::read_plan(&procs[1]).unwrap(), Some(condemned.after_done()));
    }

    #[test]
    fn graced_chk_forgives_a_link_that_heals_in_the_window() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(4));
        let p = world.proc_handle(3);
        world.fault().break_link(3, 1);
        let fault = world.fault();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            fault.heal_link(3, 1);
        });
        let failed =
            glo_health_chk_graced(&p, &[0, 1, 2], Timeout::Ms(20), Duration::from_millis(150));
        h.join().unwrap();
        assert!(failed.is_empty(), "link healed within the grace must not be a detection");
        // The same fault without the grace is reported immediately.
        world.fault().break_link(3, 1);
        assert_eq!(glo_health_chk_graced(&p, &[0, 1, 2], Timeout::Ms(20), Duration::ZERO), vec![1]);
    }
}
