//! The wire property over every public type that crosses a process
//! boundary — a socket, a pipe or a replica store. Each sample meets
//! [`check_wire`]; while it runs, a counting allocator holds the peak of
//! the bytes allocated on this thread to [`ALLOC_PER_BYTE`] times the
//! encoding's length, plus [`ALLOC_SLACK`], so a forged count cannot size
//! an allocation. Crate-private wire types (the GASPI op, the TCP frame
//! header) meet the property in their own crate's unit tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

use gaspi_ft::checkpoint::image::{seal, Trailer};
use gaspi_ft::checkpoint::service::{Push, Reply, Request};
use gaspi_ft::checkpoint::MissReason;
use gaspi_ft::cluster::codec::check_wire;
use gaspi_ft::cluster::{FaultAction, FaultSchedule, Injection, NodeId, Wire};
use gaspi_ft::core::events::MissStage;
use gaspi_ft::core::process::ChildEnd;
use gaspi_ft::core::{Event, EventKind, ProcResult, RecoveryPlan, Role};
use gaspi_ft::solver::LanczosState;
use gaspi_ft::sparse::plan::{RecvSpec, SendSpec};
use gaspi_ft::sparse::CommPlan;

/// Peak bytes live on this thread during a check, per byte of the
/// sample's encoding: the mutant under decode and its re-encoding are two
/// of them, the decoded value the rest.
const ALLOC_PER_BYTE: usize = 8;
/// Fixed allowance per check: small vectors start at a few elements.
const ALLOC_SLACK: usize = 4096;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's live bytes and their peak.
struct Meter;

fn grew(n: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-locals without destructors.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static METER: Meter = Meter;

/// Run the property over each sample, with the allocation bound.
fn check<T: Wire + Debug>(samples: &[T]) {
    for sample in samples {
        let len = sample.to_bytes().len();
        let base = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(base));
        check_wire(sample);
        let peak = PEAK.with(Cell::get) - base;
        let bound = ALLOC_PER_BYTE * len + ALLOC_SLACK;
        assert!(peak <= bound, "{peak} bytes live checking {len} bytes of {sample:?}");
    }
}

fn actions() -> Vec<FaultAction> {
    vec![
        FaultAction::KillRank(3),
        FaultAction::KillNode(NodeId(1)),
        FaultAction::BreakLink(0, 2),
        FaultAction::HealLink(0, 2),
        FaultAction::Delay(Duration::from_micros(10)),
    ]
}

/// One schedule with every trigger and, under injections, every action.
fn schedule() -> FaultSchedule {
    let timed = actions().into_iter().filter(|a| !matches!(a, FaultAction::Delay(_)));
    let s = FaultSchedule::none().kill_rank_at_iteration(2, 130).kill_rank_at_iteration(5, 220);
    let s = timed.enumerate().fold(s, |s, (i, a)| s.timed(Duration::from_millis(40 + i as u64), a));
    actions()
        .into_iter()
        .enumerate()
        .fold(s, |s, (i, a)| s.inject(Injection::at("gaspi.allreduce", 2, i as u64 + 1, a)))
}

/// One event of every kind. The `match` has no wildcard arm, so a new
/// kind does not compile until it is listed here.
fn one_of_every_kind() -> Vec<Event> {
    use EventKind::*;
    let kinds = vec![
        KillFired { iter: 7 },
        FdDetect { epoch: 2, failed: vec![1, 4, 0xFFFF_FFFF] },
        FdAck { epoch: 2 },
        FailureSignal { epoch: u64::MAX },
        GroupRebuilt { epoch: 3 },
        RestoreMiss { stage: MissStage::Vote, reason: MissReason::Timeout },
        RestoreMiss { stage: MissStage::Fetch, reason: MissReason::ChecksumMismatch },
        RestoreMiss { stage: MissStage::Fetch, reason: MissReason::NotFound },
        Restored { epoch: 3, iter: 400 },
        RedoComplete { epoch: 3, iter: 460 },
        Replayed { epoch: 3, from: 400, to: 460 },
        Activated { app_rank: 2 },
        FdPromoted,
        FdTakeover { dead_fd: 5 },
        LinkFault { peer: 1, broken: true },
        LinkFault { peer: 1, broken: false },
        CapacityExhausted,
        Finished { iter: 3000 },
    ];
    let mut seen = std::collections::BTreeSet::new();
    for k in &kinds {
        seen.insert(match k {
            KillFired { .. } => 0,
            FdDetect { .. } => 1,
            FdAck { .. } => 2,
            FailureSignal { .. } => 3,
            GroupRebuilt { .. } => 4,
            RestoreMiss { .. } => 5,
            Restored { .. } => 6,
            RedoComplete { .. } => 7,
            Activated { .. } => 8,
            FdPromoted => 9,
            FdTakeover { .. } => 10,
            LinkFault { .. } => 11,
            CapacityExhausted => 12,
            Finished { .. } => 13,
            Replayed { .. } => 14,
        });
    }
    assert_eq!(seen.len(), 15, "every kind must be listed");
    let event =
        |(i, kind)| Event { t: Duration::from_nanos(1_000_003 * i as u64), rank: i as u32, kind };
    kinds.into_iter().enumerate().map(event).collect()
}

fn child_ends() -> Vec<ChildEnd> {
    let ran = |role, app_rank, summary: Option<&[u8]>, error: Option<&str>, shutdown| {
        ChildEnd::Ran(ProcResult {
            role,
            app_rank,
            summary: summary.map(<[u8]>::to_vec),
            error: error.map(str::to_string),
            shutdown,
            t_end: Duration::from_micros(1234),
        })
    };
    vec![
        ran(Role::Worker, Some(3), Some(&[1, 2, 3, 4, 5, 6, 7, 8]), None, false),
        ran(Role::Rescue, Some(0), Some(&[]), None, false),
        ran(Role::Idle, None, None, None, false),
        ran(Role::Detector, None, None, Some("CapacityExhausted"), false),
        ran(Role::Worker, Some(1), None, Some("Signal(Shutdown)"), true),
        ChildEnd::Failed("rank panicked: index out of bounds".to_string()),
    ]
}

fn comm_plan() -> CommPlan {
    CommPlan {
        me: 2,
        nparts: 4,
        halo_len: 5,
        recvs: vec![RecvSpec { from: 0, halo_offset: 0, cols: vec![3, 9, 11] }],
        sends: vec![
            SendSpec { to: 1, dest_offset: 7, local_rows: vec![0, 4] },
            SendSpec { to: 3, dest_offset: 0, local_rows: vec![2] },
        ],
    }
}

/// A state with every section non-empty, and α one longer than β.
fn lanczos_state() -> LanczosState {
    let mut s = LanczosState::init(3, 7, 9);
    s.halo = vec![0.5, -0.25];
    s.halo_prev = vec![1.5, 0.0];
    s.alphas = vec![0.25, -1.5, 3.0];
    s.betas = vec![0.75, 2.0];
    s.iter = 3;
    s
}

#[test]
fn every_public_wire_type_meets_the_property() {
    check::<FaultAction>(&actions());
    check::<Injection>(&[Injection::kill("gaspi.write", 1, 3)]);
    check::<FaultSchedule>(&[schedule(), FaultSchedule::none()]);

    check::<Trailer>(&[
        Trailer { version: 7, len: 1000, checksum: 0x1105_069b_6d94_dd77 },
        Trailer { version: 0, len: 0, checksum: 0 },
    ]);
    check::<Request>(&[
        Request { rank: 0, tag: 7, version: None, payload: true },
        Request { rank: 3, tag: 9, version: Some(12), payload: false },
    ]);
    check::<Reply>(&[
        Reply { found: Some((4, b"replica".to_vec())), mismatch: Some(5) },
        Reply::default(),
    ]);
    let image = Arc::new(seal(4, b"replica".to_vec()));
    check::<Push>(&[Push { rank: 0, tag: 7, version: 4, keep: 2, image }]);

    check::<RecoveryPlan>(&[
        RecoveryPlan::initial(),
        RecoveryPlan {
            epoch: 7,
            failed: vec![2, 9, 5],
            rescues: vec![4, u32::MAX, 6],
            fd_alive: false,
            fd_rank: Some(5),
        },
    ]);
    check::<Event>(&one_of_every_kind());
    check::<ChildEnd>(&child_ends());

    let plan = comm_plan();
    check::<RecvSpec>(&plan.recvs);
    check::<SendSpec>(&plan.sends);
    check::<CommPlan>(&[plan, CommPlan::default()]);
    check::<LanczosState>(&[lanczos_state()]);
}
