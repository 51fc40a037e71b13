//! The process backend: every rank is a real OS process.
//!
//! The in-memory backend hosts ranks on threads and *simulates* fail-stop
//! death by poisoning liveness flags; this module hosts each rank in its
//! own OS process speaking [`ft_cluster::TcpTransport`] RPC, so death is
//! the real thing — a `SIGKILL` from the supervisor, sockets resetting,
//! peers timing out. The paper validated its recovery with exactly this
//! (`kill -9` from outside, §VI); the process backend lets the same
//! driver, detector, and checkpoint code face it.
//!
//! ## Roles
//!
//! * **Supervisor** (the original process): [`run_supervisor`] re-executes
//!   the current binary once per rank, with the rank's identity and the
//!   full [`FaultSchedule`] shipped in environment variables; brokers the
//!   port map; enforces wall-clock `KillRank`/`KillNode` actions as real
//!   `SIGKILL`s; and collects each child's exit status and
//!   `RESULT`/`EVENT` lines.
//! * **Child** (the re-executed binary): detects its role via
//!   [`child_env`], then [`run_child`] builds a single-rank
//!   [`GaspiWorld`] over TCP and runs the ordinary Fig. 3 driver flow for
//!   that one rank.
//!
//! ## Wire protocol with children (line-oriented, over stdio)
//!
//! ```text
//! child → parent:  PORT <tcp-port>
//! parent → child:  MAP <port-rank-0> <port-rank-1> …
//! child → parent:  EVENT <rank> <event-debug>          (zero or more)
//! child → parent:  RESULT <role> <app-rank|-> <ok|err|killed|panic> [detail]
//! ```
//!
//! Exit codes: `0` = ran to completion (a `RESULT` line says how),
//! [`KILLED_EXIT_CODE`] = died to an armed cooperative kill (iteration
//! kill, step-indexed injection, received `gaspi_proc_kill`), death by
//! signal = the supervisor's `SIGKILL`. The last two both classify as
//! [`ProcOutcome::Killed`] — the same fate by different executioners.
//!
//! ## Who enforces which part of the schedule
//!
//! One interpreter, [`FaultSchedule::start_timer`], runs on both sides over
//! a local [`FaultPlane`]; ARCHITECTURE.md §5 has the table. The
//! supervisor takes the wall-clock kills — its plane's kill hook is a
//! `SIGKILL`, no cooperation from the victim. Each child takes the rest:
//! iteration kills and step-indexed injections, which
//! [`FaultPlane::exit_process_on_kill`] turns into a process exit when they
//! kill the child's own rank, and wall-clock link ops, which the TCP
//! transport turns into real refusal (live sockets severed, in-flight sends
//! drained as `Broken`, frames refused per connection) — every child
//! applies them on the same clock (started at MAP time), so a timed
//! partition is symmetric across the wire. A step-indexed action fires on
//! the crossing rank's own plane only, which is exactly what makes
//! *asymmetric* partitions (one side believes the link is down, the other
//! does not) expressible — and what makes one that does not involve the
//! crossing rank unenforceable: [`run_supervisor`] refuses it. Enforced
//! wall-clock link ops are listed in [`ProcJobReport::link_faults`].

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ft_cluster::codec::{from_hex, to_hex};
use ft_cluster::{
    FaultAction, FaultPlane, FaultSchedule, Injection, Rank, TcpTransport, Topology, Transport,
    KILLED_EXIT_CODE,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, RankOutcome};

use crate::driver::{run_ft_rank, FtApp, FtConfig, FtCtx, Role};
use crate::events::EventLog;

const ENV_RANK: &str = "FT_PROC_RANK";
const ENV_RANKS: &str = "FT_PROC_RANKS";
const ENV_SCHEDULE: &str = "FT_PROC_SCHEDULE";

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// A child's identity, decoded from the environment.
pub struct ChildEnv {
    /// The rank this process hosts.
    pub rank: Rank,
    /// Total ranks in the job.
    pub num_ranks: u32,
    /// The full fault schedule; [`run_child`] leaves the wall-clock kills
    /// to the supervisor.
    pub schedule: FaultSchedule,
}

/// Detect whether this process is a supervised rank child. Binaries that
/// support the process backend call this first in `main` and divert to
/// [`run_child`] when it returns `Some`.
pub fn child_env() -> Option<ChildEnv> {
    let rank: Rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let num_ranks: u32 = std::env::var(ENV_RANKS).ok()?.parse().ok()?;
    let schedule = match std::env::var(ENV_SCHEDULE) {
        Ok(hex) => FaultSchedule::decode(&from_hex(&hex).ok()?).ok()?,
        Err(_) => FaultSchedule::none(),
    };
    Some(ChildEnv { rank, num_ranks, schedule })
}

/// Run one rank as a supervised child process: handshake ports over
/// stdio, build a single-rank world over TCP, run the driver flow, report
/// a `RESULT` line, and return the exit code for `main` to pass to
/// [`std::process::exit`]. `enc_summary` turns the app summary into the
/// bytes shipped (hex) on the `RESULT` line.
pub fn run_child<A, F, E>(
    env: ChildEnv,
    cfg: FtConfig,
    gaspi: GaspiConfig,
    make_app: F,
    enc_summary: E,
) -> i32
where
    A: FtApp,
    F: Fn(&FtCtx) -> A + Send + Sync + 'static,
    E: Fn(&A::Summary) -> Vec<u8>,
{
    assert_eq!(gaspi.num_ranks, env.num_ranks, "gaspi config must match the supervised world");
    assert_eq!(gaspi.ranks_per_node, 1, "process backend hosts one rank per node");
    let topo = Topology::new(env.num_ranks, 1);
    let fault = FaultPlane::new(topo);
    // Every cooperative kill of *this* rank becomes real process death.
    fault.exit_process_on_kill(env.rank);

    let tcp = Arc::new(
        TcpTransport::listen(env.rank, env.num_ranks, Arc::clone(&fault), gaspi.model.clone())
            .expect("bind child TCP listener"),
    );
    let transport: Arc<dyn Transport> = Arc::clone(&tcp) as Arc<dyn Transport>;
    // Build the world (which binds this rank's endpoint) BEFORE reporting
    // the port: peers learn our address only through the supervisor's MAP,
    // so no frame can arrive ahead of the endpoint. Reporting first would
    // open a race where a fast-starting peer's message reaches our
    // listener pre-bind and is silently dropped — fatal for payloads that
    // are never re-sent by the originator, like group-commit tokens.
    let world = GaspiWorld::with_transport(gaspi, fault, Arc::clone(&transport), env.rank);
    println!("PORT {}", tcp.port());
    let _ = io::stdout().flush();
    let mut map_line = String::new();
    io::stdin().read_line(&mut map_line).expect("read MAP line");
    let ports: Vec<u16> = map_line
        .trim()
        .strip_prefix("MAP ")
        .expect("MAP line from supervisor")
        .split_whitespace()
        .map(|p| p.parse().expect("port in MAP line"))
        .collect();
    tcp.set_peers(&ports);
    let events = EventLog::new();
    let fd_rank = cfg.layout.fd_rank();
    // Surface every link transition touching this rank in the event
    // stream (both timed ops below and step-indexed injections).
    {
        let ev = events.clone();
        let me = env.rank;
        world.fault().on_link(move |src, dst, broken| {
            if src == me {
                ev.record(me, crate::events::EventKind::LinkFault { peer: dst, broken });
            }
        });
    }
    // This rank's part of the schedule, on its own fault plane and the
    // supervisor's clock (started at MAP time). Wall-clock kills stay with
    // the supervisor — a victim cannot be trusted to sign its own death
    // warrant, but a partition needs exactly this local knowledge.
    let timer = env.schedule.clone().retain_timed(|a| !a.is_kill()).start_timer(world.fault());
    let outcome = run_ft_rank(&world, env.rank, cfg, env.schedule, events.clone(), make_app);
    drop(timer); // cancel link ops the job outlived

    // Linger (bounded) until the detector's end-of-job word — shutdown for
    // spares and aborted jobs, the done echo for workers: a process that
    // exits resets its sockets, and under real fail-stop a completed
    // rank is indistinguishable from a dead one — leaving early makes the
    // still-scanning FD "detect" finished workers and spin up a pointless
    // recovery at the end of every clean run.
    if env.rank != fd_rank {
        let proc = world.proc_handle(env.rank);
        let told = |slot| !matches!(proc.notify_peek(crate::ack::CTRL_SEG, slot), Ok(0));
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline
            && !told(crate::ack::SHUTDOWN_NOTIF)
            && !told(crate::ack::DONE_NOTIF)
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Ship the event stream before the verdict (the supervisor's asserts
    // read both).
    for ev in events.snapshot() {
        println!("EVENT {} {:?}", ev.rank, ev.kind);
    }
    let code = match outcome {
        RankOutcome::Completed(report) => {
            let role = role_name(report.role);
            let app = report.app_rank.map_or("-".into(), |a| a.to_string());
            match (&report.error, &report.summary) {
                (Some(e), _) => println!("RESULT {role} {app} err {e:?}"),
                (None, Some(s)) => println!("RESULT {role} {app} ok {}", to_hex(&enc_summary(s))),
                (None, None) => println!("RESULT {role} {app} ok -"),
            }
            0
        }
        RankOutcome::Failed(e) => {
            println!("RESULT - - err {e:?}");
            0
        }
        // Unreachable in practice: exit_process_on_kill turns kills into
        // process exits before the unwind surfaces. Kept for robustness.
        RankOutcome::Killed(_) => KILLED_EXIT_CODE,
        RankOutcome::Panicked(msg) => {
            println!("RESULT - - panic {}", msg.replace('\n', " "));
            1
        }
    };
    let _ = io::stdout().flush();
    transport.shutdown();
    code
}

fn role_name(role: Role) -> &'static str {
    match role {
        Role::Worker => "Worker",
        Role::Idle => "Idle",
        Role::Rescue => "Rescue",
        Role::Detector => "Detector",
    }
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// The job's rank processes; a kill is a `SIGKILL`.
struct ProcessHost {
    children: Mutex<Vec<Option<Child>>>,
}

impl ProcessHost {
    fn new(children: Vec<Child>) -> Arc<Self> {
        Arc::new(Self { children: Mutex::new(children.into_iter().map(Some).collect()) })
    }

    /// Wait (bounded) for the child hosting `rank`; `None` on timeout.
    fn wait_rank(&self, rank: Rank, deadline: Instant) -> Option<std::process::ExitStatus> {
        loop {
            {
                let mut guard = self.children.lock();
                match guard[rank as usize].as_mut() {
                    None => return None,
                    Some(child) => {
                        if let Ok(Some(status)) = child.try_wait() {
                            guard[rank as usize] = None;
                            return Some(status);
                        }
                    }
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL on Unix; idempotent (killing a reaped or dead child is an
    /// ignorable error).
    fn kill_rank(&self, rank: Rank) {
        if let Some(child) = self.children.lock()[rank as usize].as_mut() {
            let _ = child.kill();
        }
    }

    fn kill_all(&self) {
        for child in self.children.lock().iter_mut().flatten() {
            let _ = child.kill();
        }
    }
}

/// How one rank process ended.
#[derive(Debug)]
pub enum ProcOutcome {
    /// Exit 0 with a `RESULT` line.
    Completed(ProcResult),
    /// Died to a kill: supervisor `SIGKILL` (exit by signal) or an armed
    /// cooperative kill (exit code [`KILLED_EXIT_CODE`]).
    Killed {
        /// True when the process died to a real signal (the supervisor's
        /// `SIGKILL`), false for a cooperative kill exit.
        by_signal: bool,
    },
    /// Any other ending (crash, protocol violation, missing `RESULT`).
    Crashed(String),
    /// Still running at the supervisor's deadline (then killed).
    TimedOut,
}

impl ProcOutcome {
    /// True if the rank died to a kill (either executioner).
    pub fn was_killed(&self) -> bool {
        matches!(self, ProcOutcome::Killed { .. })
    }

    /// The completion record, if any.
    pub fn completed(&self) -> Option<&ProcResult> {
        match self {
            ProcOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// A child's parsed `RESULT` line.
#[derive(Debug)]
pub struct ProcResult {
    /// Final role (`Worker`/`Idle`/`Rescue`/`Detector`).
    pub role: String,
    /// Application rank carried at the end, if any.
    pub app_rank: Option<u32>,
    /// Decoded summary bytes (`ok` results with a payload).
    pub summary: Option<Vec<u8>>,
    /// Error detail (`err`/`panic` results).
    pub error: Option<String>,
}

/// Whole-job report from the supervisor.
#[derive(Debug)]
pub struct ProcJobReport {
    /// Per-rank outcomes, indexed by rank.
    pub outcomes: Vec<ProcOutcome>,
    /// `EVENT` payloads from all children, in arrival order: the debug
    /// rendering of each [`crate::events::EventKind`], prefixed by the
    /// recording rank.
    pub event_lines: Vec<String>,
    /// Wall-clock link ops enforced in-process by the children (each
    /// endpoint applies them to its local fault plane; the TCP transport
    /// severs/refuses accordingly). Additive to the per-rank `outcomes`,
    /// so report consumers can tell a partition run from a kill-only run.
    pub link_faults: Vec<FaultAction>,
}

impl ProcJobReport {
    /// Ranks that died to a kill.
    pub fn killed(&self) -> Vec<Rank> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| o.was_killed().then_some(r as Rank))
            .collect()
    }

    /// `(app_rank, summary bytes)` of completed workers/rescues, sorted.
    pub fn worker_summaries(&self) -> Vec<(u32, &[u8])> {
        let mut v: Vec<(u32, &[u8])> = self
            .outcomes
            .iter()
            .filter_map(|o| o.completed())
            .filter_map(|r| match (r.app_rank, &r.summary) {
                (Some(a), Some(s)) => Some((a, s.as_slice())),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(a, _)| *a);
        v
    }

    /// Event lines whose kind-name matches `needle` (e.g. `"FdDetect"`).
    pub fn events_matching(&self, needle: &str) -> Vec<&str> {
        self.event_lines.iter().filter(|l| l.contains(needle)).map(|s| s.as_str()).collect()
    }

    /// First error detail reported by any completed rank.
    pub fn first_error(&self) -> Option<&str> {
        self.outcomes.iter().filter_map(|o| o.completed()).find_map(|r| r.error.as_deref())
    }
}

/// Supervisor configuration.
pub struct SupervisorConfig {
    /// Total rank processes to spawn.
    pub num_ranks: u32,
    /// The fault schedule; wall-clock `KillRank`/`KillNode` become
    /// `SIGKILL`s, everything else is the children's to apply.
    pub schedule: FaultSchedule,
    /// Arguments passed to the re-executed binary (so a multi-mode bin
    /// can route to the right app).
    pub child_args: Vec<String>,
    /// Extra environment for children.
    pub child_env: Vec<(String, String)>,
    /// Hard deadline for the whole job; stragglers are killed and
    /// reported [`ProcOutcome::TimedOut`].
    pub deadline: Duration,
}

impl SupervisorConfig {
    /// A supervisor for `num_ranks` ranks with a 60 s deadline.
    pub fn new(num_ranks: u32, schedule: FaultSchedule) -> Self {
        Self {
            num_ranks,
            schedule,
            child_args: Vec::new(),
            child_env: Vec::new(),
            deadline: Duration::from_secs(60),
        }
    }

    /// Pass `args` to the re-executed binary.
    pub fn with_args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.child_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Set the job deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Spawn, broker, monitor, and reap one rank process per rank of the
/// job. Re-executes the current binary; children must detect
/// [`child_env`] and divert to [`run_child`].
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], before anything is spawned, for a
/// schedule with a step-indexed action that does not involve its crossing
/// rank (see the module docs); otherwise what spawning and the handshake
/// return.
pub fn run_supervisor(cfg: SupervisorConfig) -> io::Result<ProcJobReport> {
    let topo = Topology::new(cfg.num_ranks, 1);
    let enforceable = |i: &Injection| i.rank < cfg.num_ranks && i.action.involves(i.rank, &topo);
    if let Some(inj) = cfg.schedule.injections().iter().find(|i| !enforceable(i)) {
        let why = "fires on the crossing rank's own fault plane only, which it does not involve";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("{inj:?} {why}")));
    }
    let exe = std::env::current_exe()?;
    let schedule_hex = to_hex(&cfg.schedule.encode());
    let mut children = Vec::with_capacity(cfg.num_ranks as usize);
    let mut stdouts = Vec::with_capacity(cfg.num_ranks as usize);
    for rank in 0..cfg.num_ranks {
        let mut cmd = Command::new(&exe);
        cmd.args(&cfg.child_args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_RANKS, cfg.num_ranks.to_string())
            .env(ENV_SCHEDULE, &schedule_hex)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &cfg.child_env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        stdouts.push(BufReader::new(child.stdout.take().expect("piped child stdout")));
        children.push(child);
    }

    // PORT/MAP handshake: collect every child's listener port, then ship
    // the full map to each.
    let mut ports = Vec::with_capacity(children.len());
    for (rank, out) in stdouts.iter_mut().enumerate() {
        let mut line = String::new();
        out.read_line(&mut line)?;
        let port: u16 =
            line.trim().strip_prefix("PORT ").and_then(|p| p.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {rank}: expected PORT line, got {line:?}"),
                )
            })?;
        ports.push(port);
    }
    let map_line =
        format!("MAP {}\n", ports.iter().map(u16::to_string).collect::<Vec<_>>().join(" "));
    for child in &mut children {
        let mut stdin = child.stdin.take().expect("piped child stdin");
        stdin.write_all(map_line.as_bytes())?;
        // Dropping stdin closes it; children only ever read this one line.
    }

    let host = ProcessHost::new(children);
    // The job clock starts when the port map is out. The supervisor's part
    // of the schedule is the wall-clock kills: the timer every backend
    // runs, over a fault plane on which a kill is a real signal. (The
    // injections it arms there are the children's; no rank crosses this
    // plane.)
    let plane = FaultPlane::new(topo);
    let killer = Arc::clone(&host);
    plane.on_kill(move |ev| ev.ranks.iter().for_each(|&r| killer.kill_rank(r)));
    let timer = cfg.schedule.clone().retain_timed(FaultAction::is_kill).start_timer(plane);
    let link_faults =
        cfg.schedule.timed_actions().iter().map(|&(_, a)| a).filter(|a| !a.is_kill()).collect();

    // Drain each child's stdout on its own thread (children block on full
    // pipes otherwise), collecting EVENT and RESULT lines.
    type Collected = Arc<Mutex<(Vec<String>, HashMap<Rank, String>)>>;
    let collected: Collected = Arc::new(Mutex::new((Vec::new(), HashMap::new())));
    let mut readers = Vec::new();
    for (rank, out) in stdouts.into_iter().enumerate() {
        let collected = Arc::clone(&collected);
        let h = std::thread::Builder::new()
            .name(format!("proc-stdout-{rank}"))
            .spawn(move || {
                for line in out.lines() {
                    let Ok(line) = line else { break };
                    if let Some(ev) = line.strip_prefix("EVENT ") {
                        collected.lock().0.push(ev.to_string());
                    } else if let Some(res) = line.strip_prefix("RESULT ") {
                        collected.lock().1.insert(rank as Rank, res.to_string());
                    }
                }
            })
            .expect("spawn supervisor stdout reader");
        readers.push(h);
    }

    // Reap children against the deadline.
    let deadline = Instant::now() + cfg.deadline;
    let mut statuses = Vec::with_capacity(cfg.num_ranks as usize);
    for rank in 0..cfg.num_ranks {
        statuses.push(host.wait_rank(rank, deadline));
    }
    host.kill_all(); // No-op for reaped children; stops stragglers.
    for rank in 0..cfg.num_ranks {
        if statuses[rank as usize].is_none() {
            // One more (short) chance to reap the straggler post-SIGKILL.
            let grace = Instant::now() + Duration::from_secs(5);
            if let Some(s) = host.wait_rank(rank, grace) {
                if s.code().is_none() {
                    // Died to our deadline SIGKILL: still a timeout.
                    continue;
                }
                statuses[rank as usize] = Some(s);
            }
        }
    }
    for h in readers {
        let _ = h.join();
    }
    timer.cancel(); // a schedule may place kills far beyond the job's end

    let (event_lines, mut results) = {
        let mut guard = collected.lock();
        (std::mem::take(&mut guard.0), std::mem::take(&mut guard.1))
    };
    let outcomes = statuses
        .into_iter()
        .enumerate()
        .map(|(rank, status)| classify(status, results.remove(&(rank as Rank))))
        .collect();
    Ok(ProcJobReport { outcomes, event_lines, link_faults })
}

fn classify(status: Option<std::process::ExitStatus>, result: Option<String>) -> ProcOutcome {
    let Some(status) = status else { return ProcOutcome::TimedOut };
    match status.code() {
        // Killed by signal: the supervisor's SIGKILL.
        None => ProcOutcome::Killed { by_signal: true },
        Some(c) if c == KILLED_EXIT_CODE => ProcOutcome::Killed { by_signal: false },
        Some(0) => match result.as_deref().map(parse_result) {
            Some(Some(r)) => ProcOutcome::Completed(r),
            _ => ProcOutcome::Crashed("exit 0 without a parseable RESULT line".into()),
        },
        Some(c) => {
            let detail = result.unwrap_or_default();
            ProcOutcome::Crashed(format!("exit code {c}: {detail}"))
        }
    }
}

/// Parse the body of a `RESULT` line (prefix already stripped).
fn parse_result(body: &str) -> Option<ProcResult> {
    let mut it = body.splitn(4, ' ');
    let role = it.next()?.to_string();
    let app_rank = match it.next()? {
        "-" => None,
        a => Some(a.parse().ok()?),
    };
    let status = it.next()?;
    let detail = it.next().unwrap_or("");
    match status {
        "ok" => {
            let summary = match detail {
                "-" | "" => None,
                hex => Some(from_hex(hex).ok()?),
            };
            Some(ProcResult { role, app_rank, summary, error: None })
        }
        "err" | "panic" => {
            Some(ProcResult { role, app_rank, summary: None, error: Some(detail.to_string()) })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parsing() {
        let r = parse_result("Worker 3 ok 0a0b").unwrap();
        assert_eq!(r.role, "Worker");
        assert_eq!(r.app_rank, Some(3));
        assert_eq!(r.summary.as_deref(), Some(&[0x0a, 0x0b][..]));
        assert!(r.error.is_none());

        let r = parse_result("Idle - ok -").unwrap();
        assert_eq!(r.app_rank, None);
        assert!(r.summary.is_none());

        let r = parse_result("Worker 0 err Timeout with spaces").unwrap();
        assert_eq!(r.error.as_deref(), Some("Timeout with spaces"));

        assert!(parse_result("Worker 0 bogus x").is_none());
        assert!(parse_result("").is_none());
    }

    #[test]
    fn classify_exit_codes() {
        // Timeout.
        assert!(matches!(classify(None, None), ProcOutcome::TimedOut));
    }

    /// A rank process applies a site-triggered action to its own fault
    /// plane, so one aimed past the crossing rank would silently not
    /// happen. (`--list`: were anything spawned, a copy of this test binary
    /// would print its tests and the handshake would fail differently.)
    #[test]
    fn supervisor_refuses_a_site_action_that_spares_its_crossing_rank() {
        for action in [FaultAction::KillRank(2), FaultAction::BreakLink(1, 2)] {
            let schedule = FaultSchedule::none()
                .inject(Injection::kill("gaspi.allreduce", 1, 2))
                .inject(Injection::at("gaspi.allreduce", 0, 3, action));
            let cfg = SupervisorConfig::new(4, schedule).with_args(["--list"]);
            let err = run_supervisor(cfg).expect_err("unenforceable schedule");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn child_env_absent_outside_supervision() {
        // The test runner itself is not a supervised child.
        assert!(child_env().is_none() || std::env::var(ENV_RANK).is_ok());
    }
}
