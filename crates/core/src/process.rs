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
//!   `SIGKILL`s; and turns each child's exit status and `EVENT`/`RESULT`
//!   lines into one [`ProcJobReport`].
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
//! child → parent:  EVENT <hex of Event::to_bytes>      (zero or more)
//! child → parent:  RESULT <hex of ChildEnd::to_bytes>
//! parent → child:  (stdin closes, once every rank has ended)
//! ```
//!
//! The two payloads are [`ft_cluster::Wire`] encodings, hex-coded
//! to stay line-oriented; [`child_outcome`] decodes them as bytes from
//! another process — a torn or non-hex protocol line makes that rank
//! [`ProcOutcome::Crashed`]. Lines with any other prefix are the
//! application's own output and are ignored. Exit codes: `0` = ran to
//! completion (the `RESULT` line says how), [`KILLED_EXIT_CODE`] = died to
//! an armed cooperative kill (iteration kill, step-indexed injection,
//! received `gaspi_proc_kill`), death by signal = the supervisor's
//! `SIGKILL` — the last two are both [`ProcOutcome::Killed`], the same
//! fate by different executioners — `1` = the rank's closure failed or
//! panicked (the `RESULT` line carries the message).
//!
//! Who enforces which part of the fault schedule — one interpreter,
//! [`FaultSchedule::start_timer`], on both sides; wall-clock kills at the
//! supervisor, everything else on each child's own [`FaultPlane`], which
//! is what makes asymmetric partitions expressible and a site action that
//! spares its crossing rank unenforceable — is ARCHITECTURE.md §5's table.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ft_cluster::codec::{from_hex, to_hex, CodecError, Dec, Enc, Wire};
use ft_cluster::{
    FaultAction, FaultPlane, FaultSchedule, Injection, Monitor, Rank, TcpTransport, Topology,
    Transport, KILLED_EXIT_CODE,
};
use ft_gaspi::{GaspiConfig, GaspiWorld, RankOutcome};

use crate::driver::{run_ft_rank, FtApp, FtConfig, FtCtx, Role};
use crate::error::{FtError, FtSignal};
use crate::events::{Event, EventKind, EventLog};

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
        Ok(hex) => FaultSchedule::from_bytes(&from_hex(&hex).ok()?).ok()?,
        Err(_) => FaultSchedule::none(),
    };
    Some(ChildEnv { rank, num_ranks, schedule })
}

/// Run one rank as a supervised child process: handshake ports over
/// stdio, build a single-rank world over TCP, run the driver flow, report
/// the `EVENT` and `RESULT` lines, and return the exit code for `main` to
/// pass to [`std::process::exit`]. `enc_summary` turns the app summary
/// into the bytes the `RESULT` line carries.
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
    // Surface every link transition touching this rank in the event
    // stream (both timed ops below and step-indexed injections).
    {
        let ev = events.clone();
        let me = env.rank;
        world.fault().on_link(move |src, dst, broken| {
            if src == me {
                ev.record(me, EventKind::LinkFault { peer: dst, broken });
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

    // Ship the event stream before the verdict (the supervisor's asserts
    // read both).
    for ev in events.snapshot() {
        println!("EVENT {}", to_hex(&ev.to_bytes()));
    }
    let (end, code) = match outcome {
        RankOutcome::Completed(report) => {
            let shutdown = matches!(report.error, Some(FtError::Signal(FtSignal::Shutdown)));
            let result = ProcResult {
                role: report.role,
                app_rank: report.app_rank,
                summary: report.summary.as_ref().map(&enc_summary),
                error: report.error.map(|e| format!("{e:?}")),
                shutdown,
                t_end: report.t_end,
            };
            (ChildEnd::Ran(result), 0)
        }
        RankOutcome::Failed(e) => (ChildEnd::Failed(format!("rank failed: {e:?}")), 1),
        RankOutcome::Panicked(msg) => (ChildEnd::Failed(format!("rank panicked: {msg}")), 1),
        // Unreachable in practice: exit_process_on_kill turns kills into
        // process exits before the unwind surfaces. Kept for robustness.
        RankOutcome::Killed(_) => return KILLED_EXIT_CODE,
    };
    println!("RESULT {}", to_hex(&end.to_bytes()));
    let _ = io::stdout().flush();
    // Stay up until the supervisor closes stdin, once every rank has ended:
    // an exited rank looks dead — to a detector still scanning, or to a peer
    // still resuming the job's last collective with it.
    let _ = io::stdin().read_line(&mut String::new());
    transport.shutdown();
    code
}

/// What a child's `RESULT` line says.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildEnd {
    /// The rank's run ended: its completion record.
    Ran(ProcResult),
    /// The rank closure failed or panicked: its message.
    Failed(String),
}

/// The `RESULT` payload (hex-coded on the line).
impl Wire for ChildEnd {
    fn encode(&self, e: &mut Enc) {
        match self {
            ChildEnd::Failed(message) => {
                e.u8(0).str(message);
            }
            ChildEnd::Ran(r) => {
                e.u8(1).u8(r.role as u8);
                r.t_end.encode(e);
                r.app_rank.encode(e);
                match (&r.error, &r.summary) {
                    (Some(err), _) => e.u8(2 + u8::from(r.shutdown)).str(err),
                    (None, Some(summary)) => e.u8(1).bytes(summary),
                    (None, None) => e.u8(0),
                };
            }
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => return Ok(ChildEnd::Failed(d.str()?)),
            1 => {}
            t => return Err(CodecError::BadTag(t)),
        }
        let role = match d.u8()? {
            0 => Role::Worker,
            1 => Role::Idle,
            2 => Role::Rescue,
            3 => Role::Detector,
            t => return Err(CodecError::BadTag(t)),
        };
        let t_end = Duration::decode(d)?;
        let app_rank = Wire::decode(d)?;
        let (summary, error, shutdown) = match d.u8()? {
            0 => (None, None, false),
            1 => (Some(d.bytes()?), None, false),
            t @ (2 | 3) => (None, Some(d.str()?), t == 3),
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(ChildEnd::Ran(ProcResult { role, app_rank, summary, error, shutdown, t_end }))
    }
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// The job's rank processes; a kill is a `SIGKILL`.
struct ProcessHost {
    children: Mutex<Vec<Option<Child>>>,
    /// Ranks that printed `RESULT` (or closed their output): their run is
    /// over, and a wall-clock kill no longer changes how it ended (as on
    /// the in-memory backend).
    ended: Monitor<HashSet<Rank>>,
}

impl ProcessHost {
    fn new(children: Vec<Child>) -> Arc<Self> {
        let children = Mutex::new(children.into_iter().map(Some).collect());
        Arc::new(Self { children, ended: Monitor::default() })
    }

    fn end(&self, rank: Rank) {
        self.ended.update(|e| e.insert(rank));
    }

    fn has_ended(&self, rank: Rank) -> bool {
        self.ended.lock().contains(&rank)
    }

    /// Release the children together once every one has ended (see
    /// `run_child`) or the deadline passed, then reap each: one that ended
    /// has a grace of its own to exit, hung peer or not; a straggler is
    /// killed, and stays `None` (timed out) unless it exited on its own.
    fn release_and_reap(
        &self,
        stdins: Vec<ChildStdin>,
        deadline: Instant,
    ) -> Vec<Option<ExitStatus>> {
        let n = stdins.len();
        self.ended.wait_for(|e| e.len() >= n, Some(deadline));
        drop(stdins);
        let grace = deadline.max(Instant::now() + Duration::from_secs(2));
        let reap_by = |r| if self.has_ended(r) { grace } else { deadline };
        let mut statuses: Vec<_> = (0..n as Rank).map(|r| self.wait_rank(r, reap_by(r))).collect();
        self.kill_all(); // No-op for reaped children.
        for (r, status) in statuses.iter_mut().enumerate().filter(|(_, s)| s.is_none()) {
            let reaped = self.wait_rank(r as Rank, Instant::now() + Duration::from_secs(5));
            *status = reaped.filter(|s| s.code().is_some());
        }
        statuses
    }

    /// Wait (bounded) for the child hosting `rank`; `None` on timeout.
    fn wait_rank(&self, rank: Rank, deadline: Instant) -> Option<ExitStatus> {
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
        if self.has_ended(rank) {
            return;
        }
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

/// A child's decoded `RESULT` line: the process-backend form of
/// [`crate::RankReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProcResult {
    /// Final role.
    pub role: Role,
    /// Application rank carried at the end, if any.
    pub app_rank: Option<u32>,
    /// Summary bytes (ranks that finished the application).
    pub summary: Option<Vec<u8>>,
    /// Debug rendering of the [`FtError`] that ended the rank's run.
    pub error: Option<String>,
    /// True when `error` is `Signal(Shutdown)` — what an aborted job
    /// hands every other rank, never a cause.
    pub shutdown: bool,
    /// Job-clock time (started at the port map) the rank returned.
    pub t_end: Duration,
}

/// Whole-job report from the supervisor.
#[derive(Debug)]
pub struct ProcJobReport {
    /// Per-rank outcomes, indexed by rank.
    pub outcomes: Vec<ProcOutcome>,
    /// Every child's events, each with the timestamp its child gave it
    /// (the children's job clocks all start at the port map), so the
    /// merged log sorts by time like an in-memory job's.
    pub events: EventLog,
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

    /// The earliest error that ended a completed rank, by job clock (see
    /// [`crate::JobReport::first_error`]); failing that, what the lowest
    /// crashed rank — a failed or panicked closure, which has no time on
    /// record — left behind; `Signal(Shutdown)` only when nothing else is
    /// on record.
    pub fn first_error(&self) -> Option<&str> {
        let ranked = self.outcomes.iter().filter_map(|o| match o {
            ProcOutcome::Completed(r) => {
                r.error.as_deref().map(|e| ((2 * u8::from(r.shutdown), r.t_end), e))
            }
            ProcOutcome::Crashed(detail) => Some(((1, Duration::ZERO), detail.as_str())),
            _ => None,
        });
        ranked.min_by_key(|(key, _)| *key).map(|(_, e)| e)
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
    /// Hard deadline for the whole job; stragglers are killed and
    /// reported [`ProcOutcome::TimedOut`].
    pub deadline: Duration,
}

impl SupervisorConfig {
    /// A supervisor for `num_ranks` ranks with a 60 s deadline.
    pub fn new(num_ranks: u32, schedule: FaultSchedule) -> Self {
        Self { num_ranks, schedule, child_args: Vec::new(), deadline: Duration::from_secs(60) }
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
    let schedule_hex = to_hex(&cfg.schedule.to_bytes());
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
    let mut stdins = Vec::with_capacity(children.len());
    for child in &mut children {
        let mut stdin = child.stdin.take().expect("piped child stdin");
        stdin.write_all(map_line.as_bytes())?;
        stdins.push(stdin);
    }

    let host = ProcessHost::new(children);
    // The job clock starts when the port map is out. The supervisor's part
    // of the schedule is the wall-clock kills: the timer every backend
    // runs, over a fault plane on which a kill is a real signal. (The
    // injections it arms there are the children's; no rank crosses this
    // plane.)
    let events = EventLog::new();
    let plane = FaultPlane::new(topo);
    let killer = Arc::clone(&host);
    plane.on_kill(move |ev| ev.ranks.iter().for_each(|&r| killer.kill_rank(r)));
    let timer = cfg.schedule.clone().retain_timed(FaultAction::is_kill).start_timer(plane);

    // Drain each child's stdout on its own thread (children block on full
    // pipes otherwise); the lines are decoded once the child is reaped.
    // A `RESULT` line or the end of output says the child has ended.
    let readers: Vec<_> = stdouts
        .into_iter()
        .enumerate()
        .map(|(rank, out)| {
            let host = Arc::clone(&host);
            std::thread::Builder::new()
                .name(format!("proc-stdout-{rank}"))
                .spawn(move || {
                    let mut lines = Vec::new();
                    for line in out.lines().map_while(Result::ok) {
                        if line.starts_with("RESULT ") {
                            host.end(rank as Rank);
                        }
                        lines.push(line);
                    }
                    host.end(rank as Rank);
                    lines
                })
                .expect("spawn supervisor stdout reader")
        })
        .collect();

    let statuses = host.release_and_reap(stdins, Instant::now() + cfg.deadline);
    timer.cancel(); // a schedule may place kills far beyond the job's end

    let outcomes = statuses
        .into_iter()
        .zip(readers)
        .map(|(status, reader)| child_outcome(status, &reader.join().unwrap_or_default(), &events))
        .collect();
    Ok(ProcJobReport { outcomes, events })
}

/// One rank's outcome from its exit status (`None` = still running at the
/// deadline) and its stdout: `EVENT` lines are decoded into `events`, the
/// `RESULT` line into the completion record. A protocol line that does
/// not decode — torn, non-hex, trailing bytes — is never dropped: a rank
/// that exited 0 with one is [`ProcOutcome::Crashed`].
pub fn child_outcome(
    status: Option<ExitStatus>,
    stdout: &[String],
    events: &EventLog,
) -> ProcOutcome {
    let mut end = None;
    let mut malformed = None;
    for line in stdout {
        let decoded = if let Some(hex) = line.strip_prefix("EVENT ") {
            from_hex(hex).and_then(|bytes| Event::from_bytes(&bytes)).map(|ev| events.push(ev))
        } else if let Some(hex) = line.strip_prefix("RESULT ") {
            from_hex(hex).and_then(|bytes| ChildEnd::from_bytes(&bytes)).map(|e| end = Some(e))
        } else {
            Ok(())
        };
        if let Err(e) = decoded {
            malformed.get_or_insert(format!("malformed line {line:?}: {e}"));
        }
    }
    let Some(status) = status else { return ProcOutcome::TimedOut };
    match (status.code(), malformed, end) {
        // Killed by signal: the supervisor's SIGKILL.
        (None, ..) => ProcOutcome::Killed { by_signal: true },
        (Some(KILLED_EXIT_CODE), ..) => ProcOutcome::Killed { by_signal: false },
        (Some(0), None, Some(ChildEnd::Ran(result))) => ProcOutcome::Completed(result),
        (Some(0), None, None) => ProcOutcome::Crashed("exit 0 without a RESULT line".into()),
        (Some(c), Some(why), _) | (Some(c), None, Some(ChildEnd::Failed(why))) => {
            ProcOutcome::Crashed(format!("exit code {c}: {why}"))
        }
        (Some(c), None, _) => ProcOutcome::Crashed(format!("exit code {c}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn classify_exit_codes() {
        use std::os::unix::process::ExitStatusExt;
        let exited = |code: i32| Some(ExitStatus::from_raw(code << 8));
        let outcome = |status, end: Option<ChildEnd>| {
            let lines: Vec<String> =
                end.iter().map(|e| format!("RESULT {}", to_hex(&e.to_bytes()))).collect();
            child_outcome(status, &lines, &EventLog::new())
        };
        // Still running at the deadline, whatever it printed so far.
        assert!(matches!(outcome(None, None), ProcOutcome::TimedOut));
        assert!(matches!(
            outcome(None, Some(ChildEnd::Failed("late".into()))),
            ProcOutcome::TimedOut
        ));
        // The two executioners of a kill.
        let armed = outcome(exited(KILLED_EXIT_CODE), None);
        assert!(matches!(armed, ProcOutcome::Killed { by_signal: false }), "{armed:?}");
        let sigkill = outcome(Some(ExitStatus::from_raw(9)), None);
        assert!(matches!(sigkill, ProcOutcome::Killed { by_signal: true }), "{sigkill:?}");
        // A failed rank closure exits 1 and says why; a bare non-zero exit
        // is a crash too.
        let failed = outcome(exited(1), Some(ChildEnd::Failed("rank failed: no segment".into())));
        assert!(
            matches!(&failed, ProcOutcome::Crashed(d) if d == "exit code 1: rank failed: no segment"),
            "{failed:?}"
        );
        let bare = outcome(exited(3), None);
        assert!(matches!(&bare, ProcOutcome::Crashed(d) if d == "exit code 3"), "{bare:?}");
    }

    /// A hung rank holds the others only until the deadline: those that
    /// ended are reaped as exited, not timed out, and a wall-clock kill
    /// after their end leaves them be.
    #[cfg(unix)]
    #[test]
    fn ended_ranks_are_reaped_past_a_hung_peer() {
        let spawn = |script| {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", script]).stdin(Stdio::piped()).spawn().unwrap()
        };
        let mut children =
            vec![spawn("cat >/dev/null"), spawn("cat >/dev/null"), spawn("sleep 30")];
        let stdins = children.iter_mut().map(|c| c.stdin.take().unwrap()).collect();
        let host = ProcessHost::new(children);
        host.end(0);
        host.end(1);
        host.kill_rank(0);
        let statuses = host.release_and_reap(stdins, Instant::now() + Duration::from_millis(200));
        assert!(statuses[..2].iter().all(|s| s.is_some_and(|s| s.success())), "{statuses:?}");
        assert!(statuses[2].is_none(), "{statuses:?}");
    }

    #[test]
    fn child_env_absent_outside_supervision() {
        // The test runner itself is not a supervised child.
        assert!(child_env().is_none() || std::env::var(ENV_RANK).is_ok());
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
}
