//! Step-indexed fault injection: named injection sites with per-rank
//! occurrence counters.
//!
//! The paper validates recovery by killing processes at *arbitrary
//! moments* (§VI); the wall-clock [`crate::FaultSchedule`] reproduces
//! that, but a time-random kill cannot name the protocol step it hit, so
//! a recovery bug at one specific boundary (say, between checkpoint
//! commit and the neighbor-copy acknowledgment) survives until a lucky
//! seed finds it. Injection sites make the failure space *enumerable*:
//!
//! * The communication and checkpoint layers call
//!   [`crate::FaultPlane::site`] (or [`crate::FaultPlane::site_passive`] from helper
//!   threads) at named protocol steps. Each `(site, rank)` pair carries a
//!   monotonically increasing occurrence counter.
//! * A recording pass ([`crate::FaultPlane::record_sites`]) logs the crossings
//!   of a failure-free run, enumerating every `(site, occurrence, rank)`
//!   triple a sweep can kill at.
//! * An armed [`Injection`] is a deterministic fault: *apply this
//!   [`FaultAction`] at the k-th crossing of site s by rank r* — the
//!   step-indexed trigger of a [`crate::FaultSchedule`]. The action may
//!   name any victim, not only the crossing rank.
//!
//! Sites are free when injection is disabled (one relaxed atomic load);
//! the plane only pays for counters once a recording or an armed plan
//! switches injection on.
//!
//! `site` raises [`crate::RankKilled`] when a matching action took out the
//! crossing rank and therefore must only be called by that rank's own
//! thread. Library threads (the checkpoint replicator, the network
//! scheduler) use `site_passive`, which never unwinds the calling thread.
//! Either way a victim other than the crossing rank is only poisoned and
//! observes its death at its next communication call, exactly like an
//! external `kill -9`.

use std::collections::HashMap;

use crate::codec::{CodecError, Dec, Enc, Wire};
use crate::fault::FaultAction;
use crate::topology::Rank;

/// Injection-site names are compile-time constants at the call sites.
pub type SiteName = &'static str;

/// One recorded crossing of an injection site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SiteRecord {
    /// Site name (e.g. `"gaspi.allreduce"`).
    pub site: String,
    /// The rank that crossed the site.
    pub rank: Rank,
    /// 1-based occurrence index of this crossing for `(site, rank)`.
    pub occurrence: u64,
}

/// One armed step-indexed fault: apply `action` when `rank` crosses `site`
/// for the `occurrence`-th time (which happens once, so it fires once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Site name to match.
    pub site: String,
    /// Rank whose crossing counts.
    pub rank: Rank,
    /// 1-based occurrence to fire at.
    pub occurrence: u64,
    /// The fault to apply.
    pub action: FaultAction,
}

impl Injection {
    /// Apply `action` at `rank`'s `occurrence`-th crossing of `site`.
    pub fn at(site: impl Into<String>, rank: Rank, occurrence: u64, action: FaultAction) -> Self {
        Self { site: site.into(), rank, occurrence, action }
    }

    /// Kill `rank` at its own `occurrence`-th crossing of `site`.
    pub fn kill(site: impl Into<String>, rank: Rank, occurrence: u64) -> Self {
        Self::at(site, rank, occurrence, FaultAction::KillRank(rank))
    }
}

impl Wire for Injection {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.site).u32(self.rank).u64(self.occurrence);
        self.action.encode(e);
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Self {
            site: d.str()?,
            rank: d.u32()?,
            occurrence: d.u64()?,
            action: FaultAction::decode(d)?,
        })
    }
}

/// Mutable injection state hanging off the fault plane (behind one
/// mutex; only touched when injection is enabled).
#[derive(Debug, Default)]
pub(crate) struct InjectState {
    armed: Vec<Injection>,
    counters: HashMap<(SiteName, Rank), u64>,
    recording: bool,
    /// Max occurrences logged per `(site, rank)` — counters keep counting
    /// beyond the cap, only the *log* is bounded.
    record_cap: u64,
    log: Vec<SiteRecord>,
    fired: Vec<Injection>,
}

impl InjectState {
    /// Count a crossing; log it while recording; return the actions of
    /// every armed injection it matches, in arming order.
    pub(crate) fn cross(&mut self, rank: Rank, site: SiteName) -> Vec<FaultAction> {
        let c = self.counters.entry((site, rank)).or_insert(0);
        *c += 1;
        let occurrence = *c;
        if self.recording && occurrence <= self.record_cap {
            self.log.push(SiteRecord { site: site.to_string(), rank, occurrence });
        }
        let hits = self
            .armed
            .iter()
            .filter(|i| i.rank == rank && i.occurrence == occurrence && i.site == site);
        let hits: Vec<Injection> = hits.cloned().collect();
        let actions = hits.iter().map(|i| i.action).collect();
        self.fired.extend(hits);
        actions
    }

    /// Arm `injections` (cumulative); says whether anything is armed.
    pub(crate) fn arm(&mut self, injections: impl IntoIterator<Item = Injection>) -> bool {
        self.armed.extend(injections);
        !self.armed.is_empty()
    }

    pub(crate) fn start_recording(&mut self, cap_per_site: u64) {
        self.recording = true;
        self.record_cap = cap_per_site.max(1);
    }

    pub(crate) fn log(&self) -> Vec<SiteRecord> {
        self.log.clone()
    }

    pub(crate) fn fired(&self) -> Vec<Injection> {
        self.fired.clone()
    }

    pub(crate) fn count(&self, site: &str, rank: Rank) -> u64 {
        self.counters.iter().find(|((s, r), _)| *s == site && *r == rank).map_or(0, |(_, &c)| c)
    }
}

/// Sites crossed only by the owning rank's own thread replay
/// deterministically: their occurrence index is a pure function of the
/// rank's instruction stream. Sites also crossed by helper threads (the
/// network scheduler's nested posts, the checkpoint library thread) get
/// occurrence indices that depend on thread interleaving — a sweep still
/// asserts the chaos contract on them, but must not assert same-triple ⇒
/// same-outcome.
pub fn site_is_deterministic(site: &str) -> bool {
    !matches!(site, "transport.post" | "ckpt.neighbor.copy" | "ckpt.pfs.write")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_count_per_site_and_rank() {
        let mut st = InjectState::default();
        assert_eq!(st.cross(0, "a"), vec![]);
        assert_eq!(st.cross(0, "a"), vec![]);
        assert_eq!(st.cross(1, "a"), vec![]);
        assert_eq!(st.cross(0, "b"), vec![]);
        assert_eq!(st.count("a", 0), 2);
        assert_eq!(st.count("a", 1), 1);
        assert_eq!(st.count("b", 0), 1);
        assert_eq!(st.count("b", 9), 0);
    }

    #[test]
    fn armed_injection_fires_exactly_once_at_its_occurrence() {
        let mut st = InjectState::default();
        st.arm([Injection::kill("a", 0, 2)]);
        assert_eq!(st.cross(0, "a"), vec![]); // occurrence 1
        assert_eq!(st.cross(1, "a"), vec![]); // other rank
        assert_eq!(st.cross(0, "a"), vec![FaultAction::KillRank(0)]); // occurrence 2
        assert_eq!(st.cross(0, "a"), vec![]); // fired already
        assert_eq!(st.fired().len(), 1);
    }

    #[test]
    fn recording_caps_log_but_not_counters() {
        let mut st = InjectState::default();
        st.start_recording(2);
        for _ in 0..5 {
            st.cross(3, "x");
        }
        assert_eq!(st.count("x", 3), 5);
        let log = st.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], SiteRecord { site: "x".into(), rank: 3, occurrence: 1 });
        assert_eq!(log[1], SiteRecord { site: "x".into(), rank: 3, occurrence: 2 });
    }

    #[test]
    fn deterministic_site_classification() {
        assert!(site_is_deterministic("gaspi.allreduce"));
        assert!(site_is_deterministic("recover.group.create"));
        // The commit sites are crossed by the committing rank's own
        // thread, so they stay in the determinism-asserted set.
        assert!(site_is_deterministic("ckpt.chunk.write"));
        assert!(site_is_deterministic("ckpt.manifest.write"));
        assert!(!site_is_deterministic("transport.post"));
        assert!(!site_is_deterministic("ckpt.neighbor.copy"));
    }
}
