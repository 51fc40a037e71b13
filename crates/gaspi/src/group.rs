//! Groups: named subsets of ranks for collective operations.
//!
//! GASPI groups are similar to MPI communicators (§III) and are the object
//! the paper's recovery rebuilds after a failure (Listing 2): the old
//! `COMM_MAIN` is deleted, a new group is created, the surviving workers
//! and rescue processes are added, and `gaspi_group_commit` — a blocking
//! collective — establishes it. The commit is the same star as barrier and
//! allreduce (module `collectives`), run at sequence 0 of the
//! uncommitted group, so it costs `2(n − 1)` tokens.
//!
//! Group *handles* are process-local. Members agree on a group by naming
//! the same numeric id in [`crate::GaspiProc::group_create_with_id`]; the
//! recovery protocol derives the id from the plan's adoption count, so
//! ranks that joined at different times (rescues!) still agree.

use parking_lot::Mutex;
use std::collections::HashMap;

use ft_cluster::{Rank, Wire};

use crate::error::{GaspiError, GaspiResult, Timeout};
use crate::proc::GaspiProc;

/// Handle to a group (process-local; members agree via the numeric id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Group(pub u64);

pub(crate) struct GroupState {
    pub members: Vec<Rank>, // sorted, deduplicated
    pub committed: bool,
    pub coll_seq: u64,
    /// An interrupted (timed-out) collective that must be *resumed* by
    /// the next call of the same kind — GASPI semantics: "a procedure
    /// interrupted by timeout must be called again to complete".
    pub pending: Option<(CollKind, u64)>,
}

/// Kind tag for resumable collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollKind {
    Barrier,
    AllreduceF64,
    AllreduceU64,
    Alltoall,
}

/// Per-process group table.
#[derive(Default)]
pub(crate) struct GroupRegistry {
    map: Mutex<HashMap<u64, GroupState>>,
}

impl GroupRegistry {
    pub fn create_with_id(&self, id: u64) -> GaspiResult<()> {
        let mut m = self.map.lock();
        if m.contains_key(&id) {
            return Err(GaspiError::Group { what: "group id already exists" });
        }
        m.insert(id, GroupState::new());
        Ok(())
    }

    pub fn delete(&self, id: u64) -> GaspiResult<()> {
        self.map
            .lock()
            .remove(&id)
            .map(|_| ())
            .ok_or(GaspiError::Group { what: "group id not found" })
    }

    pub fn add(&self, id: u64, rank: Rank) -> GaspiResult<()> {
        let mut m = self.map.lock();
        let st = m.get_mut(&id).ok_or(GaspiError::Group { what: "group id not found" })?;
        if st.committed {
            return Err(GaspiError::Group { what: "cannot add to committed group" });
        }
        if let Err(pos) = st.members.binary_search(&rank) {
            st.members.insert(pos, rank);
        }
        Ok(())
    }

    pub fn members(&self, id: u64) -> GaspiResult<Vec<Rank>> {
        let m = self.map.lock();
        let st = m.get(&id).ok_or(GaspiError::Group { what: "group id not found" })?;
        Ok(st.members.clone())
    }

    pub fn mark_committed(&self, id: u64) -> GaspiResult<()> {
        let mut m = self.map.lock();
        let st = m.get_mut(&id).ok_or(GaspiError::Group { what: "group id not found" })?;
        st.committed = true;
        Ok(())
    }

    /// Members of a *committed* group plus the sequence number for the
    /// next collective of `kind`. If a collective of the same kind was
    /// interrupted by a timeout, its sequence number is *reused* so the
    /// call resumes instead of desynchronizing the group; a different
    /// pending kind is an API misuse and errors.
    pub fn collective_ticket(&self, id: u64, kind: CollKind) -> GaspiResult<(Vec<Rank>, u64)> {
        let mut m = self.map.lock();
        let st = m.get_mut(&id).ok_or(GaspiError::Group { what: "group id not found" })?;
        if !st.committed {
            return Err(GaspiError::Group { what: "group not committed" });
        }
        match st.pending {
            Some((k, seq)) if k == kind => Ok((st.members.clone(), seq)),
            Some(_) => {
                Err(GaspiError::Group { what: "a different collective is pending on this group" })
            }
            None => {
                st.coll_seq += 1;
                st.pending = Some((kind, st.coll_seq));
                Ok((st.members.clone(), st.coll_seq))
            }
        }
    }

    /// Mark the pending collective of `id` as completed.
    pub fn finish_collective(&self, id: u64, seq: u64) {
        let mut m = self.map.lock();
        if let Some(st) = m.get_mut(&id) {
            if matches!(st.pending, Some((_, s)) if s == seq) {
                st.pending = None;
            }
        }
    }
}

impl GroupState {
    fn new() -> Self {
        Self { members: Vec::new(), committed: false, coll_seq: 0, pending: None }
    }
}

/// A stable fingerprint of the member list, exchanged during commit so a
/// member-set mismatch is detected instead of silently mis-pairing
/// collectives (FNV-1a over the sorted ranks).
pub(crate) fn members_fingerprint(members: &[Rank]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &r in members {
        for b in r.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl GaspiProc {
    /// Create a group under an id every member names (`gaspi_group_create`,
    /// with the id chosen by the caller instead of allocated). An id this
    /// rank already holds is an error.
    pub fn group_create_with_id(&self, id: u64) -> GaspiResult<Group> {
        self.check_self();
        self.shared().groups.create_with_id(id)?;
        Ok(Group(id))
    }

    /// Add a rank to an uncommitted group (`gaspi_group_add`).
    pub fn group_add(&self, group: Group, rank: Rank) -> GaspiResult<()> {
        self.check_self();
        if rank >= self.num_ranks() {
            return Err(GaspiError::InvalidArg("rank out of range"));
        }
        self.shared().groups.add(group.0, rank)
    }

    /// Member list, sorted ascending.
    pub fn group_members(&self, group: Group) -> GaspiResult<Vec<Rank>> {
        self.check_self();
        self.shared().groups.members(group.0)
    }

    /// Delete a group handle and purge any collective tokens addressed to
    /// it (`gaspi_group_delete`). Purging matters after an *abandoned*
    /// collective: a barrier interrupted by a failure leaves tokens behind
    /// that must not confuse a future group with a recycled id.
    pub fn group_delete(&self, group: Group) -> GaspiResult<()> {
        self.check_self();
        self.shared().groups.delete(group.0)?;
        self.shared().coll.purge_group(group.0);
        Ok(())
    }

    /// Establish the group collectively (`gaspi_group_commit`).
    ///
    /// The collectives' star at sequence 0 of the uncommitted group: every
    /// member posts a fingerprint of its member list to member 0, which
    /// checks each against its own and releases its own, and every other
    /// member checks that release. A member blocks until member 0 has
    /// heard from all of them — the blocking cost the paper calls out as
    /// the dominant part of the *rebuilding of work group* overhead
    /// (OHF2). Commit tokens stay on the board until the group's first
    /// collective or `group_delete`, so a commit that timed out can be
    /// retried.
    pub fn group_commit(&self, group: Group, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.group.commit");
        let members = self.shared().groups.members(group.0)?;
        let fp = members_fingerprint(&members);
        // Tokens are bytes a peer sent: decode them, never index them.
        let check = |token: &[u8]| match u64::from_bytes(token) {
            Err(_) => Err(GaspiError::Group { what: "malformed commit token" }),
            Ok(theirs) if theirs != fp => {
                Err(GaspiError::Group { what: "member set mismatch at commit" })
            }
            Ok(_) => Ok(()),
        };
        let released =
            self.star_at(group, &members, 0, fp.to_bytes(), |_, t| check(t), timeout.deadline())?;
        check(&released)?;
        self.injection_site("gaspi.group.commit.done");
        self.shared().groups.mark_committed(group.0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{CollKey, GATHER_PHASE, RELEASE_PHASE};
    use crate::{GaspiConfig, GaspiWorld};

    #[test]
    fn short_commit_token_is_an_error_not_a_panic() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        for (me, phase, peer) in [(0, GATHER_PHASE, 1), (1, RELEASE_PHASE, 0)] {
            let p = world.proc_handle(me);
            let g = p.group_create_with_id(1 << 32).unwrap();
            p.group_add(g, 0).unwrap();
            p.group_add(g, 1).unwrap();
            // What a corrupt frame from the peer would leave on the board:
            // member 1's token to member 0, or member 0's release to 1.
            let key = CollKey { group: g.0, seq: 0, phase, from: peer };
            p.shared().coll.insert(key, vec![1, 2, 3]);
            assert_eq!(
                p.group_commit(g, Timeout::Ms(1000)),
                Err(GaspiError::Group { what: "malformed commit token" }),
                "rank {me}"
            );
            // A well-formed token of the wrong member set is still told apart.
            p.shared().coll.insert(key, 7u64.to_le_bytes().to_vec());
            assert_eq!(
                p.group_commit(g, Timeout::Ms(1000)),
                Err(GaspiError::Group { what: "member set mismatch at commit" }),
                "rank {me}"
            );
        }
    }

    #[test]
    fn a_release_lost_to_a_broken_link_is_the_roots_error() {
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        let p = world.proc_handle(0);
        let g = p.group_create_with_id(1 << 32).unwrap();
        p.group_add(g, 0).unwrap();
        p.group_add(g, 1).unwrap();
        // Member 1's token has landed; then the link breaks under the release.
        let key = CollKey { group: g.0, seq: 0, phase: GATHER_PHASE, from: 1 };
        p.shared().coll.insert(key, members_fingerprint(&[0, 1]).to_bytes());
        world.fault().break_link(0, 1);
        assert_eq!(p.group_commit(g, Timeout::Ms(1000)), Err(GaspiError::RemoteBroken { rank: 1 }));
    }
}
