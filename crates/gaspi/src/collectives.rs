//! Collective operations: group commit, barrier, allreduce and all-to-all.
//!
//! Commit, barrier and allreduce are one star: every member posts its
//! token to member 0, which folds them and posts the result back — two
//! network hops and `2(n − 1)` tokens at any group size. The commit runs
//! it at sequence 0 of the uncommitted group, the others at the sequence
//! numbers their tickets hand out. The personalised all-to-all posts
//! `n − 1` tokens per member and is done after one hop.
//! All of them fail exactly like the paper describes: if a member died, tokens stop
//! arriving and the collective returns `GASPI_TIMEOUT` (or an error when
//! the transport has already reported the connection broken) — which is
//! the state the workers sit in until the fault detector's
//! acknowledgment arrives.
//!
//! An allreduce folds the contributions in *member order*, starting from
//! member 0's, so a recovered run reproduces the failure-free run's
//! floating-point results bit for bit — asserted by the integration tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ft_cluster::{Outcome, Rank};

use crate::endpoint;
use crate::error::{GaspiError, GaspiResult, Timeout};
use crate::proc::GaspiProc;
use crate::ReduceOp;

/// Phase tag of a member's token to member 0.
pub(crate) const GATHER_PHASE: u32 = 0x1000_0000;
/// Phase tag of member 0's result to every other member.
pub(crate) const RELEASE_PHASE: u32 = 0x2000_0000;
/// Phase tag for all-to-all tokens.
const ALLTOALL_PHASE: u32 = 0x4000_0000;

/// GASPI caps allreduce buffers at 255 elements.
pub const ALLREDUCE_MAX_ELEMS: usize = 255;

/// Key identifying one collective token on a rank's board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CollKey {
    pub group: u64,
    pub seq: u64,
    pub phase: u32,
    pub from: Rank,
}

/// Per-rank mailbox for collective tokens.
#[derive(Default)]
pub(crate) struct CollBoard {
    map: Mutex<HashMap<CollKey, Vec<u8>>>,
}

impl CollBoard {
    pub fn insert(&self, key: CollKey, data: Vec<u8>) {
        self.map.lock().insert(key, data);
    }

    /// Remove and return a token.
    #[cfg(test)]
    pub fn take(&self, key: &CollKey) -> Option<Vec<u8>> {
        self.map.lock().remove(key)
    }

    /// Read a token without consuming it. Collectives only ever *peek*:
    /// an interrupted collective can then be resumed without losing
    /// partner tokens; stale tokens are garbage-collected by sequence
    /// number instead ([`CollBoard::purge_group_below`]).
    pub fn peek(&self, key: &CollKey) -> Option<Vec<u8>> {
        self.map.lock().get(key).cloned()
    }

    /// Drop every token addressed to `group`.
    pub fn purge_group(&self, group: u64) {
        self.map.lock().retain(|k, _| k.group != group);
    }

    /// Drop tokens of `group` with a sequence number below `seq`
    /// (called when this rank *starts* collective `seq` — everything
    /// older is finished from this rank's perspective).
    pub fn purge_group_below(&self, group: u64, seq: u64) {
        self.map.lock().retain(|k, _| k.group != group || k.seq >= seq);
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }
}

/// What the delivery actions of one collective call report back: a
/// set-once error slot and a count of tokens that reached their target.
#[derive(Default, Clone)]
pub(crate) struct ErrFlag {
    inner: Arc<Mutex<Option<GaspiError>>>,
    /// Bumped (`Release`) by the delivery action once the target's board
    /// holds the token; read (`Acquire`) by the posting rank.
    delivered: Arc<AtomicUsize>,
}

impl ErrFlag {
    pub fn set(&self, e: GaspiError) {
        let mut g = self.inner.lock();
        if g.is_none() {
            *g = Some(e);
        }
    }

    pub fn get(&self) -> Option<GaspiError> {
        self.inner.lock().clone()
    }

    fn delivered(&self) -> usize {
        self.delivered.load(Ordering::Acquire)
    }
}

impl GaspiProc {
    /// Post a collective token to `dst`; failures land in `err` and wake
    /// this rank.
    pub(crate) fn send_coll_token(&self, dst: Rank, key: CollKey, data: Vec<u8>, err: &ErrFlag) {
        let me = self.shared_arc();
        let err = err.clone();
        let cost = data.len();
        let msg = endpoint::enc_coll(&key, &data);
        self.world().transport.send(
            self.rank(),
            dst,
            crate::config::COLL_QUEUE,
            cost,
            msg,
            Box::new(move |out, _reply| {
                match out {
                    Outcome::Delivered => {
                        err.delivered.fetch_add(1, Ordering::Release);
                    }
                    Outcome::Broken => {
                        me.mark_corrupt(dst);
                        err.set(GaspiError::RemoteBroken { rank: dst })
                    }
                    Outcome::Cancelled => err.set(GaspiError::Shutdown),
                }
                me.signal.bump();
            }),
        );
    }

    /// Poll `ready` until it yields, one of this call's own sends reports
    /// an error, or the deadline passes.
    fn poll_coll<T>(
        &self,
        err: &ErrFlag,
        deadline: Option<std::time::Instant>,
        ready: impl Fn() -> Option<T>,
    ) -> GaspiResult<T> {
        self.poll(deadline, || err.get().map(Err).or_else(|| ready().map(Ok)))
    }

    fn peek_token(
        &self,
        key: CollKey,
        err: &ErrFlag,
        deadline: Option<std::time::Instant>,
    ) -> GaspiResult<Vec<u8>> {
        self.poll_coll(err, deadline, || self.shared().coll.peek(&key))
    }

    /// Personalised all-to-all: `out[i]` is delivered to member `i` of
    /// `group` (members in ascending rank order, as
    /// [`GaspiProc::group_members`] lists them; the caller's own slot is
    /// ignored) and slot `i` of the result is what member `i` sent here.
    /// Payloads may differ in length and may be empty. Every member posts
    /// its `n − 1` tokens up front and then collects `n − 1`, so the
    /// exchange costs one network hop. A member returns only after every
    /// other member has entered the call *and* holds this member's payload.
    ///
    /// Not a GASPI procedure — the specification's collectives stop at the
    /// 255-element allreduce — but it follows their contract: it returns
    /// `GASPI_TIMEOUT` while a member is missing and is resumed, under the
    /// same sequence number, by calling it again with the same `out`.
    pub fn alltoall(
        &self,
        group: crate::Group,
        out: &[Vec<u8>],
        timeout: Timeout,
    ) -> GaspiResult<Vec<Vec<u8>>> {
        self.check_self();
        self.injection_site("gaspi.alltoall");
        let (members, seq) =
            self.shared().groups.collective_ticket(group.0, crate::group::CollKind::Alltoall)?;
        self.shared().coll.purge_group_below(group.0, seq);
        if !members.contains(&self.rank()) {
            return Err(GaspiError::Group { what: "alltoall on group not containing self" });
        }
        if out.len() != members.len() {
            return Err(GaspiError::InvalidArg("alltoall needs one payload per group member"));
        }
        let deadline = timeout.deadline();
        let err = ErrFlag::default();
        let key = |from| CollKey { group: group.0, seq, phase: ALLTOALL_PHASE, from };
        let others = || members.iter().enumerate().filter(|&(_, &m)| m != self.rank());
        for (i, &m) in others() {
            self.send_coll_token(m, key(self.rank()), out[i].clone(), &err);
        }
        let mut got = vec![Vec::new(); members.len()];
        for (i, &m) in others() {
            got[i] = self.peek_token(key(m), &err, deadline)?;
        }
        // A message in flight dies with its sender: leaving only once the
        // own tokens are delivered means a member that returns (and may
        // fail the next moment) has handed every peer its payload.
        let posted = members.len() - 1;
        self.poll_coll(&err, deadline, || (err.delivered() == posted).then_some(()))?;
        self.shared().groups.finish_collective(group.0, seq);
        Ok(got)
    }

    /// Synchronize all members of `group` (`gaspi_barrier`): the
    /// allreduce's star with empty tokens, so no member returns before
    /// every member has entered.
    ///
    /// Resumable, as the GASPI specification requires: a call that
    /// returned `GASPI_TIMEOUT` is completed by calling it again — the
    /// interrupted instance keeps its sequence number and its tokens.
    pub fn barrier(&self, group: crate::Group, timeout: Timeout) -> GaspiResult<()> {
        self.check_self();
        self.injection_site("gaspi.barrier");
        self.star(group, crate::group::CollKind::Barrier, Vec::new(), |_, _| Ok(()), timeout)?;
        Ok(())
    }

    /// Element-wise allreduce over `f64` buffers (`gaspi_allreduce`).
    /// All members must pass equal-length buffers (≤
    /// [`ALLREDUCE_MAX_ELEMS`]); every member receives the same result,
    /// member 0's input combined with each other member's in member order.
    pub fn allreduce_f64(
        &self,
        group: crate::Group,
        input: &[f64],
        op: ReduceOp,
        timeout: Timeout,
    ) -> GaspiResult<Vec<f64>> {
        self.allreduce_impl(
            group,
            input,
            timeout,
            crate::group::CollKind::AllreduceF64,
            |acc, x| match op {
                ReduceOp::Sum => acc + x,
                ReduceOp::Min => acc.min(x),
                ReduceOp::Max => acc.max(x),
                ReduceOp::BitXor => f64::from_bits(acc.to_bits() ^ x.to_bits()),
            },
            f64::to_le_bytes,
            f64::from_le_bytes,
        )
    }

    /// Element-wise allreduce over `u64` buffers.
    pub fn allreduce_u64(
        &self,
        group: crate::Group,
        input: &[u64],
        op: ReduceOp,
        timeout: Timeout,
    ) -> GaspiResult<Vec<u64>> {
        self.allreduce_impl(
            group,
            input,
            timeout,
            crate::group::CollKind::AllreduceU64,
            |acc, x| match op {
                ReduceOp::Sum => acc.wrapping_add(x),
                ReduceOp::Min => acc.min(x),
                ReduceOp::Max => acc.max(x),
                ReduceOp::BitXor => acc ^ x,
            },
            u64::to_le_bytes,
            u64::from_le_bytes,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn allreduce_impl<T: Copy>(
        &self,
        group: crate::Group,
        input: &[T],
        timeout: Timeout,
        kind: crate::group::CollKind,
        combine: impl Fn(T, T) -> T,
        enc: impl Fn(T) -> [u8; 8],
        dec: impl Fn([u8; 8]) -> T,
    ) -> GaspiResult<Vec<T>> {
        self.check_self();
        self.injection_site("gaspi.allreduce");
        if input.len() > ALLREDUCE_MAX_ELEMS {
            return Err(GaspiError::InvalidArg("allreduce buffer exceeds 255 elements"));
        }
        let mismatch = GaspiError::InvalidArg("allreduce buffer length mismatch");
        let dec = |c: &[u8]| dec(c.try_into().expect("an 8-byte chunk"));
        let fold = |acc: &mut [u8], theirs: &[u8]| {
            if theirs.len() != acc.len() {
                return Err(mismatch.clone());
            }
            for (a, t) in acc.chunks_exact_mut(8).zip(theirs.chunks_exact(8)) {
                a.copy_from_slice(&enc(combine(dec(a), dec(t))));
            }
            Ok(())
        };
        let mine = input.iter().flat_map(|v| enc(*v)).collect();
        let out = self.star(group, kind, mine, fold, timeout)?;
        if out.len() != input.len() * 8 {
            return Err(mismatch);
        }
        Ok(out.chunks_exact(8).map(dec).collect())
    }

    /// The ticketed star behind [`GaspiProc::barrier`] and the
    /// allreduces: [`GaspiProc::star_at`] at the sequence number the
    /// group's ticket hands out, resumed under that number after a timeout.
    fn star(
        &self,
        group: crate::Group,
        kind: crate::group::CollKind,
        mine: Vec<u8>,
        fold: impl Fn(&mut [u8], &[u8]) -> GaspiResult<()>,
        timeout: Timeout,
    ) -> GaspiResult<Vec<u8>> {
        let (members, seq) = self.shared().groups.collective_ticket(group.0, kind)?;
        self.shared().coll.purge_group_below(group.0, seq);
        let out = self.star_at(group, &members, seq, mine, fold, timeout.deadline())?;
        self.shared().groups.finish_collective(group.0, seq);
        Ok(out)
    }

    /// The star behind every collective but the all-to-all: every member
    /// posts `mine` to member 0 of `members`; member 0 peeks the tokens in
    /// member order, `fold`s each into its own and posts the result to
    /// every other member, which returns it. Two hops and `2(n − 1)`
    /// tokens. Member 0 returns once every member has entered and its
    /// releases have landed (so a release lost to a broken link is this
    /// call's error, not a member's silent hang), every other member once
    /// member 0 has folded. Tokens are only peeked and
    /// a re-post under the same `(group, seq, phase)` overwrites one with
    /// the same bytes, so a call cut short by a timeout is completed by
    /// repeating it.
    pub(crate) fn star_at(
        &self,
        group: crate::Group,
        members: &[Rank],
        seq: u64,
        mine: Vec<u8>,
        fold: impl Fn(&mut [u8], &[u8]) -> GaspiResult<()>,
        deadline: Option<std::time::Instant>,
    ) -> GaspiResult<Vec<u8>> {
        if members.binary_search(&self.rank()).is_err() {
            return Err(GaspiError::Group { what: "collective on group not containing self" });
        }
        let err = ErrFlag::default();
        let key = |phase, from| CollKey { group: group.0, seq, phase, from };
        let (root, others) = (members[0], &members[1..]);
        if self.rank() == root {
            let mut acc = mine;
            for &m in others {
                fold(&mut acc, &self.peek_token(key(GATHER_PHASE, m), &err, deadline)?)?;
            }
            for &m in others {
                self.send_coll_token(m, key(RELEASE_PHASE, root), acc.clone(), &err);
            }
            self.poll_coll(&err, deadline, || (err.delivered() == others.len()).then_some(()))?;
            Ok(acc)
        } else {
            self.send_coll_token(root, key(GATHER_PHASE, self.rank()), mine, &err);
            self.peek_token(key(RELEASE_PHASE, root), &err, deadline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_take_and_peek() {
        let b = CollBoard::default();
        let k = CollKey { group: 1, seq: 2, phase: 3, from: 4 };
        b.insert(k, vec![1, 2]);
        assert_eq!(b.peek(&k), Some(vec![1, 2]));
        assert_eq!(b.take(&k), Some(vec![1, 2]));
        assert_eq!(b.take(&k), None);
    }

    #[test]
    fn purge_group_scopes_to_group() {
        let b = CollBoard::default();
        b.insert(CollKey { group: 1, seq: 0, phase: 0, from: 0 }, vec![]);
        b.insert(CollKey { group: 2, seq: 0, phase: 0, from: 0 }, vec![]);
        b.purge_group(1);
        assert_eq!(b.len(), 1);
        assert!(b.peek(&CollKey { group: 2, seq: 0, phase: 0, from: 0 }).is_some());
    }

    #[test]
    fn errflag_is_set_once() {
        let e = ErrFlag::default();
        assert!(e.get().is_none());
        e.set(GaspiError::Timeout);
        e.set(GaspiError::Shutdown);
        assert_eq!(e.get(), Some(GaspiError::Timeout));
    }
}
