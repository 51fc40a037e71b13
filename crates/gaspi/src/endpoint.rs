//! The GASPI wire protocol: every remote operation of [`crate::GaspiProc`]
//! encoded as bytes over the [`ft_cluster::Transport`] seam.
//!
//! The initiating side encodes an op with the `enc_*` helpers and posts it
//! via `Transport::send`/`call`; the target side's [`GaspiEndpoint`]
//! decodes it against *its own* rank state and returns a small reply.
//! Because both halves speak only bytes, the same runtime runs unmodified
//! over the in-memory simulator (handler invoked on the scheduler thread)
//! and the real-process TCP backend (handler invoked in the target
//! process) — this module is the single definition of what crosses the
//! wire.
//!
//! Checkpoint service traffic (queues at the top of the `u16` range) is
//! not decoded here: it is routed raw to the world's installed checkpoint
//! service handler, keeping the GASPI layer ignorant of checkpoint
//! payload formats.

use std::sync::Weak;

use ft_cluster::{CodecError, Dec, Enc, Endpoint, QueueId, Rank, Wire};

use crate::collectives::CollKey;
use crate::runtime::WorldInner;
use crate::segment::{NotificationId, SegId};

/// Lowest queue id reserved for checkpoint service traffic. Messages on
/// queues `>= CKPT_QUEUE_BASE` bypass GASPI decoding and go to the
/// world's checkpoint service handler.
pub const CKPT_QUEUE_BASE: QueueId = u16::MAX - 1;

// Op tags (first byte of every GASPI wire message).
const OP_PUT: u8 = 1;
const OP_PING: u8 = 2;
const OP_KILL: u8 = 3;
const OP_PASSIVE: u8 = 4;
const OP_COLL: u8 = 5;

// Reply status bytes.
pub(crate) const ST_OK: u8 = 0;
pub(crate) const ST_FAIL: u8 = 1;

// ---------------------------------------------------------------------
// Encoders (initiator side)
// ---------------------------------------------------------------------

// The `enc_*` helpers borrow the payload and write the layout of the
// matching [`Op`] variant; `Op::encode` goes through the same writers.

fn put(e: &mut Enc, rseg: SegId, roff: u64, notif: Option<(NotificationId, u32)>, data: &[u8]) {
    e.u8(OP_PUT).u32(u32::from(rseg)).u64(roff);
    notif.encode(e);
    e.bytes(data);
}

fn passive(e: &mut Enc, data: &[u8]) {
    e.u8(OP_PASSIVE).bytes(data);
}

fn coll(e: &mut Enc, key: &CollKey, data: &[u8]) {
    e.u8(OP_COLL).u64(key.group).u64(key.seq).u32(key.phase).u32(key.from).bytes(data);
}

fn encoded(data: &[u8], write: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::with_capacity(data.len() + 40);
    write(&mut e);
    e.finish()
}

pub(crate) fn enc_put(
    rseg: SegId,
    roff: u64,
    notif: Option<(NotificationId, u32)>,
    data: &[u8],
) -> Vec<u8> {
    encoded(data, |e| put(e, rseg, roff, notif, data))
}

pub(crate) fn enc_ping() -> Vec<u8> {
    vec![OP_PING]
}

pub(crate) fn enc_kill() -> Vec<u8> {
    vec![OP_KILL]
}

pub(crate) fn enc_passive(data: &[u8]) -> Vec<u8> {
    encoded(data, |e| passive(e, data))
}

pub(crate) fn enc_coll(key: &CollKey, data: &[u8]) -> Vec<u8> {
    encoded(data, |e| coll(e, key, data))
}

/// Whether a one-byte-status reply reports success.
pub(crate) fn reply_ok(reply: &[u8]) -> bool {
    reply.first() == Some(&ST_OK)
}

// ---------------------------------------------------------------------
// The endpoint (target side)
// ---------------------------------------------------------------------

/// Message handler for one rank: decodes GASPI ops against that rank's
/// shared state. Holds the world weakly so a bound endpoint never keeps a
/// dead world alive through the transport.
pub(crate) struct GaspiEndpoint {
    world: Weak<WorldInner>,
    rank: Rank,
}

impl GaspiEndpoint {
    pub(crate) fn new(world: Weak<WorldInner>, rank: Rank) -> Self {
        Self { world, rank }
    }
}

impl Endpoint for GaspiEndpoint {
    fn handle(&self, src: Rank, queue: QueueId, msg: &[u8]) -> Vec<u8> {
        let Some(world) = self.world.upgrade() else {
            return vec![ST_FAIL];
        };
        if queue >= CKPT_QUEUE_BASE {
            let handler = world.ckpt_handler.lock().clone();
            return match handler {
                Some(f) => f(self.rank, src, queue, msg),
                None => vec![ST_FAIL],
            };
        }
        match Op::from_bytes(msg) {
            Ok(op) => dispatch(&world, self.rank, src, op),
            Err(_) => vec![ST_FAIL],
        }
    }
}

/// One decoded wire op. Decoded whole ([`Wire::from_bytes`]): a
/// truncated op, an unknown tag or a trailing byte is an error, so no
/// rank state is touched on the strength of a message that only starts
/// like an op.
#[derive(Debug)]
enum Op {
    Put { rseg: SegId, roff: usize, notif: Option<(NotificationId, u32)>, data: Vec<u8> },
    Ping,
    Kill,
    Passive(Vec<u8>),
    Coll(CollKey, Vec<u8>),
}

impl Wire for Op {
    fn encode(&self, e: &mut Enc) {
        match self {
            Op::Put { rseg, roff, notif, data } => put(e, *rseg, *roff as u64, *notif, data),
            Op::Ping => {
                e.u8(OP_PING);
            }
            Op::Kill => {
                e.u8(OP_KILL);
            }
            Op::Passive(data) => passive(e, data),
            Op::Coll(key, data) => coll(e, key, data),
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            OP_PUT => {
                let rseg = d.u32()?;
                Op::Put {
                    rseg: SegId::try_from(rseg).map_err(|_| CodecError::BadLength(rseg.into()))?,
                    roff: usize::decode(d)?,
                    notif: Option::decode(d)?,
                    data: d.bytes()?,
                }
            }
            OP_PING => Op::Ping,
            OP_KILL => Op::Kill,
            OP_PASSIVE => Op::Passive(d.bytes()?),
            OP_COLL => {
                let key =
                    CollKey { group: d.u64()?, seq: d.u64()?, phase: d.u32()?, from: d.u32()? };
                Op::Coll(key, d.bytes()?)
            }
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

/// Execute one decoded op on `me`'s state.
fn dispatch(world: &WorldInner, me: Rank, src: Rank, op: Op) -> Vec<u8> {
    let shared = world.shared(me);
    match op {
        Op::Put { rseg, roff, notif, data } => {
            let ok = match shared.segments.get(rseg) {
                Some(seg) => {
                    let wrote = data.is_empty() || seg.write_at(roff, &data).is_ok();
                    let notified = match notif {
                        Some((nid, val)) if wrote => seg.notify_set(nid, val).is_ok(),
                        Some(_) => false,
                        None => true,
                    };
                    wrote && notified
                }
                None => false,
            };
            if ok && notif.is_some() {
                shared.signal.bump();
            }
            vec![if ok { ST_OK } else { ST_FAIL }]
        }
        Op::Ping => Vec::new(),
        Op::Kill => {
            // `gaspi_proc_kill` landing: this rank dies. Under the thread
            // backend the liveness flag is poisoned; under the process
            // backend the fault plane's armed exit turns this into a real
            // `exit()` and the reply below is never sent.
            world.fault.kill_rank(me);
            Vec::new()
        }
        Op::Passive(data) => {
            shared.passive_inbox.lock().push_back((src, data));
            shared.signal.bump();
            vec![ST_OK]
        }
        Op::Coll(key, data) => {
            shared.coll.insert(key, data);
            shared.signal.bump();
            vec![ST_OK]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op meets the wire property, and the borrowing `enc_*`
    /// helpers write exactly what `Op::encode` does.
    #[test]
    fn ops_meet_the_wire_property() {
        let key = CollKey { group: 1 << 32, seq: 9, phase: 2, from: 3 };
        let ops = [
            (
                Op::Put { rseg: 3, roff: 40, notif: Some((7, 9)), data: vec![1, 2, 3] },
                Some(enc_put(3, 40, Some((7, 9)), &[1, 2, 3])),
            ),
            (Op::Put { rseg: 0, roff: 0, notif: None, data: Vec::new() }, None),
            (Op::Ping, Some(enc_ping())),
            (Op::Kill, Some(enc_kill())),
            (Op::Passive(b"hi".to_vec()), Some(enc_passive(b"hi"))),
            (Op::Coll(key, b"token".to_vec()), Some(enc_coll(&key, b"token"))),
        ];
        for (op, helper) in &ops {
            ft_cluster::codec::check_wire::<Op>(op);
            if let Some(bytes) = helper {
                assert_eq!(&op.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn reply_status() {
        assert!(reply_ok(&[ST_OK]));
        assert!(!reply_ok(&[ST_FAIL]));
        assert!(!reply_ok(&[]));
    }

    /// Every strict prefix of each op, each op with one trailing byte and
    /// every unknown tag, sent to a live endpoint through the transport:
    /// each is answered `ST_FAIL` and leaves the rank as it was. The
    /// well-formed ops sent last show the checks see every effect.
    #[test]
    fn malformed_ops_fail_and_change_nothing() {
        use std::sync::mpsc;
        use std::time::Duration;

        use ft_cluster::Outcome;

        use crate::config::{NOTIFICATION_SLOTS, SERVICE_QUEUE};
        use crate::{GaspiConfig, GaspiWorld};

        const SEG: SegId = 1;
        let world = GaspiWorld::new(GaspiConfig::deterministic(2));
        let (t, fault, p) = (world.transport(), world.fault(), world.proc_handle(1));
        p.segment_create(SEG, 16).unwrap();
        let send = |msg: Vec<u8>| {
            let (tx, rx) = mpsc::channel();
            t.send(
                0,
                1,
                SERVICE_QUEUE,
                msg.len(),
                msg,
                Box::new(move |out, reply| {
                    let _ = tx.send((out, reply));
                }),
            );
            rx.recv_timeout(Duration::from_secs(5)).expect("completion")
        };
        let state = || {
            let seg = p.shared().segments.require(SEG).unwrap();
            (
                fault.is_alive(1),
                seg.read_at(0, 16).unwrap(),
                seg.notify_scan(0, NOTIFICATION_SLOTS),
                p.shared().passive_inbox.lock().len(),
                p.shared().coll.len(),
            )
        };
        let before = state();
        let key = CollKey { group: 1 << 32, seq: 1, phase: 0, from: 0 };
        let ops = [
            enc_put(SEG, 0, Some((3, 7)), &[0xAB; 8]),
            enc_put(SEG, 8, None, &[0xCD; 4]),
            enc_ping(),
            enc_passive(b"hi"),
            enc_coll(&key, b"token"),
            enc_kill(),
        ];
        let mut bad: Vec<Vec<u8>> = (OP_COLL + 1..=u8::MAX).chain([0]).map(|t| vec![t]).collect();
        // A segment id beyond `SegId` must not wrap onto segment 1.
        let mut wide = Enc::new();
        wide.u8(OP_PUT).u32(0x1_0000 + u32::from(SEG)).u64(0).u8(0).bytes(&[0xEE; 4]);
        bad.push(wide.finish());
        for op in &ops {
            bad.extend((0..op.len()).map(|n| op[..n].to_vec()));
            bad.push([op.as_slice(), &[0]].concat());
        }
        for msg in bad {
            assert_eq!(send(msg.clone()), (Outcome::Delivered, vec![ST_FAIL]), "{msg:?}");
            assert_eq!(state(), before, "{msg:?} changed the rank");
        }
        let (kill, rest) = ops.split_last().unwrap();
        for op in rest {
            assert_ne!(send(op.clone()).1, vec![ST_FAIL], "{op:?}");
        }
        let written = [[0xAB; 8].as_slice(), &[0xCD; 4], &[0; 4]].concat();
        assert_eq!(state(), (true, written, Some(3), 1, 1));
        send(kill.clone());
        assert!(!fault.is_alive(1));
    }
}
