//! RAID-5-style striped XOR parity over application ranks: the pure half
//! of [`crate::strategy::Checkpointed`]'s parity code.
//!
//! With `n` application ranks, rank `i` cuts its state block into `n − 1`
//! equal stripes (the last ones shorter or empty) and sends stripe
//! `slot(i, j)` — `j`'s position among `i`'s peers — to every peer `j`; rank `j` XORs the `n − 1` stripes it
//! receives, zero-padded to the longest, into the one parity stripe it
//! owns. Losing rank `x` loses `x`'s block and `x`'s parity stripe; every
//! other owner `j` still holds a parity that covers exactly one stripe of
//! `x`'s block, so XOR-ing it with the other survivors' stripes for `j`
//! yields that stripe, and `x`'s own parity is rebuilt from the stripes the
//! survivors send it again.
//!
//! A stripe travels as `[iter ∥ block_len ∥ bytes]` (two little-endian
//! `u64`s, then the stripe). `block_len` is XOR-ed along with the bytes, so
//! a parity stripe is `[⊕ block_len ∥ ⊕ bytes]` and decoding recovers the
//! lost block's length together with its stripe — no width agreement round.
//!
//! Everything here is keyed by *application* rank and touches no
//! communication; the strategy moves the messages.

/// Bytes of the `[iter ∥ block_len]` header of a stripe message.
const HEADER: usize = 16;

fn u64_at(buf: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?))
}

/// Which of rank `i`'s stripes peer `j` receives: `i`'s peers in rank
/// order, `i` itself skipped.
fn slot(i: usize, j: usize) -> usize {
    debug_assert_ne!(i, j);
    j - usize::from(j > i)
}

/// Byte range of stripe `s` in a block of `len` bytes cut `n − 1` ways.
fn stripe_range(len: usize, n: usize, s: usize) -> std::ops::Range<usize> {
    let width = len.div_ceil(n - 1);
    s.saturating_mul(width).min(len)..(s + 1).saturating_mul(width).min(len)
}

/// The messages rank `me` of `n` posts for generation `iter`: slot `j`
/// carries the stripe of `block` that peer `j` keeps parity over. The own
/// slot is empty; with `n == 1` there is nobody to encode for.
pub fn encode(me: usize, n: usize, iter: u64, block: &[u8]) -> Vec<Vec<u8>> {
    (0..n)
        .map(|j| {
            if j == me {
                return Vec::new();
            }
            let stripe = &block[stripe_range(block.len(), n, slot(me, j))];
            let mut msg = Vec::with_capacity(HEADER + stripe.len());
            msg.extend_from_slice(&iter.to_le_bytes());
            msg.extend_from_slice(&(block.len() as u64).to_le_bytes());
            msg.extend_from_slice(stripe);
            msg
        })
        .collect()
}

/// XOR the `[block_len ∥ bytes]` part of every message into `acc`, growing
/// it to the longest. `None` if a message is truncated or belongs to
/// another generation than `iter`.
fn fold<'a>(
    mut acc: Vec<u8>,
    iter: u64,
    msgs: impl IntoIterator<Item = &'a [u8]>,
) -> Option<Vec<u8>> {
    for msg in msgs {
        if msg.len() < HEADER || u64_at(msg, 0)? != iter {
            return None;
        }
        let body = &msg[8..];
        if acc.len() < body.len() {
            acc.resize(body.len(), 0);
        }
        for (a, b) in acc.iter_mut().zip(body) {
            *a ^= *b;
        }
    }
    Some(acc)
}

/// The parity stripe an owner keeps for generation `iter`: the XOR of the
/// stripe messages its peers sent it.
pub fn parity<'a>(iter: u64, msgs: impl IntoIterator<Item = &'a [u8]>) -> Option<Vec<u8>> {
    fold(Vec::new(), iter, msgs)
}

/// What an owner forwards to the rescue of a lost rank: its `parity`
/// XOR-ed with the stripes the *other survivors* sent it again. The result
/// is the message the lost rank sent this owner at encode time (zero-padded
/// at the tail), so [`assemble`] reads it like any stripe.
pub fn lost_piece<'a>(
    parity: &[u8],
    iter: u64,
    survivors: impl IntoIterator<Item = &'a [u8]>,
) -> Option<Vec<u8>> {
    let body = fold(parity.to_vec(), iter, survivors)?;
    let mut msg = Vec::with_capacity(8 + body.len());
    msg.extend_from_slice(&iter.to_le_bytes());
    msg.extend_from_slice(&body);
    Some(msg)
}

/// Rebuild rank `me`'s block of generation `iter` from the pieces its
/// `n − 1` peers forwarded (`pieces[j]` from peer `j`; the own slot is
/// ignored). `None` if there is no peer, or a piece is truncated, from
/// another generation, or disagrees about the block's length.
pub fn assemble(me: usize, n: usize, iter: u64, pieces: &[Vec<u8>]) -> Option<Vec<u8>> {
    if n < 2 || pieces.len() != n {
        return None;
    }
    let mut block = Vec::new();
    let mut block_len = None;
    // Ascending peer order is ascending stripe order.
    for (j, piece) in pieces.iter().enumerate().filter(|(j, _)| *j != me) {
        if u64_at(piece, 0)? != iter {
            return None;
        }
        let len = usize::try_from(u64_at(piece, 8)?).ok()?;
        if *block_len.get_or_insert(len) != len {
            return None;
        }
        let stripe = stripe_range(len, n, slot(me, j));
        block.extend_from_slice(piece.get(HEADER..)?.get(..stripe.len())?);
    }
    block_len.map(|_| block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(msgs: &[Vec<u8>]) -> impl Iterator<Item = &[u8]> {
        msgs.iter().map(Vec::as_slice)
    }

    #[test]
    fn stripes_tile_the_block() {
        for n in 2..6 {
            for len in [0usize, 1, 2, 5, 16, 17] {
                let mut at = 0;
                for s in 0..n - 1 {
                    let r = stripe_range(len, n, s);
                    assert_eq!(r.start, at, "n {n} len {len} stripe {s}");
                    at = r.end;
                }
                assert_eq!(at, len);
            }
        }
    }

    #[test]
    fn two_ranks_mirror_each_other() {
        let msgs = encode(0, 2, 7, b"state");
        assert!(msgs[0].is_empty());
        let p = parity(7, [msgs[1].as_slice()]).unwrap();
        assert_eq!(&p[8..], b"state");
        let piece = lost_piece(&p, 7, []).unwrap();
        assert_eq!(assemble(0, 2, 7, &[Vec::new(), piece]).unwrap(), b"state");
    }

    #[test]
    fn a_single_rank_has_nothing_to_encode_or_decode() {
        assert_eq!(encode(0, 1, 3, b"abc"), vec![Vec::<u8>::new()]);
        assert!(assemble(0, 1, 3, &[Vec::new()]).is_none());
    }

    #[test]
    fn hostile_pieces_are_rejected() {
        let blocks: [&[u8]; 3] = [b"aaaaa", b"bb", b"cccccccc"];
        let sent: Vec<Vec<Vec<u8>>> = (0..3).map(|i| encode(i, 3, 4, blocks[i])).collect();
        // Rank 1 is lost; owners 0 and 2 decode their stripe of it.
        let piece = |j: usize| {
            let p = parity(4, (0..3).filter(|&i| i != j).map(|i| sent[i][j].as_slice())).unwrap();
            let other = 2 - j;
            lost_piece(&p, 4, [sent[other][j].as_slice()]).unwrap()
        };
        let good = vec![piece(0), Vec::new(), piece(2)];
        assert_eq!(assemble(1, 3, 4, &good).unwrap(), blocks[1]);
        assert!(assemble(1, 3, 5, &good).is_none(), "wrong generation");
        let mut short = good.clone();
        short[0].truncate(HEADER - 1);
        assert!(assemble(1, 3, 4, &short).is_none(), "truncated header");
        let mut liar = good.clone();
        liar[2][8..16].copy_from_slice(&99u64.to_le_bytes());
        assert!(assemble(1, 3, 4, &liar).is_none(), "lengths disagree");
        assert!(parity(4, refs(&[vec![0u8; 3]])).is_none(), "truncated stripe");
        assert!(parity(5, refs(&sent[0][1..2])).is_none(), "stale stripe");
    }
}
