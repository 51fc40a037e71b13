//! `DistMatrix::assemble` writes each generated row straight into its two
//! CSR arrays. Pinned here:
//!
//! * **Equivalence.** The chunk is the one the row-by-row algorithm built
//!   (one vector pair per row, copied through `Csr::from_rows`, kept below
//!   as [`reference`]): same `row_ptr`, `cols` and `ncols`, and `vals`
//!   equal bit for bit, for every generator, part count and part.
//! * **Allocations.** A counting allocator, per thread so tests running in
//!   parallel do not pollute the count, shows that a row generated into a
//!   warmed buffer allocates nothing and that a chunk's allocations do not
//!   grow with its rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ft_matgen::graphene::Graphene;
use ft_matgen::random::RandomSym;
use ft_matgen::stencil::{Laplace2d, Laplace3d};
use ft_matgen::RowGen;
use ft_sparse::{CommPlan, Csr, DistMatrix, RowPartition};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counter;

fn counted() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor.
unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(p, layout, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
}

#[global_allocator]
static COUNTER: Counter = Counter;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The receive side of `me`'s plan: all `assemble` reads of it.
fn plan<G: RowGen>(gen: &G, part: &RowPartition, me: u32) -> CommPlan {
    CommPlan::receives_from_needs(me, part.parts(), &DistMatrix::needed_columns(gen, part, me))
}

/// The row-by-row assembly: a fresh vector pair per row, the remote one
/// sorted by halo slot, both copied through `Csr::from_rows`.
fn reference<G: RowGen>(gen: &G, part: RowPartition, me: u32, plan: &CommPlan) -> (Csr, Csr) {
    let mine = part.range(me);
    let (mut loc, mut rem) = (Vec::new(), Vec::new());
    for row in mine.clone() {
        let (mut rl, mut rr) = (Vec::new(), Vec::new());
        for e in gen.row_vec(row) {
            if mine.contains(&e.col) {
                rl.push(((e.col - mine.start) as u32, e.val));
            } else {
                rr.push((plan.halo_slot(e.col).unwrap() as u32, e.val));
            }
        }
        rr.sort_by_key(|&(c, _)| c);
        loc.push(rl);
        rem.push(rr);
    }
    (Csr::from_rows(&loc, part.len(me)), Csr::from_rows(&rem, plan.halo_len))
}

fn assert_same(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(got.row_ptr, want.row_ptr, "{what}: row_ptr");
    assert_eq!(got.cols, want.cols, "{what}: cols");
    assert_eq!(got.ncols, want.ncols, "{what}: ncols");
    let bits = |m: &Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: vals");
}

/// Every part of 1, 3, 4 and 7 parts (those the dimension allows)
/// assembles to the reference chunk.
fn check_equivalence<G: RowGen>(name: &str, gen: &G) {
    for parts in [1u32, 3, 4, 7].into_iter().filter(|&p| u64::from(p) <= gen.dim()) {
        let part = RowPartition::new(gen.dim(), parts);
        for me in 0..parts {
            let plan = plan(gen, &part, me);
            let (loc, rem) = reference(gen, part, me, &plan);
            let dm = DistMatrix::assemble(gen, part, me, plan);
            let what = format!("{name}, {parts} parts, part {me}");
            assert_same(&dm.a_loc, &loc, &format!("{what}, a_loc"));
            assert_same(&dm.a_rem, &rem, &format!("{what}, a_rem"));
            if parts == 1 {
                assert_eq!((dm.a_rem.ncols, dm.a_rem.nnz()), (0, 0), "{what}: halo-free");
            }
        }
    }
}

#[test]
fn assembly_matches_the_row_by_row_reference() {
    check_equivalence("open graphene", &Graphene::new(7, 5).with_nnn(-0.1).with_disorder(0.5, 42));
    // lx = 1 periodic: displacements wrap onto one site and merge.
    check_equivalence(
        "periodic graphene 1x2",
        &Graphene::new(1, 2).with_nnn(-0.3).with_disorder(0.7, 3).with_periodic(true),
    );
    check_equivalence(
        "periodic graphene 2x5",
        &Graphene::new(2, 5).with_nnn(-0.3).with_periodic(true),
    );
    check_equivalence("laplace2d", &Laplace2d::new(9, 6));
    check_equivalence("laplace3d", &Laplace3d::new(5, 4, 3));
    check_equivalence("random", &RandomSym::new(90, 12, 0.4, 7).with_diag_shift(2.0));
}

/// A generator writing into a buffer with `max_row_entries` capacity
/// allocates nothing: the `RowGen::row` contract.
#[test]
fn a_row_into_a_warmed_buffer_does_not_allocate() {
    fn check<G: RowGen>(name: &str, gen: &G) {
        let mut buf = Vec::with_capacity(gen.max_row_entries());
        let ((), n) = allocations(|| (0..gen.dim()).for_each(|row| gen.row(row, &mut buf)));
        assert_eq!(n, 0, "{name}: {n} allocations over {} rows", gen.dim());
    }
    check("graphene", &Graphene::new(16, 16).with_nnn(-0.1).with_disorder(0.5, 1));
    check("merging graphene", &Graphene::new(1, 2).with_nnn(-0.3).with_periodic(true));
    check("laplace2d", &Laplace2d::new(16, 16));
    check("laplace3d", &Laplace3d::new(8, 8, 8));
    check("random", &RandomSym::new(256, 8, 0.5, 9));
}

/// The most allocations one `assemble` makes, whatever its rows: three
/// arrays for each of the two CSR parts and the two reused row buffers.
/// The row-by-row assembly made about four per row.
const ASSEMBLE_ALLOCS: usize = 8;

/// A 4 096-row and a 32 768-row graphene chunk (a middle part of four, so
/// with a halo on both sides) cost the same constant number of
/// allocations.
#[test]
fn a_chunk_costs_a_constant_number_of_allocations() {
    let counts = [(64, 128), (256, 256)].map(|(lx, ly)| {
        let gen = Graphene::new(lx, ly).with_nnn(-0.1);
        let part = RowPartition::new(gen.dim(), 4);
        let plan = plan(&gen, &part, 1);
        let (dm, n) = allocations(|| DistMatrix::assemble(&gen, part, 1, plan));
        assert!(dm.a_rem.nnz() > 0);
        (dm.local_len(), n)
    });
    assert_eq!(counts.map(|(rows, _)| rows), [4096, 32_768]);
    let [(_, small), (_, large)] = counts;
    assert_eq!(small, large, "allocations grow with the chunk's rows");
    assert!(large <= ASSEMBLE_ALLOCS, "{large} allocations, bound {ASSEMBLE_ALLOCS}");
}
