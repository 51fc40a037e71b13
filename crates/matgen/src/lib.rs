//! # ft-matgen — on-the-fly sparse matrix generators
//!
//! "A matrix generation library tool is used to construct the matrix on
//! the fly. Depending upon the specified geometry size, each process
//! allocates its own chunk of the matrix. This way, the expensive step of
//! reading the matrix from PFS is avoided." (§V)
//!
//! Generators implement [`RowGen`]: given a global row index, produce the
//! row's `(column, value)` entries. A distributed application asks the
//! generator only for its own row range — no global matrix ever exists in
//! memory, exactly as in the paper. Provided models:
//!
//! * [`graphene::Graphene`] — the paper's benchmark matrix: a
//!   tight-binding Hamiltonian of a quasi-2D honeycomb (graphene) lattice,
//!   with configurable hopping range and optional Anderson disorder.
//! * [`stencil::Laplace2d`] / [`stencil::Laplace3d`] — classic
//!   finite-difference stencils.
//! * [`random::RandomSym`] — seeded random symmetric matrices.
//! * [`spectra`] — matrices with analytically known eigenvalues, used to
//!   validate the Lanczos + QL solver.

pub mod graphene;
pub mod random;
pub mod spectra;
pub mod stencil;

/// One nonzero entry of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowEntry {
    /// Global column index.
    pub col: u64,
    /// Value.
    pub val: f64,
}

/// A deterministic, on-the-fly row generator for a sparse symmetric
/// matrix.
pub trait RowGen: Send + Sync {
    /// Global matrix dimension (rows == columns).
    fn dim(&self) -> u64;

    /// Append the entries of `row` to `out` (sorted by column, no
    /// duplicates). `out` is cleared first and reused: once it has
    /// [`RowGen::max_row_entries`] capacity, a generator must not
    /// allocate, so assembling a chunk costs its rows, not one allocation
    /// per row.
    fn row(&self, row: u64, out: &mut Vec<RowEntry>);

    /// Convenience: the row as a fresh vector.
    fn row_vec(&self, row: u64) -> Vec<RowEntry> {
        let mut v = Vec::new();
        self.row(row, &mut v);
        v
    }

    /// An upper bound on entries per row (for capacity hints).
    fn max_row_entries(&self) -> usize;
}

/// Entry `i` of the seeded uniform sequence in [0, 1): SplitMix64 of
/// `seed ^ i·φ`, a function of `(seed, i)` alone, so any partition of the
/// indices draws the same values (graphene's disorder, Lanczos' start
/// vector).
pub fn seeded_u01(seed: u64, i: u64) -> f64 {
    let mut z = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Verify generator invariants over a row range: sorted columns, in-range
/// indices, no duplicates, and symmetry (`A[i][j] == A[j][i]`) when
/// `check_symmetry` — used by the property tests of every generator.
pub fn validate_rows<G: RowGen>(gen: &G, rows: std::ops::Range<u64>, check_symmetry: bool) {
    let mut buf = Vec::new();
    for i in rows {
        gen.row(i, &mut buf);
        assert!(
            buf.len() <= gen.max_row_entries(),
            "row {i}: {} entries exceeds declared max {}",
            buf.len(),
            gen.max_row_entries()
        );
        for w in buf.windows(2) {
            assert!(w[0].col < w[1].col, "row {i}: columns not strictly ascending");
        }
        for e in &buf {
            assert!(e.col < gen.dim(), "row {i}: column {} out of range", e.col);
            assert!(e.val.is_finite(), "row {i}: non-finite value");
            if check_symmetry {
                let back = gen.row_vec(e.col);
                let mirror = back.iter().find(|b| b.col == i);
                match mirror {
                    Some(m) => assert!(
                        (m.val - e.val).abs() <= 1e-12 * e.val.abs().max(1.0),
                        "asymmetry at ({i},{})",
                        e.col
                    ),
                    None => panic!("missing mirror entry for ({i},{})", e.col),
                }
            }
        }
    }
}
