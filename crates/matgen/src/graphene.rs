//! Graphene tight-binding Hamiltonian.
//!
//! The paper's matrix "arises from the quantum-mechanical description of
//! electron transport properties in graphene" (§V): a honeycomb lattice
//! of `2·Lx·Ly` sites (two sublattices A/B per unit cell) with
//! nearest-neighbor hopping, optional next-nearest-neighbor hopping (which
//! brings the row population close to the paper's ≈12 nonzeros/row), and
//! optional on-site Anderson disorder. Rows are generated on the fly from
//! the geometry — no global matrix is ever materialized, and a rescue
//! process can regenerate a failed process's chunk locally. A row comes
//! out of one neighbor table that is already in column order; only
//! periodic wrap, which can reorder sites and merge them, sorts and merges
//! it afterwards.

use crate::{seeded_u01, RowEntry, RowGen};

/// Honeycomb tight-binding Hamiltonian generator.
#[derive(Debug, Clone)]
pub struct Graphene {
    lx: u64,
    ly: u64,
    /// Nearest-neighbor hopping amplitude (3 neighbors/site).
    pub t1: f64,
    /// Next-nearest-neighbor hopping (6 neighbors/site); 0 disables.
    pub t2: f64,
    /// Anderson disorder strength `W`: on-site energies uniform in
    /// `[-W/2, W/2]`, deterministic per site.
    pub disorder: f64,
    /// Seed for the per-site disorder hash.
    pub seed: u64,
    /// Periodic boundary conditions.
    pub periodic: bool,
}

impl Graphene {
    /// A clean `Lx × Ly`-cell sheet with NN hopping `t1 = -1`.
    pub fn new(lx: u64, ly: u64) -> Self {
        assert!(lx >= 1 && ly >= 1);
        Self { lx, ly, t1: -1.0, t2: 0.0, disorder: 0.0, seed: 0, periodic: false }
    }

    /// Enable next-nearest-neighbor hopping.
    pub fn with_nnn(mut self, t2: f64) -> Self {
        self.t2 = t2;
        self
    }

    /// Enable seeded Anderson disorder of strength `w`.
    pub fn with_disorder(mut self, w: f64, seed: u64) -> Self {
        self.disorder = w;
        self.seed = seed;
        self
    }

    /// Toggle periodic boundaries.
    pub fn with_periodic(mut self, on: bool) -> Self {
        self.periodic = on;
        self
    }

    /// Number of lattice sites (= matrix dimension).
    pub fn sites(&self) -> u64 {
        2 * self.lx * self.ly
    }

    fn site(&self, x: i64, y: i64, sub: u64) -> Option<u64> {
        let (x, y) = match self.periodic {
            true => (x.rem_euclid(self.lx as i64) as u64, y.rem_euclid(self.ly as i64) as u64),
            // A site off the low edge wraps to a huge unsigned coordinate.
            false => (x as u64, y as u64),
        };
        (x < self.lx && y < self.ly).then(|| (y * self.lx + x) * 2 + sub)
    }

    fn onsite(&self, site: u64) -> f64 {
        if self.disorder == 0.0 {
            return 0.0;
        }
        self.disorder * (seeded_u01(self.seed, site) - 0.5)
    }
}

impl RowGen for Graphene {
    fn dim(&self) -> u64 {
        self.sites()
    }

    fn max_row_entries(&self) -> usize {
        1 + 3 + if self.t2 != 0.0 { 6 } else { 0 }
    }

    fn row(&self, row: u64, out: &mut Vec<RowEntry>) {
        out.clear();
        let (x, y) = (((row >> 1) % self.lx) as i64, ((row >> 1) / self.lx) as i64);
        for &(dx, dy, sub, hop) in &NEIGHBORS[(row & 1) as usize] {
            let val = match hop {
                // Always emitted, so the sparsity pattern is
                // disorder-independent.
                Hop::OnSite => self.onsite(row),
                Hop::Nn => self.t1,
                Hop::Nnn if self.t2 != 0.0 => self.t2,
                Hop::Nnn => continue,
            };
            if let Some(col) = self.site(x + dx, y + dy, sub) {
                out.push(RowEntry { col, val });
            }
        }
        // Periodic wrap can reorder sites and, on tiny lattices, map
        // several displacements to one (the diagonal included):
        // stable-sort, then add each duplicate into the entry kept before
        // it, in place, so a warmed `out` never reallocates.
        if self.periodic {
            out.sort_by_key(|e| e.col);
            out.dedup_by(|e, kept| {
                let same = e.col == kept.col;
                if same {
                    kept.val += e.val;
                }
                same
            });
        }
    }
}

/// Which amplitude a neighbor carries.
#[derive(Debug, Clone, Copy)]
enum Hop {
    OnSite,
    Nn,
    Nnn,
}

/// The row of an A (`[0]`) or a B (`[1]`) site at `(x, y)`: each entry is
/// the site at `(x + dx, y + dy)` on sublattice `sub`, as `(dx, dy, sub,
/// hop)`. Nearest neighbors are A(x,y) ↔ B(x,y), B(x−1,y), B(x,y−1);
/// next-nearest are the six same-sublattice sites of the triangular
/// Bravais lattice. A column is `2·(y·Lx + x) + sub`, so ordering by `dy`,
/// then `dx`, then `sub` is column order: on open boundaries a row is
/// this table with the sites that fall off skipped, already sorted.
#[rustfmt::skip]
const NEIGHBORS: [[(i64, i64, u64, Hop); 10]; 2] = {
    use Hop::*;
    [
        [(0, -1, 0, Nnn), (0, -1, 1, Nn), (1, -1, 0, Nnn),
         (-1, 0, 0, Nnn), (-1, 0, 1, Nn), (0, 0, 0, OnSite), (0, 0, 1, Nn), (1, 0, 0, Nnn),
         (-1, 1, 0, Nnn), (0, 1, 0, Nnn)],
        [(0, -1, 1, Nnn), (1, -1, 1, Nnn),
         (-1, 0, 1, Nnn), (0, 0, 0, Nn), (0, 0, 1, OnSite), (1, 0, 0, Nn), (1, 0, 1, Nnn),
         (-1, 1, 1, Nnn), (0, 1, 0, Nn), (0, 1, 1, Nnn)],
    ]
};
#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_rows;

    #[test]
    fn dimensions_and_degree() {
        let g = Graphene::new(4, 3);
        assert_eq!(g.dim(), 24);
        // A bulk site has exactly 3 NN + diagonal.
        let bulk = g.row_vec(2 * (4 + 1)); // A site of cell (1,1)
        assert_eq!(bulk.len(), 4);
        // Corner A site (0,0): neighbors (−1,0) and (0,−1) fall off.
        let corner = g.row_vec(0);
        assert_eq!(corner.len(), 2);
    }

    #[test]
    fn open_boundaries_symmetric_and_valid() {
        let g = Graphene::new(5, 4).with_nnn(-0.1).with_disorder(0.5, 42);
        validate_rows(&g, 0..g.dim(), true);
    }

    #[test]
    fn periodic_boundaries_symmetric_and_valid() {
        let g = Graphene::new(4, 4).with_nnn(-0.2).with_periodic(true);
        validate_rows(&g, 0..g.dim(), true);
    }

    #[test]
    fn tiny_periodic_lattice_merges_duplicates() {
        // lx = 1 periodic: (x−1) and (x+1) wrap to x itself.
        let g = Graphene::new(1, 2).with_nnn(-0.3).with_periodic(true);
        validate_rows(&g, 0..g.dim(), true);
        for i in 0..g.dim() {
            let r = g.row_vec(i);
            for w in r.windows(2) {
                assert!(w[0].col < w[1].col);
            }
        }
    }

    #[test]
    fn disorder_is_deterministic_and_bounded() {
        let g = Graphene::new(8, 8).with_disorder(2.0, 7);
        let h = Graphene::new(8, 8).with_disorder(2.0, 7);
        for i in 0..g.dim() {
            let a = g.row_vec(i);
            let b = h.row_vec(i);
            assert_eq!(a, b);
            let diag = a.iter().find(|e| e.col == i).unwrap();
            assert!(diag.val.abs() <= 1.0, "disorder must stay in [-W/2, W/2]");
        }
        // Different seed ⇒ (almost surely) different diagonal somewhere.
        let k = Graphene::new(8, 8).with_disorder(2.0, 8);
        let differs = (0..g.dim()).any(|i| k.row_vec(i) != g.row_vec(i));
        assert!(differs);
    }

    #[test]
    fn nnn_row_population_matches_paper_scale() {
        // diag + 3 NN + 6 NNN = 10 entries for a bulk site — the same
        // order as the paper's ≈12.5 nnz/row graphene matrix.
        let g = Graphene::new(6, 6).with_nnn(-0.1).with_periodic(true);
        let bulk = g.row_vec(2 * (2 * 6 + 2));
        assert_eq!(bulk.len(), 10);
    }
}
