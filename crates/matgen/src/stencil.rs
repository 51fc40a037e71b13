//! Finite-difference Laplacian stencils — the "other applications" class
//! the paper's technique generalizes to (and the substrate of the
//! heat-equation example).

use crate::{RowEntry, RowGen};

/// The `2·D + 1`-point Laplacian on a grid of interior points (Dirichlet
/// boundaries): `2·D` on the diagonal, −1 towards each grid neighbor. A
/// row is numbered with its x coordinate fastest.
#[derive(Debug, Clone)]
pub struct Laplace<const D: usize> {
    n: [u64; D],
}

/// 5-point 2D Laplacian on an `nx × ny` grid.
pub type Laplace2d = Laplace<2>;
/// 7-point 3D Laplacian on an `nx × ny × nz` grid.
pub type Laplace3d = Laplace<3>;

impl Laplace<2> {
    /// Grid of `nx × ny` interior points.
    pub fn new(nx: u64, ny: u64) -> Self {
        assert!(nx >= 1 && ny >= 1);
        Self { n: [nx, ny] }
    }
}

impl Laplace<3> {
    /// Grid of `nx × ny × nz` interior points.
    pub fn new(nx: u64, ny: u64, nz: u64) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        Self { n: [nx, ny, nz] }
    }
}

impl<const D: usize> RowGen for Laplace<D> {
    fn dim(&self) -> u64 {
        self.n.iter().product()
    }

    fn max_row_entries(&self) -> usize {
        2 * D + 1
    }

    fn row(&self, row: u64, out: &mut Vec<RowEntry>) {
        out.clear();
        let mut stride = [1; D];
        for k in 1..D {
            stride[k] = stride[k - 1] * self.n[k - 1];
        }
        let at = |k: usize| row / stride[k] % self.n[k];
        // Lower neighbors from the slowest axis, the diagonal, then upper
        // neighbors from the fastest: ascending columns.
        for k in (0..D).rev().filter(|&k| at(k) > 0) {
            out.push(RowEntry { col: row - stride[k], val: -1.0 });
        }
        out.push(RowEntry { col: row, val: 2.0 * D as f64 });
        for k in (0..D).filter(|&k| at(k) + 1 < self.n[k]) {
            out.push(RowEntry { col: row + stride[k], val: -1.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_rows;

    #[test]
    fn laplace2d_interior_row() {
        let g = Laplace2d::new(4, 4);
        let r = g.row_vec(5); // (x=1, y=1): full 5-point star
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().map(|e| e.val).sum::<f64>(), 0.0);
        let diag = r.iter().find(|e| e.col == 5).unwrap();
        assert_eq!(diag.val, 4.0);
    }

    #[test]
    fn laplace2d_valid_and_symmetric() {
        let g = Laplace2d::new(5, 3);
        validate_rows(&g, 0..g.dim(), true);
    }

    #[test]
    fn laplace3d_valid_and_symmetric() {
        let g = Laplace3d::new(3, 4, 3);
        assert_eq!(g.dim(), 36);
        validate_rows(&g, 0..g.dim(), true);
        // Interior point (x=1, y=1, z=1) has the full 7-point star.
        let r = g.row_vec(12 + 3 + 1);
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn degenerate_1d_cases() {
        let g = Laplace2d::new(6, 1);
        validate_rows(&g, 0..g.dim(), true);
        assert_eq!(g.row_vec(0).len(), 2);
        assert_eq!(g.row_vec(3).len(), 3);
    }
}
