//! Compressed sparse row storage and the one local SpMV kernel.
//!
//! [`Csr::spmv`] walks the rows in order, each a zipped `cols`/`vals`
//! slice pair (one index check per entry), and adds a row's terms in
//! ascending column order from `+0.0`, so a product is bitwise
//! reproducible run to run. There is no threaded, blocked, vectorized or
//! SELL-C-σ variant: none beat this loop on any shape the benchmark runs
//! (ARCHITECTURE.md §8 has the table).

/// CSR matrix over a local index space. Column indices address either the
/// local vector chunk or the halo buffer, depending on which of the two
/// split matrices this is.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csr {
    /// Row pointer array, `nrows + 1` entries.
    pub row_ptr: Vec<usize>,
    /// Column indices, ascending within each row.
    pub cols: Vec<u32>,
    /// Values, parallel to `cols`.
    pub vals: Vec<f64>,
    /// Column-space dimension (bounds-checked in `validate`).
    pub ncols: usize,
}

impl Csr {
    /// An empty matrix with `nrows` rows over `ncols` columns.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self { row_ptr: vec![0; nrows + 1], cols: Vec::new(), vals: Vec::new(), ncols }
    }

    /// A matrix of no rows yet over `ncols` columns, with room for `nrows`
    /// rows of `nnz` entries in total. Rows are appended in order: each
    /// row's entries with [`Csr::push`], then [`Csr::end_row`].
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        Self { row_ptr, cols: Vec::with_capacity(nnz), vals: Vec::with_capacity(nnz), ncols }
    }

    /// Append an entry to the row being built; columns ascend within it.
    #[inline]
    pub fn push(&mut self, col: u32, val: f64) {
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Add an entry to the row being built in column order (insertion).
    pub(crate) fn insert(&mut self, col: u32, val: f64) {
        let start = self.row_ptr[self.row_ptr.len() - 1];
        let at = start + self.cols[start..].partition_point(|&c| c < col);
        self.cols.insert(at, col);
        self.vals.insert(at, val);
    }

    /// Close the row being built.
    #[inline]
    pub fn end_row(&mut self) {
        self.row_ptr.push(self.cols.len());
    }

    /// Build from per-row `(col, val)` lists (each sorted by column).
    pub fn from_rows(rows: &[Vec<(u32, f64)>], ncols: usize) -> Self {
        let mut m = Self::with_capacity(rows.len(), ncols, rows.iter().map(Vec::len).sum());
        for r in rows {
            r.iter().for_each(|&(c, v)| m.push(c, v));
            m.end_row();
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The `(col, val)` entries of one row.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.row_ptr[i]..self.row_ptr[i + 1];
        self.cols[r.clone()].iter().copied().zip(self.vals[r].iter().copied())
    }

    /// Check structural invariants; panics with a description on
    /// violation. Used by tests and debug assertions.
    pub fn validate(&self) {
        assert!(!self.row_ptr.is_empty(), "row_ptr must have nrows+1 entries");
        assert_eq!(self.row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(*self.row_ptr.last().unwrap(), self.cols.len(), "row_ptr end");
        assert_eq!(self.cols.len(), self.vals.len(), "cols/vals length");
        for (i, r) in self.row_ptr.windows(2).enumerate() {
            assert!(r[0] <= r[1], "row_ptr must be non-decreasing");
            let cols = &self.cols[r[0]..r[1]];
            let ascending = cols.windows(2).all(|w| w[0] < w[1]);
            assert!(ascending, "row {i}: columns must be strictly ascending");
            if let Some(c) = cols.iter().find(|&&c| c as usize >= self.ncols) {
                panic!("row {i}: column {c} out of bounds");
            }
        }
    }

    /// Each row's product with `x`, in row order: the one kernel.
    pub(crate) fn row_dots<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        debug_assert!(x.len() >= self.ncols);
        self.row_ptr.windows(2).map(move |r| {
            let (cols, vals) = (&self.cols[r[0]..r[1]], &self.vals[r[0]..r[1]]);
            cols.iter().zip(vals).fold(0.0, |acc, (&c, &v)| acc + v * x[c as usize])
        })
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.nrows());
        y.iter_mut().zip(self.row_dots(x)).for_each(|(yi, d)| *yi = d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        Csr::from_rows(&[vec![(0, 2.0), (2, 1.0)], vec![(1, 3.0)]], 3)
    }

    #[test]
    fn structure_and_validate() {
        let m = sample();
        m.validate();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 2.0), (2, 1.0)]);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, -1.0, 4.0];
        let mut y = vec![0.0; 2];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![6.0, -3.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = Csr::from_rows(&[vec![], vec![(0, 1.0)], vec![]], 2);
        m.validate();
        let mut y = vec![9.0; 3];
        m.spmv(&[5.0, 0.0], &mut y);
        assert_eq!(y, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn validate_catches_bad_column() {
        let m = Csr::from_rows(&[vec![(5, 1.0)]], 3);
        m.validate();
    }
}
