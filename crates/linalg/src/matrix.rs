//! Dense row-major matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Two disjoint mutable row views; panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "rows must be distinct");
        let c = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * c);
            (&mut lo[a * c..(a + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * c);
            let (bl, al) = (&mut lo[b * c..(b + 1) * c], &mut hi[..c]);
            (al, bl)
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(16) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 16 {
            writeln!(f, "  ... ({} more rows)", self.rows - 16)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constructors, a product and a transpose only the crate's tests use.
    impl Matrix {
        /// The `n x n` identity.
        pub(crate) fn identity(n: usize) -> Self {
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                m[(i, i)] = 1.0;
            }
            m
        }

        /// Build from row slices; panics on ragged input.
        pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
            let r = rows.len();
            let c = rows.first().map_or(0, |row| row.len());
            let mut m = Matrix::zeros(r, c);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.len(), c, "ragged row {i}");
                m.row_mut(i).copy_from_slice(row);
            }
            m
        }

        /// Matrix-vector product `A x`.
        pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
            assert_eq!(x.len(), self.cols, "dimension mismatch");
            (0..self.rows)
                .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
                .collect()
        }

        /// Transposed copy.
        fn transposed(&self) -> Matrix {
            let mut t = Matrix::zeros(self.cols, self.rows);
            for i in 0..self.rows {
                for j in 0..self.cols {
                    t[(j, i)] = self[(i, j)];
                }
            }
            t
        }
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            a[0] = 9.0;
            b[1] = 8.0;
        }
        assert_eq!(m[(0, 0)], 9.0);
        assert_eq!(m[(2, 1)], 8.0);
        {
            let (a, b) = m.two_rows_mut(2, 0); // reversed order
            a[0] = 7.0;
            b[0] = 6.0;
        }
        assert_eq!(m[(2, 0)], 7.0);
        assert_eq!(m[(0, 0)], 6.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }
}
