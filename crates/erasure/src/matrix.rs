//! Dense matrices over GF(256) with Gauss–Jordan inversion.
//!
//! Support machinery for the Reed–Solomon code: building systematic
//! Vandermonde encode matrices and inverting the sub-matrices used during
//! reconstruction.

use crate::gf256;

/// A row-major matrix over GF(256).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Creates the `rows × cols` Vandermonde matrix `V[i][j] = i^j`
    /// (elements taken as field elements).
    ///
    /// Any `cols` rows of this matrix are linearly independent as long as
    /// `rows ≤ 256`, which is what makes Reed–Solomon reconstruction work.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (field elements are exhausted).
    #[must_use]
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "GF(256) supports at most 256 distinct rows");
        let mut m = Self::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = gf256::pow(i as u8, j as u32);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Every entry, row-major: row `r` is `as_slice()[r * cols..][..cols]`.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    #[must_use]
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "shape mismatch");
        let mut out = Self::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] ^= gf256::mul(a, rhs[(k, j)]);
                }
            }
        }
        out
    }

    /// Builds a new matrix from a subset of this matrix's rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any index is out of range.
    #[must_use]
    pub fn select_rows(&self, rows: &[usize]) -> Self {
        assert!(!rows.is_empty());
        let mut out = Self::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(r));
        }
        out
    }

    /// Inverts a square matrix via Gauss–Jordan elimination.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn inverted(&self) -> Option<Self> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Self::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| work[(r, col)] != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let scale = gf256::inv(work[(col, col)]);
            work.scale_row(col, scale);
            inv.scale_row(col, scale);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col || work[(r, col)] == 0 {
                    continue;
                }
                let factor = work[(r, col)];
                work.add_scaled_row(col, r, factor);
                inv.add_scaled_row(col, r, factor);
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    fn scale_row(&mut self, r: usize, c: u8) {
        for j in 0..self.cols {
            self[(r, j)] = gf256::mul(self[(r, j)], c);
        }
    }

    /// `row[dst] ^= c · row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, c: u8) {
        for j in 0..self.cols {
            let v = gf256::mul(self[(src, j)], c);
            self[(dst, j)] ^= v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = u8;
    fn index(&self, (r, c): (usize, usize)) -> &u8 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u8 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything() {
        let v = Matrix::vandermonde(5, 3);
        let i5 = Matrix::identity(5);
        assert_eq!(i5.mul(&v), v);
    }

    #[test]
    fn inverse_roundtrip() {
        // Every square submatrix of a Vandermonde matrix is invertible.
        let v = Matrix::vandermonde(8, 4);
        for rows in [[0usize, 1, 2, 3], [4, 5, 6, 7], [0, 2, 5, 7]] {
            let m = v.select_rows(&rows);
            let inv = m.inverted().expect("vandermonde rows invertible");
            assert_eq!(m.mul(&inv), Matrix::identity(4));
            assert_eq!(inv.mul(&m), Matrix::identity(4));
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let mut m = Matrix::zero(2, 2);
        m[(0, 0)] = 1;
        m[(0, 1)] = 1;
        m[(1, 0)] = 1;
        m[(1, 1)] = 1;
        assert!(m.inverted().is_none());
    }

    #[test]
    fn select_rows_picks_rows() {
        let v = Matrix::vandermonde(4, 2);
        let s = v.select_rows(&[3, 1]);
        assert_eq!(s.row(0), v.row(3));
        assert_eq!(s.row(1), v.row(1));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dims_panic() {
        let _ = Matrix::zero(0, 3);
    }
}
