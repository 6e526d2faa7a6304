//! Minimal dense linear algebra (f64) for the regression models.

#![allow(clippy::needless_range_loop)]

use std::fmt;

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// `A^T * A` (Gram matrix).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for i in 0..self.cols {
                if row[i] == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += row[i] * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `A^T * y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * y[r];
            }
        }
        out
    }

    /// In-place Cholesky factorization `A = L L^T` of a symmetric
    /// positive-definite matrix; returns the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if a non-positive pivot arises.
    pub fn cholesky(&self) -> Result<Matrix, NotPositiveDefiniteError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefiniteError {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `L x = b` for lower-triangular `L` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self[(i, j)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Solves `L^T x = b` for lower-triangular `L` (back substitution).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in i + 1..n {
                sum -= self[(j, i)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Solves the SPD system `A x = b` via Cholesky.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if `A` is not SPD.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefiniteError> {
        let l = self.cholesky()?;
        Ok(l.solve_lower_transpose(&l.solve_lower(b)))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Error: the matrix passed to Cholesky is not positive definite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotPositiveDefiniteError {
    /// Pivot index at which factorization failed.
    pub pivot: usize,
    /// The non-positive pivot value.
    pub value: f64,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefiniteError {}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky().unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        let err = a.cholesky().unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn gram_and_t_matvec() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
        let aty = a.t_matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(aty, vec![9.0, 12.0]);
    }

    #[test]
    fn identity_solve() {
        let i = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.solve_spd(&b).unwrap(), b);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
