//! Small dense linear algebra: LU factorization with partial pivoting.
//!
//! PDN netlists produce modest systems (tens of unknowns), so a dense
//! solver is both simpler and faster than a sparse one here. The solver is
//! generic over [`Scalar`] so the same code serves the real-valued
//! transient analysis and the complex-valued AC analysis.

use crate::complex::Complex;
use crate::error::PdnError;

/// Field-like scalar usable by the LU solver.
///
/// Implemented for `f64` (transient analysis) and [`Complex`] (AC
/// analysis). This trait is sealed in spirit: downstream implementations
/// are not supported.
pub trait Scalar:
    Copy
    + PartialEq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn magnitude(self) -> f64;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

/// A dense row-major square-capable matrix.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::linalg::Matrix;
///
/// let mut m = Matrix::<f64>::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let lu = m.lu().unwrap();
/// let x = lu.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Adds `value` to entry `(r, c)`; the standard MNA "stamp" primitive.
    #[inline]
    pub fn stamp(&mut self, r: usize, c: usize, value: T) {
        let idx = r * self.cols + c;
        self.data[idx] = self.data[idx] + value;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![T::ZERO; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = T::ZERO;
            for (a, b) in row.iter().zip(x) {
                acc = acc + *a * *b;
            }
            *yr = acc;
        }
        y
    }

    /// Estimated floating-point operations of one LU factorization of
    /// this matrix: the classic dense count `2n³/3 + n²/2`. Part of the
    /// solver cost model surfaced by
    /// [`crate::telemetry::SolverCounters::est_flops`]; an estimate, not
    /// a measurement (pivot searches and zero-skip branches are not
    /// charged).
    pub fn lu_flops(&self) -> u64 {
        let n = self.rows as u64;
        2 * n * n * n / 3 + n * n / 2
    }

    /// Factors the matrix as `P*A = L*U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::SingularMatrix`] when a pivot collapses below
    /// numerical tolerance, and [`PdnError::DimensionMismatch`] when the
    /// matrix is not square.
    pub fn lu(&self) -> Result<LuFactors<T>, PdnError> {
        if self.rows != self.cols {
            return Err(PdnError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot selection: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].magnitude();
            for r in (k + 1)..n {
                let mag = lu[r * n + k].magnitude();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if !(pivot_mag.is_finite() && pivot_mag > 1e-300) {
                return Err(PdnError::SingularMatrix { column: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != T::ZERO {
                    for c in (k + 1)..n {
                        let sub = factor * lu[k * n + c];
                        lu[r * n + c] = lu[r * n + c] - sub;
                    }
                }
            }
        }
        Ok(LuFactors { n, lu, perm })
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

/// LU factorization of a square matrix, reusable across many right-hand
/// sides — the transient solver factors once per distinct timestep and
/// back-substitutes every step.
#[derive(Debug, Clone)]
pub struct LuFactors<T> {
    n: usize,
    lu: Vec<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> LuFactors<T> {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Estimated floating-point operations of one back-substitution
    /// against these factors: `2n²` (forward plus backward sweep). The
    /// companion of [`Matrix::lu_flops`] in the solver cost model.
    pub fn solve_flops(&self) -> u64 {
        let n = self.n as u64;
        2 * n * n
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::DimensionMismatch`] if `b.len()` differs from
    /// the factored dimension.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, PdnError> {
        if b.len() != self.n {
            return Err(PdnError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` writing into a caller-provided buffer, avoiding
    /// per-step allocation in hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::DimensionMismatch`] on size mismatch.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), PdnError> {
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(PdnError::DimensionMismatch {
                expected: n,
                actual: b.len().min(x.len()),
            });
        }
        // Forward substitution on the permuted RHS (L has unit diagonal).
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, xj) in x.iter().enumerate().take(i) {
                acc = acc - self.lu[i * n + j] * *xj;
            }
            x[i] = acc;
        }
        // Backward substitution. Indexing is clearer than iterator
        // gymnastics here because `x` is read and written in place.
        #[allow(clippy::needless_range_loop)]
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc = acc - self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        Ok(())
    }

    /// Solves `A X = B` for `K` right-hand sides at once, stored
    /// lane-interleaved: `rhs[i][k]` is entry `i` of right-hand side
    /// `k`, and its solution lands in `x[i][k]`.
    ///
    /// Every lane performs exactly the operation sequence of
    /// [`LuFactors::solve_into`] (lanes are independent), so each lane
    /// is **bitwise identical** to solving its right-hand side alone;
    /// the lanes only share the loads of the LU entries and let the
    /// independent per-lane dependency chains overlap. `rhs` is only
    /// read here, but callers must treat it as scratch: the sparse
    /// kernel eliminates in place.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::DimensionMismatch`] when either buffer's
    /// length differs from the factored dimension.
    pub fn solve_lanes<const K: usize>(
        &self,
        rhs: &mut [[T; K]],
        x: &mut [[T; K]],
    ) -> Result<(), PdnError> {
        let n = self.n;
        if rhs.len() != n || x.len() != n {
            return Err(PdnError::DimensionMismatch {
                expected: n,
                actual: rhs.len().min(x.len()),
            });
        }
        // Forward substitution on the permuted RHS (L has unit diagonal).
        for i in 0..n {
            let mut acc = rhs[self.perm[i]];
            for (j, xj) in x.iter().enumerate().take(i) {
                let l = self.lu[i * n + j];
                for k in 0..K {
                    acc[k] = acc[k] - l * xj[k];
                }
            }
            x[i] = acc;
        }
        // Backward substitution.
        #[allow(clippy::needless_range_loop)]
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                let u = self.lu[i * n + j];
                for k in 0..K {
                    acc[k] = acc[k] - u * x[j][k];
                }
            }
            let d = self.lu[i * n + i];
            for a in &mut acc {
                *a = *a / d;
            }
            x[i] = acc;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_real_system() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        let rows = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                a[(r, c)] = *v;
            }
        }
        let lu = a.lu().unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = Matrix::<f64>::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let lu = a.lu().unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::<f64>::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(matches!(a.lu(), Err(PdnError::SingularMatrix { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(a.lu(), Err(PdnError::DimensionMismatch { .. })));
    }

    #[test]
    fn complex_system_round_trips() {
        let n = 4;
        let mut a = Matrix::<Complex>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = Complex::new(
                    (r * n + c) as f64 * 0.37 - 2.0,
                    (r as f64) - (c as f64) * 0.5,
                );
            }
            // Diagonal dominance keeps the system well conditioned.
            a[(r, r)] += Complex::new(10.0, 3.0);
        }
        let x_true: Vec<Complex> = (0..n)
            .map(|k| Complex::new(k as f64, -(k as f64) * 0.25))
            .collect();
        let b = a.mul_vec(&x_true);
        let x = a.lu().unwrap().solve(&b).unwrap();
        for (xi, ei) in x.iter().zip(&x_true) {
            assert!((*xi - *ei).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solves_trivially() {
        let a = Matrix::<f64>::identity(5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(a.lu().unwrap().solve(&b).unwrap(), b);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        a[(0, 0)] = 1.0;
        a[(0, 2)] = 2.0;
        a[(1, 1)] = -1.0;
        assert_eq!(a.mul_vec(&[1.0, 2.0, 3.0]), vec![7.0, -2.0]);
    }

    #[test]
    fn flop_estimates_follow_dense_cost_model() {
        let a = Matrix::<f64>::identity(10);
        // 2n³/3 + n²/2 with n = 10, integer arithmetic.
        assert_eq!(a.lu_flops(), 2 * 1000 / 3 + 100 / 2);
        assert_eq!(a.lu().unwrap().solve_flops(), 200);
    }

    #[test]
    fn batched_solve_is_bitwise_identical_to_looped() {
        // An ill-scaled, non-symmetric system so rounding would expose
        // any operation-order drift between the two code paths.
        let n = 7;
        let mut a = Matrix::<f64>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = ((r * 31 + c * 17) as f64).sin() * 1e3_f64.powi((r % 3) as i32 - 1);
            }
            a[(r, r)] += 50.0;
        }
        let lu = a.lu().unwrap();
        const K: usize = 5;
        let rhs: Vec<[f64; K]> = (0..n)
            .map(|i| std::array::from_fn(|col| (((col * n + i) * 13) as f64).cos() * 7.5))
            .collect();
        let mut work = rhs.clone();
        let mut batched = vec![[0.0; K]; n];
        lu.solve_lanes(&mut work, &mut batched).unwrap();
        for col in 0..K {
            let column: Vec<f64> = rhs.iter().map(|r| r[col]).collect();
            let mut single = vec![0.0; n];
            lu.solve_into(&column, &mut single).unwrap();
            for i in 0..n {
                assert_eq!(
                    single[i].to_bits(),
                    batched[i][col].to_bits(),
                    "col {col} row {i}"
                );
            }
        }
    }

    #[test]
    fn batched_solve_rejects_ragged_buffers() {
        let lu = Matrix::<f64>::identity(3).lu().unwrap();
        let mut x = [[0.0; 2]; 3];
        assert!(lu.solve_lanes(&mut [[1.0; 2]; 4], &mut x).is_err());
        assert!(lu.solve_lanes(&mut [[1.0; 2]; 3], &mut x[..2]).is_err());
        assert!(lu.solve_lanes(&mut [[1.0; 2]; 3], &mut x).is_ok());
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let a = Matrix::<f64>::identity(3);
        let lu = a.lu().unwrap();
        let mut buf = vec![0.0; 3];
        lu.solve_into(&[9.0, 8.0, 7.0], &mut buf).unwrap();
        assert_eq!(buf, vec![9.0, 8.0, 7.0]);
    }
}
