//! CSR sparse matrix and sparse LU for drawer-scale MNA systems.
//!
//! The dense solver in [`crate::linalg`] is the right tool for a single
//! chip (a few dozen unknowns); a multi-chip drawer assembles hundreds,
//! where dense `O(n³)` factorization wastes almost all of its work on
//! structural zeros. This module provides the large-system path:
//!
//! - `CsrMatrix`: numeric values over a shared
//!   `SystemPattern`, assembled through the
//!   same `StampTarget` stamping code as the dense path;
//! - `SparseLu`: right-looking sparse LU with Markowitz pivoting
//!   under a threshold-pivoting stability constraint, plus
//!   `SparseLu::refactor` which reuses a previously discovered
//!   `EliminationOrder` (the expensive symbolic part) when only the
//!   numeric values changed — the common case for the transient
//!   factor cache, where the pattern is fixed and only the step size
//!   varies.
//!
//! Flop accounting is *nnz-aware*: `SparseLu::factor_flops` counts
//! the multiply-adds and divisions actually performed (fill-in
//! included), and `SparseLu::solve_flops` is `2·nnz(L+U)` — so
//! [`crate::telemetry::SolverCounters::est_flops`] reflects real sparse
//! work, directly comparable against the dense cost model.

use crate::error::PdnError;
use crate::linalg::Scalar;
use crate::mna::{StampTarget, SystemPattern};
use std::sync::Arc;

/// Relative threshold for threshold pivoting: a candidate pivot must be
/// at least this fraction of the largest magnitude in its column. The
/// classic `0.1` trades a little growth-factor headroom for much more
/// freedom to pick sparsity-preserving (Markowitz-minimal) pivots.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Absolute magnitude below which a pivot is treated as numerically
/// zero — the same cutoff the dense LU uses.
const PIVOT_MIN: f64 = 1e-300;

/// A square sparse matrix in CSR form: numeric values laid over a
/// shared symbolic [`SystemPattern`].
///
/// Assembled via the [`StampTarget`] trait so the exact stamping code
/// that fills the dense fast path also fills this one. Stamps landing
/// outside the pattern are counted (never silently dropped);
/// [`SparseLu::factor`] refuses a matrix with such strays.
#[derive(Debug, Clone)]
pub(crate) struct CsrMatrix<T> {
    pattern: Arc<SystemPattern>,
    values: Vec<T>,
    missing: usize,
}

impl<T: Scalar> CsrMatrix<T> {
    /// An all-zero matrix over `pattern`.
    pub fn zeros(pattern: Arc<SystemPattern>) -> Self {
        let nnz = pattern.nnz();
        CsrMatrix {
            pattern,
            values: vec![T::ZERO; nnz],
            missing: 0,
        }
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.pattern.size()
    }

    /// Number of stamps that fell outside the pattern (should be zero
    /// whenever the pattern was built from the same stamping sequence).
    pub(crate) fn missing_stamps(&self) -> usize {
        self.missing
    }

    /// Matrix-vector product `y = A x`, the sparse analogue of
    /// [`crate::linalg::Matrix::mul_vec`]. Used by the reduced-order
    /// model to project the descriptor matrices onto a Krylov basis.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::DimensionMismatch`] when `x.len()` differs
    /// from the matrix dimension.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, PdnError> {
        let n = self.dim();
        if x.len() != n {
            return Err(PdnError::DimensionMismatch {
                expected: n,
                actual: x.len(),
            });
        }
        let mut y = vec![T::ZERO; n];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for (c, v) in self.row(r) {
                acc = acc + v * x[c];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// One row as `(col, value)` pairs, sorted by column.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let cols = self.pattern.row_cols(r);
        let base = self.pattern.index_of(r, *cols.first().unwrap_or(&0));
        let start = base.unwrap_or(0);
        cols.iter()
            .enumerate()
            .map(move |(i, &c)| (c, self.values[start + i]))
    }
}

impl<T: Scalar> StampTarget<T> for CsrMatrix<T> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: T) {
        match self.pattern.index_of(r, c) {
            Some(i) => self.values[i] = self.values[i] + value,
            None => self.missing += 1,
        }
    }
}

/// The pivot sequence of a sparse LU factorization: at elimination step
/// `k`, row `rows[k]` was chosen as pivot row and column `cols[k]` as
/// pivot column.
///
/// For a fixed sparsity pattern, replaying this order skips the
/// Markowitz search entirely and produces identical fill structure —
/// the "symbolic factorization reuse" the transient factor cache
/// depends on. The numeric threshold check still runs; if a reused
/// pivot has gone numerically bad, [`SparseLu::refactor`] fails and the
/// caller falls back to a fresh [`SparseLu::factor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EliminationOrder {
    rows: Vec<usize>,
    cols: Vec<usize>,
}

/// Sparse LU factors of a [`CsrMatrix`], reusable across right-hand
/// sides just like the dense [`crate::linalg::LuFactors`].
#[derive(Debug, Clone)]
pub(crate) struct SparseLu<T> {
    n: usize,
    /// Pivot row chosen at step `k` (original row index).
    row_of: Vec<usize>,
    /// Pivot column chosen at step `k` (original column index).
    col_of: Vec<usize>,
    /// Off-pivot entries of U's `k`-th row, original column ids.
    u_rows: Vec<Vec<(usize, T)>>,
    /// Pivot (diagonal of U) at step `k`.
    u_diag: Vec<T>,
    /// Multipliers eliminated at step `k`: `(original row, L value)`.
    l_cols: Vec<Vec<(usize, T)>>,
    factor_flops: u64,
    nnz_factors: u64,
}

impl<T: Scalar> SparseLu<T> {
    /// Factors `a` with Markowitz pivot selection under threshold
    /// pivoting, discovering a fresh [`EliminationOrder`].
    ///
    /// # Errors
    ///
    /// [`PdnError::SingularMatrix`] when no acceptable pivot exists at
    /// some step; [`PdnError::DimensionMismatch`] when `a` recorded
    /// stamps outside its pattern.
    pub fn factor(a: &CsrMatrix<T>) -> Result<SparseLu<T>, PdnError> {
        Self::factorize(a, None)
    }

    /// Re-factors a matrix with the **same pattern** using a previously
    /// discovered pivot order, skipping the Markowitz search.
    ///
    /// # Errors
    ///
    /// [`PdnError::SingularMatrix`] when a reused pivot is numerically
    /// unacceptable for the new values (callers fall back to
    /// [`SparseLu::factor`]); [`PdnError::DimensionMismatch`] on size
    /// or stray-stamp mismatch.
    pub fn refactor(a: &CsrMatrix<T>, order: &EliminationOrder) -> Result<SparseLu<T>, PdnError> {
        if order.rows.len() != a.dim() {
            return Err(PdnError::DimensionMismatch {
                expected: a.dim(),
                actual: order.rows.len(),
            });
        }
        Self::factorize(a, Some(order))
    }

    fn factorize(a: &CsrMatrix<T>, fixed: Option<&EliminationOrder>) -> Result<Self, PdnError> {
        if a.missing_stamps() > 0 {
            return Err(PdnError::DimensionMismatch {
                expected: 0,
                actual: a.missing_stamps(),
            });
        }
        let n = a.dim();
        let mut rows: Vec<Vec<(usize, T)>> = (0..n).map(|r| a.row(r).collect()).collect();
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        let mut lu = SparseLu {
            n,
            row_of: Vec::with_capacity(n),
            col_of: Vec::with_capacity(n),
            u_rows: Vec::with_capacity(n),
            u_diag: Vec::with_capacity(n),
            l_cols: Vec::with_capacity(n),
            factor_flops: 0,
            nnz_factors: 0,
        };
        let mut merge_buf: Vec<(usize, T)> = Vec::new();

        for k in 0..n {
            let (pr, pc) = match fixed {
                Some(order) => {
                    let (r, c) = (order.rows[k], order.cols[k]);
                    if r >= n || c >= n || !row_active[r] || !col_active[c] {
                        return Err(PdnError::SingularMatrix { column: k });
                    }
                    (r, c)
                }
                None => select_pivot(&rows, &row_active, k)?,
            };

            // Extract the pivot row, splitting off the diagonal.
            let prow = std::mem::take(&mut rows[pr]);
            row_active[pr] = false;
            col_active[pc] = false;
            let mut diag = T::ZERO;
            let mut found = false;
            let mut urow = Vec::with_capacity(prow.len().saturating_sub(1));
            for (c, v) in prow {
                if c == pc {
                    diag = v;
                    found = true;
                } else {
                    urow.push((c, v));
                }
            }
            let dmag = diag.magnitude();
            if !(found && dmag.is_finite() && dmag > PIVOT_MIN) {
                return Err(PdnError::SingularMatrix { column: k });
            }

            // Eliminate the pivot column from every remaining row.
            let mut lcol = Vec::new();
            for (r, row) in rows.iter_mut().enumerate() {
                if !row_active[r] {
                    continue;
                }
                let Ok(pos) = row.binary_search_by(|&(c, _)| c.cmp(&pc)) else {
                    continue;
                };
                let m = row[pos].1 / diag;
                lu.factor_flops += 1; // the division
                row.remove(pos);
                merge_sub(row, m, &urow, &mut merge_buf);
                lu.factor_flops += 2 * urow.len() as u64;
                lcol.push((r, m));
            }

            lu.nnz_factors += 1 + urow.len() as u64 + lcol.len() as u64;
            lu.row_of.push(pr);
            lu.col_of.push(pc);
            lu.u_diag.push(diag);
            lu.u_rows.push(urow);
            lu.l_cols.push(lcol);
        }
        Ok(lu)
    }

    /// The pivot order this factorization used (fresh or replayed),
    /// for reuse via [`SparseLu::refactor`].
    pub fn order(&self) -> EliminationOrder {
        EliminationOrder {
            rows: self.row_of.clone(),
            cols: self.col_of.clone(),
        }
    }

    /// Floating-point operations this factorization actually performed
    /// (multiply-adds counted as two, divisions as one; fill-in
    /// included). The sparse analogue of
    /// [`crate::linalg::Matrix::lu_flops`], but measured, not modeled.
    pub(crate) fn factor_flops(&self) -> u64 {
        self.factor_flops
    }

    /// Floating-point operations of one solve: `2·nnz(L+U)` — the
    /// nnz-aware analogue of [`crate::linalg::LuFactors::solve_flops`].
    pub(crate) fn solve_flops(&self) -> u64 {
        2 * self.nnz_factors
    }

    /// Solves `A x = b` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// [`PdnError::DimensionMismatch`] on size mismatch.
    pub(crate) fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), PdnError> {
        if b.len() != self.n || x.len() != self.n {
            return Err(PdnError::DimensionMismatch {
                expected: self.n,
                actual: b.len().min(x.len()),
            });
        }
        // Forward pass: replay the eliminations on the RHS. After step
        // k, w[row_of[k]] holds y_k and is never touched again (its row
        // went inactive), so `w` doubles as the y vector.
        let mut w = b.to_vec();
        for k in 0..self.n {
            let yk = w[self.row_of[k]];
            for &(r, m) in &self.l_cols[k] {
                w[r] = w[r] - m * yk;
            }
        }
        // Backward pass over U in reverse pivot order. Every column id
        // in u_rows[k] is the pivot column of some later step, already
        // solved when step k is reached.
        for k in (0..self.n).rev() {
            let mut acc = w[self.row_of[k]];
            for &(c, u) in &self.u_rows[k] {
                acc = acc - u * x[c];
            }
            x[self.col_of[k]] = acc / self.u_diag[k];
        }
        Ok(())
    }

    /// Solves `A x = b`, allocating the result.
    ///
    /// # Errors
    ///
    /// [`PdnError::DimensionMismatch`] on size mismatch.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, PdnError> {
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A X = B` for `K` lane-interleaved right-hand sides
    /// (`rhs[i][k]` is entry `i` of right-hand side `k`), the sparse
    /// analogue of [`crate::linalg::LuFactors::solve_lanes`].
    ///
    /// Every lane performs exactly the operation sequence of
    /// [`SparseLu::solve_into`], so each lane is bitwise identical to
    /// solving its right-hand side alone. The elimination replay runs
    /// in place in `rhs`, which is left holding scratch values; no
    /// workspace is allocated.
    ///
    /// # Errors
    ///
    /// [`PdnError::DimensionMismatch`] when either buffer's length
    /// differs from the factored dimension.
    pub(crate) fn solve_lanes<const K: usize>(
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
        let w = rhs;
        for step in 0..n {
            let yk = w[self.row_of[step]];
            for &(r, m) in &self.l_cols[step] {
                let wr = &mut w[r];
                for k in 0..K {
                    wr[k] = wr[k] - m * yk[k];
                }
            }
        }
        for step in (0..n).rev() {
            let mut acc = w[self.row_of[step]];
            for &(c, u) in &self.u_rows[step] {
                let xc = &x[c];
                for k in 0..K {
                    acc[k] = acc[k] - u * xc[k];
                }
            }
            let d = self.u_diag[step];
            for a in &mut acc {
                *a = *a / d;
            }
            x[self.col_of[step]] = acc;
        }
        Ok(())
    }
}

/// Markowitz pivot selection under threshold pivoting: among entries
/// with magnitude at least `PIVOT_THRESHOLD`× their column's maximum,
/// pick the one minimizing `(row_count - 1) * (col_count - 1)` (fill
/// bound). Scans run in fixed index order, so selection is
/// deterministic.
fn select_pivot<T: Scalar>(
    rows: &[Vec<(usize, T)>],
    row_active: &[bool],
    step: usize,
) -> Result<(usize, usize), PdnError> {
    let n = rows.len();
    let mut col_count = vec![0usize; n];
    let mut col_max = vec![0f64; n];
    for (r, row) in rows.iter().enumerate() {
        if !row_active[r] {
            continue;
        }
        for &(c, v) in row {
            col_count[c] += 1;
            let mag = v.magnitude();
            if mag.is_finite() && mag > col_max[c] {
                col_max[c] = mag;
            }
        }
    }
    let mut best: Option<(u64, usize, usize)> = None;
    for (r, row) in rows.iter().enumerate() {
        if !row_active[r] {
            continue;
        }
        let rcount = row.len();
        for &(c, v) in row {
            let mag = v.magnitude();
            if !(mag.is_finite() && mag > PIVOT_MIN) {
                continue;
            }
            if mag < PIVOT_THRESHOLD * col_max[c] {
                continue;
            }
            let cost = ((rcount - 1) * (col_count[c] - 1)) as u64;
            if best.is_none_or(|(bc, _, _)| cost < bc) {
                best = Some((cost, r, c));
            }
        }
    }
    best.map(|(_, r, c)| (r, c))
        .ok_or(PdnError::SingularMatrix { column: step })
}

/// `row -= m * sub`, both sides sorted by column; fill-in positions are
/// created as needed and exact cancellations keep explicit zeros so the
/// fill structure is a pure function of pattern and pivot order.
fn merge_sub<T: Scalar>(
    row: &mut Vec<(usize, T)>,
    m: T,
    sub: &[(usize, T)],
    buf: &mut Vec<(usize, T)>,
) {
    buf.clear();
    let mut i = 0;
    let mut j = 0;
    while i < row.len() && j < sub.len() {
        match row[i].0.cmp(&sub[j].0) {
            std::cmp::Ordering::Less => {
                buf.push(row[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                buf.push((sub[j].0, -(m * sub[j].1)));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                buf.push((row[i].0, row[i].1 - m * sub[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    buf.extend_from_slice(&row[i..]);
    for &(c, v) in &sub[j..] {
        buf.push((c, -(m * v)));
    }
    std::mem::swap(row, buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::mna::{MnaSystem, SystemPattern};
    use crate::netlist::{Netlist, NodeId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chip_like_netlist(stages: usize) -> Netlist {
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let mut prev = vdd;
        for i in 0..stages {
            let node = nl.add_node(format!("n{i}"));
            nl.add_series_rl(prev, node, 1e-3 * (i + 1) as f64, 1e-9)
                .unwrap();
            nl.add_capacitor_with_esr(node, NodeId::GROUND, 1e-6, 1e-3)
                .unwrap();
            prev = node;
        }
        nl.add_current_source(prev, NodeId::GROUND).unwrap();
        nl
    }

    fn dense_of(sys: &MnaSystem, h: f64) -> Matrix<f64> {
        let mut m = Matrix::zeros(sys.size(), sys.size());
        sys.stamp_transient(&mut m, h);
        m
    }

    fn sparse_of(sys: &MnaSystem, pattern: &Arc<SystemPattern>, h: f64) -> CsrMatrix<f64> {
        let mut m = CsrMatrix::zeros(pattern.clone());
        sys.stamp_transient(&mut m, h);
        m
    }

    #[test]
    fn sparse_solution_matches_dense() {
        let nl = chip_like_netlist(8);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..20 {
            let h = rng.gen_range(1e-10..1e-7);
            let dense = dense_of(&sys, h);
            let sparse = sparse_of(&sys, &pattern, h);
            let b: Vec<f64> = (0..sys.size()).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let xd = dense.lu().unwrap().solve(&b).unwrap();
            let xs = SparseLu::factor(&sparse).unwrap().solve(&b).unwrap();
            for (d, s) in xd.iter().zip(&xs) {
                assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s}");
            }
        }
    }

    #[test]
    fn refactor_with_reused_order_matches_fresh() {
        let nl = chip_like_netlist(6);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let a1 = sparse_of(&sys, &pattern, 1e-9);
        let lu1 = SparseLu::factor(&a1).unwrap();
        let order = lu1.order();
        // Different values, same pattern: refactor must agree with a
        // fresh factorization of the new matrix.
        let a2 = sparse_of(&sys, &pattern, 7e-9);
        let fresh = SparseLu::factor(&a2).unwrap();
        let reused = SparseLu::refactor(&a2, &order).unwrap();
        let b: Vec<f64> = (0..sys.size()).map(|i| (i as f64) - 3.0).collect();
        let xf = fresh.solve(&b).unwrap();
        let xr = reused.solve(&b).unwrap();
        for (f, r) in xf.iter().zip(&xr) {
            assert!((f - r).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Two nodes joined by a resistor, no path to ground.
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        let b = nl.add_node("b");
        nl.add_resistor(a, b, 1.0).unwrap();
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let m = sparse_of(&sys, &pattern, 1e-9);
        assert!(matches!(
            SparseLu::factor(&m),
            Err(PdnError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn stray_stamp_is_refused_not_dropped() {
        let nl = chip_like_netlist(2);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let mut m = sparse_of(&sys, &pattern, 1e-9);
        let vrow = sys.size() - 1;
        m.add(vrow, vrow, 1.0); // branch-row diagonal: structurally zero
        assert_eq!(m.missing_stamps(), 1);
        assert!(matches!(
            SparseLu::factor(&m),
            Err(PdnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn flop_counts_are_nnz_aware() {
        let nl = chip_like_netlist(10);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let m = sparse_of(&sys, &pattern, 1e-9);
        let dense = dense_of(&sys, 1e-9);
        let lu = SparseLu::factor(&m).unwrap();
        assert!(lu.factor_flops() > 0);
        assert!(lu.solve_flops() == 2 * lu.nnz_factors);
        // A tridiagonal-ish PDN chain factors far cheaper than the
        // dense cost model.
        assert!(
            lu.factor_flops() < dense.lu_flops() / 4,
            "sparse {} vs dense model {}",
            lu.factor_flops(),
            dense.lu_flops()
        );
    }

    #[test]
    fn batched_solve_is_bitwise_identical_to_looped() {
        let nl = chip_like_netlist(9);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let m = sparse_of(&sys, &pattern, 3e-9);
        let lu = SparseLu::factor(&m).unwrap();
        let n = sys.size();
        const K: usize = 4;
        let mut rng = SmallRng::seed_from_u64(0xba7c);
        let columns: Vec<Vec<f64>> = (0..K)
            .map(|_| (0..n).map(|_| rng.gen_range(-8.0..8.0)).collect())
            .collect();
        let mut rhs: Vec<[f64; K]> = (0..n)
            .map(|i| std::array::from_fn(|col| columns[col][i]))
            .collect();
        let mut batched = vec![[0.0; K]; n];
        lu.solve_lanes(&mut rhs, &mut batched).unwrap();
        for (col, column) in columns.iter().enumerate() {
            let single = lu.solve(column).unwrap();
            for i in 0..n {
                assert_eq!(
                    single[i].to_bits(),
                    batched[i][col].to_bits(),
                    "col {col} row {i}"
                );
            }
        }
        // Ragged buffers are rejected.
        let mut x = vec![[0.0; K]; n + 1];
        assert!(lu.solve_lanes(&mut rhs, &mut x).is_err());
        assert!(lu.solve_lanes(&mut rhs[..n - 1], &mut x[..n]).is_err());
    }

    #[test]
    fn mul_vec_matches_dense_product() {
        let nl = chip_like_netlist(5);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let m = sparse_of(&sys, &pattern, 2e-9);
        let dense = dense_of(&sys, 2e-9);
        let x: Vec<f64> = (0..sys.size()).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let ys = m.mul_vec(&x).unwrap();
        let yd = dense.mul_vec(&x);
        for (s, d) in ys.iter().zip(&yd) {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }
        assert!(m.mul_vec(&x[..1]).is_err());
    }

    #[test]
    fn solve_into_rejects_bad_lengths() {
        let nl = chip_like_netlist(2);
        let sys = MnaSystem::new(&nl);
        let pattern = Arc::new(SystemPattern::coupled(&sys));
        let m = sparse_of(&sys, &pattern, 1e-9);
        let lu = SparseLu::factor(&m).unwrap();
        let mut x = vec![0.0; sys.size()];
        assert!(lu.solve_into(&[1.0], &mut x).is_err());
    }
}
