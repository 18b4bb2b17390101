//! The pluggable solve-backend interface: one factorization type over
//! the dense and sparse LU paths, plus the serializable solve
//! specification ([`SolveSpec`]) callers use to pick a backend and
//! optionally a reduced-order macromodel ([`RomSpec`]).
//!
//! Historically every analysis that needed "factor once, solve many"
//! carried its own private dense-or-sparse enum (the transient solver's
//! factor cache, the AC analyzer's per-frequency matrix). This module
//! hoists that shape into a first-class [`Factorization`] so the
//! batched multi-RHS path, the AC sweep, the transient step loop, and
//! the ROM calibration all share one solve surface — and one set of
//! flop/telemetry conventions.
//!
//! Two invariants the rest of the workspace leans on:
//!
//! - **Batching never changes bits.** [`Factorization::solve_lanes`]
//!   solves up to [`crate::transient::MAX_LANES`] right-hand sides in
//!   lockstep lanes, each lane performing exactly the single-RHS
//!   operation order, so an AC sweep routed through the batch path and
//!   a transient job advanced as one lane of a group
//!   ([`crate::transient::TransientSolver::run_lanes`]) both produce
//!   byte-identical figures.
//! - **The spec is content.** [`SolveSpec`] (backend choice + ROM error
//!   budget) serializes and feeds the system layer's content keys: a
//!   result computed under a different spec is a different result.

use crate::error::PdnError;
use crate::linalg::{LuFactors, Scalar};
use crate::mna::SolverBackend;
use crate::sparse::SparseLu;
use serde::{Deserialize, Serialize};

/// LU factors from either backend, reusable across many right-hand
/// sides. The common currency of the solve path: the transient factor
/// cache stores these, the AC analyzer factors one per frequency, and
/// the batched sweep solves whole RHS blocks against one.
#[derive(Debug, Clone)]
pub enum Factorization<T> {
    /// Dense partial-pivoting LU ([`crate::linalg::LuFactors`]).
    Dense(LuFactors<T>),
    /// Sparse Markowitz LU ([`crate::sparse::SparseLu`]).
    Sparse(SparseLu<T>),
}

impl<T: Scalar> Factorization<T> {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            Factorization::Dense(f) => f.dim(),
            Factorization::Sparse(f) => f.dim(),
        }
    }

    /// Whether these factors came from the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Factorization::Sparse(_))
    }

    /// Estimated floating-point operations of one back-substitution:
    /// the dense `2n²` model or the sparse `2·nnz(L+U)` measurement
    /// (see [`crate::telemetry::SolverCounters::est_flops`]).
    pub fn solve_flops(&self) -> u64 {
        match self {
            Factorization::Dense(f) => f.solve_flops(),
            Factorization::Sparse(f) => f.solve_flops(),
        }
    }

    /// Solves `A x = b` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// [`PdnError::DimensionMismatch`] on size mismatch.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), PdnError> {
        match self {
            Factorization::Dense(f) => f.solve_into(b, x),
            Factorization::Sparse(f) => f.solve_into(b, x),
        }
    }

    /// Solves `K` lane-interleaved right-hand sides against these
    /// factors (`rhs[i][k]` is entry `i` of right-hand side `k`), each
    /// lane bitwise identical to [`Factorization::solve_into`] — see
    /// [`crate::linalg::LuFactors::solve_lanes`] and
    /// [`crate::sparse::SparseLu::solve_lanes`]. `rhs` is scratch
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`PdnError::DimensionMismatch`] when a buffer's length differs
    /// from the factored dimension.
    pub fn solve_lanes<const K: usize>(
        &self,
        rhs: &mut [[T; K]],
        x: &mut [[T; K]],
    ) -> Result<(), PdnError> {
        match self {
            Factorization::Dense(f) => f.solve_lanes(rhs, x),
            Factorization::Sparse(f) => f.solve_lanes(rhs, x),
        }
    }
}

/// Configuration of a reduced-order PDN macromodel: a single-input
/// Krylov (moment-matching) projection of the drawer's descriptor
/// system onto a handful of states, accurate near the expansion
/// frequency and validated against the full solver before use.
///
/// The budget is **empirical, not a priori**: the ROM is calibrated by
/// running both models over a short prefix window and growing the
/// reduced order until the worst-case probe-voltage discrepancy fits
/// inside `budget_v` (or [`PdnError::RomBudget`] fires). Every field
/// participates in content keys — two runs with different budgets are
/// different computations even when their outputs agree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RomSpec {
    /// Worst-case probe-voltage error budget (volts) versus the full
    /// solver over the calibration window.
    pub budget_v: f64,
    /// Hard cap on the reduced order (Krylov vectors / states).
    pub max_states: usize,
    /// Expansion frequency (hertz) for the moment-matching shift
    /// `s₀ = 2π·expansion_hz`; pick it near the resonance band that
    /// matters (the drawer's low-megahertz spine modes).
    pub expansion_hz: f64,
    /// Length (seconds) of the full-solver prefix run the ROM is
    /// calibrated against. Must cover the fastest transient of
    /// interest; a few microseconds for drawer steps.
    pub calib_window_s: f64,
    /// Coarse-step dilation: the ROM integrates the post-edge tail with
    /// `dilation ×` the full solver's coarse step (its few smooth modes
    /// tolerate larger steps; edge refinement still runs at full rate).
    pub dilation: u32,
}

impl Default for RomSpec {
    fn default() -> Self {
        RomSpec {
            budget_v: 1e-3,
            max_states: 16,
            expansion_hz: 2e6,
            calib_window_s: 2e-6,
            dilation: 6,
        }
    }
}

/// Full solve specification: which factorization backend, and whether a
/// reduced-order macromodel may stand in for the full-order transient.
///
/// `rom: None` (the default) always runs the full-order solver — the
/// byte-identity baseline every figure is pinned to. Paths that do not
/// support model reduction (chip-scale noise runs, AC sweeps) ignore
/// `rom` and document that they do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SolveSpec {
    /// Dense/sparse/auto backend selection.
    pub backend: SolverBackend,
    /// Optional reduced-order macromodel for long transients.
    pub rom: Option<RomSpec>,
}

/// Hand-written deserialization so `rom` defaults to `None` when the
/// field is absent — configuration JSON written before the ROM existed
/// must keep parsing (the vendored serde derive has no
/// `#[serde(default)]`).
impl Deserialize for SolveSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for SolveSpec"))?;
        let rom = match obj.iter().find(|(k, _)| k == "rom") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None => None,
        };
        Ok(SolveSpec {
            backend: serde::field(obj, "backend")?,
            rom,
        })
    }
}

impl SolveSpec {
    /// The full-order default spec (auto backend, no ROM).
    pub fn full() -> Self {
        SolveSpec::default()
    }

    /// A spec requesting the reduced-order macromodel with the given
    /// configuration (auto backend for everything the ROM does not
    /// cover).
    pub fn reduced(rom: RomSpec) -> Self {
        SolveSpec {
            backend: SolverBackend::Auto,
            rom: Some(rom),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    #[test]
    fn spec_defaults_are_full_order_auto() {
        let spec = SolveSpec::default();
        assert_eq!(spec.backend, SolverBackend::Auto);
        assert!(spec.rom.is_none());
        assert_eq!(spec, SolveSpec::full());
        let reduced = SolveSpec::reduced(RomSpec::default());
        assert!(reduced.rom.is_some());
    }

    #[test]
    fn spec_round_trips_through_json_and_old_json_parses() {
        let spec = SolveSpec::reduced(RomSpec {
            budget_v: 2e-3,
            ..RomSpec::default()
        });
        let json = serde_json::to_string(&spec).unwrap();
        let back: SolveSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // A bare backend (pre-ROM JSON) still parses: `rom` defaults.
        let legacy: SolveSpec = serde_json::from_str(r#"{"backend":"Sparse"}"#).unwrap();
        assert_eq!(legacy.backend, SolverBackend::Sparse);
        assert!(legacy.rom.is_none());
    }

    #[test]
    fn factorization_dispatches_both_backends() {
        let dense = Matrix::<f64>::identity(3).lu().unwrap();
        let f = Factorization::Dense(dense);
        assert!(!f.is_sparse());
        assert_eq!(f.dim(), 3);
        assert_eq!(f.solve_flops(), 18);
        let mut x = vec![0.0; 3];
        f.solve_into(&[1.0, 2.0, 3.0], &mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
        let mut xb = [[0.0; 2]; 3];
        f.solve_lanes(&mut [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]], &mut xb)
            .unwrap();
        assert_eq!(xb, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]);
    }
}
