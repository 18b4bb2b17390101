//! Solver-level telemetry: exact work counters and optional phase
//! timing.
//!
//! The counters answer "where does solve time go" without perturbing
//! what is solved: they are plain integer tallies of the algebraic work
//! a run performed (accepted steps, LU factorizations, factor-cache
//! hits, back-substitutions), deterministic for a given netlist and
//! configuration, and **never** part of any result content — a cached or
//! store-resumed outcome stays byte-identical whether or not anyone
//! looks at the counters.
//!
//! Phase *timing* ([`PhaseTimes`]) is the opposite: wall-clock and
//! therefore nondeterministic. It is only collected when the caller asks
//! for it ([`crate::transient::TransientConfig::collect_phase_times`],
//! which the system layer's engine sets from its own trace flag), costs
//! two branch checks per step when disabled, and flows into diagnostics
//! only — never into figures.

use serde::{Deserialize, Serialize};

/// Exact work counters of one transient run (or an aggregate of many).
///
/// All fields are deterministic: the same netlist, drive and
/// configuration produce the same counters on every machine. They are
/// *observations about* a solve, not part of its result, so they are
/// excluded from content keys and from [`crate::transient`] output
/// serialization paths that feed caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SolverCounters {
    /// Accepted integration steps.
    pub steps: u64,
    /// DC operating-point solves.
    pub dc_solves: u64,
    /// LU factorizations computed (factor-cache misses, plus DC system
    /// factorizations).
    pub lu_factorizations: u64,
    /// Factor-cache hits: steps that reused an existing factorization.
    pub factor_cache_hits: u64,
    /// Back-substitutions (`solve`/`solve_into` calls).
    pub solve_calls: u64,
    /// Estimated floating-point operations. Dense solves use the dense
    /// cost model ([`crate::linalg::Matrix::lu_flops`] /
    /// [`crate::linalg::LuFactors::solve_flops`]); sparse solves count
    /// nnz-aware actual work ([`crate::sparse::SparseLu::factor_flops`] /
    /// [`crate::sparse::SparseLu::solve_flops`]).
    pub est_flops: u64,
    /// Back-substitutions performed by the sparse backend (a subset of
    /// `solve_calls`; zero whenever the system stayed on the dense fast
    /// path).
    pub sparse_solves: u64,
    /// Sparse refactorizations that reused a previously discovered
    /// elimination order instead of re-running pivot selection.
    pub pattern_reuses: u64,
    /// Right-hand sides solved through the multi-RHS kernel
    /// ([`crate::backend::Factorization::solve_lanes`]) in groups:
    /// every lane-step of a transient lane group of two or more lanes,
    /// and every port of an AC impedance batch (each RHS counts once; a
    /// subset of `solve_calls`). Zero on paths that solve one RHS at a
    /// time.
    pub batched_solves: u64,
    /// Reduced-order-model integration steps (each one a dense solve of
    /// the projected system). Disjoint from `solve_calls`, which counts
    /// full-order back-substitutions only.
    pub rom_solves: u64,
    /// Total reduced states across every reduced-order model built (one
    /// ROM of order `q` contributes `q`). Summed like every other
    /// counter so merging stays associative.
    pub rom_states: u64,
}

/// Hand-written deserialization so the batched/ROM counters default to
/// zero when absent: stats JSON written before those fields existed
/// must keep parsing (the vendored serde derive has no `#[serde
/// (default)]`).
impl Deserialize for SolverCounters {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for SolverCounters"))?;
        let opt = |name: &str| -> Result<u64, serde::Error> {
            match obj.iter().find(|(k, _)| k == name) {
                Some((_, v)) => Deserialize::from_value(v),
                None => Ok(0),
            }
        };
        Ok(SolverCounters {
            steps: serde::field(obj, "steps")?,
            dc_solves: serde::field(obj, "dc_solves")?,
            lu_factorizations: serde::field(obj, "lu_factorizations")?,
            factor_cache_hits: serde::field(obj, "factor_cache_hits")?,
            solve_calls: serde::field(obj, "solve_calls")?,
            est_flops: serde::field(obj, "est_flops")?,
            sparse_solves: serde::field(obj, "sparse_solves")?,
            pattern_reuses: serde::field(obj, "pattern_reuses")?,
            batched_solves: opt("batched_solves")?,
            rom_solves: opt("rom_solves")?,
            rom_states: opt("rom_states")?,
        })
    }
}

impl SolverCounters {
    /// Adds another counter set into this one. Merging is associative
    /// and commutative, so per-run counters can be aggregated in any
    /// order (worker threads included).
    pub fn merge(&mut self, other: &SolverCounters) {
        self.steps += other.steps;
        self.dc_solves += other.dc_solves;
        self.lu_factorizations += other.lu_factorizations;
        self.factor_cache_hits += other.factor_cache_hits;
        self.solve_calls += other.solve_calls;
        self.est_flops += other.est_flops;
        self.sparse_solves += other.sparse_solves;
        self.pattern_reuses += other.pattern_reuses;
        self.batched_solves += other.batched_solves;
        self.rom_solves += other.rom_solves;
        self.rom_states += other.rom_states;
    }

    /// True when every counter is zero (no work recorded).
    pub fn is_zero(&self) -> bool {
        *self == SolverCounters::default()
    }
}

/// Cumulative wall-clock time spent in each solver phase, nanoseconds.
///
/// All zeros unless the producing run had phase timing enabled
/// ([`crate::transient::TransientConfig::collect_phase_times`]).
/// Wall-clock values are nondeterministic; they exist for diagnostics
/// and benchmark reports, never for figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Building the per-step right-hand side (sources + companion
    /// history).
    pub assemble_ns: u64,
    /// LU factorization (cache misses only).
    pub factor_ns: u64,
    /// Back-substitution of the factored system.
    pub step_ns: u64,
    /// Divergence validation and element-state advance.
    pub validate_ns: u64,
}

impl PhaseTimes {
    /// Adds another phase-time set into this one (associative,
    /// commutative).
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.assemble_ns += other.assemble_ns;
        self.factor_ns += other.factor_ns;
        self.step_ns += other.step_ns;
        self.validate_ns += other.validate_ns;
    }

    /// Total time across all phases, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.assemble_ns + self.factor_ns + self.step_ns + self.validate_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_associative_and_total_preserving() {
        let a = SolverCounters {
            steps: 1,
            dc_solves: 2,
            lu_factorizations: 3,
            factor_cache_hits: 4,
            solve_calls: 5,
            est_flops: 6,
            sparse_solves: 7,
            pattern_reuses: 8,
            batched_solves: 9,
            rom_solves: 10,
            rom_states: 11,
        };
        let b = SolverCounters {
            steps: 10,
            dc_solves: 20,
            lu_factorizations: 30,
            factor_cache_hits: 40,
            solve_calls: 50,
            est_flops: 60,
            sparse_solves: 70,
            pattern_reuses: 80,
            batched_solves: 90,
            rom_solves: 100,
            rom_states: 110,
        };
        let c = SolverCounters {
            steps: 100,
            ..SolverCounters::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.steps, 111);
        assert_eq!(ab_c.solve_calls, 55);
        assert_eq!(ab_c.sparse_solves, 77);
        assert_eq!(ab_c.pattern_reuses, 88);
        assert_eq!(ab_c.batched_solves, 99);
        assert_eq!(ab_c.rom_solves, 110);
        assert_eq!(ab_c.rom_states, 121);
    }

    #[test]
    fn counters_json_without_new_fields_still_parses() {
        // Stats JSON written before the batched/ROM counters existed
        // must keep round-tripping: the new fields default to zero.
        let legacy = r#"{"steps":1,"dc_solves":2,"lu_factorizations":3,
            "factor_cache_hits":4,"solve_calls":5,"est_flops":6,
            "sparse_solves":7,"pattern_reuses":8}"#;
        let c: SolverCounters = serde_json::from_str(legacy).unwrap();
        assert_eq!(c.steps, 1);
        assert_eq!(c.batched_solves, 0);
        assert_eq!(c.rom_solves, 0);
        assert_eq!(c.rom_states, 0);
    }

    #[test]
    fn zero_check_and_phase_total() {
        assert!(SolverCounters::default().is_zero());
        let mut p = PhaseTimes::default();
        assert_eq!(p.total_ns(), 0);
        p.merge(&PhaseTimes {
            assemble_ns: 1,
            factor_ns: 2,
            step_ns: 3,
            validate_ns: 4,
        });
        assert_eq!(p.total_ns(), 10);
    }
}
