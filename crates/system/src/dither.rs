//! Probabilistic (dithering) thread alignment — the AUDIT-style
//! alternative the paper contrasts with its deterministic TOD mechanism.
//!
//! Prior work (Kim et al. \[26\] in the paper) aligns the ΔI events of
//! multiple cores *probabilistically*: each core re-enters its loop with
//! a random offset every interval, so within enough intervals some
//! interval eventually has all cores (nearly) aligned. The paper's
//! contribution is a **deterministic** mechanism: TOD sync guarantees
//! cycle-accurate alignment in the *first* interval and, crucially, also
//! permits *controlled misalignment* (Fig. 10), which dithering cannot
//! express.
//!
//! This module quantifies the difference: the expected number of
//! intervals a dithering approach needs before all cores coincide, vs
//! one interval for TOD sync.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Outcome of a dithering-alignment simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DitherOutcome {
    /// Cores participating.
    pub cores: usize,
    /// Dither window in alignment slots (e.g. 62.5 ns ticks).
    pub window_slots: u64,
    /// Intervals simulated.
    pub intervals: u64,
    /// Largest number of cores that coincided in any single interval.
    pub best_aligned_cores: usize,
    /// First interval (1-based) at which *all* cores coincided, if any.
    pub full_alignment_at: Option<u64>,
    /// Fraction of intervals with at least half the cores aligned.
    pub half_aligned_fraction: f64,
}

/// Simulates `intervals` rounds of random per-core offsets in a window of
/// `window_slots` alignment slots and reports coincidence quality.
///
/// # Panics
///
/// Panics if `cores == 0` or `window_slots == 0`.
pub fn simulate_dither(
    cores: usize,
    window_slots: u64,
    intervals: u64,
    seed: u64,
) -> DitherOutcome {
    assert!(cores > 0, "need at least one core");
    assert!(window_slots > 0, "window must have at least one slot");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = 0usize;
    let mut full_at = None;
    let mut half_hits = 0u64;
    let half = cores.div_ceil(2);
    let mut counts = vec![0u32; window_slots as usize];
    for k in 0..intervals {
        counts.fill(0);
        for _ in 0..cores {
            let slot = rng.gen_range(0..window_slots) as usize;
            counts[slot] += 1;
        }
        let max_here = counts.iter().copied().max().unwrap_or(0) as usize;
        best = best.max(max_here);
        if max_here >= half {
            half_hits += 1;
        }
        if max_here == cores && full_at.is_none() {
            full_at = Some(k + 1);
        }
    }
    DitherOutcome {
        cores,
        window_slots,
        intervals,
        best_aligned_cores: best,
        full_alignment_at: full_at,
        half_aligned_fraction: half_hits as f64 / intervals.max(1) as f64,
    }
}

/// Probability that all `cores` land in the same slot in one interval.
pub(crate) fn full_alignment_probability(cores: usize, window_slots: u64) -> f64 {
    (1.0 / window_slots as f64).powi(cores as i32 - 1)
}

/// Expected intervals until the first fully aligned interval (geometric
/// distribution), or `f64::INFINITY` for a degenerate window.
pub(crate) fn expected_intervals_to_alignment(cores: usize, window_slots: u64) -> f64 {
    let p = full_alignment_probability(cores, window_slots);
    if p <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / p
    }
}

/// Side-by-side comparison of the two alignment mechanisms for a
/// characterization campaign of `intervals` sync intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignmentComparison {
    /// Cores aligned by the deterministic TOD mechanism (always all, in
    /// the first interval).
    pub tod_aligned_cores: usize,
    /// Expected intervals for the dithering mechanism to reach full
    /// alignment once.
    pub dither_expected_intervals: f64,
    /// Measured dithering outcome for the same budget.
    pub dither_outcome: DitherOutcome,
}

impl AlignmentComparison {
    /// Runs the comparison.
    ///
    /// # Panics
    ///
    /// Panics on zero cores or an empty window.
    pub fn run(cores: usize, window_slots: u64, intervals: u64, seed: u64) -> Self {
        AlignmentComparison {
            tod_aligned_cores: cores,
            dither_expected_intervals: expected_intervals_to_alignment(cores, window_slots),
            dither_outcome: simulate_dither(cores, window_slots, intervals, seed),
        }
    }

    /// Renders a short report.
    pub fn render(&self) -> String {
        format!(
            "# deterministic TOD sync vs probabilistic (dithering) alignment\n\
             TOD: all {} cores cycle-aligned in interval 1 (and misalignment is controllable)\n\
             dithering over {} slots: expected {:.0} intervals to full alignment;\n\
             measured over {} intervals: best {} of {} cores aligned, full alignment {}\n",
            self.tod_aligned_cores,
            self.dither_outcome.window_slots,
            self.dither_expected_intervals,
            self.dither_outcome.intervals,
            self.dither_outcome.best_aligned_cores,
            self.dither_outcome.cores,
            match self.dither_outcome.full_alignment_at {
                Some(k) => format!("first at interval {k}"),
                None => "never reached".to_string(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_window_always_aligns() {
        let out = simulate_dither(6, 1, 10, 1);
        assert_eq!(out.best_aligned_cores, 6);
        assert_eq!(out.full_alignment_at, Some(1));
        assert_eq!(full_alignment_probability(6, 1), 1.0);
    }

    #[test]
    fn wide_window_rarely_aligns_six_cores() {
        // 16 slots, 6 cores: p = 16^-5 ~ 1e-6 per interval.
        let out = simulate_dither(6, 16, 2_000, 7);
        assert!(out.full_alignment_at.is_none(), "{out:?}");
        assert!(out.best_aligned_cores < 6);
        assert!(expected_intervals_to_alignment(6, 16) > 1e6);
    }

    #[test]
    fn narrow_window_aligns_quickly() {
        let out = simulate_dither(3, 2, 500, 3);
        // p = 1/4 per interval: full alignment well within 500 rounds.
        let at = out.full_alignment_at.expect("should align");
        assert!(at < 60, "aligned at {at}");
    }

    #[test]
    fn expected_intervals_match_simulation_order_of_magnitude() {
        let cores = 4;
        let window = 4;
        let expected = expected_intervals_to_alignment(cores, window); // 64
        let mut firsts = Vec::new();
        for seed in 0..40 {
            if let Some(k) = simulate_dither(cores, window, 4_000, seed).full_alignment_at {
                firsts.push(k as f64);
            }
        }
        assert!(firsts.len() >= 35, "most runs should align");
        let mean = firsts.iter().sum::<f64>() / firsts.len() as f64;
        assert!(
            mean > expected / 3.0 && mean < expected * 3.0,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn comparison_favors_deterministic_sync() {
        let cmp = AlignmentComparison::run(6, 8, 1_000, 11);
        assert_eq!(cmp.tod_aligned_cores, 6);
        assert!(cmp.dither_expected_intervals > 1_000.0);
        assert!(cmp.render().contains("TOD"));
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let a = simulate_dither(5, 6, 300, 9);
        let b = simulate_dither(5, 6, 300, 9);
        assert_eq!(a, b);
    }
}
