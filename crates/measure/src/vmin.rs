//! Vmin experiments: undervolting to first failure.
//!
//! The paper's "ultimate bullet-proof method to check the available
//! voltage margin" (§III): lower the operating voltage in 0.5 % steps
//! (one step every two minutes, with a reboot after failure) until the
//! R-Unit detects the first error. This module provides the critical-path
//! timing-failure model, the R-Unit detector, and the stepping harness;
//! the caller supplies the closure that simulates a run at a given bias.

use serde::{Deserialize, Serialize};

/// Critical-path timing model: path delay grows as overdrive shrinks, and
/// a cycle fails when the instantaneous supply can no longer close timing
/// within the clock period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Path delay at nominal voltage, as a fraction of the clock period
    /// (e.g. 0.75 = 25 % timing slack at nominal).
    pub nominal_delay_fraction: f64,
    /// Effective threshold voltage of the path devices.
    pub vth: f64,
    /// Delay-vs-overdrive exponent.
    pub beta: f64,
    /// Nominal supply voltage.
    pub v_nom: f64,
}

impl Default for CriticalPath {
    fn default() -> Self {
        CriticalPath {
            nominal_delay_fraction: 0.75,
            vth: 0.60,
            beta: 1.2,
            v_nom: 1.05,
        }
    }
}

impl CriticalPath {
    /// Path delay at voltage `v`, as a fraction of the clock period.
    pub(crate) fn delay_fraction(&self, v: f64) -> f64 {
        let od = (v - self.vth).max(1e-6);
        let od_nom = self.v_nom - self.vth;
        self.nominal_delay_fraction * (od_nom / od).powf(self.beta)
    }

    /// Lowest voltage at which the path still closes timing.
    pub fn failure_voltage(&self) -> f64 {
        // delay_fraction(v) = 1  =>  od = od_nom * frac^(1/beta)
        let od_nom = self.v_nom - self.vth;
        self.vth + od_nom * self.nominal_delay_fraction.powf(1.0 / self.beta)
    }

    /// True when a supply excursion down to `v_min` violates timing.
    pub fn fails_at(&self, v_min: f64) -> bool {
        self.delay_fraction(v_min) > 1.0
    }
}

/// The recovery unit: detects timing violations and recovers the core
/// (paper §III: "errors are detected using the recovery unit (R-Unit)").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RUnit {
    recoveries: u64,
}

impl RUnit {
    /// Creates an R-Unit with a clear recovery counter.
    pub fn new() -> Self {
        RUnit::default()
    }

    /// Checks one run's minimum observed voltage against the critical
    /// path; records and reports a recovery event on violation.
    pub fn check(&mut self, path: &CriticalPath, v_min: f64) -> bool {
        let failed = path.fails_at(v_min);
        if failed {
            self.recoveries += 1;
        }
        failed
    }
}

/// Configuration of the Vmin stepping harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VminConfig {
    /// Relative voltage step per iteration (the machine steps 0.5 %).
    pub step: f64,
    /// Lowest bias to try before giving up.
    pub floor_bias: f64,
    /// Simulated wall-clock cost per step in seconds (the paper waits two
    /// minutes per step).
    pub seconds_per_step: f64,
    /// Simulated reboot cost after the failing run, in seconds.
    pub reboot_seconds: f64,
}

impl Default for VminConfig {
    fn default() -> Self {
        VminConfig {
            step: 0.005,
            floor_bias: 0.70,
            seconds_per_step: 120.0,
            reboot_seconds: 600.0,
        }
    }
}

/// Result of a Vmin experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VminResult {
    /// Bias (fraction of nominal) at which the first failure occurred;
    /// `None` when no failure happened before the floor.
    pub failing_bias: Option<f64>,
    /// Steps executed.
    pub steps: u32,
    /// Simulated turn-around time in seconds — the cost the paper cites
    /// as the method's drawback.
    pub simulated_seconds: f64,
}

/// Runs a Vmin experiment: starting at nominal, lower the bias step by
/// step and invoke `run_at_bias` (which should simulate the workload at
/// `bias × v_nom` and return `true` on detected failure).
///
/// # Examples
///
/// ```
/// use voltnoise_measure::vmin::{run_vmin, VminConfig};
///
/// // A workload that fails below 97 % of nominal.
/// let result = run_vmin(&VminConfig::default(), |bias| bias < 0.97);
/// let fail = result.failing_bias.unwrap();
/// assert!(fail < 0.97 && fail > 0.96);
/// ```
pub fn run_vmin(cfg: &VminConfig, mut run_at_bias: impl FnMut(f64) -> bool) -> VminResult {
    let mut bias = 1.0;
    let mut steps = 0u32;
    let mut seconds = 0.0;
    loop {
        steps += 1;
        seconds += cfg.seconds_per_step;
        if run_at_bias(bias) {
            seconds += cfg.reboot_seconds;
            return VminResult {
                failing_bias: Some(bias),
                steps,
                simulated_seconds: seconds,
            };
        }
        bias -= cfg.step;
        if bias < cfg.floor_bias {
            return VminResult {
                failing_bias: None,
                steps,
                simulated_seconds: seconds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_as_voltage_drops() {
        let p = CriticalPath::default();
        assert!(p.delay_fraction(1.00) > p.delay_fraction(1.05));
        assert!((p.delay_fraction(1.05) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn failure_voltage_is_consistent_with_fails_at() {
        let p = CriticalPath::default();
        let vf = p.failure_voltage();
        assert!(!p.fails_at(vf + 1e-6));
        assert!(p.fails_at(vf - 1e-6));
        // With 25 % slack, failure sits well below nominal.
        assert!(vf < 1.01 && vf > 0.85, "vf = {vf}");
    }

    #[test]
    fn runit_counts_recoveries() {
        let p = CriticalPath::default();
        let mut r = RUnit::new();
        assert!(!r.check(&p, 1.04));
        assert!(r.check(&p, 0.80));
        assert!(r.check(&p, 0.80));
        assert_eq!(r.recoveries, 2);
    }

    #[test]
    fn vmin_finds_threshold_within_one_step() {
        let cfg = VminConfig::default();
        let res = run_vmin(&cfg, |b| b < 0.93);
        let fail = res.failing_bias.unwrap();
        assert!(
            fail < 0.93 && fail >= 0.93 - cfg.step - 1e-12,
            "fail = {fail}"
        );
    }

    #[test]
    fn vmin_reports_no_failure_at_floor() {
        let res = run_vmin(&VminConfig::default(), |_| false);
        assert_eq!(res.failing_bias, None);
    }

    #[test]
    fn vmin_accumulates_turnaround_time() {
        let cfg = VminConfig::default();
        let res = run_vmin(&cfg, |b| b < 0.99);
        // 3 steps (1.0, 0.995, 0.99... fails at third when bias < 0.99 =>
        // bias 0.99 - epsilon) plus reboot.
        assert!(res.simulated_seconds >= 2.0 * cfg.seconds_per_step + cfg.reboot_seconds);
    }
}
