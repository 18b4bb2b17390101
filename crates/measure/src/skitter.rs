//! Skitter macro model: on-chip voltage-noise sensing.
//!
//! The zEC12 skitter macros are latched tapped delay lines of 129
//! inverters that capture clock-edge positions every cycle; supply droop
//! slows the inverters, moving the captured edge, so the sticky-mode
//! min/max edge positions measure worst-case noise as a percent
//! peak-to-peak (%p2p) of the line (paper §III, \[13\]\[42\]).
//!
//! The model maps instantaneous supply voltage to an edge position via an
//! overdrive power law (inverter delay ∝ (V − V_th)^−β), quantizes to tap
//! granularity — producing the step structure of the paper's Fig. 7a —
//! and saturates at the ends of the line, matching the reduced linearity
//! the paper notes at high noise.

use serde::{Deserialize, Serialize};

/// Configuration of one skitter macro.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkitterConfig {
    /// Taps in the delay line (the hardware uses 129).
    pub taps: u32,
    /// Edge position (taps) observed at exactly nominal voltage.
    pub nominal_position: f64,
    /// Effective inverter threshold voltage in volts.
    pub vth: f64,
    /// Overdrive sensitivity exponent β.
    pub beta: f64,
    /// Nominal supply voltage in volts.
    pub v_nom: f64,
    /// Baseline clock-jitter spread in taps, present even on a quiet rail.
    pub baseline_jitter_taps: f64,
    /// Process-variation multiplier on sensitivity (1.0 = typical).
    pub sensitivity_variation: f64,
}

impl Default for SkitterConfig {
    fn default() -> Self {
        SkitterConfig {
            taps: 129,
            nominal_position: 90.0,
            vth: 0.60,
            beta: 3.0,
            v_nom: 1.05,
            baseline_jitter_taps: 3.0,
            sensitivity_variation: 1.0,
        }
    }
}

/// A skitter macro instance.
///
/// # Examples
///
/// ```
/// use voltnoise_measure::skitter::{Skitter, SkitterConfig};
///
/// let sk = Skitter::new(SkitterConfig::default());
/// // A quiet rail reads only the baseline jitter.
/// let quiet = sk.measure([1.05f64; 100].iter().copied());
/// assert!(quiet.pct_p2p() < 4.0);
/// // An 80 mV peak-to-peak swing reads tens of %p2p.
/// let noisy = sk.measure((0..100).map(|i| 1.05 + 0.04 * ((i as f64) * 0.3).sin()));
/// assert!(noisy.pct_p2p() > quiet.pct_p2p() + 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Skitter {
    config: SkitterConfig,
}

impl Skitter {
    /// Creates a skitter from its configuration.
    pub fn new(config: SkitterConfig) -> Self {
        Skitter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SkitterConfig {
        &self.config
    }

    /// Continuous edge position (taps) at supply voltage `v`.
    ///
    /// Below the threshold voltage the line stops toggling; the position
    /// pins to zero.
    pub(crate) fn edge_position(&self, v: f64) -> f64 {
        let c = &self.config;
        let od = (v - c.vth).max(0.0);
        let od_nom = c.v_nom - c.vth;
        let ratio = (od / od_nom).powf(c.beta * c.sensitivity_variation);
        (c.nominal_position * ratio).clamp(0.0, c.taps as f64)
    }

    /// Sticky-mode measurement over a stream of voltage samples: records
    /// every latch position an edge lands in and reports the spread.
    ///
    /// Returns the baseline-only reading when the iterator is empty.
    pub fn measure(&self, samples: impl IntoIterator<Item = f64>) -> SkitterReading {
        let mut min_pos = f64::INFINITY;
        let mut max_pos = f64::NEG_INFINITY;
        let mut count = 0usize;
        for v in samples {
            let p = self.edge_position(v);
            min_pos = min_pos.min(p);
            max_pos = max_pos.max(p);
            count += 1;
        }
        if count == 0 {
            min_pos = self.config.nominal_position;
            max_pos = self.config.nominal_position;
        }
        // Baseline clock jitter widens the sticky window symmetrically.
        let half_jitter = self.config.baseline_jitter_taps / 2.0;
        let lo = (min_pos - half_jitter).clamp(0.0, self.config.taps as f64);
        let hi = (max_pos + half_jitter).clamp(0.0, self.config.taps as f64);
        SkitterReading {
            min_tap: lo.floor() as u32,
            max_tap: hi.ceil() as u32,
            taps: self.config.taps,
            samples: count,
        }
    }

    /// Sticky measurement from a min/max voltage pair (used when the
    /// simulator reports extrema instead of full traces).
    pub fn measure_extremes(&self, v_min: f64, v_max: f64) -> SkitterReading {
        self.measure([v_min, v_max])
    }
}

/// Result of a sticky-mode skitter measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkitterReading {
    /// Lowest latch that captured an edge.
    pub min_tap: u32,
    /// Highest latch that captured an edge.
    pub max_tap: u32,
    /// Length of the delay line.
    pub taps: u32,
    /// Number of voltage samples observed.
    pub samples: usize,
}

impl SkitterReading {
    /// Percent peak-to-peak variation — the paper's %p2p metric. Higher
    /// %p2p means larger voltage droop.
    pub fn pct_p2p(&self) -> f64 {
        (self.max_tap.saturating_sub(self.min_tap)) as f64 / self.taps as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sk() -> Skitter {
        Skitter::new(SkitterConfig::default())
    }

    #[test]
    fn nominal_voltage_reads_nominal_position() {
        let s = sk();
        assert!((s.edge_position(1.05) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn position_is_monotonic_in_voltage() {
        let s = sk();
        let mut prev = 0.0;
        for k in 0..60 {
            let v = 0.7 + 0.01 * k as f64;
            let p = s.edge_position(v);
            assert!(p >= prev, "non-monotonic at v={v}");
            prev = p;
        }
    }

    #[test]
    fn position_saturates_at_line_ends() {
        let s = sk();
        assert_eq!(s.edge_position(2.0), 129.0);
        assert_eq!(s.edge_position(0.3), 0.0);
    }

    #[test]
    fn deeper_droop_reads_higher_p2p() {
        let s = sk();
        let small = s.measure_extremes(1.03, 1.06).pct_p2p();
        let big = s.measure_extremes(0.99, 1.09).pct_p2p();
        assert!(big > small + 5.0, "big {big} small {small}");
    }

    #[test]
    fn p2p_response_saturates_at_high_noise() {
        // The paper notes "the linearity between Vnoise and skitter
        // measurements diminishes" in the high-noise region.
        let s = sk();
        let gain_low = s.measure_extremes(1.05 - 0.02, 1.05 + 0.02).pct_p2p() / 0.04;
        let gain_high = s.measure_extremes(1.05 - 0.12, 1.05 + 0.12).pct_p2p() / 0.24;
        assert!(
            gain_high < gain_low,
            "expected compression: low {gain_low}, high {gain_high}"
        );
    }

    #[test]
    fn variation_increases_reading() {
        let cfg = SkitterConfig {
            sensitivity_variation: 1.2,
            ..SkitterConfig::default()
        };
        let fast = Skitter::new(cfg);
        let typ = sk();
        let v_lo = 1.00;
        let v_hi = 1.09;
        assert!(
            fast.measure_extremes(v_lo, v_hi).pct_p2p()
                > typ.measure_extremes(v_lo, v_hi).pct_p2p()
        );
    }

    #[test]
    fn empty_sample_stream_reads_baseline() {
        let r = sk().measure(std::iter::empty());
        assert!(r.pct_p2p() <= 4.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn calibration_anchor_points() {
        // Anchors used by the system-level calibration: an ~85 mV p2p swing
        // around the loaded operating point reads about 40 %p2p, and a
        // ~130 mV swing reads near 60 %p2p (paper Figs. 7a / 9 scales).
        let s = sk();
        let mid = 1.045;
        let read = |p2p: f64| {
            s.measure_extremes(mid - p2p / 2.0, mid + p2p / 2.0)
                .pct_p2p()
        };
        let r85 = read(0.085);
        let r130 = read(0.130);
        assert!((35.0..48.0).contains(&r85), "85 mV reads {r85}");
        assert!((53.0..68.0).contains(&r130), "130 mV reads {r130}");
    }
}
