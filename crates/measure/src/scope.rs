//! Oscilloscope trace capture (paper Fig. 8).

use serde::{Deserialize, Serialize};

/// A captured voltage-vs-time trace.
///
/// # Examples
///
/// ```
/// use voltnoise_measure::scope::ScopeTrace;
///
/// let t = ScopeTrace::new(vec![0.0, 1e-9, 2e-9], vec![1.05, 1.00, 1.05]).unwrap();
/// assert!((t.peak_to_peak() - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeTrace {
    times: Vec<f64>,
    volts: Vec<f64>,
}

/// Error building or slicing a scope trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scope trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

impl ScopeTrace {
    /// Builds a trace from sample times and voltages.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when lengths differ, the trace is empty, or
    /// times are not strictly increasing.
    pub fn new(times: Vec<f64>, volts: Vec<f64>) -> Result<Self, TraceError> {
        if times.len() != volts.len() {
            return Err(TraceError("times and volts lengths differ".into()));
        }
        check_timebase(&times)?;
        Ok(ScopeTrace { times, volts })
    }

    /// Sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample voltages in volts.
    pub fn volts(&self) -> &[f64] {
        &self.volts
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the trace holds no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Minimum voltage.
    pub fn min(&self) -> f64 {
        self.volts.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum voltage.
    pub fn max(&self) -> f64 {
        self.volts.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Peak-to-peak swing.
    pub fn peak_to_peak(&self) -> f64 {
        self.max() - self.min()
    }

    /// Slice of the trace within `[t0, t1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the window contains no samples.
    pub fn window(&self, t0: f64, t1: f64) -> Result<ScopeTrace, TraceError> {
        let start = self.times.partition_point(|&t| t < t0);
        let end = self.times.partition_point(|&t| t < t1);
        if start >= end {
            return Err(TraceError(format!("no samples in [{t0}, {t1})")));
        }
        Ok(ScopeTrace {
            times: self.times[start..end].to_vec(),
            volts: self.volts[start..end].to_vec(),
        })
    }

    /// Extracts one stimulus period starting at the first trough after
    /// `t_from` — the Fig. 8b "single period" shot.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the trace is shorter than a period.
    pub fn single_period(&self, stim_freq_hz: f64, t_from: f64) -> Result<ScopeTrace, TraceError> {
        let period = 1.0 / stim_freq_hz;
        let start_idx = self.times.partition_point(|&t| t < t_from);
        // Find the deepest sample within one period of t_from as anchor.
        let end_search = self.times.partition_point(|&t| t < t_from + period);
        let anchor = (start_idx..end_search)
            .min_by(|&a, &b| self.volts[a].total_cmp(&self.volts[b]))
            .ok_or_else(|| TraceError("window beyond trace".into()))?;
        self.window(self.times[anchor], self.times[anchor] + period)
    }

    /// Estimates the dominant oscillation frequency from mean-crossing
    /// intervals, or `None` when fewer than two crossings exist.
    pub fn dominant_frequency(&self) -> Option<f64> {
        let mean = self.volts.iter().sum::<f64>() / self.volts.len() as f64;
        let mut crossings = Vec::new();
        for i in 1..self.volts.len() {
            if (self.volts[i - 1] - mean) <= 0.0 && (self.volts[i] - mean) > 0.0 {
                crossings.push(self.times[i]);
            }
        }
        if crossings.len() < 2 {
            return None;
        }
        let span = crossings.last().unwrap() - crossings.first().unwrap();
        Some((crossings.len() - 1) as f64 / span)
    }
}

/// Rejects an empty or not strictly increasing timebase.
fn check_timebase(times: &[f64]) -> Result<(), TraceError> {
    if times.is_empty() {
        return Err(TraceError("empty trace".into()));
    }
    if times.windows(2).any(|w| w[0] >= w[1]) {
        return Err(TraceError("times must be strictly increasing".into()));
    }
    Ok(())
}

/// A multi-channel capture: every channel sampled on one timebase, the
/// way an oscilloscope records all its probes.
///
/// # Examples
///
/// ```
/// use voltnoise_measure::scope::ScopeCapture;
///
/// let c = ScopeCapture::new(
///     vec![0.0, 1e-9, 2e-9],
///     vec![vec![1.05, 1.00, 1.05], vec![1.05, 1.04, 1.05]],
/// )
/// .unwrap();
/// assert_eq!(c.num_channels(), 2);
/// assert_eq!(c.channel(1), Some(&[1.05, 1.04, 1.05][..]));
/// assert!((c.trace(0).unwrap().peak_to_peak() - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeCapture {
    times: Vec<f64>,
    channels: Vec<Vec<f64>>,
}

impl ScopeCapture {
    /// Builds a capture from one timebase and the channels sampled on it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the timebase is empty or not strictly
    /// increasing, or a channel's length differs from it.
    pub fn new(times: Vec<f64>, channels: Vec<Vec<f64>>) -> Result<Self, TraceError> {
        check_timebase(&times)?;
        if let Some(i) = channels.iter().position(|c| c.len() != times.len()) {
            return Err(TraceError(format!(
                "channel {i} has {} samples, the timebase {}",
                channels[i].len(),
                times.len()
            )));
        }
        Ok(ScopeCapture { times, channels })
    }

    /// The shared sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Voltages of channel `i`, or `None` past the last channel.
    pub fn channel(&self, i: usize) -> Option<&[f64]> {
        self.channels.get(i).map(Vec::as_slice)
    }

    /// Voltages of every channel, in channel order.
    pub fn channels(&self) -> impl Iterator<Item = &[f64]> {
        self.channels.iter().map(Vec::as_slice)
    }

    /// Channel `i` as a stand-alone trace (a copy), or `None` past the
    /// last channel.
    pub fn trace(&self, i: usize) -> Option<ScopeTrace> {
        Some(ScopeTrace {
            times: self.times.clone(),
            volts: self.channels.get(i)?.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_trace(freq: f64, n: usize, dt: f64) -> ScopeTrace {
        let times: Vec<f64> = (0..n).map(|i| i as f64 * dt).collect();
        let volts: Vec<f64> = times
            .iter()
            .map(|t| 1.05 + 0.05 * (2.0 * std::f64::consts::PI * freq * t).sin())
            .collect();
        ScopeTrace::new(times, volts).unwrap()
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(ScopeTrace::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(ScopeTrace::new(vec![], vec![]).is_err());
        assert!(ScopeTrace::new(vec![0.0, 0.0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn p2p_of_sine_is_twice_amplitude() {
        let t = sine_trace(2e6, 4000, 1e-9);
        assert!((t.peak_to_peak() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn window_slices_by_time() {
        let t = sine_trace(2e6, 1000, 1e-9);
        let w = t.window(100e-9, 200e-9).unwrap();
        assert!(w.len() < t.len());
        assert!(w.times().first().unwrap() >= &100e-9);
        assert!(w.times().last().unwrap() < &200e-9);
        assert!(t.window(2.0, 3.0).is_err());
    }

    #[test]
    fn single_period_starts_at_trough() {
        let t = sine_trace(2e6, 4000, 1e-9);
        let p = t.single_period(2e6, 500e-9).unwrap();
        // A full period spans ~500 ns.
        let span = p.times().last().unwrap() - p.times().first().unwrap();
        assert!((span - 500e-9).abs() < 20e-9, "span = {span}");
        // Starts near the minimum voltage.
        assert!((p.volts()[0] - 1.0).abs() < 5e-3);
    }

    #[test]
    fn dominant_frequency_recovers_sine() {
        let t = sine_trace(2e6, 8000, 1e-9);
        let f = t.dominant_frequency().unwrap();
        assert!((f - 2e6).abs() / 2e6 < 0.02, "f = {f}");
    }

    #[test]
    fn capture_validates_its_timebase_once_for_every_channel() {
        assert!(ScopeCapture::new(vec![], vec![]).is_err());
        assert!(ScopeCapture::new(vec![1e-9, 0.0], vec![vec![1.0, 1.0]]).is_err());
        let short = ScopeCapture::new(vec![0.0, 1e-9], vec![vec![1.0, 1.0], vec![1.0]]);
        assert!(short.unwrap_err().to_string().contains("channel 1"));
        let c = ScopeCapture::new(vec![0.0, 1e-9], vec![vec![1.0, 0.9], vec![1.1, 1.0]]).unwrap();
        assert_eq!(c.channels().count(), 2);
        assert_eq!(c.channel(2), None);
        assert!(c.trace(2).is_none());
        let t = c.trace(1).unwrap();
        assert_eq!(t, ScopeTrace::new(vec![0.0, 1e-9], vec![1.1, 1.0]).unwrap());
    }

    #[test]
    fn dominant_frequency_none_for_flat_trace() {
        let t = ScopeTrace::new(vec![0.0, 1e-9, 2e-9], vec![1.0, 1.0, 1.0]).unwrap();
        assert_eq!(t.dominant_frequency(), None);
    }
}
