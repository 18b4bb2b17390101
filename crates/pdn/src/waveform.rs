//! Load-current waveforms for dI/dt stressmarks.
//!
//! A stressmark alternates a high-power and a low-power instruction
//! sequence (paper Fig. 6); electrically that is a trapezoidal square wave
//! of core current. The waveform can free-run (no synchronization, as in
//! Fig. 7a) or emit TOD-synchronized bursts of a configurable number of
//! ΔI events (Figs. 9, 10, 12).

use crate::transient::Drive;
use serde::{Deserialize, Serialize};

/// Synchronization behaviour of a [`StressWaveform`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WaveMode {
    /// Free-running square wave with a fixed initial `phase` (seconds) and
    /// a relative period skew in parts-per-million. The skew models the
    /// slow relative drift of unsynchronized cores, so a sticky-mode
    /// measurement samples many alignment states over a long run.
    FreeRun {
        /// Initial phase offset in seconds.
        phase: f64,
        /// Relative period error in ppm (positive runs slow).
        period_skew_ppm: f64,
    },
    /// TOD-synchronized bursts: at every multiple of `interval`, wait
    /// `offset` seconds (spinning at the idle current in the sync loop),
    /// run `events` ΔI events, then spin until the next boundary.
    Synced {
        /// Synchronization interval (the paper uses 4 ms).
        interval: f64,
        /// Exit offset after the boundary, in seconds (62.5 ns granularity
        /// on the modeled machine, but any value is accepted here).
        offset: f64,
        /// Number of consecutive ΔI events per burst.
        events: u32,
    },
}

/// Trapezoidal square-wave current of one core running a dI/dt stressmark.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::waveform::{StressWaveform, WaveMode};
///
/// let w = StressWaveform {
///     i_low: 5.0,
///     i_high: 25.0,
///     i_idle: 3.0,
///     stim_period: 500e-9, // 2 MHz
///     duty: 0.5,
///     rise_time: 1e-9,
///     mode: WaveMode::FreeRun { phase: 0.0, period_skew_ppm: 0.0 },
/// };
/// // Mid-way through the high half of the first period:
/// assert_eq!(w.value(125e-9), 25.0);
/// // Mid-way through the low half:
/// assert_eq!(w.value(375e-9), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StressWaveform {
    /// Current while executing the low-power sequence (amperes).
    pub i_low: f64,
    /// Current while executing the high-power sequence (amperes).
    pub i_high: f64,
    /// Current while idling in the synchronization spin loop.
    pub i_idle: f64,
    /// Stimulus period: time between consecutive ΔI event pairs.
    pub stim_period: f64,
    /// Fraction of the period spent at `i_high`, in `(0, 1)`.
    pub duty: f64,
    /// Ramp time of each transition (seconds).
    pub rise_time: f64,
    /// Synchronization mode.
    pub mode: WaveMode,
}

impl StressWaveform {
    /// The ΔI of one event: `i_high - i_low`.
    pub fn delta_i(&self) -> f64 {
        self.i_high - self.i_low
    }

    /// Effective period after skew (free-run) or the nominal period
    /// (synced).
    pub(crate) fn effective_period(&self) -> f64 {
        match self.mode {
            WaveMode::FreeRun {
                period_skew_ppm, ..
            } => self.stim_period * (1.0 + period_skew_ppm * 1e-6),
            WaveMode::Synced { .. } => self.stim_period,
        }
    }

    /// Current value of the raw square pattern at phase `tau` within one
    /// period of length `t_period`.
    fn pattern(&self, tau: f64, t_period: f64) -> f64 {
        let rise = self.rise_time.min(t_period * 0.25);
        let t_high = self.duty * t_period;
        if tau < rise {
            // Rising edge.
            self.i_low + (self.i_high - self.i_low) * (tau / rise)
        } else if tau < t_high {
            self.i_high
        } else if tau < t_high + rise {
            // Falling edge.
            self.i_high + (self.i_low - self.i_high) * ((tau - t_high) / rise)
        } else {
            self.i_low
        }
    }

    /// Instantaneous current at absolute time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self.mode {
            WaveMode::FreeRun { phase, .. } => {
                let t_period = self.effective_period();
                let tau = (t + phase).rem_euclid(t_period);
                self.pattern(tau, t_period)
            }
            WaveMode::Synced {
                interval,
                offset,
                events,
            } => {
                let t_in = t.rem_euclid(interval) - offset;
                let burst = (events as f64 * self.stim_period).min(interval - offset);
                if t_in < 0.0 || t_in >= burst {
                    self.i_idle
                } else {
                    self.pattern(t_in.rem_euclid(self.stim_period), self.stim_period)
                }
            }
        }
    }

    /// Appends the transition start times in `[t0, t1)` to `out`.
    pub fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        match self.mode {
            WaveMode::FreeRun { phase, .. } => {
                let t_period = self.effective_period();
                let t_high = self.duty * t_period;
                // First period index whose start is >= t0 - period.
                let k0 = ((t0 + phase) / t_period).floor() as i64 - 1;
                let mut k = k0;
                loop {
                    let start = k as f64 * t_period - phase;
                    if start >= t1 {
                        break;
                    }
                    for e in [start, start + t_high] {
                        if e >= t0 && e < t1 {
                            out.push(e);
                        }
                    }
                    k += 1;
                }
            }
            WaveMode::Synced {
                interval,
                offset,
                events,
            } => {
                let burst = (events as f64 * self.stim_period).min(interval - offset);
                let n_events = (burst / self.stim_period).ceil() as u32;
                let k0 = (t0 / interval).floor() as i64 - 1;
                let mut k = k0.max(0);
                loop {
                    let base = k as f64 * interval + offset;
                    if base >= t1 {
                        break;
                    }
                    for e in 0..n_events {
                        let rise = base + e as f64 * self.stim_period;
                        let fall = rise + self.duty * self.stim_period;
                        for edge in [rise, fall] {
                            if edge >= t0 && edge < t1 && edge < base + burst {
                                out.push(edge);
                            }
                        }
                    }
                    k += 1;
                }
            }
        }
    }
}

/// Per-core waveform of a multi-core drive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoreWaveform {
    /// A fixed current (idle core or steady workload).
    Constant(f64),
    /// A dI/dt stressmark square wave.
    Stress(StressWaveform),
}

impl CoreWaveform {
    /// Instantaneous current at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            CoreWaveform::Constant(i) => *i,
            CoreWaveform::Stress(w) => w.value(t),
        }
    }

    /// ΔI of this waveform (zero for constants).
    pub fn delta_i(&self) -> f64 {
        match self {
            CoreWaveform::Constant(_) => 0.0,
            CoreWaveform::Stress(w) => w.delta_i(),
        }
    }
}

/// A [`Drive`] mapping one [`CoreWaveform`] to each current source, in
/// source order.
#[derive(Debug, Clone)]
pub struct MultiCoreDrive {
    waves: Vec<CoreWaveform>,
}

impl MultiCoreDrive {
    /// Creates the drive; `waves[k]` feeds source `k`.
    pub fn new(waves: Vec<CoreWaveform>) -> Self {
        MultiCoreDrive { waves }
    }

    /// The per-core waveforms.
    pub fn waves(&self) -> &[CoreWaveform] {
        &self.waves
    }
}

impl Drive for MultiCoreDrive {
    fn currents(&self, t: f64, out: &mut [f64]) {
        for (o, w) in out.iter_mut().zip(&self.waves) {
            *o = w.value(t);
        }
    }

    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        for w in &self.waves {
            if let CoreWaveform::Stress(s) = w {
                s.edges(t0, t1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(mode: WaveMode) -> StressWaveform {
        StressWaveform {
            i_low: 4.0,
            i_high: 20.0,
            i_idle: 2.0,
            stim_period: 500e-9,
            duty: 0.5,
            rise_time: 1e-9,
            mode,
        }
    }

    #[test]
    fn freerun_levels_and_ramp() {
        let w = wave(WaveMode::FreeRun {
            phase: 0.0,
            period_skew_ppm: 0.0,
        });
        assert_eq!(w.value(0.0), 4.0); // ramp start
        assert_eq!(w.value(0.5e-9), 12.0); // mid-ramp
        assert_eq!(w.value(100e-9), 20.0);
        assert_eq!(w.value(400e-9), 4.0);
        // Periodicity.
        assert!((w.value(100e-9) - w.value(100e-9 + 500e-9)).abs() < 1e-12);
    }

    #[test]
    fn phase_shifts_waveform() {
        let w0 = wave(WaveMode::FreeRun {
            phase: 0.0,
            period_skew_ppm: 0.0,
        });
        let w1 = wave(WaveMode::FreeRun {
            phase: 250e-9,
            period_skew_ppm: 0.0,
        });
        assert!((w1.value(0.0) - w0.value(250e-9)).abs() < 1e-12);
    }

    #[test]
    fn skew_changes_effective_period() {
        let w = wave(WaveMode::FreeRun {
            phase: 0.0,
            period_skew_ppm: 1000.0,
        });
        assert!((w.effective_period() - 500.5e-9).abs() < 1e-15);
    }

    #[test]
    fn synced_idles_outside_burst() {
        let w = wave(WaveMode::Synced {
            interval: 4e-3,
            offset: 0.0,
            events: 4,
        });
        // Burst covers 4 * 500 ns = 2 us; idle afterwards.
        assert_eq!(w.value(100e-9), 20.0);
        assert_eq!(w.value(3e-6), 2.0);
        // Next interval restarts the burst.
        assert_eq!(w.value(4e-3 + 100e-9), 20.0);
    }

    #[test]
    fn synced_offset_delays_burst() {
        let w = wave(WaveMode::Synced {
            interval: 4e-3,
            offset: 62.5e-9,
            events: 4,
        });
        assert_eq!(w.value(10e-9), 2.0); // still spinning
        assert_eq!(w.value(62.5e-9 + 100e-9), 20.0);
    }

    #[test]
    fn freerun_edges_cover_all_transitions() {
        let w = wave(WaveMode::FreeRun {
            phase: 0.0,
            period_skew_ppm: 0.0,
        });
        let mut edges = Vec::new();
        w.edges(0.0, 2e-6, &mut edges);
        // 4 periods * 2 edges.
        assert_eq!(edges.len(), 8);
        assert!(edges.iter().all(|&e| (0.0..2e-6).contains(&e)));
    }

    #[test]
    fn synced_edges_limited_to_burst() {
        let w = wave(WaveMode::Synced {
            interval: 4e-3,
            offset: 0.0,
            events: 3,
        });
        let mut edges = Vec::new();
        w.edges(0.0, 4e-3, &mut edges);
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn edge_times_match_value_discontinuity_regions() {
        let w = wave(WaveMode::FreeRun {
            phase: 130e-9,
            period_skew_ppm: 0.0,
        });
        let mut edges = Vec::new();
        w.edges(0.0, 1e-6, &mut edges);
        for &e in &edges {
            let before = w.value(e - 0.1e-9);
            let after = w.value(e + w.rise_time + 0.1e-9);
            assert!(
                (before - after).abs() > 1.0,
                "edge at {e} does not separate levels ({before} vs {after})"
            );
        }
    }

    #[test]
    fn multicore_drive_maps_sources() {
        let d = MultiCoreDrive::new(vec![
            CoreWaveform::Constant(1.5),
            CoreWaveform::Stress(wave(WaveMode::FreeRun {
                phase: 0.0,
                period_skew_ppm: 0.0,
            })),
        ]);
        let mut out = vec![0.0; 2];
        d.currents(100e-9, &mut out);
        assert_eq!(out, vec![1.5, 20.0]);
        let mut edges = Vec::new();
        d.edges(0.0, 1e-6, &mut edges);
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn delta_i_reported() {
        assert_eq!(
            wave(WaveMode::FreeRun {
                phase: 0.0,
                period_skew_ppm: 0.0
            })
            .delta_i(),
            16.0
        );
        assert_eq!(CoreWaveform::Constant(3.0).delta_i(), 0.0);
    }
}

/// Plays a sampled per-core current trace (e.g. a cycle-accurate trace
/// from a core simulator) through the PDN, looping it to fill the
/// simulated window.
///
/// This is the high-fidelity alternative to [`StressWaveform`]'s
/// piecewise abstraction: the workspace uses it to validate that the
/// square-wave model of a stressmark produces the same droop envelope as
/// the instruction-level current trace it abstracts.
#[derive(Debug, Clone)]
pub struct TracePlayback {
    traces: Vec<Vec<f64>>,
    dt: f64,
    edge_threshold: f64,
}

impl TracePlayback {
    /// Creates a playback drive: `traces[k]` feeds source `k`, each
    /// sampled every `dt` seconds and looped. `edge_threshold` (amperes)
    /// sets how large a sample-to-sample step must be to count as a
    /// dI/dt edge for timestep refinement.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or any trace is empty.
    pub fn new(traces: Vec<Vec<f64>>, dt: f64, edge_threshold: f64) -> Self {
        assert!(dt > 0.0, "sample period must be positive");
        assert!(
            traces.iter().all(|t| !t.is_empty()),
            "traces must be non-empty"
        );
        TracePlayback {
            traces,
            dt,
            edge_threshold,
        }
    }

    /// Duration of one loop of trace `k`.
    pub fn loop_duration(&self, k: usize) -> f64 {
        self.traces[k].len() as f64 * self.dt
    }
}

impl Drive for TracePlayback {
    fn currents(&self, t: f64, out: &mut [f64]) {
        for (o, trace) in out.iter_mut().zip(&self.traces) {
            let idx = ((t / self.dt) as usize) % trace.len();
            *o = trace[idx];
        }
    }

    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        for trace in &self.traces {
            let period = trace.len() as f64 * self.dt;
            // Edge offsets within one loop.
            let mut offsets = Vec::new();
            for i in 1..trace.len() {
                if (trace[i] - trace[i - 1]).abs() >= self.edge_threshold {
                    offsets.push(i as f64 * self.dt);
                }
            }
            if offsets.is_empty() {
                continue;
            }
            let k0 = (t0 / period).floor().max(0.0) as u64;
            let mut k = k0;
            loop {
                let base = k as f64 * period;
                if base >= t1 {
                    break;
                }
                for &off in &offsets {
                    let e = base + off;
                    if e >= t0 && e < t1 {
                        out.push(e);
                    }
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    fn playback() -> TracePlayback {
        // 10 samples: low for 5, high for 5, 1 ns sampling.
        let trace = vec![5.0, 5.0, 5.0, 5.0, 5.0, 20.0, 20.0, 20.0, 20.0, 20.0];
        TracePlayback::new(vec![trace], 1e-9, 5.0)
    }

    #[test]
    fn playback_loops_samples() {
        let p = playback();
        let mut out = [0.0];
        p.currents(0.0, &mut out);
        assert_eq!(out[0], 5.0);
        p.currents(5.5e-9, &mut out);
        assert_eq!(out[0], 20.0);
        // One full loop later, same value.
        p.currents(15.5e-9, &mut out);
        assert_eq!(out[0], 20.0);
        assert!((p.loop_duration(0) - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn playback_reports_edges_per_loop() {
        let p = playback();
        let mut edges = Vec::new();
        p.edges(0.0, 30e-9, &mut edges);
        // One rising edge per 10 ns loop (the wrap-around fall is at the
        // loop boundary sample 0, whose predecessor is sample 9 — not
        // scanned), so 3 loops -> 3 edges.
        assert_eq!(edges.len(), 3);
        assert!((edges[0] - 5e-9).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "sample period must be positive")]
    fn rejects_bad_dt() {
        let _ = TracePlayback::new(vec![vec![1.0]], 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "traces must be non-empty")]
    fn rejects_empty_trace() {
        let _ = TracePlayback::new(vec![vec![]], 1e-9, 1.0);
    }
}
