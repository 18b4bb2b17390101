//! Oscilloscope confirmation shots (paper Fig. 8): core-0 voltage while
//! executing the maximum dI/dt stressmark near the die-band resonance —
//! a 20 µs window plus one extracted stimulus period.

use crate::experiment::JobList;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_measure::scope::ScopeTrace;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;

/// Scope-shot configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeConfig {
    /// Stimulus frequency of the stressmark (the paper shoots ~2 MHz).
    pub stim_freq_hz: f64,
    /// Length of the long shot (Fig. 8a is 20 µs).
    pub shot_s: f64,
    /// Observed core.
    pub core: usize,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            stim_freq_hz: 2.5e6,
            shot_s: 20e-6,
            core: 0,
        }
    }
}

/// The captured shots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeShot {
    /// The long window (Fig. 8a).
    pub window: ScopeTrace,
    /// One extracted stimulus period (Fig. 8b).
    pub single_period: ScopeTrace,
    /// Dominant oscillation frequency estimated from the window.
    pub dominant_freq_hz: Option<f64>,
}

impl ScopeShot {
    /// Renders summary lines (full traces are exported as CSV elsewhere).
    pub fn render(&self) -> String {
        format!(
            "# Fig. 8: oscilloscope shot of core voltage under max dI/dt stressmark\n\
             window: {} samples over {:.1} us, p2p {:.1} mV (min {:.4} V, max {:.4} V)\n\
             single period: {} samples, p2p {:.1} mV\n\
             dominant frequency: {}\n",
            self.window.len(),
            (self.window.times().last().unwrap() - self.window.times()[0]) * 1e6,
            self.window.peak_to_peak() * 1e3,
            self.window.min(),
            self.window.max(),
            self.single_period.len(),
            self.single_period.peak_to_peak() * 1e3,
            match self.dominant_freq_hz {
                Some(f) => format!("{f:.3e} Hz"),
                None => "n/a".to_string(),
            }
        )
    }
}

/// The Fig. 8 oscilloscope-shot experiment.
#[derive(Debug, Clone)]
pub struct ScopeShotExperiment {
    /// Shot configuration.
    pub cfg: ScopeConfig,
}

impl JobList for ScopeShotExperiment {
    type Artifact = ScopeShot;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let sm = tb.max_stressmark(self.cfg.stim_freq_hz, Some(SyncSpec::paper_default()));
        let loads: [CoreLoad; NUM_CORES] =
            std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
        Ok(vec![SimJob::batch(tb.chip()).job(
            loads,
            NoiseRunConfig {
                window_s: Some(self.cfg.shot_s.max(4.0 / self.cfg.stim_freq_hz)),
                record_traces: true,
                seed: 1,
                ..NoiseRunConfig::default()
            },
        )])
    }

    fn assemble(
        &self,
        _tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<ScopeShot, PdnError> {
        let out = &outcomes[0];
        let capture = out.traces.as_ref().expect("traces requested");
        let window = capture
            .trace(self.cfg.core)
            .ok_or_else(|| PdnError::Signal {
                reason: format!("no scope channel for core {}", self.cfg.core),
            })?;
        let t_mid = window.times()[window.len() / 2];
        let single_period = window
            .single_period(self.cfg.stim_freq_hz, t_mid)
            .map_err(|e| PdnError::InvalidTimebase {
                reason: format!("single-period extraction failed: {e}"),
            })?;
        let dominant_freq_hz = window.dominant_frequency();
        Ok(ScopeShot {
            window,
            single_period,
            dominant_freq_hz,
        })
    }

    fn render(&self, artifact: &ScopeShot) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use voltnoise_system::engine::Engine;

    /// The default Fig. 8 capture, run once for every test that reads it.
    fn shot() -> &'static ScopeShot {
        static CELL: OnceLock<ScopeShot> = OnceLock::new();
        CELL.get_or_init(|| {
            ScopeShotExperiment {
                cfg: ScopeConfig::default(),
            }
            .run(Testbed::fast(), &Engine::new())
            .expect("capture runs")
        })
    }

    #[test]
    fn shot_shows_periodic_noise_at_stimulus_frequency() {
        let shot = shot();
        // Large peak-to-peak variations, repeating sinusoid-like form.
        assert!(
            shot.window.peak_to_peak() > 0.015,
            "p2p = {}",
            shot.window.peak_to_peak()
        );
        let f = shot.dominant_freq_hz.expect("oscillation present");
        assert!(
            (f - 2.5e6).abs() / 2.5e6 < 0.25,
            "dominant frequency {f:.3e} should track the 2.5 MHz stimulus"
        );
        // The single period spans ~1/f.
        let span = shot.single_period.times().last().unwrap() - shot.single_period.times()[0];
        assert!((span - 400e-9).abs() < 150e-9, "span = {span}");
    }

    #[test]
    fn render_mentions_window_and_period() {
        let text = shot().render();
        assert!(text.contains("window:"));
        assert!(text.contains("single period:"));
    }
}
