//! The post-silicon impedance profile (paper Fig. 7b).

use crate::experiment::{Experiment, ExperimentFailure};
use crate::render::Table;
use crate::signal_summary::SignalSummary;
use serde::{Deserialize, Serialize};
use voltnoise_pdn::ac::{log_space, AcAnalysis};
use voltnoise_pdn::PdnError;
use voltnoise_system::chip::Chip;
use voltnoise_system::engine::Engine;
use voltnoise_system::testbed::Testbed;

/// Impedance-profile configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpedanceConfig {
    /// Lowest frequency of the sweep.
    pub f_lo_hz: f64,
    /// Highest frequency of the sweep.
    pub f_hi_hz: f64,
    /// Number of log-spaced points.
    pub points: usize,
    /// Core whose supply node is characterized.
    pub core: usize,
}

impl ImpedanceConfig {
    /// The paper-style profile: 1 kHz – 100 MHz.
    pub fn paper() -> Self {
        ImpedanceConfig {
            f_lo_hz: 1e3,
            f_hi_hz: 100e6,
            points: 400,
            core: 0,
        }
    }

    /// Reduced sweep for tests.
    pub fn reduced() -> Self {
        ImpedanceConfig {
            points: 120,
            ..ImpedanceConfig::paper()
        }
    }
}

/// The computed profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpedanceProfile {
    /// `(frequency_hz, |Z| ohms)` pairs in ascending frequency.
    pub points: Vec<(f64, f64)>,
    /// The spectral summary: resonance peaks `(frequency_hz, |Z| ohms)`
    /// strongest first (the figure's peak annotations), plus half-power
    /// Q and die-band `|Z|²` energy.
    pub signal: SignalSummary,
}

impl ImpedanceProfile {
    /// The die-band resonance (strongest peak above 500 kHz), if any.
    pub fn die_band(&self) -> Option<(f64, f64)> {
        self.signal.peaks.iter().copied().find(|(f, _)| *f > 5e5)
    }

    /// Renders the Fig. 7b series.
    pub fn render(&self) -> String {
        let mut t = Table::new("Fig. 7b: die-level impedance profile |Z(f)|");
        t.columns(["freq_hz", "z_mohm"]);
        for (f, z) in &self.points {
            t.row([format!("{f:.4e}"), format!("{:.4}", z * 1e3)]);
        }
        for (f, z) in &self.signal.peaks {
            t.note(&format!("peak: {:.3} mOhm at {f:.3e} Hz", z * 1e3));
        }
        t.finish()
    }
}

/// The Fig. 7b impedance-profile experiment: a pure AC analysis, so it
/// runs without the engine.
#[derive(Debug, Clone)]
pub(crate) struct ImpedanceExperiment {
    /// The sweep configuration.
    pub cfg: ImpedanceConfig,
}

impl Experiment for ImpedanceExperiment {
    type Artifact = ImpedanceProfile;

    fn run(&self, tb: &Testbed, _engine: &Engine) -> Result<ImpedanceProfile, ExperimentFailure> {
        Ok(run_impedance(tb.chip(), &self.cfg)?)
    }

    fn render(&self, artifact: &ImpedanceProfile) -> String {
        artifact.render()
    }
}

/// Computes the impedance profile of a chip.
///
/// # Errors
///
/// Returns [`PdnError`] on an invalid sweep or singular network.
pub fn run_impedance(chip: &Chip, cfg: &ImpedanceConfig) -> Result<ImpedanceProfile, PdnError> {
    let ac = AcAnalysis::new(chip.pdn().netlist());
    let freqs = log_space(cfg.f_lo_hz, cfg.f_hi_hz, cfg.points)?;
    let profile = ac.sweep(chip.pdn().core_node(cfg.core), &freqs)?;
    let signal = SignalSummary::of_profile(&profile)?;
    Ok(ImpedanceProfile {
        points: profile.iter().map(|p| (p.freq_hz, p.magnitude())).collect(),
        signal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_shows_both_paper_bands() {
        let chip = Chip::paper_default();
        let prof = run_impedance(&chip, &ImpedanceConfig::reduced()).unwrap();
        let (f_die, z_die) = prof.die_band().expect("die band present");
        assert!((1e6..5e6).contains(&f_die), "die band at {f_die:.3e}");
        let (f_board, z_board) = prof
            .signal
            .peaks
            .iter()
            .copied()
            .find(|(f, _)| *f <= 5e5)
            .expect("board band present");
        assert!(f_board < 200e3, "board band at {f_board:.3e}");
        // Die band dominates after the deep-trench decap shift (paper §V-A).
        assert!(z_die > z_board);
    }

    #[test]
    fn render_contains_peak_annotations() {
        let chip = Chip::paper_default();
        let prof = run_impedance(&chip, &ImpedanceConfig::reduced()).unwrap();
        assert!(prof.render().contains("# peak:"));
    }

    #[test]
    fn signal_summary_agrees_with_legacy_peak_list() {
        let chip = Chip::paper_default();
        let prof = run_impedance(&chip, &ImpedanceConfig::reduced()).unwrap();
        // The strongest peak of the rendered list is the summary's.
        assert_eq!(prof.signal.peak_freq_hz, prof.signal.peaks[0].0);
        // The die resonance is a real, reasonably sharp peak with
        // measurable band energy.
        let q = prof.signal.q_factor.expect("die resonance has a Q");
        assert!(q > 1.0 && q < 100.0, "q = {q}");
        assert!(prof.signal.die_band_energy > 0.0);
    }
}
