//! The `resonance-entropy` study: how much entropy does the die
//! resonance band actually carry under realistic workloads?
//!
//! openentropy harvests PDN resonance as a physical entropy source;
//! this experiment asks the simulation-side version of that question.
//! Each job drives the chip with a max-dI/dt stressmark (on-resonance
//! and off-resonance stimuli), records the core-0 scope trace, and
//! the assembly stage runs the full [`voltnoise_pdn::signal`]
//! pipeline: uniform resampling, Welch PSD, die-band (1–5 MHz) power
//! fraction, then brick-wall band-filtering, 3-bit quantization, and
//! the SP800-90B-style estimator battery over the band-limited
//! samples. The punchline the table shows: the resonance band is
//! *energetic* but nearly *deterministic* — the Markov estimator
//! collapses the min-entropy of the strongly periodic on-resonance
//! signal far below its memoryless (MCV) estimate.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::signal::{
    band_filter, entropy_report, quantize, resample_uniform, welch_psd, EntropyReport, WelchConfig,
    DIE_BAND_HZ,
};
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;

/// Uniform resampling grid of each analyzed trace.
const RESAMPLE_POINTS: usize = 4096;

/// Welch segment length over the resampled trace.
const SEGMENT_LEN: usize = 512;

/// Quantizer width for the entropy battery, bits.
const QUANT_BITS: u32 = 3;

/// Configuration: which stimulus workloads to assess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResonanceEntropyConfig {
    /// Stressmark stimulus frequencies (the first should sit on the
    /// ~2.5 MHz die resonance, the rest off it).
    pub stim_freqs_hz: Vec<f64>,
    /// Trace window per job, seconds.
    pub window_s: f64,
    /// Seeds (each seed is an independent workload realization).
    pub seeds: Vec<u64>,
    /// Observed core.
    pub core: usize,
}

impl ResonanceEntropyConfig {
    /// Full study: on-resonance, board-band, and mid-band stimuli,
    /// two seeds each.
    pub fn paper() -> Self {
        ResonanceEntropyConfig {
            stim_freqs_hz: vec![2.5e6, 300e3, 10e6],
            window_s: 40e-6,
            seeds: vec![1, 2],
            core: 0,
        }
    }

    /// Reduced study for tests and the smoke path.
    pub fn reduced() -> Self {
        ResonanceEntropyConfig {
            stim_freqs_hz: vec![2.5e6, 300e3],
            window_s: 20e-6,
            seeds: vec![1],
            core: 0,
        }
    }
}

/// One `(stimulus, seed)` assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ResonancePoint {
    /// Stressmark stimulus frequency, Hz.
    pub stim_freq_hz: f64,
    /// Workload seed.
    pub seed: u64,
    /// Strongest Welch peak at or above 500 kHz, Hz.
    pub peak_freq_hz: f64,
    /// Fraction of total trace power inside the 1–5 MHz die band.
    pub band_fraction: f64,
    /// Estimator battery over the band-filtered, quantized samples.
    pub entropy: EntropyReport,
}

/// The assembled study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResonanceEntropy {
    /// One row per `(stimulus, seed)` job, in job order.
    pub(crate) points: Vec<ResonancePoint>,
}

impl ResonanceEntropy {
    /// Renders the study table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "resonance-entropy: min-entropy carried by the die resonance band (1-5 MHz)",
        );
        t.columns([
            "stim_hz",
            "seed",
            "peak_hz",
            "band_pct",
            "mcv_bits",
            "markov_bits",
            "h_min_bits",
            "healthy",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.3e}", p.stim_freq_hz),
                format!("{}", p.seed),
                format!("{:.3e}", p.peak_freq_hz),
                format!("{:.3}", p.band_fraction * 100.0),
                format!("{:.3}", p.entropy.mcv_bits),
                format!("{:.3}", p.entropy.markov_bits),
                format!("{:.3}", p.entropy.min_entropy_bits),
                format!("{}", p.entropy.repetition_ok && p.entropy.adaptive_ok),
            ]);
        }
        t.note(&format!(
            "battery: {QUANT_BITS}-bit quantizer over the band-filtered trace, \
             MCV + Markov estimators, repetition-count and adaptive-proportion \
             health checks (SP800-90B style)"
        ));
        t.finish()
    }
}

/// The registry experiment.
#[derive(Debug, Clone)]
pub struct ResonanceEntropyExperiment {
    /// Study configuration.
    pub cfg: ResonanceEntropyConfig,
}

impl JobList for ResonanceEntropyExperiment {
    type Artifact = ResonanceEntropy;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let batch = SimJob::batch(tb.chip());
        let mut jobs = Vec::new();
        for &f in &self.cfg.stim_freqs_hz {
            let sm = tb.max_stressmark(f, Some(SyncSpec::paper_default()));
            for &seed in &self.cfg.seeds {
                let loads: [CoreLoad; NUM_CORES] =
                    std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
                jobs.push(batch.job(
                    loads,
                    NoiseRunConfig {
                        window_s: Some(self.cfg.window_s.max(8.0 / f)),
                        record_traces: true,
                        seed,
                        ..NoiseRunConfig::default()
                    },
                ));
            }
        }
        Ok(jobs)
    }

    fn assemble(
        &self,
        _tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<ResonanceEntropy, PdnError> {
        let mut points = Vec::new();
        let mut idx = 0usize;
        for &f in &self.cfg.stim_freqs_hz {
            for &seed in &self.cfg.seeds {
                let out = outcomes.get(idx).ok_or(PdnError::EmptyProfile)?;
                idx += 1;
                let capture = out.traces.as_ref().ok_or_else(|| PdnError::Signal {
                    reason: "resonance-entropy jobs must record traces".into(),
                })?;
                let volts = capture
                    .channel(self.cfg.core)
                    .ok_or_else(|| PdnError::Signal {
                        reason: format!("no scope channel for core {}", self.cfg.core),
                    })?;
                points.push(assess_trace(capture.times(), volts, f, seed)?);
            }
        }
        Ok(ResonanceEntropy { points })
    }

    fn render(&self, artifact: &ResonanceEntropy) -> String {
        artifact.render()
    }
}

/// Runs the full signal pipeline over one trace.
fn assess_trace(
    times: &[f64],
    volts: &[f64],
    stim_freq_hz: f64,
    seed: u64,
) -> Result<ResonancePoint, PdnError> {
    let (fs, samples) = resample_uniform(times, volts, RESAMPLE_POINTS)?;
    let psd = welch_psd(&samples, WelchConfig::half_overlap(SEGMENT_LEN, fs))?;
    let peak_freq_hz = psd
        .peak_in_band(5e5, fs / 2.0)
        .or_else(|| psd.peak())
        .map(|(f, _)| f)
        .unwrap_or(0.0);
    let total = psd.band_power(0.0, fs / 2.0);
    let band = psd.band_power(DIE_BAND_HZ.0, DIE_BAND_HZ.1);
    let band_fraction = if total > 0.0 { band / total } else { 0.0 };
    let filtered = band_filter(&samples, fs, DIE_BAND_HZ.0, DIE_BAND_HZ.1)?;
    let entropy = entropy_report(&quantize(&filtered, QUANT_BITS)?)?;
    Ok(ResonancePoint {
        stim_freq_hz,
        seed,
        peak_freq_hz,
        band_fraction,
        entropy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use voltnoise_system::engine::Engine;

    /// The reduced study, run once for every test that reads it.
    fn study() -> &'static ResonanceEntropy {
        static CELL: OnceLock<ResonanceEntropy> = OnceLock::new();
        CELL.get_or_init(|| {
            ResonanceEntropyExperiment {
                cfg: ResonanceEntropyConfig::reduced(),
            }
            .run(Testbed::fast(), &Engine::new())
            .expect("study runs")
        })
    }

    #[test]
    fn on_resonance_band_is_energetic_but_predictable() {
        let study = study();
        assert_eq!(study.points.len(), 2);
        let on = &study.points[0]; // 2.5 MHz stimulus
        let off = &study.points[1]; // 300 kHz stimulus
                                    // The on-resonance workload concentrates power in the die band
                                    // and its Welch peak tracks the stimulus.
        assert!(
            (on.peak_freq_hz - 2.5e6).abs() / 2.5e6 < 0.2,
            "peak at {:.3e}",
            on.peak_freq_hz
        );
        assert!(
            on.band_fraction > off.band_fraction,
            "on {} vs off {}",
            on.band_fraction,
            off.band_fraction
        );
        // The band carries little *unpredictable* content: the Markov
        // estimator sees through the periodicity that the memoryless
        // MCV estimate misses.
        assert!(
            on.entropy.markov_bits < on.entropy.mcv_bits,
            "markov {} vs mcv {}",
            on.entropy.markov_bits,
            on.entropy.mcv_bits
        );
        assert!(on.entropy.min_entropy_bits < 2.0);
    }

    #[test]
    fn render_is_a_table_with_battery_note() {
        let text = study().render();
        assert!(text.contains("resonance-entropy"));
        assert!(text.contains("h_min_bits"));
        assert!(text.contains("SP800-90B"));
    }
}
