//! Extension studies beyond the paper's evaluation, run as one registry
//! entry (`extensions`) outside the full report:
//!
//! 1. the §V-F global noise governor against the ungoverned worst case
//!    and local ΔI clamping;
//! 2. deterministic vs probabilistic (dithered) stressmark alignment;
//! 3. naive vs noise-aware scheduling over a synthetic job trace on a
//!    fully characterized chip;
//! 4. the GA sequence search of §IV-C against the exhaustive funnel.

use crate::experiment::{Experiment, ExperimentFailure};
use serde::{Deserialize, Serialize};
use voltnoise_stressmark::{ga_search, select_candidates, GaConfig, GaOutcome};
use voltnoise_system::dither::AlignmentComparison;
use voltnoise_system::engine::Engine;
use voltnoise_system::mitigation::{evaluate_governor, GovernorConfig, GovernorEvaluation};
use voltnoise_system::noise::NoiseRunConfig;
use voltnoise_system::scheduler::{
    replay, synthetic_trace, NaivePolicy, NoiseAwarePolicy, NoiseTable, ScheduleOutcome,
};
use voltnoise_system::testbed::Testbed;

/// Stimulus frequency of the governor and scheduling studies (Hz).
const STIM_FREQ_HZ: f64 = 2.5e6;

/// Configuration of the extension studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExtensionsConfig {
    /// Noise window of every governor and characterization solve (s).
    pub window_s: f64,
    /// Sync intervals of the alignment comparison.
    pub alignment_intervals: u64,
    /// Jobs in the synthetic scheduling trace.
    pub trace_jobs: usize,
}

impl ExtensionsConfig {
    /// Paper-scale studies.
    pub fn paper() -> ExtensionsConfig {
        ExtensionsConfig {
            window_s: 50e-6,
            alignment_intervals: 5_000,
            trace_jobs: 400,
        }
    }

    /// Reduced studies for quick runs.
    pub fn reduced() -> ExtensionsConfig {
        ExtensionsConfig {
            window_s: 30e-6,
            alignment_intervals: 500,
            trace_jobs: 80,
        }
    }
}

/// Results of the four extension studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExtensionsStudy {
    /// The §V-F governor evaluation.
    pub governor: GovernorEvaluation,
    /// Deterministic vs dithered alignment.
    pub alignment: AlignmentComparison,
    /// Naive placement over the job trace.
    pub naive: ScheduleOutcome,
    /// Noise-aware placement over the same trace.
    pub aware: ScheduleOutcome,
    /// The GA search.
    pub ga: GaOutcome,
    /// Power of the exhaustive funnel's winner (W).
    pub exhaustive_winner_w: f64,
    /// Power evaluations the exhaustive funnel spent.
    pub exhaustive_evaluations: usize,
}

impl ExtensionsStudy {
    /// Renders the four studies in order.
    pub fn render(&self) -> String {
        let mut out = self.governor.render();
        out.push_str(&self.alignment.render());
        out.push_str("# noise-aware scheduling over a synthetic job trace\n");
        for s in [&self.naive, &self.aware] {
            out.push_str(&format!(
                "policy {:12} mean required margin {:.1} %p2p, peak {:.1} %p2p, queued {}\n",
                s.policy, s.mean_required_pct, s.peak_required_pct, s.queued_jobs
            ));
        }
        out.push_str("# GA search (paper §IV-C extension) vs exhaustive funnel\n");
        out.push_str(&format!(
            "GA: {:?} {:.2} W after {} evaluations (exhaustive winner {:.2} W after {} evaluations)\n",
            self.ga.best.mnemonics,
            self.ga.best.power_w,
            self.ga.evaluations,
            self.exhaustive_winner_w,
            self.exhaustive_evaluations
        ));
        out
    }
}

/// The extension studies (registry id `extensions`).
#[derive(Debug, Clone)]
pub(crate) struct ExtensionsExperiment {
    /// The study configuration.
    pub cfg: ExtensionsConfig,
}

impl Experiment for ExtensionsExperiment {
    type Artifact = ExtensionsStudy;

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<ExtensionsStudy, ExperimentFailure> {
        let cfg = &self.cfg;
        let run_cfg = NoiseRunConfig {
            window_s: Some(cfg.window_s),
            ..NoiseRunConfig::default()
        };
        let governor = evaluate_governor(tb, STIM_FREQ_HZ, &GovernorConfig::default(), &run_cfg)?;
        let alignment = AlignmentComparison::run(6, 16, cfg.alignment_intervals, 11);
        let table = NoiseTable::characterize(engine, tb, STIM_FREQ_HZ, &run_cfg)?;
        let trace = synthetic_trace(cfg.trace_jobs, 3.0);
        let naive = replay(&mut table.clone(), &NaivePolicy, &trace)?;
        let aware = replay(&mut table.clone(), &NoiseAwarePolicy::new(), &trace)?;
        let candidates: Vec<_> = select_candidates(tb.isa(), tb.profile())
            .iter()
            .map(|c| c.opcode)
            .collect();
        let ga = ga_search(tb.isa(), tb.core(), &candidates, &GaConfig::default());
        Ok(ExtensionsStudy {
            governor,
            alignment,
            naive,
            aware,
            ga,
            exhaustive_winner_w: tb.max_sequence().power_w,
            exhaustive_evaluations: tb.search().after_ipc,
        })
    }

    fn render(&self, artifact: &ExtensionsStudy) -> String {
        artifact.render()
    }
}
