//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! 1. Edge-refined adaptive timestep vs uniform fine stepping (cost and
//!    accuracy of the transient solver);
//! 2. Two on-die domains bridged by the L3 vs a merged single domain
//!    (the source of the Fig. 13a clusters);
//! 3. Deep-trench eDRAM decap vs a legacy (pre-eDRAM) design (the
//!    first-droop shift of §V-A);
//! 4. The analytic IPC pre-filter vs power-evaluating every filtered
//!    sequence (the funnel's cost structure).
//!
//! `AblationExperiment` runs all four as one registry entry
//! (`ablations`), outside the full report.

use crate::delta_i::{DeltaIConfig, DeltaIExperiment, DeltaIView};
use crate::experiment::Experiment;
use crate::propagation::CorrelationAnalysis;
use crate::signal_summary::SignalSummary;
use serde::{Deserialize, Serialize};
use voltnoise_pdn::ac::{log_space, AcAnalysis};
use voltnoise_pdn::topology::{Pdn, PdnParams, NUM_CORES};
use voltnoise_pdn::transient::{Probe, TransientConfig, TransientSolver};
use voltnoise_pdn::waveform::{CoreWaveform, MultiCoreDrive, StressWaveform, WaveMode};
use voltnoise_pdn::PdnError;
use voltnoise_system::chip::{Chip, ChipConfig};
use voltnoise_system::engine::Engine;
use voltnoise_system::testbed::Testbed;

/// Ablation 1 result: timestep strategy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct StepAblation {
    /// Steps taken by the edge-refined two-rate scheme.
    pub refined_steps: usize,
    /// Steps a uniform fine-step run takes.
    pub uniform_steps: usize,
    /// Relative error of the refined scheme's peak-to-peak reading vs the
    /// uniform reference.
    pub p2p_rel_error: f64,
}

/// Runs ablation 1 on a 6-core stressmark drive.
///
/// # Errors
///
/// Returns [`PdnError`] if a solve fails.
pub(crate) fn run_step_ablation(chip: &Chip) -> Result<StepAblation, PdnError> {
    let wave = StressWaveform {
        i_low: 8.0,
        i_high: 18.0,
        i_idle: 8.0,
        stim_period: 400e-9,
        duty: 0.5,
        rise_time: 2e-9,
        mode: WaveMode::FreeRun {
            phase: 0.0,
            period_skew_ppm: 0.0,
        },
    };
    let drive = MultiCoreDrive::new(vec![CoreWaveform::Stress(wave); NUM_CORES]);
    let probe = [Probe::NodeVoltage(chip.pdn().core_node(0))];

    let mut refined_cfg = TransientConfig::new(40e-6);
    refined_cfg.h_coarse = 20e-9;
    refined_cfg.h_fine = 0.5e-9;
    refined_cfg.refine_post = 25e-9;
    let mut solver = TransientSolver::new(chip.pdn().netlist())?;
    let refined = solver.run(&drive, &probe, &refined_cfg)?;

    let mut uniform_cfg = refined_cfg.clone();
    uniform_cfg.h_coarse = uniform_cfg.h_fine;
    let mut solver2 = TransientSolver::new(chip.pdn().netlist())?;
    let uniform = solver2.run(&drive, &probe, &uniform_cfg)?;

    let p_ref = uniform.stats[0].peak_to_peak();
    let p_fast = refined.stats[0].peak_to_peak();
    Ok(StepAblation {
        refined_steps: refined.steps,
        uniform_steps: uniform.steps,
        p2p_rel_error: (p_fast - p_ref).abs() / p_ref.max(1e-12),
    })
}

/// Ablation 2 result: cluster separation with and without the split-domain
/// topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DomainAblation {
    /// `mean_within - mean_between` correlation gap of the paper chip.
    pub split_domain_gap: f64,
    /// The same gap when the domains are electrically merged and the
    /// cycle-ripple coupling is uniform.
    pub merged_domain_gap: f64,
}

/// Runs ablation 2 on `engine`. Expensive: two ΔI campaigns.
///
/// # Errors
///
/// Returns [`PdnError`] if a solve fails.
pub(crate) fn run_domain_ablation(
    tb: &Testbed,
    engine: &Engine,
    campaign: &DeltaIConfig,
) -> Result<DomainAblation, PdnError> {
    let delta_i = DeltaIExperiment {
        cfg: campaign.clone(),
        view: DeltaIView::Fig11a,
    };
    let split = CorrelationAnalysis::from_dataset(&delta_i.run(tb, engine)?);

    // Merged topology: near-zero bridge impedance and uniform coupling.
    let mut cfg = ChipConfig::default();
    cfg.pdn.r_l3 = 1e-9;
    cfg.pdn.l_l3 = 1e-16;
    cfg.hf.cross_domain_coupling = cfg.hf.same_domain_coupling;
    // Uniform skitters and grid (no variation) isolate the topology effect.
    cfg.seed = 0;
    let merged_chip = Chip::new(&cfg)?;
    // Reuse the testbed's sequences with the merged chip via a scoped clone.
    let merged_tb = Testbed::build(
        &voltnoise_stressmark::SearchConfig {
            ipc_keep: 40,
            eval_iterations: 100,
        },
        &cfg,
    )?
    .with_chip(merged_chip);
    let merged = CorrelationAnalysis::from_dataset(&delta_i.run(&merged_tb, engine)?);

    Ok(DomainAblation {
        split_domain_gap: split.mean_within - split.mean_between,
        merged_domain_gap: merged.mean_within - merged.mean_between,
    })
}

/// Ablation 3 result: first-droop band of modern vs legacy decap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct DecapAblation {
    /// Strongest die-band resonance frequency of the deep-trench design.
    pub modern_first_droop_hz: f64,
    /// Strongest resonance frequency of the legacy (1/40 decap) design.
    pub legacy_first_droop_hz: f64,
}

/// Runs ablation 3.
///
/// # Errors
///
/// Returns [`PdnError`] if the AC solve fails.
pub(crate) fn run_decap_ablation() -> Result<DecapAblation, PdnError> {
    let band = |params: &PdnParams| -> Result<f64, PdnError> {
        let chip = Pdn::chip(params)?;
        let ac = AcAnalysis::new(chip.netlist());
        let freqs = log_space(1e5, 500e6, 300)?;
        let prof = ac.sweep(chip.core_node(0), &freqs)?;
        Ok(SignalSummary::of_profile(&prof)?.peak_freq_hz)
    };
    Ok(DecapAblation {
        modern_first_droop_hz: band(&PdnParams::default())?,
        legacy_first_droop_hz: band(&PdnParams::legacy_decap())?,
    })
}

/// Ablation 4 result: funnel cost with and without the IPC pre-filter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct FilterAblation {
    /// Power evaluations needed with the IPC filter.
    pub evals_with_filter: usize,
    /// Power evaluations needed without it (every microarch survivor).
    pub evals_without_filter: usize,
    /// Power of the winner found through the filtered funnel.
    pub filtered_winner_w: f64,
}

/// Summarizes ablation 4 from a testbed's search outcome.
pub(crate) fn run_filter_ablation(tb: &Testbed) -> FilterAblation {
    let s = tb.search();
    FilterAblation {
        evals_with_filter: s.after_ipc,
        evals_without_filter: s.after_microarch,
        filtered_winner_w: s.best.power_w,
    }
}

/// Configuration of the ablation study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AblationConfig {
    /// The ΔI campaign ablation 2 runs on both topologies.
    pub campaign: DeltaIConfig,
}

impl AblationConfig {
    /// Paper-scale study: the paper's ΔI campaign with four mappings
    /// per distribution (two campaigns at full scale are slow).
    pub fn paper() -> AblationConfig {
        AblationConfig {
            campaign: DeltaIConfig {
                mappings_per_distribution: 4,
                ..DeltaIConfig::paper()
            },
        }
    }

    /// Reduced study for quick runs.
    pub fn reduced() -> AblationConfig {
        AblationConfig {
            campaign: DeltaIConfig::reduced(),
        }
    }
}

/// All four ablation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AblationStudy {
    /// Ablation 1: edge-refined vs uniform stepping.
    pub step: StepAblation,
    /// Ablation 2: split vs merged voltage domains.
    pub domain: DomainAblation,
    /// Ablation 3: deep-trench vs legacy decap.
    pub decap: DecapAblation,
    /// Ablation 4: the IPC pre-filter.
    pub filter: FilterAblation,
}

impl AblationStudy {
    /// Renders one `#`-commented line per ablation.
    pub fn render(&self) -> String {
        format!(
            "# ablation 1: edge-refined stepping: {} steps vs {} uniform (p2p error {:.2} %)\n\
             # ablation 3: first droop {:.3e} Hz (deep trench) vs {:.3e} Hz (legacy 1/40 decap)\n\
             # ablation 4: IPC pre-filter: {} power evaluations instead of {} (winner {:.2} W)\n\
             # ablation 2: correlation cluster gap {:.3} (split domains) vs {:.3} (merged)\n",
            self.step.refined_steps,
            self.step.uniform_steps,
            self.step.p2p_rel_error * 100.0,
            self.decap.modern_first_droop_hz,
            self.decap.legacy_first_droop_hz,
            self.filter.evals_with_filter,
            self.filter.evals_without_filter,
            self.filter.filtered_winner_w,
            self.domain.split_domain_gap,
            self.domain.merged_domain_gap
        )
    }
}

/// The DESIGN.md ablation study (registry id `ablations`).
#[derive(Debug, Clone)]
pub(crate) struct AblationExperiment {
    /// The study configuration.
    pub cfg: AblationConfig,
}

impl Experiment for AblationExperiment {
    type Artifact = AblationStudy;

    fn id(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> &'static str {
        "DESIGN.md ablations: stepping, voltage domains, decap, IPC pre-filter"
    }

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<AblationStudy, PdnError> {
        Ok(AblationStudy {
            step: run_step_ablation(tb.chip())?,
            decap: run_decap_ablation()?,
            filter: run_filter_ablation(tb),
            domain: run_domain_ablation(tb, engine, &self.cfg.campaign)?,
        })
    }

    fn render(&self, artifact: &AblationStudy) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refined_stepping_is_cheap_and_accurate() {
        let chip = Chip::paper_default();
        let a = run_step_ablation(&chip).unwrap();
        assert!(
            a.refined_steps * 3 < a.uniform_steps,
            "refined {} vs uniform {}",
            a.refined_steps,
            a.uniform_steps
        );
        assert!(a.p2p_rel_error < 0.05, "error {}", a.p2p_rel_error);
    }

    #[test]
    fn legacy_decap_moves_first_droop_above_5mhz() {
        let a = run_decap_ablation().unwrap();
        assert!(a.modern_first_droop_hz < 5e6);
        assert!(a.legacy_first_droop_hz > 5e6);
        assert!(a.legacy_first_droop_hz > 4.0 * a.modern_first_droop_hz);
    }

    #[test]
    fn ipc_filter_cuts_power_evaluations() {
        let tb = Testbed::fast();
        let a = run_filter_ablation(tb);
        assert!(a.evals_with_filter * 10 < a.evals_without_filter);
        assert!(a.filtered_winner_w > 15.0);
    }
}
