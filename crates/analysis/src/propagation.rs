//! Inter-core noise propagation (paper §VI: Figs. 13a, 13b, 14).

use crate::delta_i::DeltaIDataset;
use crate::experiment::{Experiment, ExperimentFailure, JobList};
use crate::stats::CorrelationMatrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_measure::scope::ScopeTrace;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::transient::{Drive, Probe, TransientConfig, TransientSolver};
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::chip::Chip;
use voltnoise_system::engine::{Engine, SimJob};
use voltnoise_system::noise::{DrawerStepConfig, DrawerStepOutcome, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;
use voltnoise_system::workload::{Placement, WorkloadKind};

/// Fig. 13a: the inter-core correlation analysis over a ΔI campaign
/// dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationAnalysis {
    /// The 6×6 correlation matrix.
    pub(crate) matrix: CorrelationMatrix,
    /// Detected cluster containing core 0.
    pub cluster_a: Vec<usize>,
    /// The other cluster.
    pub cluster_b: Vec<usize>,
    /// Mean correlation within clusters.
    pub mean_within: f64,
    /// Mean correlation across clusters.
    pub mean_between: f64,
}

impl CorrelationAnalysis {
    /// Computes the analysis from a ΔI dataset.
    pub fn from_dataset(data: &DeltaIDataset) -> Self {
        let matrix = CorrelationMatrix::from_series(&data.per_core_series());
        let (cluster_a, cluster_b) = matrix.two_clusters();
        let mean_within = (matrix.mean_within(&cluster_a) + matrix.mean_within(&cluster_b)) / 2.0;
        let mean_between = matrix.mean_between(&cluster_a, &cluster_b);
        CorrelationAnalysis {
            matrix,
            cluster_a,
            cluster_b,
            mean_within,
            mean_between,
        }
    }

    /// Renders the Fig. 13a matrix.
    pub fn render(&self) -> String {
        let mut out = String::from("# Fig. 13a: inter-core noise correlation matrix\ncore");
        for j in 0..NUM_CORES {
            out.push_str(&format!(",core{j}"));
        }
        out.push('\n');
        for i in 0..NUM_CORES {
            out.push_str(&format!("core{i}"));
            for j in 0..NUM_CORES {
                out.push_str(&format!(",{:.3}", self.matrix.get(i, j)));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "# clusters: {:?} vs {:?} (within {:.3}, between {:.3}, min off-diag {:.3})\n",
            self.cluster_a,
            self.cluster_b,
            self.mean_within,
            self.mean_between,
            self.matrix.min_off_diagonal()
        ));
        out
    }
}

/// Fig. 13b: simulated response of all cores to a ΔI step on one core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResponse {
    /// Core that received the step.
    pub source_core: usize,
    /// Per-core voltage traces.
    pub traces: Vec<ScopeTrace>,
    /// Per-core peak droop depth (volts below the pre-step level).
    pub droop_depth: [f64; NUM_CORES],
    /// Per-core time (seconds after the step) of 25 % of the final droop —
    /// the arrival time of the disturbance.
    pub arrival_s: [f64; NUM_CORES],
}

impl StepResponse {
    /// Renders the Fig. 13b summary rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# Fig. 13b: simulated dI step on core {} — propagation to all cores\n\
             core,droop_depth_mv,arrival_ns\n",
            self.source_core
        );
        for i in 0..NUM_CORES {
            out.push_str(&format!(
                "core{i},{:.2},{:.1}\n",
                self.droop_depth[i] * 1e3,
                self.arrival_s[i] * 1e9
            ));
        }
        out
    }
}

struct StepDrive {
    core: usize,
    t0: f64,
    amps: f64,
    idle: f64,
}

impl Drive for StepDrive {
    fn currents(&self, t: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.idle
                + if i == self.core && t >= self.t0 {
                    self.amps
                } else {
                    0.0
                };
        }
    }
    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        if self.t0 >= t0 && self.t0 < t1 {
            out.push(self.t0);
        }
    }
}

/// Simulates a ΔI step on `source_core` while the others idle (the
/// paper's Cadence/Sigrity experiment).
///
/// # Errors
///
/// Returns [`PdnError`] if the PDN solve fails.
pub fn run_step_response(
    chip: &Chip,
    source_core: usize,
    step_amps: f64,
) -> Result<StepResponse, PdnError> {
    let mut solver = TransientSolver::new(chip.pdn().netlist())?;
    let t0 = 0.5e-6;
    let drive = StepDrive {
        core: source_core,
        t0,
        amps: step_amps,
        idle: chip.config().core.static_power_w / chip.config().core.v_nom,
    };
    let probes: Vec<Probe> = (0..NUM_CORES)
        .map(|i| Probe::NodeVoltage(chip.pdn().core_node(i)))
        .collect();
    let mut tc = TransientConfig::new(4e-6);
    tc.h_coarse = 2e-9;
    tc.h_fine = 0.5e-9;
    tc.settle = 0.0;
    tc.record_decimation = Some(1);
    let res = solver.run(&drive, &probes, &tc)?;

    let mut traces = Vec::with_capacity(NUM_CORES);
    let mut droop_depth = [0.0; NUM_CORES];
    let mut arrival_s = [0.0; NUM_CORES];
    for i in 0..NUM_CORES {
        let trace = ScopeTrace::new(res.times.clone(), res.traces[i].clone())
            .expect("monotonic solver times");
        // Pre-step level: last sample before the step.
        let pre_idx = res.times.partition_point(|&t| t < t0).saturating_sub(1);
        let v_pre = res.traces[i][pre_idx];
        let mut depth = 0.0f64;
        for (t, v) in res.times.iter().zip(&res.traces[i]) {
            if *t >= t0 {
                depth = depth.max(v_pre - v);
            }
        }
        let threshold = v_pre - 0.25 * depth;
        let arrival = res
            .times
            .iter()
            .zip(&res.traces[i])
            .find(|(t, v)| **t >= t0 && **v <= threshold)
            .map(|(t, _)| t - t0)
            .unwrap_or(f64::INFINITY);
        droop_depth[i] = depth;
        arrival_s[i] = arrival;
        traces.push(trace);
    }
    Ok(StepResponse {
        source_core,
        traces,
        droop_depth,
        arrival_s,
    })
}

/// Fig. 14: two specific mappings of three maximum stressmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingComparison {
    /// Cores used by the split (best-case) mapping and its per-core noise.
    pub split_mapping: (Vec<usize>, [f64; NUM_CORES]),
    /// Cores used by the clustered (worst-case) mapping and its per-core
    /// noise.
    pub clustered_mapping: (Vec<usize>, [f64; NUM_CORES]),
}

impl MappingComparison {
    /// Worst core noise of the split mapping.
    pub fn split_worst(&self) -> f64 {
        self.split_mapping
            .1
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst core noise of the clustered mapping.
    pub fn clustered_worst(&self) -> f64 {
        self.clustered_mapping
            .1
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the Fig. 14 panels.
    pub fn render(&self) -> String {
        let panel = |label: &str, cores: &[usize], pct: &[f64; NUM_CORES]| {
            let mut s = format!("{label}: stressmarks on cores {cores:?}\n");
            for (i, v) in pct.iter().enumerate() {
                let mark = if cores.contains(&i) { "didt" } else { "idle" };
                s.push_str(&format!("  core{i} [{mark}]: {v:.1} %p2p\n"));
            }
            s
        };
        format!(
            "# Fig. 14: two mappings of 3 worst-case dI/dt stressmarks\n{}worst: {:.1} %p2p\n{}worst: {:.1} %p2p\n",
            panel("split across rows", &self.split_mapping.0, &self.split_mapping.1),
            self.split_worst(),
            panel("same row cluster", &self.clustered_mapping.0, &self.clustered_mapping.1),
            self.clustered_worst()
        )
    }
}

fn mapping_from_cores(cores: &[usize]) -> Placement {
    Placement::from_fn(NUM_CORES, |i| {
        if cores.contains(&i) {
            WorkloadKind::MaxDidt
        } else {
            WorkloadKind::Idle
        }
    })
}

/// The Fig. 13b step-propagation experiment. The raw transient solve
/// bypasses the noise kernel, so it runs without the engine;
/// `step_amps = None` sizes the step from the testbed's maximum
/// stressmark.
#[derive(Debug, Clone)]
pub(crate) struct StepResponseExperiment {
    /// Core receiving the ΔI step.
    pub source_core: usize,
    /// Step amplitude in amps (`None` = the max stressmark's ΔI).
    pub step_amps: Option<f64>,
}

impl Experiment for StepResponseExperiment {
    type Artifact = StepResponse;

    fn run(&self, tb: &Testbed, _engine: &Engine) -> Result<StepResponse, ExperimentFailure> {
        let amps = self
            .step_amps
            .unwrap_or_else(|| tb.max_stressmark(2.5e6, None).delta_i());
        Ok(run_step_response(tb.chip(), self.source_core, amps)?)
    }

    fn render(&self, artifact: &StepResponse) -> String {
        artifact.render()
    }
}

/// The Fig. 14 two-mapping comparison experiment: stressmarks on
/// {1, 4, 5} (split across rows) vs {0, 2, 4} (one row/domain cluster).
#[derive(Debug, Clone)]
pub struct MappingComparisonExperiment {
    /// Stimulus frequency of the stressmarks.
    pub stim_freq_hz: f64,
}

impl MappingComparisonExperiment {
    const SPLIT: [usize; 3] = [1, 4, 5];
    const CLUSTERED: [usize; 3] = [0, 2, 4];

    fn run_cfg() -> NoiseRunConfig {
        NoiseRunConfig {
            window_s: Some(60e-6),
            record_traces: false,
            seed: 1,
            ..NoiseRunConfig::default()
        }
    }
}

impl JobList for MappingComparisonExperiment {
    type Artifact = MappingComparison;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let sync = Some(SyncSpec::paper_default());
        let batch = SimJob::batch(tb.chip());
        Ok([Self::SPLIT, Self::CLUSTERED]
            .iter()
            .map(|cores| {
                batch.job(
                    tb.loads_of_mapping(&mapping_from_cores(cores), self.stim_freq_hz, sync),
                    Self::run_cfg(),
                )
            })
            .collect())
    }

    fn assemble(
        &self,
        _tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<MappingComparison, PdnError> {
        Ok(MappingComparison {
            split_mapping: (Self::SPLIT.to_vec(), outcomes[0].pct_p2p.to_array()),
            clustered_mapping: (Self::CLUSTERED.to_vec(), outcomes[1].pct_p2p.to_array()),
        })
    }

    fn render(&self, artifact: &MappingComparison) -> String {
        artifact.render()
    }
}

/// The drawer-scale chip-to-chip propagation artifact: a ΔI step on one
/// chip of a multi-chip drawer, observed at every chip's package node.
///
/// The drawer analogue of Fig. 13b: where the paper studies how noise
/// crosses core boundaries inside one chip, this study scales the same
/// question to chips sharing a board PDN (the zEC12 drawer/book level
/// the paper measures in §III). Not part of the golden report — it runs
/// on demand (`drawer-prop`) and inside the benchmark harness, where its
/// 200+-unknown system exercises the sparse solver path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DrawerPropagation {
    /// The configuration the study ran.
    pub config: DrawerStepConfig,
    /// The solved outcome.
    pub outcome: DrawerStepOutcome,
}

impl DrawerPropagation {
    /// Renders the chip-to-chip summary rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# Drawer propagation: dI step on chip {} core {} — {} chips, {} MNA unknowns\n\
             chip,droop_depth_mv,arrival_ns\n",
            self.config.source_chip,
            self.config.source_core,
            self.config.drawer.chips,
            self.outcome.system_size
        );
        for (c, (d, a)) in self
            .outcome
            .droop_depth_v
            .iter()
            .zip(&self.outcome.arrival_s)
            .enumerate()
        {
            out.push_str(&format!("chip{c},{:.3},{:.1}\n", d * 1e3, a * 1e9));
        }
        out.push_str(&format!(
            "# stepped core droop: {:.3} mV; transient steps: {}\n",
            self.outcome.source_core_droop_v * 1e3,
            self.outcome.steps
        ));
        if self.outcome.rom_states > 0 {
            out.push_str(&format!(
                "# reduced-order model: {} states, calibrated max error {:.3} mV\n",
                self.outcome.rom_states,
                self.outcome.rom_max_error_v * 1e3
            ));
        }
        out
    }
}

/// The drawer chip-to-chip propagation experiment. Its solve routes
/// through [`Engine::run_drawer`] (the engine's drawer memo), so a
/// repeat run on the same engine answers from cache.
#[derive(Debug, Clone)]
pub(crate) struct DrawerPropagationExperiment {
    /// The drawer step configuration to run.
    pub cfg: DrawerStepConfig,
}

impl Experiment for DrawerPropagationExperiment {
    type Artifact = DrawerPropagation;

    fn render(&self, artifact: &DrawerPropagation) -> String {
        artifact.render()
    }

    fn run(&self, _tb: &Testbed, engine: &Engine) -> Result<DrawerPropagation, ExperimentFailure> {
        let outcome = engine.run_drawer(&self.cfg)?;
        Ok(DrawerPropagation {
            config: self.cfg.clone(),
            outcome: (*outcome).clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_detects_row_clusters() {
        let analysis = CorrelationAnalysis::from_dataset(crate::delta_i::tests::dataset());
        assert_eq!(analysis.cluster_a, vec![0, 2, 4], "{}", analysis.render());
        assert_eq!(analysis.cluster_b, vec![1, 3, 5]);
        assert!(analysis.mean_within > analysis.mean_between);
        // Paper: all inter-core correlations > 0.91 (shared PDN). The
        // reduced test campaign has few samples, so only a looser floor
        // is asserted here; the paper-scale campaign is rendered by
        // `experiment fig13a` (EXPERIMENTS.md records its values).
        assert!(
            analysis.matrix.min_off_diagonal() > 0.6,
            "min off-diag {:.3}",
            analysis.matrix.min_off_diagonal()
        );
    }

    #[test]
    fn step_on_core0_hits_same_row_harder_and_faster() {
        let chip = Chip::paper_default();
        let resp = run_step_response(&chip, 0, 12.0).unwrap();
        // Source core droops deepest.
        assert!(resp.droop_depth[0] > resp.droop_depth[2]);
        // Same-row cores 2, 4 droop deeper than opposite-row 1, 3, 5.
        let same = (resp.droop_depth[2] + resp.droop_depth[4]) / 2.0;
        let cross = (resp.droop_depth[1] + resp.droop_depth[3] + resp.droop_depth[5]) / 3.0;
        assert!(same > cross, "same-row {same:.5} vs cross-row {cross:.5}");
        // And they see the disturbance no later.
        let t_same = resp.arrival_s[2].min(resp.arrival_s[4]);
        let t_cross = resp.arrival_s[1]
            .min(resp.arrival_s[3])
            .min(resp.arrival_s[5]);
        assert!(t_same <= t_cross + 1e-9, "same {t_same} vs cross {t_cross}");
    }

    #[test]
    fn drawer_experiment_is_registered_and_renders() {
        let entry = crate::experiment::find("drawer-prop").unwrap();
        assert!(!entry.in_report, "drawer study must stay out of the report");
        let cfg = DrawerStepConfig {
            window_s: 1e-6,
            ..DrawerStepConfig::default()
        };
        let exp = DrawerPropagationExperiment { cfg };
        let engine = Engine::with_workers(1);
        let art = exp.run(Testbed::fast(), &engine).unwrap();
        assert_eq!(art.outcome.droop_depth_v.len(), art.config.drawer.chips);
        assert!(art.outcome.system_size > 150);
        let rendered = exp.render(&art);
        assert!(rendered.contains("Drawer propagation"), "{rendered}");
        assert!(rendered.contains("chip5"), "{rendered}");
        // Re-running on the same engine answers from the drawer memo.
        let solves = engine.solves();
        exp.run(Testbed::fast(), &engine).unwrap();
        assert_eq!(engine.solves(), solves);
    }

    #[test]
    fn clustered_mapping_is_noisier_than_split() {
        let cmp = MappingComparisonExperiment {
            stim_freq_hz: 2.5e6,
        }
        .run(Testbed::fast(), &Engine::new())
        .unwrap();
        assert!(
            cmp.clustered_worst() > cmp.split_worst(),
            "clustered {:.1} vs split {:.1}",
            cmp.clustered_worst(),
            cmp.split_worst()
        );
    }
}
