//! Noise-aware workload-mapping opportunity (paper Fig. 15).
//!
//! For every number of workloads 0–6, evaluate all core assignments and
//! compare the best (lowest worst-case noise) against the worst mapping.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::mapping::{MappingEvaluation, NoiseAwareMapper};
use voltnoise_system::noise::{NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;
use voltnoise_system::workload::{mappings_of, Distribution, Placement, WorkloadKind};

/// Mapping-gain study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingGainConfig {
    /// Stimulus frequency of the stressmarks.
    pub stim_freq_hz: f64,
    /// Workload counts to evaluate.
    pub counts: Vec<usize>,
    /// Simulation window per run.
    pub window_s: Option<f64>,
}

impl MappingGainConfig {
    /// Paper-style: 0 through 6 workloads, all mappings (64 runs).
    pub fn paper() -> Self {
        MappingGainConfig {
            stim_freq_hz: 2.5e6,
            counts: (0..=NUM_CORES).collect(),
            window_s: Some(50e-6),
        }
    }

    /// Reduced for tests.
    pub fn reduced() -> Self {
        MappingGainConfig {
            stim_freq_hz: 2.5e6,
            counts: vec![2, 3],
            window_s: Some(35e-6),
        }
    }
}

/// One workload-count row of Fig. 15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MappingGainPoint {
    /// Number of scheduled workloads.
    pub workloads: usize,
    /// Worst-case noise of the best mapping.
    pub best_pct: f64,
    /// Worst-case noise of the worst mapping.
    pub worst_pct: f64,
    /// Cores of the best mapping.
    pub best_cores: Vec<usize>,
    /// Cores of the worst mapping.
    pub worst_cores: Vec<usize>,
}

impl MappingGainPoint {
    /// The noise-reduction opportunity (secondary axis of Fig. 15).
    pub(crate) fn gain_pct(&self) -> f64 {
        self.worst_pct - self.best_pct
    }
}

/// Result of the study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingGainResult {
    /// One point per workload count.
    pub(crate) points: Vec<MappingGainPoint>,
}

impl MappingGainResult {
    /// Renders the Fig. 15 rows.
    pub fn render(&self) -> String {
        let mut t =
            Table::new("Fig. 15: worst-case noise of best vs worst mapping per workload count");
        t.columns([
            "workloads",
            "best_pct",
            "worst_pct",
            "gain_pct",
            "best_cores",
            "worst_cores",
        ]);
        for p in &self.points {
            t.row([
                p.workloads.to_string(),
                format!("{:.1}", p.best_pct),
                format!("{:.1}", p.worst_pct),
                format!("{:.1}", p.gain_pct()),
                format!("{:?}", p.best_cores),
                format!("{:?}", p.worst_cores),
            ]);
        }
        t.finish()
    }
}

fn cores_of(m: &Placement) -> Vec<usize> {
    m.iter()
        .enumerate()
        .filter(|(_, w)| **w != WorkloadKind::Idle)
        .map(|(i, _)| i)
        .collect()
}

/// The Fig. 15 mapping-opportunity experiment.
#[derive(Debug, Clone)]
pub struct MappingGainExperiment {
    /// The study grid.
    pub cfg: MappingGainConfig,
}

impl MappingGainExperiment {
    fn run_cfg(&self) -> NoiseRunConfig {
        NoiseRunConfig {
            window_s: self.cfg.window_s,
            record_traces: false,
            seed: 1,
            ..NoiseRunConfig::default()
        }
    }

    /// The deterministic plan: `(workload count, mapping)` in run order.
    fn plan(&self) -> Vec<(usize, Placement)> {
        let mut out = Vec::new();
        for &k in &self.cfg.counts {
            let dist = Distribution {
                max_count: k,
                medium_count: 0,
            };
            for mapping in mappings_of(&dist) {
                out.push((k, mapping));
            }
        }
        out
    }
}

impl JobList for MappingGainExperiment {
    type Artifact = MappingGainResult;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let batch = SimJob::batch(tb.chip());
        let run_cfg = self.run_cfg();
        Ok(self
            .plan()
            .iter()
            .map(|(_, mapping)| {
                batch.job(
                    tb.loads_of_mapping(
                        mapping,
                        self.cfg.stim_freq_hz,
                        Some(SyncSpec::paper_default()),
                    ),
                    run_cfg.clone(),
                )
            })
            .collect())
    }

    fn assemble(
        &self,
        _tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<MappingGainResult, PdnError> {
        let evals: Vec<MappingEvaluation> = self
            .plan()
            .iter()
            .zip(outcomes)
            .map(|((_, mapping), out)| MappingEvaluation::from_outcome(mapping, out))
            .collect();
        let mapper = NoiseAwareMapper::from_measurements(evals);
        let mut points = Vec::new();
        for &k in &self.cfg.counts {
            let (Some(best), Some(worst)) = (mapper.best_for(k), mapper.worst_for(k)) else {
                continue; // no mapping of this count was evaluated
            };
            points.push(MappingGainPoint {
                workloads: k,
                best_pct: best.worst_pct,
                worst_pct: worst.worst_pct,
                best_cores: cores_of(&best.mapping),
                worst_cores: cores_of(&worst.mapping),
            });
        }
        Ok(MappingGainResult { points })
    }

    fn render(&self, artifact: &MappingGainResult) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use voltnoise_system::engine::Engine;

    fn run(cfg: MappingGainConfig) -> MappingGainResult {
        MappingGainExperiment { cfg }
            .run(Testbed::fast(), &Engine::new())
            .expect("study runs")
    }

    #[test]
    fn mid_counts_offer_mapping_gain() {
        let res = run(MappingGainConfig::reduced());
        for p in &res.points {
            assert!(p.worst_pct >= p.best_pct);
            // Paper: 2-4 workloads offer a couple of %p2p points.
            assert!(
                p.gain_pct() > 0.5,
                "k={} gain {:.2}",
                p.workloads,
                p.gain_pct()
            );
            assert_eq!(p.best_cores.len(), p.workloads);
        }
    }

    #[test]
    fn render_includes_counts() {
        let res = run(MappingGainConfig {
            counts: vec![2],
            ..MappingGainConfig::reduced()
        });
        assert!(res.render().contains("2,"));
    }
}
