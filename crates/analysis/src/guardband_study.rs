//! Utilization-based dynamic guard-banding study (paper §VII-B).
//!
//! Builds the per-active-core-count worst-case noise table from measured
//! mappings (Fig. 11a's regions), then quantifies the energy saving of a
//! controller that tracks utilization against the static worst-case
//! voltage setting.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::guardband::{energy_saving, GuardbandController, GuardbandTable};
use voltnoise_system::noise::{NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;
use voltnoise_system::workload::{mappings_of, Distribution, Placement};

/// Study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardbandConfig {
    /// Stimulus frequency used for the worst-case characterization.
    pub stim_freq_hz: f64,
    /// Simulation window per run.
    pub window_s: Option<f64>,
    /// Safety factor over measured worst-case noise.
    pub safety_factor: f64,
    /// Fraction of chip power that is dynamic (scales as V²).
    pub dynamic_fraction: f64,
    /// Mean utilizations (0..=1) of the synthetic traces to evaluate.
    pub utilizations: Vec<f64>,
    /// Length of each synthetic utilization trace.
    pub trace_len: usize,
}

impl GuardbandConfig {
    /// Paper-style study.
    pub fn paper() -> Self {
        GuardbandConfig {
            stim_freq_hz: 2.5e6,
            window_s: Some(50e-6),
            safety_factor: 1.1,
            dynamic_fraction: 0.6,
            utilizations: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            trace_len: 512,
        }
    }

    /// Reduced for tests.
    pub fn reduced() -> Self {
        GuardbandConfig {
            window_s: Some(35e-6),
            utilizations: vec![0.25, 1.0],
            trace_len: 64,
            ..GuardbandConfig::paper()
        }
    }
}

/// Result of the guard-banding study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardbandStudy {
    /// Worst-case noise (volts, peak droop below nominal operating point)
    /// per number of active cores.
    pub worst_noise_v: [f64; NUM_CORES + 1],
    /// The derived margin table (volts per active count).
    pub margins_v: [f64; NUM_CORES + 1],
    /// `(mean utilization, energy saving fraction)` per evaluated trace.
    pub savings: Vec<(f64, f64)>,
    /// Voltage transitions performed by the controller on the densest
    /// trace (cost indicator).
    pub transitions: u64,
}

impl GuardbandStudy {
    /// Renders the §VII-B summary.
    pub fn render(&self) -> String {
        let mut t = Table::new("§VII-B: utilization-based dynamic guard-banding");
        t.columns(["active_cores", "worst_noise_mv", "margin_mv"]);
        for k in 0..=NUM_CORES {
            t.row([
                k.to_string(),
                format!("{:.1}", self.worst_noise_v[k] * 1e3),
                format!("{:.1}", self.margins_v[k] * 1e3),
            ]);
        }
        t.line("utilization,energy_saving_pct");
        for (u, s) in &self.savings {
            t.row([format!("{u:.2}"), format!("{:.2}", s * 100.0)]);
        }
        t.note(&format!("controller transitions: {}", self.transitions));
        t.finish()
    }
}

/// Deterministic synthetic utilization trace with a given mean.
fn utilization_trace(mean_util: f64, len: usize) -> Vec<usize> {
    (0..len)
        .map(|i| {
            // A deterministic sawtooth-ish pattern around the mean.
            let phase = (i as f64 * 0.37).sin() * 0.5 + 0.5;
            let target = mean_util * 2.0 * phase;
            (target * NUM_CORES as f64).round().min(NUM_CORES as f64) as usize
        })
        .collect()
}

/// The §VII-B dynamic guard-banding experiment.
///
/// One simulation per `(active-core count, mapping)` pair: the same
/// outcomes provide both the worst-case droop table and (through the
/// engine cache) any overlapping mapping studies, where the previous
/// implementation simulated every mapping twice.
#[derive(Debug, Clone)]
pub struct GuardbandExperiment {
    /// The study configuration.
    pub cfg: GuardbandConfig,
}

impl GuardbandExperiment {
    /// The deterministic plan: `(active count, mapping)` in run order.
    fn plan(&self) -> Vec<(usize, Placement)> {
        let mut out = Vec::new();
        for k in 0..=NUM_CORES {
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

impl JobList for GuardbandExperiment {
    type Artifact = GuardbandStudy;

    fn id(&self) -> &'static str {
        "guardband"
    }

    fn title(&self) -> &'static str {
        "§VII-B: utilization-based dynamic guard-banding"
    }

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let run_cfg = NoiseRunConfig {
            window_s: self.cfg.window_s,
            record_traces: false,
            seed: 1,
            ..NoiseRunConfig::default()
        };
        let batch = SimJob::batch(tb.chip());
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
        tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<GuardbandStudy, PdnError> {
        let cfg = &self.cfg;
        let v_op = tb.chip().v_nom();
        // Worst-case noise as the deepest droop below nominal across all
        // mappings of k active cores — Fig. 11a's "regions".
        let mut worst_noise_v = [0.0f64; NUM_CORES + 1];
        for ((k, _), out) in self.plan().iter().zip(outcomes) {
            let v_min = out.v_min.iter().copied().fold(f64::INFINITY, f64::min);
            worst_noise_v[*k] = worst_noise_v[*k].max(v_op - v_min);
        }

        let table = GuardbandTable::from_worst_case_noise(worst_noise_v, cfg.safety_factor);
        let margins_v = std::array::from_fn(|k| table.margin_v(k));
        let v_fail = tb.chip().config().critical_path.failure_voltage();

        let mut savings = Vec::new();
        let mut transitions = 0;
        for &u in &cfg.utilizations {
            let trace = utilization_trace(u, cfg.trace_len);
            let mut controller = GuardbandController::new(table.clone(), v_fail);
            for &active in &trace {
                controller.step(active);
            }
            transitions = transitions.max(controller.transitions());
            let mean_u =
                trace.iter().sum::<usize>() as f64 / (trace.len().max(1) * NUM_CORES) as f64;
            savings.push((
                mean_u,
                energy_saving(&table, v_fail, &trace, cfg.dynamic_fraction),
            ));
        }

        Ok(GuardbandStudy {
            worst_noise_v,
            margins_v,
            savings,
            transitions,
        })
    }

    fn render(&self, artifact: &GuardbandStudy) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use voltnoise_system::engine::Engine;

    #[test]
    fn margins_grow_with_utilization_and_save_energy_when_idle() {
        let tb = Testbed::fast();
        let mut cfg = GuardbandConfig::reduced();
        // Keep the mapping enumeration small in tests.
        cfg.window_s = Some(30e-6);
        let study = GuardbandExperiment { cfg }.run(tb, &Engine::new()).unwrap();
        // Noise with all 6 cores far exceeds the idle baseline.
        assert!(study.worst_noise_v[6] > 2.0 * study.worst_noise_v[0].max(1e-3));
        // Margins monotone.
        for k in 1..=NUM_CORES {
            assert!(study.margins_v[k] >= study.margins_v[k - 1]);
        }
        // A mostly-idle machine saves more than a busy one.
        let s_idle = study.savings[0].1;
        let s_busy = study.savings.last().unwrap().1;
        assert!(s_idle > s_busy, "idle {s_idle} vs busy {s_busy}");
        assert!(s_idle > 0.005, "saving {s_idle}");
    }

    #[test]
    fn trace_generator_respects_bounds() {
        for u in [0.0, 0.3, 1.0] {
            for v in utilization_trace(u, 100) {
                assert!(v <= NUM_CORES);
            }
        }
    }
}
