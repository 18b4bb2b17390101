//! Noise sensitivity to ΔI (paper Figs. 11a and 11b).
//!
//! Runs synchronized stressmark mixes — idle / medium / maximum per core —
//! over workload-to-core mappings and relates the noise to the fraction
//! of the chip's maximum possible ΔI each mapping generates. The same
//! dataset feeds the inter-core correlation analysis of Fig. 13a.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::noise::{NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;
use voltnoise_system::workload::{all_distributions, mappings_of, Distribution, Placement};

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaIConfig {
    /// Stimulus frequency (paper: 2 MHz band, synchronized).
    pub stim_freq_hz: f64,
    /// Maximum mappings evaluated per distribution (deterministically
    /// strided when a distribution has more).
    pub mappings_per_distribution: usize,
    /// Simulation window per run.
    pub window_s: Option<f64>,
}

impl DeltaIConfig {
    /// Paper-style coverage.
    pub fn paper() -> Self {
        DeltaIConfig {
            stim_freq_hz: 2.5e6,
            mappings_per_distribution: 10,
            window_s: Some(60e-6),
        }
    }

    /// Reduced for tests.
    pub fn reduced() -> Self {
        DeltaIConfig {
            stim_freq_hz: 2.5e6,
            mappings_per_distribution: 3,
            window_s: Some(40e-6),
        }
    }
}

/// One evaluated run of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DeltaIRun {
    /// The workload-to-core mapping.
    pub mapping: Placement,
    /// Its distribution.
    pub distribution: Distribution,
    /// Fraction of the maximum possible chip ΔI.
    pub delta_i_fraction: f64,
    /// Per-core %p2p readings.
    pub per_core_pct: [f64; NUM_CORES],
}

impl DeltaIRun {
    /// Worst per-core reading of this run.
    pub fn max_pct(&self) -> f64 {
        self.per_core_pct
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The full campaign dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaIDataset {
    /// Every evaluated run.
    pub(crate) runs: Vec<DeltaIRun>,
}

impl DeltaIDataset {
    /// Fig. 11a series: for each distinct ΔI fraction, the maximum
    /// per-core noise observed across all mappings generating it.
    pub(crate) fn max_noise_by_delta_i(&self) -> Vec<(f64, f64)> {
        let mut by_frac: Vec<(f64, f64)> = Vec::new();
        for run in &self.runs {
            match by_frac
                .iter_mut()
                .find(|(f, _)| (*f - run.delta_i_fraction).abs() < 1e-9)
            {
                Some((_, m)) => *m = m.max(run.max_pct()),
                None => by_frac.push((run.delta_i_fraction, run.max_pct())),
            }
        }
        by_frac.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_frac
    }

    /// Fig. 11b series: noise averaged over cores and mappings, grouped
    /// by distribution, sorted by ΔI fraction then by concentration.
    pub(crate) fn average_noise_by_distribution(&self) -> Vec<(Distribution, f64, f64)> {
        let mut out: Vec<(Distribution, f64, f64, usize)> = Vec::new();
        for run in &self.runs {
            let avg: f64 = run.per_core_pct.iter().sum::<f64>() / NUM_CORES as f64;
            match out.iter_mut().find(|(d, ..)| *d == run.distribution) {
                Some((_, _, acc, n)) => {
                    *acc += avg;
                    *n += 1;
                }
                None => out.push((run.distribution, run.delta_i_fraction, avg, 1)),
            }
        }
        let mut res: Vec<(Distribution, f64, f64)> = out
            .into_iter()
            .map(|(d, f, acc, n)| (d, f, acc / n as f64))
            .collect();
        res.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.max_count.cmp(&b.0.max_count)));
        res
    }

    /// Per-core noise series across runs (input to Fig. 13a correlation).
    pub(crate) fn per_core_series(&self) -> [Vec<f64>; NUM_CORES] {
        std::array::from_fn(|i| self.runs.iter().map(|r| r.per_core_pct[i]).collect())
    }

    /// Renders the Fig. 11a rows.
    pub(crate) fn render_fig11a(&self) -> String {
        let mut t = Table::new("Fig. 11a: max %p2p noise vs % of maximum possible dI");
        t.columns(["pct_of_max_di", "max_pct_p2p"]);
        for (f, m) in self.max_noise_by_delta_i() {
            t.row([format!("{:.1}", f * 100.0), format!("{m:.1}")]);
        }
        t.finish()
    }

    /// Renders the Fig. 11b rows.
    pub(crate) fn render_fig11b(&self) -> String {
        let mut t = Table::new("Fig. 11b: average noise by workload distribution (max-medium)");
        t.columns(["distribution", "pct_of_max_di", "avg_pct_p2p"]);
        for (d, f, avg) in self.average_noise_by_distribution() {
            t.row([d.label(), format!("{:.1}", f * 100.0), format!("{avg:.1}")]);
        }
        t.finish()
    }
}

/// Which figure a [`DeltaIExperiment`] renders. All views share the same
/// job list, so an engine with a warm cache assembles the second and
/// third views without a single new solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaIView {
    /// Fig. 11a: max noise vs ΔI fraction.
    Fig11a,
    /// Fig. 11b: average noise by distribution.
    Fig11b,
    /// Fig. 13a: inter-core correlation matrix of the campaign.
    Correlation,
}

/// The ΔI campaign experiment (Figs. 11a, 11b and the Fig. 13a input).
#[derive(Debug, Clone)]
pub struct DeltaIExperiment {
    /// The campaign grid.
    pub cfg: DeltaIConfig,
    /// The rendered view.
    pub view: DeltaIView,
}

impl DeltaIExperiment {
    /// The deterministic campaign plan: every `(distribution, mapping)`
    /// pair, in run order.
    fn plan(&self) -> Vec<(Distribution, Placement)> {
        let mut out = Vec::new();
        for dist in all_distributions() {
            let mappings = mappings_of(&dist);
            let stride = (mappings.len() / self.cfg.mappings_per_distribution.max(1)).max(1);
            for mapping in mappings.iter().step_by(stride) {
                out.push((dist, mapping.clone()));
            }
        }
        out
    }
}

impl JobList for DeltaIExperiment {
    type Artifact = DeltaIDataset;

    fn id(&self) -> &'static str {
        match self.view {
            DeltaIView::Fig11a => "fig11a",
            DeltaIView::Fig11b => "fig11b",
            DeltaIView::Correlation => "fig13a",
        }
    }

    fn title(&self) -> &'static str {
        match self.view {
            DeltaIView::Fig11a => "Fig. 11a: max noise vs dI fraction",
            DeltaIView::Fig11b => "Fig. 11b: average noise by workload distribution",
            DeltaIView::Correlation => "Fig. 13a: inter-core noise correlation",
        }
    }

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let sync = Some(SyncSpec::paper_default());
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
                    tb.loads_of_mapping(mapping, self.cfg.stim_freq_hz, sync),
                    run_cfg.clone(),
                )
            })
            .collect())
    }

    fn assemble(
        &self,
        _tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<DeltaIDataset, PdnError> {
        let runs = self
            .plan()
            .into_iter()
            .zip(outcomes)
            .map(|((dist, mapping), out)| DeltaIRun {
                mapping,
                distribution: dist,
                delta_i_fraction: dist.delta_i_fraction(),
                per_core_pct: out.pct_p2p.to_array(),
            })
            .collect();
        Ok(DeltaIDataset { runs })
    }

    fn render(&self, artifact: &DeltaIDataset) -> String {
        match self.view {
            DeltaIView::Fig11a => artifact.render_fig11a(),
            DeltaIView::Fig11b => artifact.render_fig11b(),
            DeltaIView::Correlation => {
                crate::propagation::CorrelationAnalysis::from_dataset(artifact).render()
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use voltnoise_system::engine::Engine;

    /// The reduced ΔI campaign, run once for every test that reads it
    /// (this module's and the Fig. 13a correlation test's).
    pub(crate) fn dataset() -> &'static DeltaIDataset {
        static CELL: OnceLock<DeltaIDataset> = OnceLock::new();
        CELL.get_or_init(|| {
            DeltaIExperiment {
                cfg: DeltaIConfig::reduced(),
                view: DeltaIView::Fig11a,
            }
            .run(Testbed::fast(), &Engine::new())
            .expect("campaign runs")
        })
    }

    #[test]
    fn noise_grows_with_delta_i() {
        let series = dataset().max_noise_by_delta_i();
        assert!(series.len() >= 5);
        let first = series.first().unwrap();
        let last = series.last().unwrap();
        assert!(first.0 < 0.01 && last.0 > 0.99);
        assert!(
            last.1 > first.1 + 20.0,
            "full-dI noise {} vs idle {}",
            last.1,
            first.1
        );
        // Broad monotonic growth: each point at least as high as the
        // floor three steps earlier.
        for w in series.windows(4) {
            assert!(
                w[3].1 >= w[0].1 - 3.0,
                "{:?}",
                w.iter().map(|p| p.1).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn distribution_grouping_covers_all_28() {
        let groups = dataset().average_noise_by_distribution();
        assert_eq!(groups.len(), 28);
    }

    #[test]
    fn amount_of_delta_i_matters_more_than_its_source() {
        // Paper §V-D: "the important factor is the amount of dI generated
        // and not the source of the dI": distributions with equal dI
        // fraction read within a few points of each other.
        let groups = dataset().average_noise_by_distribution();
        let half: Vec<f64> = groups
            .iter()
            .filter(|(_, f, _)| (*f - 0.5).abs() < 1e-9)
            .map(|(_, _, avg)| *avg)
            .collect();
        assert!(half.len() >= 3, "need several 50% dI distributions");
        let spread = half.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - half.iter().cloned().fold(f64::INFINITY, f64::min);
        let level = half.iter().sum::<f64>() / half.len() as f64;
        assert!(
            spread < 0.25 * level,
            "source placement changed noise too much: spread {spread} at level {level}"
        );
    }

    #[test]
    fn renders_have_rows() {
        let d = dataset();
        assert!(d.render_fig11a().lines().count() > 5);
        assert!(d.render_fig11b().lines().count() > 10);
    }
}
