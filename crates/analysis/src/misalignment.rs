//! Noise sensitivity to ΔI-event misalignment (paper Fig. 10).
//!
//! Stressmarks at the resonant stimulus frequency synchronize every 4 ms,
//! but their sync-loop exit conditions are offset in 62.5 ns TOD ticks;
//! for a maximum allowed misalignment the offsets are distributed evenly
//! and all stressmark-to-core rotations are averaged.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;
use voltnoise_system::tod::spread_offsets;

/// Misalignment-sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisalignConfig {
    /// Stimulus frequency (the paper uses the ~2 MHz resonant band).
    pub stim_freq_hz: f64,
    /// Maximum allowed misalignments to evaluate, in 62.5 ns ticks.
    pub max_ticks: Vec<u64>,
    /// Offset-to-core rotations averaged per point (the paper runs "all
    /// possible stressmark to core mappings" and averages).
    pub rotations: usize,
    /// Simulation window per run.
    pub window_s: Option<f64>,
}

impl MisalignConfig {
    /// Paper-style: 0–625 ns in 62.5 ns steps.
    pub fn paper() -> Self {
        MisalignConfig {
            stim_freq_hz: 2.5e6,
            max_ticks: (0..=10).collect(),
            rotations: 6,
            window_s: Some(80e-6),
        }
    }

    /// Reduced for tests.
    pub fn reduced() -> Self {
        MisalignConfig {
            stim_freq_hz: 2.5e6,
            max_ticks: vec![0, 1, 4, 10],
            rotations: 2,
            window_s: Some(50e-6),
        }
    }
}

/// One misalignment point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisalignPoint {
    /// Maximum allowed misalignment in ticks (62.5 ns units).
    pub max_ticks: u64,
    /// Rotation-averaged per-core %p2p.
    pub per_core_pct: [f64; NUM_CORES],
}

impl MisalignPoint {
    /// Maximum misalignment in nanoseconds.
    pub fn max_ns(&self) -> f64 {
        self.max_ticks as f64 * 62.5
    }

    /// Mean across cores.
    pub fn mean_pct(&self) -> f64 {
        self.per_core_pct.iter().sum::<f64>() / NUM_CORES as f64
    }
}

/// Result of the misalignment sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisalignResult {
    /// One point per maximum-misalignment setting.
    pub points: Vec<MisalignPoint>,
}

impl MisalignResult {
    /// Renders the Fig. 10 series.
    pub fn render(&self) -> String {
        let mut t =
            Table::new("Fig. 10: average %p2p vs maximum allowed misalignment between stressmarks");
        t.columns(
            ["max_misalign_ns".to_string(), "mean_pct".to_string()]
                .into_iter()
                .chain((0..NUM_CORES).map(|i| format!("core{i}"))),
        );
        for p in &self.points {
            t.row(
                [format!("{:.1}", p.max_ns()), format!("{:.1}", p.mean_pct())]
                    .into_iter()
                    .chain(p.per_core_pct.iter().map(|v| format!("{v:.1}"))),
            );
        }
        t.finish()
    }
}

/// The Fig. 10 misalignment experiment.
#[derive(Debug, Clone)]
pub struct MisalignExperiment {
    /// The sweep grid.
    pub cfg: MisalignConfig,
}

impl JobList for MisalignExperiment {
    type Artifact = MisalignResult;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let batch = SimJob::batch(tb.chip());
        let rotations = self.cfg.rotations.max(1);
        let mut jobs = Vec::with_capacity(self.cfg.max_ticks.len() * rotations);
        for &ticks in &self.cfg.max_ticks {
            let offsets = spread_offsets(NUM_CORES, ticks);
            for rot in 0..rotations {
                let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|core| {
                    let mut sync = SyncSpec::paper_default();
                    sync.offset_ticks = offsets[(core + rot) % NUM_CORES] as u32;
                    CoreLoad::Stressmark(tb.max_stressmark(self.cfg.stim_freq_hz, Some(sync)))
                });
                jobs.push(batch.job(
                    loads,
                    NoiseRunConfig {
                        window_s: self.cfg.window_s,
                        record_traces: false,
                        seed: 1 + rot as u64,
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
    ) -> Result<MisalignResult, PdnError> {
        let rotations = self.cfg.rotations.max(1);
        let points = self
            .cfg
            .max_ticks
            .iter()
            .zip(outcomes.chunks(rotations))
            .map(|(&max_ticks, chunk)| {
                let mut acc = [0.0f64; NUM_CORES];
                for out in chunk {
                    for (a, v) in acc.iter_mut().zip(out.pct_p2p.iter().copied()) {
                        *a += v;
                    }
                }
                MisalignPoint {
                    max_ticks,
                    per_core_pct: acc.map(|v| v / rotations as f64),
                }
            })
            .collect();
        Ok(MisalignResult { points })
    }

    fn render(&self, artifact: &MisalignResult) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use voltnoise_system::engine::Engine;

    fn run(cfg: MisalignConfig) -> MisalignResult {
        MisalignExperiment { cfg }
            .run(Testbed::fast(), &Engine::new())
            .expect("sweep runs")
    }

    /// The reduced sweep, run once for every test that reads it.
    fn reduced() -> &'static MisalignResult {
        static CELL: OnceLock<MisalignResult> = OnceLock::new();
        CELL.get_or_init(|| run(MisalignConfig::reduced()))
    }

    #[test]
    fn misalignment_collapses_sync_bonus() {
        let res = reduced();
        let aligned = res.points[0].mean_pct();
        let one_tick = res.points[1].mean_pct();
        let wide = res.points.last().unwrap().mean_pct();
        // One 62.5 ns tick already removes a large share of the bonus...
        assert!(
            one_tick < aligned - 5.0,
            "aligned {aligned} vs one tick {one_tick}"
        );
        // ...and wide misalignment brings it near the unaligned level.
        assert!(wide < one_tick, "wide {wide} vs one tick {one_tick}");
        assert!(aligned - wide > 15.0, "total collapse {aligned} -> {wide}");
    }

    #[test]
    fn points_are_monotone_non_increasing_roughly() {
        let res = reduced();
        for w in res.points.windows(2) {
            assert!(
                w[1].mean_pct() <= w[0].mean_pct() + 2.0,
                "noise should not grow with misalignment: {} -> {}",
                w[0].mean_pct(),
                w[1].mean_pct()
            );
        }
    }

    #[test]
    fn render_lists_all_settings() {
        let res = run(MisalignConfig {
            max_ticks: vec![0, 10],
            rotations: 1,
            ..MisalignConfig::reduced()
        });
        let text = res.render();
        assert!(text.contains("0.0,"));
        assert!(text.contains("625.0,"));
    }
}
