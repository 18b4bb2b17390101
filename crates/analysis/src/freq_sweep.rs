//! Noise sensitivity to stimulus frequency (paper Figs. 7a and 9).
//!
//! Runs one maximum dI/dt stressmark per core over a spectrum of stimulus
//! frequencies — unsynchronized for Fig. 7a, TOD-synchronized for
//! Fig. 9 — and reports per-core %p2p skitter readings.

use crate::experiment::JobList;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::ac::log_space;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::SimJob;
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Stimulus frequencies to explore.
    pub freqs_hz: Vec<f64>,
    /// Simulation window per point (`None` = auto).
    pub window_s: Option<f64>,
    /// Free-run phase seeds to average over (unsynchronized runs sample
    /// several relative alignments, like repeated runs on hardware).
    pub seeds: Vec<u64>,
}

impl SweepConfig {
    /// The paper-scale sweep: ~1.5 kHz to 15 MHz.
    pub fn paper() -> Self {
        SweepConfig {
            freqs_hz: log_space(1.5e3, 15e6, 28).expect("paper sweep bounds are valid"),
            window_s: None,
            seeds: vec![1, 2, 3],
        }
    }

    /// A reduced sweep for tests.
    pub fn reduced() -> Self {
        SweepConfig {
            freqs_hz: vec![25e3, 45e3, 300e3, 2.5e6, 10e6],
            window_s: Some(60e-6),
            seeds: vec![1],
        }
    }
}

/// One sweep point: per-core noise at one stimulus frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Stimulus frequency in hertz.
    pub freq_hz: f64,
    /// Seed-averaged per-core %p2p readings.
    pub per_core_pct: [f64; NUM_CORES],
}

impl SweepPoint {
    /// Highest per-core reading at this frequency.
    pub fn max_pct(&self) -> f64 {
        self.per_core_pct
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Result of a frequency sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Whether the stressmarks were TOD-synchronized.
    pub synced: bool,
    /// One point per frequency, in input order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The frequency with the highest worst-core reading and that
    /// reading, or `None` for an empty sweep.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.freq_hz, p.max_pct()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Reading at the point closest to `freq_hz`.
    pub fn at(&self, freq_hz: f64) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| {
            (a.freq_hz - freq_hz)
                .abs()
                .total_cmp(&(b.freq_hz - freq_hz).abs())
        })
    }

    /// Renders the paper-style series: frequency, per-core %p2p.
    pub fn render(&self) -> String {
        let mut t = Table::new(if self.synced {
            "Fig. 9: per-core %p2p vs stimulus frequency (synchronized every 4 ms)"
        } else {
            "Fig. 7a: per-core %p2p vs stimulus frequency (no synchronization)"
        });
        t.columns(
            std::iter::once("freq_hz".to_string())
                .chain((0..NUM_CORES).map(|i| format!("core{i}_pct_p2p"))),
        );
        for p in &self.points {
            t.row(
                std::iter::once(format!("{:.4e}", p.freq_hz))
                    .chain(p.per_core_pct.iter().map(|v| format!("{v:.1}"))),
            );
        }
        if let Some((f, m)) = self.peak() {
            t.note(&format!("peak: {m:.1} %p2p at {f:.3e} Hz"));
        }
        t.finish()
    }
}

/// The frequency-sweep experiment: Fig. 7a (`synced = false`) or Fig. 9
/// (`synced = true`).
#[derive(Debug, Clone)]
pub struct SweepExperiment {
    /// The sweep grid.
    pub cfg: SweepConfig,
    /// TOD synchronization on/off.
    pub synced: bool,
}

impl JobList for SweepExperiment {
    type Artifact = SweepResult;

    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError> {
        let batch = SimJob::batch(tb.chip());
        let mut jobs = Vec::with_capacity(self.cfg.freqs_hz.len() * self.cfg.seeds.len().max(1));
        for &freq in &self.cfg.freqs_hz {
            let sync_spec = self.synced.then(SyncSpec::paper_default);
            let sm = tb.max_stressmark(freq, sync_spec);
            let loads: [CoreLoad; NUM_CORES] =
                std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
            for &seed in &self.cfg.seeds {
                jobs.push(batch.job(
                    loads.clone(),
                    NoiseRunConfig {
                        window_s: self.cfg.window_s,
                        record_traces: false,
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
    ) -> Result<SweepResult, PdnError> {
        let seeds = self.cfg.seeds.len().max(1);
        let points = self
            .cfg
            .freqs_hz
            .iter()
            .zip(outcomes.chunks(seeds))
            .map(|(&freq_hz, chunk)| {
                let mut acc = [0.0f64; NUM_CORES];
                for out in chunk {
                    for (a, v) in acc.iter_mut().zip(out.pct_p2p.iter().copied()) {
                        *a += v;
                    }
                }
                SweepPoint {
                    freq_hz,
                    per_core_pct: acc.map(|v| v / seeds as f64),
                }
            })
            .collect();
        Ok(SweepResult {
            synced: self.synced,
            points,
        })
    }

    fn render(&self, artifact: &SweepResult) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use voltnoise_system::engine::Engine;

    /// The reduced sweep, unsynchronized or synchronized, run once for
    /// every test that reads it.
    fn sweep(synced: bool) -> &'static SweepResult {
        static CELLS: [OnceLock<SweepResult>; 2] = [OnceLock::new(), OnceLock::new()];
        CELLS[usize::from(synced)].get_or_init(|| {
            SweepExperiment {
                cfg: SweepConfig::reduced(),
                synced,
            }
            .run(Testbed::fast(), &Engine::new())
            .expect("sweep runs")
        })
    }

    #[test]
    fn unsync_sweep_peaks_in_die_band() {
        let res = sweep(false);
        let (f_peak, m_peak) = res.peak().expect("non-empty sweep");
        assert!(
            (1e6..5e6).contains(&f_peak),
            "peak at {f_peak:.3e} ({m_peak:.1}%)"
        );
        // Floor is clearly below the peak.
        let floor = res.at(10e6).unwrap().max_pct();
        assert!(m_peak > floor + 5.0, "peak {m_peak} floor {floor}");
    }

    #[test]
    fn sync_sweep_exceeds_unsync_everywhere() {
        let (unsync, synced) = (sweep(false), sweep(true));
        for (u, s) in unsync.points.iter().zip(&synced.points) {
            assert!(
                s.max_pct() > u.max_pct() + 8.0,
                "at {:.3e}: sync {} vs unsync {}",
                u.freq_hz,
                s.max_pct(),
                u.max_pct()
            );
        }
    }

    #[test]
    fn sync_off_resonance_beats_unsync_resonance() {
        // The paper's key claim: synchronization matters more than
        // resonance (§V-B).
        let (unsync, synced) = (sweep(false), sweep(true));
        let unsync_peak = unsync.peak().expect("non-empty sweep").1;
        let sync_mid = synced.at(300e3).unwrap().max_pct();
        assert!(
            sync_mid > unsync_peak,
            "sync mid-band {sync_mid} vs unsync peak {unsync_peak}"
        );
    }

    #[test]
    fn empty_sweep_has_no_peak() {
        let res = SweepResult {
            synced: false,
            points: Vec::new(),
        };
        assert!(res.peak().is_none());
        assert!(res.at(1e6).is_none());
    }

    #[test]
    fn render_has_header_and_rows() {
        // The first two points are exactly a two-frequency sweep's.
        let res = SweepResult {
            synced: false,
            points: sweep(false).points[..2].to_vec(),
        };
        let text = res.render();
        assert!(text.contains("Fig. 7a"));
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 3);
    }
}
