//! Available voltage margin via Vmin experiments (paper Fig. 12).
//!
//! For each stimulus frequency and number of consecutive ΔI events, the
//! operating voltage is lowered in 0.5 % steps until the R-Unit detects
//! the first failure. Margins are reported relative to the worst case
//! (the configuration that fails at the highest bias), and an
//! extrapolated "worst-case customer code" line assumes unsynchronized
//! events at 80 % of the maximum ΔI.

use crate::experiment::Experiment;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_measure::vmin::{run_vmin, CriticalPath, RUnit, VminConfig};
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::{CompiledStressmark, SyncSpec};
use voltnoise_system::engine::{Engine, SimJob};
use voltnoise_system::noise::{CoreLoad, NoiseRunConfig};
use voltnoise_system::testbed::Testbed;

/// Vmin campaign configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarginConfig {
    /// Stimulus frequencies: resonant bands and their surroundings plus
    /// the 1 Hz / 100 MHz extremes.
    pub freqs_hz: Vec<f64>,
    /// Consecutive-ΔI-event counts; `None` = unsynchronized (∞ events).
    pub event_counts: Vec<Option<u32>>,
    /// Noise-simulation window per Vmin step.
    pub window_s: f64,
    /// Undervolting harness configuration.
    pub vmin: VminConfig,
    /// ΔI fraction assumed for the customer-code extrapolation.
    pub customer_delta_i_fraction: f64,
}

impl MarginConfig {
    /// Paper-style grid (§V-E): resonant bands 35 kHz / 2.5 MHz and
    /// surroundings, plus 1 Hz and 100 MHz; events 1..1000 and ∞.
    pub fn paper() -> Self {
        MarginConfig {
            freqs_hz: vec![1.0, 25e3, 35e3, 50e3, 1.75e6, 2.5e6, 3.5e6, 100e6],
            event_counts: vec![
                Some(1),
                Some(2),
                Some(4),
                Some(8),
                Some(16),
                Some(1000),
                None,
            ],
            window_s: 40e-6,
            vmin: VminConfig::default(),
            customer_delta_i_fraction: 0.8,
        }
    }

    /// Reduced grid for tests.
    pub fn reduced() -> Self {
        MarginConfig {
            freqs_hz: vec![35e3, 2.5e6],
            event_counts: vec![Some(1), Some(1000), None],
            window_s: 30e-6,
            vmin: VminConfig::default(),
            customer_delta_i_fraction: 0.8,
        }
    }
}

/// One Vmin grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarginCell {
    /// Stimulus frequency.
    pub freq_hz: f64,
    /// Consecutive events per burst; `None` = no synchronization.
    pub events: Option<u32>,
    /// Bias at first failure (`None` = never failed above the floor).
    pub failing_bias: Option<f64>,
    /// Margin relative to the worst case, in percent of nominal voltage.
    pub margin_rel_pct: f64,
}

/// Result of the margin campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarginResult {
    /// All grid cells.
    pub cells: Vec<MarginCell>,
    /// The worst-case failing bias (highest bias to fail).
    pub worst_bias: f64,
    /// Extrapolated customer-code margin relative to the worst case.
    pub customer_margin_pct: f64,
}

impl MarginResult {
    /// Cells of one event count, in frequency order.
    pub fn row(&self, events: Option<u32>) -> Vec<&MarginCell> {
        self.cells.iter().filter(|c| c.events == events).collect()
    }

    /// Mean relative margin of the synchronized cells (any finite event
    /// count).
    pub fn mean_sync_margin(&self) -> f64 {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.events.is_some())
            .map(|c| c.margin_rel_pct)
            .collect();
        crate::stats::mean(&xs)
    }

    /// Mean relative margin of the unsynchronized cells.
    pub fn mean_unsync_margin(&self) -> f64 {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.events.is_none())
            .map(|c| c.margin_rel_pct)
            .collect();
        crate::stats::mean(&xs)
    }

    /// Renders the Fig. 12 table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 12: available margin (% Vbias to first failure, relative to worst case)",
        );
        t.columns(["freq_hz", "events", "failing_bias", "margin_rel_pct"]);
        for c in &self.cells {
            t.row([
                format!("{:.3e}", c.freq_hz),
                c.events.map_or("inf/nosync".to_string(), |e| e.to_string()),
                c.failing_bias
                    .map_or("none".to_string(), |b| format!("{b:.4}")),
                format!("{:.2}", c.margin_rel_pct),
            ]);
        }
        t.note(&format!("worst-case failing bias: {:.4}", self.worst_bias));
        t.note(&format!(
            "extrapolated customer-code margin: {:.2} %",
            self.customer_margin_pct
        ));
        t.finish()
    }
}

/// One Vmin descent: lowers the bias until the R-Unit flags a failure.
/// Each bias step is a content-keyed [`SimJob`] on an undervolted chip,
/// so repeated descents over the same grid hit the engine cache.
fn vmin_of_loads(
    tb: &Testbed,
    engine: &Engine,
    loads: &[CoreLoad; NUM_CORES],
    cfg: &MarginConfig,
    path: &CriticalPath,
) -> Result<Option<f64>, PdnError> {
    let mut error: Option<PdnError> = None;
    let mut runit = RUnit::new();
    let result = run_vmin(&cfg.vmin, |bias| {
        if error.is_some() {
            return true; // abort quickly once an error occurred
        }
        let chip = match tb.chip().undervolted(bias) {
            Ok(c) => c,
            Err(e) => {
                error = Some(e);
                return true;
            }
        };
        let job = SimJob::new(
            Arc::new(chip),
            loads.clone(),
            NoiseRunConfig {
                window_s: Some(cfg.window_s),
                record_traces: false,
                seed: 1,
                ..NoiseRunConfig::default()
            },
        );
        let out = match engine.run_one(&job) {
            Ok(o) => o,
            Err(e) => {
                error = Some(e);
                return true;
            }
        };
        let v_min = out.v_min.iter().copied().fold(f64::INFINITY, f64::min);
        runit.check(path, v_min)
    });
    match error {
        Some(e) => Err(e),
        None => Ok(result.failing_bias),
    }
}

/// The Fig. 12 available-margin experiment.
///
/// The Vmin descent adapts each next bias to the previous outcome, so the
/// job list cannot be enumerated up front; this experiment implements
/// [`Experiment::run`] and drives the engine directly, parallelizing over
/// grid cells and the customer-code descent with [`Engine::par_map`]
/// while each descent stays serial.
#[derive(Debug, Clone)]
pub struct MarginExperiment {
    /// The campaign grid.
    pub cfg: MarginConfig,
}

impl Experiment for MarginExperiment {
    type Artifact = MarginResult;

    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "Fig. 12: available voltage margin (Vmin campaign)"
    }

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<MarginResult, PdnError> {
        let cfg = &self.cfg;
        let path = tb.chip().config().critical_path;
        let mut grid: Vec<(f64, Option<u32>)> = Vec::new();
        for &freq in &cfg.freqs_hz {
            for &events in &cfg.event_counts {
                grid.push((freq, events));
            }
        }
        // The customer-code descent rides as one more item of the same
        // pool, after the grid, so the lowest-index error is still a
        // grid cell's before the customer's.
        let customer_sm = scaled_stressmark(
            tb.max_stressmark(2.5e6, None),
            cfg.customer_delta_i_fraction,
        );
        let descents: Vec<Option<(f64, Option<u32>)>> =
            grid.iter().copied().map(Some).chain([None]).collect();
        let mut biases = engine.par_map(&descents, |descent| {
            let sm = match *descent {
                Some((freq, events)) => {
                    let sync = events.map(|e| SyncSpec {
                        events: e,
                        ..SyncSpec::paper_default()
                    });
                    tb.max_stressmark(freq, sync)
                }
                // Customer-code extrapolation: unsynchronized, 80 % of
                // max ΔI.
                None => customer_sm.clone(),
            };
            let loads: [CoreLoad; NUM_CORES] =
                std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
            vmin_of_loads(tb, engine, &loads, cfg, &path)
        })?;
        let customer_bias = biases.pop().expect("the customer descent is the last item");
        let raw: Vec<(f64, Option<u32>, Option<f64>)> = grid
            .iter()
            .zip(biases)
            .map(|(&(freq, events), bias)| (freq, events, bias))
            .collect();

        let worst_bias = raw
            .iter()
            .filter_map(|(_, _, b)| *b)
            .fold(f64::NEG_INFINITY, f64::max);
        let rel = |b: Option<f64>| b.map_or(100.0, |b| (worst_bias - b) * 100.0);
        let cells = raw
            .into_iter()
            .map(|(freq_hz, events, failing_bias)| MarginCell {
                freq_hz,
                events,
                failing_bias,
                margin_rel_pct: rel(failing_bias),
            })
            .collect();
        Ok(MarginResult {
            cells,
            worst_bias,
            customer_margin_pct: rel(customer_bias),
        })
    }

    fn render(&self, artifact: &MarginResult) -> String {
        artifact.render()
    }
}

/// Rescales a stressmark's high-phase current so its ΔI becomes
/// `fraction` of the original.
fn scaled_stressmark(mut sm: CompiledStressmark, fraction: f64) -> CompiledStressmark {
    let delta = sm.delta_i();
    sm.i_high_a = sm.i_low_a + delta * fraction;
    sm
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn result() -> &'static MarginResult {
        static CELL: OnceLock<MarginResult> = OnceLock::new();
        CELL.get_or_init(|| {
            MarginExperiment {
                cfg: MarginConfig::reduced(),
            }
            .run(Testbed::fast(), &Engine::new())
            .expect("runs")
        })
    }

    #[test]
    fn synchronized_margins_are_much_smaller_than_unsync() {
        let r = result();
        let sync = r.mean_sync_margin();
        let unsync = r.mean_unsync_margin();
        // Paper: sync 0-2 %, unsync 5-7 % — "more than doubled".
        assert!(
            unsync > 2.0 * sync.max(0.5),
            "unsync {unsync} vs sync {sync}"
        );
        assert!(sync < 3.0, "sync margin {sync}");
    }

    #[test]
    fn single_synchronized_event_is_enough() {
        // Paper: "the noise generated with just a single synchronized dI
        // event is large enough" — events=1 margins track events=1000.
        let r = result();
        let one: Vec<f64> = r.row(Some(1)).iter().map(|c| c.margin_rel_pct).collect();
        let thousand: Vec<f64> = r.row(Some(1000)).iter().map(|c| c.margin_rel_pct).collect();
        for (a, b) in one.iter().zip(&thousand) {
            assert!((a - b).abs() < 2.5, "events=1 {a} vs events=1000 {b}");
        }
    }

    #[test]
    fn customer_line_leaves_margin() {
        let r = result();
        assert!(
            r.customer_margin_pct > r.mean_sync_margin(),
            "customer {} vs sync {}",
            r.customer_margin_pct,
            r.mean_sync_margin()
        );
    }

    #[test]
    fn worst_bias_is_a_real_failure_point() {
        let r = result();
        assert!(
            r.worst_bias > 0.85 && r.worst_bias < 1.0,
            "{}",
            r.worst_bias
        );
        assert!(r.cells.iter().any(|c| c.margin_rel_pct < 0.75));
    }

    #[test]
    fn render_contains_all_cells() {
        let r = result();
        let text = r.render();
        assert!(text.contains("inf/nosync"));
        assert_eq!(
            text.lines()
                .filter(|l| !l.starts_with('#') && l.contains(','))
                .count(),
            r.cells.len() + 1 // +1 header
        );
    }
}
