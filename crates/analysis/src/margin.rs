//! Available voltage margin via Vmin experiments (paper Fig. 12).
//!
//! For each stimulus frequency and number of consecutive ΔI events, the
//! operating voltage is lowered in 0.5 % steps until the R-Unit detects
//! the first failure. Margins are reported relative to the worst case
//! (the configuration that fails at the highest bias), and an
//! extrapolated "worst-case customer code" line assumes unsynchronized
//! events at 80 % of the maximum ΔI.
//!
//! Each descent solves its chip once, at nominal bias. The PDN is linear
//! and no load current depends on the rail, so undervolting to `bias`
//! lowers every node by exactly `v_nom − v_nom·bias`: every later step
//! reads the nominal minimum shifted by that rail drop. Only a step whose
//! shifted minimum lies within a stated bound of the critical path's
//! failure voltage solves its undervolted chip, so rounding can never
//! flip an R-Unit decision.

use crate::experiment::{Experiment, ExperimentFailure};
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_measure::vmin::{run_vmin, CriticalPath, RUnit, VminConfig};
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::{CompiledStressmark, SyncSpec};
use voltnoise_system::engine::{Engine, SimJob};
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
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
pub(crate) struct MarginCell {
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
    pub(crate) cells: Vec<MarginCell>,
    /// The worst-case failing bias (highest bias to fail).
    pub worst_bias: f64,
    /// Extrapolated customer-code margin relative to the worst case.
    pub customer_margin_pct: f64,
}

impl MarginResult {
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

/// Bound on how far a rail-shifted step minimum may lie from the
/// critical path's failure voltage and still be trusted. The solved
/// minimum matches the shifted one to a few 1e-13 V (the rail-shift
/// oracle in `tests/solver_core.rs` holds it to this bound), so a
/// shifted minimum farther than this from `failure_voltage()` sits on
/// the same side of it as the solved one.
const SHIFT_BOUND_V: f64 = 1e-9;

/// Run configuration of every Vmin step.
fn step_config(cfg: &MarginConfig) -> NoiseRunConfig {
    NoiseRunConfig {
        window_s: Some(cfg.window_s),
        record_traces: false,
        seed: 1,
        ..NoiseRunConfig::default()
    }
}

/// Lowest minimum over all sites of one outcome.
fn lowest_v_min(out: &NoiseOutcome) -> f64 {
    out.v_min.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Solves one Vmin step: the loads on the chip undervolted to `bias`,
/// as a content-keyed [`SimJob`]. Returns the lowest site minimum.
fn solved_v_min(
    tb: &Testbed,
    engine: &Engine,
    loads: &[CoreLoad; NUM_CORES],
    cfg: &MarginConfig,
    bias: f64,
) -> Result<f64, PdnError> {
    let chip = tb.chip().undervolted(bias)?;
    let job = SimJob::new(Arc::new(chip), loads.clone(), step_config(cfg));
    Ok(lowest_v_min(&*engine.run_one(&job)?))
}

/// One Vmin descent: lowers the bias in the paper's steps until the
/// R-Unit flags a failure.
///
/// The PDN is linear and no load current depends on the rail, so
/// undervolting the VRM source from `v_nom` to `v_nom·bias` moves every
/// node by exactly `v_nom − v_nom·bias`. Each step therefore reads the
/// nominal solve's minimum `v_min_nominal` shifted by that amount. A
/// step whose shifted minimum lies within [`SHIFT_BOUND_V`] of the
/// failure voltage, where rounding could flip the R-Unit's decision,
/// reads `solve(bias)` instead.
fn descend(
    vmin: &VminConfig,
    path: &CriticalPath,
    v_nom: f64,
    v_min_nominal: f64,
    mut solve: impl FnMut(f64) -> Result<f64, PdnError>,
) -> Result<Option<f64>, PdnError> {
    let v_fail = path.failure_voltage();
    let mut error: Option<PdnError> = None;
    let mut runit = RUnit::new();
    let result = run_vmin(vmin, |bias| {
        if error.is_some() {
            return true; // abort quickly once an error occurred
        }
        // Mirrors `Chip::undervolted`'s `v_nom *= bias`.
        let shifted = v_min_nominal - (v_nom - v_nom * bias);
        let v_min = if (shifted - v_fail).abs() > SHIFT_BOUND_V {
            shifted
        } else {
            match solve(bias) {
                Ok(v) => v,
                Err(e) => {
                    error = Some(e);
                    return true;
                }
            }
        };
        runit.check(path, v_min)
    });
    match error {
        Some(e) => Err(e),
        None => Ok(result.failing_bias),
    }
}

/// Grid cells: (stimulus frequency, consecutive events).
type Grid = Vec<(f64, Option<u32>)>;

/// The descents of a campaign: the grid cells in row-major order, each
/// with the loads of all cores, then the customer-code descent.
fn descent_loads(tb: &Testbed, cfg: &MarginConfig) -> (Grid, Vec<[CoreLoad; NUM_CORES]>) {
    let mut grid: Grid = Vec::new();
    for &freq in &cfg.freqs_hz {
        for &events in &cfg.event_counts {
            grid.push((freq, events));
        }
    }
    // Customer-code extrapolation: unsynchronized, 80 % of max ΔI.
    let customer_sm = scaled_stressmark(
        tb.max_stressmark(2.5e6, None),
        cfg.customer_delta_i_fraction,
    );
    let stressmarks = grid.iter().map(|&(freq, events)| {
        let sync = events.map(|e| SyncSpec {
            events: e,
            ..SyncSpec::paper_default()
        });
        tb.max_stressmark(freq, sync)
    });
    let loads = stressmarks
        .chain([customer_sm])
        .map(|sm| std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone())))
        .collect();
    (grid, loads)
}

/// Assembles the result from the failing bias of every descent, in
/// [`descent_loads`] order.
fn assemble(grid: &Grid, mut biases: Vec<Option<f64>>) -> MarginResult {
    let customer_bias = biases.pop().flatten();
    let worst_bias = (biases.iter().flatten()).fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let rel = |b: Option<f64>| b.map_or(100.0, |b| (worst_bias - b) * 100.0);
    let cells = (grid.iter().zip(biases))
        .map(|(&(freq_hz, events), failing_bias)| MarginCell {
            freq_hz,
            events,
            failing_bias,
            margin_rel_pct: rel(failing_bias),
        })
        .collect();
    MarginResult {
        cells,
        worst_bias,
        customer_margin_pct: rel(customer_bias),
    }
}

/// The Fig. 12 available-margin experiment.
///
/// Every descent (each grid cell, then the customer-code line) is one
/// job at nominal bias; the experiment solves them all in one
/// [`Engine::run_jobs`] batch and then walks each descent's 0.5 %
/// ladder on rail-shifted minima (see the module docs), so it
/// implements [`Experiment::run`] rather than a fixed job list. Only a
/// step that lands within 1e-9 V of the failure voltage solves its
/// undervolted chip.
#[derive(Debug, Clone)]
pub struct MarginExperiment {
    /// The campaign grid.
    pub cfg: MarginConfig,
}

impl Experiment for MarginExperiment {
    type Artifact = MarginResult;

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<MarginResult, ExperimentFailure> {
        let cfg = &self.cfg;
        let path = tb.chip().config().critical_path;
        let v_nom = tb.chip().config().pdn.v_nom;
        let (grid, loads) = descent_loads(tb, cfg);
        let batch = SimJob::batch(tb.chip());
        let jobs: Vec<SimJob> = (loads.iter())
            .map(|l| batch.job(l.clone(), step_config(cfg)))
            .collect();
        let nominal = engine.run_jobs(&jobs)?;
        let biases = (loads.iter().zip(&nominal))
            .map(|(l, out)| {
                descend(&cfg.vmin, &path, v_nom, lowest_v_min(out), |bias| {
                    solved_v_min(tb, engine, l, cfg, bias)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(assemble(&grid, biases))
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

    /// The reference descent: every step solves its undervolted chip.
    fn solved_descent(
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
                return true;
            }
            match solved_v_min(tb, engine, loads, cfg, bias) {
                Ok(v_min) => runit.check(path, v_min),
                Err(e) => {
                    error = Some(e);
                    true
                }
            }
        });
        match error {
            Some(e) => Err(e),
            None => Ok(result.failing_bias),
        }
    }

    #[test]
    fn rail_shifted_descents_match_the_solved_reference() {
        let tb = Testbed::fast();
        let cfg = MarginConfig::reduced();
        let engine = Engine::new();
        let path = tb.chip().config().critical_path;
        let (grid, loads) = descent_loads(tb, &cfg);
        let biases = (loads.iter())
            .map(|l| solved_descent(tb, &engine, l, &cfg, &path))
            .collect::<Result<Vec<_>, _>>()
            .expect("solves");
        assert_eq!(*result(), assemble(&grid, biases));
    }

    #[test]
    fn a_step_on_the_failure_voltage_is_solved_not_shifted() {
        let tb = Testbed::fast();
        let cfg = MarginConfig::reduced();
        let engine = Engine::with_workers(1);
        let (_, loads) = descent_loads(tb, &cfg);
        let loads = loads.last().expect("the customer descent");
        let v_nom = tb.chip().config().pdn.v_nom;
        let v_min_nominal = solved_v_min(tb, &engine, loads, &cfg, 1.0).expect("solves");
        // The fourth bias of the ladder, as `run_vmin` accumulates it.
        let mut ladder = Vec::new();
        run_vmin(&cfg.vmin, |bias| {
            ladder.push(bias);
            false
        });
        let bias = ladder[3];
        let shifted = v_min_nominal - (v_nom - v_nom * bias);
        // A path whose failure voltage is that step's shifted minimum:
        // `failure_voltage = vth·(1 − c) + v_nom·c` with
        // `c = delay_fraction^(1/beta)`.
        let base = tb.chip().config().critical_path;
        let c = base.nominal_delay_fraction.powf(1.0 / base.beta);
        let path = CriticalPath {
            vth: (shifted - base.v_nom * c) / (1.0 - c),
            ..base
        };
        assert!((path.failure_voltage() - shifted).abs() < 1e-14);

        let mut solved_at = Vec::new();
        let failing = descend(&cfg.vmin, &path, v_nom, v_min_nominal, |b| {
            solved_at.push(b);
            solved_v_min(tb, &engine, loads, &cfg, b)
        })
        .expect("solves");
        assert_eq!(
            solved_at,
            [bias],
            "only the step on the failure voltage solves"
        );
        let reference = solved_descent(tb, &engine, loads, &cfg, &path).expect("solves");
        assert_eq!(failing, reference);
        assert!(failing.is_some());
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
        let row = |events| -> Vec<f64> {
            r.cells
                .iter()
                .filter(|c| c.events == events)
                .map(|c| c.margin_rel_pct)
                .collect()
        };
        let (one, thousand) = (row(Some(1)), row(Some(1000)));
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
