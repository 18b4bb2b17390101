//! ROM error study: reduced-order macromodel accuracy vs error budget.
//!
//! Runs the drawer ΔI-step study once with the full-order solver and
//! once per candidate [`RomSpec`] budget, tabulating the order the
//! calibration settled on, the calibrated worst-case error it reports,
//! and the droop-figure gap actually observed against the full solve.
//! This is the empirical backing for the macromodel's error-budget
//! contract (DESIGN.md "Solve backends"): the achieved gap must sit
//! within the caller's budget while the step count drops by an order of
//! magnitude. Not part of the golden report — runnable on demand
//! (`rom-error`) and exercised by the bench harness.

use crate::experiment::Experiment;
use serde::{Deserialize, Serialize};
use voltnoise_pdn::{PdnError, RomSpec, SolveSpec};
use voltnoise_system::engine::Engine;
use voltnoise_system::noise::{DrawerStepConfig, DrawerStepOutcome};
use voltnoise_system::testbed::Testbed;

/// Configuration of the ROM error study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RomErrorConfig {
    /// The drawer step to solve (its `solve` field is overridden per
    /// row; the full-order reference forces [`SolveSpec::full`]).
    pub base: DrawerStepConfig,
    /// Error budgets (volts) to calibrate the macromodel against, one
    /// study row each.
    pub budgets_v: Vec<f64>,
}

impl RomErrorConfig {
    /// Paper-scale study: the default drawer window, three budgets
    /// spanning 4x.
    pub fn paper() -> RomErrorConfig {
        RomErrorConfig {
            base: DrawerStepConfig::default(),
            budgets_v: vec![4e-3, 2e-3, 1e-3],
        }
    }

    /// Reduced study for quick runs: a shorter window, the default
    /// budget only.
    pub fn reduced() -> RomErrorConfig {
        RomErrorConfig {
            base: DrawerStepConfig {
                window_s: 2e-6,
                ..DrawerStepConfig::default()
            },
            budgets_v: vec![1e-3],
        }
    }
}

/// One study row: a budget and what the macromodel achieved under it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RomErrorRow {
    /// The caller-supplied error budget (volts).
    pub budget_v: f64,
    /// Reduced order the calibration settled on.
    pub states: usize,
    /// Worst-case probe error the calibration measured (volts).
    pub calibrated_error_v: f64,
    /// Largest per-chip droop-depth gap vs the full-order solve (volts).
    pub droop_gap_v: f64,
    /// Transient steps the reduced solve took.
    pub steps: usize,
}

/// The assembled study: the full-order reference plus one row per
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RomErrorStudy {
    /// The study configuration.
    pub config: RomErrorConfig,
    /// The full-order reference outcome.
    pub full: DrawerStepOutcome,
    /// One row per budget, in `budgets_v` order.
    pub rows: Vec<RomErrorRow>,
}

impl RomErrorStudy {
    /// Renders the study as budget/order/error rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# ROM error study: drawer step, {} chips, {} MNA unknowns, full solve {} steps\n\
             budget_mv,states,calibrated_error_mv,droop_gap_mv,steps,step_ratio\n",
            self.config.base.drawer.chips, self.full.system_size, self.full.steps
        );
        for r in &self.rows {
            let ratio = self.full.steps as f64 / (r.steps.max(1)) as f64;
            out.push_str(&format!(
                "{:.3},{},{:.4},{:.4},{},{:.1}\n",
                r.budget_v * 1e3,
                r.states,
                r.calibrated_error_v * 1e3,
                r.droop_gap_v * 1e3,
                r.steps,
                ratio
            ));
        }
        out
    }
}

fn droop_gap(full: &DrawerStepOutcome, rom: &DrawerStepOutcome) -> f64 {
    full.droop_depth_v
        .iter()
        .zip(&rom.droop_depth_v)
        .map(|(a, b)| (a - b).abs())
        .fold(
            (full.source_core_droop_v - rom.source_core_droop_v).abs(),
            f64::max,
        )
}

/// The ROM error study experiment. Each (full or reduced) drawer solve
/// routes through [`Engine::run_drawer`], so a repeat run on the same
/// engine answers from the drawer memo.
#[derive(Debug, Clone)]
pub(crate) struct RomErrorExperiment {
    /// The study configuration to run.
    pub cfg: RomErrorConfig,
}

impl Experiment for RomErrorExperiment {
    type Artifact = RomErrorStudy;

    fn id(&self) -> &'static str {
        "rom-error"
    }

    fn title(&self) -> &'static str {
        "ROM study: macromodel error vs budget on the drawer step"
    }

    fn run(&self, _tb: &Testbed, engine: &Engine) -> Result<RomErrorStudy, PdnError> {
        let cfg = &self.cfg;
        let solve = |spec: SolveSpec| -> Result<DrawerStepOutcome, PdnError> {
            let step = DrawerStepConfig {
                solve: spec,
                ..cfg.base.clone()
            };
            Ok((*engine.run_drawer(&step)?).clone())
        };
        let full = solve(SolveSpec::full())?;
        let mut rows = Vec::with_capacity(cfg.budgets_v.len());
        for &budget_v in &cfg.budgets_v {
            let rom = solve(SolveSpec::reduced(RomSpec {
                budget_v,
                ..RomSpec::default()
            }))?;
            rows.push(RomErrorRow {
                budget_v,
                states: rom.rom_states,
                calibrated_error_v: rom.rom_max_error_v,
                droop_gap_v: droop_gap(&full, &rom),
                steps: rom.steps,
            });
        }
        Ok(RomErrorStudy {
            config: cfg.clone(),
            full,
            rows,
        })
    }

    fn render(&self, artifact: &RomErrorStudy) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The reduced study and a two-budget study sharing its full and
    /// 1 mV solves, run once on one engine.
    fn studies() -> &'static (RomErrorStudy, RomErrorStudy) {
        static CELL: OnceLock<(RomErrorStudy, RomErrorStudy)> = OnceLock::new();
        CELL.get_or_init(|| {
            let engine = Engine::new();
            let run = |cfg| {
                RomErrorExperiment { cfg }
                    .run(Testbed::fast(), &engine)
                    .expect("study")
            };
            let reduced = RomErrorConfig::reduced();
            let two_budgets = RomErrorConfig {
                base: reduced.base.clone(),
                budgets_v: vec![4e-3, 1e-3],
            };
            (run(reduced), run(two_budgets))
        })
    }

    #[test]
    fn reduced_study_meets_budgets_and_saves_steps() {
        let cfg = RomErrorConfig::reduced();
        let study = &studies().0;
        assert_eq!(study.rows.len(), cfg.budgets_v.len());
        for row in &study.rows {
            assert!(row.states > 0, "ROM path must report its order");
            assert!(
                row.calibrated_error_v <= row.budget_v,
                "calibrated error {} above budget {}",
                row.calibrated_error_v,
                row.budget_v
            );
            assert!(
                row.droop_gap_v <= 3.0 * row.budget_v,
                "droop gap {} far above budget {}",
                row.droop_gap_v,
                row.budget_v
            );
            assert!(
                row.steps < study.full.steps,
                "reduced solve should take fewer steps ({} vs {})",
                row.steps,
                study.full.steps
            );
        }
        let rendered = study.render();
        assert!(rendered.contains("budget_mv"));
        assert!(rendered.lines().count() >= 2 + cfg.budgets_v.len());
    }

    #[test]
    fn experiment_is_registered() {
        let entry = crate::experiment::find("rom-error").expect("registered");
        assert!(!entry.in_report, "rom-error must stay out of the report");
    }

    #[test]
    fn tighter_budget_never_lowers_order() {
        let study = &studies().1;
        assert!(study.rows[1].states >= study.rows[0].states);
    }
}
