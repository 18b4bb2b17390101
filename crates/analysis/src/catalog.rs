//! The experiment catalog: one [`RegistryEntry`] per paper artifact, in
//! full-report order. It is the only place an artifact's id and title
//! are written; each entry's `run` only picks the experiment's
//! configuration at the requested scale.
//!
//! Entries sharing a job list (the ΔI campaign behind Figs. 11a, 11b and
//! 13a) run the same [`crate::experiment::Experiment`] with different
//! views, so when a report walks the registry with one engine the later
//! views assemble entirely from the memo cache.

use crate::ablation::{AblationConfig, AblationExperiment};
use crate::delta_i::{DeltaIConfig, DeltaIExperiment, DeltaIView};
use crate::experiment::{run_to_output, ExperimentFailure, ExperimentOutput, RegistryEntry};
use crate::extensions::{ExtensionsConfig, ExtensionsExperiment};
use crate::freq_sweep::{SweepConfig, SweepExperiment};
use crate::funnel::FunnelExperiment;
use crate::guardband_study::{GuardbandConfig, GuardbandExperiment};
use crate::impedance::{ImpedanceConfig, ImpedanceExperiment};
use crate::mapping_gain::{MappingGainConfig, MappingGainExperiment};
use crate::margin::{MarginConfig, MarginExperiment};
use crate::misalignment::{MisalignConfig, MisalignExperiment};
use crate::propagation::{
    DrawerPropagationExperiment, MappingComparisonExperiment, StepResponseExperiment,
};
use crate::rack_map::{RackMapConfig, RackMapExperiment};
use crate::resonance_entropy::{ResonanceEntropyConfig, ResonanceEntropyExperiment};
use crate::rom_error::{RomErrorConfig, RomErrorExperiment};
use crate::scope_shot::{ScopeConfig, ScopeShotExperiment};
use crate::table1::Table1Experiment;
use voltnoise_system::engine::Engine;
use voltnoise_system::noise::DrawerStepConfig;
use voltnoise_system::testbed::Testbed;

/// The reduced configuration when `reduced`, else the paper-scale one.
fn scaled<C>(reduced: bool, fast: fn() -> C, paper: fn() -> C) -> C {
    if reduced {
        fast()
    } else {
        paper()
    }
}

/// One view of the shared ΔI campaign.
fn delta_i(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
    view: DeltaIView,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = scaled(reduced, DeltaIConfig::reduced, DeltaIConfig::paper);
    run_to_output(&DeltaIExperiment { cfg, view }, tb, engine)
}

/// All registered experiments, in full-report order.
pub(crate) static ENTRIES: &[RegistryEntry] = &[
    RegistryEntry {
        id: "table1",
        title: "Table I: EPI profile extremes",
        in_report: true,
        run: |tb, engine, _| run_to_output(&Table1Experiment, tb, engine),
    },
    RegistryEntry {
        id: "fig5",
        title: "Fig. 5: maximum-power sequence search funnel",
        in_report: true,
        run: |tb, engine, _| run_to_output(&FunnelExperiment, tb, engine),
    },
    RegistryEntry {
        id: "fig7a",
        title: "Fig. 7a: noise vs stimulus frequency, unsynchronized",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, SweepConfig::reduced, SweepConfig::paper);
            run_to_output(&SweepExperiment { cfg, synced: false }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig7b",
        title: "Fig. 7b: die-level impedance profile",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, ImpedanceConfig::reduced, ImpedanceConfig::paper);
            run_to_output(&ImpedanceExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig8",
        title: "Fig. 8: oscilloscope shot under max dI/dt stressmark",
        in_report: true,
        run: |tb, engine, _| {
            let cfg = ScopeConfig::default();
            run_to_output(&ScopeShotExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig9",
        title: "Fig. 9: noise vs stimulus frequency, TOD-synchronized",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, SweepConfig::reduced, SweepConfig::paper);
            run_to_output(&SweepExperiment { cfg, synced: true }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig10",
        title: "Fig. 10: noise vs maximum stressmark misalignment",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, MisalignConfig::reduced, MisalignConfig::paper);
            run_to_output(&MisalignExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig11a",
        title: "Fig. 11a: max noise vs dI fraction",
        in_report: true,
        run: |tb, engine, reduced| delta_i(tb, engine, reduced, DeltaIView::Fig11a),
    },
    RegistryEntry {
        id: "fig11b",
        title: "Fig. 11b: average noise by workload distribution",
        in_report: true,
        run: |tb, engine, reduced| delta_i(tb, engine, reduced, DeltaIView::Fig11b),
    },
    RegistryEntry {
        id: "fig12",
        title: "Fig. 12: available voltage margin (Vmin campaign)",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, MarginConfig::reduced, MarginConfig::paper);
            run_to_output(&MarginExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig13a",
        title: "Fig. 13a: inter-core noise correlation",
        in_report: true,
        run: |tb, engine, reduced| delta_i(tb, engine, reduced, DeltaIView::Correlation),
    },
    RegistryEntry {
        id: "fig13b",
        title: "Fig. 13b: simulated dI step propagation to all cores",
        in_report: true,
        run: |tb, engine, _| {
            let exp = StepResponseExperiment {
                source_core: 0,
                step_amps: None,
            };
            run_to_output(&exp, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig14",
        title: "Fig. 14: split vs clustered mapping of 3 stressmarks",
        in_report: true,
        run: |tb, engine, _| {
            let exp = MappingComparisonExperiment {
                stim_freq_hz: 2.5e6,
            };
            run_to_output(&exp, tb, engine)
        },
    },
    RegistryEntry {
        id: "fig15",
        title: "Fig. 15: noise-aware mapping opportunity",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(
                reduced,
                MappingGainConfig::reduced,
                MappingGainConfig::paper,
            );
            run_to_output(&MappingGainExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "guardband",
        title: "§VII-B: utilization-based dynamic guard-banding",
        in_report: true,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, GuardbandConfig::reduced, GuardbandConfig::paper);
            run_to_output(&GuardbandExperiment { cfg }, tb, engine)
        },
    },
    // Drawer-scale study: not part of the golden report (figure bytes
    // stay fixed); runnable on demand and exercised by the bench harness.
    RegistryEntry {
        id: "drawer-prop",
        title: "Drawer study: dI step propagation across chips on a shared board PDN",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = if reduced {
                DrawerStepConfig {
                    window_s: 2e-6,
                    ..DrawerStepConfig::default()
                }
            } else {
                DrawerStepConfig::default()
            };
            run_to_output(&DrawerPropagationExperiment { cfg }, tb, engine)
        },
    },
    // ROM accuracy study: backs the macromodel's error-budget contract;
    // like the drawer study it stays out of the golden report.
    RegistryEntry {
        id: "rom-error",
        title: "ROM study: macromodel error vs budget on the drawer step",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, RomErrorConfig::reduced, RomErrorConfig::paper);
            run_to_output(&RomErrorExperiment { cfg }, tb, engine)
        },
    },
    // Signal study: spectral + entropy assessment of the die resonance
    // band. Out of the golden report (figure bytes stay fixed); it has
    // its own golden file under tests/golden/.
    RegistryEntry {
        id: "resonance-entropy",
        title: "Signal study: entropy carried by the die resonance band",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = scaled(
                reduced,
                ResonanceEntropyConfig::reduced,
                ResonanceEntropyConfig::paper,
            );
            run_to_output(&ResonanceEntropyExperiment { cfg }, tb, engine)
        },
    },
    // Rack-scale §VII placement study: naive vs noise-aware placement
    // over a process-variated chip population. Out of the golden report
    // (figure bytes stay fixed); exercised by the bench harness.
    RegistryEntry {
        id: "rack-map",
        title: "Rack study: noise-aware placement over a variated chip population",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, RackMapConfig::reduced, RackMapConfig::paper);
            run_to_output(&RackMapExperiment { cfg }, tb, engine)
        },
    },
    // DESIGN.md ablations and the studies beyond the paper: runnable by
    // id, outside the golden report.
    RegistryEntry {
        id: "ablations",
        title: "DESIGN.md ablations: stepping, voltage domains, decap, IPC pre-filter",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, AblationConfig::reduced, AblationConfig::paper);
            run_to_output(&AblationExperiment { cfg }, tb, engine)
        },
    },
    RegistryEntry {
        id: "extensions",
        title: "Extensions: noise governor, dithering, noise-aware scheduling, GA search",
        in_report: false,
        run: |tb, engine, reduced| {
            let cfg = scaled(reduced, ExtensionsConfig::reduced, ExtensionsConfig::paper);
            run_to_output(&ExtensionsExperiment { cfg }, tb, engine)
        },
    },
];
