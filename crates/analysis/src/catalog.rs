//! The experiment catalog: one [`RegistryEntry`] per paper artifact, in
//! full-report order.
//!
//! Entries sharing a job list (the ΔI campaign behind Figs. 11a, 11b and
//! 13a) run the same [`crate::experiment::Experiment`] with different
//! views, so when a report walks the registry with one engine the later
//! views assemble entirely from the memo cache.

use crate::experiment::{
    run_to_output_settled, ExperimentFailure, ExperimentOutput, RegistryEntry,
};
use voltnoise_system::engine::Engine;
use voltnoise_system::testbed::Testbed;

fn table1(
    tb: &Testbed,
    engine: &Engine,
    _reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    run_to_output_settled(&crate::table1::Table1Experiment, tb, engine)
}

fn fig5(
    tb: &Testbed,
    engine: &Engine,
    _reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    run_to_output_settled(&crate::funnel::FunnelExperiment, tb, engine)
}

fn fig7a(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::freq_sweep::SweepConfig::reduced()
    } else {
        crate::freq_sweep::SweepConfig::paper()
    };
    run_to_output_settled(
        &crate::freq_sweep::SweepExperiment { cfg, synced: false },
        tb,
        engine,
    )
}

fn fig7b(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::impedance::ImpedanceConfig::reduced()
    } else {
        crate::impedance::ImpedanceConfig::paper()
    };
    run_to_output_settled(&crate::impedance::ImpedanceExperiment { cfg }, tb, engine)
}

fn fig8(
    tb: &Testbed,
    engine: &Engine,
    _reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = crate::scope_shot::ScopeConfig::default();
    run_to_output_settled(&crate::scope_shot::ScopeShotExperiment { cfg }, tb, engine)
}

fn fig9(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::freq_sweep::SweepConfig::reduced()
    } else {
        crate::freq_sweep::SweepConfig::paper()
    };
    run_to_output_settled(
        &crate::freq_sweep::SweepExperiment { cfg, synced: true },
        tb,
        engine,
    )
}

fn fig10(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::misalignment::MisalignConfig::reduced()
    } else {
        crate::misalignment::MisalignConfig::paper()
    };
    run_to_output_settled(&crate::misalignment::MisalignExperiment { cfg }, tb, engine)
}

fn delta_i_view(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
    view: crate::delta_i::DeltaIView,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::delta_i::DeltaIConfig::reduced()
    } else {
        crate::delta_i::DeltaIConfig::paper()
    };
    run_to_output_settled(&crate::delta_i::DeltaIExperiment { cfg, view }, tb, engine)
}

fn fig11a(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    delta_i_view(tb, engine, reduced, crate::delta_i::DeltaIView::Fig11a)
}

fn fig11b(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    delta_i_view(tb, engine, reduced, crate::delta_i::DeltaIView::Fig11b)
}

fn fig12(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::margin::MarginConfig::reduced()
    } else {
        crate::margin::MarginConfig::paper()
    };
    run_to_output_settled(&crate::margin::MarginExperiment { cfg }, tb, engine)
}

fn fig13a(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    delta_i_view(tb, engine, reduced, crate::delta_i::DeltaIView::Correlation)
}

fn fig13b(
    tb: &Testbed,
    engine: &Engine,
    _reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let exp = crate::propagation::StepResponseExperiment {
        source_core: 0,
        step_amps: None,
    };
    run_to_output_settled(&exp, tb, engine)
}

fn fig14(
    tb: &Testbed,
    engine: &Engine,
    _reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let exp = crate::propagation::MappingComparisonExperiment {
        stim_freq_hz: 2.5e6,
    };
    run_to_output_settled(&exp, tb, engine)
}

fn fig15(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::mapping_gain::MappingGainConfig::reduced()
    } else {
        crate::mapping_gain::MappingGainConfig::paper()
    };
    run_to_output_settled(
        &crate::mapping_gain::MappingGainExperiment { cfg },
        tb,
        engine,
    )
}

fn drawer_prop(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        voltnoise_system::noise::DrawerStepConfig {
            window_s: 2e-6,
            ..voltnoise_system::noise::DrawerStepConfig::default()
        }
    } else {
        voltnoise_system::noise::DrawerStepConfig::default()
    };
    run_to_output_settled(
        &crate::propagation::DrawerPropagationExperiment { cfg },
        tb,
        engine,
    )
}

fn rom_error(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::rom_error::RomErrorConfig::reduced()
    } else {
        crate::rom_error::RomErrorConfig::paper()
    };
    run_to_output_settled(&crate::rom_error::RomErrorExperiment { cfg }, tb, engine)
}

fn resonance_entropy(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::resonance_entropy::ResonanceEntropyConfig::reduced()
    } else {
        crate::resonance_entropy::ResonanceEntropyConfig::paper()
    };
    run_to_output_settled(
        &crate::resonance_entropy::ResonanceEntropyExperiment { cfg },
        tb,
        engine,
    )
}

fn guardband(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::guardband_study::GuardbandConfig::reduced()
    } else {
        crate::guardband_study::GuardbandConfig::paper()
    };
    run_to_output_settled(
        &crate::guardband_study::GuardbandExperiment { cfg },
        tb,
        engine,
    )
}

fn rack_map(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::rack_map::RackMapConfig::reduced()
    } else {
        crate::rack_map::RackMapConfig::paper()
    };
    run_to_output_settled(&crate::rack_map::RackMapExperiment { cfg }, tb, engine)
}

fn ablations(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::ablation::AblationConfig::reduced()
    } else {
        crate::ablation::AblationConfig::paper()
    };
    run_to_output_settled(&crate::ablation::AblationExperiment { cfg }, tb, engine)
}

fn extensions(
    tb: &Testbed,
    engine: &Engine,
    reduced: bool,
) -> Result<ExperimentOutput, ExperimentFailure> {
    let cfg = if reduced {
        crate::extensions::ExtensionsConfig::reduced()
    } else {
        crate::extensions::ExtensionsConfig::paper()
    };
    run_to_output_settled(&crate::extensions::ExtensionsExperiment { cfg }, tb, engine)
}

/// All registered experiments, in full-report order.
pub(crate) static ENTRIES: &[RegistryEntry] = &[
    RegistryEntry {
        id: "table1",
        title: "Table I: EPI profile extremes",
        in_report: true,
        run: table1,
    },
    RegistryEntry {
        id: "fig5",
        title: "Fig. 5: maximum-power sequence search funnel",
        in_report: true,
        run: fig5,
    },
    RegistryEntry {
        id: "fig7a",
        title: "Fig. 7a: noise vs stimulus frequency, unsynchronized",
        in_report: true,
        run: fig7a,
    },
    RegistryEntry {
        id: "fig7b",
        title: "Fig. 7b: die-level impedance profile",
        in_report: true,
        run: fig7b,
    },
    RegistryEntry {
        id: "fig8",
        title: "Fig. 8: oscilloscope shot under max dI/dt stressmark",
        in_report: true,
        run: fig8,
    },
    RegistryEntry {
        id: "fig9",
        title: "Fig. 9: noise vs stimulus frequency, TOD-synchronized",
        in_report: true,
        run: fig9,
    },
    RegistryEntry {
        id: "fig10",
        title: "Fig. 10: noise vs maximum stressmark misalignment",
        in_report: true,
        run: fig10,
    },
    RegistryEntry {
        id: "fig11a",
        title: "Fig. 11a: max noise vs dI fraction",
        in_report: true,
        run: fig11a,
    },
    RegistryEntry {
        id: "fig11b",
        title: "Fig. 11b: average noise by workload distribution",
        in_report: true,
        run: fig11b,
    },
    RegistryEntry {
        id: "fig12",
        title: "Fig. 12: available voltage margin (Vmin campaign)",
        in_report: true,
        run: fig12,
    },
    RegistryEntry {
        id: "fig13a",
        title: "Fig. 13a: inter-core noise correlation",
        in_report: true,
        run: fig13a,
    },
    RegistryEntry {
        id: "fig13b",
        title: "Fig. 13b: simulated dI step propagation to all cores",
        in_report: true,
        run: fig13b,
    },
    RegistryEntry {
        id: "fig14",
        title: "Fig. 14: split vs clustered mapping of 3 stressmarks",
        in_report: true,
        run: fig14,
    },
    RegistryEntry {
        id: "fig15",
        title: "Fig. 15: noise-aware mapping opportunity",
        in_report: true,
        run: fig15,
    },
    RegistryEntry {
        id: "guardband",
        title: "§VII-B: utilization-based dynamic guard-banding",
        in_report: true,
        run: guardband,
    },
    // Drawer-scale study: not part of the golden report (figure bytes
    // stay fixed); runnable on demand and exercised by the bench harness.
    RegistryEntry {
        id: "drawer-prop",
        title: "Drawer study: dI step propagation across chips on a shared board PDN",
        in_report: false,
        run: drawer_prop,
    },
    // ROM accuracy study: backs the macromodel's error-budget contract;
    // like the drawer study it stays out of the golden report.
    RegistryEntry {
        id: "rom-error",
        title: "ROM study: macromodel error vs budget on the drawer step",
        in_report: false,
        run: rom_error,
    },
    // Signal study: spectral + entropy assessment of the die resonance
    // band. Out of the golden report (figure bytes stay fixed); it has
    // its own golden file under tests/golden/.
    RegistryEntry {
        id: "resonance-entropy",
        title: "Signal study: entropy carried by the die resonance band",
        in_report: false,
        run: resonance_entropy,
    },
    // Rack-scale §VII placement study: naive vs noise-aware placement
    // over a process-variated chip population. Out of the golden report
    // (figure bytes stay fixed); exercised by the bench harness.
    RegistryEntry {
        id: "rack-map",
        title: "Rack study: noise-aware placement over a variated chip population",
        in_report: false,
        run: rack_map,
    },
    // DESIGN.md ablations and the studies beyond the paper: runnable by
    // id, outside the golden report.
    RegistryEntry {
        id: "ablations",
        title: "DESIGN.md ablations: stepping, voltage domains, decap, IPC pre-filter",
        in_report: false,
        run: ablations,
    },
    RegistryEntry {
        id: "extensions",
        title: "Extensions: noise governor, dithering, noise-aware scheduling, GA search",
        in_report: false,
        run: extensions,
    },
];
