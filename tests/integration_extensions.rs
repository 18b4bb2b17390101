//! Integration coverage of the extension studies: target definitions,
//! GA search, global governor, dithering, scheduling, populations and
//! package design, all through the public facade.

use voltnoise::pdn::design::{size_decap, ImpedanceMask};
use voltnoise::pdn::sensitivity::{parameter_sensitivity, PdnParameter};
use voltnoise::prelude::*;
use voltnoise::stressmark::{ga_search, GaConfig};
use voltnoise::system::dither::AlignmentComparison;
use voltnoise::system::mitigation::{evaluate_governor, GovernorConfig};
use voltnoise::system::population::PopulationStudy;
use voltnoise::system::scheduler::{
    replay, synthetic_trace, NaivePolicy, NoiseAwarePolicy, NoiseTable,
};
use voltnoise::uarch::{DependencyStudy, DisruptionStudy, TargetDefinition};

#[test]
fn target_definition_drives_the_same_search() {
    // A reloaded target definition yields a working search substrate.
    let def = TargetDefinition::zlike();
    let json = def.to_json();
    let isa = TargetDefinition::from_json(&json)
        .unwrap()
        .build_isa()
        .unwrap();
    let core = def.core.clone();
    let profile = EpiProfile::generate(&isa, &core);
    assert_eq!(profile.top(1)[0].mnemonic, "CIB");
    let outcome = find_max_power_sequence(
        &isa,
        &core,
        &profile,
        &SearchConfig {
            ipc_keep: 30,
            eval_iterations: 100,
        },
    );
    assert!(outcome.best.power_w > 18.0);
}

#[test]
fn ga_and_funnel_agree_on_sequence_quality() {
    let tb = Testbed::fast();
    let candidates: Vec<Opcode> = voltnoise::stressmark::select_candidates(tb.isa(), tb.profile())
        .iter()
        .map(|c| c.opcode)
        .collect();
    let ga = ga_search(
        tb.isa(),
        tb.core(),
        &candidates,
        &GaConfig {
            generations: 12,
            population: 24,
            ..GaConfig::default()
        },
    );
    assert!(ga.best.power_w > 0.93 * tb.max_sequence().power_w);
}

#[test]
fn governor_dither_and_scheduler_compose() {
    let tb = Testbed::fast();
    let run_cfg = NoiseRunConfig {
        window_s: Some(25e-6),
        ..NoiseRunConfig::default()
    };

    // Governor cuts synchronized noise at zero throughput cost.
    let gov = evaluate_governor(tb, 2.5e6, &GovernorConfig::default(), &run_cfg).unwrap();
    assert!(gov.governed_pct < gov.ungoverned_pct);

    // Dithering cannot match deterministic alignment.
    let cmp = AlignmentComparison::run(6, 16, 300, 3);
    assert!(cmp.dither_outcome.best_aligned_cores < 6);

    // The noise-aware scheduler needs no more margin than the naive one.
    let table = NoiseTable::characterize(&Engine::new(), tb, 2.5e6, &run_cfg).unwrap();
    let trace = synthetic_trace(50, 3.0);
    let naive = replay(&mut table.clone(), &NaivePolicy, &trace).unwrap();
    let aware = replay(&mut table.clone(), &NoiseAwarePolicy::new(), &trace).unwrap();
    assert!(aware.mean_required_pct <= naive.mean_required_pct + 1e-9);
}

#[test]
fn population_and_design_flows_run() {
    let tb = Testbed::fast();
    let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let study = PopulationStudy::run(
        &Engine::new(),
        &[0, 11],
        &loads,
        &NoiseRunConfig {
            window_s: Some(25e-6),
            ..NoiseRunConfig::default()
        },
    )
    .unwrap();
    assert!(study.grand_mean() > 30.0);

    // The modern chip design meets the default impedance mask unchanged.
    let sizing = size_decap(
        &tb.chip().config().pdn,
        &ImpedanceMask::zlike_default(),
        8.0,
        80,
    )
    .unwrap();
    assert_eq!(sizing.decap_scale, 1.0);

    // Parameter sensitivity behaves physically.
    let s = parameter_sensitivity(
        &tb.chip().config().pdn,
        PdnParameter::DomainDecap,
        &[0.5, 1.0, 2.0],
    )
    .unwrap();
    assert!(s.points[0].freq_hz > s.points[2].freq_hz);
}

#[test]
fn paper_methodology_findings_reproduce() {
    let tb = Testbed::fast();
    // §IV-C disruptive events: near-minimum power and variability.
    let study = DisruptionStudy::run(
        tb.isa(),
        tb.core(),
        &tb.max_sequence().body,
        &tb.min_sequence().body,
    );
    assert!(study.disruptive_close_to_minimum());
    assert!(study.memory_gain_fraction() < 0.05);

    // §IV-C dependencies: "results were similar".
    let deps = DependencyStudy::run(tb.isa(), tb.core(), &tb.max_sequence().body, 200);
    assert!(deps.phase_link_power_delta() < 0.05);
}
