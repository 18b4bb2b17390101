//! Hierarchy degeneracy: the 1 drawer × 1 chip × zero-variation rack
//! IS the chip, byte for byte, all the way up the stack.
//!
//! The site-indexed refactor treats every chip-scale experiment as the
//! 1×1×`NUM_CORES` special case of the rack machinery. That claim is
//! only safe if the degenerate rack reproduces chip results *exactly* —
//! same solver trajectory, same serialized bytes — through the engine's
//! content-keyed job path and through the scheduler replay. These tests
//! pin that equivalence, plus a golden file on the replay's figures so
//! a drift in either hierarchy level lands in review
//! (`VOLTNOISE_BLESS=1` regenerates).

#[path = "golden/mod.rs"]
mod golden;

use golden::assert_golden;
use std::sync::Arc;
use voltnoise::pdn::topology::VariationSpec;
use voltnoise::pdn::NUM_CORES;
use voltnoise::stressmark::SyncSpec;
use voltnoise::system::{
    replay, synthetic_trace, CoreLoad, Engine, EngineNoiseModel, NaivePolicy, NoiseAwarePolicy,
    NoiseRunConfig, PlacementPolicy, RackScenario, ScheduleOutcome, SimJob, Testbed,
};

fn degenerate_rack(tb: &Testbed) -> Arc<RackScenario> {
    Arc::new(
        RackScenario::build(tb.chip(), 1, 1, VariationSpec::none())
            .expect("degenerate rack builds"),
    )
}

fn run_cfg() -> NoiseRunConfig {
    NoiseRunConfig {
        window_s: Some(4e-6),
        seed: 1,
        ..NoiseRunConfig::default()
    }
}

/// The engine path: a chip job and the equivalent degenerate-rack job
/// carry different content keys (the rack signature is its own scheme),
/// but their solved outcomes must serialize to identical bytes.
#[test]
fn degenerate_rack_jobs_reproduce_chip_outcomes_byte_identically() {
    let tb = Testbed::fast();
    let engine = Engine::new();
    let rack = degenerate_rack(tb);
    let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
    // A mixed occupancy: cores 0 and 3 active, the rest idle.
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|i| {
        if i == 0 || i == 3 {
            CoreLoad::Stressmark(sm.clone())
        } else {
            CoreLoad::Idle
        }
    });
    let chip_job = SimJob::batch(tb.chip()).job(loads.clone(), run_cfg());
    let rack_job = SimJob::rack(rack, loads, run_cfg());
    assert_ne!(
        chip_job.key(),
        rack_job.key(),
        "chip and rack jobs are distinct experiments in the cache"
    );
    let chip_out = engine.run_one(&chip_job).expect("chip job solves");
    let rack_out = engine.run_one(&rack_job).expect("rack job solves");
    assert_eq!(
        serde_json::to_string(&*chip_out).expect("chip outcome serializes"),
        serde_json::to_string(&*rack_out).expect("rack outcome serializes"),
        "the 1x1 zero-variation rack must reproduce the chip byte for byte"
    );
    assert_eq!(engine.stats().solves, 2, "both keys solve exactly once");
}

/// One policy replayed at both hierarchy levels; returns (chip, rack).
fn replay_both_levels(
    tb: &Testbed,
    policy: &dyn PlacementPolicy,
) -> (ScheduleOutcome, ScheduleOutcome) {
    let active = CoreLoad::Stressmark(tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default())));
    let trace = synthetic_trace(8, 3.0);
    let chip_engine = Engine::new();
    let mut chip_model = EngineNoiseModel::chip(&chip_engine, tb.chip(), active.clone(), run_cfg());
    let chip = replay(&mut chip_model, policy, &trace).expect("chip replay");
    let rack_engine = Engine::new();
    let mut rack_model =
        EngineNoiseModel::rack(&rack_engine, degenerate_rack(tb), active, run_cfg());
    let rack = replay(&mut rack_model, policy, &trace).expect("rack replay");
    (chip, rack)
}

/// The scheduler path: replaying one trace against the chip model and
/// against the degenerate rack model must produce identical schedule
/// outcomes under both policies, and the figures are pinned to a golden
/// file so either hierarchy level drifting breaks the build.
#[test]
fn degenerate_rack_replay_matches_chip_and_the_golden_figures() {
    let tb = Testbed::fast();
    let mut doc = String::from(
        "# Hierarchy degeneracy: scheduler replay on the chip vs the 1x1 zero-variation rack \
         (reduced)\npolicy,mean_required_pct,peak_required_pct,queued_jobs\n",
    );
    for policy in [&NaivePolicy as &dyn PlacementPolicy, &NoiseAwarePolicy] {
        let (chip, rack) = replay_both_levels(tb, policy);
        assert_eq!(
            serde_json::to_string(&chip).expect("chip outcome serializes"),
            serde_json::to_string(&rack).expect("rack outcome serializes"),
            "{}: chip and degenerate-rack replays must match byte for byte",
            chip.policy
        );
        doc.push_str(&format!(
            "{},{:.6},{:.6},{}\n",
            chip.policy, chip.mean_required_pct, chip.peak_required_pct, chip.queued_jobs
        ));
    }
    assert_golden("hierarchy_replay_reduced.txt", &doc);
}

/// Variation is the only thing separating the hierarchy levels: the
/// same rack shape under a nonzero draw must NOT match the chip.
#[test]
fn variated_rack_departs_from_the_chip() {
    let tb = Testbed::fast();
    let engine = Engine::new();
    let rack = Arc::new(
        RackScenario::build(tb.chip(), 1, 1, VariationSpec::paper_default(3))
            .expect("variated rack builds"),
    );
    let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let chip_out = engine
        .run_one(&SimJob::batch(tb.chip()).job(loads.clone(), run_cfg()))
        .expect("chip job solves");
    let rack_out = engine
        .run_one(&SimJob::rack(rack, loads, run_cfg()))
        .expect("rack job solves");
    assert_ne!(
        serde_json::to_string(&*chip_out).unwrap(),
        serde_json::to_string(&*rack_out).unwrap(),
        "a variated 1x1 rack is different silicon and must read differently"
    );
}

/// The drawer studies' `--reduced --json` artifacts, pinned to the bit:
/// floats serialize shortest-round-trip, so any change to the drawer
/// netlist, its transient solve or the reduced-order path moves these
/// bytes (`VOLTNOISE_BLESS=1` regenerates).
#[test]
fn drawer_study_artifacts_match_their_goldens() {
    for (id, file) in [
        ("drawer-prop", "drawer_prop_reduced.json"),
        ("rom-error", "rom_error_reduced.json"),
    ] {
        let entry = voltnoise::analysis::find(id).expect("registered experiment");
        let out = entry
            .run(Testbed::fast(), &Engine::new(), true)
            .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        let json = serde_json::to_string_pretty(&out.value).expect("artifact serializes");
        assert_golden(file, &json);
    }
}
