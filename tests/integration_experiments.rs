//! Integration over the experiment drivers: every paper claim checked at
//! reduced scale in one place.

use voltnoise::analysis::{
    run_step_response, CorrelationAnalysis, DeltaIConfig, DeltaIExperiment, DeltaIView,
    GuardbandConfig, GuardbandExperiment, MappingComparisonExperiment, MisalignConfig,
    MisalignExperiment, SweepConfig, SweepExperiment, Table1,
};
use voltnoise::prelude::*;

#[test]
fn headline_claims_hold_together() {
    let tb = Testbed::fast();
    let engine = Engine::new();
    let sweep = |synced| {
        SweepExperiment {
            cfg: SweepConfig::reduced(),
            synced,
        }
        .run(tb, &engine)
        .unwrap()
    };

    // (a) Resonant bands exist and sit where the impedance profile says.
    let prof = run_impedance(tb.chip(), &ImpedanceConfig::reduced()).unwrap();
    let (f_die, _) = prof.die_band().unwrap();
    let unsync = sweep(false);
    let (f_noise_peak, _) = unsync.peak().expect("non-empty sweep");
    assert!(
        (f_noise_peak / f_die).log2().abs() < 1.5,
        "noise peak {f_noise_peak:.3e} should track impedance peak {f_die:.3e}"
    );

    // (b) Synchronization beats resonance.
    let synced = sweep(true);
    assert!(synced.at(45e3).unwrap().max_pct() > unsync.peak().expect("non-empty sweep").1);

    // (c) 62.5 ns misalignment collapses most of the sync bonus.
    let mis = MisalignExperiment {
        cfg: MisalignConfig::reduced(),
    }
    .run(tb, &engine)
    .unwrap();
    let bonus = mis.points[0].mean_pct() - mis.points.last().unwrap().mean_pct();
    let after_one_tick = mis.points[0].mean_pct() - mis.points[1].mean_pct();
    assert!(
        after_one_tick > 0.3 * bonus,
        "one tick removes a large share"
    );
}

#[test]
fn propagation_claims_hold_together() {
    let tb = Testbed::fast();
    let engine = Engine::new();

    // Clusters from the ΔI campaign match the floorplan rows...
    let data = DeltaIExperiment {
        cfg: DeltaIConfig::reduced(),
        view: DeltaIView::Correlation,
    }
    .run(tb, &engine)
    .unwrap();
    let corr = CorrelationAnalysis::from_dataset(&data);
    assert_eq!(corr.cluster_a, vec![0, 2, 4]);

    // ...and agree with the step-response simulation (Fig. 13b confirms
    // Fig. 13a in the paper).
    let step = run_step_response(tb.chip(), 0, 12.0).unwrap();
    let same = (step.droop_depth[2] + step.droop_depth[4]) / 2.0;
    let cross = (step.droop_depth[1] + step.droop_depth[3] + step.droop_depth[5]) / 3.0;
    assert!(same > cross);

    // ...and with the mapping comparison (Fig. 14).
    let cmp = MappingComparisonExperiment {
        stim_freq_hz: 2.5e6,
    }
    .run(tb, &engine)
    .unwrap();
    assert!(cmp.clustered_worst() > cmp.split_worst());
}

#[test]
fn table1_and_funnel_are_consistent_with_search() {
    let tb = Testbed::fast();
    let t = Table1::from_testbed(tb);
    let f = FunnelSummary::from_testbed(tb);
    // Top candidates come from the top of the EPI table.
    assert!(f.candidates.contains(&t.top[0].mnemonic));
    // The funnel winner beats the strongest single-instruction loop.
    let top_single = tb.profile().top(1)[0].power_w;
    assert!(f.max_sequence.1 > top_single);
}

#[test]
fn noise_aware_mapping_reduces_worst_case() {
    let tb = Testbed::fast();
    let cfg = NoiseRunConfig {
        window_s: Some(35e-6),
        ..NoiseRunConfig::default()
    };
    let evals = voltnoise::system::evaluate_all_mappings(
        &Engine::new(),
        tb,
        3,
        2.5e6,
        Some(SyncSpec::paper_default()),
        &cfg,
    )
    .unwrap();
    let mapper = NoiseAwareMapper::from_measurements(evals);
    let best = mapper.best_for(3).unwrap();
    let worst = mapper.worst_for(3).unwrap();
    assert!(worst.worst_pct > best.worst_pct);
    // The naive (in-order) mapping is never better than the noise-aware one.
    let naive = voltnoise::system::naive_mapping(3);
    let naive_eval = mapper
        .evaluations()
        .iter()
        .find(|e| e.mapping == naive)
        .expect("naive mapping evaluated");
    assert!(naive_eval.worst_pct >= best.worst_pct);
}

#[test]
fn guardband_margin_tracks_active_core_regions() {
    // Fig. 11a regions -> margins monotone in the active count.
    let tb = Testbed::fast();
    let study = GuardbandExperiment {
        cfg: GuardbandConfig::reduced(),
    }
    .run(tb, &Engine::new())
    .unwrap();
    assert!(study.margins_v[6] > study.margins_v[1]);
    let table = GuardbandTable::from_worst_case_noise(study.worst_noise_v, 1.1);
    let mut controller = GuardbandController::new(table, 0.93);
    let v6 = controller.voltage();
    let v1 = controller.step(1);
    assert!(v1 < v6);
}
