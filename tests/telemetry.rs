//! Telemetry integration suite: solver work counters are exact and
//! deterministic end to end, histogram merging is associative, engine
//! stats round-trip through JSON, and — most importantly — telemetry is
//! pure observation: toggling it never changes a single result bit.
//!
//! Tracing is a property of each engine, so traced and untraced engines
//! share one process freely. The one `#[ignore]`d test is a wall-clock
//! bound, run alone in release by `scripts/check.sh` with `--ignored` so
//! sibling tests do not skew its timings.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voltnoise::pdn::transient::{ConstantDrive, Probe, TransientConfig};
use voltnoise::pdn::{Netlist, NodeId, TransientSolver};
use voltnoise::prelude::*;
use voltnoise::system::{run_noise_instrumented, EngineStats, LogHistogram, NoiseRunConfig};

/// Six distinct (by seed) stressmark jobs on the fast testbed chip.
fn test_jobs(tb: &Testbed, n: u64) -> Vec<SimJob> {
    let batch = SimJob::batch(tb.chip());
    (1..=n)
        .map(|seed| {
            let sm = tb.max_stressmark(2.5e6, None);
            let loads: [CoreLoad; NUM_CORES] =
                std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
            batch.job(
                loads,
                NoiseRunConfig {
                    window_s: Some(20e-6),
                    record_traces: false,
                    seed,
                    ..NoiseRunConfig::default()
                },
            )
        })
        .collect()
}

/// Exact counters on a hand-built RC netlist: with a power-of-two step
/// and a power-of-two step count, floating-point time accumulation is
/// exact, so every counter is predictable to the unit.
#[test]
fn counters_are_exact_on_hand_built_rc() {
    let mut nl = Netlist::new();
    let vdd = nl.add_node();
    nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
    let die = nl.add_node();
    nl.add_resistor(vdd, die, 0.1).unwrap();
    nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
    nl.add_current_source(die, NodeId::GROUND).unwrap();

    let mut solver = TransientSolver::new(&nl).unwrap();
    let h = (2.0f64).powi(-27); // ~7.45 ns, exactly representable
    let n_steps = 256u64;
    let mut cfg = TransientConfig::new(h * n_steps as f64);
    cfg.h_coarse = h;
    cfg.h_fine = h;
    cfg.settle = 0.0;
    let res = solver
        .run(
            &ConstantDrive::new(vec![2.0]),
            &[Probe::NodeVoltage(die)],
            &cfg,
        )
        .unwrap();
    let c = res.counters;
    assert_eq!(c.steps, n_steps);
    assert_eq!(c.dc_solves, 1);
    assert_eq!(c.lu_factorizations, 2, "one DC + one transient step size");
    assert_eq!(c.factor_cache_hits, n_steps - 1);
    assert_eq!(c.solve_calls, n_steps + 1);
    assert!(c.est_flops > 0);
}

/// The instrumented noise path returns exactly the outcome the plain
/// path returns, with counters that tie out against the outcome's own
/// step count — and counters are identical across repeated runs.
#[test]
fn instrumented_noise_run_matches_plain_run() {
    let tb = Testbed::fast();
    let sm = tb.max_stressmark(2.5e6, None);
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let cfg = NoiseRunConfig {
        window_s: Some(20e-6),
        seed: 7,
        ..NoiseRunConfig::default()
    };
    let plain = run_noise(tb.chip(), &loads, &cfg).unwrap();
    let (instr, tel1) = run_noise_instrumented(tb.chip(), &loads, &cfg, false).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&instr).unwrap(),
        "instrumentation must not change the outcome"
    );
    assert_eq!(tel1.counters.steps, instr.steps as u64);
    assert_eq!(tel1.counters.dc_solves, 1);
    // One back-substitution per accepted step plus the DC solve.
    assert_eq!(
        tel1.counters.solve_calls,
        tel1.counters.steps + tel1.counters.dc_solves
    );
    // Every accepted step either reused a factorization or computed one.
    assert_eq!(
        tel1.counters.factor_cache_hits + tel1.counters.lu_factorizations - tel1.counters.dc_solves,
        tel1.counters.steps
    );
    let (_, tel2) = run_noise_instrumented(tb.chip(), &loads, &cfg, false).unwrap();
    assert_eq!(
        tel1.counters, tel2.counters,
        "counters must be deterministic"
    );
}

/// Engine-aggregated counters are independent of worker count and of
/// cache hits (a cached answer performs no solver work).
#[test]
fn engine_counters_are_schedule_independent() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 4);
    let serial = Engine::with_workers(1);
    serial.run_jobs(&jobs).unwrap();
    let parallel = Engine::with_workers(4);
    parallel.run_jobs(&jobs).unwrap();
    let s = serial.telemetry().solver;
    let p = parallel.telemetry().solver;
    assert!(!s.is_zero(), "solved jobs must record work");
    assert_eq!(s, p, "counters must not depend on the schedule");
    // Re-running the same jobs answers from cache: zero new work.
    parallel.run_jobs(&jobs).unwrap();
    assert_eq!(parallel.telemetry().solver, p);
}

/// `EngineStats` (telemetry included) survives a JSON round trip.
#[test]
fn engine_stats_round_trip_through_json() {
    let tb = Testbed::fast();
    let engine = Engine::with_workers(2);
    engine.run_jobs(&test_jobs(tb, 2)).unwrap();
    let stats = engine.stats();
    let json = stats.to_json().unwrap();
    let parsed = EngineStats::from_json(&json).unwrap();
    assert_eq!(parsed, stats);
    assert_eq!(parsed.telemetry.solver, engine.telemetry().solver);
}

/// Histogram merge is associative and total-count-preserving over
/// seeded random sample sets, and equals recording the union directly.
#[test]
fn histogram_merge_property() {
    let mut rng = SmallRng::seed_from_u64(0x7e1e);
    for _ in 0..100 {
        let sets: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let n = rng.gen_range(0..30usize);
                (0..n)
                    .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32))
                    .collect()
            })
            .collect();
        let hist = |samples: &[u64]| {
            let mut h = LogHistogram::new();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let mut left = hist(&sets[0]);
        left.merge(&hist(&sets[1]));
        left.merge(&hist(&sets[2]));
        let mut tail = hist(&sets[1]);
        tail.merge(&hist(&sets[2]));
        let mut right = hist(&sets[0]);
        right.merge(&tail);
        let union: Vec<u64> = sets.concat();
        assert_eq!(left, right);
        assert_eq!(left, hist(&union));
        assert_eq!(left.count(), union.len() as u64);
    }
}

/// A traced and an untraced engine run the same jobs at the same time
/// on two threads of one process: the trace flag belongs to each
/// engine, so neither sees the other's setting. The untraced engine
/// records no wall-clock samples, the traced one records one histogram
/// sample per solve, and the outcomes are bit-identical either way.
#[test]
fn tracing_fills_histograms_without_changing_results() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 3);
    let untraced = Engine::with_workers(2).with_trace(false);
    let traced = Engine::with_workers(2).with_trace(true);
    let (base, hot) = std::thread::scope(|s| {
        let cold_run = s.spawn(|| untraced.run_jobs(&jobs).unwrap());
        let hot_run = s.spawn(|| traced.run_jobs(&jobs).unwrap());
        (cold_run.join().unwrap(), hot_run.join().unwrap())
    });

    let cold = untraced.telemetry();
    assert!(!cold.solver.is_zero(), "counters are always collected");
    assert!(cold.job_wall.is_empty(), "untraced: no wall samples");
    assert_eq!(cold.phase_ns.total_ns(), 0, "untraced: no phase time");

    let warm = traced.telemetry();
    assert_eq!(warm.solver, cold.solver, "counters ignore the trace flag");
    assert_eq!(traced.solves(), jobs.len(), "setup: every job solved fresh");
    assert_eq!(
        warm.job_wall.count(),
        jobs.len() as u64,
        "one sample per solve"
    );
    assert_eq!(warm.step.count(), jobs.len() as u64);
    assert!(warm.phase_ns.total_ns() > 0, "traced: phase time recorded");
    assert!(warm.job_wall.p95().is_some());
    assert_eq!(base.len(), hot.len());
    for (a, b) in base.iter().zip(&hot) {
        assert_eq!(
            serde_json::to_string(&**a).unwrap(),
            serde_json::to_string(&**b).unwrap(),
            "tracing must never change an outcome"
        );
    }
}

/// Wall-clock cost of tracing: on fresh engines, the traced median over
/// the untraced median of each pinned reduced experiment stays under
/// 10x (real overhead is a few percent; single runs are noisy). Every
/// run must do real solver work, and traced runs must record job wall
/// times.
#[test]
#[ignore = "wall-clock bound: run in release with --ignored"]
fn tracing_overhead_stays_bounded_on_report_experiments() {
    use std::time::Instant;
    use voltnoise::analysis::find;
    const MAX_OVERHEAD: f64 = 10.0;
    const RUNS: usize = 3;
    let tb = Testbed::fast();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for id in ["fig8", "fig9", "fig11a"] {
        let entry = find(id).unwrap();
        let mut untraced = Vec::with_capacity(RUNS);
        let mut traced = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            for (trace, samples) in [(false, &mut untraced), (true, &mut traced)] {
                let engine = Engine::with_workers(workers).with_trace(trace);
                let t0 = Instant::now();
                entry.run(tb, &engine, true).unwrap();
                samples.push(t0.elapsed().as_nanos());
                let stats = engine.stats();
                let c = stats.telemetry.solver;
                assert!(
                    c.steps > 0 && c.solve_calls > 0 && c.lu_factorizations > 0,
                    "{id}: solver counters must be nonzero, got {c:?}"
                );
                assert!(stats.solves > 0, "{id}: no jobs solved");
                if trace {
                    assert!(
                        stats.telemetry.job_wall.p95().is_some_and(|p95| p95 > 0),
                        "{id}: traced run recorded no job wall times"
                    );
                }
            }
        }
        untraced.sort_unstable();
        traced.sort_unstable();
        let ratio = traced[RUNS / 2] as f64 / untraced[RUNS / 2].max(1) as f64;
        assert!(
            ratio < MAX_OVERHEAD,
            "{id}: telemetry overhead ratio {ratio:.2} exceeds {MAX_OVERHEAD}"
        );
    }
}
