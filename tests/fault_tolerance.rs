//! Fault-tolerance integration suite: injected faults are captured per
//! job, the retry policy recovers transient failures, divergence guards
//! turn numerical blow-ups into typed errors, and the full report
//! degrades gracefully instead of aborting.

use voltnoise::analysis::{full_report, registry, ReportScale};
use voltnoise::pdn::netlist::{Netlist, NodeId};
use voltnoise::pdn::transient::{Drive, Probe, TransientConfig, TransientSolver};
use voltnoise::pdn::PdnError;
use voltnoise::prelude::*;
use voltnoise::system::{FaultInjector, FaultKind, InjectedFault, JobFault, RetryPolicy};

/// Distinct (by seed) max-stressmark jobs on the fast testbed chip.
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

#[test]
fn injected_solver_error_is_captured_not_fatal() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 2);
    let engine = Engine::with_workers(1)
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::SolverError));

    let settled = engine.run_jobs_settled(&jobs);
    assert_eq!(settled.len(), 2);
    match &settled[0] {
        Err(JobFault {
            attempts: 1,
            fault: FaultKind::Solver(PdnError::Injected { ordinal: 0 }),
            ..
        }) => {}
        other => panic!("expected injected fault on job 0, got {other:?}"),
    }
    assert!(settled[1].is_ok(), "job 1 must survive job 0's fault");
    assert_eq!(engine.faults(), 1);

    // The engine stays usable: resubmitting re-solves the failed job
    // (ordinal 2 now, past the injection plan) and hits the cache for
    // the healthy one.
    let resubmitted = engine.run_jobs_settled(&jobs);
    assert!(resubmitted.iter().all(Result::is_ok));
    assert_eq!(engine.faults(), 1, "no new faults on resubmission");
}

#[test]
fn worker_panic_is_captured_and_cache_survives() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 2);
    let engine = Engine::with_workers(1)
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::WorkerPanic));

    let settled = engine.run_jobs_settled(&jobs);
    match &settled[0] {
        Err(JobFault {
            fault: FaultKind::Panic(msg),
            ..
        }) => assert!(msg.contains("injected worker panic"), "{msg}"),
        other => panic!("expected captured panic, got {other:?}"),
    }
    assert!(settled[1].is_ok());

    // The fail-fast API still works on the same engine afterwards: the
    // cache was not poisoned by the mid-solve panic.
    let outcomes = engine.run_jobs(&jobs).expect("post-panic run succeeds");
    assert_eq!(outcomes.len(), 2);
}

#[test]
fn nan_outcome_becomes_diverged_and_is_never_cached() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 1);
    let engine = Engine::with_workers(1)
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::NanOutcome));

    match &engine.run_jobs_settled(&jobs)[0] {
        Err(JobFault {
            fault: FaultKind::Solver(PdnError::Diverged { node: 0, value, .. }),
            ..
        }) => assert!(value.is_nan(), "corrupted field must be the NaN"),
        other => panic!("expected Diverged from the finite guard, got {other:?}"),
    }
    assert_eq!(engine.solves(), 0, "a corrupted outcome must not count");
    assert_eq!(engine.cache_hits(), 0);

    // Resubmission solves fresh (nothing poisonous was cached).
    let outcome = engine.run_one(&jobs[0]).expect("clean re-solve");
    assert!(outcome.first_non_finite().is_none());
    assert_eq!(engine.solves(), 1);
}

#[test]
fn retry_policy_recovers_transient_fault() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 1);
    let engine = Engine::with_workers(1)
        .with_retry(RetryPolicy::attempts(3))
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::SolverError));

    let outcome = engine.run_one(&jobs[0]).expect("second attempt succeeds");
    assert!(outcome.first_non_finite().is_none());
    let stats = engine.stats();
    assert_eq!(stats.retries, 1, "one retry consumed");
    assert_eq!(stats.faults, 0, "recovered jobs are not faults");
    assert_eq!(stats.solves, 1);
}

#[test]
fn reseeding_retry_caches_under_its_own_key() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 1);
    let engine = Engine::with_workers(1)
        .with_retry(RetryPolicy {
            max_attempts: 2,
            reseed: true,
            ..RetryPolicy::default()
        })
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::SolverError));

    let outcome = engine
        .run_one_settled(&jobs[0])
        .expect("reseeded retry succeeds");
    assert!(outcome.first_non_finite().is_none());
    assert_eq!(engine.retries(), 1);

    // The success ran under seed+1 and was cached under *that* key, so
    // the original key misses and re-solves (no injection at ordinal 2).
    engine
        .run_one_settled(&jobs[0])
        .expect("original re-solves");
    assert_eq!(engine.cache_hits(), 0);
    assert_eq!(engine.solves(), 2);

    // Now the original key is cached.
    engine.run_one_settled(&jobs[0]).expect("cached");
    assert_eq!(engine.cache_hits(), 1);
}

#[test]
fn fail_fast_run_jobs_surfaces_the_injected_error() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 2);
    let engine = Engine::with_workers(1)
        .with_injector(FaultInjector::new().fail_solve(0, InjectedFault::SolverError));
    let err = engine.run_jobs(&jobs).unwrap_err();
    assert!(matches!(err, PdnError::Injected { ordinal: 0 }), "{err:?}");
}

#[test]
fn settled_parallel_equals_serial_with_retry_active() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 3);
    let policy = RetryPolicy::attempts(3);
    let serial = Engine::with_workers(1)
        .with_retry(policy)
        .run_jobs_settled(&jobs);
    let parallel = Engine::with_workers(4)
        .with_retry(policy)
        .run_jobs_settled(&jobs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.as_ref().expect("serial job succeeds");
        let p = p.as_ref().expect("parallel job succeeds");
        let js = serde_json::to_string(&**s).unwrap();
        let jp = serde_json::to_string(&**p).unwrap();
        assert_eq!(js, jp, "settled outcomes must stay bitwise identical");
    }
}

/// A current step at `t0`: the stimulus that drives the unstable
/// netlist off its (unstable) equilibrium.
struct StepDrive {
    t0: f64,
    amps: f64,
}

impl Drive for StepDrive {
    fn currents(&self, t: f64, out: &mut [f64]) {
        out.fill(if t >= self.t0 { self.amps } else { 0.0 });
    }
    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        if self.t0 >= t0 && self.t0 < t1 {
            out.push(self.t0);
        }
    }
}

#[test]
fn unstable_netlist_surfaces_diverged_not_nan() {
    let mut nl = Netlist::new();
    let vdd = nl.add_node("vdd");
    nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
    let die = nl.add_node("die");
    nl.add_resistor(vdd, die, 0.1).unwrap();
    nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
    // Net conductance at the die node is 10 - 20 < 0: a right-half-plane
    // pole that any stimulus blows up.
    nl.add_negative_resistor(die, NodeId::GROUND, -0.05)
        .unwrap();
    nl.add_current_source(die, NodeId::GROUND).unwrap();

    let mut solver = TransientSolver::new(&nl).unwrap();
    let cfg = TransientConfig::new(50e-6);
    let err = solver
        .run(
            &StepDrive {
                t0: 1e-6,
                amps: 1.0,
            },
            &[Probe::NodeVoltage(die)],
            &cfg,
        )
        .unwrap_err();
    match err {
        PdnError::Diverged { t, value, .. } => {
            assert!(t > 0.0 && t <= 50e-6, "t = {t}");
            assert!(
                !value.is_finite() || value.abs() > cfg.divergence_limit,
                "value = {value}"
            );
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn noise_outcomes_are_finite_over_seed_and_frequency_grid() {
    let tb = Testbed::fast();
    for &freq in &[45e3, 300e3, 2.5e6] {
        for seed in 1..=3u64 {
            let sm = tb.max_stressmark(freq, None);
            let loads: [CoreLoad; NUM_CORES] =
                std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
            let cfg = NoiseRunConfig {
                window_s: Some(20e-6),
                record_traces: false,
                seed,
                ..NoiseRunConfig::default()
            };
            let out = run_noise(tb.chip(), &loads, &cfg)
                .unwrap_or_else(|e| panic!("{freq:.1e}/{seed}: {e}"));
            assert!(
                out.first_non_finite().is_none(),
                "non-finite outcome at freq {freq:.1e} seed {seed}"
            );
            for core in 0..NUM_CORES {
                assert!(out.pct_p2p[core].is_finite());
                assert!(out.v_min[core].is_finite() && out.v_max[core].is_finite());
                assert!(out.v_min[core] <= out.v_max[core]);
            }
            assert!(out.chip_power.watts().is_finite());
        }
    }
}

/// The headline acceptance scenario: with a fault injector killing one
/// job in each of three experiments, the full report still completes,
/// renders every healthy figure byte-identically to an uninjected run,
/// and lists the three failed experiments in the fault summary.
#[test]
fn degraded_report_renders_healthy_figures_and_fault_summary() {
    let tb = Testbed::fast();

    // Pass 1 (clean): walk the registry on a fresh engine, recording
    // each experiment's solve-ordinal range and rendered text.
    let clean_engine = Engine::new();
    let mut ranges: Vec<(&str, usize, usize)> = Vec::new();
    let mut clean_rendered: Vec<(&str, String)> = Vec::new();
    for entry in registry().iter().filter(|e| e.in_report) {
        let before = clean_engine.solve_attempts();
        let output = entry
            .run_settled(tb, &clean_engine, true)
            .unwrap_or_else(|f| panic!("clean {} failed: {f}", entry.id));
        ranges.push((entry.id, before, clean_engine.solve_attempts()));
        clean_rendered.push((entry.id, output.rendered));
    }
    assert_eq!(clean_engine.faults(), 0);

    // Targets with private (unshared) job sets, all ahead of the
    // adaptive Fig. 12 campaign so later ordinal ranges stay aligned.
    let targets = ["fig7a", "fig8", "fig10"];
    let mut injector = FaultInjector::new();
    for t in targets {
        let &(_, start, end) = ranges
            .iter()
            .find(|(id, _, _)| *id == t)
            .unwrap_or_else(|| panic!("{t} not in registry"));
        assert!(end > start, "{t} consumed no solve ordinals");
        injector = injector.fail_solve(start, InjectedFault::SolverError);
    }

    // Pass 2 (injected): the report must still complete.
    let engine = Engine::new().with_injector(injector);
    let report = full_report(tb, &engine, ReportScale::Reduced);
    assert_eq!(engine.faults(), targets.len());

    assert!(
        report.contains("# Fault summary"),
        "fault summary section missing"
    );
    for (id, rendered) in &clean_rendered {
        if targets.contains(id) {
            assert!(
                !report.contains(rendered.as_str()),
                "{id} failed — its figure must be dropped from the report"
            );
            assert!(
                report.contains(&format!("\n{id},1,solver error: injected fault")),
                "{id} missing from the fault summary"
            );
        } else {
            assert!(
                report.contains(rendered.as_str()),
                "healthy figure {id} must render byte-identically"
            );
        }
    }
}
