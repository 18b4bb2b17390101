//! Durability integration suite: the persistent result store survives a
//! process boundary (simulated with separate engines over one file),
//! tolerates corruption, and lets an interrupted report campaign resume
//! with zero duplicate solves; cooperative cancellation drains a batch
//! into deterministic partial results; and step budgets surface as
//! typed, final (never retried) faults.

#[path = "golden/mod.rs"]
mod golden;

use voltnoise::analysis::{full_report, registry, ReportScale};
use voltnoise::pdn::{CancelToken, PdnError};
use voltnoise::prelude::*;
use voltnoise::system::{FaultKind, JobFault, NoiseOutcome, ResultStore};

/// A unique temp path per test (one process may run many tests).
fn temp_store(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "voltnoise-durability-{tag}-{}.jsonl",
        std::process::id()
    ))
}

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

fn json_of(outcome: &NoiseOutcome) -> String {
    serde_json::to_string(outcome).unwrap()
}

#[test]
fn store_round_trip_serves_from_disk_with_zero_resolves() {
    let tb = Testbed::fast();
    let path = temp_store("roundtrip");
    let _ = std::fs::remove_file(&path);
    let jobs = test_jobs(tb, 3);

    // First process: solve everything, appending to the store.
    let first = Engine::with_workers(2).with_store(&path).unwrap();
    let outcomes = first.run_jobs(&jobs).unwrap();
    assert_eq!(first.solves(), 3);
    assert_eq!(first.store_hits(), 0);

    // Second process (fresh engine, no memory): every job answers from
    // disk, bit-identically, with zero new solves.
    let second = Engine::with_workers(2).with_store(&path).unwrap();
    let replayed = second.run_jobs(&jobs).unwrap();
    assert_eq!(second.solves(), 0, "store must prevent any re-solve");
    assert_eq!(second.store_hits(), 3);
    for (a, b) in outcomes.iter().zip(&replayed) {
        assert_eq!(json_of(a), json_of(b));
    }

    // A repeated lookup in the same engine is an in-memory cache hit,
    // not a second disk hit.
    second.run_jobs(&jobs).unwrap();
    assert_eq!(second.store_hits(), 3);
    assert_eq!(second.cache_hits(), 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_and_garbage_lines_are_skipped_not_fatal() {
    let tb = Testbed::fast();
    let path = temp_store("corrupt");
    let _ = std::fs::remove_file(&path);
    let jobs = test_jobs(tb, 2);

    let first = Engine::with_workers(1).with_store(&path).unwrap();
    first.run_jobs(&jobs).unwrap();
    drop(first);

    // Crash simulation: a torn half-record, free-form garbage, and a
    // non-UTF8 line appended after valid records.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"key\":\"deadbeef\",\"outco").unwrap();
    f.write_all(b"\nnot json at all\n\xff\xfe\x00garbage\n")
        .unwrap();
    drop(f);

    let second = Engine::with_workers(1).with_store(&path).unwrap();
    let stats_before = second.stats();
    assert!(
        stats_before.store_corrupt_lines >= 3,
        "corrupt lines must be counted, got {}",
        stats_before.store_corrupt_lines
    );
    // The valid prefix still serves.
    second.run_jobs(&jobs).unwrap();
    assert_eq!(second.solves(), 0);
    assert_eq!(second.store_hits(), 2);

    // Compaction rewrites a clean file: reopening reports zero corrupt
    // lines and the same entries.
    second.store().unwrap().compact().unwrap();
    let third = Engine::with_workers(1).with_store(&path).unwrap();
    assert_eq!(third.stats().store_corrupt_lines, 0);
    third.run_jobs(&jobs).unwrap();
    assert_eq!(third.solves(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn alien_header_resets_the_store() {
    let path = temp_store("alien");
    std::fs::write(
        &path,
        "{\"format\":\"someone-elses-cache\",\"version\":9}\n{}\n",
    )
    .unwrap();
    let store = ResultStore::open(&path).unwrap();
    assert!(store.is_empty(), "alien store must reset, not half-load");
    // The reset store is immediately usable.
    let raw = std::fs::read_to_string(&path).unwrap();
    assert!(
        raw.starts_with("{\"format\":\"voltnoise-store\""),
        "reset must rewrite our header, got: {raw}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancellation_drains_cached_results_and_faults_the_rest() {
    let tb = Testbed::fast();
    let jobs = test_jobs(tb, 4);
    let token = CancelToken::new();
    let engine = Engine::with_workers(2).with_cancel(token.clone());

    // Two jobs settle before the interrupt arrives.
    engine.run_jobs(&jobs[..2]).unwrap();
    assert_eq!(engine.solves(), 2);

    token.cancel();
    let settled = engine.run_jobs_settled(&jobs);
    // Cached results still flow — the partial result set is exactly the
    // work already paid for.
    assert!(settled[0].is_ok() && settled[1].is_ok());
    for s in &settled[2..] {
        match s {
            Err(JobFault {
                attempts: 0,
                fault: FaultKind::Cancelled(PdnError::Cancelled { .. }),
                ..
            }) => {}
            other => panic!("expected a cancellation fault, got {other:?}"),
        }
    }
    assert_eq!(engine.solves(), 2, "no job may start after cancellation");
}

#[test]
fn step_budget_faults_are_typed_final_and_keyed() {
    let tb = Testbed::fast();
    let batch = SimJob::batch(tb.chip());
    let sm = tb.max_stressmark(2.5e6, None);
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let base = NoiseRunConfig {
        window_s: Some(20e-6),
        record_traces: false,
        seed: 1,
        ..NoiseRunConfig::default()
    };
    let budgeted = batch.job(
        loads.clone(),
        NoiseRunConfig {
            max_steps: Some(10),
            ..base.clone()
        },
    );
    let unbudgeted = batch.job(loads, base);
    assert_ne!(
        budgeted.key(),
        unbudgeted.key(),
        "max_steps must be part of the content key"
    );

    // A budget fault is deterministic and recorded after its one attempt.
    let engine = Engine::with_workers(1);
    match engine.run_one_settled(&budgeted) {
        Err(JobFault {
            attempts: 1,
            fault: FaultKind::Budget(PdnError::BudgetExceeded { steps: 10, .. }),
            ..
        }) => {}
        other => panic!("expected a budget fault after 1 attempt, got {other:?}"),
    }
    assert_eq!(engine.stats().budget_faults, 1);

    // The same electrical job without the budget solves fine.
    engine.run_one(&unbudgeted).unwrap();

    // Engine-level default budget: inherited only by jobs without their
    // own bound.
    let strict = Engine::with_workers(1).with_step_budget(10);
    assert!(matches!(
        strict.run_one_settled(&unbudgeted),
        Err(JobFault {
            fault: FaultKind::Budget(_),
            ..
        })
    ));
    assert_eq!(strict.stats().budget_faults, 1);
}

#[test]
fn budget_faults_render_in_the_report_fault_summary() {
    let tb = Testbed::fast();
    // A 10-step budget fails every experiment's first job deterministically.
    let strict = Engine::with_workers(2).with_step_budget(10);
    let report = full_report(tb, &strict, ReportScale::Reduced);
    assert!(
        report.contains("Fault summary"),
        "budget-starved report must carry a fault summary"
    );
    assert!(
        report.contains("budget fault: step budget exhausted"),
        "summary must name the budget fault kind:\n{report}"
    );
    assert!(strict.stats().budget_faults > 0);
}

#[test]
fn interrupted_report_campaign_resumes_byte_identically() {
    let tb = Testbed::fast();
    let path = temp_store("resume-report");
    let _ = std::fs::remove_file(&path);

    // The uninterrupted baseline.
    let baseline_engine = Engine::with_workers(2);
    let baseline = full_report(tb, &baseline_engine, ReportScale::Reduced);

    // First process: run only the first few experiments, then "crash".
    let first = Engine::with_workers(2).with_store(&path).unwrap();
    for entry in registry().iter().filter(|e| e.in_report).take(4) {
        let _ = entry.run(tb, &first, true);
    }
    let paid_for = first.solves();
    assert!(paid_for > 0, "the interrupted run must have done real work");
    drop(first);

    // Second process: the full report, resumed over the same store.
    let second = Engine::with_workers(2).with_store(&path).unwrap();
    let resumed = full_report(tb, &second, ReportScale::Reduced);
    assert_eq!(resumed, baseline, "resumed report must be byte-identical");
    assert_eq!(
        second.store_hits(),
        paid_for,
        "every solve paid for before the crash must be served from disk"
    );
    assert_eq!(
        second.solves() + paid_for,
        baseline_engine.solves(),
        "resume must add zero duplicate solves"
    );
    let _ = std::fs::remove_file(&path);
}

/// Golden-output guard: the full report's figure bytes are identical
/// with telemetry tracing on and off, and identical again when the
/// traced run resumes from a persistent store (where the engine's
/// solve/store-hit counters differ wildly from the baseline's).
/// Telemetry observes; it may never perturb.
#[test]
fn report_bytes_are_identical_traced_untraced_and_resumed() {
    let tb = Testbed::fast();
    let path = temp_store("golden-trace");
    let _ = std::fs::remove_file(&path);

    // Untraced baseline — itself pinned to the shared golden file, so
    // this guard anchors to the same bytes the solver-core suite does.
    let baseline = full_report(
        tb,
        &Engine::with_workers(2).with_trace(false),
        ReportScale::Reduced,
    );
    golden::assert_golden("full_report_reduced.txt", &baseline);

    // Traced run, fresh engine: every solve carries phase timing.
    let traced_engine = Engine::with_workers(2).with_trace(true);
    let traced = full_report(tb, &traced_engine, ReportScale::Reduced);
    assert!(
        traced_engine.telemetry().job_wall.count() > 0,
        "setup: the traced run must actually have recorded wall times"
    );
    assert_eq!(
        traced, baseline,
        "tracing must not change a byte of the report"
    );

    // Traced + store-resumed: partial campaign, "crash", then a resumed
    // report served largely from disk — still byte-identical, even
    // though this engine's stats (solves, store hits, histograms) are
    // nothing like the baseline engine's.
    let first = Engine::with_workers(2)
        .with_trace(true)
        .with_store(&path)
        .unwrap();
    for entry in registry().iter().filter(|e| e.in_report).take(3) {
        let _ = entry.run(tb, &first, true);
    }
    drop(first);
    let second = Engine::with_workers(2)
        .with_trace(true)
        .with_store(&path)
        .unwrap();
    let resumed = full_report(tb, &second, ReportScale::Reduced);
    assert!(second.store_hits() > 0, "setup: resume must hit the store");
    assert_eq!(
        resumed, baseline,
        "a traced, store-resumed report must be byte-identical"
    );
    let _ = std::fs::remove_file(&path);
}
