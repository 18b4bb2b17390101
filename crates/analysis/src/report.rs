//! Full-evaluation report: walks the experiment registry at a chosen
//! scale on the one [`Engine`] it is handed and assembles one text
//! document with all the paper's tables and figures.
//!
//! Because every entry runs through the same engine, overlapping
//! campaigns deduplicate: Figs. 11a, 11b and 13a share one ΔI job set,
//! and any mapping jobs repeated across Figs. 14, 15 and the §VII-B
//! study solve once.

use crate::experiment::{registry, ExperimentFailure, RegistryEntry};
use crate::render::Table;
use voltnoise_system::engine::{Engine, EngineStats};
use voltnoise_system::telemetry::LogHistogram;
use voltnoise_system::testbed::Testbed;

/// Scale at which the report is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportScale {
    /// Paper-scale configurations (minutes).
    Paper,
    /// Reduced configurations (tens of seconds).
    Reduced,
}

/// Generates the full evaluation report on `engine` (e.g. one with a
/// persistent store attached, or a single-worker engine for determinism
/// checks).
///
/// Experiments run on the settled path: a failing experiment does not
/// abort the walk. Its figure section is omitted — the surviving
/// sections render exactly as they would in a fault-free run — and a
/// `Fault summary` table at the end lists every failed experiment with
/// its captured fault(s). A fault-free report carries no summary
/// section, so healthy output is byte-identical to what this function
/// produced before the degraded path existed.
pub fn full_report(tb: &Testbed, engine: &Engine, scale: ReportScale) -> String {
    let reduced = scale == ReportScale::Reduced;
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("# voltnoise — full evaluation report\n\n");
    let mut failures: Vec<(&RegistryEntry, ExperimentFailure)> = Vec::new();
    for entry in registry().iter().filter(|e| e.in_report) {
        match entry.run_settled(tb, engine, reduced) {
            Ok(output) => {
                out.push_str(&output.rendered);
                out.push('\n');
            }
            Err(failure) => failures.push((entry, failure)),
        }
    }
    if !failures.is_empty() {
        let mut t = Table::new("Fault summary: experiments that could not be rendered");
        t.columns(["id", "job_faults", "detail"]);
        for (entry, failure) in &failures {
            t.row([
                entry.id.to_string(),
                failure.faults.len().to_string(),
                failure.summary(),
            ]);
        }
        out.push_str(&t.finish());
    }
    out
}

/// Generates the full report plus a rendered telemetry section for the
/// engine that produced it, as two **separate** documents.
///
/// They are separate on purpose: the report's figure bytes are a golden
/// artifact — identical whether tracing is on or off, whether a run was
/// fresh or store-resumed — while the telemetry section describes *this
/// particular run* (solve counts, cache hits, wall-clock histograms)
/// and differs every time. Callers print the report to stdout and the
/// telemetry next to it (the `full_report` binary sends it to stderr,
/// alongside the existing store diagnostics).
pub fn full_report_with_telemetry(
    tb: &Testbed,
    engine: &Engine,
    scale: ReportScale,
) -> (String, String) {
    let report = full_report(tb, engine, scale);
    let telemetry = telemetry_section(&engine.stats());
    (report, telemetry)
}

fn quantiles_cell(h: &LogHistogram) -> String {
    match (h.median(), h.p95()) {
        (Some(med), Some(p95)) => format!("median ≥{med} ns / p95 ≥{p95} ns ({})", h.count()),
        _ => "no samples".to_string(),
    }
}

/// Renders an engine's run statistics and aggregated solver telemetry
/// as a report-style `#`-commented CSV table.
///
/// This section never enters [`full_report`] output — it rides next
/// to the report, in the same way store diagnostics do, so that figure
/// bytes stay a pure function of the experiment content.
pub(crate) fn telemetry_section(stats: &EngineStats) -> String {
    let tel = &stats.telemetry;
    let mut t = Table::new("Engine telemetry (this run only; never part of figure bytes)");
    t.columns(["metric", "value"]);
    for (metric, value) in [
        ("workers", stats.workers),
        ("jobs_solved", stats.solves),
        ("cache_hits", stats.cache_hits),
        ("store_hits", stats.store_hits),
        ("faults", stats.faults),
    ] {
        t.row([metric.to_string(), value.to_string()]);
    }
    for (metric, value) in [
        ("solver_steps", tel.solver.steps),
        ("dc_solves", tel.solver.dc_solves),
        ("lu_factorizations", tel.solver.lu_factorizations),
        ("factor_cache_hits", tel.solver.factor_cache_hits),
        ("solve_calls", tel.solver.solve_calls),
        ("est_flops", tel.solver.est_flops),
        ("sparse_solves", tel.solver.sparse_solves),
        ("pattern_reuses", tel.solver.pattern_reuses),
    ] {
        t.row([metric.to_string(), value.to_string()]);
    }
    if tel.job_wall.is_empty() {
        t.note("wall-clock histograms empty — tracing disabled (set VOLTNOISE_TRACE=1)");
    } else {
        for (metric, hist) in [
            ("job_wall", &tel.job_wall),
            ("phase_assemble", &tel.assemble),
            ("phase_factor", &tel.factor),
            ("phase_step", &tel.step),
            ("phase_validate", &tel.validate),
        ] {
            t.row([metric.to_string(), quantiles_cell(hist)]);
        }
        t.note(&format!(
            "phase totals: assemble {} ns, factor {} ns, step {} ns, validate {} ns",
            tel.phase_ns.assemble_ns,
            tel.phase_ns.factor_ns,
            tel.phase_ns.step_ns,
            tel.phase_ns.validate_ns
        ));
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One untraced reduced report, its telemetry section and the
    /// engine's final stats, built once per test binary.
    fn reduced() -> &'static (String, String, EngineStats) {
        static CELL: OnceLock<(String, String, EngineStats)> = OnceLock::new();
        CELL.get_or_init(|| {
            let engine = Engine::with_workers(2).with_trace(false);
            let (report, telemetry) =
                full_report_with_telemetry(Testbed::fast(), &engine, ReportScale::Reduced);
            (report, telemetry, engine.stats())
        })
    }

    #[test]
    fn reduced_report_covers_every_artifact() {
        let (report, _, _) = reduced();
        for marker in [
            "Table I", "Fig. 5", "Fig. 7a", "Fig. 7b", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11a",
            "Fig. 11b", "Fig. 12", "Fig. 13a", "Fig. 13b", "Fig. 14", "Fig. 15", "§VII-B",
        ] {
            assert!(report.contains(marker), "report missing {marker}");
        }
        assert!(report.len() > 4_000, "report suspiciously short");
    }

    #[test]
    fn telemetry_section_rides_alongside_not_inside() {
        let (report, telemetry, _) = reduced();
        // The report half is exactly the pinned plain report —
        // telemetry never leaks into figure bytes.
        let golden = include_str!("../../../tests/golden/full_report_reduced.txt");
        assert!(*report == golden, "report differs from the golden report");
        assert!(telemetry.starts_with("# Engine telemetry"));
        assert!(telemetry.contains("jobs_solved"));
        assert!(telemetry.contains("solver_steps"));
        // Untraced run: the section says so instead of printing zeros.
        assert!(telemetry.contains("tracing disabled"));
        assert!(!report.contains("Engine telemetry"));
    }

    /// The work the reduced report costs, counter by counter. Figure
    /// bytes cannot show a change that keeps the answers but redoes or
    /// skips work; this ledger does. Memo hits and singleflight joins
    /// are one sum because a concurrent campaign may turn a hit into a
    /// join. Only counters that read the same on one worker and on two
    /// are pinned: lane grouping, and with it the factorization count,
    /// depends on the worker count.
    #[test]
    fn work_ledger_matches_the_golden() {
        let (_, _, stats) = reduced();
        let solver = &stats.telemetry.solver;
        let ledger = format!(
            "# Work ledger of the reduced full report (deterministic counters)\n\
             steps {}\n\
             dc_solves {}\n\
             solve_calls {}\n\
             engine_solves {}\n\
             cache_hits_plus_inflight_joins {}\n",
            solver.steps,
            solver.dc_solves,
            solver.solve_calls,
            stats.solves,
            stats.cache_hits + stats.inflight_joins,
        );
        let golden = include_str!("../../../tests/golden/work_ledger_reduced.txt");
        assert_eq!(ledger, golden, "the reduced report's work changed");
    }
}
