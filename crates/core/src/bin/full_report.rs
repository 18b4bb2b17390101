//! Generates the complete evaluation report (every table and figure) in
//! one run. Use `--reduced` for a fast pass; omit it for paper scale.
//!
//! The figure bytes on stdout are a pure function of the experiment
//! content: everything about *this run* — store diagnostics, the engine
//! telemetry table — goes to stderr, and the machine-readable stats JSON
//! goes to the file named by `VOLTNOISE_STATS_PATH` (when set). Set
//! `VOLTNOISE_TRACE=1` to additionally collect wall-clock histograms.

use voltnoise::analysis::{full_report_with_telemetry, ReportScale};
use voltnoise::prelude::*;
use voltnoise::system::{export_stats_json, Engine};

fn main() {
    let mut reduced = false;
    for arg in std::env::args().skip(1) {
        if arg != "--reduced" {
            eprintln!("unknown argument: {arg}");
            eprintln!("usage: full_report [--reduced]");
            std::process::exit(2);
        }
        reduced = true;
    }
    let (tb, scale) = if reduced {
        (Testbed::fast(), ReportScale::Reduced)
    } else {
        (Testbed::shared(), ReportScale::Paper)
    };
    // Engine::new honors VOLTNOISE_STORE, making the whole report
    // resumable after an interrupt.
    let engine = Engine::new();
    let (report, telemetry) = full_report_with_telemetry(tb, &engine, scale);
    print!("{report}");
    // Run diagnostics go to stderr so the report bytes on stdout stay
    // identical with and without a store attached or tracing enabled.
    if let Some(store) = engine.store() {
        let stats = engine.stats();
        eprintln!(
            "voltnoise: store {} — {} entries, {} served from disk, {} solved fresh, \
             {} corrupt lines skipped",
            store.path().display(),
            store.len(),
            stats.store_hits,
            stats.solves,
            stats.store_corrupt_lines,
        );
    }
    eprint!("{telemetry}");
    match engine.stats().to_json() {
        Ok(json) => {
            if let Some(path) = export_stats_json(&json) {
                eprintln!("voltnoise: wrote engine stats to {}", path.display());
            }
        }
        Err(e) => eprintln!("voltnoise: engine stats did not serialize: {e}"),
    }
}
