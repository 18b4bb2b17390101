//! voltbench: the wall-clock benchmark of voltnoise.
//!
//! ```text
//! voltbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! voltbench --all [--seed <n>] [--runs <k>] [--seconds <s>] [--out <file>]
//! voltbench --smoke
//! voltbench compare <a.json> <b.json>
//! ```
//!
//! A single-workload run prints its metrics and, as its last line, one
//! JSON result. `--all` runs every workload in child processes (an
//! untraced pass per seed, then one traced pass) and writes a result
//! set; `compare` sets two result sets side by side. See `README.md`.

mod host;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;
mod workloads;

use report::RunResult;
use spans::Recorder;
use std::path::PathBuf;
use workloads::{Run, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: voltbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       voltbench --all [--seed <n>] [--runs <k>] [--seconds <s>] [--out <file>]
       voltbench --smoke
       voltbench compare <a.json> <b.json>";

/// Environment the program reads on first use. A run sets the trace
/// flag itself and must not inherit a thread count or a store.
const INHERITED_ENV: [&str; 4] = [
    "VOLTNOISE_THREADS",
    "VOLTNOISE_STORE",
    "VOLTNOISE_READ_STORES",
    "VOLTNOISE_STATS_PATH",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Run this one workload in this process.
    pub workload: Option<String>,
    /// Run every workload in child processes.
    pub all: bool,
    /// One iteration / 50 requests per client; checks the metric set.
    pub smoke: bool,
    /// Input seed (the first of `runs` consecutive seeds under `--all`).
    pub seed: u64,
    /// Measurement budget per run, seconds.
    pub seconds: u64,
    /// Traced pass.
    pub trace: bool,
    /// Untraced runs per workload under `--all`.
    pub runs: u64,
    /// Result-set path under `--all`.
    pub out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            all: false,
            smoke: false,
            seed: DEFAULT_SEED,
            seconds: suite::run_seconds(),
            trace: false,
            runs: 1,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value for {flag}: {v:?}");
            match flag.as_str() {
                "--all" => o.all = true,
                "--smoke" => o.smoke = true,
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => {
                    let v = value()?;
                    o.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    }
                }
                "--runs" => {
                    let v = value()?;
                    o.runs = v.parse().ok().filter(|&k| k > 0).ok_or_else(|| bad(v))?;
                }
                "--out" => o.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(w) = &o.workload {
            if !WORKLOADS.contains(&w.as_str()) {
                return Err(format!(
                    "unknown workload {w:?}; one of {}",
                    WORKLOADS.join(", ")
                ));
            }
        } else if !(o.all || o.smoke) {
            return Err("name a --workload, or pass --all or --smoke".into());
        }
        Ok(o)
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(o: &Options, workload: &str) -> i32 {
    // Set before the first call into the program, which caches the trace
    // flag; no other thread exists yet.
    std::env::set_var("VOLTNOISE_TRACE", if o.trace { "1" } else { "0" });
    for var in INHERITED_ENV {
        std::env::remove_var(var);
    }
    let dir = suite::scratch_dir().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("voltbench: cannot create {}: {e}", dir.display());
        return 1;
    }
    let run = Run {
        seed: o.seed,
        seconds: o.seconds as f64,
        traced: o.trace,
        smoke: o.smoke,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dir,
        rec: Recorder::new(o.trace),
    };
    let mut r = RunResult::default();
    let ledger = match workload {
        "serve-mixed" => serve::serve_mixed(&run, &mut r),
        campaign => {
            let (tb, setup) = workloads::build_testbeds(&run, &mut r);
            let ledger = match campaign {
                "report-cold" => workloads::report_cold(&run, &tb, &mut r),
                "report-resume" => workloads::report_resume(&run, &tb, &mut r),
                _ => workloads::hierarchy(&run, &tb, &mut r),
            };
            workloads::Ledger { setup, ..ledger }
        }
    };
    workloads::finish(&run, &ledger, &mut r);
    let _ = std::fs::remove_dir_all(&run.dir);
    if run.traced {
        let path = suite::scratch_dir()
            .join("spans")
            .join(format!("{workload}-seed{}.jsonl", o.seed));
        match run.rec.write_jsonl(&path) {
            Ok(()) => eprintln!("voltbench: spans written to {}", path.display()),
            Err(e) => eprintln!("voltbench: spans not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{workload} seed={} trace={} workers={} attempted={} failed={} mismatches={}",
        o.seed,
        u8::from(o.trace),
        run.workers,
        r.attempted,
        r.failed,
        r.mismatches
    );
    for m in &r.metrics {
        println!(
            "{}",
            report::metric_line(&m.name, m.value, m.unit, m.samples)
        );
    }
    println!("{}", r.to_json_line());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match Options::parse(&args) {
            Ok(o) => match &o.workload {
                Some(w) => run_one(&o, w),
                None => suite::all(&o),
            },
            Err(e) => {
                eprintln!("voltbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
