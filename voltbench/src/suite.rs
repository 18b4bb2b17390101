//! Multi-run modes: `--all` / `--smoke` (every workload, each run in
//! its own child process) and `compare` (two result sets side by side).

use crate::report::{get, metric_line, metric_value, num, parse, text, Spec};
use crate::stats::{median, relative_spread};
use crate::workloads::WORKLOADS;
use crate::Options;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where runs keep stores, spans and result sets: `.voltbench/` at the
/// repository root.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate sits inside the repository")
        .join(".voltbench")
}

/// `run_seconds` from `BENCHMARK.json`: the default measurement budget.
pub fn run_seconds() -> u64 {
    let spec = parse(crate::report::SPEC_JSON).expect("BENCHMARK.json parses");
    get(&spec, "run_seconds")
        .and_then(num)
        .expect("BENCHMARK.json has run_seconds") as u64
}

/// Runs one workload in a child process and returns its JSON result
/// line. With `echo`, the child's metric lines are printed as they are.
pub fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    echo: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    parse(last).map_err(|e| format!("unreadable result line: {e}"))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `--all` and `--smoke`: every workload, `runs` untraced passes with
/// consecutive seeds and then one traced pass, each in its own child.
/// Writes the result set and exits nonzero when a run fails, an output
/// check fails, or a pass's metrics differ from `BENCHMARK.json`.
pub fn all(o: &Options) -> i32 {
    let spec = Spec::load();
    let mut problems = Vec::new();
    if spec.workloads != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json declares workloads {:?}",
            spec.workloads
        ));
    }
    let runs = if o.smoke { 1 } else { o.runs };
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut op_ms = Vec::new();
        let passes = (0..runs)
            .map(|i| (o.seed + i, false))
            .chain([(o.seed, true)]);
        for (seed, traced) in passes {
            let line = match child(workload, seed, o.seconds, traced, o.smoke, true) {
                Ok(line) => line,
                Err(e) => {
                    problems.push(format!(
                        "{workload} seed {seed} trace {}: {e}",
                        u8::from(traced)
                    ));
                    continue;
                }
            };
            let metrics = get(&line, "metrics").cloned().unwrap_or(Value::Null);
            if get(&line, "correct") != Some(&Value::Bool(true)) {
                problems.push(format!("{workload} seed {seed}: output check failed"));
            }
            for p in spec.problems(traced, &metrics) {
                problems.push(format!("{workload} trace {}: {p}", u8::from(traced)));
            }
            let field = |k: &str| get(&line, k).cloned().unwrap_or(Value::Null);
            let mut record = vec![
                ("workload".into(), Value::Str(workload.into())),
                ("seed".into(), Value::U64(seed)),
                ("trace".into(), Value::U64(u64::from(traced))),
                ("correct".into(), field("correct")),
                ("attempted".into(), field("attempted")),
                ("failed".into(), field("failed")),
            ];
            // Tracing overhead: the traced operation time over the median
            // untraced one.
            if !traced {
                op_ms.extend(metric_value(&metrics, "op_p50_ms"));
            } else if let Some(ms) = metric_value(&metrics, "trace.op_p50_ms") {
                if !op_ms.is_empty() {
                    let overhead = ms / median(&op_ms);
                    println!(
                        "{}",
                        metric_line("trace_overhead", overhead, "ratio", op_ms.len())
                    );
                    record.push(("trace_overhead".into(), Value::F64(overhead)));
                }
            }
            record.push(("metrics".into(), metrics));
            results.push(Value::Object(record));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let set = Value::Object(vec![
        ("commit".into(), Value::Str(commit())),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("seconds".into(), Value::U64(o.seconds)),
        ("smoke".into(), Value::Bool(o.smoke)),
        ("runs".into(), Value::Array(results)),
    ]);
    let out = o.out.clone().unwrap_or_else(|| {
        let name = if o.smoke {
            "smoke".to_string()
        } else {
            format!("all-seed{}", o.seed)
        };
        scratch_dir().join("results").join(format!("{name}.json"))
    });
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            let text = serde_json::to_string_pretty(&set).map_err(std::io::Error::other)?;
            std::fs::write(&out, text + "\n")
        });
    match written {
        Ok(()) => println!("result set written to {}", out.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", out.display())),
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    i32::from(!problems.is_empty())
}

/// The untraced values of one metric on one workload in a result set.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    get(set, "runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|run| get(run, "workload").and_then(text) == Some(workload))
        .filter(|run| get(run, "trace").and_then(num) == Some(0.0))
        .filter_map(|run| metric_value(get(run, "metrics")?, metric))
        .collect()
}

/// The verdict on one (workload, metric) row: `unresolved` when either
/// side's quartile spread exceeds the bound, `regress` when `b`'s median
/// is worse than `a`'s by more than the bound, else `agree`.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let label = if relative_spread(a).max(relative_spread(b)) > bound {
        "unresolved"
    } else if worse > bound {
        "regress"
    } else {
        "agree"
    };
    (label, worse)
}

/// `compare <a> <b>`: one row per (workload, end-to-end metric); exits
/// nonzero when a row regresses or a value is missing.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| parse(&t))
    };
    let (sa, sb) = match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("voltbench compare: {e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let label = |s: &Value| {
        let field = |k| {
            get(s, k).map_or_else(
                || "?".to_string(),
                |v| serde_json::to_string(v).unwrap_or_default(),
            )
        };
        format!(
            "commit {} nproc {} seconds {}",
            field("commit"),
            field("nproc"),
            field("seconds")
        )
    };
    println!("a: {} ({})", a.display(), label(&sa));
    println!("b: {} ({})", b.display(), label(&sb));
    println!(
        "{:<14} {:<12} {:>3} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median_a", "median_b", "worse", "spread_a", "spread_b", "bound"
    );
    let mut failed = false;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                values(&sa, workload, &m.name),
                values(&sb, workload, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<12} missing", m.name);
                failed = true;
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (label, worse) = verdict(&va, &vb, m.higher_is_better, bound);
            failed |= label == "regress";
            println!(
                "{workload:<14} {:<12} {:>3} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {label}",
                m.name,
                va.len().min(vb.len()),
                median(&va),
                median(&vb),
                worse * 100.0,
                relative_spread(&va) * 100.0,
                relative_spread(&vb) * 100.0,
                bound * 100.0,
            );
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_spread_then_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(&a, &a, false, 0.1).0, "agree");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, false, 0.1).0, "regress");
        // Slower is an improvement when higher is better.
        assert_eq!(verdict(&a, &slower, true, 0.1).0, "agree");
        let noisy = [50.0, 100.0, 150.0, 100.0, 80.0];
        assert_eq!(verdict(&a, &noisy, false, 0.1).0, "unresolved");
    }
}
