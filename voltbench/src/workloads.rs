//! Set-up, the three campaign workloads, and the metrics every workload
//! reports. The daemon workload lives in [`crate::serve`].
//!
//! The benchmark enters the program only through public surfaces —
//! registry entries, `Engine::with_workers(..).with_store(..)`,
//! `Testbed::build` and its parts, `ResultStore` — and times each call
//! from outside. Engine and solver counters are read by key from
//! `EngineStats::to_json`, so a renamed or removed counter reads as zero
//! instead of breaking this crate's build.

use crate::host::{at_reference, HostMeter, Kernel};
use crate::report::{num, parse, RunResult};
use crate::spans::{Interval, Recorder};
use crate::stats::median;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use voltnoise::analysis::{
    find, registry, Experiment, RackMapConfig, RackMapExperiment, RegistryEntry,
};
use voltnoise::stressmark::{
    find_max_power_sequence, find_sequence_with_power, min_power_sequence, SearchConfig,
};
use voltnoise::system::{Chip, ChipConfig, Engine, ResultStore, Testbed};
use voltnoise::uarch::{EpiProfile, Isa};

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = ["report-cold", "report-resume", "hierarchy", "serve-mixed"];

/// The registry entries the `hierarchy` workload walks.
pub const HIERARCHY: [&str; 3] = ["rack-map", "drawer-prop", "rom-error"];

/// The rack study's own variation seed (`RackMapConfig::reduced`), the
/// default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// Set-ups timed per run for `setup_s`: fresh testbed builds, and on
/// `serve-mixed` also server binds.
const SETUP_REPS: usize = 11;

/// The header `full_report` puts before the first figure.
const REPORT_HEADER: &str = "# voltnoise — full evaluation report\n\n";

const GOLDEN_REPORT: &str = include_str!("../../tests/golden/full_report_reduced.txt");

/// The hierarchy renders at the registry's reduced configurations, in
/// [`HIERARCHY`] order.
const EXPECTED: [&str; 3] = [
    include_str!("../expected/rack-map.txt"),
    include_str!("../expected/drawer-prop.txt"),
    include_str!("../expected/rom-error.txt"),
];

/// One run of one workload.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced pass (`VOLTNOISE_TRACE=1`, per-layer metrics).
    pub traced: bool,
    /// One iteration (campaigns) or 50 requests per client (daemon).
    pub smoke: bool,
    /// Engine workers = server workers = `available_parallelism`.
    pub workers: usize,
    /// Scratch directory for stores; removed when the run ends.
    pub dir: PathBuf,
    /// The benchmark's own spans.
    pub rec: Recorder,
}

/// The timed set-ups of one run.
#[derive(Default)]
pub struct Setup {
    /// Fresh testbed builds, seconds at reference host speed.
    pub builds: Vec<f64>,
    /// `Server::bind` calls, wall seconds (daemon workload only).
    pub binds: Vec<f64>,
    /// The calibration kernel's times around the builds, seconds.
    pub probes: Vec<f64>,
}

/// What a run observed, before it becomes metrics.
#[derive(Default)]
pub struct Ledger {
    /// The run's set-ups.
    pub setup: Setup,
    /// Timed iterations (campaigns); 1 on the daemon workload.
    pub iterations: usize,
    /// Each operation, seconds: one campaign iteration at reference host
    /// speed (it is CPU work, see [`crate::host`]), or one `POST /jobs`
    /// round trip in wall time (most of it is waiting).
    pub ops: Vec<f64>,
    /// Each operation's wall time, seconds.
    pub ops_wall: Vec<f64>,
    /// The meter's kernel times while the operations ran, seconds.
    pub probes: Vec<f64>,
    /// Wall time of the measured phase, seconds.
    pub measured_wall: f64,
    /// Engine stats summed over the measured engines, by flattened key.
    pub counters: BTreeMap<String, f64>,
    /// `Engine::with_store` times, seconds.
    pub store_open: Vec<f64>,
    /// `ResultStore::compact` time, seconds.
    pub store_compact: f64,
    /// Records in the compacted store.
    pub store_records: f64,
    /// Bytes of the compacted store.
    pub store_bytes: f64,
    /// Per-layer metrics only one workload observes, by metric name.
    pub extra: BTreeMap<&'static str, f64>,
    /// The name of the span whose self time is the unattributed time.
    pub root_span: &'static str,
}

impl Ledger {
    /// An empty ledger whose unattributed time is the self time of the
    /// spans named `root_span`.
    pub fn rooted(root_span: &'static str) -> Ledger {
        Ledger {
            root_span,
            ..Ledger::default()
        }
    }

    /// Adds an engine's stats, read by key.
    pub fn absorb(&mut self, engine: &Engine) {
        let json = engine.stats().to_json().expect("engine stats serialize");
        let value = parse(&json).expect("engine stats JSON parses");
        flatten("", &value, &mut self.counters);
    }

    /// A counter summed over the measured engines; zero when absent.
    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Opens the store at `path`, compacts it and records the cost and
    /// the resulting size.
    pub fn compact(&mut self, path: &Path) {
        let store = ResultStore::open(path).expect("store reopens for compaction");
        let t0 = Instant::now();
        store.compact().expect("store compacts");
        self.store_compact = t0.elapsed().as_secs_f64();
        self.store_records = store.len() as f64;
        self.store_bytes = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64);
    }
}

fn flatten(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    if let Some(x) = num(v) {
        *out.entry(prefix.to_string()).or_insert(0.0) += x;
    } else if let Some(fields) = v.as_object() {
        for (k, child) in fields {
            let key = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            flatten(&key, child, out);
        }
    }
}

/// Set-up repetitions timed for `setup_s` (one in smoke mode).
pub fn setup_reps(run: &Run) -> usize {
    if run.smoke {
        1
    } else {
        SETUP_REPS
    }
}

/// Builds the reduced testbed [`setup_reps`] times and returns the last
/// build with the time of each, calibrated by the kernel run on this
/// thread just before and just after it. The traced pass also times the
/// build's parts.
pub fn build_testbeds(run: &Run, r: &mut RunResult) -> (Testbed, Setup) {
    let builds = setup_reps(run);
    let search = SearchConfig {
        ipc_keep: 60,
        eval_iterations: 120,
    };
    let chip = ChipConfig::default();
    let kernel = Kernel::warm();
    let mut setup = Setup {
        probes: vec![kernel.time()],
        ..Setup::default()
    };
    let mut testbed = None;
    for i in 0..builds {
        let (built, span) = run.rec.time(None, "setup", &format!("setup/{i}"), || {
            Testbed::build(&search, &chip)
        });
        testbed = Some(built.expect("the default chip configuration is valid"));
        let before = setup.probes[setup.probes.len() - 1];
        let after = kernel.time();
        setup.probes.push(after);
        setup
            .builds
            .push(at_reference(span.secs(), (before + after) / 2.0));
    }
    if run.traced {
        // The same steps `Testbed::build` takes, timed one by one.
        let (mut epi, mut searched, mut wired) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..builds {
            let trace = format!("setup-parts/{i}");
            let isa = Isa::zlike();
            let core = chip.core.clone();
            let (profile, span) = run.rec.time(None, "uarch.epi_profile", &trace, || {
                EpiProfile::generate(&isa, &core)
            });
            epi.push(span.secs());
            let ((), span) = run.rec.time(None, "stressmark.search", &trace, || {
                let max = find_max_power_sequence(&isa, &core, &profile, &search);
                let min = min_power_sequence(&isa, &core, &profile);
                let target = (max.best.power_w + min.power_w) / 2.0;
                std::hint::black_box(find_sequence_with_power(
                    &isa, &core, &max.best, target, 200,
                ));
            });
            searched.push(span.secs());
            let (built, span) = run
                .rec
                .time(None, "system.chip_build", &trace, || Chip::new(&chip));
            built.expect("the default chip configuration is valid");
            wired.push(span.secs());
        }
        r.push("uarch.epi_profile_s", median(&epi), "s", epi.len());
        r.push(
            "stressmark.search_s",
            median(&searched),
            "s",
            searched.len(),
        );
        r.push("system.chip_build_s", median(&wired), "s", wired.len());
    }
    (testbed.expect("at least one build"), setup)
}

/// Runs `iteration` until the next one would end past the run's
/// budget (always at least once; exactly once in smoke mode), with the
/// host meter running to calibrate each iteration.
fn measure(run: &Run, l: &mut Ledger, mut iteration: impl FnMut(usize, &mut Ledger) -> Interval) {
    let meter = HostMeter::start();
    let start = Instant::now();
    let mut spans = Vec::new();
    loop {
        let span = iteration(l.iterations, l);
        l.iterations += 1;
        spans.push(span);
        if run.smoke || start.elapsed().as_secs_f64() + span.secs() > run.seconds {
            break;
        }
    }
    l.measured_wall = start.elapsed().as_secs_f64();
    let host = meter.finish();
    l.ops = spans.iter().map(|&s| host.scaled(s)).collect();
    l.ops_wall = spans.iter().map(Interval::secs).collect();
    l.probes.extend(host.probe_secs());
}

/// The registry entries one campaign iteration walks, and what they
/// run on.
struct Campaign<'a> {
    tb: &'a Testbed,
    workers: usize,
    entries: Vec<&'static RegistryEntry>,
}

/// One campaign iteration: the engine it ran on and each entry's render
/// (`None` where the entry failed).
struct Walk {
    span: Interval,
    engine: Engine,
    renders: Vec<Option<String>>,
}

impl Campaign<'_> {
    /// Walks every entry at reduced scale as one `campaign` span on a
    /// fresh engine, with a store at `store` if given.
    fn walk(
        &self,
        rec: &Recorder,
        trace: &str,
        store: Option<&Path>,
        l: &mut Ledger,
        r: &mut RunResult,
    ) -> Walk {
        let id = rec.open();
        let t0 = Instant::now();
        let engine = match store {
            Some(path) => {
                let (engine, span) = rec.time(Some(id), "store.open", trace, || {
                    Engine::with_workers(self.workers).with_store(path)
                });
                l.store_open.push(span.secs());
                engine.expect("store opens in the run directory")
            }
            None => Engine::with_workers(self.workers),
        };
        let renders: Vec<Option<String>> = self
            .entries
            .iter()
            .map(|e| {
                let name = format!("analysis.{}", e.id);
                rec.time(Some(id), &name, trace, || e.run(self.tb, &engine, true))
                    .0
                    .ok()
                    .map(|o| o.rendered)
            })
            .collect();
        let span = rec.close(id, None, "campaign", trace, t0);
        r.attempted += renders.len() as u64;
        r.failed += renders.iter().filter(|x| x.is_none()).count() as u64;
        Walk {
            span,
            engine,
            renders,
        }
    }
}

/// The full report's entries, in report order.
fn report_campaign<'a>(run: &Run, tb: &'a Testbed) -> Campaign<'a> {
    Campaign {
        tb,
        workers: run.workers,
        entries: registry().iter().filter(|e| e.in_report).collect(),
    }
}

/// Compares a report walk's concatenated renders with the golden
/// reduced report.
fn check_report(renders: &[Option<String>], r: &mut RunResult) {
    let mut doc = String::from(REPORT_HEADER);
    for render in renders.iter().flatten() {
        doc.push_str(render);
        doc.push('\n');
    }
    if doc != GOLDEN_REPORT {
        r.mismatches += 1;
    }
}

/// `report-cold`: every report entry on a fresh engine with a fresh,
/// empty store, once per iteration.
pub fn report_cold(run: &Run, tb: &Testbed, r: &mut RunResult) -> Ledger {
    let campaign = report_campaign(run, tb);
    let mut l = Ledger::rooted("campaign");
    let mut last: Option<PathBuf> = None;
    measure(run, &mut l, |i, l| {
        let store = run.dir.join(format!("cold-{i}.jsonl"));
        let trace = format!("report-cold/{i}");
        let w = campaign.walk(&run.rec, &trace, Some(&store), l, r);
        check_report(&w.renders, r);
        l.absorb(&w.engine);
        if let Some(prev) = last.replace(store) {
            let _ = std::fs::remove_file(prev);
        }
        w.span
    });
    l.compact(last.as_deref().expect("at least one iteration"));
    l
}

/// `report-resume`: an untimed cold pass fills a store; each iteration
/// then reopens it with a fresh engine and walks the report again.
pub fn report_resume(run: &Run, tb: &Testbed, r: &mut RunResult) -> Ledger {
    let campaign = report_campaign(run, tb);
    let store = run.dir.join("resume.jsonl");
    let mut l = Ledger::rooted("campaign");
    let prep = campaign.walk(
        &Recorder::new(false),
        "report-resume/prep",
        Some(&store),
        &mut Ledger::default(),
        r,
    );
    check_report(&prep.renders, r);
    drop(prep);
    measure(run, &mut l, |i, l| {
        let trace = format!("report-resume/{i}");
        let w = campaign.walk(&run.rec, &trace, Some(&store), l, r);
        check_report(&w.renders, r);
        l.absorb(&w.engine);
        w.span
    });
    l.compact(&store);
    l
}

/// `hierarchy`: the rack, drawer and ROM studies from the registry on a
/// fresh engine per iteration.
///
/// The timed rack study keeps the registry's variation seed: how many
/// occupancies the placement replay visits depends on the chip
/// population, and timing a seed-dependent amount of work would turn the
/// seed into run-to-run spread. `--seed` instead drives one untimed rack
/// study on its own population, which must show noise-aware placement
/// beating naive placement.
pub fn hierarchy(run: &Run, tb: &Testbed, r: &mut RunResult) -> Ledger {
    let probe = RackMapExperiment {
        cfg: RackMapConfig {
            variation_seed: run.seed,
            ..RackMapConfig::reduced()
        },
    };
    r.attempted += 1;
    match probe.run(tb, &Engine::with_workers(run.workers)) {
        Ok(res) if res.aware.peak_required_pct < res.naive.peak_required_pct => {}
        Ok(_) => r.mismatches += 1,
        Err(_) => r.failed += 1,
    }
    let campaign = Campaign {
        tb,
        workers: run.workers,
        entries: HIERARCHY
            .iter()
            .map(|id| find(id).expect("hierarchy entries are registered"))
            .collect(),
    };
    let mut l = Ledger::rooted("campaign");
    measure(run, &mut l, |i, l| {
        let trace = format!("hierarchy/{i}");
        let w = campaign.walk(&run.rec, &trace, None, l, r);
        l.absorb(&w.engine);
        for (expected, render) in EXPECTED.iter().zip(&w.renders) {
            if render.as_deref() != Some(*expected) {
                r.mismatches += 1;
            }
        }
        w.span
    });
    l
}

/// This process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Every id the campaigns time, in metric order.
pub fn analysed_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry()
        .iter()
        .filter(|e| e.in_report)
        .map(|e| e.id)
        .collect();
    ids.extend(HIERARCHY);
    ids
}

/// Turns the ledger into metrics: end-to-end on the untraced pass,
/// per-layer on the traced pass.
pub fn finish(run: &Run, l: &Ledger, r: &mut RunResult) {
    let n = l.ops.len();
    let op_median = median(&l.ops);
    let binds = median(&l.setup.binds);
    if !run.traced {
        r.push(
            "setup_s",
            median(&l.setup.builds) + binds,
            "s",
            l.setup.builds.len() + l.setup.binds.len(),
        );
        r.push("op_p50_ms", op_median * 1e3, "ms", n);
        r.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return;
    }
    let spans = run.rec.spans();
    for id in analysed_ids() {
        let name = format!("analysis.{id}");
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .collect();
        r.push(format!("{name}_s"), median(&secs), "s", secs.len());
    }
    let unattributed = run.rec.self_times(l.root_span);
    r.push(
        "unattributed_s",
        median(&unattributed),
        "s",
        unattributed.len(),
    );

    // Counters are per iteration (per run on the daemon workload).
    let iters = l.iterations.max(1) as f64;
    let phase = ["assemble", "factor", "step", "validate"];
    let mut busy_ns = 0.0;
    for p in phase {
        let ns = l.counter(&format!("telemetry.phase_ns.{p}_ns"));
        busy_ns += ns;
        r.push(
            format!("pdn.{p}_busy_s"),
            ns * 1e-9 / iters,
            "s",
            l.iterations,
        );
    }
    let steps = l.counter("telemetry.solver.steps");
    r.push(
        "pdn.ns_per_step",
        if steps > 0.0 { busy_ns / steps } else { 0.0 },
        "ns",
        steps as usize,
    );
    for c in [
        "steps",
        "dc_solves",
        "lu_factorizations",
        "factor_cache_hits",
        "solve_calls",
        "est_flops",
        "sparse_solves",
        "pattern_reuses",
        "batched_solves",
        "rom_solves",
    ] {
        let v = l.counter(&format!("telemetry.solver.{c}")) / iters;
        r.push(format!("pdn.{c}"), v, "count", l.iterations);
    }
    for c in [
        "solves",
        "cache_hits",
        "store_hits",
        "inflight_joins",
        "faults",
        "retries",
    ] {
        r.push(
            format!("engine.{c}"),
            l.counter(c) / iters,
            "count",
            l.iterations,
        );
    }
    let lookups = ["solves", "cache_hits", "store_hits", "faults"]
        .iter()
        .map(|c| l.counter(c))
        .sum::<f64>();
    r.push(
        "engine.memo_hit_ratio",
        if lookups > 0.0 {
            l.counter("cache_hits") / lookups
        } else {
            0.0
        },
        "ratio",
        lookups as usize,
    );
    let worker_secs = l.measured_wall * run.workers as f64;
    r.push(
        "engine.solver_busy_frac",
        busy_ns * 1e-9 / worker_secs,
        "ratio",
        1,
    );

    r.push(
        "store.open_s",
        median(&l.store_open),
        "s",
        l.store_open.len(),
    );
    r.push("store.compact_s", l.store_compact, "s", 1);
    r.push("store.records", l.store_records, "count", 1);
    r.push("store.bytes", l.store_bytes, "bytes", 1);

    r.push("server.bind_s", binds, "s", l.setup.binds.len());
    for (name, unit) in [
        ("engine.duplicate_solves", "count"),
        ("server.jobs_rtt_p99_ms", "ms"),
        ("server.requests_per_s", "1/s"),
        ("server.healthz_rtt_p50_ms", "ms"),
        ("server.warm_rtt_p50_ms", "ms"),
        ("server.decode_us", "us"),
        ("server.status_429", "count"),
        ("server.status_503", "count"),
        ("server.shed_total", "count"),
    ] {
        r.push(name, l.extra.get(name).copied().unwrap_or(0.0), unit, 1);
    }

    // The untraced pass's op_p50_ms over this is the tracing overhead.
    r.push("trace.op_p50_ms", op_median * 1e3, "ms", n);
    r.push("trace.spans", spans.len() as f64, "count", 1);
    r.push("wall.op_p50_ms", median(&l.ops_wall) * 1e3, "ms", n);
    let probes: Vec<f64> = l.setup.probes.iter().chain(&l.probes).copied().collect();
    r.push("host.probe_us", median(&probes) * 1e6, "us", probes.len());
    r.push("output_mismatches", r.mismatches as f64, "count", 1);
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    r.push("failed_frac", failed_frac, "ratio", r.attempted as usize);
}
