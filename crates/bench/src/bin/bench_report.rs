//! Benchmark harness: runs a pinned subset of registry experiments N
//! times and emits a schema-versioned `BENCH_report.json` with
//! per-experiment median/p95 wall time and solver work counters.
//!
//! The pinned subset covers the three solver regimes the workspace
//! exercises: a single long transient (`fig8`), a frequency sweep of
//! many small jobs (`fig9`), and a mapping campaign dominated by
//! engine scheduling (`fig11a`). Each iteration runs on a **fresh**
//! engine so no memo cache or persistent store hides solver cost.
//!
//! Every experiment is timed both untraced and traced
//! (`VOLTNOISE_TRACE` equivalent, toggled in-process via `set_trace`),
//! so the report doubles as a regression guard on the cost of the
//! instrumentation itself: `overhead_ratio` is traced-median over
//! untraced-median and should sit near 1.
//!
//! `--smoke` runs one iteration and asserts the report is sane (parses
//! back, counters nonzero, overhead within a generous bound) — the mode
//! `scripts/check.sh` wires into CI.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use voltnoise::analysis::find;
use voltnoise::pdn::ac::log_space;
use voltnoise::pdn::{
    AcAnalysis, DrawerParams, DrawerPdn, MnaSystem, NodeId, RomSpec, SolveSpec, SolverBackend,
    SolverCounters, NUM_CORES,
};
use voltnoise::system::{set_trace, DrawerJob, DrawerStepConfig, Engine, Testbed};
use voltnoise_server::{http_request, Server, ServerConfig};

/// Experiments benchmarked by default: one long transient, one sweep of
/// many small jobs, one mapping campaign.
const PINNED: &[&str] = &["fig8", "fig9", "fig11a"];

/// Report format version. Bump when the JSON shape changes.
/// `/2`: added the `drawer` section (sparse-solver cost accounting).
/// `/3`: added the `ac_batch` (factor-once multi-RHS AC sweep) and
/// `rom` (reduced-order macromodel) sections.
/// `/4`: added the `server_rtt` section (campaign-daemon request
/// latency over loopback HTTP).
/// `/5`: added the `fleet_rtt` section (routed campaign latency through
/// the sharded fleet client over keep-alive connections).
/// `/6`: added the `signal` section (streaming Welch PSD throughput
/// over a real 100 µs scope trace, batch vs stream).
/// `/7`: added the `rack_map` section (rack-scale placement study:
/// naive vs noise-aware replay over a variated chip population).
/// `/8`: removed the `fleet_rtt` section with the shard fleet it
/// measured.
const SCHEMA: &str = "voltnoise-bench/8";

/// Smoke-mode floor on the drawer's dense-model-to-sparse flop ratio:
/// the sparse backend must beat the dense cost model by at least this
/// factor on the 200+-unknown drawer system (measured ~10x).
const MIN_DRAWER_FLOPS_RATIO: f64 = 5.0;

/// Smoke-mode floor on the AC sweep's batched-solve advantage: factoring
/// once per frequency and back-substituting every injection must charge
/// at least this many times fewer flops than the per-injection
/// refactorization baseline (measured ~24x on the 36-injection drawer).
const MIN_AC_BATCH_FLOPS_RATIO: f64 = 5.0;

/// Smoke-mode floor on the macromodel's flop advantage over the
/// full-order transient on the long drawer window (measured ~25x; the
/// ROM's cost is dominated by its one fixed-length calibration run).
const MIN_ROM_FLOPS_RATIO: f64 = 10.0;

/// Generous smoke-mode bound on `overhead_ratio` (single-iteration
/// timings are noisy; real overhead is a few percent).
const SMOKE_MAX_OVERHEAD: f64 = 10.0;

/// Smoke-mode ceiling on the streaming Welch path's wall-clock cost
/// relative to the batch path over identical samples. Both paths run
/// the same per-segment arithmetic (the stream adds only buffer
/// management), so streaming must stay within 1.2x of batch.
const MAX_SIGNAL_STREAM_OVERHEAD: f64 = 1.2;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WallStats {
    median_ns: u64,
    p95_ns: u64,
    samples_ns: Vec<u64>,
}

impl WallStats {
    fn of(mut samples: Vec<u64>) -> WallStats {
        samples.sort_unstable();
        WallStats {
            median_ns: percentile(&samples, 0.5),
            p95_ns: percentile(&samples, 0.95),
            samples_ns: samples,
        }
    }
}

/// Nearest-rank percentile of an already-sorted sample set.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ExperimentBench {
    id: String,
    untraced: WallStats,
    traced: WallStats,
    /// Traced median over untraced median: the wall-clock cost of the
    /// instrumentation itself.
    overhead_ratio: f64,
    /// Jobs solved per iteration (identical across iterations: fresh
    /// engine, deterministic experiment).
    solves: usize,
    /// Solver work counters of one iteration (deterministic).
    counters: SolverCounters,
    /// Median per-job wall time from the traced engine's histogram
    /// (bucket floor, nanoseconds).
    job_wall_median_ns: u64,
    /// p95 per-job wall time from the traced engine's histogram.
    job_wall_p95_ns: u64,
}

/// The drawer-scale sparse-solver benchmark: one pinned transient run on
/// a 6-chip drawer (200+ MNA unknowns, past the sparse threshold), with
/// the measured nnz-aware flop count compared against what the dense
/// cost model would charge for the same factorization/solve sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DrawerBench {
    /// Chips on the benchmarked drawer.
    chips: usize,
    /// MNA unknowns of the drawer system.
    system_size: usize,
    /// Wall time per fresh-engine solve.
    wall: WallStats,
    /// Solver counters of one iteration (deterministic).
    counters: SolverCounters,
    /// Actual (nnz-aware) flops the sparse backend charged.
    sparse_est_flops: u64,
    /// What the dense cost model (2n^3/3 + n^2/2 per factorization,
    /// 2n^2 per solve) would charge for the same operation sequence.
    dense_model_flops: u64,
    /// `dense_model_flops / sparse_est_flops`: how many times cheaper
    /// the sparse path is on this topology.
    flops_ratio: f64,
}

/// The batched AC-sweep benchmark: a full drawer impedance sweep (every
/// core node as an injection port) on the dense backend, where the
/// analyzer factors the complex MNA matrix **once per frequency** and
/// back-substitutes all injections through the shared factors. The
/// baseline is the per-injection refactorization the sweep used before
/// factorization hoisting: one factor + one solve per (frequency,
/// injection) pair, priced by the same flop model the backend charges.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AcBatchBench {
    /// MNA unknowns of the drawer system.
    system_size: usize,
    /// Frequencies in the sweep.
    frequencies: usize,
    /// Injection ports solved per frequency.
    injections: usize,
    /// Wall time per fresh-analyzer sweep.
    wall: WallStats,
    /// Analyzer work counters of one sweep (deterministic).
    counters: SolverCounters,
    /// Actual flops charged by the factor-once batched sweep.
    batched_est_flops: u64,
    /// What one factorization + one solve per (frequency, injection)
    /// pair would charge under the same dense flop model.
    per_injection_model_flops: u64,
    /// `per_injection_model_flops / batched_est_flops`.
    flops_ratio: f64,
}

/// The reduced-order macromodel benchmark: the drawer ΔI step on a long
/// window, solved once with the full-order sparse transient and once
/// with the Krylov macromodel (`SolveSpec::reduced`). The ROM's counters
/// include its calibration run (a full-order solve over a short fixed
/// window), so `flops_ratio` is an end-to-end cost comparison, not just
/// the integration loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RomBench {
    /// Chips on the benchmarked drawer.
    chips: usize,
    /// MNA unknowns of the full-order drawer system.
    system_size: usize,
    /// Simulated window (seconds).
    window_s: f64,
    /// Error budget the macromodel was calibrated against (volts).
    budget_v: f64,
    /// Reduced order the calibration settled on.
    rom_states: usize,
    /// Worst-case probe error the calibration measured (volts).
    rom_max_error_v: f64,
    /// Transient steps of the full-order solve.
    full_steps: usize,
    /// Transient steps of the reduced solve.
    rom_steps: usize,
    /// Wall time per fresh-engine full-order solve.
    full_wall: WallStats,
    /// Wall time per fresh-engine reduced solve (includes calibration).
    rom_wall: WallStats,
    /// Flops charged by the full-order solve.
    full_est_flops: u64,
    /// Flops charged by the reduced solve (build + calibration +
    /// integration).
    rom_est_flops: u64,
    /// `full_est_flops / rom_est_flops`.
    flops_ratio: f64,
}

/// The campaign-daemon round-trip benchmark: an in-process
/// `voltnoise-server` on a loopback socket, timed from the client side.
/// The first request solves a small batch; the remaining requests hit
/// the engine's memo cache, so their latency isolates the service
/// envelope itself (accept queue, HTTP parse, admission, streaming).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServerRttBench {
    /// Timed `POST /jobs` requests (after the one warm-up solve).
    requests: usize,
    /// Jobs per batch request.
    jobs_per_request: usize,
    /// Per-request wall time of the cache-warm `POST /jobs` round trips
    /// (`median_ns` is the p50 the service envelope is judged by).
    rtt: WallStats,
    /// Per-request wall time of bare `GET /healthz` round trips — the
    /// HTTP floor underneath `rtt`.
    healthz_rtt: WallStats,
    /// Engine solves over the whole benchmark (warm-up included).
    solves: usize,
    /// Engine cache hits over the whole benchmark.
    cache_hits: usize,
}

/// The signal-pipeline benchmark: Welch PSD throughput over a real
/// 100 µs core-0 scope trace (resampled to a uniform grid and tiled to
/// benchmark length), timed on the batch path and the streaming path
/// fed in bounded chunks. The two paths are asserted *bitwise*
/// identical at bench time, so the overhead ratio compares equal work.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SignalBench {
    /// Simulated window of the source trace (seconds).
    trace_window_s: f64,
    /// Raw (non-uniform) scope samples captured by the solve.
    trace_points: usize,
    /// Uniform samples fed to each Welch run (resampled and tiled).
    samples: usize,
    /// Welch segment length.
    segment_len: usize,
    /// Averaged segments per run.
    segments: u64,
    /// Wall time per batch `welch_psd` run.
    batch_wall: WallStats,
    /// Wall time per chunked `WelchStream` run over the same samples.
    stream_wall: WallStats,
    /// Batch throughput, samples per second (median wall).
    batch_samples_per_s: f64,
    /// Streaming throughput, samples per second (median wall).
    stream_samples_per_s: f64,
    /// Streaming median wall over batch median wall.
    stream_overhead_ratio: f64,
    /// Strongest PSD peak at or above 500 kHz — the die resonance under
    /// the 2.5 MHz stressmark; a physics anchor for the benchmark data.
    peak_freq_hz: f64,
}

/// The rack placement-study benchmark: the reduced `rack-map` registry
/// experiment (2 drawers × 2 variated chips, naive vs noise-aware
/// replay of one job trace) on a fresh engine per iteration, so the
/// wall time prices the full campaign — every occupancy the replays
/// visit is a rack-scale transient solved through the engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RackMapBench {
    /// Drawers on the benchmarked rack.
    drawers: usize,
    /// Variated chips per drawer.
    chips_per_drawer: usize,
    /// Placement sites (cores) on the rack.
    sites: usize,
    /// Wall time per fresh-engine campaign.
    wall: WallStats,
    /// Solver counters of one iteration (deterministic).
    counters: SolverCounters,
    /// Engine solves per campaign (= distinct occupancies, both
    /// policies deduped through one memo).
    solves: usize,
    /// Distinct occupancies the replays evaluated.
    occupancies_evaluated: usize,
    /// Naive policy's peak required margin (%p2p).
    naive_peak_pct: f64,
    /// Noise-aware policy's peak required margin (%p2p).
    aware_peak_pct: f64,
    /// `naive_peak_pct - aware_peak_pct`: the worst-case win.
    worst_gain_pct: f64,
    /// Time-weighted guardband recovered by noise-aware placement (mV).
    guardband_recovered_mv: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    iterations: usize,
    reduced: bool,
    workers: usize,
    experiments: Vec<ExperimentBench>,
    drawer: DrawerBench,
    ac_batch: AcBatchBench,
    rom: RomBench,
    server_rtt: ServerRttBench,
    signal: SignalBench,
    rack_map: RackMapBench,
}

struct Opts {
    iters: usize,
    out: PathBuf,
    smoke: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        iters: 5,
        out: PathBuf::from("BENCH_report.json"),
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.iters = 1;
            }
            "--iters" => {
                opts.iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--iters needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                opts.out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report [--smoke] [--iters N] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed run of `id` on a fresh engine. Returns wall time plus the
/// engine's post-run snapshot.
fn timed_run(id: &str, reduced: bool) -> (u64, voltnoise::system::EngineStats) {
    let entry = find(id).unwrap_or_else(|| panic!("{id} is not a registered experiment"));
    let tb = if reduced {
        Testbed::fast()
    } else {
        Testbed::shared()
    };
    let engine = Engine::with_workers(workers());
    let t0 = Instant::now();
    entry
        .run(tb, &engine, reduced)
        .unwrap_or_else(|e| panic!("{id} failed: {e}"));
    (t0.elapsed().as_nanos() as u64, engine.stats())
}

fn bench_experiment(id: &str, iters: usize, reduced: bool) -> ExperimentBench {
    let mut untraced = Vec::with_capacity(iters);
    let mut traced = Vec::with_capacity(iters);
    let mut counters = SolverCounters::default();
    let mut solves = 0usize;
    let mut traced_stats = None;
    for _ in 0..iters {
        set_trace(false);
        let (ns, stats) = timed_run(id, reduced);
        untraced.push(ns);
        counters = stats.telemetry.solver;
        solves = stats.solves;
        set_trace(true);
        let (ns, stats) = timed_run(id, reduced);
        traced.push(ns);
        traced_stats = Some(stats);
    }
    set_trace(false);
    let untraced = WallStats::of(untraced);
    let traced = WallStats::of(traced);
    let overhead_ratio = traced.median_ns as f64 / (untraced.median_ns.max(1)) as f64;
    let job_wall = traced_stats
        .map(|s| s.telemetry.job_wall)
        .unwrap_or_default();
    ExperimentBench {
        id: id.to_string(),
        untraced,
        traced,
        overhead_ratio,
        solves,
        counters,
        job_wall_median_ns: job_wall.median().unwrap_or(0),
        job_wall_p95_ns: job_wall.p95().unwrap_or(0),
    }
}

/// Benchmarks the pinned drawer transient on fresh engines and derives
/// the dense-model comparison. The configuration is
/// [`DrawerStepConfig::default`] — 6 chips, a fixed step drive and
/// window — so the counters are deterministic across machines.
fn bench_drawer(iters: usize) -> DrawerBench {
    let cfg = DrawerStepConfig::default();
    let mut wall = Vec::with_capacity(iters);
    let mut counters = SolverCounters::default();
    let mut system_size = 0usize;
    for _ in 0..iters {
        let engine = Engine::with_workers(1);
        let job = DrawerJob::new(cfg.clone()).expect("drawer config serializes");
        let t0 = Instant::now();
        let outcome = engine
            .run_drawer(&job)
            .unwrap_or_else(|e| panic!("drawer solve failed: {e}"));
        wall.push(t0.elapsed().as_nanos() as u64);
        counters = engine.stats().telemetry.solver;
        system_size = outcome.system_size;
    }
    let n = system_size as f64;
    let dense_model = counters.lu_factorizations as f64 * (2.0 * n * n * n / 3.0 + n * n / 2.0)
        + counters.solve_calls as f64 * 2.0 * n * n;
    let sparse_est_flops = counters.est_flops;
    DrawerBench {
        chips: cfg.drawer.chips,
        system_size,
        wall: WallStats::of(wall),
        counters,
        sparse_est_flops,
        dense_model_flops: dense_model as u64,
        flops_ratio: dense_model / sparse_est_flops.max(1) as f64,
    }
}

/// Benchmarks the factor-once batched AC sweep on the drawer netlist
/// with the dense backend forced, so the batched path is compared
/// against the per-injection refactorization baseline under the exact
/// flop model the backend charges.
fn bench_ac_batch(iters: usize) -> AcBatchBench {
    let drawer = DrawerPdn::build(&DrawerParams::default()).expect("drawer builds");
    let system_size = MnaSystem::new(drawer.netlist()).size();
    let drawer_ref = &drawer;
    let nodes: Vec<NodeId> = (0..drawer.num_chips())
        .flat_map(|chip| (0..NUM_CORES).map(move |core| drawer_ref.core_node(chip, core)))
        .collect();
    let freqs = log_space(1e5, 1e8, 24).expect("frequency grid");
    let mut wall = Vec::with_capacity(iters);
    let mut counters = SolverCounters::default();
    for _ in 0..iters {
        let ac = AcAnalysis::with_backend(drawer.netlist(), SolverBackend::Dense);
        let t0 = Instant::now();
        for &f in &freqs {
            ac.impedance_batch(&nodes, f)
                .unwrap_or_else(|e| panic!("AC sweep failed at {f} Hz: {e}"));
        }
        wall.push(t0.elapsed().as_nanos() as u64);
        counters = ac.counters();
    }
    let n = system_size as f64;
    let factor_model = 2.0 * n * n * n / 3.0 + n * n / 2.0;
    let solve_model = 2.0 * n * n;
    let per_injection_model = counters.solve_calls as f64 * (factor_model + solve_model);
    let batched_est_flops = counters.est_flops;
    AcBatchBench {
        system_size,
        frequencies: freqs.len(),
        injections: nodes.len(),
        wall: WallStats::of(wall),
        counters,
        batched_est_flops,
        per_injection_model_flops: per_injection_model as u64,
        flops_ratio: per_injection_model / batched_est_flops.max(1) as f64,
    }
}

/// One fresh-engine drawer solve under `spec`; returns wall time, the
/// outcome, and the engine's solver counters.
fn timed_drawer(
    base: &DrawerStepConfig,
    spec: SolveSpec,
) -> (u64, voltnoise::system::DrawerStepOutcome, SolverCounters) {
    let cfg = DrawerStepConfig {
        solve: spec,
        ..base.clone()
    };
    let engine = Engine::with_workers(1);
    let job = DrawerJob::new(cfg).expect("drawer config serializes");
    let t0 = Instant::now();
    let outcome = engine
        .run_drawer(&job)
        .unwrap_or_else(|e| panic!("drawer solve failed: {e}"));
    let ns = t0.elapsed().as_nanos() as u64;
    let counters = engine.stats().telemetry.solver;
    (ns, (*outcome).clone(), counters)
}

/// Benchmarks the reduced-order macromodel against the full-order
/// transient on a long drawer window (15x the default), where the ROM's
/// fixed calibration cost amortizes.
fn bench_rom(iters: usize) -> RomBench {
    // A doubled coarse-step dilation relative to the default: the
    // calibration validates the error budget at exactly this stepping,
    // so the extra speed stays inside the accuracy contract.
    let spec = RomSpec {
        dilation: 12,
        ..RomSpec::default()
    };
    let base = DrawerStepConfig {
        window_s: 100e-6,
        ..DrawerStepConfig::default()
    };
    let mut full_wall = Vec::with_capacity(iters);
    let mut rom_wall = Vec::with_capacity(iters);
    let mut full_counters = SolverCounters::default();
    let mut rom_counters = SolverCounters::default();
    let mut full_outcome = None;
    let mut rom_outcome = None;
    for _ in 0..iters {
        let (ns, outcome, counters) = timed_drawer(&base, SolveSpec::full());
        full_wall.push(ns);
        full_counters = counters;
        full_outcome = Some(outcome);
        let (ns, outcome, counters) = timed_drawer(&base, SolveSpec::reduced(spec));
        rom_wall.push(ns);
        rom_counters = counters;
        rom_outcome = Some(outcome);
    }
    let full = full_outcome.expect("at least one iteration");
    let rom = rom_outcome.expect("at least one iteration");
    RomBench {
        chips: base.drawer.chips,
        system_size: full.system_size,
        window_s: base.window_s,
        budget_v: spec.budget_v,
        rom_states: rom.rom_states,
        rom_max_error_v: rom.rom_max_error_v,
        full_steps: full.steps,
        rom_steps: rom.steps,
        full_wall: WallStats::of(full_wall),
        rom_wall: WallStats::of(rom_wall),
        full_est_flops: full_counters.est_flops,
        rom_est_flops: rom_counters.est_flops,
        flops_ratio: full_counters.est_flops as f64 / rom_counters.est_flops.max(1) as f64,
    }
}

/// Benchmarks client-observed request latency against an in-process
/// `voltnoise-server` bound to an ephemeral loopback port. One warm-up
/// batch pays the solve; the timed requests then measure the service
/// envelope on the cache-hit path, with bare `/healthz` pings as the
/// HTTP floor.
fn bench_server_rtt(iters: usize) -> ServerRttBench {
    let server = Server::bind(ServerConfig {
        reduced: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server
        .local_addr()
        .expect("server has a local address")
        .to_string();
    let stop = server.stop_handle();
    let engine = server.engine();
    let daemon = std::thread::spawn(move || server.run());
    let timeout = Duration::from_secs(120);
    let body = r#"{"jobs":[{"mapping":["max","idle","idle","idle","idle","idle"],"stim_freq_hz":2.5e6,"sync":true,"window_s":5e-6,"seed":42}]}"#;
    let warmup = http_request(&addr, "POST", "/jobs", Some(body), timeout)
        .expect("warm-up batch round trip");
    assert_eq!(warmup.status, 200, "warm-up batch failed: {}", warmup.body);
    let requests = (iters * 5).max(5);
    let mut rtt = Vec::with_capacity(requests);
    let mut healthz = Vec::with_capacity(requests);
    for _ in 0..requests {
        let t0 = Instant::now();
        let resp =
            http_request(&addr, "POST", "/jobs", Some(body), timeout).expect("batch round trip");
        rtt.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.status, 200, "batch request failed: {}", resp.body);
        let t0 = Instant::now();
        let resp =
            http_request(&addr, "GET", "/healthz", None, timeout).expect("healthz round trip");
        healthz.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.status, 200, "healthz failed: {}", resp.body);
    }
    let stats = engine.stats();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon
        .join()
        .expect("server thread exits")
        .expect("server drains cleanly");
    ServerRttBench {
        requests,
        jobs_per_request: 1,
        rtt: WallStats::of(rtt),
        healthz_rtt: WallStats::of(healthz),
        solves: stats.solves,
        cache_hits: stats.cache_hits,
    }
}

/// Benchmarks Welch PSD throughput, batch vs streaming, over a real
/// 100 µs scope trace from a 2.5 MHz all-core stressmark solve. The
/// trace is resampled to a uniform grid once, outside the timed
/// region, and tiled so each run averages a few hundred segments.
fn bench_signal(iters: usize) -> SignalBench {
    use voltnoise::pdn::signal::{resample_uniform, welch_psd, WelchConfig, WelchStream};
    use voltnoise::system::{CoreLoad, NoiseRunConfig, SimJob};

    const TRACE_WINDOW_S: f64 = 100e-6;
    const RESAMPLE_POINTS: usize = 16384;
    const SEGMENT_LEN: usize = 1024;
    const TILES: usize = 16;
    const CHUNK: usize = 4096;

    let tb = Testbed::fast();
    let sm = tb.max_stressmark(2.5e6, None);
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let job = SimJob::batch(tb.chip()).job(
        loads,
        NoiseRunConfig {
            window_s: Some(TRACE_WINDOW_S),
            record_traces: true,
            seed: 1,
            ..NoiseRunConfig::default()
        },
    );
    let engine = Engine::with_workers(1);
    let outcomes = engine
        .run_jobs(std::slice::from_ref(&job))
        .unwrap_or_else(|e| panic!("signal bench solve failed: {e}"));
    let capture = outcomes[0]
        .traces
        .as_ref()
        .expect("signal bench job records traces");
    let volts = capture.channel(0).expect("signal bench job probes core 0");
    let trace_points = capture.times().len();
    let (fs, base) =
        resample_uniform(capture.times(), volts, RESAMPLE_POINTS).expect("scope trace resamples");
    let mut samples = Vec::with_capacity(base.len() * TILES);
    for _ in 0..TILES {
        samples.extend_from_slice(&base);
    }
    let cfg = WelchConfig::half_overlap(SEGMENT_LEN, fs);

    let runs = (iters * 5).max(5);
    let mut batch_wall = Vec::with_capacity(runs);
    let mut stream_wall = Vec::with_capacity(runs);
    let mut batch_psd = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let psd = welch_psd(&samples, cfg).expect("batch Welch");
        batch_wall.push(t0.elapsed().as_nanos() as u64);

        let t0 = Instant::now();
        let mut stream = WelchStream::new(cfg).expect("stream config");
        for chunk in samples.chunks(CHUNK) {
            stream.push(chunk);
        }
        let streamed = stream.finish();
        stream_wall.push(t0.elapsed().as_nanos() as u64);

        // The overhead ratio below only means something if both paths
        // did identical work — enforce it to the bit.
        assert_eq!(
            streamed, psd,
            "stream and batch Welch PSDs must match bitwise"
        );
        batch_psd = Some(psd);
    }
    let psd = batch_psd.expect("at least one run");
    let peak_freq_hz = psd
        .peak_in_band(5e5, fs / 2.0)
        .map(|(f, _)| f)
        .unwrap_or(0.0);
    let batch_wall = WallStats::of(batch_wall);
    let stream_wall = WallStats::of(stream_wall);
    SignalBench {
        trace_window_s: TRACE_WINDOW_S,
        trace_points,
        samples: samples.len(),
        segment_len: SEGMENT_LEN,
        segments: psd.segments(),
        batch_samples_per_s: samples.len() as f64 / (batch_wall.median_ns.max(1) as f64 / 1e9),
        stream_samples_per_s: samples.len() as f64 / (stream_wall.median_ns.max(1) as f64 / 1e9),
        stream_overhead_ratio: stream_wall.median_ns as f64 / batch_wall.median_ns.max(1) as f64,
        batch_wall,
        stream_wall,
        peak_freq_hz,
    }
}

/// Benchmarks the rack placement study on fresh engines: one full
/// naive + noise-aware replay campaign per iteration at reduced scale.
fn bench_rack_map(iters: usize) -> RackMapBench {
    use voltnoise::analysis::{Experiment, RackMapConfig, RackMapExperiment};
    let tb = Testbed::fast();
    let exp = RackMapExperiment {
        cfg: RackMapConfig::reduced(),
    };
    let mut wall = Vec::with_capacity(iters);
    let mut counters = SolverCounters::default();
    let mut solves = 0usize;
    let mut result = None;
    for _ in 0..iters {
        let engine = Engine::with_workers(workers());
        let t0 = Instant::now();
        let res = exp
            .run(tb, &engine)
            .unwrap_or_else(|e| panic!("rack-map campaign failed: {e}"));
        wall.push(t0.elapsed().as_nanos() as u64);
        let stats = engine.stats();
        counters = stats.telemetry.solver;
        solves = stats.solves;
        result = Some(res);
    }
    let res = result.expect("at least one iteration");
    RackMapBench {
        drawers: res.drawers,
        chips_per_drawer: res.chips_per_drawer,
        sites: res.sites,
        wall: WallStats::of(wall),
        counters,
        solves,
        occupancies_evaluated: res.occupancies_evaluated,
        naive_peak_pct: res.naive.peak_required_pct,
        aware_peak_pct: res.aware.peak_required_pct,
        worst_gain_pct: res.worst_gain_pct(),
        guardband_recovered_mv: res.guardband_recovered_mv(),
    }
}

fn smoke_check(json: &str) {
    let report: BenchReport = serde_json::from_str(json).expect("BENCH_report.json parses back");
    assert_eq!(report.schema, SCHEMA, "schema version mismatch");
    assert!(!report.experiments.is_empty(), "no experiments benchmarked");
    for exp in &report.experiments {
        assert!(
            exp.counters.steps > 0
                && exp.counters.solve_calls > 0
                && exp.counters.lu_factorizations > 0,
            "{}: solver counters must be nonzero, got {:?}",
            exp.id,
            exp.counters
        );
        assert!(exp.solves > 0, "{}: no jobs solved", exp.id);
        assert!(
            exp.job_wall_p95_ns > 0,
            "{}: traced run recorded no job wall times",
            exp.id
        );
        assert!(
            exp.overhead_ratio < SMOKE_MAX_OVERHEAD,
            "{}: telemetry overhead ratio {:.2} exceeds {SMOKE_MAX_OVERHEAD}",
            exp.id,
            exp.overhead_ratio
        );
    }
    let drawer = &report.drawer;
    assert!(
        drawer.system_size >= 150,
        "drawer must be drawer-scale, got {} unknowns",
        drawer.system_size
    );
    assert!(
        drawer.counters.sparse_solves > 0,
        "drawer run must exercise the sparse backend, got {:?}",
        drawer.counters
    );
    assert!(
        drawer.flops_ratio >= MIN_DRAWER_FLOPS_RATIO,
        "drawer sparse path must beat the dense cost model by >= {MIN_DRAWER_FLOPS_RATIO}x, \
         got {:.2}x ({} sparse vs {} dense-model flops)",
        drawer.flops_ratio,
        drawer.sparse_est_flops,
        drawer.dense_model_flops
    );
    let ac = &report.ac_batch;
    assert!(
        ac.counters.batched_solves > 0,
        "AC sweep must route through the batched path, got {:?}",
        ac.counters
    );
    assert_eq!(
        ac.counters.lu_factorizations as usize, ac.frequencies,
        "batched AC sweep must factor exactly once per frequency"
    );
    assert!(
        ac.flops_ratio >= MIN_AC_BATCH_FLOPS_RATIO,
        "batched AC sweep must beat per-injection refactorization by >= \
         {MIN_AC_BATCH_FLOPS_RATIO}x, got {:.2}x ({} batched vs {} baseline flops)",
        ac.flops_ratio,
        ac.batched_est_flops,
        ac.per_injection_model_flops
    );
    let rom = &report.rom;
    assert!(
        rom.rom_states > 0 && rom.rom_est_flops > 0,
        "ROM solve must report its reduced order and charge work"
    );
    assert!(
        rom.rom_max_error_v <= rom.budget_v,
        "ROM calibrated error {:.3e} V exceeds its {:.3e} V budget",
        rom.rom_max_error_v,
        rom.budget_v
    );
    assert!(
        rom.rom_steps < rom.full_steps,
        "ROM solve must take fewer steps ({} vs {})",
        rom.rom_steps,
        rom.full_steps
    );
    assert!(
        rom.flops_ratio >= MIN_ROM_FLOPS_RATIO,
        "ROM must beat the full-order transient by >= {MIN_ROM_FLOPS_RATIO}x flops on the \
         long window, got {:.2}x ({} rom vs {} full flops)",
        rom.flops_ratio,
        rom.rom_est_flops,
        rom.full_est_flops
    );
    let server = &report.server_rtt;
    assert!(
        server.rtt.median_ns > 0 && server.rtt.p95_ns >= server.rtt.median_ns,
        "server RTT stats must be populated and ordered, got {:?}",
        server.rtt
    );
    assert_eq!(
        server.solves, 1,
        "timed server requests must ride the memo cache (one warm-up solve), got {} solves",
        server.solves
    );
    assert!(
        server.cache_hits >= server.requests,
        "server cache hits ({}) must cover the {} timed requests",
        server.cache_hits,
        server.requests
    );
    let signal = &report.signal;
    assert!(
        signal.segments > 0 && signal.samples > signal.segment_len,
        "signal bench must average real segments, got {signal:?}"
    );
    assert!(
        signal.batch_samples_per_s > 0.0 && signal.stream_samples_per_s > 0.0,
        "signal throughput must be measurable, got {signal:?}"
    );
    assert!(
        signal.stream_overhead_ratio <= MAX_SIGNAL_STREAM_OVERHEAD,
        "streaming Welch must stay within {MAX_SIGNAL_STREAM_OVERHEAD}x of batch, got {:.3}x \
         ({} vs {} ns median)",
        signal.stream_overhead_ratio,
        signal.stream_wall.median_ns,
        signal.batch_wall.median_ns
    );
    assert!(
        (1.0e6..5.0e6).contains(&signal.peak_freq_hz),
        "the stressmark trace's PSD peak must sit in the die resonance band, got {:.3e} Hz",
        signal.peak_freq_hz
    );
    let rack = &report.rack_map;
    assert!(
        rack.drawers >= 2 && rack.drawers * rack.chips_per_drawer >= 4,
        "rack study must span >= 2 drawers and >= 4 chips, got {}x{}",
        rack.drawers,
        rack.chips_per_drawer
    );
    assert!(
        rack.counters.steps > 0 && rack.solves > 0 && rack.occupancies_evaluated > 0,
        "rack study must solve real occupancies, got {rack:?}"
    );
    assert!(
        rack.aware_peak_pct < rack.naive_peak_pct,
        "noise-aware placement must strictly beat naive worst-case noise, got {:.3} vs {:.3} %p2p",
        rack.aware_peak_pct,
        rack.naive_peak_pct
    );
    assert!(
        rack.guardband_recovered_mv > 0.0,
        "rack study must recover guardband, got {:.3} mV",
        rack.guardband_recovered_mv
    );
    eprintln!("# smoke checks passed");
}

fn main() {
    let opts = parse_args();
    // Build the shared testbed outside the timed region.
    let _ = Testbed::fast();
    let experiments: Vec<ExperimentBench> = PINNED
        .iter()
        .map(|id| {
            eprintln!("# benchmarking {id} ({} iterations)", opts.iters);
            bench_experiment(id, opts.iters, true)
        })
        .collect();
    eprintln!(
        "# benchmarking drawer transient ({} iterations)",
        opts.iters
    );
    let drawer = bench_drawer(opts.iters);
    eprintln!(
        "# benchmarking batched AC drawer sweep ({} iterations)",
        opts.iters
    );
    let ac_batch = bench_ac_batch(opts.iters);
    eprintln!(
        "# benchmarking reduced-order drawer transient ({} iterations)",
        opts.iters
    );
    let rom = bench_rom(opts.iters);
    eprintln!(
        "# benchmarking server round-trip latency ({} iterations)",
        opts.iters
    );
    let server_rtt = bench_server_rtt(opts.iters);
    eprintln!(
        "# benchmarking Welch PSD throughput ({} iterations)",
        opts.iters
    );
    let signal = bench_signal(opts.iters);
    eprintln!(
        "# benchmarking rack placement study ({} iterations)",
        opts.iters
    );
    let rack_map = bench_rack_map(opts.iters);
    let report = BenchReport {
        schema: SCHEMA.to_string(),
        iterations: opts.iters,
        reduced: true,
        workers: workers(),
        experiments,
        drawer,
        ac_batch,
        rom,
        server_rtt,
        signal,
        rack_map,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, format!("{json}\n")).expect("report file writable");
    for exp in &report.experiments {
        println!(
            "{:8} median {:>12} ns  p95 {:>12} ns  solves {:>4}  steps {:>8}  overhead x{:.2}",
            exp.id,
            exp.untraced.median_ns,
            exp.untraced.p95_ns,
            exp.solves,
            exp.counters.steps,
            exp.overhead_ratio
        );
    }
    println!(
        "{:8} median {:>12} ns  {} unknowns  sparse_solves {:>6}  flops x{:.2} vs dense model",
        "drawer",
        report.drawer.wall.median_ns,
        report.drawer.system_size,
        report.drawer.counters.sparse_solves,
        report.drawer.flops_ratio
    );
    println!(
        "{:8} median {:>12} ns  {} freqs x {} ports  batched_solves {:>6}  flops x{:.2} vs \
         per-injection refactor",
        "ac_batch",
        report.ac_batch.wall.median_ns,
        report.ac_batch.frequencies,
        report.ac_batch.injections,
        report.ac_batch.counters.batched_solves,
        report.ac_batch.flops_ratio
    );
    println!(
        "{:8} median {:>12} ns  {} states  max_err {:.3} mV (budget {:.3} mV)  steps {} vs {}  \
         flops x{:.2} vs full order",
        "rom",
        report.rom.rom_wall.median_ns,
        report.rom.rom_states,
        report.rom.rom_max_error_v * 1e3,
        report.rom.budget_v * 1e3,
        report.rom.rom_steps,
        report.rom.full_steps,
        report.rom.flops_ratio
    );
    println!(
        "{:8} p50 {:>15} ns  p95 {:>12} ns  healthz p50 {:>9} ns  {} requests  solves {}  \
         cache_hits {}",
        "srv_rtt",
        report.server_rtt.rtt.median_ns,
        report.server_rtt.rtt.p95_ns,
        report.server_rtt.healthz_rtt.median_ns,
        report.server_rtt.requests,
        report.server_rtt.solves,
        report.server_rtt.cache_hits
    );
    println!(
        "{:8} batch {:>10.0} samp/s  stream {:>10.0} samp/s  overhead x{:.3}  {} segs  peak \
         {:.3e} Hz",
        "signal",
        report.signal.batch_samples_per_s,
        report.signal.stream_samples_per_s,
        report.signal.stream_overhead_ratio,
        report.signal.segments,
        report.signal.peak_freq_hz
    );
    println!(
        "{:8} median {:>12} ns  {}x{} chips ({} sites)  occs {:>4}  peak {:.2} vs {:.2} %p2p  \
         recovered {:.2} mV",
        "rack_map",
        report.rack_map.wall.median_ns,
        report.rack_map.drawers,
        report.rack_map.chips_per_drawer,
        report.rack_map.sites,
        report.rack_map.occupancies_evaluated,
        report.rack_map.aware_peak_pct,
        report.rack_map.naive_peak_pct,
        report.rack_map.guardband_recovered_mv
    );
    eprintln!("# wrote {}", opts.out.display());
    if opts.smoke {
        smoke_check(&json);
    }
}
