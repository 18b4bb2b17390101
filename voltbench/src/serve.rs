//! `serve-mixed`: closed-loop traffic against an in-process daemon.
//!
//! Every client sends the same seeded sequence of batches, so clients
//! race on the same new keys and the daemon's singleflight, memo and
//! store appends all work under concurrency. One connection per request,
//! as `voltnoise-client` does.

use crate::report::RunResult;
use crate::stats::{median, tail};
use crate::workloads::{build_testbeds, setup_reps, Ledger, Run};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use voltnoise::system::WorkloadKind;
use voltnoise_server::wire::parse_batch;
use voltnoise_server::{http_request, BatchRequest, JobSpec, Response, Server, ServerConfig};

/// Keys in the hot set the prep step posts.
const HOT_JOBS: usize = 6;
/// Simulated window of every job: short, so a request's cost is the
/// service envelope plus a small solve.
const WINDOW_S: f64 = 5e-6;
const STIM_HZ: [f64; 3] = [1.0e6, 2.5e6, 5.0e6];
/// Requests per client in smoke mode (half `POST /jobs`, half
/// `GET /healthz`).
const SMOKE_REQUESTS: usize = 50;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Stream separating the hot set from the per-request draws.
const HOT_STREAM: u64 = 0x686f_7473_6574;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn draw_job(rng: &mut Rng) -> JobSpec {
    let kinds = [
        WorkloadKind::Idle,
        WorkloadKind::MediumDidt,
        WorkloadKind::MaxDidt,
    ];
    let mut mapping = [WorkloadKind::Idle; 6];
    for m in &mut mapping {
        *m = kinds[rng.below(kinds.len())];
    }
    // An all-idle chip ignores the stimulus fields, so two such specs
    // could share one content key; keep every spec's key distinct.
    if mapping.iter().all(|&m| m == WorkloadKind::Idle) {
        mapping[rng.below(mapping.len())] = WorkloadKind::MaxDidt;
    }
    JobSpec {
        mapping,
        stim_freq_hz: STIM_HZ[rng.below(STIM_HZ.len())],
        sync: rng.next() & 1 == 1,
        window_s: Some(WINDOW_S),
        seed: rng.next() >> 11,
        record_traces: false,
        max_steps: None,
    }
}

/// The seeded request generator.
pub struct Traffic {
    seed: u64,
    /// The hot set: keys posted once before the measured phase.
    pub hot: Vec<JobSpec>,
}

impl Traffic {
    /// The generator for `seed`.
    pub fn new(seed: u64) -> Traffic {
        let mut rng = Rng(splitmix64(seed ^ HOT_STREAM));
        Traffic {
            seed,
            hot: (0..HOT_JOBS).map(|_| draw_job(&mut rng)).collect(),
        }
    }

    /// The `k`-th batch every client sends: 1–3 jobs, each a hot key or
    /// a fresh key derived from `(seed, k)`, with equal odds.
    pub fn batch(&self, k: u64) -> BatchRequest {
        let mut rng = Rng(self.seed ^ splitmix64(k));
        let n = 1 + rng.below(3);
        let jobs = (0..n)
            .map(|_| {
                if rng.next() & 1 == 0 {
                    self.hot[rng.below(HOT_JOBS)].clone()
                } else {
                    draw_job(&mut rng)
                }
            })
            .collect();
        BatchRequest {
            jobs,
            deadline_ms: None,
        }
    }
}

/// The canonical wire rendering of a job: equal for equal content keys.
fn key_of(job: &JobSpec) -> String {
    serde_json::to_string(&job.to_value()).expect("the vendored JSON writer is total")
}

/// First-seen outcome bytes per key, and how often a later reply
/// differed.
#[derive(Default)]
struct Outcomes {
    by_key: HashMap<String, String>,
    mismatches: u64,
}

impl Outcomes {
    fn record(&mut self, key: String, bytes: &str) {
        match self.by_key.get(&key) {
            Some(first) if first != bytes => self.mismatches += 1,
            Some(_) => {}
            None => {
                self.by_key.insert(key, bytes.to_string());
            }
        }
    }
}

/// Why a request did not count as served.
enum Refusal {
    Transport,
    Status(u16),
    Fault,
}

/// Checks one streamed `/jobs` reply: one `ok` line per job, then a
/// summary with zero faults. Records each outcome's bytes by key.
fn check(
    batch: &BatchRequest,
    sent: std::io::Result<Response>,
    outcomes: &Mutex<Outcomes>,
) -> Result<(), Refusal> {
    let resp = sent.map_err(|_| Refusal::Transport)?;
    if resp.status != 200 {
        return Err(Refusal::Status(resp.status));
    }
    let lines = resp.lines();
    let summary = format!(
        "{{\"done\":true,\"jobs\":{},\"faults\":0}}",
        batch.jobs.len()
    );
    if lines.len() != batch.jobs.len() + 1 || lines.last() != Some(&summary.as_str()) {
        return Err(Refusal::Fault);
    }
    let mut outcomes = outcomes
        .lock()
        .expect("outcome log lock is never held across a panic");
    for line in &lines[..batch.jobs.len()] {
        let parsed = line.strip_prefix("{\"index\":").and_then(|rest| {
            let (index, rest) = rest.split_once(',')?;
            let outcome = rest
                .strip_prefix("\"status\":\"ok\",\"outcome\":")?
                .strip_suffix('}')?;
            Some((index.parse::<usize>().ok()?, outcome))
        });
        match parsed {
            Some((index, outcome)) if index < batch.jobs.len() => {
                outcomes.record(key_of(&batch.jobs[index]), outcome);
            }
            _ => return Err(Refusal::Fault),
        }
    }
    Ok(())
}

fn post(addr: &str, body: &str) -> std::io::Result<Response> {
    http_request(addr, "POST", "/jobs", Some(body), TIMEOUT)
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    jobs_rtt: Vec<f64>,
    warm_rtt: Vec<f64>,
    healthz_rtt: Vec<f64>,
    attempted: u64,
    failed: u64,
    status_429: u64,
    status_503: u64,
    batches: u64,
}

impl ClientLog {
    fn refused(&mut self, why: Refusal) {
        self.failed += 1;
        match why {
            Refusal::Status(429) => self.status_429 += 1,
            Refusal::Status(503) => self.status_503 += 1,
            Refusal::Status(_) | Refusal::Transport | Refusal::Fault => {}
        }
    }
}

fn client(
    run: &Run,
    c: usize,
    addr: &str,
    traffic: &Traffic,
    deadline: Instant,
    root: u64,
    outcomes: &Mutex<Outcomes>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let hot: Vec<String> = traffic.hot.iter().map(key_of).collect();
    for k in 0u64.. {
        let done = if run.smoke {
            2 * k as usize >= SMOKE_REQUESTS
        } else {
            Instant::now() >= deadline
        };
        if done {
            break;
        }
        let batch = traffic.batch(k);
        let body = batch.to_json();
        let trace = format!("serve-mixed/{c}-{k}");
        let (sent, rtt) = run
            .rec
            .time(Some(root), "server.jobs", &trace, || post(addr, &body));
        log.attempted += 1;
        log.batches = k + 1;
        match check(&batch, sent, outcomes) {
            Ok(()) => {
                log.jobs_rtt.push(rtt.secs());
                if batch.jobs.iter().all(|j| hot.contains(&key_of(j))) {
                    log.warm_rtt.push(rtt.secs());
                }
            }
            Err(why) => log.refused(why),
        }
        let (probe, rtt) = run.rec.time(Some(root), "server.healthz", &trace, || {
            http_request(addr, "GET", "/healthz", None, TIMEOUT)
        });
        log.attempted += 1;
        match probe {
            Ok(resp) if resp.status == 200 => log.healthz_rtt.push(rtt.secs()),
            Ok(resp) => log.refused(Refusal::Status(resp.status)),
            Err(_) => log.refused(Refusal::Transport),
        }
    }
    log
}

/// Binds the run's server [`setup_reps`] times, each on a fresh scratch
/// store, and returns the last one with each bind's time. The testbed is
/// built once per process, by the first bind, so the later binds time
/// the rest of the daemon's start-up; earlier servers are run and
/// stopped at once, which is how the daemon tears down.
fn bind_servers(run: &Run) -> (Server, PathBuf, Vec<f64>) {
    let mut times = Vec::new();
    let mut bound: Option<(Server, PathBuf)> = None;
    for i in 0..setup_reps(run) {
        let store = run.dir.join(format!("serve-{i}.jsonl"));
        let cfg = ServerConfig {
            workers: run.workers,
            reduced: true,
            store: Some(store.display().to_string()),
            ..ServerConfig::default()
        };
        let (server, span) = run
            .rec
            .time(None, "server.bind", &format!("setup/{i}"), || {
                Server::bind(cfg)
            });
        times.push(span.secs());
        let server = server.expect("loopback server binds");
        if let Some((prev, _)) = bound.replace((server, store)) {
            prev.stop_handle().store(true, Ordering::SeqCst);
            prev.run().expect("an idle server drains cleanly");
        }
    }
    let (server, store) = bound.expect("at least one bind");
    (server, store, times)
}

/// `serve-mixed`: a prep step posts the hot set once; then the clients
/// run closed loops of `POST /jobs` and `GET /healthz` until the budget
/// is spent.
///
/// `setup_s` is a cold daemon start: the median fresh testbed build plus
/// the median bind.
pub fn serve_mixed(run: &Run, r: &mut RunResult) -> Ledger {
    let (_, mut setup) = build_testbeds(run, r);
    let (server, store, binds) = bind_servers(run);
    setup.binds = binds;
    let addr = server
        .local_addr()
        .expect("bound server has an address")
        .to_string();
    let stop = server.stop_handle();
    let engine = server.engine();
    let daemon = std::thread::spawn(move || server.run());

    let traffic = Traffic::new(run.seed);
    let outcomes = Mutex::new(Outcomes::default());
    let hot = BatchRequest {
        jobs: traffic.hot.clone(),
        deadline_ms: None,
    };
    r.attempted += 1;
    if check(&hot, post(&addr, &hot.to_json()), &outcomes).is_err() {
        r.failed += 1;
    }

    let clients = run.workers.clamp(1, 2);
    let root = run.rec.open();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(run.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, traffic, outcomes) = (&addr, &traffic, &outcomes);
                s.spawn(move || client(run, c, addr, traffic, deadline, root, outcomes))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = run.rec.close(root, None, "serve", "serve-mixed/run", t0);
    stop.store(true, Ordering::SeqCst);
    daemon
        .join()
        .expect("server thread does not panic")
        .expect("server drains cleanly");

    let mut l = Ledger {
        iterations: 1,
        measured_wall: wall.secs(),
        setup,
        ..Ledger::rooted("serve")
    };
    l.absorb(&engine);
    drop(engine);
    r.mismatches += outcomes
        .into_inner()
        .expect("outcome log lock is never held across a panic")
        .mismatches;

    // Every key sent, hot set included, and how long the strict decoder
    // takes over each body sent. Both clients send the same sequence.
    let batches = logs.iter().map(|g| g.batches).max().unwrap_or(0);
    let mut keys: HashSet<String> = traffic.hot.iter().map(key_of).collect();
    let decode: Vec<f64> = (0..batches)
        .map(|k| {
            let batch = traffic.batch(k);
            keys.extend(batch.jobs.iter().map(key_of));
            let body = batch.to_json();
            let t0 = Instant::now();
            let parsed = parse_batch(std::hint::black_box(&body));
            let secs = t0.elapsed().as_secs_f64();
            assert!(parsed.is_ok(), "generated batch {k} decodes");
            secs
        })
        .collect();
    // Singleflight: the store starts empty, so each distinct key should
    // be solved exactly once. The engine consults its memo and store
    // before its in-flight registry, so a caller that misses both just
    // before the leader publishes, and registers just after the leader
    // leaves, solves the key again. Its bytes are identical (the outcome
    // check above holds), so the extra solve is wasted work, counted here
    // rather than failing the run.
    let duplicates = (l.counter("solves") - keys.len() as f64).max(0.0);

    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|g| f(g).iter().copied()).collect()
    };
    let jobs_rtt: Vec<f64> = all(|g| &g.jobs_rtt);
    l.ops.clone_from(&jobs_rtt);
    l.ops_wall.clone_from(&jobs_rtt);
    let healthz = all(|g| &g.healthz_rtt);
    r.attempted += logs.iter().map(|g| g.attempted).sum::<u64>();
    r.failed += logs.iter().map(|g| g.failed).sum::<u64>();
    let status = |f: fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
    for (name, value) in [
        ("engine.duplicate_solves", duplicates),
        (
            "server.jobs_rtt_p99_ms",
            tail(&jobs_rtt).map_or(0.0, |(secs, _)| secs * 1e3),
        ),
        (
            "server.requests_per_s",
            (jobs_rtt.len() + healthz.len()) as f64 / wall.secs(),
        ),
        ("server.healthz_rtt_p50_ms", median(&healthz) * 1e3),
        (
            "server.warm_rtt_p50_ms",
            median(&all(|g| &g.warm_rtt)) * 1e3,
        ),
        ("server.decode_us", median(&decode) * 1e6),
        ("server.status_429", status(|g| g.status_429)),
        ("server.status_503", status(|g| g.status_503)),
        ("server.shed_total", l.counter("shed_total")),
    ] {
        l.extra.insert(name, value);
    }
    l.compact(&store);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let a = Traffic::new(1);
        let b = Traffic::new(1);
        let c = Traffic::new(2);
        let bodies =
            |t: &Traffic| -> Vec<String> { (0..64).map(|k| t.batch(k).to_json()).collect() };
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
        assert_ne!(a.batch(0).to_json(), a.batch(1).to_json());
        for body in bodies(&a) {
            let batch = parse_batch(&body).expect("generated bodies decode");
            assert!((1..=3).contains(&batch.jobs.len()));
        }
    }

    #[test]
    fn traffic_mixes_hot_and_fresh_keys() {
        let t = Traffic::new(9);
        let hot: Vec<String> = t.hot.iter().map(key_of).collect();
        let (mut hits, mut fresh) = (0, 0);
        for k in 0..500 {
            for job in t.batch(k).jobs {
                assert!(job.mapping.iter().any(|&m| m != WorkloadKind::Idle));
                if hot.contains(&key_of(&job)) {
                    hits += 1;
                } else {
                    fresh += 1;
                }
            }
        }
        let share = hits as f64 / (hits + fresh) as f64;
        assert!((0.4..0.6).contains(&share), "hot share {share}");
    }
}
