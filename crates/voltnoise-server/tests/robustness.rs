//! End-to-end robustness tests against a real `voltnoise-server`
//! process: crash (SIGKILL) + store resume, deadline reaping, admission
//! rejection under synthetic overload and the client's retry of it,
//! cross-client dedup, the keep-alive request bound, and the `/rack`
//! route's share of the batch envelope (drain, deadline, lanes).
//!
//! Every server is started `--reduced` (the cached reduced-search
//! testbed) so the in-process "direct" baselines built with
//! [`Testbed::fast`] resolve to byte-identical content keys.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use voltnoise_server::http_request;
use voltnoise_system::engine::{Engine, SimJob};
use voltnoise_system::noise::NoiseRunConfig;
use voltnoise_system::testbed::Testbed;
use voltnoise_system::workload::WorkloadKind;

/// A spawned server process; killed on drop so a failing test cannot
/// leak daemons.
struct ServerProc {
    child: Child,
    addr: String,
    /// The server's stdout lines after the address announcement.
    stdout: Receiver<String>,
}

impl ServerProc {
    fn start(extra_args: &[&str], envs: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_voltnoise-server"));
        cmd.args(["--reduced", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn voltnoise-server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("server stdout readable");
            if let Some(addr) = line.strip_prefix("voltnoise-server listening on ") {
                break addr.trim().to_string();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let (tx, stdout) = channel();
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        ServerProc {
            child,
            addr,
            stdout,
        }
    }

    /// Waits up to 30 s for the server to exit on its own; returns its
    /// exit status and the stdout lines it printed since starting.
    fn wait_exit(&mut self) -> (std::process::ExitStatus, Vec<String>) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll server") {
                break status;
            }
            assert!(Instant::now() < deadline, "server did not exit");
            std::thread::sleep(Duration::from_millis(20));
        };
        (status, self.stdout.iter().collect())
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> voltnoise_server::Response {
        http_request(&self.addr, method, path, body, Duration::from_secs(300))
            .expect("request to test server")
    }

    fn stats(&self) -> String {
        self.request("GET", "/stats", None).body
    }

    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL server");
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A parsed JSON value tree (the vendored `Value` has no `Deserialize`).
struct Tree(serde::Value);

impl serde::Deserialize for Tree {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

/// Reads the top-level `"signal"` section of the `/stats` JSON as
/// `(field, value)` pairs, requiring every field to be an unsigned
/// integer (never `null`). The raw telemetry nests a `"signal"`
/// aggregate too; only the last top-level key (the appended summary)
/// is read.
fn signal_section(stats: &str) -> Vec<(String, u64)> {
    let Tree(root) = serde_json::from_str(stats)
        .unwrap_or_else(|e| panic!("/stats is not JSON: {e} in {stats}"));
    let section = root
        .as_object()
        .and_then(|fields| fields.iter().rev().find(|(k, _)| k == "signal"))
        .and_then(|(_, v)| v.as_object())
        .unwrap_or_else(|| panic!("no signal object in {stats}"));
    section
        .iter()
        .map(|(name, v)| match v {
            serde::Value::U64(n) => (name.clone(), *n),
            other => panic!("signal.{name} must be unsigned, got {other:?} in {stats}"),
        })
        .collect()
}

/// Extracts an integer stats field from the `/stats` JSON.
fn stat_field(stats: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} in {stats}"));
    stats[at + needle.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {name} in {stats}"))
}

/// Parses streamed `/jobs` lines into `(index, outcome-or-fault)` with
/// the raw outcome JSON preserved for byte-identity checks.
#[derive(Debug)]
enum Settled {
    Ok(String),
    Fault { kind: String },
}

fn parse_lines(body: &str) -> Vec<(usize, Settled)> {
    let mut out = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if line.starts_with("{\"done\"") {
            continue;
        }
        let index: usize = line
            .strip_prefix("{\"index\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparsable result line: {line}"));
        if let Some(at) = line.find("\"outcome\":") {
            let outcome = line[at + "\"outcome\":".len()..]
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated outcome in {line}"))
                .to_string();
            out.push((index, Settled::Ok(outcome)));
        } else if let Some(at) = line.find("\"kind\":\"") {
            let rest = &line[at + "\"kind\":\"".len()..];
            let kind = rest.split('"').next().unwrap_or("").to_string();
            out.push((index, Settled::Fault { kind }));
        } else {
            panic!("unrecognized result line: {line}");
        }
    }
    out.sort_by_key(|(i, _)| *i);
    out
}

const MAPPING_A: &str = r#"["max","idle","idle","idle","idle","idle"]"#;
const MAPPING_B: &str = r#"["max","med","idle","idle","idle","idle"]"#;

fn quick_job(mapping: &str, seed: u64) -> String {
    format!(
        r#"{{"mapping":{mapping},"stim_freq_hz":2.5e6,"sync":true,"window_s":5e-6,"seed":{seed}}}"#
    )
}

/// The in-process twin of [`quick_job`]: byte-identity baselines run
/// these through a local engine.
fn quick_sim_job(tb: &Testbed, kinds: [WorkloadKind; 6], seed: u64) -> SimJob {
    let loads = tb.loads_of_mapping(
        &kinds,
        2.5e6,
        Some(voltnoise_stressmark::SyncSpec::paper_default()),
    );
    SimJob::new(
        Arc::new(tb.chip().clone()),
        loads,
        NoiseRunConfig {
            window_s: Some(5e-6),
            seed,
            ..NoiseRunConfig::default()
        },
    )
}

fn kinds_a() -> [WorkloadKind; 6] {
    [
        WorkloadKind::MaxDidt,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
    ]
}

fn kinds_b() -> [WorkloadKind; 6] {
    [
        WorkloadKind::MaxDidt,
        WorkloadKind::MediumDidt,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
        WorkloadKind::Idle,
    ]
}

#[test]
fn health_stats_and_malformed_bodies() {
    let server = ServerProc::start(&[], &[]);
    assert_eq!(server.request("GET", "/healthz", None).body, "ok\n");
    assert_eq!(server.request("GET", "/readyz", None).body, "ready\n");
    let stats = server.stats();
    assert_eq!(stat_field(&stats, "solves"), 0);
    // The body carries a "signal" section of unsigned counts: a fresh
    // server has analyzed no traces, so the quantiles are absent.
    let signal = signal_section(&stats);
    assert_eq!(
        signal,
        [("traces".to_string(), 0), ("rejected".to_string(), 0)]
    );
    // Malformed bodies answer 400 with the machine-readable shape —
    // never a hang, never a connection drop.
    for bad in [
        "not json",
        r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":null}]}"#,
        r#"{"jobs":[]}"#,
        r#"{"jobs":[{"mapping":["idle","idle","idle","idle","idle","idle"],"stim_freq_hz":1.0,"stim_freq_hz":2.0}]}"#,
    ] {
        let resp = server.request("POST", "/jobs", Some(bad));
        assert_eq!(resp.status, 400, "body {bad:?} gave {}", resp.body);
        assert!(
            resp.body.contains("\"error\":\"invalid-request\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"code\":"), "{}", resp.body);
    }
    // Unknown route → 404, wrong method → 404.
    assert_eq!(server.request("GET", "/nope", None).status, 404);
    assert_eq!(server.request("POST", "/healthz", Some("x")).status, 404);
}

/// Reads one `Content-Length`-framed response off a persistent
/// connection: `(status, connection header, body)`.
fn read_framed(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let (mut connection, mut length) = (String::new(), 0usize);
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header has a colon");
        match name.to_ascii_lowercase().as_str() {
            "connection" => connection = value.trim().to_string(),
            "content-length" => length = value.trim().parse().expect("numeric length"),
            _ => {}
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("framed body");
    (
        status,
        connection,
        String::from_utf8(body).expect("UTF-8 body"),
    )
}

#[test]
fn keep_alive_connection_serves_its_bound_then_closes() {
    let server = ServerProc::start(&["--keep-alive-requests", "2"], &[]);
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let probe = format!(
        "GET /healthz HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
        server.addr
    );
    stream
        .write_all(format!("{probe}{probe}").as_bytes())
        .expect("two requests on one connection");
    let mut reader = BufReader::new(stream);
    let first = read_framed(&mut reader);
    assert_eq!(first, (200, "keep-alive".to_string(), "ok\n".to_string()));
    // The second request is the connection's last: answered, marked
    // `close`, then the server hangs up.
    let second = read_framed(&mut reader);
    assert_eq!(second, (200, "close".to_string(), "ok\n".to_string()));
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("server closes the socket");
    assert!(rest.is_empty(), "bytes after the last response: {rest:?}");
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    // A one-step ceiling: the first (idle-exception) batch occupies the
    // gate for seconds, the probe bounces deterministically.
    let server = ServerProc::start(&["--step-ceiling", "1"], &[]);
    // A deliberately huge unbudgeted job (10 ms window ≈ millions of
    // steps): in flight long enough that the probe below always lands
    // while the gate is busy.
    let big = format!(
        r#"{{"jobs":[{{"mapping":{MAPPING_A},"stim_freq_hz":2.5e6,"window_s":1e-2,"seed":99}}]}}"#
    );
    let addr = server.addr.clone();
    let big_req = std::thread::spawn(move || {
        // The server kills this batch at drop; the response (all-fault
        // or severed) is irrelevant to the assertion.
        let _ = http_request(&addr, "POST", "/jobs", Some(&big), Duration::from_secs(2));
    });
    // Give the big batch time to pass admission and start solving.
    std::thread::sleep(Duration::from_millis(500));
    let probe = format!(r#"{{"jobs":[{}]}}"#, quick_job(MAPPING_A, 1));
    let resp = server.request("POST", "/jobs", Some(&probe));
    assert_eq!(resp.status, 429, "{}", resp.body);
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is an integer");
    assert!(retry_after >= 1);
    assert!(
        resp.body.contains("\"error\":\"overloaded\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"retry_after_s\":"), "{}", resp.body);
    let stats = server.stats();
    assert!(
        stat_field(&stats, "shed_total") >= 1,
        "shed not counted: {stats}"
    );
    drop(server);
    let _ = big_req.join();
}

#[test]
fn client_retries_a_shed_batch_after_the_retry_after_floor() {
    // The overload set-up above, with the ceiling at the long batch's
    // own estimate (a 10 ms window ≈ 4e6 steps): the client's small
    // batch is shed, and the gate has released no permit yet, so it has
    // no drain rate and the 429 asks for the floor, `Retry-After: 1`.
    let server = ServerProc::start(&["--step-ceiling", "4000000"], &[]);
    let big = format!(
        r#"{{"jobs":[{{"mapping":{MAPPING_A},"stim_freq_hz":2.5e6,"window_s":1e-2,"seed":98}}]}}"#
    );
    let addr = server.addr.clone();
    let big_req = std::thread::spawn(move || {
        let _ = http_request(&addr, "POST", "/jobs", Some(&big), Duration::from_secs(5));
    });
    std::thread::sleep(Duration::from_millis(500));
    let mut client = Command::new(env!("CARGO_BIN_EXE_voltnoise-client"))
        .args(["--max-attempts", "2", &server.addr, "jobs", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn voltnoise-client");
    let probe = format!(r#"{{"jobs":[{}]}}"#, quick_job(MAPPING_A, 2));
    client
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(probe.as_bytes())
        .expect("write body");
    let out = client.wait_with_output().expect("client runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let retries: Vec<u64> = stderr
        .lines()
        .filter_map(|l| l.split_once("retrying in "))
        .map(|(_, rest)| {
            let (ms, tail) = rest.split_once(" ms ").expect("delay in ms");
            assert_eq!(tail, "(attempt 1/2)", "{stderr}");
            ms.parse().expect("numeric delay")
        })
        .collect();
    assert_eq!(retries.len(), 1, "one retry line expected: {stderr}");
    // The 429's Retry-After (≥ 1 s) floors the 100 ms jittered backoff.
    assert!(retries[0] >= 1000, "{stderr}");
    drop(server);
    let _ = big_req.join();
}

#[test]
fn deadline_reaps_unbudgeted_jobs() {
    let server = ServerProc::start(&[], &[]);
    // No step budget, a 10 ms window (far more work than the deadline
    // allows), 400 ms wall-clock deadline.
    let body = format!(
        r#"{{"jobs":[{{"mapping":{MAPPING_A},"stim_freq_hz":2.5e6,"window_s":1e-2,"seed":5}}],"deadline_ms":400}}"#
    );
    let resp = server.request("POST", "/jobs", Some(&body));
    assert_eq!(resp.status, 200);
    let results = parse_lines(&resp.body);
    assert_eq!(results.len(), 1);
    match &results[0].1 {
        Settled::Fault { kind } => assert_eq!(kind, "deadline"),
        other => panic!("expected a deadline fault, got {other:?}"),
    }
    assert!(resp.body.contains("\"faults\":1"), "{}", resp.body);
    let stats = server.stats();
    assert!(
        stat_field(&stats, "deadline_faults") >= 1,
        "deadline fault not counted: {stats}"
    );
}

#[test]
fn concurrent_identical_clients_share_one_solve() {
    let server = ServerProc::start(&[], &[]);
    let body = format!(r#"{{"jobs":[{}]}}"#, quick_job(MAPPING_A, 7));
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = server.addr.clone();
                let body = body.clone();
                scope.spawn(move || {
                    http_request(
                        &addr,
                        "POST",
                        "/jobs",
                        Some(&body),
                        Duration::from_secs(300),
                    )
                    .expect("concurrent jobs request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut outcomes = Vec::new();
    for resp in &responses {
        assert_eq!(resp.status, 200);
        let results = parse_lines(&resp.body);
        assert_eq!(results.len(), 1);
        match &results[0].1 {
            Settled::Ok(outcome) => outcomes.push(outcome.clone()),
            other => panic!("expected success, got {other:?}"),
        }
    }
    assert_eq!(outcomes[0], outcomes[1], "clients must share one result");
    let stats = server.stats();
    assert_eq!(stat_field(&stats, "solves"), 1, "{stats}");
    assert_eq!(
        stat_field(&stats, "inflight_joins") + stat_field(&stats, "cache_hits"),
        1,
        "second client neither joined nor hit the cache: {stats}"
    );
    // Byte-identity against a direct in-process engine run.
    let tb = Testbed::fast();
    let direct = Engine::with_workers(1)
        .run_jobs(&[quick_sim_job(tb, kinds_a(), 7)])
        .expect("direct run");
    let direct_json = serde_json::to_string(&*direct[0]).expect("serialize outcome");
    assert_eq!(
        outcomes[0], direct_json,
        "server result differs from direct"
    );
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn sigterm(child: &Child) {
    let pid = i32::try_from(child.id()).expect("pid fits");
    assert_eq!(unsafe { kill(pid, 15) }, 0, "SIGTERM delivery failed");
}

#[test]
fn readyz_flips_during_drain_before_inflight_batches_finish() {
    // A long drain grace keeps the in-flight batch alive through the
    // whole test: the assertion is about /readyz flipping *before* the
    // batch finishes, not about cancellation.
    let server = ServerProc::start(&["--drain-grace-ms", "60000"], &[]);
    assert_eq!(server.request("GET", "/readyz", None).status, 200);
    // An unbudgeted 10 ms window: in flight for seconds.
    let body = format!(
        r#"{{"jobs":[{{"mapping":{MAPPING_A},"stim_freq_hz":2.5e6,"window_s":1e-2,"seed":31}}]}}"#
    );
    let addr = server.addr.clone();
    let batch = std::thread::spawn(move || {
        http_request(
            &addr,
            "POST",
            "/jobs",
            Some(&body),
            Duration::from_secs(120),
        )
        .expect("in-flight batch")
    });
    // Let the batch pass admission and start solving.
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        !batch.is_finished(),
        "batch finished before the drain test began"
    );
    sigterm(&server.child);
    // Not-ready must surface while the batch is still in flight.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let resp = loop {
        let resp = server.request("GET", "/readyz", None);
        if resp.status == 503 || std::time::Instant::now() >= deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("draining"), "{}", resp.body);
    assert!(
        !batch.is_finished(),
        "/readyz flipped only after the in-flight batch finished"
    );
    // New work is refused while draining...
    let probe = format!(r#"{{"jobs":[{}]}}"#, quick_job(MAPPING_B, 32));
    assert_eq!(server.request("POST", "/jobs", Some(&probe)).status, 503);
    // ...but the in-flight batch still completes cleanly.
    let resp = batch.join().expect("batch thread");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let results = parse_lines(&resp.body);
    assert_eq!(results.len(), 1);
    assert!(
        matches!(results[0].1, Settled::Ok(_)),
        "in-flight batch faulted during drain: {results:?}"
    );
}

#[test]
fn sigkill_then_restart_resumes_from_store_without_duplicate_solves() {
    let store = std::env::temp_dir().join(format!(
        "voltnoise-server-test-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&store);
    let store_str = store.to_string_lossy().to_string();

    // Phase 1: solve two jobs, then SIGKILL — no drain, no compaction,
    // only the store's per-append durability.
    let batch_ab = format!(
        r#"{{"jobs":[{},{}]}}"#,
        quick_job(MAPPING_A, 7),
        quick_job(MAPPING_B, 7)
    );
    let mut first = ServerProc::start(&[], &[("VOLTNOISE_STORE", store_str.as_str())]);
    let resp = first.request("POST", "/jobs", Some(&batch_ab));
    assert_eq!(resp.status, 200);
    let first_results = parse_lines(&resp.body);
    assert_eq!(first_results.len(), 2);
    let first_outcomes: Vec<String> = first_results
        .iter()
        .map(|(i, s)| match s {
            Settled::Ok(outcome) => outcome.clone(),
            other => panic!("job {i} faulted: {other:?}"),
        })
        .collect();
    first.sigkill();
    assert!(
        std::fs::metadata(&store)
            .map(|m| m.len() > 0)
            .unwrap_or(false),
        "killed server left no store at {store_str}"
    );

    // Phase 2: restart over the same store, replay the campaign plus
    // one new job. The old jobs must be answered from disk — zero
    // duplicate solves — and byte-identically.
    let batch_abc = format!(
        r#"{{"jobs":[{},{},{}]}}"#,
        quick_job(MAPPING_A, 7),
        quick_job(MAPPING_B, 7),
        quick_job(MAPPING_A, 8)
    );
    let second = ServerProc::start(&[], &[("VOLTNOISE_STORE", store_str.as_str())]);
    let resp = second.request("POST", "/jobs", Some(&batch_abc));
    assert_eq!(resp.status, 200);
    let second_results = parse_lines(&resp.body);
    assert_eq!(second_results.len(), 3);
    let second_outcomes: Vec<String> = second_results
        .iter()
        .map(|(i, s)| match s {
            Settled::Ok(outcome) => outcome.clone(),
            other => panic!("job {i} faulted after resume: {other:?}"),
        })
        .collect();
    assert_eq!(
        second_outcomes[0], first_outcomes[0],
        "resume changed job 0"
    );
    assert_eq!(
        second_outcomes[1], first_outcomes[1],
        "resume changed job 1"
    );
    let stats = second.stats();
    assert_eq!(
        stat_field(&stats, "store_hits"),
        2,
        "resumed jobs not served from disk: {stats}"
    );
    assert_eq!(
        stat_field(&stats, "solves"),
        1,
        "resume re-solved stored jobs: {stats}"
    );

    // Byte-identity of the whole campaign against a direct engine run.
    let tb = Testbed::fast();
    let jobs = [
        quick_sim_job(tb, kinds_a(), 7),
        quick_sim_job(tb, kinds_b(), 7),
        quick_sim_job(tb, kinds_a(), 8),
    ];
    let direct = Engine::with_workers(1).run_jobs(&jobs).expect("direct run");
    for (i, outcome) in direct.iter().enumerate() {
        let direct_json = serde_json::to_string(&**outcome).expect("serialize outcome");
        assert_eq!(
            second_outcomes[i], direct_json,
            "job {i} differs from the direct engine run"
        );
    }
    let _ = std::fs::remove_file(&store);
}

/// A `/rack` body of 1x1-rack entries on one scenario (variation seed
/// 3), core 0 active, one entry per seed.
fn rack_body(window_s: f64, seeds: &[u64]) -> String {
    let entries: Vec<String> = seeds
        .iter()
        .map(|seed| {
            format!(
                r#"{{"drawers":1,"chips_per_drawer":1,"variation_seed":3,"active":[0],"stim_freq_hz":2.5e6,"sync":true,"window_s":{window_s},"seed":{seed}}}"#
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

#[test]
fn rack_jobs_past_the_default_deadline_settle_as_deadline_faults() {
    // /rack bodies carry no deadline: the server default applies.
    let server = ServerProc::start(&["--deadline-ms", "400"], &[]);
    let resp = server.request("POST", "/rack", Some(&rack_body(1e-2, &[5])));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let results = parse_lines(&resp.body);
    assert_eq!(results.len(), 1);
    match &results[0].1 {
        Settled::Fault { kind } => assert_eq!(kind, "deadline"),
        other => panic!("expected a deadline fault, got {other:?}"),
    }
    assert!(
        resp.body.contains("\"done\":true,\"jobs\":1,\"faults\":1"),
        "{}",
        resp.body
    );
}

#[test]
fn sigterm_drains_a_running_rack_batch_and_refuses_new_ones() {
    let mut server = ServerProc::start(&["--drain-grace-ms", "1000"], &[]);
    let addr = server.addr.clone();
    let batch = std::thread::spawn(move || {
        let body = rack_body(1e-2, &[11, 12]);
        http_request(
            &addr,
            "POST",
            "/rack",
            Some(&body),
            Duration::from_secs(120),
        )
        .expect("in-flight rack batch")
    });
    std::thread::sleep(Duration::from_millis(500));
    assert!(!batch.is_finished(), "rack batch finished before SIGTERM");
    sigterm(&server.child);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.request("GET", "/readyz", None).status != 503 {
        assert!(Instant::now() < deadline, "/readyz never flipped");
        std::thread::sleep(Duration::from_millis(20));
    }
    // New rack work is refused while draining...
    let probe = server.request("POST", "/rack", Some(&rack_body(4e-6, &[13])));
    assert_eq!(probe.status, 503, "{}", probe.body);
    assert!(
        probe.body.contains("\"error\":\"draining\""),
        "{}",
        probe.body
    );
    // ...and the running batch is cancelled at the end of the grace.
    let resp = batch.join().expect("batch thread");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let results = parse_lines(&resp.body);
    assert_eq!(results.len(), 2, "{}", resp.body);
    for (index, settled) in &results {
        match settled {
            Settled::Fault { kind } => assert_eq!(kind, "cancelled", "entry {index}"),
            other => panic!("entry {index}: expected a cancelled fault, got {other:?}"),
        }
    }
    let (status, stdout) = server.wait_exit();
    assert!(status.success(), "drain exit {status:?}");
    assert!(
        stdout.iter().any(|l| l.contains("drained cleanly")),
        "{stdout:?}"
    );
}

#[test]
fn rack_entries_on_one_scenario_share_a_lane_group() {
    // One engine worker, so the two leaders are not split across
    // workers and must form one two-lane group.
    let server = ServerProc::start(&[], &[("VOLTNOISE_THREADS", "1")]);
    let resp = server.request("POST", "/rack", Some(&rack_body(4e-6, &[1, 2])));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let results = parse_lines(&resp.body);
    assert_eq!(results.len(), 2, "{}", resp.body);
    assert!(
        results.iter().all(|(_, s)| matches!(s, Settled::Ok(_))),
        "{results:?}"
    );
    let stats = server.stats();
    assert_eq!(stat_field(&stats, "solves"), 2, "{stats}");
    assert!(
        stat_field(&stats, "batched_solves") >= 2,
        "rack entries did not solve as lanes: {stats}"
    );
}
