//! The daemon itself: a bounded-thread-pool TCP accept loop, the HTTP
//! routes, and the admission → deadline → solve → stream pipeline of a
//! batch request. See `DESIGN.md` ("Service model") for the state
//! machine this file implements.

use crate::admission::{AdmissionControl, Rejection};
use crate::deadline::DeadlineReaper;
use crate::http::{
    finish_chunked, read_request, start_chunked, write_chunk, write_response, Request,
};
use crate::wire::{parse_batch, parse_rack, BatchRequest, RackJobSpec, SignalStats, WireError};
use serde::{Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use voltnoise_pdn::topology::VariationSpec;
use voltnoise_pdn::CancelToken;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::{Engine, JobBatch, SimJob};
use voltnoise_system::fault::{FaultKind, JobFault};
use voltnoise_system::noise::{CoreLoad, NoiseOutcome, NoiseRunConfig};
use voltnoise_system::rack::RackScenario;
use voltnoise_system::site::SiteVec;
use voltnoise_system::testbed::Testbed;

/// Server configuration. Every knob has a production-shaped default;
/// the tests and the smoke script turn them down to provoke the
/// degraded paths deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the chosen
    /// address is printed on stdout for discovery).
    pub addr: String,
    /// Connection-handler threads.
    pub workers: usize,
    /// Bounded pending-connection queue; connections beyond it are shed
    /// with `503`.
    pub queue_cap: usize,
    /// Admission ceiling, estimated in-flight steps.
    pub step_ceiling: u64,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Batch deadline when the request names none, milliseconds.
    pub default_deadline_ms: u64,
    /// Use the reduced-search testbed ([`Testbed::fast`]) instead of
    /// the full one — the tests' and smoke script's fast path.
    pub reduced: bool,
    /// Result-store path (overrides `VOLTNOISE_STORE`); `None` keeps
    /// the env-driven behavior.
    pub store: Option<String>,
    /// How long a drain lets in-flight batches keep running before
    /// their cancel tokens fire, milliseconds.
    pub drain_grace_ms: u64,
    /// Requests served per keep-alive connection before the server
    /// closes it (bounds one peer's hold on a worker thread).
    pub keep_alive_requests: usize,
    /// Idle wait for the *next* request on a keep-alive connection
    /// before the server closes it, milliseconds.
    pub keep_alive_idle_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            step_ceiling: 50_000_000,
            max_body: 1024 * 1024,
            default_deadline_ms: 300_000,
            reduced: false,
            store: None,
            drain_grace_ms: 2_000,
            keep_alive_requests: 64,
            keep_alive_idle_ms: 5_000,
        }
    }
}

/// How long the accept loop waits for a connection before it rechecks
/// the stop handle and the drain state. A connection wakes it at once,
/// so this bounds only how soon a stop is noticed.
const RECHECK: Duration = Duration::from_millis(20);

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until the listener has a connection to accept or `timeout`
/// passes; returns whether a connection is waiting. std already links
/// libc, so `poll(2)` needs only this declaration, as `signal(2)` does
/// in [`crate::signals`]. A signal interrupting the wait reads as a
/// timeout.
fn wait_for_connection(listener: &TcpListener, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed pollfd, and the
    // count passed is 1.
    let ready = unsafe { poll(&mut fd, 1, ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(err),
        };
    }
    Ok(ready > 0)
}

/// Bounded handoff queue between the accept loop and the workers.
struct ConnQueue {
    pending: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            pending: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a connection; returns it back when the queue is full
    /// (the caller sheds it) or already closed.
    fn push(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut state = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let (queue, closed) = &mut *state;
        if *closed || queue.len() >= self.cap {
            return Err(stream);
        }
        queue.push_back(stream);
        let depth = queue.len();
        drop(state);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Dequeues the next connection, blocking; `None` once the queue is
    /// closed *and* drained — the worker-exit condition, which is what
    /// lets an in-flight request finish during a graceful drain.
    fn pop(&self) -> Option<(TcpStream, usize)> {
        let mut state = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = state.0.pop_front() {
                let depth = state.0.len();
                return Some((stream, depth));
            }
            if state.1 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1 = true;
        self.ready.notify_all();
    }

    fn is_empty(&self) -> bool {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .0
            .is_empty()
    }
}

/// State shared by the accept loop and every worker.
struct Shared {
    cfg: ServerConfig,
    engine: Arc<Engine>,
    testbed: &'static Testbed,
    /// Job factory on the testbed chip, built once: every `/jobs`
    /// request reuses its chip signature digest state.
    factory: JobBatch,
    admission: Arc<AdmissionControl>,
    reaper: Arc<DeadlineReaper>,
    queue: ConnQueue,
    draining: AtomicBool,
    /// Workers currently serving a connection (not blocked in `pop`).
    busy: AtomicUsize,
    /// In-flight batch tokens, cancelled wholesale on drain.
    tokens: Mutex<HashMap<u64, CancelToken>>,
    token_seq: AtomicU64,
}

impl Shared {
    /// Registers a batch token for drain cancellation; the returned id
    /// unregisters it.
    fn track_token(&self, token: CancelToken) -> u64 {
        let id = self.token_seq.fetch_add(1, Ordering::Relaxed);
        self.tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, token);
        id
    }

    fn untrack_token(&self, id: u64) {
        self.tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn cancel_all_tokens(&self) {
        for token in self
            .tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            token.cancel();
        }
    }

    /// Whether a drain can complete: no tracked batch, no queued
    /// connection, no worker mid-connection. Probes arriving during the
    /// drain make `busy` flicker; the drain loop just polls again.
    fn drained(&self) -> bool {
        self.tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
            && self.queue.is_empty()
            && self.busy.load(Ordering::SeqCst) == 0
    }
}

/// The bound-but-not-yet-running daemon. Binding is split from running
/// so in-process embedders (the benchmark harness, tests) can learn the
/// ephemeral port before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and assembles the engine, testbed, admission
    /// gate and deadline reaper.
    ///
    /// The engine honors `VOLTNOISE_STORE` (persistent JSONL result
    /// store — the resume substrate) and `VOLTNOISE_THREADS` exactly as
    /// every other entry point in the workspace does; an explicit
    /// [`ServerConfig::store`] overrides the env.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the address cannot be bound or a
    /// configured store path cannot be opened.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let testbed = if cfg.reduced {
            Testbed::fast()
        } else {
            Testbed::shared()
        };
        let mut engine = Engine::new();
        if let Some(path) = &cfg.store {
            engine = engine.with_store(path)?;
        }
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            testbed,
            factory: SimJob::batch(testbed.chip()),
            admission: AdmissionControl::new(cfg.step_ceiling),
            reaper: DeadlineReaper::start(),
            queue: ConnQueue::new(cfg.queue_cap),
            draining: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            tokens: Mutex::new(HashMap::new()),
            token_seq: AtomicU64::new(0),
            cfg,
        });
        Ok(Server {
            listener,
            shared,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `:0` to the chosen ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (cannot happen on a healthy
    /// bound listener).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the accept loop from another thread: the
    /// server's only shutdown input. The `voltnoise-server` binary
    /// forwards `SIGTERM`/`SIGINT` to it
    /// ([`crate::signals::forward_to`]); embedders store `true` into it.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// The engine behind this server (tests and embedders inspect its
    /// stats directly).
    pub fn engine(&self) -> Arc<Engine> {
        self.shared.engine.clone()
    }

    /// Runs the accept loop until the stop handle is set, then drains
    /// gracefully. The loop blocks in `poll(2)` on the listener, so a
    /// connection is accepted the moment it arrives. The drain happens
    /// in two steps: the instant shutdown is observed, `/readyz` flips
    /// to `503
    /// draining` and `/jobs` starts refusing — while the accept loop
    /// *keeps serving probes* and in-flight batches keep running. After
    /// [`ServerConfig::drain_grace_ms`] any still-running batch is
    /// cancelled through its token; once no batch, queued connection or
    /// busy worker remains, the loop exits, flushes the result store
    /// and returns.
    ///
    /// # Errors
    ///
    /// Returns an I/O error only for a listener failure; a clean drain
    /// returns `Ok(())`.
    pub fn run(self) -> io::Result<()> {
        // Non-blocking, so an accept after a spurious wake-up returns
        // `WouldBlock` instead of stalling the stop checks.
        self.listener.set_nonblocking(true)?;
        let addr = self.local_addr()?;
        // The discovery line: scripts and tests parse the port from it.
        println!("voltnoise-server listening on {addr}");
        let workers: Vec<_> = (0..self.shared.cfg.workers.max(1))
            .map(|i| {
                let shared = self.shared.clone();
                std::thread::Builder::new()
                    .name(format!("conn-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<_>>()?;
        let drain_grace = Duration::from_millis(self.shared.cfg.drain_grace_ms);
        let mut drain_started: Option<Instant> = None;
        let mut drain_cancelled = false;
        loop {
            if drain_started.is_none() && self.stop.load(Ordering::SeqCst) {
                // Flip readiness *now*, before in-flight batches
                // finish, so a client probing `/readyz` stops sending
                // new work the moment its probe lands.
                self.shared.draining.store(true, Ordering::SeqCst);
                drain_started = Some(Instant::now());
            }
            if let Some(started) = drain_started {
                if !drain_cancelled && started.elapsed() >= drain_grace {
                    // Grace expired: reap whatever is still running.
                    self.shared.cancel_all_tokens();
                    drain_cancelled = true;
                }
                if self.shared.drained() {
                    break;
                }
            }
            if !wait_for_connection(&self.listener, RECHECK)? {
                continue;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    match self.shared.queue.push(stream) {
                        Ok(depth) => self.shared.engine.set_queue_depth(depth),
                        Err(stream) => shed_connection(&self.shared, stream),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        self.shared.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        self.shared.reaper.shutdown();
        if let Some(store) = self.shared.engine.store() {
            store.compact()?;
        }
        self.shared.engine.set_queue_depth(0);
        println!("voltnoise-server drained cleanly");
        Ok(())
    }
}

/// Sheds a connection the queue would not take: `503` + `Retry-After`,
/// counted in the engine's `shed_total`.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    shared.engine.note_shed();
    let body = error_body(&[
        ("error", Value::Str("overloaded".to_string())),
        (
            "detail",
            Value::Str("connection queue full; retry later".to_string()),
        ),
    ]);
    let _ = write_response(
        &mut stream,
        503,
        "Service Unavailable",
        "application/json",
        &[("Retry-After", "1".to_string())],
        &body,
        false,
    );
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((mut stream, depth)) = shared.queue.pop() {
        shared.engine.set_queue_depth(depth);
        shared.busy.fetch_add(1, Ordering::SeqCst);
        serve_connection(shared, &mut stream);
        shared.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves up to `keep_alive_requests` sequential requests on one
/// connection. The connection closes early when the peer asks
/// (`Connection: close`), a response write fails, the idle wait for the
/// next request expires, or the server starts draining — so a drain is
/// never held open by an idle keep-alive peer.
fn serve_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let max_requests = shared.cfg.keep_alive_requests.max(1);
    let idle = Duration::from_millis(shared.cfg.keep_alive_idle_ms.max(1));
    for served in 0..max_requests {
        // The first request is already in flight when the connection
        // reaches a worker; later ones are bounded by the idle budget.
        let wait = if served == 0 {
            Duration::from_secs(10)
        } else {
            idle
        };
        let _ = stream.set_read_timeout(Some(wait));
        let request = match read_request(stream, shared.cfg.max_body) {
            Ok(request) => request,
            Err(err) => {
                if let Some((status, reason)) = err.status() {
                    let body = error_body(&[
                        ("error", Value::Str("bad-request".to_string())),
                        ("detail", Value::Str(err.to_string())),
                    ]);
                    let _ = write_response(
                        stream,
                        status,
                        reason,
                        "application/json",
                        &[],
                        &body,
                        false,
                    );
                }
                return;
            }
        };
        let keep = served + 1 < max_requests
            && !shared.draining.load(Ordering::SeqCst)
            && !request.wants_close();
        if !handle_request(shared, stream, &request, keep) {
            return;
        }
    }
}

fn error_body(fields: &[(&str, Value)]) -> String {
    let object = Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    serde_json::to_string(&object).unwrap_or_else(|_| "{}".to_string())
}

/// Dispatches one request; returns whether the connection is still
/// usable for another (`keep` honored and every write succeeded).
fn handle_request(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> bool {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            write_response(stream, 200, "OK", "text/plain", &[], "ok\n", keep).is_ok() && keep
        }
        ("GET", "/readyz") => {
            let write = if shared.draining.load(Ordering::SeqCst) {
                write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    &[],
                    "draining\n",
                    keep,
                )
            } else {
                write_response(stream, 200, "OK", "text/plain", &[], "ready\n", keep)
            };
            write.is_ok() && keep
        }
        ("GET", "/stats") => {
            // Publish the admission gauge just-in-time: the stats
            // snapshot is the only consumer.
            shared
                .engine
                .set_admitted_steps(shared.admission.in_flight());
            // The engine counters plus a "signal" section: the
            // campaign's spectral fingerprint (trace counts and
            // bucket-floor quantiles).
            let mut fields = match shared.engine.stats().to_value() {
                Value::Object(fields) => fields,
                other => vec![("stats".to_string(), other)],
            };
            let signal = SignalStats::of(&shared.engine.telemetry().signal);
            fields.push(("signal".to_string(), signal.to_value()));
            let body = serde_json::to_string_pretty(&Value::Object(fields))
                .unwrap_or_else(|_| "{}".to_string());
            write_response(stream, 200, "OK", "application/json", &[], &body, keep).is_ok() && keep
        }
        ("POST", "/jobs") => serve_batch::<BatchRequest>(shared, stream, request, keep),
        ("POST", "/rack") => serve_batch::<Vec<RackJobSpec>>(shared, stream, request, keep),
        (method, path) => {
            let body = error_body(&[
                ("error", Value::Str("not-found".to_string())),
                (
                    "detail",
                    Value::Str(format!("no route for {method} {path}")),
                ),
            ]);
            write_response(
                stream,
                404,
                "Not Found",
                "application/json",
                &[],
                &body,
                keep,
            )
            .is_ok()
                && keep
        }
    }
}

/// Short stable label of a fault kind for the wire.
fn fault_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::Solver(_) => "solver",
        FaultKind::Budget(_) => "budget",
        FaultKind::Cancelled(_) => "cancelled",
        FaultKind::Deadline(_) => "deadline",
        FaultKind::Panic(_) => "panic",
    }
}

/// One streamed result line (newline-terminated JSON document).
fn result_line(index: usize, settled: &Result<Arc<NoiseOutcome>, JobFault>) -> String {
    match settled {
        Ok(outcome) => {
            let outcome_json =
                serde_json::to_string(&**outcome).unwrap_or_else(|_| "null".to_string());
            format!("{{\"index\":{index},\"status\":\"ok\",\"outcome\":{outcome_json}}}\n")
        }
        Err(fault) => {
            let detail = Value::Str(fault.fault.to_string());
            let detail_json = serde_json::to_string(&detail).unwrap_or_else(|_| "\"\"".to_string());
            format!(
                "{{\"index\":{index},\"status\":\"fault\",\"kind\":\"{}\",\"attempts\":{},\"detail\":{detail_json}}}\n",
                fault_label(&fault.fault),
                fault.attempts
            )
        }
    }
}

/// Writes the `400` of a request that failed to decode or validate.
fn write_invalid(stream: &mut TcpStream, err: &WireError, keep: bool) -> bool {
    write_response(
        stream,
        400,
        "Bad Request",
        "application/json",
        &[],
        &err.to_json(),
        keep,
    )
    .is_ok()
        && keep
}

/// Books a shed batch and writes the `429` every admission-gated route
/// sends: the batch's estimate, the load in flight, the ceiling and a
/// `Retry-After` hint.
fn write_overloaded(
    shared: &Shared,
    stream: &mut TcpStream,
    rejection: &Rejection,
    keep: bool,
) -> bool {
    shared.engine.note_shed();
    let retry_after = rejection.retry_after_s;
    let body = error_body(&[
        ("error", Value::Str("overloaded".to_string())),
        ("estimated_steps", Value::U64(rejection.estimated)),
        ("in_flight_steps", Value::U64(rejection.in_flight)),
        ("ceiling_steps", Value::U64(rejection.ceiling)),
        ("retry_after_s", Value::U64(retry_after)),
    ]);
    write_response(
        stream,
        429,
        "Too Many Requests",
        "application/json",
        &[("Retry-After", retry_after.to_string())],
        &body,
        keep,
    )
    .is_ok()
        && keep
}

/// A batch route's decoded body: how it decodes, what admission
/// charges for it, its deadline and how its entries compile to engine
/// jobs. `/jobs` and `/rack` differ only here; [`serve_batch`] is the
/// envelope both share.
trait BatchBody: Sized {
    /// Decodes and validates a request body.
    fn decode(body: &str) -> Result<Self, WireError>;

    /// Estimated accepted steps of the whole batch.
    fn estimated_steps(&self) -> u64;

    /// The batch's own deadline, milliseconds; `None` takes the
    /// server's default.
    fn deadline_ms(&self) -> Option<u64> {
        None
    }

    /// Compiles the entries to jobs that poll `token`. Runs after
    /// admission; an error answers `400` and releases the permit.
    fn compile(&self, shared: &Shared, token: &CancelToken) -> Result<Vec<SimJob>, WireError>;
}

impl BatchBody for BatchRequest {
    fn decode(body: &str) -> Result<Self, WireError> {
        parse_batch(body)
    }

    fn estimated_steps(&self) -> u64 {
        BatchRequest::estimated_steps(self)
    }

    fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Compiles wire jobs against the testbed. Token injection goes
    /// through the per-job config (not the content key), so a wire job
    /// resolves to the same cache/store key as the equivalent direct
    /// [`SimJob`].
    fn compile(&self, shared: &Shared, token: &CancelToken) -> Result<Vec<SimJob>, WireError> {
        let jobs = self.jobs.iter().map(|spec| {
            let sync = spec.sync.then(SyncSpec::paper_default);
            let loads = shared
                .testbed
                .loads_of_mapping(&spec.mapping, spec.stim_freq_hz, sync);
            shared.factory.job(
                loads,
                NoiseRunConfig {
                    window_s: spec.window_s,
                    record_traces: spec.record_traces,
                    seed: spec.seed,
                    max_steps: spec.max_steps,
                    cancel: Some(token.clone()),
                    ..NoiseRunConfig::default()
                },
            )
        });
        Ok(jobs.collect())
    }
}

impl BatchBody for Vec<RackJobSpec> {
    fn decode(body: &str) -> Result<Self, WireError> {
        parse_rack(body)
    }

    fn estimated_steps(&self) -> u64 {
        self.iter().map(RackJobSpec::estimated_steps).sum()
    }

    /// Compiles rack entries to rack jobs. Scenarios are shared within
    /// the batch: entries naming the same shape + variation draw compile
    /// against one built rack PDN, so their jobs can share lanes.
    fn compile(&self, shared: &Shared, token: &CancelToken) -> Result<Vec<SimJob>, WireError> {
        let mut scenarios: HashMap<(usize, usize, u64), Arc<RackScenario>> = HashMap::new();
        let mut jobs = Vec::with_capacity(self.len());
        for (i, spec) in self.iter().enumerate() {
            let key = (spec.drawers, spec.chips_per_drawer, spec.variation_seed);
            let rack = match scenarios.entry(key) {
                Entry::Occupied(built) => built.into_mut(),
                Entry::Vacant(slot) => {
                    let rack = RackScenario::build(
                        shared.testbed.chip(),
                        spec.drawers,
                        spec.chips_per_drawer,
                        VariationSpec::paper_default(spec.variation_seed),
                    )
                    .map_err(|e| WireError::new("bad-value", format!("jobs[{i}]: {e}")))?;
                    slot.insert(Arc::new(rack))
                }
            };
            let sync = spec.sync.then(SyncSpec::paper_default);
            let active =
                CoreLoad::Stressmark(shared.testbed.max_stressmark(spec.stim_freq_hz, sync));
            let loads = SiteVec::from_fn(rack.num_sites(), |s| {
                if spec.active.contains(&s) {
                    active.clone()
                } else {
                    CoreLoad::Idle
                }
            });
            jobs.push(SimJob::rack(
                rack.clone(),
                loads,
                NoiseRunConfig {
                    window_s: Some(spec.window_s),
                    seed: spec.seed,
                    cancel: Some(token.clone()),
                    ..NoiseRunConfig::default()
                },
            ));
        }
        Ok(jobs)
    }
}

/// Serves one batch request: drain check (`503`), decode (`400`),
/// admission (`429`: the whole batch enters or the whole batch
/// bounces), one cancel token registered with the deadline reaper and
/// the drain registry, then a chunked JSONL stream of per-job result
/// lines as they settle and a closing `done` summary line.
fn serve_batch<B: BatchBody>(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> bool {
    if shared.draining.load(Ordering::SeqCst) {
        let body = error_body(&[("error", Value::Str("draining".to_string()))]);
        let _ = write_response(
            stream,
            503,
            "Service Unavailable",
            "application/json",
            &[],
            &body,
            false,
        );
        return false;
    }
    let batch = match B::decode(&request.body) {
        Ok(batch) => batch,
        Err(err) => return write_invalid(stream, &err, keep),
    };
    let permit = match shared.admission.try_admit(batch.estimated_steps()) {
        Ok(permit) => permit,
        Err(rejection) => return write_overloaded(shared, stream, &rejection, keep),
    };
    // Deadline + drain wiring: one token per batch, registered with the
    // reaper (wall clock) and the drain registry (SIGTERM).
    let token = CancelToken::new();
    let deadline_ms = batch
        .deadline_ms()
        .unwrap_or(shared.cfg.default_deadline_ms)
        .max(1);
    let _deadline_guard = shared
        .reaper
        .register(token.clone(), Duration::from_millis(deadline_ms));
    let token_id = shared.track_token(token.clone());
    let jobs = match batch.compile(shared, &token) {
        Ok(jobs) => jobs,
        Err(err) => {
            shared.untrack_token(token_id);
            drop(permit);
            return write_invalid(stream, &err, keep);
        }
    };
    if start_chunked(stream, "application/jsonl", keep).is_err() {
        shared.untrack_token(token_id);
        drop(permit);
        return false;
    }
    // The sink runs on engine worker threads; serialize writes and stop
    // writing (but keep solving — results still enter cache and store)
    // once the peer goes away.
    let writer = Mutex::new(&mut *stream);
    let peer_gone = AtomicBool::new(false);
    let results = shared
        .engine
        .run_jobs_settled_each(&jobs, |index, settled| {
            if peer_gone.load(Ordering::Relaxed) {
                return;
            }
            let line = result_line(index, settled);
            let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
            if write_chunk(&mut writer, &line).is_err() {
                peer_gone.store(true, Ordering::Relaxed);
            }
        });
    shared.untrack_token(token_id);
    drop(permit);
    let faults = results.iter().filter(|r| r.is_err()).count();
    let summary = format!(
        "{{\"done\":true,\"jobs\":{},\"faults\":{faults}}}\n",
        results.len()
    );
    if peer_gone.load(Ordering::Relaxed) {
        return false;
    }
    let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let wrote = write_chunk(&mut writer, &summary).is_ok() && finish_chunked(&mut writer).is_ok();
    wrote && keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_queue_bounds_and_closes() {
        let queue = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c1).is_ok());
        assert!(queue.push(c2).is_err(), "above cap must bounce");
        let (popped, depth) = queue.pop().unwrap();
        drop(popped);
        assert_eq!(depth, 0);
        queue.close();
        assert!(queue.pop().is_none(), "closed and drained");
        // Closed queue refuses new connections outright.
        let c3 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c3).is_err());
    }

    #[test]
    fn result_lines_are_wire_shaped() {
        let fault = JobFault {
            key: Box::new(fake_key()),
            attempts: 1,
            fault: FaultKind::Deadline(voltnoise_pdn::PdnError::DeadlineExceeded { t: 1e-6 }),
        };
        let line = result_line(3, &Err(fault));
        assert!(line.contains("\"index\":3"), "{line}");
        assert!(line.contains("\"status\":\"fault\""), "{line}");
        assert!(line.contains("\"kind\":\"deadline\""), "{line}");
        assert!(line.contains("\"attempts\":1"), "{line}");
        assert!(line.ends_with('\n'), "{line:?}");
    }

    fn fake_key() -> voltnoise_system::engine::JobKey {
        let tb = Testbed::fast();
        let factory = SimJob::batch(tb.chip());
        let loads: [voltnoise_system::noise::CoreLoad; voltnoise_pdn::NUM_CORES] =
            std::array::from_fn(|_| voltnoise_system::noise::CoreLoad::Idle);
        *factory.job(loads, NoiseRunConfig::default()).key()
    }

    /// An in-process reduced server for route tests; returns (addr,
    /// stop handle, engine, join handle).
    fn spawn_reduced() -> (
        String,
        Arc<AtomicBool>,
        Arc<Engine>,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let server = Server::bind(ServerConfig {
            reduced: true,
            ..ServerConfig::default()
        })
        .expect("bind loopback server");
        let addr = server.local_addr().expect("local addr").to_string();
        let stop = server.stop_handle();
        let engine = server.engine();
        let daemon = std::thread::spawn(move || server.run());
        (addr, stop, engine, daemon)
    }

    #[test]
    fn stopping_one_server_leaves_another_serving() {
        let timeout = Duration::from_secs(30);
        let (addr_a, stop_a, _, daemon_a) = spawn_reduced();
        let (addr_b, stop_b, _, daemon_b) = spawn_reduced();
        stop_a.store(true, Ordering::SeqCst);
        daemon_a.join().expect("server a thread").expect("a drains");
        assert!(
            crate::http_request(&addr_a, "GET", "/healthz", None, timeout).is_err(),
            "a drained server no longer answers"
        );
        let health = crate::http_request(&addr_b, "GET", "/healthz", None, timeout)
            .expect("b still answers");
        assert_eq!(health.status, 200);
        let ready =
            crate::http_request(&addr_b, "GET", "/readyz", None, timeout).expect("b readiness");
        assert_eq!(ready.status, 200, "b must not drain on a's handle");
        assert!(!daemon_b.is_finished(), "b runs until its own stop");
        stop_b.store(true, Ordering::SeqCst);
        daemon_b.join().expect("server b thread").expect("b drains");
    }

    #[test]
    fn connections_are_accepted_without_a_poll_delay() {
        let (addr, stop, _, daemon) = spawn_reduced();
        let timeout = Duration::from_secs(30);
        // Warm the worker pool and the loopback path once.
        crate::http_request(&addr, "GET", "/healthz", None, timeout).expect("warm-up probe");
        // 50 sequential fresh-connection round trips. A sleep-polled
        // accept costs its poll interval per connection; a woken accept
        // costs the loopback round trip. The best of three rounds keeps
        // a briefly busy test host from deciding the verdict.
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..50 {
                    let resp = crate::http_request(&addr, "GET", "/healthz", None, timeout)
                        .expect("healthz round trip");
                    assert_eq!(resp.status, 200);
                }
                t0.elapsed()
            })
            .min()
            .expect("three rounds");
        assert!(
            best < Duration::from_millis(100),
            "50 round trips took {best:?}"
        );
        stop.store(true, Ordering::SeqCst);
        daemon.join().expect("server thread").expect("clean drain");
    }

    #[test]
    fn rack_route_solves_variated_jobs_and_memoizes_repeats() {
        let (addr, stop, engine, daemon) = spawn_reduced();
        let timeout = Duration::from_secs(120);
        let body = r#"[
            {"drawers":1,"chips_per_drawer":2,"variation_seed":7,"active":[0,7],
             "stim_freq_hz":2.5e6,"sync":true,"window_s":4e-6,"seed":1},
            {"drawers":1,"chips_per_drawer":2,"variation_seed":7,"active":[0,7],
             "stim_freq_hz":2.5e6,"sync":true,"window_s":4e-6,"seed":1}
        ]"#;
        let resp = crate::http_request(&addr, "POST", "/rack", Some(body), timeout)
            .expect("rack round trip");
        assert_eq!(resp.status, 200, "rack batch failed: {}", resp.body);
        assert_eq!(resp.header("content-type"), Some("application/jsonl"));
        // The /jobs reply shape: one result line per entry as it
        // settles, then the summary line.
        let lines = resp.lines();
        assert_eq!(lines.len(), 3, "{}", resp.body);
        for index in 0..2 {
            let prefix = format!("{{\"index\":{index},\"status\":\"ok\",\"outcome\":{{");
            assert!(
                lines.iter().any(|l| l.starts_with(&prefix)),
                "entry {index} must settle ok: {}",
                resp.body
            );
        }
        assert_eq!(lines[2], "{\"done\":true,\"jobs\":2,\"faults\":0}");
        // 12 sites on the 1x2 rack: the outcome is rack-shaped.
        let outcome: NoiseOutcome = serde_json::from_str(
            lines[0]
                .split_once("\"outcome\":")
                .and_then(|(_, rest)| rest.strip_suffix('}'))
                .expect("outcome object"),
        )
        .expect("outcome decodes");
        assert_eq!(outcome.pct_p2p.len(), 12, "{}", resp.body);
        assert_eq!(
            engine.stats().solves,
            1,
            "identical rack jobs must dedupe to one solve"
        );
        // A repeated request rides the memo and answers the same bytes.
        let again = crate::http_request(&addr, "POST", "/rack", Some(body), timeout)
            .expect("repeat rack round trip");
        let mut first = lines.clone();
        let mut second = again.lines();
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(first, second, "the repeat must answer the same lines");
        let stats = engine.stats();
        assert_eq!(stats.solves, 1, "the repeat must not re-solve");
        assert!(stats.cache_hits >= 1, "the repeat must ride the memo");
        stop.store(true, Ordering::SeqCst);
        daemon.join().expect("server thread").expect("clean drain");
    }

    #[test]
    fn rack_route_rejects_out_of_range_sites_and_bad_shapes() {
        let (addr, stop, engine, daemon) = spawn_reduced();
        let timeout = Duration::from_secs(30);
        let cases = [
            // Site 99 is outside the 1x1 rack's 6 sites.
            r#"[{"drawers":1,"chips_per_drawer":1,"variation_seed":1,"active":[99],
                 "stim_freq_hz":2.5e6,"sync":false,"window_s":2e-6,"seed":1}]"#,
            // Degenerate 0-drawer shape.
            r#"[{"drawers":0,"chips_per_drawer":1,"variation_seed":1,"active":[0],
                 "stim_freq_hz":2.5e6,"sync":false,"window_s":2e-6,"seed":1}]"#,
            // Non-positive window.
            r#"[{"drawers":1,"chips_per_drawer":1,"variation_seed":1,"active":[0],
                 "stim_freq_hz":2.5e6,"sync":false,"window_s":0.0,"seed":1}]"#,
            // Not an array.
            r#"{"jobs":[]}"#,
        ];
        for body in cases {
            let resp = crate::http_request(&addr, "POST", "/rack", Some(body), timeout)
                .expect("rack round trip");
            assert_eq!(resp.status, 400, "must reject: {body} -> {}", resp.body);
            assert!(
                resp.body.contains("\"error\":\"invalid-request\""),
                "machine-readable error expected: {}",
                resp.body
            );
        }
        assert_eq!(engine.stats().solves, 0, "rejected specs must not solve");
        stop.store(true, Ordering::SeqCst);
        daemon.join().expect("server thread").expect("clean drain");
    }
}
