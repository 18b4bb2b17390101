//! The unified experiment engine: content-keyed simulation jobs, a
//! scoped-thread parallel executor, and a sharded memo cache.
//!
//! Every experiment in the workspace ultimately reduces to calls of
//! [`crate::noise::run_noise`], which is a *pure* function of the chip,
//! the per-core loads and the run configuration. This module exploits
//! that purity twice:
//!
//! 1. **Parallelism** — independent jobs run on a work-stealing pool of
//!    scoped threads ([`std::thread::scope`], no extra dependencies).
//!    Because jobs are pure, parallel execution is bitwise identical to
//!    serial execution (an invariant the test suite enforces). Jobs of
//!    one batch that share a scenario and a step schedule run as the
//!    lanes of one transient solve ([`Engine::run_jobs_settled_each`]),
//!    each lane bitwise its lone solve.
//! 2. **Memoization** — a [`SimJob`] carries a [`JobKey`] derived from
//!    the *content* of its inputs (chip configuration, the electrical
//!    fields of each load, window/seed/trace options). Identical jobs —
//!    within one experiment or across experiments sharing an engine —
//!    solve once and share the cached [`NoiseOutcome`].
//!
//! The engine is additionally the workspace's fault boundary (see
//! `DESIGN.md`, "Failure model"). [`Engine::run_jobs_settled`] captures
//! each job's failure — solver error or worker panic — as a
//! [`JobFault`] instead of aborting the batch, a [`RetryPolicy`] grants
//! transiently failing jobs extra attempts, and a [`FaultInjector`]
//! plants deterministic faults for testing the whole degraded path.
//! Failed solves are never cached, and all cache locks recover from
//! poisoning, so one faulted job cannot poison the results of another.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden with the `VOLTNOISE_THREADS` environment
//! variable (`VOLTNOISE_THREADS=1` forces serial execution). Wall-clock
//! tracing is a property of each engine: it defaults to the
//! `VOLTNOISE_TRACE` environment variable read when the engine is built,
//! and [`Engine::with_trace`] sets it explicitly, so a traced and an
//! untraced engine can run side by side in one process.

use crate::chip::Chip;
use crate::fault::{panic_message, FaultInjector, FaultKind, InjectedFault, JobFault, RetryPolicy};
use crate::noise::{
    prepare_run, run_drawer_step_instrumented, run_view_noise_instrumented, run_view_noise_lanes,
    CoreLoad, DrawerStepConfig, DrawerStepOutcome, LaneJob, NoiseOutcome, NoiseRunConfig,
    PreparedRun, ScenarioView, SolveTelemetry,
};
use crate::rack::RackScenario;
use crate::site::SiteVec;
use crate::store::{Fnv128, ResultStore};
use crate::telemetry::EngineTelemetry;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use voltnoise_pdn::signal::trace_signature;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::transient::{StepSchedule, MAX_LANES};
use voltnoise_pdn::{CancelToken, PdnError, SolverBackend};

/// Number of independently locked cache shards. A small power of two:
/// enough to keep worker threads from serializing on one mutex, small
/// enough that an idle engine stays cheap.
const CACHE_SHARDS: usize = 16;

/// Locks a mutex, recovering the inner data if a previous holder
/// panicked. Cache shards and result slots only ever hold data that is
/// valid between operations (a `HashMap` insert either happened or did
/// not), so a poisoned lock carries no torn state worth refusing.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Content key of a whole simulation job: the job's 128-bit store
/// digest plus its seed. Two jobs with equal keys produce
/// bitwise-identical [`NoiseOutcome`]s.
///
/// The digest is a fixed FNV-1a over a canonical byte rendering of
/// every input [`crate::noise::run_noise`] consumes (see
/// `JobKey::store_digest`), computed once when the [`SimJob`] is
/// built. It is trusted as the job's identity everywhere: the
/// persistent store's key, the memo's key and the singleflight key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey {
    digest: u128,
    /// `NoiseRunConfig::seed`, kept beside the digest for fault reports.
    seed: u64,
}

impl JobKey {
    /// The job's random seed (useful when reporting faults: a reseeded
    /// retry carries a different seed than the job it stands in for).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A short, deterministic digest for fault reports: the top half of
    /// the content digest plus the run seed.
    pub fn digest(&self) -> String {
        format!("job {:016x} (seed {})", self.digest >> 64, self.seed)
    }

    /// Stable 128-bit content digest used as the persistent-store key,
    /// as 32 lowercase hex digits.
    ///
    /// The digest hashes the scenario signature, then the per-site
    /// loads (count-prefixed; only the electrical envelope of a
    /// stressmark: frequency, duty, currents and sync condition, floats
    /// as bits), then window, trace flag, seed, step budget and solve
    /// spec. The rendering is fixed, so the digest stays valid across
    /// processes, machines and toolchain upgrades. It is the on-disk key
    /// contract of [`ResultStore`]; changing the rendering requires
    /// bumping the store's key-scheme version.
    pub(crate) fn store_digest(&self) -> String {
        format!("{:032x}", self.digest)
    }
}

/// Hasher state after a scenario signature: the part of a job digest
/// every job on one chip or rack shares.
fn signature_prefix(sig: &str) -> Fnv128 {
    let mut h = Fnv128::new();
    h.update(sig.as_bytes());
    h.update(&[0x1f]);
    h
}

/// Finishes a job digest from its scenario's [`signature_prefix`]
/// (scheme `jobkey-fnv1a128/3`).
fn job_digest(prefix: &Fnv128, loads: &[CoreLoad], cfg: &NoiseRunConfig) -> u128 {
    let mut h = prefix.clone();
    let bits = |h: &mut Fnv128, v: f64| h.update(&v.to_bits().to_le_bytes());
    // Load-count prefix: keys became variable-length when site indexing
    // replaced the fixed six-core arrays, and a length prefix keeps the
    // rendering injective (scheme rev /3).
    h.update(&(loads.len() as u64).to_le_bytes());
    for load in loads {
        match load {
            CoreLoad::Idle => h.update(&[0]),
            // Instruction bodies, repetition counts and IPCs are
            // deliberately excluded: the solver only sees the compiled
            // electrical envelope, so two stressmarks with different
            // code but the same envelope are the same job.
            CoreLoad::Stressmark(sm) => {
                h.update(&[1]);
                for v in [
                    sm.spec.stim_freq_hz,
                    sm.spec.duty,
                    sm.i_high_a,
                    sm.i_low_a,
                    sm.i_idle_a,
                ] {
                    bits(&mut h, v);
                }
                match &sm.spec.sync {
                    None => h.update(&[0]),
                    Some(sync) => {
                        h.update(&[1]);
                        bits(&mut h, sync.interval_s);
                        h.update(&sync.offset_ticks.to_le_bytes());
                        h.update(&sync.events.to_le_bytes());
                    }
                }
            }
        }
    }
    match cfg.window_s {
        None => h.update(&[0]),
        Some(w) => {
            h.update(&[1]);
            bits(&mut h, w);
        }
    }
    h.update(&[u8::from(cfg.record_traces)]);
    h.update(&cfg.seed.to_le_bytes());
    // The step budget is content (a budgeted job may fail where an
    // unbudgeted one succeeds); the cancellation token is not, since an
    // un-cancelled token never changes results.
    match cfg.max_steps {
        None => h.update(&[0]),
        Some(n) => {
            h.update(&[1]);
            h.update(&(n as u64).to_le_bytes());
        }
    }
    // A result computed under another backend, or a reduced-order model
    // with any error budget, is a different result.
    h.update(&[match cfg.solve.backend {
        SolverBackend::Auto => 0,
        SolverBackend::Dense => 1,
        SolverBackend::Sparse => 2,
    }]);
    match cfg.solve.rom {
        None => h.update(&[0]),
        Some(rom) => {
            h.update(&[1]);
            bits(&mut h, rom.budget_v);
            h.update(&(rom.max_states as u64).to_le_bytes());
            bits(&mut h, rom.expansion_hz);
            bits(&mut h, rom.calib_window_s);
            h.update(&rom.dilation.to_le_bytes());
        }
    }
    h.finish()
}

/// Fallibly computes a chip's content fingerprint. The JSON rendering of
/// the configuration is canonical (struct fields serialize in declaration
/// order, map keys sorted), so equal configurations produce equal
/// signatures.
///
/// # Errors
///
/// Returns [`PdnError::InvalidTimebase`] when a configuration fails to
/// serialize. The vendored JSON writer is total for the plain-data
/// config structs, so this cannot happen today; the fallible signature
/// exists so the error path stays typed if a config ever grows a
/// non-serializable field.
pub(crate) fn try_chip_signature(chip: &Chip) -> Result<Arc<str>, PdnError> {
    let render = |what: &str, r: Result<String, serde_json::Error>| {
        r.map_err(|e| PdnError::InvalidTimebase {
            reason: format!("{what} configuration failed to serialize: {e}"),
        })
    };
    let cfg = render("chip", serde_json::to_string(chip.config()))?;
    let mut sig = String::with_capacity(cfg.len() + 64 * NUM_CORES);
    sig.push_str(&cfg);
    for i in 0..NUM_CORES {
        sig.push('|');
        sig.push_str(&render(
            "skitter",
            serde_json::to_string(chip.skitter(i).config()),
        )?);
    }
    Ok(Arc::from(sig))
}

/// Computes a chip's content fingerprint (infallible wrapper over
/// [`try_chip_signature`]). In the impossible case that serialization
/// fails, falls back to the `Debug` rendering of the chip configuration —
/// still deterministic and content-derived, so memoization stays sound.
pub(crate) fn chip_signature(chip: &Chip) -> Arc<str> {
    try_chip_signature(chip)
        .unwrap_or_else(|_| Arc::from(format!("debug-fallback|{:?}", chip.config())))
}

/// What a [`SimJob`] solves: a single chip (the 1 drawer × 1 chip ×
/// [`NUM_CORES`] special case) or a whole rack of variated chips. Both
/// flow through the same key scheme, cache, store and executor — a rack
/// job is just a job with more load slots and a different fingerprint.
#[derive(Debug, Clone)]
enum JobTarget {
    /// A single six-core chip, solved by [`run_noise`].
    Chip(Arc<Chip>),
    /// A rack scenario, solved through its [`ScenarioView`].
    Rack(Arc<RackScenario>),
}

impl JobTarget {
    /// The electrical view the noise kernel solves.
    fn view(&self) -> ScenarioView<'_> {
        match self {
            JobTarget::Chip(chip) => ScenarioView::of_chip(chip),
            JobTarget::Rack(rack) => rack.view(),
        }
    }
}

/// A pure, hashable unit of simulation work: one noise solve of a chip
/// or rack under per-site loads.
#[derive(Debug, Clone)]
pub struct SimJob {
    target: JobTarget,
    /// Digest state after the scenario signature, kept so a reseeded
    /// retry re-keys without re-hashing the signature.
    prefix: Fnv128,
    loads: SiteVec<CoreLoad>,
    cfg: NoiseRunConfig,
    key: JobKey,
}

impl SimJob {
    /// Builds a chip job from an already-shared chip. Use
    /// [`SimJob::batch`] when creating many jobs on the same chip — the
    /// signature is computed once per chip, not once per job.
    pub fn new(
        chip: Arc<Chip>,
        loads: impl Into<SiteVec<CoreLoad>>,
        cfg: NoiseRunConfig,
    ) -> SimJob {
        let sig = chip_signature(&chip);
        SimJob::with_signature(chip, sig, loads, cfg)
    }

    /// Builds a chip job reusing a precomputed chip signature.
    pub(crate) fn with_signature(
        chip: Arc<Chip>,
        chip_sig: Arc<str>,
        loads: impl Into<SiteVec<CoreLoad>>,
        cfg: NoiseRunConfig,
    ) -> SimJob {
        let prefix = signature_prefix(&chip_sig);
        SimJob::keyed(JobTarget::Chip(chip), prefix, loads.into(), cfg)
    }

    /// Builds a rack job. The key carries the rack's content signature,
    /// so rack jobs memoize, persist and dedupe through the engine and
    /// store exactly like chip jobs.
    pub fn rack(
        rack: Arc<RackScenario>,
        loads: impl Into<SiteVec<CoreLoad>>,
        cfg: NoiseRunConfig,
    ) -> SimJob {
        SimJob::rack_batch(rack).job(loads, cfg)
    }

    fn keyed(
        target: JobTarget,
        prefix: Fnv128,
        loads: SiteVec<CoreLoad>,
        cfg: NoiseRunConfig,
    ) -> SimJob {
        let key = JobKey {
            digest: job_digest(&prefix, &loads, &cfg),
            seed: cfg.seed,
        };
        SimJob {
            target,
            prefix,
            loads,
            cfg,
            key,
        }
    }

    /// A factory for jobs sharing one chip (and one signature).
    pub fn batch(chip: &Chip) -> JobBatch {
        let chip = Arc::new(chip.clone());
        let prefix = signature_prefix(&chip_signature(&chip));
        JobBatch {
            target: JobTarget::Chip(chip),
            prefix,
        }
    }

    /// A factory for jobs sharing one rack scenario (and one signature).
    pub(crate) fn rack_batch(rack: Arc<RackScenario>) -> JobBatch {
        let prefix = signature_prefix(&rack.signature());
        JobBatch {
            target: JobTarget::Rack(rack),
            prefix,
        }
    }

    /// The job's content key.
    pub fn key(&self) -> &JobKey {
        &self.key
    }

    /// The per-site loads (site-ordinal order).
    pub fn loads(&self) -> &[CoreLoad] {
        &self.loads
    }

    /// The run configuration.
    pub fn config(&self) -> &NoiseRunConfig {
        &self.cfg
    }

    /// The same job with a different seed (used by reseeding retries).
    fn reseeded(&self, seed: u64) -> SimJob {
        let cfg = NoiseRunConfig {
            seed,
            ..self.cfg.clone()
        };
        SimJob::keyed(
            self.target.clone(),
            self.prefix.clone(),
            self.loads.clone(),
            cfg,
        )
    }
}

/// Factory producing [`SimJob`]s that share one scenario instance
/// (chip or rack). The scenario signature is hashed once, into the
/// digest state every job of the batch starts from.
#[derive(Debug, Clone)]
pub struct JobBatch {
    target: JobTarget,
    prefix: Fnv128,
}

impl JobBatch {
    /// Builds one job of the batch.
    pub fn job(&self, loads: impl Into<SiteVec<CoreLoad>>, cfg: NoiseRunConfig) -> SimJob {
        SimJob::keyed(self.target.clone(), self.prefix.clone(), loads.into(), cfg)
    }
}

/// Run statistics of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads the engine schedules onto.
    pub workers: usize,
    /// Jobs actually solved (cache misses).
    pub solves: usize,
    /// Jobs answered from the memo cache.
    pub cache_hits: usize,
    /// Jobs that exhausted every attempt and were captured as faults.
    pub faults: usize,
    /// Extra attempts granted by the retry policy (a job that succeeds
    /// on its second attempt contributes 1 here and 0 to `faults`).
    pub retries: usize,
    /// Jobs answered from the persistent result store: the first lookup
    /// of each key the store loaded into the memo (later lookups count
    /// as `cache_hits`).
    pub store_hits: usize,
    /// Corrupt lines skipped when the persistent store was opened
    /// (zero without a store).
    pub store_corrupt_lines: usize,
    /// Faults whose terminal kind was budget exhaustion
    /// ([`crate::fault::FaultKind::Budget`]); a subset of `faults`.
    pub budget_faults: usize,
    /// Faults whose terminal kind was a wall-clock deadline
    /// ([`crate::fault::FaultKind::Deadline`]); a subset of `faults`.
    pub deadline_faults: usize,
    /// Jobs currently being solved (gauge): distinct keys between
    /// singleflight registration and settlement. A serving layer's
    /// "how busy is the engine right now" signal.
    pub in_flight: usize,
    /// Depth of the serving layer's bounded work queue (gauge),
    /// published via [`Engine::set_queue_depth`]; zero for engines not
    /// behind a server.
    pub queue_depth: usize,
    /// Requests the serving layer shed — admission rejections plus
    /// queue-full discards — published via [`Engine::note_shed`]; zero
    /// for engines not behind a server.
    pub shed_total: usize,
    /// Callers that attached to an identical already-in-flight solve
    /// instead of starting their own (cross-client singleflight dedup).
    pub inflight_joins: usize,
    /// Estimated steps currently held by the serving layer's admission
    /// gate (gauge), published via [`Engine::set_admitted_steps`]; zero
    /// for engines not behind a server.
    pub admitted_steps: u64,
    /// Aggregated solver telemetry: deterministic work counters plus
    /// (when tracing was enabled) wall-clock histograms.
    pub telemetry: EngineTelemetry,
}

impl EngineStats {
    /// Renders the stats as pretty-printed JSON, the format consumed by
    /// the benchmark harness and written to `VOLTNOISE_STATS_PATH`.
    ///
    /// # Errors
    ///
    /// Returns a serialization error; cannot happen for this plain-data
    /// struct, but the path stays typed rather than panicking.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses stats back from the JSON rendering of
    /// [`EngineStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed or mismatched JSON.
    pub fn from_json(json: &str) -> Result<EngineStats, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// How one job settled: its outcome, or the fault every caller of the
/// key shares.
type Settled = Result<Arc<NoiseOutcome>, JobFault>;

/// One in-flight solve that concurrent identical requests attach to:
/// the first caller (the leader) solves, every later caller with the
/// same content key blocks on the condvar and shares the settled
/// result — success or fault — instead of duplicating the solve.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Settled>>,
    settled: Condvar,
}

impl Slot {
    fn settle(&self, result: Settled) {
        *lock_recover(&self.result) = Some(result);
        self.settled.notify_all();
    }

    fn wait(&self) -> Settled {
        let mut result = lock_recover(&self.result);
        loop {
            if let Some(settled) = result.as_ref() {
                return settled.clone();
            }
            result = self
                .settled
                .wait(result)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One memo entry. Memo and singleflight share one map, so finding a
/// result and registering to solve it are one step under one lock.
enum Entry {
    /// An outcome loaded from the persistent store and not yet asked
    /// for: its first lookup counts as a store hit.
    Stored(Arc<NoiseOutcome>),
    /// An outcome this engine has served or solved.
    Ready(Arc<NoiseOutcome>),
    /// A solve in flight; callers of the key wait on its slot.
    Pending(Arc<Slot>),
}

/// What claiming a job's key found, and the caller's role from here on.
enum Claim {
    /// Settled without solving: a memo or store hit, or a cancelled
    /// caller's fast fault.
    Settled(Settled),
    /// Another caller is solving the key: wait for its result.
    Join(Arc<Slot>),
    /// This caller registered the key and must settle its slot.
    Lead(Arc<Slot>),
}

/// A leader of one batch: the job, its slot, the configuration it runs
/// under and, when the kernel could prepare it, its prepared run.
struct Lead<'a> {
    /// Index of the job among the batch's distinct keys.
    unique: usize,
    job: &'a SimJob,
    slot: Arc<Slot>,
    cfg: Cow<'a, NoiseRunConfig>,
    run: Option<PreparedRun>,
}

/// One work item of a batch on the executor.
enum Work {
    /// Leaders (indices into the batch's leaders) solved together as
    /// the lanes of one group.
    Lanes(Vec<usize>),
    /// A key another caller is solving.
    Join(usize, Arc<Slot>),
}

/// The parallel, memoizing job executor.
pub struct Engine {
    workers: usize,
    retry: RetryPolicy,
    injector: Option<FaultInjector>,
    store: Option<ResultStore>,
    cancel: Option<CancelToken>,
    step_budget: Option<usize>,
    /// Whether solves record wall-clock telemetry (job wall time and
    /// per-phase solver time).
    trace: bool,
    /// The memo: job digest → outcome or in-flight solve, sharded.
    memo: Vec<Mutex<HashMap<u128, Entry>>>,
    drawer_memo: Mutex<HashMap<String, Arc<DrawerStepOutcome>>>,
    solves: AtomicUsize,
    hits: AtomicUsize,
    attempts: AtomicUsize,
    faults: AtomicUsize,
    retries: AtomicUsize,
    store_hits: AtomicUsize,
    budget_faults: AtomicUsize,
    deadline_faults: AtomicUsize,
    in_flight: AtomicUsize,
    queue_depth: AtomicUsize,
    shed_total: AtomicUsize,
    inflight_joins: AtomicUsize,
    admitted_steps: AtomicU64,
    telemetry: Mutex<EngineTelemetry>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("trace", &self.trace)
            .field("solves", &self.solves.load(Ordering::Relaxed))
            .field("cache_hits", &self.hits.load(Ordering::Relaxed))
            .field("faults", &self.faults.load(Ordering::Relaxed))
            .field("retries", &self.retries.load(Ordering::Relaxed))
            .field("store", &self.store)
            .field("store_hits", &self.store_hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Parses a `VOLTNOISE_THREADS` value into a worker count.
fn parsed_workers(raw: &str) -> Result<usize, &'static str> {
    let n: usize = raw.trim().parse().map_err(|_| "not a positive integer")?;
    if n == 0 {
        return Err("thread count must be at least 1");
    }
    Ok(n)
}

/// Resolves the worker count: `VOLTNOISE_THREADS` when set and valid,
/// otherwise the machine's available parallelism. An invalid setting is
/// reported on stderr rather than silently ignored.
fn default_workers() -> usize {
    if let Ok(s) = std::env::var("VOLTNOISE_THREADS") {
        match parsed_workers(&s) {
            Ok(n) => return n,
            Err(why) => eprintln!(
                "voltnoise: ignoring VOLTNOISE_THREADS={s:?} ({why}); \
                 falling back to available parallelism"
            ),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a `VOLTNOISE_TRACE` value: empty or `0` means untraced
/// (figures are generated untraced); any other value enables tracing.
fn parsed_trace(raw: &str) -> bool {
    let v = raw.trim();
    !v.is_empty() && v != "0"
}

/// Resolves the default trace flag from `VOLTNOISE_TRACE` (unset means
/// untraced).
fn default_trace() -> bool {
    std::env::var("VOLTNOISE_TRACE").is_ok_and(|v| parsed_trace(&v))
}

impl Engine {
    /// An engine with the default worker count (see module docs). When
    /// `VOLTNOISE_STORE` names a path, the engine additionally opens a
    /// persistent [`ResultStore`] there; an unopenable store is reported
    /// on stderr and skipped rather than aborting (durability degrades,
    /// the campaign does not).
    pub fn new() -> Engine {
        let mut engine = Engine::with_workers(default_workers());
        if let Ok(raw) = std::env::var("VOLTNOISE_STORE") {
            if let Err(why) = engine.attach_store(&raw) {
                eprintln!(
                    "voltnoise: ignoring VOLTNOISE_STORE={raw:?} ({why}); \
                     running without a persistent store"
                );
            }
        }
        engine
    }

    /// An engine with an explicit worker count (≥ 1; 1 = serial). Its
    /// trace flag is read from `VOLTNOISE_TRACE` here, once.
    pub fn with_workers(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            retry: RetryPolicy::default(),
            injector: None,
            store: None,
            cancel: None,
            step_budget: None,
            trace: default_trace(),
            memo: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            drawer_memo: Mutex::new(HashMap::new()),
            solves: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            attempts: AtomicUsize::new(0),
            faults: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            budget_faults: AtomicUsize::new(0),
            deadline_faults: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            queue_depth: AtomicUsize::new(0),
            shed_total: AtomicUsize::new(0),
            inflight_joins: AtomicUsize::new(0),
            admitted_steps: AtomicU64::new(0),
            telemetry: Mutex::new(EngineTelemetry::default()),
        }
    }

    /// Sets the engine's retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Engine {
        self.retry = retry;
        self
    }

    /// Installs a fault injector (builder style). Test harness only —
    /// injected faults exercise the capture/retry/degraded-report paths.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Engine {
        self.injector = Some(injector);
        self
    }

    /// Attaches a persistent result store at `path` (builder style):
    /// its records are loaded into the memo, so previously solved jobs
    /// are answered without solving, and every new solve is appended.
    /// See [`ResultStore`] for the format and its crash-tolerance
    /// guarantees.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the store file cannot be opened or
    /// created.
    pub fn with_store<P: AsRef<Path>>(mut self, path: P) -> std::io::Result<Engine> {
        self.attach_store(path)?;
        Ok(self)
    }

    /// Installs a cooperative cancellation token (builder style). Once
    /// the token is cancelled, jobs not yet started settle as
    /// [`FaultKind::Cancelled`] faults and in-flight solves abort at
    /// their next accepted step; already-cached (and store-backed)
    /// results are still served, so a cancelled batch drains into a
    /// deterministic partial result set.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Engine {
        self.cancel = Some(token);
        self
    }

    /// Sets a default per-job step budget (builder style): jobs whose
    /// own [`NoiseRunConfig::max_steps`] is `None` inherit this bound.
    /// The engine-level budget is an execution property, not part of the
    /// job content key — within one engine it applies uniformly, and a
    /// cached or stored result (already paid for) is never re-budgeted.
    #[must_use]
    pub fn with_step_budget(mut self, max_steps: usize) -> Engine {
        self.step_budget = Some(max_steps);
        self
    }

    /// Turns wall-clock tracing on or off for this engine (builder
    /// style), overriding `VOLTNOISE_TRACE`. Tracing fills the job-wall
    /// and per-phase histograms of [`Engine::telemetry`]; it never
    /// changes a solved value.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Engine {
        self.trace = trace;
        self
    }

    /// The engine's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs solved so far (cache misses).
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Jobs answered from the cache so far.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Solve attempts started so far — the fault injector's ordinal
    /// counter. Counts every attempt (including failed and retried
    /// ones); cache hits consume no ordinal.
    pub fn solve_attempts(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Jobs that exhausted every attempt and were captured as faults.
    pub fn faults(&self) -> usize {
        self.faults.load(Ordering::Relaxed)
    }

    /// Extra attempts granted by the retry policy so far.
    pub fn retries(&self) -> usize {
        self.retries.load(Ordering::Relaxed)
    }

    /// The attached persistent result store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Jobs answered from the persistent store so far.
    pub fn store_hits(&self) -> usize {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Publishes the serving layer's admission gauge (estimated steps
    /// currently holding permits) into the engine's stats, so `/stats`
    /// serves one coherent snapshot. Like [`Engine::set_queue_depth`],
    /// the engine itself never writes this.
    pub fn set_admitted_steps(&self, steps: u64) {
        self.admitted_steps.store(steps, Ordering::Relaxed);
    }

    /// Faults whose terminal kind was budget exhaustion.
    pub fn budget_faults(&self) -> usize {
        self.budget_faults.load(Ordering::Relaxed)
    }

    /// Faults whose terminal kind was a wall-clock deadline.
    pub fn deadline_faults(&self) -> usize {
        self.deadline_faults.load(Ordering::Relaxed)
    }

    /// Distinct jobs currently being solved (gauge).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Callers that attached to an identical in-flight solve so far.
    pub fn inflight_joins(&self) -> usize {
        self.inflight_joins.load(Ordering::Relaxed)
    }

    /// Publishes the serving layer's current work-queue depth into the
    /// engine's stats. The engine has no queue of its own — this gauge
    /// exists so `/stats` can serve one coherent [`EngineStats`]
    /// snapshot covering both the executor and the layer feeding it.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Records one shed request (admission rejection or queue-full
    /// discard) from the serving layer.
    pub fn note_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed by the serving layer so far.
    pub fn shed_total(&self) -> usize {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// A snapshot of the engine's aggregated solver telemetry. Solver
    /// work counters are always populated; the wall-clock histograms
    /// only fill on a traced engine (see [`Engine::with_trace`]).
    pub fn telemetry(&self) -> EngineTelemetry {
        *lock_recover(&self.telemetry)
    }

    /// A snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.workers,
            solves: self.solves(),
            cache_hits: self.cache_hits(),
            faults: self.faults(),
            retries: self.retries(),
            store_hits: self.store_hits(),
            store_corrupt_lines: self.store.as_ref().map_or(0, ResultStore::corrupt_lines),
            budget_faults: self.budget_faults(),
            deadline_faults: self.deadline_faults(),
            in_flight: self.in_flight(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            shed_total: self.shed_total(),
            inflight_joins: self.inflight_joins(),
            admitted_steps: self.admitted_steps.load(Ordering::Relaxed),
            telemetry: self.telemetry(),
        }
    }

    /// The reason-matched error a job must fail fast with before its
    /// solver is entered, via either the engine-level token or the job's
    /// own config token. `None` while both tokens are live.
    fn pre_solve_abort(&self, job: &SimJob) -> Option<PdnError> {
        let check = |token: Option<&CancelToken>| token.and_then(|t| t.abort_error(0.0));
        check(self.cancel.as_ref()).or_else(|| check(job.cfg.cancel.as_ref()))
    }

    /// Solves a job alone under [`Engine::run_config`]. Returns the
    /// outcome together with the solve's telemetry (which the caller
    /// aggregates; it never enters the outcome, the cache or the store).
    fn solve_job(&self, job: &SimJob) -> Result<(NoiseOutcome, SolveTelemetry), PdnError> {
        let cfg = self.run_config(job);
        run_view_noise_instrumented(&job.target.view(), &job.loads, &cfg, self.trace)
    }

    /// The configuration a job runs under: its own, with the
    /// engine-level step budget and cancellation token filled in where
    /// it leaves them unset. The common case (no engine-level
    /// overrides) borrows the job's config instead of cloning it.
    fn run_config<'a>(&self, job: &'a SimJob) -> Cow<'a, NoiseRunConfig> {
        let inject_budget = job.cfg.max_steps.is_none() && self.step_budget.is_some();
        let inject_cancel = job.cfg.cancel.is_none() && self.cancel.is_some();
        if !inject_budget && !inject_cancel {
            return Cow::Borrowed(&job.cfg);
        }
        let mut cfg = job.cfg.clone();
        if inject_budget {
            cfg.max_steps = self.step_budget;
        }
        if inject_cancel {
            cfg.cancel = self.cancel.clone();
        }
        Cow::Owned(cfg)
    }

    /// Runs one drawer step experiment through the engine's drawer memo,
    /// solving on a miss. Solves count into [`Engine::solves`], memo
    /// answers into [`Engine::cache_hits`], and solver telemetry —
    /// including the sparse-backend counters the drawer exercises —
    /// aggregates into [`Engine::telemetry`] exactly like chip jobs.
    ///
    /// The memo key is the FNV-1a 128-bit digest of the config's canonical
    /// JSON rendering: the config is plain serializable data, so the
    /// rendering *is* the content. Drawer outcomes are memoized in
    /// memory only; they do not enter the persistent [`ResultStore`],
    /// whose record format is [`NoiseOutcome`]-typed.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when the PDN solve fails. Failures are never
    /// memoized; a failing job re-solves when resubmitted.
    pub fn run_drawer(&self, cfg: &DrawerStepConfig) -> Result<Arc<DrawerStepOutcome>, PdnError> {
        let json = serde_json::to_string(cfg).map_err(|e| PdnError::InvalidTimebase {
            reason: format!("drawer config failed to serialize: {e}"),
        })?;
        let mut h = Fnv128::new();
        h.update(b"drawer-step/2|");
        h.update(json.as_bytes());
        let digest = h.finish_hex();
        if let Some(hit) = lock_recover(&self.drawer_memo).get(&digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        let wall_t0 = self.trace.then(Instant::now);
        let (outcome, solve_tel) = run_drawer_step_instrumented(cfg, self.trace)?;
        let outcome = Arc::new(outcome);
        self.solves.fetch_add(1, Ordering::Relaxed);
        let wall_ns = wall_t0.map(|t0| t0.elapsed().as_nanos() as u64);
        lock_recover(&self.telemetry).record_job(&solve_tel.counters, &solve_tel.phase, wall_ns);
        lock_recover(&self.drawer_memo)
            .entry(digest)
            .or_insert_with(|| outcome.clone());
        Ok(outcome)
    }

    fn shard(&self, digest: u128) -> &Mutex<HashMap<u128, Entry>> {
        &self.memo[(digest % CACHE_SHARDS as u128) as usize]
    }

    /// Claims a job's key: served from the memo or the store, joined to
    /// another caller's solve, or registered with this caller as its
    /// solver. Finding a result and registering to solve it are one
    /// step under one shard lock.
    fn claim(&self, job: &SimJob) -> Claim {
        let digest = job.key.digest;
        // A cancelled caller never leads or joins a solve: it is served
        // only what is already paid for, or fails fast.
        let abort = self.pre_solve_abort(job);
        let mut shard = lock_recover(self.shard(digest));
        match shard.get(&digest) {
            Some(Entry::Ready(outcome)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Settled(Ok(outcome.clone()));
            }
            Some(Entry::Stored(outcome)) => {
                let outcome = outcome.clone();
                shard.insert(digest, Entry::Ready(outcome.clone()));
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Settled(Ok(outcome));
            }
            Some(Entry::Pending(slot)) if abort.is_none() => {
                self.inflight_joins.fetch_add(1, Ordering::Relaxed);
                return Claim::Join(slot.clone());
            }
            _ => {}
        }
        if let Some(abort) = abort {
            drop(shard);
            // Memo miss (the store was loaded into the memo when it was
            // opened) of a cancelled caller. Cached and stored results
            // were served above even then — they are already paid for,
            // and draining them keeps a cancelled batch's partial
            // results deterministic. The fault kind carries the token's
            // reason, so a deadline-reaped request reports Deadline,
            // not Cancelled; attempts = 0: the solver was never entered.
            return Claim::Settled(Err(self.record_fault(job, 0, FaultKind::of_error(abort))));
        }
        let slot = Arc::new(Slot::default());
        shard.insert(digest, Entry::Pending(slot.clone()));
        Claim::Lead(slot)
    }

    /// Memoizes an outcome under its key's digest.
    fn publish(&self, digest: u128, outcome: &Arc<NoiseOutcome>) {
        lock_recover(self.shard(digest)).insert(digest, Entry::Ready(outcome.clone()));
    }

    /// Drops a leader's registration if no outcome replaced it: the key
    /// failed, or succeeded only under a reseeded key.
    fn vacate(&self, digest: u128, slot: &Arc<Slot>) {
        let mut shard = lock_recover(self.shard(digest));
        if matches!(shard.get(&digest), Some(Entry::Pending(s)) if Arc::ptr_eq(s, slot)) {
            shard.remove(&digest);
        }
    }

    /// Loads one record of the primary store into the memo. Keys that
    /// are not job digests (no job can ask for them) are skipped.
    fn preload(&self, key: &str, outcome: NoiseOutcome) {
        let Ok(digest) = u128::from_str_radix(key, 16) else {
            return;
        };
        lock_recover(self.shard(digest))
            .entry(digest)
            .or_insert_with(|| Entry::Stored(Arc::new(outcome)));
    }

    /// Opens the primary store, loading its records into the memo.
    fn attach_store(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let store = ResultStore::open_with(path, |key, outcome| self.preload(key, outcome))?;
        self.store = Some(store);
        Ok(())
    }

    /// One solve attempt: take the next attempt ordinal, consult the
    /// injector and solve alone.
    fn solve_attempt(&self, job: &SimJob) -> Result<Arc<NoiseOutcome>, PdnError> {
        let (ordinal, injected) = self.next_attempt();
        self.attempt_with(job, ordinal, injected)
    }

    /// The next attempt ordinal and the fault the injector plants there.
    fn next_attempt(&self) -> (usize, Option<InjectedFault>) {
        let ordinal = self.attempts.fetch_add(1, Ordering::Relaxed);
        let injected = self.injector.as_ref().and_then(|inj| inj.decide(ordinal));
        (ordinal, injected)
    }

    /// One solve attempt alone, at an ordinal whose injected fault is
    /// already decided.
    fn attempt_with(
        &self,
        job: &SimJob,
        ordinal: usize,
        injected: Option<InjectedFault>,
    ) -> Result<Arc<NoiseOutcome>, PdnError> {
        match injected {
            Some(InjectedFault::SolverError) => return Err(PdnError::Injected { ordinal }),
            Some(InjectedFault::WorkerPanic) => {
                panic!("injected worker panic at solve {ordinal}")
            }
            Some(InjectedFault::NanOutcome) | None => {}
        }
        // Wall-clock is only sampled while tracing: untraced solves pay
        // two branch checks, not two clock reads.
        let wall_t0 = self.trace.then(Instant::now);
        let (outcome, solve_tel) = self.solve_job(job)?;
        let wall_ns = wall_t0.map(|t0| t0.elapsed().as_nanos() as u64);
        self.accept(job, outcome, solve_tel, wall_ns, injected)
    }

    /// Validates a solved outcome, then persists and memoizes it. Only
    /// finite, successful outcomes are ever memoized, so a fault can
    /// never poison a later lookup.
    fn accept(
        &self,
        job: &SimJob,
        mut outcome: NoiseOutcome,
        solve_tel: SolveTelemetry,
        wall_ns: Option<u64>,
        injected: Option<InjectedFault>,
    ) -> Result<Arc<NoiseOutcome>, PdnError> {
        if injected == Some(InjectedFault::NanOutcome) {
            outcome.pct_p2p[0] = f64::NAN;
        }
        // run_noise guards its own output, but re-validate here so the
        // engine boundary holds even for injected (or future alternate)
        // producers of NoiseOutcome.
        if let Some((node, value)) = outcome.first_non_finite() {
            return Err(PdnError::Diverged {
                t: job.cfg.window_s.unwrap_or(0.0),
                node,
                value,
            });
        }
        let outcome = Arc::new(outcome);
        self.solves.fetch_add(1, Ordering::Relaxed);
        // Spectral fingerprints of any captured traces, computed
        // outside the telemetry lock (an FFT over a resampled trace,
        // paid only by trace-recording jobs). Like the wall-clock
        // histograms, signatures observe the campaign: they never
        // enter the outcome, the content key, the cache or the store,
        // so cache and store hits contribute nothing — fingerprints
        // count fresh physics, not replays.
        let signatures: Vec<_> = outcome
            .traces
            .iter()
            .flat_map(|c| c.channels().map(|volts| trace_signature(c.times(), volts)))
            .collect();
        {
            let mut tel = lock_recover(&self.telemetry);
            tel.record_job(&solve_tel.counters, &solve_tel.phase, wall_ns);
            for sig in &signatures {
                match sig {
                    Ok(sig) => tel.signal.record_signature(sig),
                    Err(_) => tel.signal.record_rejected(),
                }
            }
        }
        if let Some(store) = &self.store {
            store.append(&job.key().store_digest(), &outcome);
        }
        self.publish(job.key.digest, &outcome);
        Ok(outcome)
    }

    /// Runs an attempt, capturing its failure — error or panic — as the
    /// fault it settles as.
    fn caught(
        f: impl FnOnce() -> Result<Arc<NoiseOutcome>, PdnError>,
    ) -> Result<Arc<NoiseOutcome>, FaultKind> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(FaultKind::of_error(e)),
            Err(payload) => Err(FaultKind::Panic(panic_message(payload.as_ref()))),
        }
    }

    /// The first attempt of every leader in `group`, solved as the lanes
    /// of one transient run. Each member takes its attempt ordinal, in
    /// member order, before the group runs: a member planted with a
    /// solver error or a worker panic, or one the kernel could not
    /// prepare, attempts alone exactly as a lone job does, and the rest
    /// share the lanes. A panic in the lane run re-runs every lane
    /// member alone, so each panic is charged to the job that raised it.
    fn group_attempt(&self, group: &[&Lead<'_>]) -> Vec<Result<Arc<NoiseOutcome>, FaultKind>> {
        let decided: Vec<(usize, Option<InjectedFault>)> =
            group.iter().map(|_| self.next_attempt()).collect();
        let mut firsts: Vec<Option<Result<Arc<NoiseOutcome>, FaultKind>>> =
            group.iter().map(|_| None).collect();
        let (mut lanes, mut jobs) = (Vec::new(), Vec::new());
        for (i, (lead, &(ordinal, injected))) in group.iter().zip(&decided).enumerate() {
            let planted = matches!(
                injected,
                Some(InjectedFault::SolverError | InjectedFault::WorkerPanic)
            );
            match &lead.run {
                Some(run) if !planted => {
                    lanes.push(i);
                    jobs.push(LaneJob {
                        loads: &lead.job.loads,
                        cfg: &lead.cfg,
                        run,
                    });
                }
                _ => {
                    firsts[i] = Some(Self::caught(|| {
                        self.attempt_with(lead.job, ordinal, injected)
                    }));
                }
            }
        }
        if let Some(&first) = lanes.first() {
            let view = group[first].job.target.view();
            let wall_t0 = self.trace.then(Instant::now);
            let solved = catch_unwind(AssertUnwindSafe(|| run_view_noise_lanes(&view, &jobs)));
            // A group's wall time is split evenly across its lanes, like
            // its phase times.
            let wall_ns = wall_t0.map(|t0| t0.elapsed().as_nanos() as u64 / jobs.len() as u64);
            match solved {
                Ok(results) => {
                    for (&i, result) in lanes.iter().zip(results) {
                        let injected = decided[i].1;
                        firsts[i] = Some(Self::caught(|| {
                            let (outcome, tel) = result?;
                            self.accept(group[i].job, outcome, tel, wall_ns, injected)
                        }));
                    }
                }
                Err(_) => {
                    for &i in &lanes {
                        let (ordinal, injected) = decided[i];
                        firsts[i] = Some(Self::caught(|| {
                            self.attempt_with(group[i].job, ordinal, injected)
                        }));
                    }
                }
            }
        }
        firsts
            .into_iter()
            .map(|first| {
                first.unwrap_or_else(|| Err(FaultKind::Panic("member never attempted".to_string())))
            })
            .collect()
    }

    /// Runs one job through the cache, capturing failure — solver error
    /// or worker panic — as a [`JobFault`] instead of propagating it.
    /// The retry policy grants failing jobs extra attempts (separated by
    /// its deterministic backoff schedule when one is configured); with
    /// `reseed` set, attempt `k` re-runs with `seed + k` and a success
    /// is cached under the reseeded key (never the original key, which
    /// would break the key → content invariant).
    ///
    /// Concurrent callers with the same content key coalesce onto one
    /// solve (singleflight): the first caller solves, the rest block and
    /// share its settled result — the cross-client dedup a serving layer
    /// needs so two clients posting the same job cost one solve.
    ///
    /// # Errors
    ///
    /// Returns the final attempt's [`JobFault`] when every allowed
    /// attempt failed. Failures are never cached; a failing job
    /// re-solves when resubmitted.
    pub fn run_one_settled(&self, job: &SimJob) -> Result<Arc<NoiseOutcome>, JobFault> {
        // A one-job batch: claimed, led as a one-lane group and retried
        // exactly like a batch member, on the calling thread.
        self.run_jobs_settled(std::slice::from_ref(job))
            .swap_remove(0)
    }

    /// Settles a leader's slot for every caller waiting on the key.
    fn settle_lead(&self, job: &SimJob, slot: &Arc<Slot>, settled: &Settled) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.vacate(job.key.digest, slot);
        slot.settle(settled.clone());
    }

    /// Books a terminal fault into the engine's counters and builds the
    /// [`JobFault`] to return.
    fn record_fault(&self, job: &SimJob, attempts: u32, fault: FaultKind) -> JobFault {
        self.faults.fetch_add(1, Ordering::Relaxed);
        match fault {
            FaultKind::Budget(_) => {
                self.budget_faults.fetch_add(1, Ordering::Relaxed);
            }
            FaultKind::Deadline(_) => {
                self.deadline_faults.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        JobFault {
            key: Box::new(job.key),
            attempts,
            fault,
        }
    }

    /// Continues a leader's retry loop after its first attempt settled
    /// as `first`: attempt `k ≥ 1` runs alone, after the policy's
    /// backoff, on the job reseeded to `seed + k` when the policy
    /// reseeds.
    fn retry_after(&self, job: &SimJob, first: Result<Arc<NoiseOutcome>, FaultKind>) -> Settled {
        let mut fault = match first {
            Ok(outcome) => return Ok(outcome),
            Err(fault) => fault,
        };
        let mut attempts_made = 1u32;
        for attempt in 1..self.retry.max_attempts.max(1) {
            // Budget exhaustion, cancellation and deadline reaping are
            // final: retrying is guaranteed to reproduce them (budgets
            // are deterministic, tokens stay cancelled), so the attempts
            // a retry policy would spend are saved.
            if fault.is_final() {
                break;
            }
            let reseeded;
            let current: &SimJob = if self.retry.reseed {
                reseeded = job.reseeded(job.cfg.seed.wrapping_add(u64::from(attempt)));
                &reseeded
            } else {
                job
            };
            self.retries.fetch_add(1, Ordering::Relaxed);
            // The delay is a pure function of (job seed, attempt):
            // reproducible under any worker count (see RetryPolicy).
            let delay_ms = self.retry.backoff_delay_ms(job.cfg.seed, attempt);
            if delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            attempts_made = attempt + 1;
            match Self::caught(|| self.solve_attempt(current)) {
                Ok(outcome) => return Ok(outcome),
                Err(next) => fault = next,
            }
        }
        Err(self.record_fault(job, attempts_made, fault))
    }

    /// Runs one job through the cache (solving on a miss). Useful for
    /// adaptive flows — e.g. the Vmin descent — where the next job
    /// depends on the previous outcome. Thin fail-fast wrapper over
    /// [`Engine::run_one_settled`].
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when the PDN solve fails. Errors are not
    /// cached; a failing job re-solves on retry.
    ///
    /// # Panics
    ///
    /// Re-raises a captured worker panic.
    pub fn run_one(&self, job: &SimJob) -> Result<Arc<NoiseOutcome>, PdnError> {
        match self.run_one_settled(job) {
            Ok(outcome) => Ok(outcome),
            Err(JobFault {
                fault:
                    FaultKind::Solver(e)
                    | FaultKind::Budget(e)
                    | FaultKind::Cancelled(e)
                    | FaultKind::Deadline(e),
                ..
            }) => Err(e),
            Err(JobFault {
                fault: FaultKind::Panic(msg),
                ..
            }) => panic!("{msg}"),
        }
    }

    /// Runs a slice of jobs, deduplicating by content key up front (each
    /// distinct key solves at most once per call) and executing the
    /// distinct jobs on the worker pool, capturing each unique job's
    /// failure as a [`JobFault`] in its output slots. The output
    /// preserves input order: `result[i]` settles `jobs[i]`, and
    /// duplicate jobs share one result (including a shared fault).
    ///
    /// Leaders that share a scenario and a step schedule are solved as
    /// the lanes of one transient run (see [`Engine::run_jobs_settled_each`]);
    /// every outcome is bitwise what a lone solve produces.
    pub fn run_jobs_settled(&self, jobs: &[SimJob]) -> Vec<Settled> {
        self.run_jobs_settled_each(jobs, |_, _| {})
    }

    /// Like [`Engine::run_jobs_settled`], but additionally invokes
    /// `sink(i, &result)` — from worker threads, as each distinct job
    /// settles — for every input slot `i` the settled job fills. A
    /// serving layer maps this onto a streamed response: clients see
    /// each job's result the moment it settles instead of waiting for
    /// the whole batch. Duplicate jobs coalesce exactly as in
    /// `run_jobs_settled`; their slots are all announced when the one
    /// shared solve settles. The full input-ordered result vector is
    /// still returned.
    ///
    /// The batch first claims every distinct key (memo hit, store hit,
    /// join or lead). Leaders whose scenario, solver backend and step
    /// schedule agree are split into the fewest near-equal lane groups
    /// of at most [`MAX_LANES`] whose count is a multiple of the worker
    /// count, and every other leader forms a group of its own; the
    /// groups, then the joins, run on the worker pool. Injected faults
    /// and retries stay per member (see [`Engine::run_one_settled`]),
    /// and every member settles its own slot.
    pub fn run_jobs_settled_each<F>(&self, jobs: &[SimJob], sink: F) -> Vec<Settled>
    where
        F: Fn(usize, &Settled) + Sync,
    {
        let mut index_of: HashMap<&JobKey, usize> = HashMap::new();
        let mut unique: Vec<&SimJob> = Vec::new();
        let mut slots_of: Vec<Vec<usize>> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let next = unique.len();
            let idx = *index_of.entry(job.key()).or_insert(next);
            if idx == next {
                unique.push(job);
                slots_of.push(Vec::new());
            }
            slots_of[idx].push(i);
            slots.push(idx);
        }
        let announce = |u: usize, settled: &Settled| {
            for &slot in &slots_of[u] {
                sink(slot, settled);
            }
        };
        // A panic escaping the guarded solve path (or raised by the sink
        // itself) still settles the job as a fault.
        let escaped = |u: usize, msg: String| -> Settled {
            self.faults.fetch_add(1, Ordering::Relaxed);
            Err(JobFault {
                key: Box::new(*unique[u].key()),
                attempts: 1,
                fault: FaultKind::Panic(msg),
            })
        };
        let mut solved: Vec<Option<Settled>> = unique.iter().map(|_| None).collect();
        let mut joins: Vec<Work> = Vec::new();
        let mut leads: Vec<Lead<'_>> = Vec::new();
        for (u, &job) in unique.iter().enumerate() {
            match self.claim(job) {
                // Results already paid for are announced at once, off
                // the pool.
                Claim::Settled(settled) => {
                    let announced = catch_unwind(AssertUnwindSafe(|| announce(u, &settled)));
                    solved[u] = Some(match announced {
                        Ok(()) => settled,
                        Err(payload) => escaped(u, panic_message(payload.as_ref())),
                    });
                }
                Claim::Join(slot) => joins.push(Work::Join(u, slot)),
                Claim::Lead(slot) => leads.push(Lead {
                    unique: u,
                    job,
                    slot,
                    cfg: self.run_config(job),
                    run: None,
                }),
            }
        }
        self.in_flight.fetch_add(leads.len(), Ordering::Relaxed);
        let mut work: Vec<Work> = (self.lane_groups(&mut leads).into_iter())
            .map(Work::Lanes)
            .collect();
        // Joins come last: every worker takes leader groups before it
        // waits on another caller, so two batches that join each other's
        // keys cannot deadlock.
        work.extend(joins);
        let done = self.par_map_caught(&work, |item| match item {
            Work::Lanes(group) => {
                let group: Vec<&Lead<'_>> = group.iter().map(|&i| &leads[i]).collect();
                let settled = self.lead_group(&group);
                for (u, s) in &settled {
                    announce(*u, s);
                }
                settled
            }
            Work::Join(u, slot) => {
                let settled = slot.wait();
                announce(*u, &settled);
                vec![(*u, settled)]
            }
        });
        for (item, result) in work.iter().zip(done) {
            match result {
                Ok(settled) => {
                    for (u, s) in settled {
                        solved[u] = Some(s);
                    }
                }
                Err(msg) => {
                    let members = match item {
                        Work::Join(u, _) => vec![*u],
                        Work::Lanes(group) => group.iter().map(|&i| leads[i].unique).collect(),
                    };
                    for u in members {
                        solved[u] = Some(escaped(u, msg.clone()));
                    }
                }
            }
        }
        slots
            .into_iter()
            .map(|u| {
                solved[u].clone().unwrap_or_else(|| {
                    Err(JobFault {
                        key: Box::new(*unique[u].key()),
                        attempts: 0,
                        fault: FaultKind::Panic("job never settled".to_string()),
                    })
                })
            })
            .collect()
    }

    /// Prepares a batch's leaders (waveforms and transient
    /// configuration) and partitions them into lane groups of indices.
    /// Leaders whose scenario signature, backend and step schedule agree
    /// form one set, in order of first appearance, which is split into
    /// the fewest near-equal groups of at most [`MAX_LANES`] whose count
    /// is a multiple of the worker count. A leader the kernel cannot
    /// prepare is a group of its own and fails alone.
    fn lane_groups(&self, leads: &mut [Lead<'_>]) -> Vec<Vec<usize>> {
        let shared = leads.len() > 1;
        let mut sets: Vec<Vec<usize>> = Vec::new();
        let mut set_of: HashMap<(Fnv128, SolverBackend, StepSchedule), usize> = HashMap::new();
        for (i, lead) in leads.iter_mut().enumerate() {
            let view = lead.job.target.view();
            lead.run = prepare_run(&view, &lead.job.loads, &lead.cfg, self.trace).ok();
            let Some(run) = lead.run.as_ref().filter(|_| shared) else {
                // A lone leader has nothing to share lanes with.
                sets.push(vec![i]);
                continue;
            };
            let (backend, schedule) = run.lane_key();
            let next = sets.len();
            let set = *set_of
                .entry((lead.job.prefix.clone(), backend, schedule))
                .or_insert(next);
            if set == next {
                sets.push(Vec::new());
            }
            sets[set].push(i);
        }
        let mut groups = Vec::new();
        for set in sets {
            let count = (set.len().div_ceil(MAX_LANES))
                .next_multiple_of(self.workers)
                .min(set.len());
            let (base, extra) = (set.len() / count, set.len() % count);
            let mut members = set.into_iter();
            for g in 0..count {
                groups.push(
                    members
                        .by_ref()
                        .take(base + usize::from(g < extra))
                        .collect(),
                );
            }
        }
        groups
    }

    /// Solves one lane group's leaders, retries each failed member
    /// alone, and settles every member's slot before returning the
    /// settled results by distinct-job index.
    fn lead_group(&self, group: &[&Lead<'_>]) -> Vec<(usize, Settled)> {
        let mut settled = Vec::with_capacity(group.len());
        let mut failed = Vec::new();
        for (lead, first) in group.iter().zip(self.group_attempt(group)) {
            match first {
                Ok(outcome) => {
                    let ok = Ok(outcome);
                    self.settle_lead(lead.job, &lead.slot, &ok);
                    settled.push((lead.unique, ok));
                }
                Err(fault) => failed.push((lead, fault)),
            }
        }
        for (lead, fault) in failed {
            let result = self.retry_after(lead.job, Err(fault));
            self.settle_lead(lead.job, &lead.slot, &result);
            settled.push((lead.unique, result));
        }
        settled
    }

    /// Runs a slice of jobs fail-fast: a thin wrapper over
    /// [`Engine::run_jobs_settled`] that unwraps the first failure. The
    /// output preserves input order: `result[i]` is the outcome of
    /// `jobs[i]`.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing job — the same
    /// error a serial run would return — so parallel and serial
    /// execution are indistinguishable to callers.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-indexed captured worker panic.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Result<Vec<Arc<NoiseOutcome>>, PdnError> {
        let mut out = Vec::with_capacity(jobs.len());
        for settled in self.run_jobs_settled(jobs) {
            match settled {
                Ok(outcome) => out.push(outcome),
                Err(JobFault {
                    fault:
                        FaultKind::Solver(e)
                        | FaultKind::Budget(e)
                        | FaultKind::Cancelled(e)
                        | FaultKind::Deadline(e),
                    ..
                }) => return Err(e),
                Err(JobFault {
                    fault: FaultKind::Panic(msg),
                    ..
                }) => panic!("{msg}"),
            }
        }
        Ok(out)
    }

    /// Applies a function to each item on the worker pool, capturing
    /// worker panics as `Err(message)` so one panicking item cannot
    /// tear down the whole batch. Results arrive in input order. The
    /// serial (1-worker) path catches panics identically, keeping
    /// parallel and serial behavior aligned.
    pub(crate) fn par_map_caught<T, U, F>(&self, items: &[T], f: F) -> Vec<Result<U, String>>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        let call = |item: &T| -> Result<U, String> {
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(p.as_ref()))
        };
        if workers <= 1 {
            return items.iter().map(call).collect();
        }
        let results: Vec<Mutex<Option<Result<U, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *lock_recover(&results[i]) = Some(call(&items[i]));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| Err("worker never filled result slot".to_string()))
            })
            .collect()
    }

    /// Applies a fallible function to each item on the worker pool and
    /// collects the results in input order. The generic escape hatch for
    /// parallel work that is not a plain job list (e.g. one Vmin descent
    /// per grid cell).
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item, matching
    /// serial semantics.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-indexed captured worker panic.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Result<Vec<U>, PdnError>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> Result<U, PdnError> + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for settled in self.par_map_caught(items, |item| f(item)) {
            match settled {
                Ok(Ok(u)) => out.push(u),
                Ok(Err(e)) => return Err(e),
                Err(msg) => panic!("{msg}"),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use crate::workload::WorkloadKind;
    use voltnoise_pdn::SolveSpec;
    use voltnoise_stressmark::SyncSpec;

    fn test_jobs(tb: &Testbed) -> Vec<SimJob> {
        let batch = SimJob::batch(tb.chip());
        [45e3, 2.5e6]
            .iter()
            .map(|&f| {
                let sm = tb.max_stressmark(f, Some(SyncSpec::paper_default()));
                let loads = SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Stressmark(sm.clone()));
                batch.job(
                    loads,
                    NoiseRunConfig {
                        window_s: Some(25e-6),
                        record_traces: false,
                        seed: 1,
                        ..NoiseRunConfig::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let tb = Testbed::fast();
        let jobs = test_jobs(tb);
        let serial = Engine::with_workers(1).run_jobs(&jobs).unwrap();
        let parallel = Engine::with_workers(4).run_jobs(&jobs).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            let js = serde_json::to_string(&**s).unwrap();
            let jp = serde_json::to_string(&**p).unwrap();
            assert_eq!(js, jp);
        }
    }

    #[test]
    fn identical_jobs_solve_once() {
        let tb = Testbed::fast();
        let engine = Engine::with_workers(2);
        let jobs = test_jobs(tb);
        // Duplicate every job: within one run_jobs call the duplicates
        // must coalesce.
        let doubled: Vec<SimJob> = jobs.iter().chain(jobs.iter()).cloned().collect();
        let outcomes = engine.run_jobs(&doubled).unwrap();
        assert_eq!(outcomes.len(), doubled.len());
        assert_eq!(engine.solves(), jobs.len());
        // A second identical run is served entirely from the cache.
        let before = engine.solves();
        engine.run_jobs(&doubled).unwrap();
        assert_eq!(engine.solves(), before, "second run must not solve");
        // Duplicates coalesce before the cache, so the second run scores
        // one hit per *distinct* job.
        assert_eq!(engine.cache_hits(), jobs.len());
    }

    #[test]
    fn traced_solves_record_spectral_fingerprints_once() {
        let tb = Testbed::fast();
        let engine = Engine::with_workers(2);
        let batch = SimJob::batch(tb.chip());
        let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
        let loads: [CoreLoad; NUM_CORES] =
            std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
        let job = batch.job(
            loads,
            NoiseRunConfig {
                window_s: Some(20e-6),
                record_traces: true,
                seed: 1,
                ..NoiseRunConfig::default()
            },
        );
        engine.run_jobs(std::slice::from_ref(&job)).unwrap();
        let signal = engine.stats().telemetry.signal;
        assert_eq!(signal.traces, NUM_CORES as u64);
        assert_eq!(signal.rejected, 0);
        assert_eq!(signal.peak_freq_hz.count(), NUM_CORES as u64);
        // The 2.5 MHz stimulus dominates every core's spectrum, so
        // each peak lands in the 2^21-floor frequency bucket.
        assert_eq!(signal.peak_freq_hz.median(), Some(1 << 21));
        // Cache hits replay physics and must not re-fingerprint.
        engine.run_jobs(std::slice::from_ref(&job)).unwrap();
        assert_eq!(engine.stats().telemetry.signal.traces, NUM_CORES as u64);
        // Untraced jobs contribute nothing.
        let untraced = Engine::with_workers(1);
        untraced.run_jobs(&test_jobs(tb)).unwrap();
        assert_eq!(untraced.stats().telemetry.signal.traces, 0);
    }

    #[test]
    fn distinct_configs_get_distinct_keys() {
        let tb = Testbed::fast();
        let batch = SimJob::batch(tb.chip());
        let sm = tb.max_stressmark(2.5e6, None);
        let loads: [CoreLoad; NUM_CORES] =
            std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
        let base = NoiseRunConfig {
            window_s: Some(25e-6),
            record_traces: false,
            seed: 1,
            ..NoiseRunConfig::default()
        };
        let a = batch.job(loads.clone(), base.clone());
        let b = batch.job(
            loads.clone(),
            NoiseRunConfig {
                seed: 2,
                ..base.clone()
            },
        );
        let c = batch.job(
            loads.clone(),
            NoiseRunConfig {
                window_s: Some(30e-6),
                ..base.clone()
            },
        );
        let d = batch.job(
            loads,
            NoiseRunConfig {
                record_traces: true,
                ..base.clone()
            },
        );
        let e = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Stressmark(sm.clone())),
            NoiseRunConfig {
                solve: SolveSpec {
                    backend: SolverBackend::Dense,
                    rom: None,
                },
                ..base.clone()
            },
        );
        let f = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Stressmark(sm.clone())),
            NoiseRunConfig {
                solve: SolveSpec::reduced(voltnoise_pdn::RomSpec::default()),
                ..base.clone()
            },
        );
        let keys = [a.key(), b.key(), c.key(), d.key(), e.key(), f.key()];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "jobs {i} and {j} must differ");
                assert_ne!(
                    keys[i].store_digest(),
                    keys[j].store_digest(),
                    "digests {i} and {j} must differ"
                );
            }
        }
        // A ROM budget change alone changes the key: the budget is
        // content.
        let g = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Idle),
            NoiseRunConfig {
                solve: SolveSpec::reduced(voltnoise_pdn::RomSpec {
                    budget_v: 2e-3,
                    ..voltnoise_pdn::RomSpec::default()
                }),
                ..NoiseRunConfig::default()
            },
        );
        let h = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Idle),
            NoiseRunConfig {
                solve: SolveSpec::reduced(voltnoise_pdn::RomSpec::default()),
                ..NoiseRunConfig::default()
            },
        );
        assert_ne!(g.key(), h.key());
        assert_ne!(g.key().store_digest(), h.key().store_digest());
    }

    #[test]
    fn stats_json_round_trips_with_rom_counters() {
        let mut stats = Engine::with_workers(3).stats();
        stats.telemetry.solver.batched_solves = 7;
        stats.telemetry.solver.rom_solves = 11;
        stats.telemetry.solver.rom_states = 13;
        let json = stats.to_json().unwrap();
        let back = EngineStats::from_json(&json).unwrap();
        assert_eq!(stats, back);
        assert_eq!(back.telemetry.solver.rom_states, 13);
    }

    #[test]
    fn undervolted_chip_changes_the_signature() {
        let tb = Testbed::fast();
        let nominal = chip_signature(tb.chip());
        let lowered = chip_signature(&tb.chip().undervolted(-0.02).unwrap());
        assert_ne!(nominal, lowered);
        // And an identical rebuild matches.
        assert_eq!(nominal, chip_signature(tb.chip()));
    }

    #[test]
    fn par_map_preserves_order_and_first_error() {
        let engine = Engine::with_workers(4);
        let items: Vec<usize> = (0..40).collect();
        let ok = engine.par_map(&items, |&i| Ok(i * 2)).unwrap();
        assert_eq!(ok, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        let err = engine
            .par_map(&items, |&i| {
                if i >= 7 {
                    Err(PdnError::UnknownNode { node: i })
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(matches!(err, PdnError::UnknownNode { node: 7 }), "{err:?}");
    }

    #[test]
    fn par_map_caught_captures_panics_in_order() {
        for workers in [1, 4] {
            let engine = Engine::with_workers(workers);
            let items: Vec<usize> = (0..20).collect();
            let settled = engine.par_map_caught(&items, |&i| {
                assert!(i != 13, "unlucky item");
                i * 10
            });
            for (i, r) in settled.iter().enumerate() {
                if i == 13 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("unlucky item"), "{msg}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn drawer_jobs_memoize_by_content() {
        let engine = Engine::with_workers(1);
        let cfg = DrawerStepConfig {
            window_s: 1e-6,
            ..DrawerStepConfig::default()
        };
        let first = engine.run_drawer(&cfg).unwrap();
        assert_eq!(engine.solves(), 1);
        // Same content, fresh config value: answered from the memo.
        let again = engine.run_drawer(&cfg.clone()).unwrap();
        assert_eq!(engine.solves(), 1, "identical drawer jobs solve once");
        assert_eq!(engine.cache_hits(), 1);
        assert_eq!(
            serde_json::to_string(&*first).unwrap(),
            serde_json::to_string(&*again).unwrap()
        );
        // Different content gets a different digest and its own solve.
        let other = DrawerStepConfig {
            step_amps: cfg.step_amps * 2.0,
            ..cfg
        };
        engine.run_drawer(&other).unwrap();
        assert_eq!(engine.solves(), 2);
        // Drawer solves feed the same aggregated telemetry as chip jobs,
        // including the sparse-backend counters.
        let tel = engine.telemetry();
        assert!(tel.solver.sparse_solves > 0, "{:?}", tel.solver);
        assert!(tel.solver.pattern_reuses > 0, "{:?}", tel.solver);
    }

    #[test]
    fn concurrent_identical_jobs_singleflight_onto_one_solve() {
        let tb = Testbed::fast();
        let job = &test_jobs(tb)[0];
        let engine = Engine::with_workers(4);
        const CALLERS: usize = 6;
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| scope.spawn(|| engine.run_one_settled(job)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for settled in &outcomes {
            assert!(settled.is_ok());
        }
        // Exactly one caller solved; the rest either joined the
        // in-flight slot or arrived after settlement and hit the cache.
        assert_eq!(engine.solves(), 1, "one solve across {CALLERS} callers");
        assert_eq!(
            engine.inflight_joins() + engine.cache_hits(),
            CALLERS - 1,
            "joins={} hits={}",
            engine.inflight_joins(),
            engine.cache_hits()
        );
        assert_eq!(engine.in_flight(), 0, "gauge returns to zero");
        let first = serde_json::to_string(&**outcomes[0].as_ref().unwrap()).unwrap();
        for settled in &outcomes[1..] {
            let other = serde_json::to_string(&**settled.as_ref().unwrap()).unwrap();
            assert_eq!(first, other, "all callers share one result");
        }
    }

    #[test]
    fn racing_callers_solve_each_fresh_key_once() {
        const THREADS: usize = 6;
        const KEYS: usize = 4;
        let tb = Testbed::fast();
        let batch = SimJob::batch(tb.chip());
        let sm = tb.max_stressmark(2.5e6, None);
        let path = std::env::temp_dir().join(format!(
            "voltnoise_engine_{}_race.jsonl",
            std::process::id()
        ));
        for round in 0..200u64 {
            // Fresh keys every round: a fresh memo and store, and seeds
            // no earlier round used. The store puts a lookup between a
            // memo miss and the solve, as in a serving engine.
            let _ = std::fs::remove_file(&path);
            let engine = Engine::with_workers(1).with_store(&path).unwrap();
            let jobs: Vec<SimJob> = (0..KEYS as u64)
                .map(|k| {
                    batch.job(
                        SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Stressmark(sm.clone())),
                        NoiseRunConfig {
                            window_s: Some(1e-6),
                            seed: round * KEYS as u64 + k,
                            ..NoiseRunConfig::default()
                        },
                    )
                })
                .collect();
            let start = std::sync::Barrier::new(THREADS);
            let settled: Vec<Vec<Arc<NoiseOutcome>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (engine, jobs, start) = (&engine, &jobs, &start);
                        scope.spawn(move || {
                            start.wait();
                            // Each thread walks the keys from its own
                            // starting point, so leaders and joiners mix.
                            let mut got: Vec<_> = (0..KEYS)
                                .map(|i| {
                                    let k = (i + t) % KEYS;
                                    (k, engine.run_one_settled(&jobs[k]).unwrap())
                                })
                                .collect();
                            got.sort_by_key(|&(k, _)| k);
                            got.into_iter().map(|(_, outcome)| outcome).collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(engine.solves(), KEYS, "round {round}: one solve per key");
            assert_eq!(
                engine.cache_hits() + engine.inflight_joins(),
                (THREADS - 1) * KEYS,
                "round {round}"
            );
            for caller in &settled[1..] {
                for (mine, first) in caller.iter().zip(&settled[0]) {
                    assert!(
                        Arc::ptr_eq(mine, first),
                        "round {round}: one shared outcome"
                    );
                }
            }
            assert_eq!(engine.in_flight(), 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Synchronized rack jobs of one scenario share a step schedule,
    /// so a batch solves them as lanes; every outcome must still be the
    /// lone solve's, byte for byte, on one worker and on two.
    fn rack_lane_jobs(tb: &Testbed) -> Vec<SimJob> {
        let rack = Arc::new(
            RackScenario::build(
                tb.chip(),
                1,
                2,
                voltnoise_pdn::topology::VariationSpec::paper_default(7),
            )
            .unwrap(),
        );
        let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
        let batch = SimJob::rack_batch(rack.clone());
        (0..11)
            .map(|j| {
                batch.job(
                    SiteVec::from_fn(rack.num_sites(), |s| {
                        if s <= j || s == 2 * j + 3 {
                            CoreLoad::Stressmark(sm.clone())
                        } else {
                            CoreLoad::Idle
                        }
                    }),
                    NoiseRunConfig {
                        window_s: Some(2e-6),
                        ..NoiseRunConfig::default()
                    },
                )
            })
            .collect()
    }

    fn json(outcome: &NoiseOutcome) -> String {
        serde_json::to_string(outcome).unwrap()
    }

    #[test]
    fn rack_batch_lanes_match_lone_solves_bytewise() {
        let tb = Testbed::fast();
        let jobs = rack_lane_jobs(tb);
        let lone: Vec<String> = jobs
            .iter()
            .map(|job| json(&Engine::with_workers(1).run_one(job).unwrap()))
            .collect();
        for workers in [1, 2] {
            let engine = Engine::with_workers(workers);
            let batched = engine.run_jobs(&jobs).unwrap();
            for (i, (got, want)) in batched.iter().zip(&lone).enumerate() {
                assert_eq!(&json(got), want, "{workers} workers, job {i}");
            }
            assert_eq!(engine.solves(), jobs.len());
            let c = engine.telemetry().solver;
            assert_eq!(c.batched_solves, c.solve_calls, "{workers} workers: {c:?}");
        }
    }

    #[test]
    fn injected_faults_stay_with_their_lane_member() {
        let tb = Testbed::fast();
        let jobs = rack_lane_jobs(tb);
        let engine = Engine::with_workers(1).with_injector(
            FaultInjector::new()
                .fail_solve(1, InjectedFault::SolverError)
                .fail_solve(3, InjectedFault::NanOutcome),
        );
        let settled = engine.run_jobs_settled(&jobs);
        for (i, (got, job)) in settled.iter().zip(&jobs).enumerate() {
            match (i, got) {
                (
                    1,
                    Err(JobFault {
                        fault: FaultKind::Solver(PdnError::Injected { ordinal: 1 }),
                        ..
                    }),
                ) => {}
                (
                    3,
                    Err(JobFault {
                        fault: FaultKind::Solver(PdnError::Diverged { .. }),
                        ..
                    }),
                ) => {}
                (1 | 3, other) => panic!("job {i}: expected its injected fault, got {other:?}"),
                (_, got) => {
                    let want = Engine::with_workers(1).run_one(job).unwrap();
                    assert_eq!(json(got.as_ref().unwrap()), json(&want), "job {i}");
                }
            }
        }
        assert_eq!(engine.faults(), 2);
        assert_eq!(engine.solves(), jobs.len() - 2);
    }

    #[test]
    fn store_digests_are_pinned() {
        // These digests are the on-disk key contract (`jobkey-fnv1a128/3`):
        // stores written by earlier builds must keep answering the same
        // jobs. A change here needs a key-scheme version bump.
        let tb = Testbed::fast();
        let batch = SimJob::batch(tb.chip());
        let synced = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
        let chip = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Stressmark(synced.clone())),
            NoiseRunConfig {
                window_s: Some(25e-6),
                seed: 1,
                ..NoiseRunConfig::default()
            },
        );
        let reduced = batch.job(
            SiteVec::from_fn(NUM_CORES, |_| CoreLoad::Idle),
            NoiseRunConfig {
                max_steps: Some(10),
                record_traces: true,
                solve: SolveSpec::reduced(voltnoise_pdn::RomSpec::default()),
                ..NoiseRunConfig::default()
            },
        );
        let rack = Arc::new(
            RackScenario::build(
                tb.chip(),
                1,
                2,
                voltnoise_pdn::topology::VariationSpec::paper_default(7),
            )
            .unwrap(),
        );
        let free = tb.max_stressmark(1e6, None);
        let racked = SimJob::rack(
            rack.clone(),
            SiteVec::from_fn(rack.num_sites(), |s| {
                if s == 0 || s == 7 {
                    CoreLoad::Stressmark(free.clone())
                } else {
                    CoreLoad::Idle
                }
            }),
            NoiseRunConfig {
                window_s: Some(4e-6),
                seed: 3,
                ..NoiseRunConfig::default()
            },
        );
        assert_eq!(
            chip.key().store_digest(),
            "55378b989211e8fdf903aada71d58bb9"
        );
        assert_eq!(
            reduced.key().store_digest(),
            "c3a201c1a066eacd6acddc563dca2455"
        );
        assert_eq!(
            racked.key().store_digest(),
            "21f9a523cbba3dd9d635f028a8d8b945"
        );
        // The medium sequence carries its own measured phases: pin a
        // mixed max/medium mapping with a free-running medium core next
        // to offset-synced ones.
        let offset = Some(SyncSpec {
            offset_ticks: 3,
            ..SyncSpec::paper_default()
        });
        let mixed = batch.job(
            SiteVec::from_fn(NUM_CORES, |s| match s {
                0 | 3 => tb.load_of(WorkloadKind::MaxDidt, 2.5e6, offset),
                1 => tb.load_of(WorkloadKind::MediumDidt, 1e6, None),
                4 => tb.load_of(WorkloadKind::MediumDidt, 2.5e6, offset),
                _ => CoreLoad::Idle,
            }),
            NoiseRunConfig {
                window_s: Some(25e-6),
                seed: 5,
                ..NoiseRunConfig::default()
            },
        );
        assert_eq!(
            mixed.key().store_digest(),
            "a1bb88cc79bbad15ddc38092e5a848c7"
        );
        // A job built one-off hashes the same as one from a factory.
        let single = SimJob::new(
            Arc::new(tb.chip().clone()),
            chip.loads().to_vec(),
            chip.config().clone(),
        );
        assert_eq!(single.key(), chip.key());
    }

    #[test]
    fn a_reopened_store_answers_from_the_memo() {
        let tb = Testbed::fast();
        let path = std::env::temp_dir().join(format!(
            "voltnoise_engine_{}_reopen.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let jobs = test_jobs(tb);
        let first = Engine::with_workers(2).with_store(&path).unwrap();
        let solved = first.run_jobs(&jobs).unwrap();
        assert_eq!(first.solves(), jobs.len());
        drop(first);
        let again = Engine::with_workers(2).with_store(&path).unwrap();
        let loaded = again.run_jobs(&jobs).unwrap();
        assert_eq!(again.solves(), 0);
        assert_eq!(again.store_hits(), jobs.len(), "first use is a store hit");
        again.run_jobs(&jobs).unwrap();
        assert_eq!(again.store_hits(), jobs.len());
        assert_eq!(again.cache_hits(), jobs.len(), "later uses are memo hits");
        for (a, b) in solved.iter().zip(&loaded) {
            assert_eq!(
                serde_json::to_string(&**a).unwrap(),
                serde_json::to_string(&**b).unwrap()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deadline_cancelled_jobs_settle_as_deadline_faults() {
        let tb = Testbed::fast();
        let token = voltnoise_pdn::CancelToken::new();
        token.cancel_deadline();
        let engine = Engine::with_workers(1).with_cancel(token);
        let jobs = test_jobs(tb);
        let settled = engine.run_jobs_settled(&jobs);
        for s in &settled {
            let fault = s.as_ref().unwrap_err();
            assert!(
                matches!(fault.fault, FaultKind::Deadline(_)),
                "{:?}",
                fault.fault
            );
            assert_eq!(fault.attempts, 0, "solver never entered");
        }
        assert_eq!(engine.deadline_faults(), jobs.len());
        assert_eq!(engine.budget_faults(), 0);
        let stats = engine.stats();
        assert_eq!(stats.deadline_faults, jobs.len());
        // The fail-fast wrapper surfaces the typed error.
        let err = engine.run_one(&jobs[0]).unwrap_err();
        assert!(matches!(err, PdnError::DeadlineExceeded { .. }), "{err:?}");
    }

    #[test]
    fn settled_each_streams_every_slot_exactly_once() {
        let tb = Testbed::fast();
        let engine = Engine::with_workers(2);
        let jobs = test_jobs(tb);
        let doubled: Vec<SimJob> = jobs.iter().chain(jobs.iter()).cloned().collect();
        let announced: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let returned = engine.run_jobs_settled_each(&doubled, |slot, settled| {
            lock_recover(&announced).push((slot, settled.is_ok()));
        });
        assert_eq!(returned.len(), doubled.len());
        let mut seen = lock_recover(&announced).clone();
        seen.sort_unstable();
        assert_eq!(
            seen.iter().map(|&(slot, _)| slot).collect::<Vec<_>>(),
            (0..doubled.len()).collect::<Vec<_>>(),
            "every slot announced exactly once"
        );
        for (slot, ok) in seen {
            assert_eq!(ok, returned[slot].is_ok());
        }
        // Duplicates still coalesce: one solve per distinct job.
        assert_eq!(engine.solves(), jobs.len());
    }

    #[test]
    fn serving_gauges_flow_into_stats() {
        let engine = Engine::with_workers(1);
        engine.set_queue_depth(5);
        engine.note_shed();
        engine.note_shed();
        let stats = engine.stats();
        assert_eq!(stats.queue_depth, 5);
        assert_eq!(stats.shed_total, 2);
        assert_eq!(engine.shed_total(), 2);
        engine.set_queue_depth(0);
        assert_eq!(engine.stats().queue_depth, 0);
        let json = stats.to_json().unwrap();
        let back = EngineStats::from_json(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn parsed_workers_accepts_positive_integers() {
        assert_eq!(parsed_workers("1"), Ok(1));
        assert_eq!(parsed_workers(" 8 "), Ok(8));
        assert_eq!(parsed_workers("32"), Ok(32));
    }

    #[test]
    fn trace_flag_parses_the_env_convention_and_with_trace_overrides_it() {
        assert!(!parsed_trace(""));
        assert!(!parsed_trace(" 0 "));
        assert!(parsed_trace("1"));
        assert!(parsed_trace("yes"));
        assert!(Engine::with_workers(1).with_trace(true).trace);
        assert!(!Engine::with_workers(1).with_trace(false).trace);
    }

    #[test]
    fn parsed_workers_rejects_garbage_and_zero() {
        assert!(parsed_workers("0").is_err());
        assert!(parsed_workers("-2").is_err());
        assert!(parsed_workers("four").is_err());
        assert!(parsed_workers("2.5").is_err());
        assert!(parsed_workers("").is_err());
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "setup: lock must be poisoned");
        let mut guard = lock_recover(&m);
        guard.push(4);
        assert_eq!(*guard, vec![1, 2, 3, 4]);
    }
}
