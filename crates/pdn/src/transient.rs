//! Transient (time-domain) analysis via modified nodal analysis with
//! trapezoidal companion models.
//!
//! The solver uses a two-rate adaptive timestep: a coarse step sized to
//! the stimulus period, refined to a fine step inside windows around the
//! abrupt dI/dt edges reported by the [`Drive`]. Because only two step
//! sizes occur (plus an end-of-run clamp), only a couple of LU
//! factorizations are ever computed, and every simulation step is a
//! back-substitution.
//!
//! Assembly routes through the shared [`crate::mna`] core. Small
//! systems (a single chip, a few dozen unknowns) use the dense
//! [`Matrix`] fast path exactly as before; at or above
//! [`crate::mna::SPARSE_THRESHOLD`] unknowns a [`SolverBackend::Auto`]
//! solver switches to CSR sparse LU with the symbolic pattern computed
//! once and elimination orders reused across same-pattern
//! refactorizations (see [`crate::sparse`]).

use crate::backend::Factorization;
use crate::cancel::CancelToken;
use crate::error::PdnError;
use crate::linalg::Matrix;
use crate::mna::{MnaSystem, SolverBackend, SystemPattern};
use crate::netlist::{Netlist, NodeId};
use crate::sparse::{CsrMatrix, EliminationOrder, SparseLu};
use crate::telemetry::{PhaseTimes, SolverCounters};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Time-varying load currents driving the simulation.
///
/// Implementors describe, for each current source in the netlist, the
/// instantaneous current draw and the set of times at which that draw
/// changes abruptly (used for timestep refinement).
pub trait Drive {
    /// Fills `out[source.index()]` with the current (amperes) drawn by each
    /// source at time `t` (seconds).
    fn currents(&self, t: f64, out: &mut [f64]);

    /// Appends to `out` every time in `[t0, t1)` at which some source
    /// current transitions abruptly. Order and duplicates are tolerated.
    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>);
}

/// A constant drive: every source draws a fixed current.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::transient::{ConstantDrive, Drive};
/// let d = ConstantDrive::new(vec![2.0, 3.0]);
/// let mut out = vec![0.0; 2];
/// d.currents(1.0, &mut out);
/// assert_eq!(out, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDrive {
    levels: Vec<f64>,
}

impl ConstantDrive {
    /// Creates a drive with one fixed current per source.
    pub fn new(levels: Vec<f64>) -> Self {
        ConstantDrive { levels }
    }
}

impl Drive for ConstantDrive {
    fn currents(&self, _t: f64, out: &mut [f64]) {
        out.copy_from_slice(&self.levels);
    }
    fn edges(&self, _t0: f64, _t1: f64, _out: &mut Vec<f64>) {}
}

/// What a probe observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Voltage at a node relative to ground.
    NodeVoltage(NodeId),
    /// Branch current through the `k`-th voltage source (chip input rail).
    SourceCurrent(usize),
}

/// Summary statistics of one probe over the settled portion of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeStats {
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Time-weighted mean value.
    pub mean: f64,
}

impl ProbeStats {
    /// Peak-to-peak swing, `max - min`.
    pub fn peak_to_peak(&self) -> f64 {
        self.max - self.min
    }
}

/// Configuration of a transient run.
#[derive(Debug, Clone)]
pub struct TransientConfig {
    /// End time of the simulation (starts at 0).
    pub t_end: f64,
    /// Coarse step used away from dI/dt edges.
    pub h_coarse: f64,
    /// Fine step used inside edge-refinement windows.
    pub h_fine: f64,
    /// Refinement window extent before each edge.
    pub refine_pre: f64,
    /// Refinement window extent after each edge.
    pub refine_post: f64,
    /// Statistics ignore `t < settle` so startup transients do not
    /// contaminate steady-state peak-to-peak readings.
    pub settle: f64,
    /// When `Some(d)`, record every `d`-th accepted step into traces.
    pub record_decimation: Option<usize>,
    /// Divergence guard: any MNA unknown (node voltage or branch
    /// current) whose magnitude exceeds this bound — or goes non-finite —
    /// aborts the solve with [`PdnError::Diverged`]. Physical PDN
    /// solutions live within a few volts and a few hundred amperes, so
    /// the default of `1e6` only trips on genuine numerical blow-up.
    /// Set to `f64::INFINITY` to disable the magnitude check (the
    /// non-finite check always applies).
    pub divergence_limit: f64,
    /// Step budget: when `Some(n)`, the run fails with
    /// [`PdnError::BudgetExceeded`] as soon as it would need more than
    /// `n` accepted steps to reach `t_end`. A run finishing in exactly
    /// `n` steps succeeds. Deterministic (unlike a wall-clock timeout):
    /// the same netlist and configuration always hit the budget at the
    /// same step, so one pathological netlist cannot hang a campaign
    /// while well-behaved jobs are unaffected. `None` disables the
    /// budget.
    pub max_steps: Option<usize>,
    /// Cooperative cancellation: when set, the token is polled between
    /// accepted steps and a cancelled run aborts with
    /// [`PdnError::Cancelled`]. An un-cancelled token never changes
    /// results.
    pub cancel: Option<CancelToken>,
    /// When true, the run additionally records wall-clock time spent in
    /// each solver phase into [`TransientResult::phase_times`].
    /// Wall-clock readings are nondeterministic, so this is diagnostics
    /// only — it never changes any solved value — and it defaults to
    /// off, where its cost is two branch checks per accepted step.
    /// Deterministic work counters ([`TransientResult::counters`]) are
    /// always collected regardless of this flag.
    pub collect_phase_times: bool,
}

impl TransientConfig {
    /// A configuration with sensible defaults for a run of length `t_end`:
    /// 1 ns fine steps, `t_end/2000` coarse steps (clamped to
    /// `[2 ns, 50 ns]`), 20 % settle time, no trace recording.
    pub fn new(t_end: f64) -> Self {
        let h_coarse = (t_end / 2000.0).clamp(2e-9, 50e-9);
        TransientConfig {
            t_end,
            h_coarse,
            h_fine: 1e-9,
            refine_pre: 2e-9,
            refine_post: 10e-9,
            settle: t_end * 0.2,
            record_decimation: None,
            divergence_limit: 1e6,
            max_steps: None,
            cancel: None,
            collect_phase_times: false,
        }
    }

    fn validate(&self) -> Result<(), PdnError> {
        let bad = |reason: &str| {
            Err(PdnError::InvalidTimebase {
                reason: reason.to_string(),
            })
        };
        if !(self.t_end.is_finite() && self.t_end > 0.0) {
            return bad("t_end must be positive and finite");
        }
        let steps_ok = self.h_fine.is_finite()
            && self.h_fine > 0.0
            && self.h_coarse.is_finite()
            && self.h_coarse > 0.0;
        if !steps_ok {
            return bad("steps must be positive");
        }
        if self.h_fine > self.h_coarse {
            return bad("h_fine must not exceed h_coarse");
        }
        if self.settle >= self.t_end {
            return bad("settle must be smaller than t_end");
        }
        if self.divergence_limit.is_nan() || self.divergence_limit <= 0.0 {
            return bad("divergence_limit must be positive");
        }
        Ok(())
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Recorded sample times (empty unless recording was enabled).
    pub times: Vec<f64>,
    /// One recorded trace per probe, aligned with `times`.
    pub traces: Vec<Vec<f64>>,
    /// Per-probe statistics over `t >= settle`.
    pub stats: Vec<ProbeStats>,
    /// Number of accepted integration steps.
    pub steps: usize,
    /// Exact work counters of this run (always collected; deterministic
    /// for a given netlist, drive and configuration).
    pub counters: SolverCounters,
    /// Per-phase wall-clock time; all zeros unless
    /// [`TransientConfig::collect_phase_times`] was set.
    pub phase_times: PhaseTimes,
}

/// Most jobs one solver advances in lockstep: `TransientSolver::run_lanes`
/// is monomorphized for every lane width `1..=MAX_LANES`.
pub const MAX_LANES: usize = 8;

/// Everything that fixes a run's step sequence, as exact bits: the
/// configuration fields the step loop reads and the merged refinement
/// windows of the drive's edges.
///
/// Runs of one netlist whose schedules are equal take the same steps
/// with the same step sizes, so they can advance as the lanes of one
/// `TransientSolver::run_lanes` call; that is what callers group by.
/// The budget and the cancellation token (by identity) are part of the
/// schedule, so lanes of one group share them by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepSchedule {
    /// `t_end`, `h_coarse`, `h_fine`, `refine_pre`, `refine_post`,
    /// `settle` and `divergence_limit`.
    stepping: [u64; 7],
    record_decimation: Option<usize>,
    max_steps: Option<usize>,
    cancel: Option<usize>,
    collect_phase_times: bool,
    windows: Vec<(u64, u64)>,
}

impl StepSchedule {
    /// The schedule of running `drive` under `cfg`.
    pub fn new(drive: &dyn Drive, cfg: &TransientConfig) -> StepSchedule {
        StepSchedule {
            stepping: [
                cfg.t_end,
                cfg.h_coarse,
                cfg.h_fine,
                cfg.refine_pre,
                cfg.refine_post,
                cfg.settle,
                cfg.divergence_limit,
            ]
            .map(f64::to_bits),
            record_decimation: cfg.record_decimation,
            max_steps: cfg.max_steps,
            cancel: cfg.cancel.as_ref().map(CancelToken::id),
            collect_phase_times: cfg.collect_phase_times,
            windows: window_bits(&refine_windows(drive, cfg)),
        }
    }
}

/// The drive's edge times in `[0, t_end)`, widened by the refinement
/// margins and merged where they overlap, in time order.
fn refine_windows(drive: &dyn Drive, cfg: &TransientConfig) -> Vec<(f64, f64)> {
    let mut edge_times = Vec::new();
    drive.edges(0.0, cfg.t_end, &mut edge_times);
    edge_times.retain(|t| t.is_finite());
    edge_times.sort_by(|a, b| a.total_cmp(b));
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for &e in &edge_times {
        let (w0, w1) = (e - cfg.refine_pre, e + cfg.refine_post);
        match windows.last_mut() {
            Some(last) if w0 <= last.1 => last.1 = last.1.max(w1),
            _ => windows.push((w0, w1)),
        }
    }
    windows
}

fn window_bits(windows: &[(f64, f64)]) -> Vec<(u64, u64)> {
    windows
        .iter()
        .map(|&(a, b)| (a.to_bits(), b.to_bits()))
        .collect()
}

/// One factor-cache entry: the factorization for one step size and the
/// trapezoidal companion conductances at that size, `2C/h` per
/// capacitor and `h/(2L)` per inductor, evaluated once with the
/// step loop's expressions so every lane and every step reuses them.
struct CachedStep {
    /// The step size's bits.
    key: u64,
    factors: Arc<Factorization<f64>>,
    cap_g: Vec<f64>,
    ind_g: Vec<f64>,
}

/// Lane-interleaved trapezoidal companion history of the capacitors or
/// inductors, parallel to the immutable element views in
/// [`MnaSystem`]: `v[e][k]` and `i[e][k]` are element `e`'s voltage and
/// current in lane `k`.
struct Companions<const K: usize> {
    v: Vec<[f64; K]>,
    i: Vec<[f64; K]>,
}

impl<const K: usize> Companions<K> {
    fn zeros(len: usize) -> Self {
        Companions {
            v: vec![[0.0; K]; len],
            i: vec![[0.0; K]; len],
        }
    }

    /// Zeroes one lane's history (a failed lane stops contributing).
    fn clear_lane(&mut self, lane: usize) {
        for (v, i) in self.v.iter_mut().zip(&mut self.i) {
            v[lane] = 0.0;
            i[lane] = 0.0;
        }
    }
}

/// Every lane's value of the unknown at `idx`, zero for ground.
#[inline]
fn volts<const K: usize>(x: &[[f64; K]], idx: Option<usize>) -> [f64; K] {
    idx.map_or([0.0; K], |i| x[i])
}

/// The first unknown of `lane` that is non-finite or exceeds `limit`
/// in magnitude, as `(index, value)`.
fn first_diverged<const K: usize>(x: &[[f64; K]], lane: usize, limit: f64) -> Option<(usize, f64)> {
    x.iter().enumerate().find_map(|(node, v)| {
        let v = v[lane];
        (!v.is_finite() || v.abs() > limit).then_some((node, v))
    })
}

/// Lane `lane`'s even share of a group's phase times; lane 0 also takes
/// the remainders, so the shares sum to the group's times.
fn phase_share(group: &PhaseTimes, lanes: usize, lane: usize) -> PhaseTimes {
    let share = |ns: u64| {
        let l = lanes as u64;
        ns / l + if lane == 0 { ns % l } else { 0 }
    };
    PhaseTimes {
        assemble_ns: share(group.assemble_ns),
        factor_ns: share(group.factor_ns),
        step_ns: share(group.step_ns),
        validate_ns: share(group.validate_ns),
    }
}

/// Factorizations of one netlist, shared by every solver its owner
/// builds.
///
/// A scenario that solves many jobs against one netlist (a rack
/// replay, for instance) would otherwise re-factor the same DC and
/// step-size systems in every job. This memo keeps the most recent
/// [`ScenarioFactors::CAPACITY`] of them. It is owned by the netlist's
/// owner ([`crate::topology::Pdn`]), which is the only place a
/// solver gets wired to it, so factors can never meet a netlist they
/// were not computed from. Solvers built by [`TransientSolver::new`]
/// or [`TransientSolver::with_backend`] consult no memo.
///
/// A factorization is keyed by the backend, the step size's bits (or
/// the DC system) and the elimination order the solver holds when it
/// asks; the value carries the order the solver holds afterwards. A hit
/// therefore hands a solver exactly what it would have computed itself,
/// so results are bit-identical with or without the memo.
#[derive(Default)]
pub(crate) struct ScenarioFactors {
    /// Most recently used first.
    entries: Mutex<Vec<MemoEntry>>,
}

struct MemoEntry {
    backend: SolverBackend,
    /// Step-size bits; `None` keys the DC system.
    step: Option<u64>,
    order_before: Option<EliminationOrder>,
    order_after: Option<EliminationOrder>,
    factors: Arc<Factorization<f64>>,
}

impl MemoEntry {
    fn is_for(
        &self,
        backend: SolverBackend,
        step: Option<u64>,
        order_before: Option<&EliminationOrder>,
    ) -> bool {
        self.backend == backend && self.step == step && self.order_before.as_ref() == order_before
    }
}

impl ScenarioFactors {
    /// Factorizations kept per scenario; the least recently used one is
    /// evicted beyond this. Every job of a scenario reuses its DC and
    /// two step-size factorizations, while each end-of-window clamp is a
    /// one-off, so a small LRU keeps the hot entries and bounds memory.
    pub(crate) const CAPACITY: usize = 8;

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().map_or(0, |e| e.len())
    }

    /// The memoized factors for `(backend, step, order_before)` and the
    /// order a fresh factorization would have left behind. A poisoned
    /// lock reads as a miss.
    fn recall(
        &self,
        backend: SolverBackend,
        step: Option<u64>,
        order_before: Option<&EliminationOrder>,
    ) -> Option<(Arc<Factorization<f64>>, Option<EliminationOrder>)> {
        let mut entries = self.entries.lock().ok()?;
        let pos = entries
            .iter()
            .position(|e| e.is_for(backend, step, order_before))?;
        let entry = entries.remove(pos);
        let found = (entry.factors.clone(), entry.order_after.clone());
        entries.insert(0, entry);
        Some(found)
    }

    /// Remembers a fresh factorization. Factoring happens outside the
    /// lock, so two solvers may race to the same key; the second insert
    /// is dropped. A poisoned lock skips the insert.
    fn remember(&self, entry: MemoEntry) {
        let Ok(mut entries) = self.entries.lock() else {
            return;
        };
        if entries
            .iter()
            .any(|e| e.is_for(entry.backend, entry.step, entry.order_before.as_ref()))
        {
            return;
        }
        entries.truncate(Self::CAPACITY - 1);
        entries.insert(0, entry);
    }
}

impl std::fmt::Debug for ScenarioFactors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioFactors").finish_non_exhaustive()
    }
}

/// Transient simulator for one netlist.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::netlist::{Netlist, NodeId};
/// use voltnoise_pdn::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};
///
/// # fn main() -> Result<(), voltnoise_pdn::PdnError> {
/// let mut nl = Netlist::new();
/// let vdd = nl.add_node("vdd");
/// nl.add_voltage_source(vdd, NodeId::GROUND, 1.0)?;
/// let die = nl.add_node("die");
/// nl.add_resistor(vdd, die, 0.01)?;
/// let load = nl.add_current_source(die, NodeId::GROUND)?;
/// let _ = load;
///
/// let mut solver = TransientSolver::new(&nl)?;
/// let cfg = TransientConfig::new(1e-6);
/// let result = solver.run(&ConstantDrive::new(vec![5.0]), &[Probe::NodeVoltage(die)], &cfg)?;
/// assert!((result.stats[0].mean - 0.95).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub struct TransientSolver {
    n: usize,
    sys: MnaSystem,
    backend: SolverBackend,
    /// LRU factor cache keyed by step-size bits; entries come from the
    /// shared [`Factorization`] type in [`crate::backend`].
    factor_cache: Vec<CachedStep>,
    /// The netlist owner's memo, consulted when `factor_cache` misses.
    memo: Option<Arc<ScenarioFactors>>,
    /// Symbolic pattern of the coupled system, computed lazily on the
    /// first sparse factorization and shared by every later one.
    pattern: Option<Arc<SystemPattern>>,
    /// Symbolic pattern of the DC system (inductor branch rows added).
    dc_pattern: Option<Arc<SystemPattern>>,
    /// Pivot order of the last fresh coupled-system factorization,
    /// replayed by later same-pattern refactorizations.
    elim: Option<EliminationOrder>,
    dc_elim: Option<EliminationOrder>,
    /// Factorization work of the current run (computed, reused or
    /// recalled factors), which a lane group charges to lane 0.
    counters: SolverCounters,
}

impl TransientSolver {
    /// Builds a solver for the given netlist with automatic dense/sparse
    /// backend selection (see [`SolverBackend::Auto`]).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the netlist's DC system is singular (checked
    /// lazily at run time rather than here).
    pub fn new(netlist: &Netlist) -> Result<Self, PdnError> {
        Self::with_backend(netlist, SolverBackend::Auto)
    }

    /// Builds a solver with an explicit backend choice. `Auto` is right
    /// for almost everything; forcing `Dense` or `Sparse` exists for
    /// equivalence tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the netlist's DC system is singular (checked
    /// lazily at run time rather than here).
    pub fn with_backend(netlist: &Netlist, backend: SolverBackend) -> Result<Self, PdnError> {
        let sys = MnaSystem::new(netlist);
        let n = sys.size();
        Ok(TransientSolver {
            n,
            factor_cache: Vec::new(),
            memo: None,
            pattern: None,
            dc_pattern: None,
            elim: None,
            dc_elim: None,
            counters: SolverCounters::default(),
            backend,
            sys,
        })
    }

    /// A solver that shares factorizations through `memo`, which must
    /// only ever serve solvers of this same netlist (see
    /// [`ScenarioFactors`]).
    pub(crate) fn with_memo(
        netlist: &Netlist,
        backend: SolverBackend,
        memo: Arc<ScenarioFactors>,
    ) -> Result<Self, PdnError> {
        let mut solver = Self::with_backend(netlist, backend)?;
        solver.memo = Some(memo);
        Ok(solver)
    }

    /// Whether this solver's coupled system runs on the sparse path.
    pub fn uses_sparse(&self) -> bool {
        self.backend.is_sparse(self.n)
    }

    /// Factors a sparse system, replaying the cached elimination order
    /// when one exists for this system kind (coupled or DC) and falling
    /// back to a fresh Markowitz factorization when the reuse fails a
    /// numeric pivot check. Counts `pattern_reuses` and nnz-aware
    /// `est_flops`; the caller counts `lu_factorizations`.
    fn sparse_factor(&mut self, m: &CsrMatrix<f64>, dc: bool) -> Result<SparseLu<f64>, PdnError> {
        let existing = if dc {
            self.dc_elim.as_ref()
        } else {
            self.elim.as_ref()
        };
        let refactored = existing.and_then(|o| SparseLu::refactor(m, o).ok());
        match refactored {
            Some(lu) => {
                self.counters.pattern_reuses += 1;
                self.counters.est_flops += lu.factor_flops();
                Ok(lu)
            }
            None => {
                let lu = SparseLu::factor(m)?;
                self.counters.est_flops += lu.factor_flops();
                let order = lu.order();
                if dc {
                    self.dc_elim = Some(order);
                } else {
                    self.elim = Some(order);
                }
                Ok(lu)
            }
        }
    }

    /// The factors for `step` (`None`: the DC system). With a memo, a
    /// hit adopts the elimination order a fresh factorization would have
    /// left behind and counts as a factor-cache hit; a miss runs
    /// `factor` outside the memo's lock and offers the result to it.
    fn memoized(
        &mut self,
        step: Option<u64>,
        factor: impl FnOnce(&mut Self) -> Result<Factorization<f64>, PdnError>,
    ) -> Result<Arc<Factorization<f64>>, PdnError> {
        let Some(memo) = self.memo.clone() else {
            return factor(self).map(Arc::new);
        };
        let before = self.order_mut(step).clone();
        if let Some((factors, after)) = memo.recall(self.backend, step, before.as_ref()) {
            *self.order_mut(step) = after;
            self.counters.factor_cache_hits += 1;
            return Ok(factors);
        }
        let factors = Arc::new(factor(self)?);
        memo.remember(MemoEntry {
            backend: self.backend,
            step,
            order_before: before,
            order_after: self.order_mut(step).clone(),
            factors: factors.clone(),
        });
        Ok(factors)
    }

    /// The elimination order of the coupled (`Some` step) or the DC
    /// (`None`) system.
    fn order_mut(&mut self, step: Option<u64>) -> &mut Option<EliminationOrder> {
        if step.is_some() {
            &mut self.elim
        } else {
            &mut self.dc_elim
        }
    }

    /// Returns the cache index of the factorization for step size `h`,
    /// computing it on a miss. The cache is LRU: the front is the most
    /// recently used entry and evictions take the back, so a step size
    /// in active rotation is never evicted by a burst of one-off sizes
    /// (e.g. end-of-run clamps).
    fn factors_for(&mut self, h: f64) -> Result<usize, PdnError> {
        let key = h.to_bits();
        if let Some(pos) = self.factor_cache.iter().position(|e| e.key == key) {
            self.counters.factor_cache_hits += 1;
            // Move-to-front on hit keeps the recency order explicit in
            // the Vec itself; with at most 8 entries the shuffle is a
            // few pointer moves. A front hit — every step of a steady
            // run — is already in place.
            if pos > 0 {
                let entry = self.factor_cache.remove(pos);
                self.factor_cache.insert(0, entry);
            }
            return Ok(0);
        }
        let factors = self.memoized(Some(key), |s| s.factor_transient(h))?;
        if self.factor_cache.len() >= 8 {
            self.factor_cache.pop();
        }
        let entry = CachedStep {
            key,
            factors,
            cap_g: self.sys.caps.iter().map(|c| 2.0 * c.value / h).collect(),
            ind_g: (self.sys.inductors.iter())
                .map(|l| h / (2.0 * l.value))
                .collect(),
        };
        self.factor_cache.insert(0, entry);
        Ok(0)
    }

    /// A fresh factorization of the transient system for step size `h`.
    fn factor_transient(&mut self, h: f64) -> Result<Factorization<f64>, PdnError> {
        let lu = if self.backend.is_sparse(self.n) {
            let pattern = match &self.pattern {
                Some(p) => p.clone(),
                None => {
                    let p = Arc::new(SystemPattern::coupled(&self.sys));
                    self.pattern = Some(p.clone());
                    p
                }
            };
            let mut m = CsrMatrix::zeros(pattern);
            self.sys.stamp_transient(&mut m, h);
            let lu = self.sparse_factor(&m, false)?;
            self.counters.lu_factorizations += 1;
            Factorization::Sparse(lu)
        } else {
            let mut g = Matrix::zeros(self.n, self.n);
            self.sys.stamp_transient(&mut g, h);
            self.counters.est_flops += g.lu_flops();
            let lu = g.lu()?;
            self.counters.lu_factorizations += 1;
            Factorization::Dense(lu)
        };
        Ok(lu)
    }

    /// Solves the DC operating point (capacitors open, inductors shorted)
    /// with source currents evaluated at `t = 0` and returns the node
    /// voltages and source branch currents — the point every run starts
    /// from.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::SingularMatrix`] when the DC system is
    /// singular, and [`PdnError::Diverged`] at `t = 0` when the solution
    /// is not finite.
    pub fn solve_dc(&mut self, drive: &dyn Drive) -> Result<Vec<f64>, PdnError> {
        let mut bufs = [vec![0.0; self.sys.drive_len()]];
        let mut lanes = [SolverCounters::default()];
        let sol = self.dc_lanes(&[drive], &mut bufs, &mut lanes)?;
        if let Some((node, value)) = first_diverged(&sol, 0, f64::INFINITY) {
            return Err(PdnError::Diverged {
                t: 0.0,
                node,
                value,
            });
        }
        Ok(sol[..self.n].iter().map(|v| v[0]).collect())
    }

    /// The full DC solution (nodes, source branches, inductor branches)
    /// of every lane, from one shared DC factorization. Fills each
    /// lane's drive buffer with its `t = 0` currents and counts each
    /// lane's solve into `lanes`.
    fn dc_lanes<const K: usize>(
        &mut self,
        drives: &[&dyn Drive; K],
        bufs: &mut [Vec<f64>; K],
        lanes: &mut [SolverCounters; K],
    ) -> Result<Vec<[f64; K]>, PdnError> {
        // DC system: nodes + vsource branches + inductor branches (shorts).
        let n = self.sys.dc_size();
        let mut rhs = vec![[0.0; K]; n];
        for v in &self.sys.vsources {
            rhs[v.row] = [v.volts; K];
        }
        for (drive, buf) in drives.iter().zip(bufs.iter_mut()) {
            buf.fill(0.0);
            drive.currents(0.0, buf);
        }
        for s in &self.sys.isources {
            for (k, buf) in bufs.iter().enumerate() {
                let j = buf[s.source];
                if let Some(ifrom) = s.from {
                    rhs[ifrom][k] -= j;
                }
                if let Some(ito) = s.to {
                    rhs[ito][k] += j;
                }
            }
        }
        let factors = self.memoized(None, Self::factor_dc)?;
        for c in lanes.iter_mut() {
            c.dc_solves += 1;
            c.solve_calls += 1;
            c.est_flops += factors.solve_flops();
            c.sparse_solves += u64::from(factors.is_sparse());
            c.batched_solves += u64::from(K > 1);
        }
        let mut sol = vec![[0.0; K]; n];
        factors.solve_lanes(&mut rhs, &mut sol)?;
        Ok(sol)
    }

    /// A fresh factorization of the DC system. Backend choice keys on
    /// the *coupled* size so one solver stays on one path for its whole
    /// run.
    fn factor_dc(&mut self) -> Result<Factorization<f64>, PdnError> {
        let factors = if self.backend.is_sparse(self.n) {
            let pattern = match &self.dc_pattern {
                Some(p) => p.clone(),
                None => {
                    let p = Arc::new(SystemPattern::dc(&self.sys));
                    self.dc_pattern = Some(p.clone());
                    p
                }
            };
            let mut m = CsrMatrix::zeros(pattern);
            self.sys.stamp_dc(&mut m);
            Factorization::Sparse(self.sparse_factor(&m, true)?)
        } else {
            let n = self.sys.dc_size();
            let mut g = Matrix::zeros(n, n);
            self.sys.stamp_dc(&mut g);
            self.counters.est_flops += g.lu_flops();
            Factorization::Dense(g.lu()?)
        };
        self.counters.lu_factorizations += 1;
        Ok(factors)
    }

    /// Runs a transient simulation from a freshly solved DC operating
    /// point: the one-lane case of `TransientSolver::run_lanes`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] on invalid configuration or a singular system.
    pub fn run(
        &mut self,
        drive: &dyn Drive,
        probes: &[Probe],
        cfg: &TransientConfig,
    ) -> Result<TransientResult, PdnError> {
        let [result] = self.run_lanes([drive], probes, cfg);
        result
    }

    /// Runs one lane per drive, `MAX_LANES` at a time, each lane group
    /// at the narrowest lane width that holds it. `results[i]` belongs
    /// to `drives[i]`; see `TransientSolver::run_lanes`.
    pub fn run_group(
        &mut self,
        drives: &[&dyn Drive],
        probes: &[Probe],
        cfg: &TransientConfig,
    ) -> Vec<Result<TransientResult, PdnError>> {
        let mut results = Vec::with_capacity(drives.len());
        for group in drives.chunks(MAX_LANES) {
            let (p, c) = (probes, cfg);
            results.extend(match group.len() {
                1 => self.run_width::<1>(group, p, c),
                2 => self.run_width::<2>(group, p, c),
                3 => self.run_width::<3>(group, p, c),
                4 => self.run_width::<4>(group, p, c),
                5 => self.run_width::<5>(group, p, c),
                6 => self.run_width::<6>(group, p, c),
                7 => self.run_width::<7>(group, p, c),
                _ => self.run_width::<MAX_LANES>(group, p, c),
            });
        }
        results
    }

    fn run_width<const K: usize>(
        &mut self,
        drives: &[&dyn Drive],
        probes: &[Probe],
        cfg: &TransientConfig,
    ) -> Vec<Result<TransientResult, PdnError>> {
        self.run_lanes::<K>(std::array::from_fn(|k| drives[k]), probes, cfg)
            .into()
    }

    /// Advances `K` runs of this netlist in lockstep, one lane per
    /// drive, under one configuration. Every lane's drive must have the
    /// same refinement windows as lane 0's (equal [`StepSchedule`]s);
    /// a lane whose windows differ fails with
    /// [`PdnError::InvalidTimebase`].
    ///
    /// The lanes share the step sequence, the factorizations and the
    /// companion conductances; each unknown and each companion element
    /// holds one `[f64; K]`, and every lane performs exactly the
    /// operations a one-lane run performs, so each lane's result is
    /// bitwise the result of running its drive alone. A lane that
    /// diverges returns the same [`PdnError::Diverged`] a lone run
    /// returns and stops contributing while the other lanes continue; a
    /// budget, a cancellation or a failed factorization stops every
    /// lane still running with the same error.
    ///
    /// Each lane counts its own steps and solves; the group's
    /// factorization work is charged to lane 0, and its phase times are
    /// split evenly across the lanes. `batched_solves` counts every
    /// lane's solves when `K > 1`.
    pub(crate) fn run_lanes<const K: usize>(
        &mut self,
        drives: [&dyn Drive; K],
        probes: &[Probe],
        cfg: &TransientConfig,
    ) -> [Result<TransientResult, PdnError>; K] {
        let all = |e: PdnError| std::array::from_fn(|_| Err(e.clone()));
        if let Err(e) = cfg.validate() {
            return all(e);
        }
        self.factor_cache.clear();
        self.counters = SolverCounters::default();
        let timing = cfg.collect_phase_times;
        let mut phase = PhaseTimes::default();
        let mut lanes = [SolverCounters::default(); K];
        let mut bufs: [Vec<f64>; K] = std::array::from_fn(|_| vec![0.0; self.sys.drive_len()]);
        let dc = match self.dc_lanes(&drives, &mut bufs, &mut lanes) {
            Ok(dc) => dc,
            Err(e) => return all(e),
        };

        // Per-lane failures; a failed lane's state is zeroed and its
        // drive no longer called.
        let mut failed: [Option<PdnError>; K] = std::array::from_fn(|lane| {
            // A singular-but-not-detected system can still yield
            // non-finite values; catch them before they seed the
            // element states.
            first_diverged(&dc, lane, f64::INFINITY).map(|(node, value)| PdnError::Diverged {
                t: 0.0,
                node,
                value,
            })
        });
        let windows = refine_windows(drives[0], cfg);
        for (lane, drive) in drives.iter().enumerate().skip(1) {
            if failed[lane].is_none()
                && window_bits(&refine_windows(*drive, cfg)) != window_bits(&windows)
            {
                failed[lane] = Some(PdnError::InvalidTimebase {
                    reason: format!("lane {lane} has other refinement windows than lane 0"),
                });
            }
        }

        // Load element states from the DC solution.
        let mut caps = Companions::<K>::zeros(self.sys.caps.len());
        for (c, v) in self.sys.caps.iter().zip(&mut caps.v) {
            let (va, vb) = (volts(&dc, c.a), volts(&dc, c.b));
            *v = std::array::from_fn(|k| va[k] - vb[k]);
        }
        let mut inds = Companions::<K>::zeros(self.sys.inductors.len());
        for (k, i) in inds.i.iter_mut().enumerate() {
            *i = dc[self.n + k];
        }
        let mut active: [bool; K] = std::array::from_fn(|lane| failed[lane].is_none());
        for lane in (0..K).filter(|&lane| !active[lane]) {
            caps.clear_lane(lane);
            inds.clear_lane(lane);
            bufs[lane].fill(0.0);
        }

        let rows: Vec<Option<usize>> = probes
            .iter()
            .map(|p| match p {
                Probe::NodeVoltage(node) => node.unknown_index(),
                Probe::SourceCurrent(k) => self.sys.vsources.get(*k).map(|v| v.row),
            })
            .collect();
        let mut p_min = vec![[f64::INFINITY; K]; probes.len()];
        let mut p_max = vec![[f64::NEG_INFINITY; K]; probes.len()];
        let mut p_integral = vec![[0.0f64; K]; probes.len()];
        let mut stat_time = 0.0f64;
        let mut times = Vec::new();
        let mut traces: [Vec<Vec<f64>>; K] =
            std::array::from_fn(|_| vec![Vec::new(); probes.len()]);

        // Record the DC point as the first sample if recording.
        if cfg.record_decimation.is_some() {
            times.push(0.0);
            for (lane, lane_traces) in traces.iter_mut().enumerate() {
                for (trace, &row) in lane_traces.iter_mut().zip(&rows) {
                    trace.push(volts(&dc, row)[lane]);
                }
            }
        }

        let n = self.n;
        let mut rhs = vec![[0.0; K]; n];
        let mut x = vec![[0.0; K]; n];
        let mut t = 0.0f64;
        let mut steps = 0usize;
        let mut widx = 0usize;
        let mut rec_counter = 0usize;
        let eps = cfg.h_fine * 1e-6;
        let limit = cfg.divergence_limit;
        let batched = u64::from(K > 1);
        let stop = |failed: &mut [Option<PdnError>; K], active: &mut [bool; K], e: PdnError| {
            for (f, a) in failed.iter_mut().zip(active.iter_mut()) {
                if std::mem::take(a) {
                    *f = Some(e.clone());
                }
            }
        };

        while t < cfg.t_end - eps && active.contains(&true) {
            // Cooperative interruption, polled once per accepted step:
            // the budget bounds how much work a runaway netlist may
            // consume, the token lets a controller drain a campaign.
            // Both abort at a step boundary, so no torn state escapes.
            if let Some(budget) = cfg.max_steps {
                if steps >= budget {
                    stop(
                        &mut failed,
                        &mut active,
                        PdnError::BudgetExceeded { steps, t },
                    );
                    break;
                }
            }
            if let Some(abort) = cfg.cancel.as_ref().and_then(|c| c.abort_error(t)) {
                stop(&mut failed, &mut active, abort);
                break;
            }
            while widx < windows.len() && t >= windows[widx].1 {
                widx += 1;
            }
            let in_window =
                widx < windows.len() && t + cfg.h_coarse > windows[widx].0 && t < windows[widx].1;
            let mut h = if in_window { cfg.h_fine } else { cfg.h_coarse };
            if t + h > cfg.t_end {
                h = cfg.t_end - t;
            }

            let t0 = timing.then(Instant::now);
            let fidx = match self.factors_for(h) {
                Ok(fidx) => fidx,
                Err(e) => {
                    stop(&mut failed, &mut active, e);
                    break;
                }
            };
            if let Some(t0) = t0 {
                phase.factor_ns += t0.elapsed().as_nanos() as u64;
            }
            let step = &self.factor_cache[fidx];
            let t_next = t + h;

            // Assemble the RHS: sources at t_next plus companion history.
            let t0 = timing.then(Instant::now);
            rhs.fill([0.0; K]);
            for ((drive, buf), _) in drives.iter().zip(&mut bufs).zip(active).filter(|p| p.1) {
                drive.currents(t_next, buf);
            }
            for s in &self.sys.isources {
                let j: [f64; K] = std::array::from_fn(|k| bufs[k][s.source]);
                if let Some(ifrom) = s.from {
                    for (r, j) in rhs[ifrom].iter_mut().zip(j) {
                        *r -= j;
                    }
                }
                if let Some(ito) = s.to {
                    for (r, j) in rhs[ito].iter_mut().zip(j) {
                        *r += j;
                    }
                }
            }
            for (c, ((g, v), i)) in
                (self.sys.caps.iter()).zip(step.cap_g.iter().zip(&caps.v).zip(&caps.i))
            {
                let ieq: [f64; K] = std::array::from_fn(|k| g * v[k] + i[k]);
                if let Some(ia) = c.a {
                    for (r, q) in rhs[ia].iter_mut().zip(ieq) {
                        *r += q;
                    }
                }
                if let Some(ib) = c.b {
                    for (r, q) in rhs[ib].iter_mut().zip(ieq) {
                        *r -= q;
                    }
                }
            }
            for (l, ((g, v), i)) in
                (self.sys.inductors.iter()).zip(step.ind_g.iter().zip(&inds.v).zip(&inds.i))
            {
                let ieq: [f64; K] = std::array::from_fn(|k| i[k] + g * v[k]);
                if let Some(ia) = l.a {
                    for (r, q) in rhs[ia].iter_mut().zip(ieq) {
                        *r -= q;
                    }
                }
                if let Some(ib) = l.b {
                    for (r, q) in rhs[ib].iter_mut().zip(ieq) {
                        *r += q;
                    }
                }
            }
            for v in &self.sys.vsources {
                rhs[v.row] = [v.volts; K];
            }
            if let Some(t0) = t0 {
                phase.assemble_ns += t0.elapsed().as_nanos() as u64;
            }

            let t0 = timing.then(Instant::now);
            if let Err(e) = step.factors.solve_lanes(&mut rhs, &mut x) {
                stop(&mut failed, &mut active, e);
                break;
            }
            for (c, _) in lanes.iter_mut().zip(active).filter(|p| p.1) {
                c.solve_calls += 1;
                c.est_flops += step.factors.solve_flops();
                c.sparse_solves += u64::from(step.factors.is_sparse());
                c.batched_solves += batched;
            }
            if let Some(t0) = t0 {
                phase.step_ns += t0.elapsed().as_nanos() as u64;
            }

            let t0 = timing.then(Instant::now);
            // Divergence guard: an unstable network (or an unstable
            // integration of one) grows exponentially instead of
            // settling. One branch-free pass flags the lanes holding a
            // non-finite or runaway unknown; only a flagged lane is
            // rescanned for its first bad unknown, so NaN never reaches
            // its probe statistics.
            let mut bad = [false; K];
            for xi in &x {
                for (b, v) in bad.iter_mut().zip(xi) {
                    *b |= !v.is_finite() | (v.abs() > limit);
                }
            }
            for lane in 0..K {
                let flagged = (bad[lane] && active[lane])
                    .then(|| first_diverged(&x, lane, limit))
                    .flatten();
                if let Some((node, value)) = flagged {
                    failed[lane] = Some(PdnError::Diverged {
                        t: t_next,
                        node,
                        value,
                    });
                    active[lane] = false;
                    caps.clear_lane(lane);
                    inds.clear_lane(lane);
                    bufs[lane].fill(0.0);
                    for xi in &mut x {
                        xi[lane] = 0.0;
                    }
                }
            }

            // Advance element states.
            for (c, ((g, v), i)) in
                (self.sys.caps.iter()).zip(step.cap_g.iter().zip(&mut caps.v).zip(&mut caps.i))
            {
                let (va, vb) = (volts(&x, c.a), volts(&x, c.b));
                for k in 0..K {
                    let v_new = va[k] - vb[k];
                    i[k] = g * (v_new - v[k]) - i[k];
                    v[k] = v_new;
                }
            }
            for (l, ((g, v), i)) in
                (self.sys.inductors.iter()).zip(step.ind_g.iter().zip(&mut inds.v).zip(&mut inds.i))
            {
                let (va, vb) = (volts(&x, l.a), volts(&x, l.b));
                for k in 0..K {
                    let v_new = va[k] - vb[k];
                    i[k] += g * (v_new + v[k]);
                    v[k] = v_new;
                }
            }
            if let Some(t0) = t0 {
                phase.validate_ns += t0.elapsed().as_nanos() as u64;
            }

            t = t_next;
            steps += 1;

            if t >= cfg.settle {
                for (((lo, hi), integral), &row) in p_min
                    .iter_mut()
                    .zip(&mut p_max)
                    .zip(&mut p_integral)
                    .zip(&rows)
                {
                    let v = volts(&x, row);
                    for k in 0..K {
                        lo[k] = lo[k].min(v[k]);
                        hi[k] = hi[k].max(v[k]);
                        integral[k] += v[k] * h;
                    }
                }
                stat_time += h;
            }
            if let Some(dec) = cfg.record_decimation {
                rec_counter += 1;
                if rec_counter >= dec {
                    rec_counter = 0;
                    times.push(t);
                    for (lane, lane_traces) in traces.iter_mut().enumerate() {
                        for (trace, &row) in lane_traces.iter_mut().zip(&rows) {
                            trace.push(volts(&x, row)[lane]);
                        }
                    }
                }
            }
        }

        let group = self.counters;
        std::array::from_fn(|lane| {
            if let Some(e) = failed[lane].take() {
                return Err(e);
            }
            let stats = (p_min.iter().zip(&p_max).zip(&p_integral))
                .map(|((lo, hi), integral)| ProbeStats {
                    min: lo[lane],
                    max: hi[lane],
                    mean: if stat_time > 0.0 {
                        integral[lane] / stat_time
                    } else {
                        0.0
                    },
                })
                .collect();
            let mut counters = lanes[lane];
            counters.steps = steps as u64;
            if lane == 0 {
                counters.merge(&group);
            }
            Ok(TransientResult {
                times: times.clone(),
                traces: std::mem::take(&mut traces[lane]),
                stats,
                steps,
                counters,
                phase_times: phase_share(&phase, K, lane),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, NodeId};

    fn simple_rc() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node("die");
        nl.add_resistor(vdd, die, 0.1).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();
        (nl, die)
    }

    #[test]
    fn dc_point_matches_ohms_law() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let sol = solver.solve_dc(&ConstantDrive::new(vec![2.0])).unwrap();
        // v(die) = 1.0 - 2.0 A * 0.1 ohm = 0.8 V
        let v_die = sol[die.unknown_index().unwrap()];
        assert!((v_die - 0.8).abs() < 1e-9, "v_die = {v_die}");
    }

    #[test]
    fn constant_drive_stays_at_dc() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let cfg = TransientConfig::new(50e-6);
        let res = solver
            .run(
                &ConstantDrive::new(vec![2.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        let st = &res.stats[0];
        assert!((st.mean - 0.8).abs() < 1e-6);
        assert!(st.peak_to_peak() < 1e-9, "p2p = {}", st.peak_to_peak());
    }

    /// A step drive: 0 A before `t0`, `amps` after.
    struct StepDrive {
        t0: f64,
        amps: f64,
    }
    impl Drive for StepDrive {
        fn currents(&self, t: f64, out: &mut [f64]) {
            out[0] = if t >= self.t0 { self.amps } else { 0.0 };
        }
        fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
            if self.t0 >= t0 && self.t0 < t1 {
                out.push(self.t0);
            }
        }
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // R = 1 ohm, C = 1 uF, tau = 1 us. Step of 0.5 A at t = 10 us.
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node("die");
        nl.add_resistor(vdd, die, 1.0).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();

        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(20e-6);
        cfg.h_coarse = 5e-9;
        cfg.h_fine = 1e-9;
        cfg.settle = 0.0;
        cfg.record_decimation = Some(1);
        let res = solver
            .run(
                &StepDrive {
                    t0: 10e-6,
                    amps: 0.5,
                },
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();

        // Compare simulated trace against v(t) = 1 - 0.5*(1 - exp(-(t-t0)/tau)).
        let mut max_err = 0.0f64;
        for (t, v) in res.times.iter().zip(&res.traces[0]) {
            let expected = if *t < 10e-6 {
                1.0
            } else {
                1.0 - 0.5 * (1.0 - (-(*t - 10e-6) / 1e-6).exp())
            };
            max_err = max_err.max((v - expected).abs());
        }
        assert!(max_err < 2e-3, "max_err = {max_err}");
        // Final value approaches 1 - 0.5*1.0 = 0.5.
        let last = *res.traces[0].last().unwrap();
        assert!((last - 0.5).abs() < 1e-3, "last = {last}");
    }

    #[test]
    fn rlc_ringing_frequency_matches_analytic() {
        // Series L from source, C at die: resonance f = 1/(2*pi*sqrt(LC)).
        let l: f64 = 1e-9;
        let c: f64 = 1e-6;
        let f_expected = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt()); // ~5.03 MHz
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node("die");
        nl.add_series_rl(vdd, die, 1e-3, l).unwrap(); // light damping
        nl.add_capacitor(die, NodeId::GROUND, c).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();

        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(3e-6);
        cfg.h_coarse = 1e-9;
        cfg.h_fine = 1e-9;
        cfg.settle = 0.0;
        cfg.record_decimation = Some(1);
        let res = solver
            .run(
                &StepDrive {
                    t0: 0.2e-6,
                    amps: 10.0,
                },
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();

        // Measure the ringing period from successive minima after the step.
        let trace = &res.traces[0];
        let times = &res.times;
        let mut minima = Vec::new();
        for i in 1..trace.len() - 1 {
            if times[i] > 0.25e-6 && trace[i] < trace[i - 1] && trace[i] <= trace[i + 1] {
                minima.push(times[i]);
            }
        }
        assert!(
            minima.len() >= 3,
            "expected ringing, got {} minima",
            minima.len()
        );
        let period = (minima[2] - minima[0]) / 2.0;
        let f_measured = 1.0 / period;
        let rel = (f_measured - f_expected).abs() / f_expected;
        assert!(
            rel < 0.05,
            "f_measured {f_measured:.3e} vs expected {f_expected:.3e}"
        );
    }

    #[test]
    fn source_current_probe_reads_chip_current() {
        let (nl, _) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let cfg = TransientConfig::new(50e-6);
        let res = solver
            .run(
                &ConstantDrive::new(vec![2.0]),
                &[Probe::SourceCurrent(0)],
                &cfg,
            )
            .unwrap();
        // Magnitude of the rail current equals the 2 A load at DC.
        assert!((res.stats[0].mean.abs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(1e-6);
        cfg.h_fine = 2.0 * cfg.h_coarse;
        let err = solver
            .run(
                &ConstantDrive::new(vec![0.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        assert!(matches!(err, PdnError::InvalidTimebase { .. }));
    }

    #[test]
    fn floating_node_is_singular() {
        let mut nl = Netlist::new();
        let a = nl.add_node("floating");
        let b = nl.add_node("b");
        nl.add_resistor(a, b, 1.0).unwrap(); // no path to ground
        let mut solver = TransientSolver::new(&nl).unwrap();
        assert!(solver.solve_dc(&ConstantDrive::new(vec![])).is_err());
    }

    /// An RC node whose net conductance to ground is negative: the die
    /// voltage grows exponentially after any perturbation. The solver
    /// must abort with `Diverged`, never return NaN/Inf statistics.
    fn unstable_netlist() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node("die");
        nl.add_resistor(vdd, die, 0.1).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
        // -0.05 ohm to ground: net conductance at die = 10 - 20 < 0.
        nl.add_negative_resistor(die, NodeId::GROUND, -0.05)
            .unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();
        (nl, die)
    }

    #[test]
    fn unstable_netlist_diverges_not_nan() {
        let (nl, die) = unstable_netlist();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let cfg = TransientConfig::new(50e-6);
        let err = solver
            .run(
                &StepDrive {
                    t0: 1e-6,
                    amps: 1.0,
                },
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        match err {
            PdnError::Diverged { t, value, .. } => {
                assert!(t > 0.0 && t <= 50e-6, "t = {t}");
                assert!(
                    !value.is_finite() || value.abs() > cfg.divergence_limit,
                    "value = {value}"
                );
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn divergence_limit_is_validated() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(1e-6);
        cfg.divergence_limit = -1.0;
        let err = solver
            .run(
                &ConstantDrive::new(vec![0.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        assert!(matches!(err, PdnError::InvalidTimebase { .. }));
    }

    #[test]
    fn refinement_reduces_step_count_vs_uniform_fine() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(100e-6);
        cfg.h_coarse = 50e-9;
        cfg.h_fine = 1e-9;
        let res = solver
            .run(
                &StepDrive {
                    t0: 50e-6,
                    amps: 1.0,
                },
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        let uniform_fine_steps = (100e-6 / 1e-9) as usize;
        assert!(res.steps * 10 < uniform_fine_steps, "steps = {}", res.steps);
    }

    /// Regression test for the factor-cache eviction policy. The old
    /// policy evicted with `Vec::pop()` — the most recently *inserted*
    /// factorization — so a hot step size introduced after the cache
    /// filled was thrown out on every following miss and refactored on
    /// every following use. True LRU keeps it: once the cache is full
    /// (8 cold sizes), alternating one hot size against a stream of
    /// fresh one-off sizes must refactor only the one-offs.
    #[test]
    fn factor_cache_keeps_hot_entry_under_lru() {
        let (nl, _) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let h_of = |i: usize| (i as f64 + 1.0) * 1e-9;
        // Fill the cache with 8 cold step sizes.
        for i in 0..8 {
            solver.factors_for(h_of(i)).unwrap();
        }
        assert_eq!(solver.counters.lu_factorizations, 8);
        assert_eq!(solver.counters.factor_cache_hits, 0);
        // Alternate a hot size against 8 more fresh sizes (9 sizes in
        // rotation against a capacity of 8).
        let hot = 0.5e-9;
        for i in 8..16 {
            solver.factors_for(hot).unwrap();
            solver.factors_for(h_of(i)).unwrap();
        }
        // The hot size factored exactly once (its first use); every
        // later use was a cache hit despite the eviction pressure.
        assert_eq!(solver.counters.lu_factorizations, 8 + 1 + 8);
        assert_eq!(solver.counters.factor_cache_hits, 7);
        // And a hit reports the move-to-front index.
        assert_eq!(solver.factors_for(hot).unwrap(), 0);
        assert_eq!(solver.counters.factor_cache_hits, 8);
        // A hit on the front entry leaves the recency order unchanged.
        let order = |s: &TransientSolver| s.factor_cache.iter().map(|e| e.key).collect::<Vec<_>>();
        let before = order(&solver);
        assert_eq!(before[0], hot.to_bits());
        assert_eq!(solver.factors_for(hot).unwrap(), 0);
        assert_eq!(order(&solver), before);
        assert_eq!(solver.counters.factor_cache_hits, 9);
        assert_eq!(solver.counters.lu_factorizations, 8 + 1 + 8);
    }

    /// Counters are exact on a hand-built RC netlist whose timebase is
    /// chosen so every accepted step uses the same power-of-two step
    /// size: `t += h` stays exact in floating point, no end-of-run
    /// clamp fires, and the counts are knowable in closed form.
    #[test]
    fn counters_are_exact_on_known_run() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let h = (2.0f64).powi(-27); // ~7.45 ns, exactly representable
        let n_steps = 128u64;
        let mut cfg = TransientConfig::new(h * n_steps as f64);
        cfg.h_coarse = h;
        cfg.h_fine = h;
        cfg.settle = 0.0;
        let res = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        assert_eq!(res.steps as u64, n_steps);
        let c = res.counters;
        assert_eq!(c.steps, n_steps);
        assert_eq!(c.dc_solves, 1);
        // One transient factorization (single step size) plus the DC one.
        assert_eq!(c.lu_factorizations, 2);
        assert_eq!(c.factor_cache_hits, n_steps - 1);
        // One back-substitution per step plus the DC solve.
        assert_eq!(c.solve_calls, n_steps + 1);
        assert!(c.est_flops > 0);
        // Phase timing stayed off: no wall-clock was recorded.
        assert_eq!(res.phase_times.total_ns(), 0);
    }

    #[test]
    fn phase_times_are_recorded_when_enabled() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(20e-6);
        cfg.collect_phase_times = true;
        let timed = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        assert!(timed.phase_times.total_ns() > 0, "no phase time recorded");
        // Timing collection must not change the solved values.
        cfg.collect_phase_times = false;
        let plain = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        assert_eq!(plain.steps, timed.steps);
        assert_eq!(plain.counters, timed.counters);
        assert_eq!(plain.stats[0].min.to_bits(), timed.stats[0].min.to_bits());
        assert_eq!(plain.stats[0].max.to_bits(), timed.stats[0].max.to_bits());
        assert_eq!(plain.stats[0].mean.to_bits(), timed.stats[0].mean.to_bits());
    }

    #[test]
    fn step_budget_fails_deterministically() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let mut cfg = TransientConfig::new(100e-6);
        cfg.max_steps = Some(10);
        let err = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        let PdnError::BudgetExceeded { steps, t } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(steps, 10);
        assert!(t > 0.0 && t < 100e-6, "t = {t}");
        // The same budget fails at the same step every time.
        let err2 = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn exact_step_budget_succeeds_and_matches_unbudgeted_run() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let cfg = TransientConfig::new(20e-6);
        let drive = ConstantDrive::new(vec![1.0]);
        let probes = [Probe::NodeVoltage(die)];
        let free = solver.run(&drive, &probes, &cfg).unwrap();
        // Granting exactly the needed number of steps changes nothing.
        let mut exact = cfg.clone();
        exact.max_steps = Some(free.steps);
        let budgeted = solver.run(&drive, &probes, &exact).unwrap();
        assert_eq!(budgeted.steps, free.steps);
        assert_eq!(budgeted.stats[0].min.to_bits(), free.stats[0].min.to_bits());
        assert_eq!(budgeted.stats[0].max.to_bits(), free.stats[0].max.to_bits());
        assert_eq!(
            budgeted.stats[0].mean.to_bits(),
            free.stats[0].mean.to_bits()
        );
        // One step fewer fails.
        let mut short = cfg;
        short.max_steps = Some(free.steps - 1);
        assert!(matches!(
            solver.run(&drive, &probes, &short),
            Err(PdnError::BudgetExceeded { .. })
        ));
    }

    /// A drive that cancels its token once the simulation passes a set
    /// time — a deterministic stand-in for an external controller.
    struct CancellingDrive {
        token: CancelToken,
        after: f64,
        amps: f64,
    }

    impl Drive for CancellingDrive {
        fn currents(&self, t: f64, out: &mut [f64]) {
            if t > self.after {
                self.token.cancel();
            }
            out.fill(self.amps);
        }
        fn edges(&self, _t0: f64, _t1: f64, _out: &mut Vec<f64>) {}
    }

    #[test]
    fn cancellation_aborts_between_steps() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let token = CancelToken::new();
        let mut cfg = TransientConfig::new(100e-6);
        cfg.cancel = Some(token.clone());
        let drive = CancellingDrive {
            token,
            after: 40e-6,
            amps: 1.0,
        };
        let err = solver
            .run(&drive, &[Probe::NodeVoltage(die)], &cfg)
            .unwrap_err();
        let PdnError::Cancelled { t } = err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert!((40e-6..100e-6).contains(&t), "t = {t}");
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut cfg = TransientConfig::new(100e-6);
        cfg.cancel = Some(token);
        let err = solver
            .run(
                &ConstantDrive::new(vec![1.0]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap_err();
        assert!(
            matches!(err, PdnError::Cancelled { t } if t == 0.0),
            "{err:?}"
        );
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let (nl, die) = simple_rc();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let drive = StepDrive {
            t0: 50e-6,
            amps: 1.0,
        };
        let probes = [Probe::NodeVoltage(die)];
        let plain = solver
            .run(&drive, &probes, &TransientConfig::new(100e-6))
            .unwrap();
        let mut cfg = TransientConfig::new(100e-6);
        cfg.cancel = Some(CancelToken::new());
        let watched = solver.run(&drive, &probes, &cfg).unwrap();
        assert_eq!(plain.steps, watched.steps);
        assert_eq!(plain.stats[0].min.to_bits(), watched.stats[0].min.to_bits());
        assert_eq!(plain.stats[0].max.to_bits(), watched.stats[0].max.to_bits());
    }

    /// A random RLC ladder whose capacitors span four decades, so which
    /// entries pass the sparse pivot threshold — and so the Markowitz
    /// order a fresh factorization picks — depends on the step size.
    fn random_rlc(rng: &mut rand::rngs::SmallRng, segments: usize) -> (Netlist, Vec<NodeId>) {
        use rand::Rng;
        let mut nl = Netlist::new();
        let vdd = nl.add_node("vdd");
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let mut nodes = Vec::with_capacity(segments);
        let mut prev = vdd;
        for i in 0..segments {
            let n = nl.add_node(format!("n{i}"));
            let r = 1e-3 + rng.gen::<f64>() * 9e-3;
            if rng.gen::<f64>() < 0.4 {
                nl.add_series_rl(prev, n, r, 0.05e-9 + rng.gen::<f64>() * 2e-9)
                    .unwrap();
            } else {
                nl.add_resistor(prev, n, r).unwrap();
            }
            let c = 10f64.powf(-9.0 + 4.0 * rng.gen::<f64>());
            if rng.gen::<f64>() < 0.5 {
                nl.add_capacitor_with_esr(n, NodeId::GROUND, c, 0.2e-3 + rng.gen::<f64>() * 1e-3)
                    .unwrap();
            } else {
                nl.add_capacitor(n, NodeId::GROUND, c).unwrap();
            }
            nodes.push(n);
            prev = n;
        }
        for _ in 0..segments / 3 {
            let a = nodes[rng.gen_range(0..segments)];
            let b = nodes[rng.gen_range(0..segments)];
            if a != b {
                nl.add_resistor(a, b, 2e-3 + rng.gen::<f64>() * 8e-3)
                    .unwrap();
            }
        }
        for _ in 0..3 {
            nl.add_current_source(nodes[rng.gen_range(0..segments)], NodeId::GROUND)
                .unwrap();
        }
        (nl, nodes)
    }

    /// Every source steps up by its own amplitude at `t_step`.
    struct StepAll {
        t_step: f64,
        amps: Vec<f64>,
    }
    impl Drive for StepAll {
        fn currents(&self, t: f64, out: &mut [f64]) {
            for (o, &a) in out.iter_mut().zip(&self.amps) {
                *o = if t >= self.t_step { a } else { 0.1 * a };
            }
        }
        fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
            if self.t_step >= t0 && self.t_step < t1 {
                out.push(self.t_step);
            }
        }
    }

    /// Solvers sharing one [`ScenarioFactors`] reproduce fresh bare
    /// solvers bit for bit, on both backends, over runs that start on
    /// the fine step in some cases and on the coarse step in others —
    /// so the memo sees the same step size under different incoming
    /// elimination orders — and end on distinct clamp steps. The memo
    /// must serve real hits and never outgrow its capacity.
    #[test]
    fn scenario_factors_match_fresh_solvers_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xfac7_0125);
        for trial in 0..4 {
            let (nl, nodes) = random_rlc(&mut rng, 12 + 5 * trial);
            let amps: Vec<f64> = (0..3).map(|_| 1.0 + rng.gen::<f64>() * 20.0).collect();
            let mut probes: Vec<Probe> = nodes
                .iter()
                .step_by(2)
                .map(|&n| Probe::NodeVoltage(n))
                .collect();
            probes.push(Probe::SourceCurrent(0));
            for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
                let memo = Arc::new(ScenarioFactors::default());
                let (mut bare_factored, mut memo_factored) = (0, 0);
                for run in 0..10 {
                    let t_end = 1.5e-6 + run as f64 * 7.3e-9;
                    let mut cfg = TransientConfig::new(t_end);
                    cfg.h_coarse = 40e-9;
                    cfg.h_fine = 0.5e-9;
                    cfg.settle = 0.0;
                    cfg.record_decimation = Some(1);
                    // An edge at t = 1 ns refines the very first step;
                    // one at 40 % of the window leaves it coarse.
                    let drive = StepAll {
                        t_step: if run % 2 == 0 { 1e-9 } else { 0.4 * t_end },
                        amps: amps.clone(),
                    };
                    let mut bare = TransientSolver::with_backend(&nl, backend).unwrap();
                    let want = bare.run(&drive, &probes, &cfg).unwrap();
                    let mut shared =
                        TransientSolver::with_memo(&nl, backend, memo.clone()).unwrap();
                    let got = shared.run(&drive, &probes, &cfg).unwrap();
                    assert!(memo.len() <= ScenarioFactors::CAPACITY);

                    let ctx = format!("trial {trial}, {backend:?}, run {run}");
                    assert_eq!(got.steps, want.steps, "{ctx}");
                    let stat_bits = |r: &TransientResult| -> Vec<[u64; 3]> {
                        r.stats
                            .iter()
                            .map(|s| [s.min.to_bits(), s.max.to_bits(), s.mean.to_bits()])
                            .collect()
                    };
                    assert_eq!(stat_bits(&got), stat_bits(&want), "{ctx}: probe stats");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.times), bits(&want.times), "{ctx}: times");
                    for (p, (g, w)) in got.traces.iter().zip(&want.traces).enumerate() {
                        assert_eq!(bits(g), bits(w), "{ctx}: probe {p} trace");
                    }
                    // A memo hit replaces a factorization one for one.
                    let (g, w) = (got.counters, want.counters);
                    assert_eq!(
                        g.factor_cache_hits + g.lu_factorizations,
                        w.factor_cache_hits + w.lu_factorizations,
                        "{ctx}"
                    );
                    assert_eq!(g.solve_calls, w.solve_calls, "{ctx}");
                    assert_eq!(g.sparse_solves, w.sparse_solves, "{ctx}");
                    bare_factored += w.lu_factorizations;
                    memo_factored += g.lu_factorizations;
                }
                assert!(
                    memo_factored < bare_factored / 2,
                    "trial {trial}, {backend:?}: memo factored {memo_factored} of {bare_factored}"
                );
            }
        }
    }

    /// `StepAll` whose sources jump to `amps` amperes from `at` on — a
    /// lane that diverges mid-run while keeping its schedule.
    struct Runaway {
        inner: StepAll,
        at: f64,
        amps: f64,
    }
    impl Drive for Runaway {
        fn currents(&self, t: f64, out: &mut [f64]) {
            self.inner.currents(t, out);
            if t >= self.at {
                out.fill(self.amps);
            }
        }
        fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
            self.inner.edges(t0, t1, out);
        }
    }

    fn assert_same_result(got: &TransientResult, want: &TransientResult, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let stat_bits = |r: &TransientResult| -> Vec<[u64; 3]> {
            r.stats
                .iter()
                .map(|s| [s.min.to_bits(), s.max.to_bits(), s.mean.to_bits()])
                .collect()
        };
        assert_eq!(got.steps, want.steps, "{ctx}: steps");
        assert_eq!(stat_bits(got), stat_bits(want), "{ctx}: probe stats");
        assert_eq!(bits(&got.times), bits(&want.times), "{ctx}: times");
        assert_eq!(got.traces.len(), want.traces.len(), "{ctx}: probes");
        for (p, (g, w)) in got.traces.iter().zip(&want.traces).enumerate() {
            assert_eq!(bits(g), bits(w), "{ctx}: probe {p} trace");
        }
        let (g, w) = (got.counters, want.counters);
        assert_eq!(g.steps, w.steps, "{ctx}");
        assert_eq!(g.solve_calls, w.solve_calls, "{ctx}");
        assert_eq!(g.dc_solves, w.dc_solves, "{ctx}");
        assert_eq!(g.sparse_solves, w.sparse_solves, "{ctx}");
    }

    /// Every lane of a lockstep group is its solo run, bit for bit, on
    /// both backends and at every lane width: probe statistics, recorded
    /// times and traces, and step counts. A lane that diverges returns
    /// exactly its solo error while the other lanes finish unchanged.
    #[test]
    fn lanes_match_solo_runs_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x1a4e_5eed);
        for trial in 0..2 {
            let (nl, nodes) = random_rlc(&mut rng, 14 + 6 * trial);
            let mut probes: Vec<Probe> = nodes
                .iter()
                .step_by(3)
                .map(|&n| Probe::NodeVoltage(n))
                .collect();
            probes.push(Probe::SourceCurrent(0));
            let mut cfg = TransientConfig::new(1.2e-6);
            cfg.h_coarse = 20e-9;
            cfg.h_fine = 0.5e-9;
            cfg.settle = 0.1e-6;
            cfg.record_decimation = Some(3);
            let t_step = 0.3e-6 + 0.1e-6 * trial as f64;
            for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
                for k in 1..=MAX_LANES {
                    let drives: Vec<Runaway> = (0..k)
                        .map(|lane| Runaway {
                            inner: StepAll {
                                t_step,
                                amps: (0..3).map(|_| 1.0 + rng.gen::<f64>() * 20.0).collect(),
                            },
                            // Lane 1 blows past the divergence limit
                            // mid-run; every other lane stays healthy.
                            at: if lane == 1 { 0.7e-6 } else { f64::INFINITY },
                            amps: 1e15,
                        })
                        .collect();
                    let lanes: Vec<&dyn Drive> = drives.iter().map(|d| d as &dyn Drive).collect();
                    let mut group = TransientSolver::with_backend(&nl, backend).unwrap();
                    let got = group.run_group(&lanes, &probes, &cfg);
                    assert_eq!(got.len(), k);
                    for (lane, (drive, got)) in drives.iter().zip(&got).enumerate() {
                        let ctx = format!("trial {trial}, {backend:?}, K = {k}, lane {lane}");
                        let mut solo = TransientSolver::with_backend(&nl, backend).unwrap();
                        match (got, solo.run(drive, &probes, &cfg)) {
                            (Ok(got), Ok(want)) => {
                                assert_ne!(lane, 1, "{ctx}: lane 1 must diverge");
                                assert_same_result(got, &want, &ctx);
                                let c = got.counters;
                                let batched = if k > 1 { c.solve_calls } else { 0 };
                                assert_eq!(c.batched_solves, batched, "{ctx}");
                                if lane == 0 {
                                    assert_eq!(
                                        c.lu_factorizations, want.counters.lu_factorizations,
                                        "{ctx}"
                                    );
                                } else {
                                    assert_eq!(
                                        c.lu_factorizations, 0,
                                        "{ctx}: factors charged to lane 0"
                                    );
                                }
                            }
                            (
                                Err(PdnError::Diverged { t, node, value }),
                                Err(PdnError::Diverged {
                                    t: ts,
                                    node: ns,
                                    value: vs,
                                }),
                            ) => {
                                assert_eq!(lane, 1, "{ctx}: only lane 1 diverges");
                                assert_eq!(
                                    (t.to_bits(), *node, value.to_bits()),
                                    (ts.to_bits(), ns, vs.to_bits()),
                                    "{ctx}"
                                );
                            }
                            (got, want) => panic!("{ctx}: lanes {got:?} vs solo {want:?}"),
                        }
                    }
                }
            }
        }
    }

    /// A lane whose drive refines other windows than lane 0's cannot
    /// share the step loop: it fails, and lane 0 still runs.
    #[test]
    fn lane_with_another_schedule_is_refused() {
        let (nl, die) = simple_rc();
        let early = StepDrive {
            t0: 2e-6,
            amps: 1.0,
        };
        let late = StepDrive {
            t0: 5e-6,
            amps: 1.0,
        };
        let cfg = TransientConfig::new(10e-6);
        assert_ne!(
            StepSchedule::new(&early, &cfg),
            StepSchedule::new(&late, &cfg)
        );
        let same = StepDrive {
            t0: 2e-6,
            amps: 3.0,
        };
        assert_eq!(
            StepSchedule::new(&early, &cfg),
            StepSchedule::new(&same, &cfg)
        );
        let mut solver = TransientSolver::new(&nl).unwrap();
        let [a, b] = solver.run_lanes([&early, &late], &[Probe::NodeVoltage(die)], &cfg);
        assert!(a.is_ok());
        assert!(matches!(b, Err(PdnError::InvalidTimebase { .. })), "{b:?}");
    }
}
