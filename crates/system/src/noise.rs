//! The noise experiment engine: run workloads on the chip, simulate the
//! PDN, and read the per-core skitters.
//!
//! Voltage seen by a core is modeled as two superposed components:
//!
//! 1. **Mid-frequency response** — the PDN transient solution to the
//!    stressmark current square waves (board/package/die dynamics,
//!    resonances, inter-core propagation). Simulated by
//!    [`voltnoise_pdn::transient`].
//! 2. **Cycle-microstructure ripple** — sub-nanosecond supply ripple from
//!    the per-cycle current structure of the running code, which
//!    superposes coherently across cores only under cycle-accurate TOD
//!    alignment (see [`crate::chip::HfNoiseParams`]). Computed
//!    analytically and added to the simulated extrema.

use crate::chip::{Chip, HfNoiseParams};
use crate::site::SiteVec;
use crate::telemetry::{PhaseTimes, SolverCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voltnoise_measure::power::{PowerMeter, PowerReading};
use voltnoise_measure::scope::ScopeCapture;
use voltnoise_measure::skitter::{Skitter, SkitterReading};
use voltnoise_pdn::rom::{solve_step_rom, RomStepProblem};
use voltnoise_pdn::topology::{core_domain, DrawerParams, Pdn, NUM_CORES};
use voltnoise_pdn::transient::{
    Drive, Probe, StepSchedule, TransientConfig, TransientResult, TransientSolver,
};
use voltnoise_pdn::waveform::{CoreWaveform, MultiCoreDrive, StressWaveform, WaveMode};
use voltnoise_pdn::{PdnError, SolveSpec, SolverBackend};
use voltnoise_stressmark::CompiledStressmark;

/// Deterministic per-core period skew (ppm) of free-running stressmarks:
/// unsynchronized copies of the same loop drift slowly relative to each
/// other on real machines.
const CORE_SKEW_PPM: [f64; NUM_CORES] = [35.0, -28.0, 55.0, -48.0, 18.0, -12.0];

/// Rise/fall time of a core's current transition: roughly the pipeline
/// fill/drain time.
const EDGE_RISE_S: f64 = 2e-9;

/// Cycle-alignment tolerance for coherent superposition: one core clock
/// cycle at 5.5 GHz.
const COHERENCE_WINDOW_S: f64 = 0.2e-9;

/// Pipeline power-state transition time: the serializing low-power
/// sequence needs the pipeline to drain and refill (~tens of cycles).
/// Stimulus phases shorter than this cannot develop the full ΔI —
/// "the stimulus frequency is too high to generate ΔI events" (paper
/// Fig. 12 at 100 MHz).
const TRANSITION_TIME_S: f64 = 10e-9;

/// ΔI attenuation for ultra-fast stimulus: ≈1 below ~15 MHz, rolling off
/// as the phase duration approaches the pipeline transition time.
fn transition_attenuation(sm: &CompiledStressmark) -> f64 {
    let period = 1.0 / sm.spec.stim_freq_hz;
    let half = period * sm.spec.duty.min(1.0 - sm.spec.duty);
    half * half / (half * half + TRANSITION_TIME_S * TRANSITION_TIME_S)
}

/// True when a nominally synchronized stressmark is *effectively*
/// unaligned: when one ΔI event takes longer than the synchronization
/// interval, the copies exit their spin loops at different interval
/// boundaries (paper footnote 6 on the 1 Hz point of Fig. 12).
fn sync_is_effective(sm: &CompiledStressmark) -> bool {
    match &sm.spec.sync {
        Some(sync) => 1.0 / sm.spec.stim_freq_hz < sync.interval_s,
        None => false,
    }
}

/// The workload running on one core.
#[derive(Debug, Clone)]
pub enum CoreLoad {
    /// Core idles at its static current.
    Idle,
    /// Core runs a compiled dI/dt stressmark (synchronized when its spec
    /// carries a [`voltnoise_stressmark::SyncSpec`], free-running
    /// otherwise).
    Stressmark(CompiledStressmark),
}

impl CoreLoad {
    /// ΔI of the load, amperes (zero when idle).
    pub fn delta_i(&self) -> f64 {
        match self {
            CoreLoad::Idle => 0.0,
            CoreLoad::Stressmark(sm) => sm.delta_i(),
        }
    }
}

/// Per-run options of the noise engine.
#[derive(Debug, Clone)]
pub struct NoiseRunConfig {
    /// Simulated window; `None` sizes it from the stimulus periods.
    pub window_s: Option<f64>,
    /// Record per-core oscilloscope traces.
    pub record_traces: bool,
    /// Seed of the random free-run phases.
    pub seed: u64,
    /// Per-job step budget: the transient solve fails with
    /// [`PdnError::BudgetExceeded`] when it would need more than this
    /// many accepted steps. Part of the job's content key — a budgeted
    /// job and an unbudgeted one are different experiments. `None`
    /// (default) disables the budget.
    pub max_steps: Option<usize>,
    /// Cooperative cancellation token polled by the solver between
    /// accepted steps. *Not* part of the content key: an un-cancelled
    /// token never changes results, and a cancelled run produces no
    /// result at all.
    pub cancel: Option<voltnoise_pdn::CancelToken>,
    /// Solve-backend specification. The `backend` field selects the
    /// transient factorization backend; the chip-scale path ignores any
    /// `rom` request (the reduced-order macromodel is a drawer-scale
    /// tool — see [`DrawerStepConfig::solve`]) but the field is still
    /// part of the job's content key, so a spec change never aliases a
    /// cached result.
    pub solve: SolveSpec,
}

impl Default for NoiseRunConfig {
    fn default() -> Self {
        NoiseRunConfig {
            window_s: None,
            record_traces: false,
            seed: 1,
            max_steps: None,
            cancel: None,
            solve: SolveSpec::full(),
        }
    }
}

/// Outcome of one noise run.
///
/// Serializable so that determinism can be checked end to end: the
/// engine's parallel-equals-serial invariant compares JSON renderings of
/// whole outcomes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NoiseOutcome {
    /// Per-site sticky skitter readings (one per site, ordinal order).
    pub readings: SiteVec<SkitterReading>,
    /// Per-site %p2p noise (the paper's headline metric).
    pub pct_p2p: SiteVec<f64>,
    /// Per-site minimum effective supply voltage over the run.
    pub v_min: SiteVec<f64>,
    /// Per-site maximum effective supply voltage over the run.
    pub v_max: SiteVec<f64>,
    /// Input-rail power reading of the whole scenario (chip or rack).
    pub chip_power: PowerReading,
    /// Per-site voltage traces when requested: one channel per site
    /// (ordinal order) on the solver's one timebase.
    pub traces: Option<ScopeCapture>,
    /// Transient solver steps taken (cost accounting).
    pub steps: usize,
}

impl NoiseOutcome {
    /// First non-finite numeric field, as `(index, value)`: indices
    /// `0..num_sites` report the site whose `pct_p2p`/`v_min`/`v_max`
    /// went bad, `num_sites` reports the rail power reading. Returns
    /// `None` for a healthy outcome.
    ///
    /// The engine uses this as its last line of defense: an outcome
    /// failing the check is converted into [`PdnError::Diverged`] and is
    /// never cached, so one bad solve cannot contaminate memoized
    /// campaigns.
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        for i in 0..self.pct_p2p.len() {
            for v in [self.pct_p2p[i], self.v_min[i], self.v_max[i]] {
                if !v.is_finite() {
                    return Some((i, v));
                }
            }
        }
        if !self.chip_power.watts().is_finite() {
            return Some((self.pct_p2p.len(), self.chip_power.watts()));
        }
        None
    }

    /// Number of sites this outcome covers ([`NUM_CORES`] for chip-scale
    /// runs).
    pub fn num_sites(&self) -> usize {
        self.pct_p2p.len()
    }

    /// Highest per-site noise and the site ordinal that saw it.
    ///
    /// # Panics
    ///
    /// Panics on an outcome with zero sites (never produced by the
    /// kernel, which rejects empty load sets).
    pub fn worst(&self) -> (usize, f64) {
        // Manual fold (ties keep the later site, like `max_by` did).
        let mut worst = (0, self.pct_p2p[0]);
        for (i, &p) in self.pct_p2p.iter().enumerate().skip(1) {
            if p.total_cmp(&worst.1).is_ge() {
                worst = (i, p);
            }
        }
        worst
    }

    /// Maximum %p2p across sites.
    pub fn max_pct_p2p(&self) -> f64 {
        self.worst().1
    }
}

fn waveform_of(
    load: &CoreLoad,
    skew_ppm: f64,
    idle_current: f64,
    rng: &mut SmallRng,
) -> CoreWaveform {
    match load {
        CoreLoad::Idle => CoreWaveform::Constant(idle_current),
        CoreLoad::Stressmark(sm) => {
            let period = 1.0 / sm.spec.stim_freq_hz;
            let mode = match &sm.spec.sync {
                Some(sync) if sync_is_effective(sm) => WaveMode::Synced {
                    interval: sync.interval_s,
                    offset: sync.offset_seconds(),
                    events: sync.events,
                },
                // Sync whose event period exceeds the interval degenerates
                // to misaligned free-running copies (paper footnote 6).
                _ => WaveMode::FreeRun {
                    phase: rng.gen::<f64>() * period,
                    period_skew_ppm: skew_ppm,
                },
            };
            // Phases too short for the pipeline to change power state
            // pinch the realized ΔI toward the mean.
            let a = transition_attenuation(sm);
            let mid = (sm.i_high_a + sm.i_low_a) / 2.0;
            let half_swing = (sm.i_high_a - sm.i_low_a) / 2.0 * a;
            CoreWaveform::Stress(StressWaveform {
                i_low: mid - half_swing,
                i_high: mid + half_swing,
                i_idle: sm.i_idle_a,
                stim_period: period,
                duty: sm.spec.duty,
                rise_time: EDGE_RISE_S,
                mode,
            })
        }
    }
}

/// Cycle-coherence key of a load: two cores superpose coherently when
/// both run TOD-synchronized stressmarks with the same stimulus frequency
/// and offsets equal to within a core cycle.
fn coherence_key(load: &CoreLoad) -> Option<(u64, u64)> {
    match load {
        CoreLoad::Stressmark(sm) if sync_is_effective(sm) => sm.spec.sync.as_ref().map(|sync| {
            let slot = (sync.offset_seconds() / COHERENCE_WINDOW_S).round() as u64;
            let freq_key = sm.spec.stim_freq_hz.to_bits();
            (slot, freq_key)
        }),
        _ => None,
    }
}

/// Per-site cycle-microstructure ripple amplitude (volts).
///
/// The coupled impedances (`z_local`/`z_shared`, the domain weights) are
/// properties of one chip's on-die network, so coupling is chip-local:
/// sites on different chips of a rack never exchange HF ripple (the
/// shared board path is far too inductive at cycle frequencies). For a
/// single chip (`NUM_CORES == loads.len()`) this reduces to exactly the
/// original all-pairs loop, preserving chip figures bit for bit.
fn hf_amplitudes(hf: &HfNoiseParams, loads: &[CoreLoad]) -> SiteVec<f64> {
    let ripple: Vec<f64> = loads
        .iter()
        .map(|l| {
            let atten = match l {
                CoreLoad::Stressmark(sm) => transition_attenuation(sm),
                CoreLoad::Idle => 1.0,
            };
            hf.ripple_fraction * l.delta_i() * atten
        })
        .collect();
    let keys: Vec<Option<(u64, u64)>> = loads.iter().map(coherence_key).collect();
    SiteVec::from_fn(loads.len(), |i| {
        let chip_base = (i / NUM_CORES) * NUM_CORES;
        let mut coherent = 0.0f64;
        let mut incoherent_sq = 0.0f64;
        for j in chip_base..(chip_base + NUM_CORES).min(loads.len()) {
            if j == i || ripple[j] == 0.0 {
                continue;
            }
            let w = if core_domain(i - chip_base) == core_domain(j - chip_base) {
                hf.same_domain_coupling
            } else {
                hf.cross_domain_coupling
            };
            let contribution = w * ripple[j];
            let aligned = match (&keys[i], &keys[j]) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if aligned {
                coherent += contribution;
            } else {
                incoherent_sq += contribution * contribution;
            }
        }
        hf.z_local_ohm * ripple[i] + hf.z_shared_ohm * (coherent + incoherent_sq.sqrt())
    })
}

/// Sizes the transient window and steps from the active stimulus periods.
fn transient_config(loads: &[CoreLoad], cfg: &NoiseRunConfig) -> TransientConfig {
    let periods: Vec<f64> = loads
        .iter()
        .filter_map(|l| match l {
            CoreLoad::Stressmark(sm) => Some(1.0 / sm.spec.stim_freq_hz),
            CoreLoad::Idle => None,
        })
        .collect();
    let t_max = periods.iter().copied().fold(0.0f64, f64::max);
    let t_min = periods.iter().copied().fold(f64::INFINITY, f64::min);
    let window = cfg
        .window_s
        .unwrap_or_else(|| (6.0 * t_max).clamp(80e-6, 4e-3));
    let any_synced = loads
        .iter()
        .any(|l| matches!(l, CoreLoad::Stressmark(sm) if sm.spec.sync.is_some()));
    let mut tc = TransientConfig::new(window);
    tc.h_coarse = if t_min.is_finite() {
        (t_min / 200.0).clamp(4e-9, 40e-9)
    } else {
        40e-9
    };
    tc.h_fine = 0.5e-9;
    tc.refine_pre = 2e-9;
    tc.refine_post = 25e-9;
    // Synchronized bursts fire right after t = 0; the burst and its first
    // droop are the measurement, so nothing may be skipped. Free-running
    // workloads start from a mid-pattern DC point instead, where a short
    // settle hides the artificial initial condition.
    tc.settle = if any_synced {
        0.0
    } else {
        (2.0 * t_max).min(window * 0.25)
    };
    tc.record_decimation = cfg
        .record_traces
        .then(|| 1.max((window / tc.h_coarse) as usize / 4000));
    tc.max_steps = cfg.max_steps;
    tc.cancel = cfg.cancel.clone();
    tc
}

/// Solver telemetry of one noise run: exact work counters (always) plus
/// wall-clock phase times (only when tracing is enabled — all zeros
/// otherwise).
///
/// Deliberately a separate value from [`NoiseOutcome`]: outcomes are
/// content (cached, stored, compared bitwise), telemetry is observation.
/// Keeping them apart is what lets a cached result stay byte-identical
/// whether or not anyone measured the solve that produced it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveTelemetry {
    /// Deterministic solver work counters.
    pub counters: SolverCounters,
    /// Wall-clock per-phase times (traced runs only).
    pub phase: PhaseTimes,
}

/// A scenario's electrical view, as the noise kernel consumes it: the
/// PDN to solve (whose core nodes, in site order, are the probes), one
/// skitter per site, the HF ripple parameters and the rail voltage.
/// Built from a [`Chip`] (the 1×1×[`NUM_CORES`] case) or from a
/// [`crate::rack::RackScenario`]; the kernel itself is topology-blind.
pub(crate) struct ScenarioView<'a> {
    /// PDN of the whole scenario.
    pub pdn: &'a Pdn,
    /// Whether solvers share the PDN's factorization memo. A rack's
    /// jobs do, so they factor each of its systems once; a chip's
    /// solves factor afresh.
    pub memoized: bool,
    /// Per-site skitter, site-ordinal order.
    pub skitters: Vec<&'a Skitter>,
    /// Cycle-microstructure ripple parameters (chip-local coupling).
    pub hf: &'a HfNoiseParams,
    /// Nominal rail voltage (power accounting).
    pub v_nom: f64,
    /// Static current of an idle core, amperes.
    pub idle_current: f64,
}

impl<'a> ScenarioView<'a> {
    /// The chip-scale view: every pre-rack experiment reduces to this.
    pub(crate) fn of_chip(chip: &'a Chip) -> ScenarioView<'a> {
        ScenarioView {
            pdn: chip.pdn(),
            memoized: false,
            skitters: (0..NUM_CORES).map(|i| chip.skitter(i)).collect(),
            hf: &chip.config().hf,
            v_nom: chip.v_nom(),
            idle_current: chip.config().core.static_power_w / chip.config().core.v_nom,
        }
    }

    fn solver(&self, backend: SolverBackend) -> Result<TransientSolver, PdnError> {
        if self.memoized {
            self.pdn.solver(backend)
        } else {
            TransientSolver::with_backend(self.pdn.netlist(), backend)
        }
    }
}

/// Runs one noise experiment: simulate the PDN under the given per-core
/// loads and return skitter readings, extrema, chip power and optional
/// traces. `loads` must carry exactly [`NUM_CORES`] entries (the chip's
/// site count).
///
/// # Errors
///
/// Returns [`PdnError`] when the PDN solve fails (should not happen for
/// chips built by [`Chip::new`]) or [`PdnError::DimensionMismatch`] when
/// the load count does not match the chip's site count.
pub fn run_noise(
    chip: &Chip,
    loads: &[CoreLoad],
    cfg: &NoiseRunConfig,
) -> Result<NoiseOutcome, PdnError> {
    run_noise_instrumented(chip, loads, cfg, false).map(|(outcome, _)| outcome)
}

/// [`run_noise`] plus the solve's telemetry.
///
/// Counters are collected unconditionally (they are integer tallies the
/// solver maintains anyway); phase wall-clock timing is collected only
/// when `trace` is set (the engine passes its own trace flag). The
/// outcome is identical to what [`run_noise`] returns — telemetry rides
/// alongside, never inside.
///
/// # Errors
///
/// Returns [`PdnError`] when the PDN solve fails.
pub fn run_noise_instrumented(
    chip: &Chip,
    loads: &[CoreLoad],
    cfg: &NoiseRunConfig,
    trace: bool,
) -> Result<(NoiseOutcome, SolveTelemetry), PdnError> {
    run_view_noise_instrumented(&ScenarioView::of_chip(chip), loads, cfg, trace)
}

/// The topology-blind noise kernel: one transient solve of `view`'s
/// netlist under per-site `loads`, HF ripple superposed per chip block,
/// one skitter reading per site — the one-lane case of
/// [`run_view_noise_lanes`].
///
/// Everything byte-identity-critical lives here once, for every
/// topology: the RNG is consumed in site-ordinal order, probes are the
/// site core nodes followed by the rail source current, and the per-site
/// arithmetic is performed in ordinal order — so chip-scale runs through
/// this kernel are bit-for-bit the runs the pre-rack code produced.
pub(crate) fn run_view_noise_instrumented(
    view: &ScenarioView<'_>,
    loads: &[CoreLoad],
    cfg: &NoiseRunConfig,
    trace: bool,
) -> Result<(NoiseOutcome, SolveTelemetry), PdnError> {
    let run = prepare_run(view, loads, cfg, trace)?;
    let job = LaneJob {
        loads,
        cfg,
        run: &run,
    };
    let mut results = run_view_noise_lanes(view, &[job]);
    results.pop().unwrap_or(Err(PdnError::DimensionMismatch {
        expected: 1,
        actual: 0,
    }))
}

/// One noise job made ready to solve: its drive (the per-site
/// waveforms, free-run phases drawn from the job's seed) and its
/// transient configuration.
pub(crate) struct PreparedRun {
    drive: MultiCoreDrive,
    tc: TransientConfig,
    backend: SolverBackend,
}

impl PreparedRun {
    /// What the jobs of one lane group must share besides their
    /// scenario: the solver backend and the step schedule. Synchronized
    /// jobs of one scenario and window share it; free-running jobs draw
    /// random phases, so each one forms a group of its own.
    pub(crate) fn lane_key(&self) -> (SolverBackend, StepSchedule) {
        (self.backend, StepSchedule::new(&self.drive, &self.tc))
    }
}

/// Builds a job's waveforms and transient configuration; `trace` sets
/// phase timing.
///
/// # Errors
///
/// [`PdnError::DimensionMismatch`] when the load count does not match
/// the view's site count.
pub(crate) fn prepare_run(
    view: &ScenarioView<'_>,
    loads: &[CoreLoad],
    cfg: &NoiseRunConfig,
    trace: bool,
) -> Result<PreparedRun, PdnError> {
    let n = view.pdn.core_nodes().len();
    if loads.len() != n {
        return Err(PdnError::DimensionMismatch {
            expected: n,
            actual: loads.len(),
        });
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let waves: Vec<CoreWaveform> = loads
        .iter()
        .enumerate()
        .map(|(i, l)| {
            // Free-run period skew repeats per chip: a site's drift is a
            // property of its in-chip core slot.
            let skew = CORE_SKEW_PPM[i % NUM_CORES];
            waveform_of(l, skew, view.idle_current, &mut rng)
        })
        .collect();
    let mut tc = transient_config(loads, cfg);
    tc.collect_phase_times = trace;
    Ok(PreparedRun {
        drive: MultiCoreDrive::new(waves),
        tc,
        backend: cfg.solve.backend,
    })
}

/// One member of a lane group: a job's loads and run configuration and
/// the run prepared from them.
pub(crate) struct LaneJob<'a> {
    pub loads: &'a [CoreLoad],
    pub cfg: &'a NoiseRunConfig,
    pub run: &'a PreparedRun,
}

/// Solves a group of jobs on `view` as the lanes of one transient run
/// ([`TransientSolver::run_group`]); every job must carry the same
/// [`PreparedRun::lane_key`]. `results[i]` settles `jobs[i]` and is
/// bitwise what [`run_view_noise_instrumented`] returns for it alone.
pub(crate) fn run_view_noise_lanes(
    view: &ScenarioView<'_>,
    jobs: &[LaneJob<'_>],
) -> Vec<Result<(NoiseOutcome, SolveTelemetry), PdnError>> {
    let Some(first) = jobs.first() else {
        return Vec::new();
    };
    let mut solver = match view.solver(first.run.backend) {
        Ok(solver) => solver,
        Err(e) => return vec![Err(e); jobs.len()],
    };
    let mut probes: Vec<Probe> = (view.pdn.core_nodes().iter())
        .map(|&node| Probe::NodeVoltage(node))
        .collect();
    probes.push(Probe::SourceCurrent(0));
    let drives: Vec<&dyn Drive> = jobs.iter().map(|j| &j.run.drive as &dyn Drive).collect();
    let results = solver.run_group(&drives, &probes, &first.run.tc);
    (results.into_iter().zip(jobs))
        .map(|(result, job)| result.and_then(|r| read_out(view, job, r)))
        .collect()
}

/// Turns one lane's transient result into the job's outcome: HF ripple,
/// skitter readings, rail power and optional scope traces.
fn read_out(
    view: &ScenarioView<'_>,
    job: &LaneJob<'_>,
    mut result: TransientResult,
) -> Result<(NoiseOutcome, SolveTelemetry), PdnError> {
    let (loads, cfg) = (job.loads, job.cfg);
    let n = view.pdn.core_nodes().len();
    let hf = hf_amplitudes(view.hf, loads);
    let mut readings = SiteVec::from_elem(
        SkitterReading {
            min_tap: 0,
            max_tap: 0,
            taps: 129,
            samples: 0,
        },
        n,
    );
    let mut pct = SiteVec::from_elem(0.0, n);
    let mut v_min = SiteVec::from_elem(0.0, n);
    let mut v_max = SiteVec::from_elem(0.0, n);
    let asym = view.hf.droop_asymmetry;
    for i in 0..n {
        let st = &result.stats[i];
        v_min[i] = st.min - hf[i] * asym;
        v_max[i] = st.max + hf[i] * (1.0 - asym);
        readings[i] = view.skitters[i].measure_extremes(v_min[i], v_max[i]);
        pct[i] = readings[i].pct_p2p();
    }

    let rail_current = result.stats[n].mean.abs();
    let chip_power = PowerMeter::new().read(view.v_nom, rail_current);

    let traces = if cfg.record_traces {
        // The site probes come first and share the solver's timebase;
        // the rail-current trace after them is not a scope channel.
        let mut channels = std::mem::take(&mut result.traces);
        channels.truncate(n);
        // The solver records strictly increasing times, so this only
        // fails on a solver bug — surfaced as a typed error rather than
        // a panic so a campaign records it like any other fault.
        let capture =
            ScopeCapture::new(std::mem::take(&mut result.times), channels).map_err(|e| {
                PdnError::InvalidTimebase {
                    reason: format!("recorded trace rejected: {e}"),
                }
            })?;
        Some(capture)
    } else {
        None
    };

    let outcome = NoiseOutcome {
        readings,
        pct_p2p: pct,
        v_min,
        v_max,
        chip_power,
        traces,
        steps: result.steps,
    };
    // Finite-output guard: the transient solver already aborts on
    // divergence, but the analytic HF ripple model and the skitter
    // arithmetic run outside it. Nothing non-finite may escape the
    // kernel — downstream statistics silently absorb NaN otherwise.
    if let Some((node, value)) = outcome.first_non_finite() {
        return Err(PdnError::Diverged {
            t: job.run.tc.t_end,
            node,
            value,
        });
    }
    let telemetry = SolveTelemetry {
        counters: result.counters,
        phase: result.phase_times,
    };
    Ok((outcome, telemetry))
}

/// Content-keyed configuration of one drawer-scale step experiment: a ΔI
/// step on one core of one chip of a multi-chip drawer, with every other
/// core idling.
///
/// Every field is part of the experiment's content — the engine's drawer
/// memo keys on the canonical JSON rendering of this struct, so two
/// configs that serialize identically share one solve.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DrawerStepConfig {
    /// Drawer topology parameters.
    pub drawer: DrawerParams,
    /// Chip receiving the step.
    pub source_chip: usize,
    /// Core (on `source_chip`) receiving the step.
    pub source_core: usize,
    /// Step amplitude, amperes.
    pub step_amps: f64,
    /// Static current every core idles at, amperes.
    pub idle_amps: f64,
    /// Step time, seconds after the window start.
    pub t0_s: f64,
    /// Simulated window, seconds.
    pub window_s: f64,
    /// Solve-backend specification. `rom: Some(..)` routes the solve
    /// through the reduced-order macromodel
    /// ([`voltnoise_pdn::rom::solve_step_rom`]) with the given error
    /// budget; the default full-order spec is the byte-identity
    /// baseline.
    pub solve: SolveSpec,
}

/// Hand-written deserialization so `solve` defaults when absent —
/// drawer configurations serialized before the solve spec existed must
/// keep parsing (the vendored serde derive has no `#[serde(default)]`).
impl serde::Deserialize for DrawerStepConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for DrawerStepConfig"))?;
        let solve = match obj.iter().find(|(k, _)| k == "solve") {
            Some((_, v)) => serde::Deserialize::from_value(v)?,
            None => SolveSpec::full(),
        };
        Ok(DrawerStepConfig {
            drawer: serde::field(obj, "drawer")?,
            source_chip: serde::field(obj, "source_chip")?,
            source_core: serde::field(obj, "source_core")?,
            step_amps: serde::field(obj, "step_amps")?,
            idle_amps: serde::field(obj, "idle_amps")?,
            t0_s: serde::field(obj, "t0_s")?,
            window_s: serde::field(obj, "window_s")?,
            solve,
        })
    }
}

impl Default for DrawerStepConfig {
    fn default() -> Self {
        DrawerStepConfig {
            drawer: DrawerParams::default(),
            source_chip: 0,
            source_core: 0,
            step_amps: 12.0,
            idle_amps: 2.0,
            t0_s: 0.5e-6,
            window_s: 4e-6,
            solve: SolveSpec::full(),
        }
    }
}

/// Outcome of one drawer step experiment: how a ΔI event on one chip
/// propagates to every chip sharing the board PDN.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DrawerStepOutcome {
    /// Chip that received the step.
    pub source_chip: usize,
    /// Per-chip package-node droop depth, volts below the pre-step level.
    pub droop_depth_v: Vec<f64>,
    /// Per-chip time (seconds after the step) at which the package node
    /// first crossed 25 % of its final droop — the disturbance's arrival.
    pub arrival_s: Vec<f64>,
    /// Droop depth at the stepped core itself.
    pub source_core_droop_v: f64,
    /// MNA unknowns of the drawer system (records the problem scale).
    pub system_size: usize,
    /// Accepted transient steps (cost accounting).
    pub steps: usize,
    /// Reduced-order states the solve used (zero on the full-order
    /// path).
    pub rom_states: usize,
    /// Calibrated worst-case ROM probe error, volts (zero on the
    /// full-order path).
    pub rom_max_error_v: f64,
}

/// Step drive over a drawer's flat drive slots: slot `s` steps by
/// `amps` at `t0`, every slot carries `idle` before and besides.
struct DrawerStepDrive {
    slot: usize,
    t0: f64,
    amps: f64,
    idle: f64,
}

impl Drive for DrawerStepDrive {
    fn currents(&self, t: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.idle
                + if i == self.slot && t >= self.t0 {
                    self.amps
                } else {
                    0.0
                };
        }
    }
    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        if self.t0 >= t0 && self.t0 < t1 {
            out.push(self.t0);
        }
    }
}

/// Runs one drawer step experiment and returns the outcome plus solver
/// telemetry. A default-sized drawer (6 chips, 200+ unknowns) sits past
/// [`voltnoise_pdn::SPARSE_THRESHOLD`], so this is the workspace's
/// standing exercise of the sparse solver path. Phase wall-clock
/// timing is collected only when `trace` is set.
///
/// # Errors
///
/// Returns [`PdnError`] on invalid parameters (chip/core out of range,
/// non-positive window, bad electrical values) or a failed solve.
pub fn run_drawer_step_instrumented(
    cfg: &DrawerStepConfig,
    trace: bool,
) -> Result<(DrawerStepOutcome, SolveTelemetry), PdnError> {
    if cfg.source_chip >= cfg.drawer.chips {
        return Err(PdnError::UnknownNode {
            node: cfg.source_chip,
        });
    }
    if cfg.source_core >= NUM_CORES {
        return Err(PdnError::UnknownNode {
            node: cfg.source_core,
        });
    }
    let drawer = Pdn::drawer(&cfg.drawer)?;
    let source_site = cfg.source_chip * NUM_CORES + cfg.source_core;
    let drive = DrawerStepDrive {
        slot: drawer.core_source(source_site).index(),
        t0: cfg.t0_s,
        amps: cfg.step_amps,
        idle: cfg.idle_amps,
    };
    // Probes: each chip's package node, then the stepped core.
    let mut probes: Vec<Probe> = (0..drawer.num_chips())
        .map(|c| Probe::NodeVoltage(drawer.package_node(c)))
        .collect();
    probes.push(Probe::NodeVoltage(drawer.core_node(source_site)));
    // One solve, two routes: the full-order transient (the byte-identity
    // baseline) or the reduced-order macromodel when the spec carries a
    // ROM request with an error budget.
    let (times, traces, steps, rom_states, rom_max_error_v, telemetry) = match cfg.solve.rom {
        Some(rom_spec) => {
            let problem = RomStepProblem {
                netlist: drawer.netlist(),
                slot: drive.slot,
                idle_amps: cfg.idle_amps,
                delta_amps: cfg.step_amps,
                t0_s: cfg.t0_s,
                window_s: cfg.window_s,
                probes: &probes,
                h_coarse: 2e-9,
                h_fine: 0.5e-9,
            };
            let out = solve_step_rom(&problem, &rom_spec)?;
            let telemetry = SolveTelemetry {
                counters: out.counters,
                phase: PhaseTimes::default(),
            };
            (
                out.times,
                out.traces,
                out.steps,
                out.states,
                out.max_error_v,
                telemetry,
            )
        }
        None => {
            let mut tc = TransientConfig::new(cfg.window_s);
            tc.h_coarse = 2e-9;
            tc.h_fine = 0.5e-9;
            tc.settle = 0.0;
            tc.record_decimation = Some(1);
            tc.collect_phase_times = trace;
            let mut solver = TransientSolver::with_backend(drawer.netlist(), cfg.solve.backend)?;
            let res = solver.run(&drive, &probes, &tc)?;
            let telemetry = SolveTelemetry {
                counters: res.counters,
                phase: res.phase_times,
            };
            (res.times, res.traces, res.steps, 0, 0.0, telemetry)
        }
    };

    let droop_of = |trace: &[f64]| -> (f64, f64) {
        let pre_idx = times.partition_point(|&t| t < cfg.t0_s).saturating_sub(1);
        let v_pre = trace[pre_idx];
        let mut depth = 0.0f64;
        for (t, v) in times.iter().zip(trace) {
            if *t >= cfg.t0_s {
                depth = depth.max(v_pre - v);
            }
        }
        let threshold = v_pre - 0.25 * depth;
        let arrival = times
            .iter()
            .zip(trace)
            .find(|(t, v)| **t >= cfg.t0_s && **v <= threshold)
            .map(|(t, _)| t - cfg.t0_s)
            .unwrap_or(f64::INFINITY);
        (depth, arrival)
    };
    let mut droop_depth_v = Vec::with_capacity(drawer.num_chips());
    let mut arrival_s = Vec::with_capacity(drawer.num_chips());
    for trace in traces.iter().take(drawer.num_chips()) {
        let (d, a) = droop_of(trace);
        droop_depth_v.push(d);
        arrival_s.push(a);
    }
    let (source_core_droop_v, _) = droop_of(&traces[drawer.num_chips()]);

    let outcome = DrawerStepOutcome {
        source_chip: cfg.source_chip,
        droop_depth_v,
        arrival_s,
        source_core_droop_v,
        system_size: drawer.netlist().system_size(),
        steps,
        rom_states,
        rom_max_error_v,
    };
    Ok((outcome, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;

    fn loads_all(load: &CoreLoad) -> [CoreLoad; NUM_CORES] {
        std::array::from_fn(|_| load.clone())
    }

    #[test]
    fn idle_chip_reads_baseline_noise() {
        let tb = Testbed::fast();
        let out = run_noise(
            tb.chip(),
            &loads_all(&CoreLoad::Idle),
            &NoiseRunConfig {
                window_s: Some(30e-6),
                ..NoiseRunConfig::default()
            },
        )
        .unwrap();
        for p in out.pct_p2p {
            assert!(p < 6.0, "idle noise {p} too high");
        }
        // Idle chip draws roughly 6 cores of static power.
        let expected = 6.0 * tb.chip().config().core.static_power_w;
        assert!((out.chip_power.watts() - expected).abs() / expected < 0.15);
    }

    #[test]
    fn synced_stressmarks_beat_unsynced() {
        let tb = Testbed::fast();
        let unsync = loads_all(&CoreLoad::Stressmark(tb.max_stressmark(2.5e6, None)));
        let synced = loads_all(&CoreLoad::Stressmark(
            tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default())),
        ));
        let cfg = NoiseRunConfig {
            window_s: Some(60e-6),
            ..NoiseRunConfig::default()
        };
        let n_unsync = run_noise(tb.chip(), &unsync, &cfg).unwrap();
        let n_sync = run_noise(tb.chip(), &synced, &cfg).unwrap();
        assert!(
            n_sync.max_pct_p2p() > n_unsync.max_pct_p2p() + 8.0,
            "sync {} vs unsync {}",
            n_sync.max_pct_p2p(),
            n_unsync.max_pct_p2p()
        );
    }

    #[test]
    fn more_active_cores_more_noise() {
        let tb = Testbed::fast();
        let sm = tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default()));
        let cfg = NoiseRunConfig {
            window_s: Some(40e-6),
            ..NoiseRunConfig::default()
        };
        let mut one = loads_all(&CoreLoad::Idle);
        one[0] = CoreLoad::Stressmark(sm.clone());
        let all = loads_all(&CoreLoad::Stressmark(sm));
        let n1 = run_noise(tb.chip(), &one, &cfg).unwrap();
        let n6 = run_noise(tb.chip(), &all, &cfg).unwrap();
        assert!(n6.max_pct_p2p() > n1.max_pct_p2p() + 10.0);
    }

    #[test]
    fn traces_are_recorded_on_request() {
        let tb = Testbed::fast();
        let loads = loads_all(&CoreLoad::Stressmark(tb.max_stressmark(2.5e6, None)));
        let out = run_noise(
            tb.chip(),
            &loads,
            &NoiseRunConfig {
                window_s: Some(30e-6),
                record_traces: true,
                seed: 1,
                ..NoiseRunConfig::default()
            },
        )
        .unwrap();
        let capture = out.traces.unwrap();
        assert_eq!(capture.num_channels(), NUM_CORES);
        assert!(capture.times().len() > 100);
        assert!(capture.trace(0).unwrap().peak_to_peak() > 0.0);
    }

    #[test]
    fn drawer_step_propagates_down_the_spine() {
        let cfg = DrawerStepConfig {
            window_s: 2e-6,
            ..DrawerStepConfig::default()
        };
        let (out, tel) = run_drawer_step_instrumented(&cfg, false).unwrap();
        assert_eq!(out.droop_depth_v.len(), cfg.drawer.chips);
        assert!(out.system_size > voltnoise_pdn::SPARSE_THRESHOLD);
        // The drawer exercises the sparse backend and reuses its
        // elimination order across refactorizations.
        assert!(tel.counters.sparse_solves > 0, "{:?}", tel.counters);
        assert!(tel.counters.pattern_reuses > 0, "{:?}", tel.counters);
        // The stepped core droops deeper than any package node, and the
        // source chip's package droops deepest of the packages.
        assert!(out.source_core_droop_v > out.droop_depth_v[0]);
        for c in 1..cfg.drawer.chips {
            assert!(
                out.droop_depth_v[0] > out.droop_depth_v[c],
                "chip {c}: source {:.6} vs remote {:.6}",
                out.droop_depth_v[0],
                out.droop_depth_v[c]
            );
            assert!(out.droop_depth_v[c] > 0.0, "chip {c} must see the event");
        }
        // The disturbance reaches farther chips no earlier.
        assert!(out.arrival_s[cfg.drawer.chips - 1] >= out.arrival_s[0]);
    }

    #[test]
    fn drawer_step_rom_tracks_full_solver_cheaply() {
        let full_cfg = DrawerStepConfig::default();
        let rom_cfg = DrawerStepConfig {
            solve: voltnoise_pdn::SolveSpec::reduced(voltnoise_pdn::RomSpec::default()),
            ..full_cfg.clone()
        };
        let (full, _) = run_drawer_step_instrumented(&full_cfg, false).unwrap();
        let (rom, rom_tel) = run_drawer_step_instrumented(&rom_cfg, false).unwrap();
        // The reduced path reports its order and calibrated error; the
        // full path reports zeros.
        assert_eq!(full.rom_states, 0);
        assert_eq!(full.rom_max_error_v, 0.0);
        assert!(rom.rom_states >= 1);
        assert!(rom.rom_max_error_v <= 1e-3, "{}", rom.rom_max_error_v);
        assert!(rom_tel.counters.rom_solves > 0);
        // Figures of merit agree within a few budgets (droop depth is a
        // difference of two probe samples, each within the budget over
        // the calibration window).
        assert!(
            (rom.source_core_droop_v - full.source_core_droop_v).abs() <= 3e-3,
            "rom {} vs full {}",
            rom.source_core_droop_v,
            full.source_core_droop_v
        );
        for c in 0..full_cfg.drawer.chips {
            assert!(
                (rom.droop_depth_v[c] - full.droop_depth_v[c]).abs() <= 3e-3,
                "chip {c}: rom {} vs full {}",
                rom.droop_depth_v[c],
                full.droop_depth_v[c]
            );
        }
        // And it is cheaper: far fewer time steps than the full run.
        assert!(
            rom.steps * 2 < full.steps,
            "rom {} vs full {} steps",
            rom.steps,
            full.steps
        );
    }

    #[test]
    fn drawer_config_without_solve_field_still_parses() {
        // A pre-solve-spec serialized config (no "solve" key) must keep
        // deserializing with the full-order default.
        let legacy = serde_json::to_string(&DrawerStepConfig::default())
            .unwrap()
            .replace(",\"solve\":{\"backend\":\"Auto\",\"rom\":null}", "");
        assert!(!legacy.contains("solve"), "{legacy}");
        let parsed: DrawerStepConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, DrawerStepConfig::default());
    }

    #[test]
    fn drawer_step_rejects_out_of_range_sources() {
        let bad_chip = DrawerStepConfig {
            source_chip: 6,
            ..DrawerStepConfig::default()
        };
        assert!(run_drawer_step_instrumented(&bad_chip, false).is_err());
        let bad_core = DrawerStepConfig {
            source_core: NUM_CORES,
            ..DrawerStepConfig::default()
        };
        assert!(run_drawer_step_instrumented(&bad_core, false).is_err());
    }

    #[test]
    fn misaligned_offsets_lose_coherence() {
        let tb = Testbed::fast();
        let mut sm0 =
            tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default()));
        let aligned = loads_all(&CoreLoad::Stressmark(sm0.clone()));
        // Give each core a distinct 62.5 ns offset slot.
        let mut misaligned = loads_all(&CoreLoad::Idle);
        for (i, slot) in misaligned.iter_mut().enumerate() {
            let mut sm = sm0.clone();
            if let Some(sync) = &mut sm.spec.sync {
                sync.offset_ticks = i as u32;
            }
            *slot = CoreLoad::Stressmark(sm);
        }
        let hf_aligned = hf_amplitudes(&tb.chip().config().hf, &aligned);
        let hf_mis = hf_amplitudes(&tb.chip().config().hf, &misaligned);
        for i in 0..NUM_CORES {
            assert!(
                hf_aligned[i] > hf_mis[i] * 1.3,
                "core {i}: aligned {} vs misaligned {}",
                hf_aligned[i],
                hf_mis[i]
            );
        }
        // Keep clippy quiet about the unused mutable original.
        if let Some(sync) = &mut sm0.spec.sync {
            sync.offset_ticks = 0;
        }
    }
}
