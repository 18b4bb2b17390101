#![warn(missing_docs)]
// Library code must surface failures as typed errors, never panic via
// `unwrap` or `expect`. Test builds (`cfg(test)`) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # voltnoise-system
//!
//! The assembled six-core system of the `voltnoise` workspace: chip
//! instances with process variation, the TOD synchronization facilities,
//! the workload-mapping vocabulary, the noise experiment engine, and the
//! two optimization mechanisms the paper's §VII proposes.
//!
//! - [`chip`] — chip = PDN + per-core skitters + critical path, with
//!   seeded manufacturing variation (seed 0 reproduces the paper chip
//!   whose cores 2 and 4 are noisiest);
//! - [`tod`] — 62.5 ns-granularity TOD sync conditions and the
//!   misalignment-spreading helper of Fig. 10;
//! - [`workload`] — idle / medium / max workload classes, distributions
//!   and mapping enumeration (§V-D, Fig. 11);
//! - [`noise`] — the simulation kernel: stressmarks → PDN transient +
//!   coherent cycle-ripple model → per-core skitter %p2p readings;
//! - [`engine`] — content-keyed [`engine::SimJob`]s, the parallel
//!   scoped-thread executor and the sharded memo cache every experiment
//!   runs through;
//! - [`fault`] — the engine's failure vocabulary: captured
//!   [`fault::JobFault`]s (one attempt per job, each failure recorded
//!   once) and the deterministic [`fault::FaultInjector`] test harness;
//! - [`store`] — the append-only persistent result store
//!   ([`store::ResultStore`]) that lets an interrupted campaign resume
//!   without re-solving (attach via `Engine::with_store` or the
//!   `VOLTNOISE_STORE` environment variable);
//! - [`telemetry`] — engine observability: always-on solver work
//!   counters, wall-clock histograms gated by each engine's own trace
//!   flag (`Engine::with_trace`, defaulting to `VOLTNOISE_TRACE`), and
//!   the `VOLTNOISE_STATS_PATH` JSON export;
//! - [`testbed`] — ISA + EPI profile + searched sequences + chip, cached
//!   for experiments;
//! - [`mapping`] — noise-aware workload mapping policy (§VII-A);
//! - [`guardband`] — utilization-based dynamic guard-banding (§VII-B).
//!
//! # Examples
//!
//! ```no_run
//! use voltnoise_system::noise::{run_noise, CoreLoad, NoiseRunConfig};
//! use voltnoise_system::testbed::Testbed;
//!
//! let tb = Testbed::shared();
//! let sm = tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default()));
//! let loads: Vec<CoreLoad> = (0..6).map(|_| CoreLoad::Stressmark(sm.clone())).collect();
//! let outcome = run_noise(tb.chip(), &loads, &NoiseRunConfig::default()).unwrap();
//! println!("worst-case noise: {:.1} %p2p", outcome.max_pct_p2p());
//! ```

pub mod chip;
pub mod dither;
pub mod engine;
pub mod fault;
pub mod guardband;
pub mod mapping;
pub mod mitigation;
pub mod noise;
pub mod population;
pub mod rack;
pub mod scheduler;
pub mod site;
pub mod store;
pub mod telemetry;
pub mod testbed;
pub mod tod;
pub mod workload;

pub use chip::{Chip, ChipConfig};
pub use dither::{simulate_dither, AlignmentComparison};
pub use engine::{Engine, EngineStats, JobBatch, JobKey, SimJob};
pub use fault::{FaultInjector, FaultKind, InjectedFault, JobFault};
pub use guardband::{energy_saving, GuardbandController, GuardbandTable};
pub use mapping::{evaluate_all_mappings, naive_mapping, MappingEvaluation, NoiseAwareMapper};
pub use mitigation::{evaluate_governor, GlobalNoiseGovernor, GovernorConfig, GovernorEvaluation};
pub use noise::{
    run_drawer_step_instrumented, run_noise, run_noise_instrumented, CoreLoad, DrawerStepConfig,
    DrawerStepOutcome, NoiseOutcome, NoiseRunConfig,
};
pub use population::PopulationStudy;
pub use rack::RackScenario;
pub use scheduler::{
    replay, synthetic_trace, EngineNoiseModel, Job, NaivePolicy, NoiseAwarePolicy, NoiseTable,
    PlacementPolicy, ScheduleOutcome,
};
pub use site::{Site, SiteVec};
pub use store::ResultStore;
pub use telemetry::{export_stats_json, LogHistogram, PhaseTimes, SolverCounters};
pub use testbed::Testbed;
pub use tod::{spread_offsets, TodSync};
pub use workload::{all_distributions, mappings_of, Distribution, Placement, WorkloadKind};
