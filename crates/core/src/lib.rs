#![warn(missing_docs)]

//! # voltnoise
//!
//! A simulation-based reproduction of **"Voltage Noise in Multi-core
//! Processors: Empirical Characterization and Optimization
//! Opportunities"** (Bertran et al., MICRO 2014).
//!
//! The paper characterizes supply-voltage noise on a real IBM zEC12
//! mainframe processor using a systematic dI/dt **stressmark generation
//! methodology**, per-core **skitter** noise sensors, and **Vmin**
//! undervolting experiments. This workspace rebuilds each of those
//! pieces as a software substrate and reruns the paper's entire
//! evaluation on top of them:
//!
//! - [`pdn`] — lumped-RLC power-distribution-network simulation (MNA
//!   transient + AC), with a calibrated two-domain six-core chip model;
//! - [`uarch`] — a 1301-instruction z-like CISC core model with dispatch
//!   groups, OoO issue and a per-instruction energy model;
//! - [`measure`] — skitter macros, oscilloscope, power meter, and the
//!   Vmin/R-Unit failure harness;
//! - [`stressmark`] — the paper's contribution: EPI profiling, the
//!   9-candidate/531 441-combination sequence search, and fully
//!   parameterizable dI/dt stressmark construction;
//! - [`system`] — the assembled chip + TOD synchronization + noise
//!   experiment engine + the §VII optimization mechanisms;
//! - [`analysis`] — one driver per paper table/figure.
//!
//! # Quickstart
//!
//! ```no_run
//! use voltnoise::prelude::*;
//!
//! // Build the platform: profile the ISA, search the sequences, wire the chip.
//! let tb = Testbed::shared();
//!
//! // Generate a synchronized maximum dI/dt stressmark in the resonant band.
//! let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
//! println!("dI per core: {:.1} A", sm.delta_i());
//!
//! // Run it on all six cores and read the skitters.
//! let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
//! let noise = run_noise(tb.chip(), &loads, &NoiseRunConfig::default()).unwrap();
//! println!("worst-case noise: {:.1} %p2p", noise.max_pct_p2p());
//! ```

pub use voltnoise_analysis as analysis;
pub use voltnoise_measure as measure;
pub use voltnoise_pdn as pdn;
pub use voltnoise_stressmark as stressmark;
pub use voltnoise_system as system;
pub use voltnoise_uarch as uarch;

/// The most common imports for working with the library.
pub mod prelude {
    pub use voltnoise_analysis::{
        find, full_report, registry, run_impedance, CorrelationAnalysis, DeltaIConfig,
        DeltaIExperiment, DeltaIView, Experiment, FunnelSummary, ImpedanceConfig,
        MappingGainConfig, MappingGainExperiment, MarginConfig, MarginExperiment, MisalignConfig,
        MisalignExperiment, RegistryEntry, ReportScale, ScopeConfig, ScopeShotExperiment,
        SweepConfig, SweepExperiment, Table1,
    };
    pub use voltnoise_measure::{
        CriticalPath, PowerMeter, ScopeCapture, ScopeTrace, Skitter, SkitterConfig, VminConfig,
    };
    pub use voltnoise_pdn::{Netlist, NodeId, Pdn, PdnParams, TransientSolver, NUM_CORES};
    pub use voltnoise_stressmark::{
        compile, find_max_power_sequence, min_power_sequence, CompiledStressmark, SearchConfig,
        StressmarkSpec, SyncSpec,
    };
    pub use voltnoise_system::{
        evaluate_governor, run_noise, AlignmentComparison, Chip, ChipConfig, CoreLoad, Engine,
        EngineStats, GlobalNoiseGovernor, GovernorConfig, GuardbandController, GuardbandTable,
        NoiseAwareMapper, NoiseRunConfig, NoiseTable, Placement, SimJob, Testbed, TodSync,
        WorkloadKind,
    };
    pub use voltnoise_uarch::{CoreConfig, EpiProfile, Isa, Kernel, Opcode};
}
