#![warn(missing_docs)]

//! # voltnoise-stressmark
//!
//! The **systematic dI/dt stressmark generation methodology** — the
//! primary contribution of *"Voltage Noise in Multi-core Processors"*
//! (Bertran et al., MICRO 2014), reimplemented over the `voltnoise-uarch`
//! core model.
//!
//! The pipeline mirrors the paper's Figs. 4–6:
//!
//! 1. EPI profiling (provided by [`voltnoise_uarch::epi`]);
//! 2. [`candidates`] — categorize by unit/issue class, keep the nine
//!    strongest candidates;
//! 3. [`filter`] — enumerate all 9^6 = 531 441 length-six combinations
//!    and drop the ones the microarchitecture cannot run at full dispatch;
//! 4. [`search`] — IPC-filter to the top thousand, power-evaluate,
//!    select the maximum-power sequence; derive minimum- and medium-power
//!    sequences;
//! 5. [`stressmark`] — compose high/low sequences into parameterizable
//!    dI/dt stressmarks: stimulus frequency, ΔI amount, number of
//!    consecutive events, and TOD-based synchronization/misalignment.
//!
//! # Examples
//!
//! ```no_run
//! use voltnoise_stressmark::prelude::*;
//! use voltnoise_uarch::{epi::EpiProfile, isa::Isa, pipeline::CoreConfig};
//!
//! let isa = Isa::zlike();
//! let core = CoreConfig::default();
//! let profile = EpiProfile::generate(&isa, &core);
//! let outcome = find_max_power_sequence(&isa, &core, &profile, &SearchConfig::default());
//! let min = min_power_sequence(&isa, &core, &profile);
//! let spec = StressmarkSpec {
//!     name: "max_didt_2mhz".into(),
//!     high_body: outcome.best.body.clone(),
//!     low_body: min.body.clone(),
//!     stim_freq_hz: 2e6,
//!     duty: 0.5,
//!     sync: Some(SyncSpec::paper_default()),
//! };
//! let sm = compile(&isa, &core, spec).unwrap();
//! assert!(sm.delta_i() > 0.0);
//! ```

pub mod candidates;
pub mod filter;
pub mod genetic;
pub mod search;
pub mod stressmark;

pub use candidates::select_candidates;
pub use filter::{Combinations, SEQ_LEN};
pub use genetic::{ga_search, GaConfig, GaOutcome};
pub use search::{
    find_max_power_sequence, find_sequence_with_power, min_power_sequence, SearchConfig,
    SearchOutcome, SequenceEval,
};
pub use stressmark::{
    compile, CompiledStressmark, MeasuredPhases, StressmarkError, StressmarkSpec, SyncSpec,
    TOD_TICK_SECONDS,
};

/// Convenient star-import surface.
pub mod prelude {
    pub use crate::candidates::select_candidates;
    pub use crate::search::{
        find_max_power_sequence, find_sequence_with_power, min_power_sequence, SearchConfig,
        SearchOutcome, SequenceEval,
    };
    pub use crate::stressmark::{compile, CompiledStressmark, StressmarkSpec, SyncSpec};
}
