#![warn(missing_docs)]

//! # voltnoise-uarch
//!
//! A z-like CISC **core model** for the `voltnoise` workspace: the
//! execution substrate on which dI/dt stressmarks are generated and
//! evaluated, standing in for the zEC12 cores of the paper *"Voltage
//! Noise in Multi-core Processors"* (Bertran et al., MICRO 2014).
//!
//! Components:
//!
//! - [`isa::Isa`] — a 1301-instruction ISA whose power structure matches
//!   the paper's Table I (fused compare-and-branch ops at the top, DFP
//!   and serializing system ops at the bottom);
//! - [`pipeline`] — dispatch groups of up to three micro-ops, out-of-order
//!   issue over two FXU, two LSU, one BFU, one DFU, one BRU and one
//!   serializing system pipe, plus a fast analytic throughput estimator;
//! - [`kernel::Kernel`] — looped micro-benchmarks with measured IPC,
//!   power, current and per-cycle current traces;
//! - [`epi::EpiProfile`] — the full energy-per-instruction ranking the
//!   stressmark search starts from.
//!
//! # Examples
//!
//! ```
//! use voltnoise_uarch::isa::Isa;
//! use voltnoise_uarch::kernel::Kernel;
//! use voltnoise_uarch::pipeline::CoreConfig;
//!
//! let isa = Isa::zlike();
//! let cfg = CoreConfig::default();
//! let k = Kernel::single_instruction(&isa, isa.opcode("CIB").unwrap(), 4000);
//! let metrics = k.run(&isa, &cfg);
//! assert!(metrics.avg_power_w > cfg.static_power_w);
//! ```

pub mod deps;
pub mod disruptive;
pub mod epi;
pub mod isa;
pub mod kernel;
pub mod pipeline;
pub mod target;
pub mod units;

pub use deps::{assign_operands, run_with_deps, DependencyStudy, OperandPolicy};
pub use disruptive::DisruptionStudy;
pub use epi::{EpiEntry, EpiProfile};
pub use isa::{Isa, Opcode};
pub use kernel::Kernel;
pub use pipeline::{estimate_throughput, form_groups, CoreConfig, PipelineSim};
pub use target::TargetDefinition;
pub use units::{IssueClass, UnitKind};
