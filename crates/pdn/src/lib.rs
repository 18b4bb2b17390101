#![warn(missing_docs)]
// Library code must surface failures as typed errors, never panic via
// `unwrap` or `expect`. Test builds (`cfg(test)`) are exempt; the rare
// constructor-invariant site carries a justified targeted `allow`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # voltnoise-pdn
//!
//! A lumped-RLC **power distribution network (PDN) simulator** built for
//! the `voltnoise` workspace, which reproduces the measurement study
//! *"Voltage Noise in Multi-core Processors"* (Bertran et al., MICRO
//! 2014) in simulation.
//!
//! The crate provides:
//!
//! - a [`netlist::Netlist`] builder for R/L/C networks with DC voltage
//!   sources and time-varying current loads;
//! - a transient solver ([`transient::TransientSolver`]) using modified
//!   nodal analysis with trapezoidal companion models and a two-rate
//!   timestep refined around dI/dt edges;
//! - an AC solver ([`ac::AcAnalysis`]) producing the impedance profiles
//!   that package designers use (paper Fig. 7b);
//! - stressmark current waveforms ([`waveform::StressWaveform`]) with
//!   free-run and TOD-synchronized burst modes;
//! - the calibrated six-core chip topology mirroring the paper's zEC12
//!   floorplan (two on-die voltage domains bridged by the deep-trench
//!   eDRAM L3 decap), built by one shape-parameterized builder
//!   ([`topology::Pdn`]) as a chip, a drawer of chips or a rack of
//!   drawers.
//!
//! # Examples
//!
//! Droop of a single-node PDN under a constant load:
//!
//! ```
//! use voltnoise_pdn::netlist::{Netlist, NodeId};
//! use voltnoise_pdn::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};
//!
//! # fn main() -> Result<(), voltnoise_pdn::PdnError> {
//! let mut nl = Netlist::new();
//! let vdd = nl.add_node();
//! nl.add_voltage_source(vdd, NodeId::GROUND, 1.0)?;
//! let die = nl.add_node();
//! nl.add_resistor(vdd, die, 1e-3)?;
//! nl.add_current_source(die, NodeId::GROUND)?;
//!
//! let mut solver = TransientSolver::new(&nl)?;
//! let result = solver.run(
//!     &ConstantDrive::new(vec![30.0]),
//!     &[Probe::NodeVoltage(die)],
//!     &TransientConfig::new(1e-6),
//! )?;
//! assert!((result.stats[0].mean - 0.97).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod backend;
pub mod cancel;
pub mod complex;
pub mod design;
pub mod error;
pub mod linalg;
pub mod mna;
pub mod netlist;
pub mod rom;
pub mod sensitivity;
pub mod signal;
pub mod sparse;
pub mod telemetry;
pub mod topology;
pub mod transient;
pub mod waveform;

pub use ac::{AcAnalysis, ImpedancePoint};
pub use backend::{RomSpec, SolveSpec};
pub use cancel::{CancelReason, CancelToken};
pub use complex::Complex;
pub use design::{check_mask, size_decap, ImpedanceMask};
pub use error::PdnError;
pub use mna::{MnaSystem, SolverBackend, SPARSE_THRESHOLD};
pub use netlist::{Netlist, NodeId};
pub use rom::{solve_step_rom, RomStepProblem};
pub use sensitivity::{parameter_sensitivity, PdnParameter};
pub use signal::{
    autocorrelation, band_filter, entropy_report, fft_in_place, hann_window, ifft_in_place,
    markov_min_entropy, mcv_min_entropy, quantize, resample_uniform, trace_signature, welch_psd,
    EntropyReport, TraceSignature, WelchConfig, WelchPsd, WelchStream,
};
pub use telemetry::{PhaseTimes, SolverCounters};
pub use topology::{DrawerParams, Pdn, PdnParams, RackParams, VariationSpec, NUM_CORES};
pub use transient::{Drive, Probe, TransientConfig, TransientResult, TransientSolver};
pub use waveform::{CoreWaveform, MultiCoreDrive, StressWaveform, TracePlayback, WaveMode};
