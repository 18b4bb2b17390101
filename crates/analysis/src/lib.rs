#![warn(missing_docs)]

//! # voltnoise-analysis
//!
//! Experiment drivers reproducing **every table and figure** of the
//! evaluation in *"Voltage Noise in Multi-core Processors"* (Bertran et
//! al., MICRO 2014), built on the `voltnoise-system` engine.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table I (EPI ranking ends) | [`table1`] |
//! | Fig. 5 funnel (§IV-B) | [`funnel`] |
//! | Fig. 7a (noise vs stimulus frequency) | [`freq_sweep`] |
//! | Fig. 7b (impedance profile) | [`impedance`] |
//! | Fig. 8 (oscilloscope shots) | [`scope_shot`] |
//! | Fig. 9 (synchronized sweep) | [`freq_sweep`] |
//! | Fig. 10 (misalignment) | [`misalignment`] |
//! | Fig. 11a/b (ΔI sensitivity) | [`delta_i`] |
//! | Fig. 12 (Vmin margins) | [`margin`] |
//! | Fig. 13a (correlation), 13b (step), Fig. 14 | [`propagation`] |
//! | Fig. 15 (mapping opportunity) | [`mapping_gain`] |
//! | §VII-B (dynamic guard-banding) | [`guardband_study`] |
//! | §VII at rack scale (placement study) | [`rack_map`] |
//! | DESIGN.md ablations | [`ablation`] |
//! | Governor, dithering, scheduling, GA search | [`extensions`] |
//! | Solve-backend ROM study | [`rom_error`] |
//! | Resonance-band entropy study | [`resonance_entropy`] |
//! | Spectral summaries (peaks/Q/band energy) | [`signal_summary`] |
//!
//! Every driver has a `paper()` configuration matching the paper's scale
//! and a `reduced()` configuration for quick runs, and returns a
//! serializable result with a `render()` method producing the same
//! rows/series the paper reports.

pub mod ablation;
pub(crate) mod catalog;
pub mod delta_i;
pub mod experiment;
pub mod extensions;
pub mod freq_sweep;
pub mod funnel;
pub mod guardband_study;
pub mod impedance;
pub mod mapping_gain;
pub mod margin;
pub mod misalignment;
pub mod propagation;
pub mod rack_map;
pub mod render;
pub mod report;
pub mod resonance_entropy;
pub mod rom_error;
pub mod scope_shot;
pub mod signal_summary;
pub mod stats;
pub mod table1;

pub use delta_i::{DeltaIConfig, DeltaIExperiment, DeltaIView};
pub use experiment::{find, registry, Experiment, RegistryEntry};
pub use freq_sweep::{SweepConfig, SweepExperiment};
pub use funnel::FunnelSummary;
pub use guardband_study::{GuardbandConfig, GuardbandExperiment};
pub use impedance::{run_impedance, ImpedanceConfig};
pub use mapping_gain::{MappingGainConfig, MappingGainExperiment};
pub use margin::{MarginConfig, MarginExperiment};
pub use misalignment::{MisalignConfig, MisalignExperiment};
pub use propagation::{run_step_response, CorrelationAnalysis, MappingComparisonExperiment};
pub use rack_map::{RackMapConfig, RackMapExperiment};
pub use report::{full_report, full_report_with_telemetry, ReportScale};
pub use resonance_entropy::{ResonanceEntropyConfig, ResonanceEntropyExperiment};
pub use scope_shot::{ScopeConfig, ScopeShotExperiment};
pub use signal_summary::SignalSummary;
pub use table1::Table1;
