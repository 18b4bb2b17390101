#![warn(missing_docs)]

//! # voltnoise-measure
//!
//! Measurement substrates of the `voltnoise` workspace, modeling the
//! instrumentation the paper *"Voltage Noise in Multi-core Processors"*
//! (Bertran et al., MICRO 2014) used on real zEC12 silicon:
//!
//! - [`skitter`] — the per-core 129-tap latched delay-line noise sensors,
//!   including sticky mode and the %p2p readout of Figs. 7a/9/10/11;
//! - [`scope`] — oscilloscope trace capture (Fig. 8);
//! - [`power`] — chip-level milliwatt power metering via the service
//!   element;
//! - [`vmin`] — the undervolt-to-first-failure harness with the
//!   critical-path timing model and R-Unit detection (Fig. 12).
//!
//! # Examples
//!
//! ```
//! use voltnoise_measure::skitter::{Skitter, SkitterConfig};
//!
//! let sk = Skitter::new(SkitterConfig::default());
//! let reading = sk.measure_extremes(1.00, 1.09);
//! assert!(reading.pct_p2p() > 20.0);
//! ```

pub mod bitstring;
pub mod power;
pub mod scope;
pub mod skitter;
pub mod vmin;

pub use bitstring::{capture, StickyBitmap};
pub use power::{PowerMeter, PowerReading};
pub use scope::{ScopeCapture, ScopeTrace};
pub use skitter::{Skitter, SkitterConfig, SkitterReading};
pub use vmin::{run_vmin, CriticalPath, RUnit, VminConfig};
