//! Chip-level power metering via the service element (paper §III).
//!
//! The zEC12 service element reads current and voltage of the chip input
//! rails with milliwatt granularity; the paper uses those readings
//! "extensively to assess the generation of the dI/dt stressmarks".

use serde::{Deserialize, Serialize};

/// A chip power reading in milliwatts (integer, matching the service
/// element's granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PowerReading {
    milliwatts: i64,
}

impl PowerReading {
    /// Power in watts.
    pub fn watts(self) -> f64 {
        self.milliwatts as f64 / 1e3
    }

    /// Power in milliwatts.
    pub fn milliwatts(self) -> i64 {
        self.milliwatts
    }
}

impl std::fmt::Display for PowerReading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} mW", self.milliwatts)
    }
}

/// Chip-level power meter.
///
/// # Examples
///
/// ```
/// use voltnoise_measure::power::PowerMeter;
///
/// let meter = PowerMeter::new();
/// let reading = meter.read(1.05, 120.0); // 1.05 V rail at 120 A
/// assert_eq!(reading.milliwatts(), 126_000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerMeter {
    _private: (),
}

impl PowerMeter {
    /// Creates a power meter.
    pub fn new() -> Self {
        PowerMeter::default()
    }

    /// Reads power from instantaneous rail voltage and current, rounded
    /// to milliwatts.
    pub fn read(&self, rail_volts: f64, rail_amps: f64) -> PowerReading {
        PowerReading {
            milliwatts: (rail_volts * rail_amps * 1e3).round() as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_rounds_to_milliwatts() {
        let m = PowerMeter::new();
        assert_eq!(m.read(1.0, 0.0123456).milliwatts(), 12);
        assert!((m.read(1.05, 100.0).watts() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn display_has_unit() {
        assert_eq!(PowerMeter::new().read(1.0, 1.0).to_string(), "1000 mW");
    }

    #[test]
    fn readings_order_by_power() {
        let m = PowerMeter::new();
        assert!(m.read(1.05, 60.0) < m.read(1.05, 61.0));
    }
}
