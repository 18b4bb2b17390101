//! PDN parameter sensitivity: how each package/board element moves the
//! resonant bands.
//!
//! This supports the paper's stated purpose for the methodology —
//! "determining the optimal voltage levels and package characteristics"
//! (§I) — by quantifying, per element, how a relative perturbation shifts
//! the die-band resonance frequency and magnitude.

use crate::ac::{find_peaks, log_space, AcAnalysis};
use crate::error::PdnError;
use crate::topology::{Pdn, PdnParams};
use serde::{Deserialize, Serialize};

/// A perturbable PDN parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PdnParameter {
    /// Board inductance.
    BoardInductance,
    /// Package bulk decap.
    PackageDecap,
    /// C4/via inductance per domain.
    C4Inductance,
    /// Per-domain on-die decap.
    DomainDecap,
    /// L3/eDRAM decap.
    L3Decap,
    /// Per-domain decap ESR.
    DomainEsr,
}

impl PdnParameter {
    /// Every perturbable parameter.
    pub const ALL: [PdnParameter; 6] = [
        PdnParameter::BoardInductance,
        PdnParameter::PackageDecap,
        PdnParameter::C4Inductance,
        PdnParameter::DomainDecap,
        PdnParameter::L3Decap,
        PdnParameter::DomainEsr,
    ];

    /// Applies a multiplicative perturbation to the parameter.
    pub fn scale(self, params: &mut PdnParams, factor: f64) {
        match self {
            PdnParameter::BoardInductance => params.l_board *= factor,
            PdnParameter::PackageDecap => params.c_pkg *= factor,
            PdnParameter::C4Inductance => params.l_c4 *= factor,
            PdnParameter::DomainDecap => params.c_domain *= factor,
            PdnParameter::L3Decap => params.c_l3 *= factor,
            PdnParameter::DomainEsr => params.esr_domain *= factor,
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PdnParameter::BoardInductance => "l_board",
            PdnParameter::PackageDecap => "c_pkg",
            PdnParameter::C4Inductance => "l_c4",
            PdnParameter::DomainDecap => "c_domain",
            PdnParameter::L3Decap => "c_l3",
            PdnParameter::DomainEsr => "esr_domain",
        }
    }
}

/// The die band of a parameter-perturbed design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandPoint {
    /// Perturbation factor applied.
    pub factor: f64,
    /// Die-band resonance frequency (Hz); 0 when no peak is found.
    pub freq_hz: f64,
    /// Peak impedance magnitude (ohms).
    pub z_ohm: f64,
}

/// Sensitivity of the die band to one parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterSensitivity {
    /// The perturbed parameter.
    pub parameter: PdnParameter,
    /// Band measurements per perturbation factor (ascending factors).
    pub points: Vec<BandPoint>,
}

impl ParameterSensitivity {
    /// Logarithmic frequency sensitivity `d ln(f) / d ln(factor)` between
    /// the first and last point (≈ −0.5 for the LC pair members).
    pub fn log_slope(&self) -> f64 {
        let (Some(first), Some(last)) = (self.points.first(), self.points.last()) else {
            return 0.0;
        };
        if first.freq_hz <= 0.0 || last.freq_hz <= 0.0 {
            return 0.0;
        }
        (last.freq_hz / first.freq_hz).ln() / (last.factor / first.factor).ln()
    }
}

fn die_band(params: &PdnParams) -> Result<(f64, f64), PdnError> {
    let chip = Pdn::chip(params)?;
    let ac = AcAnalysis::new(chip.netlist());
    let freqs = log_space(3e5, 30e6, 180)?;
    let profile = ac.sweep(chip.core_node(0), &freqs)?;
    Ok(find_peaks(&profile)?.first().copied().unwrap_or((0.0, 0.0)))
}

/// Sweeps one parameter over the given factors.
///
/// # Errors
///
/// Returns [`PdnError`] if a build or AC solve fails.
pub fn parameter_sensitivity(
    base: &PdnParams,
    parameter: PdnParameter,
    factors: &[f64],
) -> Result<ParameterSensitivity, PdnError> {
    let mut points = Vec::with_capacity(factors.len());
    for &factor in factors {
        let mut p = base.clone();
        parameter.scale(&mut p, factor);
        let (freq_hz, z_ohm) = die_band(&p)?;
        points.push(BandPoint {
            factor,
            freq_hz,
            z_ohm,
        });
    }
    Ok(ParameterSensitivity { parameter, points })
}

/// Runs the sweep for every parameter and renders a report.
///
/// # Errors
///
/// Returns [`PdnError`] if a build or AC solve fails.
pub fn full_sensitivity(base: &PdnParams, factors: &[f64]) -> Result<String, PdnError> {
    let mut out = String::from(
        "# PDN parameter sensitivity of the die-band resonance\nparameter,factor,freq_hz,z_mohm\n",
    );
    for parameter in PdnParameter::ALL {
        let s = parameter_sensitivity(base, parameter, factors)?;
        for p in &s.points {
            out.push_str(&format!(
                "{},{:.2},{:.4e},{:.4}\n",
                parameter.name(),
                p.factor,
                p.freq_hz,
                p.z_ohm * 1e3
            ));
        }
        out.push_str(&format!(
            "# {} log-slope d ln f / d ln x = {:.2}\n",
            parameter.name(),
            s.log_slope()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTORS: [f64; 3] = [0.5, 1.0, 2.0];

    #[test]
    fn c4_inductance_moves_band_down() {
        // f = 1/(2*pi*sqrt(L_eff*C)): the C4 inductance is part (not all)
        // of the effective loop inductance, so the log-slope sits between
        // the ideal -0.5 and 0.
        let s = parameter_sensitivity(&PdnParams::default(), PdnParameter::C4Inductance, &FACTORS)
            .unwrap();
        let slope = s.log_slope();
        assert!((-0.65..=-0.15).contains(&slope), "slope = {slope}");
        assert!(s.points[0].freq_hz > s.points[2].freq_hz);
    }

    #[test]
    fn domain_decap_moves_band_down() {
        let s = parameter_sensitivity(&PdnParams::default(), PdnParameter::DomainDecap, &FACTORS)
            .unwrap();
        assert!(s.points[0].freq_hz > s.points[2].freq_hz);
        assert!(s.log_slope() < -0.1);
    }

    #[test]
    fn esr_damps_peak_without_moving_it_much() {
        let s = parameter_sensitivity(&PdnParams::default(), PdnParameter::DomainEsr, &FACTORS)
            .unwrap();
        // Magnitude drops with more ESR...
        assert!(s.points[2].z_ohm < s.points[0].z_ohm);
        // ...while frequency stays within ~20 %.
        assert!(s.log_slope().abs() < 0.3, "slope = {}", s.log_slope());
    }

    #[test]
    fn board_inductance_barely_touches_die_band() {
        let s = parameter_sensitivity(
            &PdnParams::default(),
            PdnParameter::BoardInductance,
            &FACTORS,
        )
        .unwrap();
        assert!(s.log_slope().abs() < 0.1, "slope = {}", s.log_slope());
    }

    #[test]
    fn full_report_covers_all_parameters() {
        let report = full_sensitivity(&PdnParams::default(), &FACTORS).unwrap();
        for p in PdnParameter::ALL {
            assert!(report.contains(p.name()));
        }
    }
}
