//! Package-design support: impedance masks and decap sizing.
//!
//! Paper §II-B describes the flow this module implements: "during the
//! package design process, PDN impedance (Z) profiles and decap maps are
//! generated. In that process, package designers ensure that a target
//! maximum impedance Z is not surpassed for any given frequency by
//! placing enough decaps in parallel. This guarantees that Vnoise remains
//! within a constrained magnitude, allowing for affordable and reliable
//! voltage margins."

use crate::ac::{log_space, AcAnalysis};
use crate::error::PdnError;
use crate::netlist::NodeId;
use crate::topology::{Pdn, PdnParams};
use serde::{Deserialize, Serialize};

/// A piecewise-constant impedance mask: the maximum |Z| allowed per
/// frequency band.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::design::ImpedanceMask;
///
/// let mask = ImpedanceMask::new(vec![(1e5, 1e-3), (1e7, 2e-3)]).unwrap();
/// assert_eq!(mask.limit_at(1e4), Some(1e-3));
/// assert_eq!(mask.limit_at(1e6), Some(2e-3));
/// assert_eq!(mask.limit_at(1e8), None); // beyond the mask
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpedanceMask {
    /// `(upper_frequency_hz, max_z_ohm)` bands in ascending frequency.
    bands: Vec<(f64, f64)>,
}

impl ImpedanceMask {
    /// Builds a mask from `(upper_frequency, max_z)` bands.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidTimebase`] if bands are empty, not
    /// ascending, or carry non-positive limits.
    pub fn new(bands: Vec<(f64, f64)>) -> Result<Self, PdnError> {
        let bad = |reason: &str| {
            Err(PdnError::InvalidTimebase {
                reason: reason.to_string(),
            })
        };
        if bands.is_empty() {
            return bad("impedance mask needs at least one band");
        }
        if bands.windows(2).any(|w| w[0].0 >= w[1].0) {
            return bad("mask band frequencies must ascend");
        }
        if bands
            .iter()
            .any(|(f, z)| !(f.is_finite() && *f > 0.0 && z.is_finite() && *z > 0.0))
        {
            return bad("mask frequencies and limits must be positive");
        }
        Ok(ImpedanceMask { bands })
    }

    /// A mask representative of the modeled chip's targets: tight below
    /// 100 kHz, relaxed through the die band, derived from the default
    /// chip's worst-case ΔI and a ~10 % noise budget.
    pub fn zlike_default() -> Self {
        // Constructed directly: the literal bands satisfy `new`'s
        // validation (ascending positive frequencies, positive limits)
        // by inspection, so no fallible path is needed.
        ImpedanceMask {
            bands: vec![(100e3, 0.8e-3), (5e6, 1.4e-3), (100e6, 1.0e-3)],
        }
    }

    /// The limit applying at `freq_hz`, or `None` above the mask.
    pub fn limit_at(&self, freq_hz: f64) -> Option<f64> {
        self.bands
            .iter()
            .find(|(upper, _)| freq_hz <= *upper)
            .map(|(_, z)| *z)
    }

    /// Highest frequency the mask covers.
    pub(crate) fn max_freq(&self) -> f64 {
        // `new` rejects empty band lists, so a mask always has a last
        // band; 0.0 (mask covers nothing) is the total fallback.
        self.bands.last().map_or(0.0, |(f, _)| *f)
    }
}

/// One mask violation found by [`check_mask`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaskViolation {
    /// Frequency at which the profile exceeds the mask.
    pub freq_hz: f64,
    /// Measured impedance magnitude.
    pub z_ohm: f64,
    /// The mask limit there.
    pub limit_ohm: f64,
}

/// Checks a built chip's die-level impedance against a mask over
/// `points` log-spaced frequencies, returning all violations.
///
/// # Errors
///
/// Returns [`PdnError`] if the AC solve fails.
pub fn check_mask(
    chip: &Pdn,
    node: NodeId,
    mask: &ImpedanceMask,
    points: usize,
) -> Result<Vec<MaskViolation>, PdnError> {
    let ac = AcAnalysis::new(chip.netlist());
    let freqs = log_space(1e3, mask.max_freq(), points.max(2))?;
    let mut violations = Vec::new();
    for point in ac.sweep(node, &freqs)? {
        if let Some(limit) = mask.limit_at(point.freq_hz) {
            let z = point.magnitude();
            if z > limit {
                violations.push(MaskViolation {
                    freq_hz: point.freq_hz,
                    z_ohm: z,
                    limit_ohm: limit,
                });
            }
        }
    }
    Ok(violations)
}

/// Result of the decap-sizing search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecapSizing {
    /// Multiplier applied to the on-die decaps (domain, L3, per-core).
    pub decap_scale: f64,
    /// Parameters after scaling.
    pub params: PdnParams,
    /// Remaining violations (empty when the mask is met).
    pub violations: Vec<MaskViolation>,
}

/// Sizes the on-die decap ("placing enough decaps in parallel", §II-B):
/// binary-searches the smallest decap multiplier in `[1, max_scale]`
/// that makes the die-level profile meet the mask.
///
/// Returns the best achievable sizing; when even `max_scale` leaves
/// violations, those are reported so the designer can revisit the mask.
///
/// # Errors
///
/// Returns [`PdnError`] if a build or solve fails.
pub fn size_decap(
    base: &PdnParams,
    mask: &ImpedanceMask,
    max_scale: f64,
    points: usize,
) -> Result<DecapSizing, PdnError> {
    let build = |scale: f64| -> Result<(PdnParams, Vec<MaskViolation>), PdnError> {
        let mut p = base.clone();
        p.c_domain *= scale;
        p.c_l3 *= scale;
        p.c_core *= scale;
        let chip = Pdn::chip(&p)?;
        let v = check_mask(&chip, chip.core_node(0), mask, points)?;
        Ok((p, v))
    };

    // Quick exits: already compliant, or unreachable even at max scale.
    let (p1, v1) = build(1.0)?;
    if v1.is_empty() {
        return Ok(DecapSizing {
            decap_scale: 1.0,
            params: p1,
            violations: v1,
        });
    }
    let (pmax, vmax) = build(max_scale)?;
    if !vmax.is_empty() {
        return Ok(DecapSizing {
            decap_scale: max_scale,
            params: pmax,
            violations: vmax,
        });
    }

    let mut lo = 1.0;
    let mut hi = max_scale;
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        let (_, v) = build(mid)?;
        if v.is_empty() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (params, violations) = build(hi)?;
    Ok(DecapSizing {
        decap_scale: hi,
        params,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_validation() {
        assert!(ImpedanceMask::new(vec![]).is_err());
        assert!(ImpedanceMask::new(vec![(1e6, 1e-3), (1e5, 1e-3)]).is_err());
        assert!(ImpedanceMask::new(vec![(1e6, -1.0)]).is_err());
        assert!(ImpedanceMask::new(vec![(1e6, 1e-3)]).is_ok());
    }

    #[test]
    fn default_chip_meets_its_own_mask() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let violations = check_mask(
            &chip,
            chip.core_node(0),
            &ImpedanceMask::zlike_default(),
            150,
        )
        .unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn legacy_decap_violates_the_mask() {
        let chip = Pdn::chip(&PdnParams::legacy_decap()).unwrap();
        let violations = check_mask(
            &chip,
            chip.core_node(0),
            &ImpedanceMask::zlike_default(),
            150,
        )
        .unwrap();
        assert!(!violations.is_empty(), "legacy design should violate");
        // Violations sit in/above the die band where decap is missing.
        assert!(violations.iter().all(|v| v.freq_hz > 1e5));
    }

    #[test]
    fn sizing_fixes_legacy_design() {
        let sizing = size_decap(
            &PdnParams::legacy_decap(),
            &ImpedanceMask::zlike_default(),
            64.0,
            100,
        )
        .unwrap();
        assert!(sizing.violations.is_empty(), "{:?}", sizing.violations);
        assert!(
            sizing.decap_scale > 2.0 && sizing.decap_scale <= 64.0,
            "scale = {}",
            sizing.decap_scale
        );
        // The sized design builds and passes a fresh check.
        let chip = Pdn::chip(&sizing.params).unwrap();
        let v = check_mask(
            &chip,
            chip.core_node(0),
            &ImpedanceMask::zlike_default(),
            100,
        )
        .unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn compliant_design_needs_no_scaling() {
        let sizing = size_decap(
            &PdnParams::default(),
            &ImpedanceMask::zlike_default(),
            8.0,
            80,
        )
        .unwrap();
        assert_eq!(sizing.decap_scale, 1.0);
    }

    #[test]
    fn impossible_mask_reports_residual_violations() {
        let mask = ImpedanceMask::new(vec![(1e7, 1e-6)]).unwrap(); // 1 uOhm: unreachable
        let sizing = size_decap(&PdnParams::default(), &mask, 4.0, 60).unwrap();
        assert!(!sizing.violations.is_empty());
        assert_eq!(sizing.decap_scale, 4.0);
    }
}
