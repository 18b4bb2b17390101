//! Principled spectral summaries of resonance structure.
//!
//! [`SignalSummary`] is the single path the resonance experiments use
//! to characterize an impedance sweep: the peak list (delegating to
//! [`find_peaks`], whose plateau tie-break is the documented
//! contract, so figure bytes are unchanged), plus the quantities the
//! ad-hoc path never computed — half-power quality factor of the
//! strongest resonance and `|Z|²` band energy — backed by the
//! [`voltnoise_pdn::signal`] toolkit for anything trace-shaped.

use serde::{Deserialize, Serialize};
use voltnoise_pdn::ac::{find_peaks, ImpedancePoint};
use voltnoise_pdn::PdnError;

/// Frequency bound separating board/package resonances from die-level
/// ones — the same 500 kHz boundary the Fig. 7b bands use.
pub(crate) const DIE_BAND_MIN_HZ: f64 = 5e5;

/// Spectral summary of one swept impedance profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalSummary {
    /// Resonance peaks `(freq_hz, |Z| ohms)`, strongest first —
    /// byte-for-byte the [`find_peaks`] list.
    pub peaks: Vec<(f64, f64)>,
    /// Frequency of the strongest peak, Hz (`0.0` when there is none).
    pub peak_freq_hz: f64,
    /// Half-power quality factor of the strongest peak: peak frequency
    /// over the width of the interval where `|Z|` stays above
    /// `|Z|_peak / sqrt(2)`. `None` when the profile has no peak or
    /// never falls to half power around it.
    pub q_factor: Option<f64>,
    /// `|Z|²` energy integrated (trapezoidal) over the die band
    /// (≥ `DIE_BAND_MIN_HZ`), in Ω²·Hz.
    pub die_band_energy: f64,
}

impl SignalSummary {
    /// Summarizes a swept impedance profile.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::EmptyProfile`] for an empty profile, as
    /// [`find_peaks`] does.
    pub(crate) fn of_profile(profile: &[ImpedancePoint]) -> Result<SignalSummary, PdnError> {
        let peaks = find_peaks(profile)?;
        let peak_freq_hz = peaks.first().map(|p| p.0).unwrap_or(0.0);
        let q_factor = peaks.first().and_then(|&(f, m)| q_of(profile, f, m));
        let die_band_energy = band_energy(profile, DIE_BAND_MIN_HZ, f64::INFINITY);
        Ok(SignalSummary {
            peaks,
            peak_freq_hz,
            q_factor,
            die_band_energy,
        })
    }
}

/// Trapezoidal `|Z|²` energy over `[f_lo, f_hi]`.
fn band_energy(profile: &[ImpedancePoint], f_lo: f64, f_hi: f64) -> f64 {
    profile
        .windows(2)
        .filter(|w| w[0].freq_hz >= f_lo && w[1].freq_hz <= f_hi)
        .map(|w| {
            let (a, b) = (w[0].magnitude(), w[1].magnitude());
            0.5 * (a * a + b * b) * (w[1].freq_hz - w[0].freq_hz)
        })
        .sum()
}

/// Half-power Q of the peak at `(f_peak, m_peak)` within a swept
/// profile: walk outward from the peak sample until `|Z|` crosses
/// `m_peak / sqrt(2)`, interpolating the crossing frequency linearly.
fn q_of(profile: &[ImpedancePoint], f_peak: f64, m_peak: f64) -> Option<f64> {
    let k_peak = profile.iter().position(|p| p.freq_hz == f_peak)?;
    let half = m_peak / std::f64::consts::SQRT_2;
    let crossing = |step: isize| -> Option<f64> {
        let mut k = k_peak;
        loop {
            let next = k as isize + step;
            if next < 0 || next as usize >= profile.len() {
                return None;
            }
            let nk = next as usize;
            let (ma, mb) = (profile[k].magnitude(), profile[nk].magnitude());
            if mb <= half {
                let frac = if ma > mb {
                    (ma - half) / (ma - mb)
                } else {
                    1.0
                };
                let (fa, fb) = (profile[k].freq_hz, profile[nk].freq_hz);
                return Some(fa + frac * (fb - fa));
            }
            k = nk;
        }
    };
    let f_lo = crossing(-1)?;
    let f_hi = crossing(1)?;
    let width = f_hi - f_lo;
    (width > 0.0).then(|| f_peak / width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltnoise_pdn::Complex;

    fn point(freq_hz: f64, mag: f64) -> ImpedancePoint {
        ImpedancePoint {
            freq_hz,
            z: Complex::from_real(mag),
        }
    }

    /// A synthetic single-pole resonance with a known analytic Q: a
    /// Lorentzian magnitude `m(f) = 1 / sqrt(1 + (2 Q (f-f0)/f0)^2)`
    /// falls to `1/sqrt(2)` exactly at `f0 (1 ± 1/(2Q))`.
    #[test]
    fn q_recovers_analytic_lorentzian() {
        let (f0, q_true) = (2.0e6, 8.0);
        let profile: Vec<ImpedancePoint> = (0..4001)
            .map(|i| {
                let f = 1e6 + i as f64 * 500.0;
                let x = 2.0 * q_true * (f - f0) / f0;
                point(f, 1.0 / (1.0 + x * x).sqrt())
            })
            .collect();
        let s = SignalSummary::of_profile(&profile).unwrap();
        assert_eq!(s.peak_freq_hz, f0);
        let q = s.q_factor.expect("peak falls to half power");
        assert!((q - q_true).abs() / q_true < 0.01, "q = {q}");
    }

    #[test]
    fn peaks_match_find_peaks_exactly() {
        let profile: Vec<ImpedancePoint> = [1.0, 4.0, 2.0, 6.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &m)| point(1e6 * (i + 1) as f64, m))
            .collect();
        let s = SignalSummary::of_profile(&profile).unwrap();
        assert_eq!(s.peaks, find_peaks(&profile).unwrap());
        assert_eq!(s.peak_freq_hz, 4e6);
        assert!(s.die_band_energy > 0.0);
    }

    #[test]
    fn empty_profile_is_rejected() {
        assert!(matches!(
            SignalSummary::of_profile(&[]),
            Err(PdnError::EmptyProfile)
        ));
    }

    #[test]
    fn monotone_profile_has_no_peak_and_no_q() {
        let profile: Vec<ImpedancePoint> =
            (1..6).map(|i| point(1e6 * i as f64, i as f64)).collect();
        let s = SignalSummary::of_profile(&profile).unwrap();
        assert!(s.peaks.is_empty());
        assert_eq!(s.peak_freq_hz, 0.0);
        assert_eq!(s.q_factor, None);
    }
}
