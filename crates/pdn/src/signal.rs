//! Streaming spectral and entropy analysis of voltage-noise traces.
//!
//! This module turns transient scope traces into *signals*: an
//! iterative radix-2 FFT, streaming Welch power-spectral-density
//! estimation with an associative merge (so partial periodograms
//! compose the same way [`voltnoise_system`-style] telemetry
//! histograms do), windowed autocorrelation, and an
//! NIST-SP800-90B-style entropy estimator battery (most-common-value
//! and Markov min-entropy, repetition-count and adaptive-proportion
//! health checks) over quantized samples.
//!
//! # Determinism and the streaming merge contract
//!
//! Welch accumulation is performed in **fixed-point**: each segment's
//! periodogram bin is converted to an integer count of `2^-60` units
//! and accumulated into a `u128` per bin. Integer addition is exact,
//! so merging partial periodograms is associative, commutative, and
//! bitwise reproducible — any segmentation of a trace into streaming
//! chunks, and any merge tree over partial accumulators, yields the
//! identical final PSD bits. The float result is only materialized at
//! read time ([`WelchPsd::psd`]). The `2^-60` quantum is ~8.7e-19,
//! far below the `f64` noise floor of any periodogram this crate
//! produces, so the quantization is invisible at the precision the
//! analytic ground-truth tests demand.
//!
//! Non-finite samples are the caller's responsibility (the engine
//! validates traces before they reach this module); a NaN periodogram
//! value saturates to zero counts rather than poisoning the
//! accumulator.

use crate::error::PdnError;
use serde::{Deserialize, Serialize};

/// Fixed-point scale for Welch accumulation: one count is `2^-60`.
const PSD_SCALE: f64 = 1152921504606846976.0; // 2^60

/// False-positive rate exponent for the SP800-90B health checks:
/// `alpha = 2^-20`, the value the spec recommends for continuous
/// monitoring.
const HEALTH_ALPHA_EXP: f64 = 20.0;

/// Window length of the adaptive-proportion health check (SP800-90B
/// §4.4.2, non-binary cutoff table's window).
pub const ADAPTIVE_WINDOW: usize = 512;

fn signal_err(reason: impl Into<String>) -> PdnError {
    PdnError::Signal {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

/// Shared radix-2 Cooley–Tukey kernel. `sign` is `-1.0` for the
/// forward transform and `+1.0` for the inverse (no scaling here).
fn transform(re: &mut [f64], im: &mut [f64], sign: f64) -> Result<(), PdnError> {
    let n = re.len();
    if n != im.len() {
        return Err(signal_err(format!(
            "fft real/imag length mismatch: {} vs {}",
            n,
            im.len()
        )));
    }
    if n == 0 || !n.is_power_of_two() {
        return Err(signal_err(format!("fft length {n} is not a power of two")));
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Iterative butterflies. Twiddles are computed directly from the
    // angle (not by recurrence) so round-off does not accumulate with
    // transform size; the Parseval property tests hold to 1e-9
    // relative because of this.
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let ang_step = sign * std::f64::consts::TAU / len as f64;
        let mut i = 0usize;
        while i < n {
            for k in 0..half {
                let ang = ang_step * k as f64;
                let (wi, wr) = ang.sin_cos();
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + half] * wr - im[i + k + half] * wi,
                    re[i + k + half] * wi + im[i + k + half] * wr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + half] = ur - vr;
                im[i + k + half] = ui - vi;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// In-place forward FFT of a complex sequence held as parallel
/// real/imaginary slices. Length must be a power of two.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] if the slices differ in length or the
/// length is not a power of two.
pub fn fft_in_place(re: &mut [f64], im: &mut [f64]) -> Result<(), PdnError> {
    transform(re, im, -1.0)
}

/// In-place inverse FFT (including the `1/n` scaling), the exact
/// round-trip partner of [`fft_in_place`].
///
/// # Errors
///
/// Returns [`PdnError::Signal`] under the same conditions as
/// [`fft_in_place`].
pub fn ifft_in_place(re: &mut [f64], im: &mut [f64]) -> Result<(), PdnError> {
    transform(re, im, 1.0)?;
    let inv = 1.0 / re.len() as f64;
    for v in re.iter_mut() {
        *v *= inv;
    }
    for v in im.iter_mut() {
        *v *= inv;
    }
    Ok(())
}

/// Forward FFT of a real signal: returns `(re, im)` spectra of the
/// same (power-of-two) length as the input.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] if the length is not a power of two.
pub fn rfft(samples: &[f64]) -> Result<(Vec<f64>, Vec<f64>), PdnError> {
    let mut re = samples.to_vec();
    let mut im = vec![0.0; samples.len()];
    fft_in_place(&mut re, &mut im)?;
    Ok((re, im))
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

/// The periodic Hann window of length `n`:
/// `w[i] = 0.5 * (1 - cos(2 pi i / n))`.
///
/// The periodic (DFT-even) form is the right one for spectral
/// averaging; its DC gain `sum(w)/n` is exactly `1/2` and its power
/// gain `sum(w^2)/n` exactly `3/8` in exact arithmetic — the window
/// normalization property tests pin both.
pub fn hann_window(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 * (1.0 - (std::f64::consts::TAU * i as f64 / n as f64).cos()))
        .collect()
}

/// The DC (coherent) gain of a window: `sum(w) / len`.
pub fn window_dc_gain(w: &[f64]) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    w.iter().sum::<f64>() / w.len() as f64
}

/// The power (incoherent) gain of a window: `sum(w^2) / len`. Welch
/// periodograms divide by this so a window never biases total power.
pub fn window_power_gain(w: &[f64]) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    w.iter().map(|v| v * v).sum::<f64>() / w.len() as f64
}

// ---------------------------------------------------------------------------
// Welch PSD
// ---------------------------------------------------------------------------

/// Welch estimator configuration. Two accumulators merge only if
/// their configurations are identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WelchConfig {
    /// Samples per segment; must be a power of two ≥ 4.
    pub segment_len: usize,
    /// Samples shared between consecutive segments (`< segment_len`).
    pub overlap: usize,
    /// Sample rate of the (uniformly sampled) input, in Hz.
    pub sample_rate_hz: f64,
}

impl WelchConfig {
    /// A config with the conventional 50% overlap.
    pub fn half_overlap(segment_len: usize, sample_rate_hz: f64) -> WelchConfig {
        WelchConfig {
            segment_len,
            overlap: segment_len / 2,
            sample_rate_hz,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Signal`] for a non-power-of-two or
    /// too-short segment, an overlap ≥ the segment, or a non-finite /
    /// non-positive sample rate.
    pub fn validate(&self) -> Result<(), PdnError> {
        if self.segment_len < 4 || !self.segment_len.is_power_of_two() {
            return Err(signal_err(format!(
                "segment length {} is not a power of two >= 4",
                self.segment_len
            )));
        }
        if self.overlap >= self.segment_len {
            return Err(signal_err(format!(
                "overlap {} must be smaller than segment length {}",
                self.overlap, self.segment_len
            )));
        }
        if !(self.sample_rate_hz.is_finite() && self.sample_rate_hz > 0.0) {
            return Err(signal_err(format!(
                "sample rate {} must be finite and positive",
                self.sample_rate_hz
            )));
        }
        Ok(())
    }

    /// Samples the stream advances between segments.
    pub fn step(&self) -> usize {
        self.segment_len - self.overlap
    }

    /// Number of one-sided PSD bins (`segment_len / 2 + 1`).
    pub fn bins(&self) -> usize {
        self.segment_len / 2 + 1
    }

    /// Width of one PSD bin in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.sample_rate_hz / self.segment_len as f64
    }
}

/// A merged partial Welch periodogram: fixed-point one-sided PSD sums
/// plus the segment count. This is the *mergeable* object — see the
/// module docs for the exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct WelchPsd {
    cfg: WelchConfig,
    /// Per-bin sums of one-sided periodogram values, in `2^-60` units.
    bins: Vec<u128>,
    segments: u64,
}

impl WelchPsd {
    /// An empty accumulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Signal`] if `cfg` is invalid.
    pub fn new(cfg: WelchConfig) -> Result<WelchPsd, PdnError> {
        cfg.validate()?;
        Ok(WelchPsd {
            cfg,
            bins: vec![0u128; cfg.bins()],
            segments: 0,
        })
    }

    /// The configuration this accumulator was built with.
    pub fn config(&self) -> &WelchConfig {
        &self.cfg
    }

    /// Segments averaged so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Merges another partial periodogram into this one. Element-wise
    /// saturating integer addition: associative, commutative, and
    /// segment-count-preserving (saturation is unreachable for any
    /// physical trace; it would take ~10^18 full-scale segments).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Signal`] when the configurations differ —
    /// periodograms from different segmentations are not comparable.
    pub fn merge(&mut self, other: &WelchPsd) -> Result<(), PdnError> {
        if self.cfg != other.cfg {
            return Err(signal_err(
                "cannot merge Welch accumulators with different configs",
            ));
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
        self.segments = self.segments.saturating_add(other.segments);
        Ok(())
    }

    /// The averaged one-sided PSD in V²/Hz (empty if no segment has
    /// completed). `sum(psd) * bin_hz` estimates the windowed signal's
    /// mean power.
    pub fn psd(&self) -> Vec<f64> {
        if self.segments == 0 {
            return vec![0.0; self.bins.len()];
        }
        let inv = 1.0 / (PSD_SCALE * self.segments as f64);
        self.bins.iter().map(|&b| b as f64 * inv).collect()
    }

    /// The strongest non-DC bin as `(freq_hz, psd_value)`, or `None`
    /// when no segment has completed.
    pub fn peak(&self) -> Option<(f64, f64)> {
        if self.segments == 0 {
            return None;
        }
        let psd = self.psd();
        let df = self.cfg.bin_hz();
        psd.iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, &v)| (k as f64 * df, v))
    }

    /// The strongest bin whose center frequency lies in
    /// `[f_lo_hz, f_hi_hz]` (DC excluded), as `(freq_hz, psd_value)`.
    /// Traces that include a turn-on transient carry large drift
    /// energy in the first bins, so resonance hunting restricts the
    /// search to the band of interest.
    pub fn peak_in_band(&self, f_lo_hz: f64, f_hi_hz: f64) -> Option<(f64, f64)> {
        if self.segments == 0 {
            return None;
        }
        let df = self.cfg.bin_hz();
        let psd = self.psd();
        psd.iter()
            .enumerate()
            .skip(1)
            .filter(|(k, _)| {
                let f = *k as f64 * df;
                f >= f_lo_hz && f <= f_hi_hz
            })
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, &v)| (k as f64 * df, v))
    }

    /// Total power in the band `[f_lo_hz, f_hi_hz]` (inclusive of bins
    /// whose center frequency falls in the band), in V².
    pub fn band_power(&self, f_lo_hz: f64, f_hi_hz: f64) -> f64 {
        let df = self.cfg.bin_hz();
        self.psd()
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = *k as f64 * df;
                f >= f_lo_hz && f <= f_hi_hz
            })
            .map(|(_, &v)| v * df)
            .sum()
    }

    /// Half-power quality factor of the strongest peak: the peak
    /// frequency divided by the width of the interval where the PSD
    /// stays above half the peak value (linearly interpolated at the
    /// crossings). `None` when there is no usable peak or the peak
    /// never falls to half power inside the spectrum.
    pub fn q_factor(&self) -> Option<f64> {
        let psd = self.psd();
        let df = self.cfg.bin_hz();
        let (k_peak, &v_peak) = psd
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        if v_peak <= 0.0 {
            return None;
        }
        let half = v_peak / 2.0;
        // Walk left and right until the PSD drops below half power,
        // interpolating the crossing between bins.
        let crossing = |mut k: usize, step: isize| -> Option<f64> {
            loop {
                let next = k as isize + step;
                if next < 0 || next as usize >= psd.len() {
                    return None;
                }
                let nk = next as usize;
                if psd[nk] <= half {
                    let frac = (psd[k] - half) / (psd[k] - psd[nk]);
                    return Some((k as f64 + frac * step as f64) * df);
                }
                k = nk;
            }
        };
        let f_lo = crossing(k_peak, -1)?;
        let f_hi = crossing(k_peak, 1)?;
        let width = f_hi - f_lo;
        if width > 0.0 {
            Some(k_peak as f64 * df / width)
        } else {
            None
        }
    }
}

/// Streaming Welch front-end over one contiguous sample stream. Feed
/// chunks of any size with [`WelchStream::push`]; complete segments
/// are periodogrammed as they fill, so any chunking of the same
/// stream produces the identical accumulator bits.
#[derive(Debug, Clone)]
pub struct WelchStream {
    psd: WelchPsd,
    window: Vec<f64>,
    /// Per-bin periodogram scale: `(1 or 2) / (fs * sum(w^2))`.
    scale: Vec<f64>,
    buf: Vec<f64>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl WelchStream {
    /// An empty stream for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Signal`] if `cfg` is invalid.
    pub fn new(cfg: WelchConfig) -> Result<WelchStream, PdnError> {
        let psd = WelchPsd::new(cfg)?;
        let window = hann_window(cfg.segment_len);
        let wpow: f64 = window.iter().map(|v| v * v).sum();
        let base = 1.0 / (cfg.sample_rate_hz * wpow);
        let bins = cfg.bins();
        let scale = (0..bins)
            .map(|k| {
                // One-sided folding doubles interior bins; DC and
                // Nyquist appear once.
                if k == 0 || k == bins - 1 {
                    base
                } else {
                    2.0 * base
                }
            })
            .collect();
        Ok(WelchStream {
            psd,
            window,
            scale,
            buf: Vec::new(),
            re: vec![0.0; cfg.segment_len],
            im: vec![0.0; cfg.segment_len],
        })
    }

    /// Appends samples, folding every segment that completes into the
    /// accumulator.
    pub fn push(&mut self, samples: &[f64]) {
        self.buf.extend_from_slice(samples);
        let seg = self.psd.cfg.segment_len;
        let step = self.psd.cfg.step();
        while self.buf.len() >= seg {
            // self.buf[..seg] is a full segment by the loop guard; the
            // helper never fails because lengths were fixed at new().
            Self::accumulate_segment(
                &mut self.psd,
                &self.window,
                &self.scale,
                &mut self.re,
                &mut self.im,
                &self.buf[..seg],
            );
            self.buf.drain(..step);
        }
    }

    /// Samples currently buffered waiting for a full segment.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Finishes the stream, discarding any partial trailing segment
    /// (Welch averages whole segments only), and returns the
    /// mergeable accumulator.
    pub fn finish(self) -> WelchPsd {
        self.psd
    }

    fn accumulate_segment(
        psd: &mut WelchPsd,
        window: &[f64],
        scale: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        segment: &[f64],
    ) {
        for ((r, s), w) in re.iter_mut().zip(segment).zip(window) {
            *r = s * w;
        }
        for v in im.iter_mut() {
            *v = 0.0;
        }
        // Infallible: lengths are powers of two fixed at construction.
        if transform(re, im, -1.0).is_err() {
            return;
        }
        for (k, (b, sc)) in psd.bins.iter_mut().zip(scale).enumerate() {
            let p = (re[k] * re[k] + im[k] * im[k]) * sc;
            // NaN and negatives saturate to 0; huge values clamp.
            *b = b.saturating_add((p * PSD_SCALE) as u128);
        }
        psd.segments = psd.segments.saturating_add(1);
    }
}

/// Batch Welch PSD of a full in-memory signal. Arithmetic, segment
/// order, and accumulation are identical to [`WelchStream`], so the
/// result is bitwise equal to streaming the same samples in any
/// chunking — the batch path merely avoids the stream's buffering.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] if `cfg` is invalid.
pub fn welch_psd(samples: &[f64], cfg: WelchConfig) -> Result<WelchPsd, PdnError> {
    let mut stream = WelchStream::new(cfg)?;
    let seg = cfg.segment_len;
    let step = cfg.step();
    let mut start = 0usize;
    while start + seg <= samples.len() {
        WelchStream::accumulate_segment(
            &mut stream.psd,
            &stream.window,
            &stream.scale,
            &mut stream.re,
            &mut stream.im,
            &samples[start..start + seg],
        );
        start += step;
    }
    Ok(stream.psd)
}

// ---------------------------------------------------------------------------
// Autocorrelation
// ---------------------------------------------------------------------------

/// Biased, normalized autocorrelation of a (mean-removed) window:
/// `r[k] = sum(d[i] d[i+k]) / sum(d[i]^2)` for `k` in `0..=max_lag`,
/// so `r[0] == 1`.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for an empty input, `max_lag >= len`,
/// or a zero-variance (constant) window, whose autocorrelation is
/// undefined.
pub fn autocorrelation(x: &[f64], max_lag: usize) -> Result<Vec<f64>, PdnError> {
    if x.is_empty() {
        return Err(signal_err("autocorrelation of an empty window"));
    }
    if max_lag >= x.len() {
        return Err(signal_err(format!(
            "max lag {} must be smaller than window length {}",
            max_lag,
            x.len()
        )));
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    let d: Vec<f64> = x.iter().map(|v| v - mean).collect();
    let r0: f64 = d.iter().map(|v| v * v).sum();
    if !r0.is_finite() || r0 <= 0.0 {
        return Err(signal_err(
            "autocorrelation of a constant (zero-variance) window is undefined",
        ));
    }
    Ok((0..=max_lag)
        .map(|k| d.iter().zip(&d[k..]).map(|(a, b)| a * b).sum::<f64>() / r0)
        .collect())
}

// ---------------------------------------------------------------------------
// Resampling and band filtering
// ---------------------------------------------------------------------------

/// Linearly resamples a (strictly-increasing, possibly non-uniform)
/// `(times, values)` trace onto a uniform `n`-point grid spanning the
/// same interval. Returns `(sample_rate_hz, samples)`. The adaptive
/// transient solver emits two-rate timestamps, so every spectral path
/// resamples before transforming.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for mismatched or too-short inputs,
/// `n < 2`, non-finite times, or non-increasing times.
pub fn resample_uniform(
    times: &[f64],
    values: &[f64],
    n: usize,
) -> Result<(f64, Vec<f64>), PdnError> {
    if times.len() != values.len() {
        return Err(signal_err(format!(
            "times/values length mismatch: {} vs {}",
            times.len(),
            values.len()
        )));
    }
    if times.len() < 2 {
        return Err(signal_err("resampling needs at least two samples"));
    }
    if n < 2 {
        return Err(signal_err("resampling needs at least two output points"));
    }
    for w in times.windows(2) {
        if !w[0].is_finite() || !w[1].is_finite() || w[1] <= w[0] {
            return Err(signal_err(
                "trace times must be finite and strictly increasing",
            ));
        }
    }
    let t0 = times[0];
    let t1 = times[times.len() - 1];
    let dt = (t1 - t0) / (n - 1) as f64;
    let mut out = Vec::with_capacity(n);
    let mut j = 0usize;
    for i in 0..n {
        let t = if i == n - 1 { t1 } else { t0 + dt * i as f64 };
        while j + 2 < times.len() && times[j + 1] < t {
            j += 1;
        }
        let (ta, tb) = (times[j], times[j + 1]);
        let frac = ((t - ta) / (tb - ta)).clamp(0.0, 1.0);
        out.push(values[j] + frac * (values[j + 1] - values[j]));
    }
    Ok((1.0 / dt, out))
}

/// Zero-phase brick-wall band-pass: FFT (zero-padded to the next
/// power of two), zero every bin whose frequency lies outside
/// `[f_lo_hz, f_hi_hz]`, inverse FFT, truncate to the input length.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for an empty input or a non-positive
/// sample rate.
pub fn band_filter(
    samples: &[f64],
    sample_rate_hz: f64,
    f_lo_hz: f64,
    f_hi_hz: f64,
) -> Result<Vec<f64>, PdnError> {
    if samples.is_empty() {
        return Err(signal_err("band filter of an empty signal"));
    }
    if !(sample_rate_hz.is_finite() && sample_rate_hz > 0.0) {
        return Err(signal_err("band filter needs a positive sample rate"));
    }
    let m = samples.len().next_power_of_two();
    let mut re = samples.to_vec();
    re.resize(m, 0.0);
    let mut im = vec![0.0; m];
    fft_in_place(&mut re, &mut im)?;
    let df = sample_rate_hz / m as f64;
    for k in 0..m {
        let f = if k <= m / 2 { k } else { m - k } as f64 * df;
        if f < f_lo_hz || f > f_hi_hz {
            re[k] = 0.0;
            im[k] = 0.0;
        }
    }
    ifft_in_place(&mut re, &mut im)?;
    re.truncate(samples.len());
    Ok(re)
}

// ---------------------------------------------------------------------------
// Quantization and SP800-90B-style entropy estimators
// ---------------------------------------------------------------------------

/// Quantizes samples into `2^bits` uniform levels spanning the
/// sample min–max range (`bits` in `1..=8`). A constant signal maps
/// to all zeros.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for an empty input, `bits` outside
/// `1..=8`, or non-finite samples.
pub fn quantize(x: &[f64], bits: u32) -> Result<Vec<u8>, PdnError> {
    if x.is_empty() {
        return Err(signal_err("quantizing an empty signal"));
    }
    if bits == 0 || bits > 8 {
        return Err(signal_err(format!("quantizer width {bits} must be 1..=8")));
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in x {
        if !v.is_finite() {
            return Err(signal_err("quantizing a non-finite sample"));
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let levels = 1u32 << bits;
    if hi <= lo {
        return Ok(vec![0u8; x.len()]);
    }
    let scale = levels as f64 / (hi - lo);
    Ok(x.iter()
        .map(|&v| (((v - lo) * scale) as u32).min(levels - 1) as u8)
        .collect())
}

/// SP800-90B §6.3.1 most-common-value min-entropy estimate, in
/// bits/sample: `-log2(p_u)` where `p_u` is the 99% upper confidence
/// bound on the most common symbol's probability.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for fewer than two symbols.
pub fn mcv_min_entropy(sym: &[u8]) -> Result<f64, PdnError> {
    if sym.len() < 2 {
        return Err(signal_err("MCV estimator needs at least two symbols"));
    }
    let mut counts = [0u64; 256];
    for &s in sym {
        counts[s as usize] += 1;
    }
    let n = sym.len() as f64;
    let c_max = counts.iter().copied().max().unwrap_or(0) as f64;
    let p_hat = c_max / n;
    let p_u = (p_hat + 2.576 * (p_hat * (1.0 - p_hat) / (n - 1.0)).sqrt()).min(1.0);
    Ok((-p_u.log2()).max(0.0))
}

/// SP800-90B §6.3.3-style Markov min-entropy estimate generalized to
/// the observed alphabet: the min-entropy per sample implied by the
/// most probable length-128 path through the empirical first-order
/// Markov chain, capped at `log2(alphabet)` bits.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for fewer than two symbols.
pub fn markov_min_entropy(sym: &[u8]) -> Result<f64, PdnError> {
    const PATH_LEN: usize = 128;
    if sym.len() < 2 {
        return Err(signal_err("Markov estimator needs at least two symbols"));
    }
    // Dense re-indexing of the observed alphabet.
    let mut index = [usize::MAX; 256];
    let mut k = 0usize;
    for &s in sym {
        if index[s as usize] == usize::MAX {
            index[s as usize] = k;
            k += 1;
        }
    }
    if k == 1 {
        return Ok(0.0);
    }
    let mut initial = vec![0u64; k];
    let mut trans = vec![0u64; k * k];
    for &s in sym {
        initial[index[s as usize]] += 1;
    }
    for w in sym.windows(2) {
        trans[index[w[0] as usize] * k + index[w[1] as usize]] += 1;
    }
    let n = sym.len() as f64;
    // log2 probabilities; empty transition rows stay -inf.
    let log_init: Vec<f64> = initial.iter().map(|&c| (c as f64 / n).log2()).collect();
    let log_trans: Vec<f64> = (0..k * k)
        .map(|ij| {
            let row: u64 = trans[ij / k * k..ij / k * k + k].iter().sum();
            if row == 0 {
                f64::NEG_INFINITY
            } else {
                (trans[ij] as f64 / row as f64).log2()
            }
        })
        .collect();
    // Most probable length-PATH_LEN path, by dynamic programming.
    let mut best = log_init;
    for _ in 1..PATH_LEN {
        let mut next = vec![f64::NEG_INFINITY; k];
        for (j, nj) in next.iter_mut().enumerate() {
            for i in 0..k {
                let cand = best[i] + log_trans[i * k + j];
                if cand > *nj {
                    *nj = cand;
                }
            }
        }
        best = next;
    }
    let log_p_max = best.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let h = if log_p_max.is_finite() {
        -log_p_max / PATH_LEN as f64
    } else {
        (k as f64).log2()
    };
    Ok(h.clamp(0.0, (k as f64).log2()))
}

/// SP800-90B §4.4.1 repetition-count health check at `alpha = 2^-20`:
/// fails (returns `false`) if any symbol repeats for at least
/// `1 + ceil(20 / h_bits)` consecutive samples. A non-positive
/// entropy claim makes the cutoff unbounded, so the check passes
/// vacuously — a weak claim gets a weak check, as in the spec.
pub fn repetition_count_ok(sym: &[u8], h_bits: f64) -> bool {
    if sym.len() < 2 || h_bits.is_nan() || h_bits <= 0.0 {
        return true;
    }
    let cutoff = 1.0 + (HEALTH_ALPHA_EXP / h_bits).ceil();
    let mut run = 1u64;
    for w in sym.windows(2) {
        run = if w[0] == w[1] { run + 1 } else { 1 };
        if run as f64 >= cutoff {
            return false;
        }
    }
    true
}

/// Smallest cutoff `c` with `P[Binomial(w, p) >= c] < 2^-20`,
/// computed from the exact binomial tail in log space.
fn binomial_cutoff(w: usize, p: f64) -> usize {
    let p = p.clamp(1e-9, 1.0 - 1e-9);
    let alpha = (2.0f64).powi(-20);
    // ln(k!) by direct summation; w is small (the 512-sample window).
    let mut ln_fact = vec![0.0f64; w + 1];
    for k in 1..=w {
        ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let mut tail = 0.0f64;
    for k in (0..=w).rev() {
        let ln_pmf =
            ln_fact[w] - ln_fact[k] - ln_fact[w - k] + k as f64 * ln_p + (w - k) as f64 * ln_q;
        tail += ln_pmf.exp();
        if tail >= alpha {
            return k + 1;
        }
    }
    1
}

/// SP800-90B §4.4.2 adaptive-proportion health check at
/// `alpha = 2^-20` over non-overlapping [`ADAPTIVE_WINDOW`]-sample
/// windows: fails if the first symbol of any window occurs at least
/// `binomial_cutoff(W, 2^-h)` times within it. Passes vacuously when
/// the sequence is shorter than one window.
pub fn adaptive_proportion_ok(sym: &[u8], h_bits: f64) -> bool {
    let w = ADAPTIVE_WINDOW;
    if sym.len() < w {
        return true;
    }
    let p = (2.0f64).powf(-h_bits.max(0.0));
    let cutoff = binomial_cutoff(w, p);
    for chunk in sym.chunks_exact(w) {
        let reference = chunk[0];
        let count = chunk.iter().filter(|&&s| s == reference).count();
        if count >= cutoff {
            return false;
        }
    }
    true
}

/// The full estimator battery over one quantized symbol sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EntropyReport {
    /// Symbols assessed.
    pub symbols: usize,
    /// Distinct symbols observed.
    pub distinct: usize,
    /// Most-common-value min-entropy estimate, bits/sample.
    pub mcv_bits: f64,
    /// Markov min-entropy estimate, bits/sample.
    pub markov_bits: f64,
    /// The assessed min-entropy: the minimum of the estimators.
    pub min_entropy_bits: f64,
    /// Repetition-count health check at the assessed entropy.
    pub repetition_ok: bool,
    /// Adaptive-proportion health check at the assessed entropy.
    pub adaptive_ok: bool,
}

/// Runs every estimator and health check over one symbol sequence.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] for fewer than two symbols.
pub fn entropy_report(sym: &[u8]) -> Result<EntropyReport, PdnError> {
    let mcv = mcv_min_entropy(sym)?;
    let markov = markov_min_entropy(sym)?;
    let h = mcv.min(markov);
    let mut distinct = [false; 256];
    for &s in sym {
        distinct[s as usize] = true;
    }
    Ok(EntropyReport {
        symbols: sym.len(),
        distinct: distinct.iter().filter(|&&d| d).count(),
        mcv_bits: mcv,
        markov_bits: markov,
        min_entropy_bits: h,
        repetition_ok: repetition_count_ok(sym, h),
        adaptive_ok: adaptive_proportion_ok(sym, h),
    })
}

// ---------------------------------------------------------------------------
// Trace-level convenience
// ---------------------------------------------------------------------------

/// A compact spectral/entropy signature of one uniformly resampled
/// trace: the quantities the engine tracks per solved job and the
/// server summarizes under `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSignature {
    /// Strongest non-DC PSD peak frequency, Hz.
    pub peak_freq_hz: f64,
    /// PSD value at the peak, V²/Hz.
    pub peak_psd: f64,
    /// Power in the die-resonance band (1–5 MHz), V².
    pub band_power: f64,
    /// MCV/Markov assessed min-entropy of 3-bit-quantized samples,
    /// bits/sample.
    pub min_entropy_bits: f64,
}

/// Number of uniform samples traces are resampled to before the
/// engine computes a [`TraceSignature`].
pub const SIGNATURE_SAMPLES: usize = 1024;

/// Welch segment length used by [`trace_signature`].
pub const SIGNATURE_SEGMENT: usize = 256;

/// Die-resonance band assessed by [`trace_signature`] (Hz).
pub const DIE_BAND_HZ: (f64, f64) = (1.0e6, 5.0e6);

/// Lower edge of [`trace_signature`]'s peak search (Hz) — the same
/// board/die boundary the impedance experiments use, so turn-on
/// drift in the first bins never masquerades as a resonance.
pub const SIGNATURE_PEAK_MIN_HZ: f64 = 5.0e5;

/// Computes the standard signature of one `(times, volts)` trace:
/// resample to [`SIGNATURE_SAMPLES`] points, Welch PSD at
/// [`SIGNATURE_SEGMENT`]/50% overlap, 3-bit quantization for the
/// entropy battery.
///
/// # Errors
///
/// Returns [`PdnError::Signal`] if the trace is too short or
/// malformed to resample.
pub fn trace_signature(times: &[f64], volts: &[f64]) -> Result<TraceSignature, PdnError> {
    let (fs, samples) = resample_uniform(times, volts, SIGNATURE_SAMPLES)?;
    let psd = welch_psd(&samples, WelchConfig::half_overlap(SIGNATURE_SEGMENT, fs))?;
    let (peak_freq_hz, peak_psd) = psd
        .peak_in_band(SIGNATURE_PEAK_MIN_HZ, fs / 2.0)
        .or_else(|| psd.peak())
        .unwrap_or((0.0, 0.0));
    let band_power = psd.band_power(DIE_BAND_HZ.0, DIE_BAND_HZ.1);
    let min_entropy_bits = match quantize(&samples, 3) {
        Ok(sym) => entropy_report(&sym)
            .map(|r| r.min_entropy_bits)
            .unwrap_or(0.0),
        Err(_) => 0.0,
    };
    Ok(TraceSignature {
        peak_freq_hz,
        peak_psd,
        band_power,
        min_entropy_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut re = vec![0.0; 6];
        let mut im = vec![0.0; 6];
        assert!(matches!(
            fft_in_place(&mut re, &mut im),
            Err(PdnError::Signal { .. })
        ));
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im).unwrap();
        for k in 0..8 {
            assert!((re[k] - 1.0).abs() < 1e-12 && im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_single_tone_concentrates_in_one_bin() {
        let n = 64;
        let samples: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * 5.0 * i as f64 / n as f64).cos())
            .collect();
        let (re, im) = rfft(&samples).unwrap();
        let mags: Vec<f64> = re
            .iter()
            .zip(&im)
            .map(|(r, i)| (r * r + i * i).sqrt())
            .collect();
        assert!((mags[5] - n as f64 / 2.0).abs() < 1e-9);
        for (k, &m) in mags.iter().enumerate() {
            if k != 5 && k != n - 5 {
                assert!(m < 1e-9, "bin {k} leaked {m}");
            }
        }
    }

    #[test]
    fn welch_stream_chunking_is_bitwise_invariant() {
        let mut rng = SmallRng::seed_from_u64(0x516);
        let samples: Vec<f64> = (0..2000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cfg = WelchConfig::half_overlap(128, 1e6);
        let batch = welch_psd(&samples, cfg).unwrap();
        for chunk in [1usize, 7, 100, 128, 1999] {
            let mut s = WelchStream::new(cfg).unwrap();
            for c in samples.chunks(chunk) {
                s.push(c);
            }
            assert_eq!(s.finish(), batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn quantize_and_entropy_edge_cases() {
        assert!(quantize(&[], 3).is_err());
        assert!(quantize(&[1.0], 0).is_err());
        assert!(quantize(&[f64::NAN], 3).is_err());
        assert_eq!(quantize(&[2.5, 2.5, 2.5], 3).unwrap(), vec![0, 0, 0]);
        let constant = vec![4u8; 100];
        assert_eq!(mcv_min_entropy(&constant).unwrap(), 0.0);
        assert_eq!(markov_min_entropy(&constant).unwrap(), 0.0);
        assert!(mcv_min_entropy(&[1]).is_err());
    }

    #[test]
    fn repetition_check_catches_stuck_source() {
        let mut sym: Vec<u8> = (0..200u32).map(|i| (i % 7) as u8).collect();
        assert!(repetition_count_ok(&sym, 1.0));
        sym.extend(std::iter::repeat_n(3u8, 50));
        assert!(!repetition_count_ok(&sym, 1.0));
    }

    #[test]
    fn adaptive_check_catches_heavy_bias() {
        let mut rng = SmallRng::seed_from_u64(0xadaf);
        let fair: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..2u8)).collect();
        assert!(adaptive_proportion_ok(&fair, 1.0));
        // 95%-biased stream claimed at 1 bit/sample must trip.
        let biased: Vec<u8> = (0..4096)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.95 {
                    0u8
                } else {
                    1u8
                }
            })
            .collect();
        assert!(!adaptive_proportion_ok(&biased, 1.0));
    }

    #[test]
    fn resample_recovers_uniform_signal() {
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 1e-6).collect();
        let volts: Vec<f64> = times.iter().map(|t| t * 2.0).collect();
        let (fs, out) = resample_uniform(&times, &volts, 100).unwrap();
        assert!((fs - 1e6).abs() / 1e6 < 1e-9);
        for (a, b) in out.iter().zip(&volts) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn band_filter_isolates_tone() {
        let fs = 1e6;
        let n = 1024;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * 1e4 * t).sin()
                    + 0.5 * (std::f64::consts::TAU * 2e5 * t).sin()
            })
            .collect();
        let hi = band_filter(&samples, fs, 1.5e5, 3e5).unwrap();
        // The high tone survives, the low tone is attenuated.
        let power = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        assert!(
            power(&hi) > 0.08 && power(&hi) < 0.2,
            "power {}",
            power(&hi)
        );
    }

    #[test]
    fn q_factor_of_narrow_peak_is_large() {
        let fs = 10e6;
        let f0 = 2.5e6;
        let n = 1 << 14;
        let mut rng = SmallRng::seed_from_u64(0x9fac);
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::TAU * f0 * i as f64 / fs).sin() + 0.01 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        let psd = welch_psd(&samples, WelchConfig::half_overlap(512, fs)).unwrap();
        let (f_peak, _) = psd.peak().unwrap();
        assert!((f_peak - f0).abs() <= psd.config().bin_hz());
        let q = psd.q_factor().unwrap();
        assert!(q > 10.0, "q = {q}");
    }
}
