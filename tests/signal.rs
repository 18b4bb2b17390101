//! Integration suite for `voltnoise::pdn::signal`: the streaming
//! spectral + entropy pipeline verified against *analytic* ground
//! truths — Parseval's identity, closed-form sinusoid spectra,
//! white-vs-AR(1) autocorrelation, and the known min-entropy of
//! constructed symbol distributions — plus the golden byte-identity
//! guards that pin the reduced report and the resonance-entropy study.
//!
//! The one `#[ignore]`d test is a wall-clock bound, run in release by
//! `scripts/check.sh` with `--ignored`.

#[path = "golden/mod.rs"]
mod golden;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voltnoise::pdn::signal::{
    autocorrelation, entropy_report, fft_in_place, ifft_in_place, markov_min_entropy,
    mcv_min_entropy, welch_psd, WelchConfig, WelchPsd, WelchStream,
};

/// Runs `body` for `cases` deterministic seeded cases.
fn check(cases: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(0x516_4A1 ^ (case << 8));
        body(&mut rng);
    }
}

fn noise_vec(rng: &mut SmallRng, amp: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-amp..amp)).collect()
}

/// Forward-then-inverse FFT recovers any random signal, and the
/// transform preserves energy (Parseval: `Σ|x|² = (1/N)·Σ|X|²`) — both
/// to 1e-9 relative.
#[test]
fn fft_round_trip_and_parseval_hold_on_random_signals() {
    check(24, |rng| {
        let n = 1usize << rng.gen_range(4..11);
        let re0 = noise_vec(rng, 2.0, n);
        let im0 = noise_vec(rng, 2.0, n);
        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_in_place(&mut re, &mut im).unwrap();

        let time_energy: f64 = re0.iter().zip(&im0).map(|(a, b)| a * a + b * b).sum();
        let freq_energy: f64 =
            re.iter().zip(&im).map(|(a, b)| a * a + b * b).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() <= 1e-9 * time_energy,
            "Parseval violated at n={n}: {time_energy} vs {freq_energy}"
        );

        ifft_in_place(&mut re, &mut im).unwrap();
        let scale = re0.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        for i in 0..n {
            assert!(
                (re[i] - re0[i]).abs() <= 1e-9 * scale && (im[i] - im0[i]).abs() <= 1e-9 * scale,
                "round-trip drift at n={n}, i={i}"
            );
        }
    });
}

/// A sinusoid in white noise: the Welch peak lands within one bin of
/// the true frequency (even off bin centers), and the integrated PSD
/// recovers the total mean power `A²/2 + σ²` of the analytic signal.
#[test]
fn welch_locates_a_sinusoid_to_one_bin_and_conserves_power() {
    check(12, |rng| {
        let fs = 1.0e6;
        let segment = 256usize;
        let cfg = WelchConfig::half_overlap(segment, fs);
        let bin_hz = cfg.bin_hz();
        // A tone well inside the band, deliberately off bin centers.
        let f0 = rng.gen_range(20.0e3..400.0e3) + 0.37 * bin_hz;
        let amp = rng.gen_range(0.5..2.0);
        let noise_amp = 0.02;
        let n = 8192usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                amp * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin()
                    + rng.gen_range(-noise_amp..noise_amp)
            })
            .collect();
        let psd = welch_psd(&samples, cfg).unwrap();

        let (f_peak, _) = psd.peak().expect("tone must produce a peak");
        assert!(
            (f_peak - f0).abs() <= bin_hz,
            "peak at {f_peak:.1} Hz, tone at {f0:.1} Hz, bin {bin_hz:.1} Hz"
        );

        // Parseval for the estimator: total integrated PSD ≈ mean power.
        let truth = amp * amp / 2.0 + noise_amp * noise_amp / 3.0;
        let total = psd.band_power(0.0, fs / 2.0);
        assert!(
            (total - truth).abs() <= 0.05 * truth,
            "integrated PSD {total:.4e} vs analytic power {truth:.4e}"
        );

        // A clean tone is a sharp, resolution-limited resonance.
        let q = psd.q_factor().expect("tone peak has a measurable width");
        assert!(q > 5.0, "q = {q}");
    });
}

/// Autocorrelation separates white noise (no lag-1 memory) from an
/// AR(1) process, whose lag-k autocorrelation is analytically `φᵏ`.
#[test]
fn autocorrelation_tells_white_noise_from_ar1() {
    check(8, |rng| {
        let n = 16384usize;
        let white = noise_vec(rng, 1.0, n);
        let r_white = autocorrelation(&white, 4).unwrap();
        assert_eq!(r_white[0], 1.0);
        assert!(
            r_white[1].abs() < 0.05,
            "white noise lag-1 correlation {}",
            r_white[1]
        );

        let phi = 0.8;
        let mut ar = Vec::with_capacity(n);
        let mut prev = 0.0f64;
        for _ in 0..n {
            prev = phi * prev + rng.gen_range(-1.0..1.0);
            ar.push(prev);
        }
        let r_ar = autocorrelation(&ar, 4).unwrap();
        for (lag, truth) in [(1usize, phi), (2, phi * phi), (3, phi * phi * phi)] {
            assert!(
                (r_ar[lag] - truth).abs() < 0.05,
                "AR(1) lag-{lag} correlation {} vs analytic {truth}",
                r_ar[lag]
            );
        }
    });
}

/// The estimator battery against distributions with known min-entropy:
/// a fair coin carries 1 bit/sample (within 2%), a 75/25 coin exactly
/// `-log2(0.75) ≈ 0.415` bits, a constant source 0 bits, and a uniform
/// 8-symbol source `log2(8) = 3` bits (within 3%, the estimators'
/// confidence bounds are deliberately conservative).
#[test]
fn min_entropy_matches_closed_forms() {
    let mut rng = SmallRng::seed_from_u64(0x90B);
    let n = 1usize << 17;

    let fair: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect();
    let fair_report = entropy_report(&fair).unwrap();
    assert!(
        (fair_report.min_entropy_bits - 1.0).abs() < 0.02,
        "fair coin assessed at {} bits/sample",
        fair_report.min_entropy_bits
    );
    assert!(fair_report.repetition_ok && fair_report.adaptive_ok);

    let biased: Vec<u8> = (0..n)
        .map(|_| u8::from(rng.gen_range(0..4u32) == 0))
        .collect();
    let truth = -(0.75f64).log2();
    let biased_h = mcv_min_entropy(&biased).unwrap();
    assert!(
        (biased_h - truth).abs() < 0.05 * truth,
        "75/25 coin assessed at {biased_h} bits vs analytic {truth}"
    );

    let constant = vec![3u8; n];
    assert_eq!(mcv_min_entropy(&constant).unwrap(), 0.0);
    assert_eq!(markov_min_entropy(&constant).unwrap(), 0.0);

    let uniform: Vec<u8> = (0..n).map(|_| rng.gen_range(0..8u32) as u8).collect();
    let uniform_report = entropy_report(&uniform).unwrap();
    assert_eq!(uniform_report.distinct, 8);
    assert!(
        (uniform_report.min_entropy_bits - 3.0).abs() < 0.03 * 3.0,
        "uniform octal source assessed at {} bits/sample",
        uniform_report.min_entropy_bits
    );
}

/// Streaming and batch Welch agree *bitwise* regardless of how the
/// sample stream is chunked: the fixed-point accumulator makes the
/// merge exact, so `WelchStream` is a drop-in for `welch_psd`.
#[test]
fn streaming_welch_is_bitwise_identical_to_batch() {
    check(10, |rng| {
        let cfg = WelchConfig::half_overlap(128, 2.0e6);
        let n = rng.gen_range(300usize..6000);
        let samples = noise_vec(rng, 1.5, n);
        let batch = welch_psd(&samples, cfg).unwrap();

        let mut stream = WelchStream::new(cfg).unwrap();
        let mut fed = 0usize;
        while fed < n {
            let chunk = rng.gen_range(1usize..700).min(n - fed);
            stream.push(&samples[fed..fed + chunk]);
            fed += chunk;
        }
        // PartialEq covers config, segment count and every fixed-point
        // bin — bit-for-bit.
        assert_eq!(stream.finish(), batch);
    });
}

/// Segment length of the Welch runs over the stressmark trace.
const TRACE_SEGMENT_LEN: usize = 1024;

/// Ceiling on streaming Welch's median wall time relative to batch's:
/// both run the same per-segment arithmetic, the stream adds only
/// buffer management.
const MAX_STREAM_OVERHEAD: f64 = 1.2;

/// The 100 µs core-0 scope trace of the 2.5 MHz all-core stressmark,
/// resampled to 16 384 uniform points and tiled 16 times, so one Welch
/// run averages a few hundred segments. Returns the sample rate and the
/// samples.
fn stressmark_trace_samples() -> (f64, Vec<f64>) {
    use voltnoise::pdn::signal::resample_uniform;
    use voltnoise::prelude::*;
    let tb = Testbed::fast();
    let sm = tb.max_stressmark(2.5e6, None);
    let loads: [CoreLoad; NUM_CORES] = std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
    let job = SimJob::batch(tb.chip()).job(
        loads,
        NoiseRunConfig {
            window_s: Some(100e-6),
            record_traces: true,
            seed: 1,
            ..NoiseRunConfig::default()
        },
    );
    let outcomes = Engine::with_workers(1)
        .run_jobs(std::slice::from_ref(&job))
        .unwrap();
    let capture = outcomes[0].traces.as_ref().expect("the job records traces");
    let volts = capture.channel(0).expect("the job probes core 0");
    let (fs, base) = resample_uniform(capture.times(), volts, 16_384).unwrap();
    (fs, base.repeat(16))
}

/// Streaming `samples` in 4 096-sample chunks.
fn stream_in_chunks(samples: &[f64], cfg: WelchConfig) -> WelchPsd {
    let mut stream = WelchStream::new(cfg).unwrap();
    for chunk in samples.chunks(4096) {
        stream.push(chunk);
    }
    stream.finish()
}

/// On a real die signal, streaming and batch Welch agree to the bit,
/// and the PSD's strongest peak at or above 500 kHz is the die
/// resonance the 2.5 MHz stressmark excites, in [1, 5) MHz.
#[test]
fn streaming_welch_matches_batch_on_a_stressmark_trace() {
    let (fs, samples) = stressmark_trace_samples();
    let cfg = WelchConfig::half_overlap(TRACE_SEGMENT_LEN, fs);
    let batch = welch_psd(&samples, cfg).unwrap();
    assert_eq!(
        stream_in_chunks(&samples, cfg),
        batch,
        "stream and batch Welch PSDs must match bitwise"
    );
    assert!(
        batch.segments() > 0 && samples.len() > TRACE_SEGMENT_LEN,
        "the trace must average real segments"
    );
    let peak_hz = batch.peak_in_band(5e5, fs / 2.0).map_or(0.0, |(f, _)| f);
    assert!(
        (1.0e6..5.0e6).contains(&peak_hz),
        "the stressmark trace's PSD peak must sit in the die resonance band, got {peak_hz:.3e} Hz"
    );
}

/// Streaming Welch's median wall time over 5 runs stays within
/// [`MAX_STREAM_OVERHEAD`] of batch's on the stressmark trace.
#[test]
#[ignore = "wall-clock bound: run in release with --ignored"]
fn streaming_welch_wall_time_stays_within_bound_of_batch() {
    use std::time::Instant;
    const RUNS: usize = 5;
    let (fs, samples) = stressmark_trace_samples();
    let cfg = WelchConfig::half_overlap(TRACE_SEGMENT_LEN, fs);
    let mut batch_ns = Vec::with_capacity(RUNS);
    let mut stream_ns = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let batch = welch_psd(&samples, cfg).unwrap();
        batch_ns.push(t0.elapsed().as_nanos());
        let t0 = Instant::now();
        let streamed = stream_in_chunks(&samples, cfg);
        stream_ns.push(t0.elapsed().as_nanos());
        // The ratio only means something if both paths did identical work.
        assert_eq!(streamed, batch);
    }
    batch_ns.sort_unstable();
    stream_ns.sort_unstable();
    let (batch, stream) = (batch_ns[RUNS / 2], stream_ns[RUNS / 2]);
    assert!(batch > 0, "batch Welch must take measurable time");
    let ratio = stream as f64 / batch as f64;
    assert!(
        ratio <= MAX_STREAM_OVERHEAD,
        "streaming Welch must stay within {MAX_STREAM_OVERHEAD}x of batch, got {ratio:.3}x \
         ({stream} vs {batch} ns median)"
    );
}

/// The reduced full report stays byte-identical through the signal
/// refactor (resonance experiments now route through `SignalSummary`).
#[test]
fn full_report_reduced_matches_golden() {
    use voltnoise::analysis::{full_report, ReportScale};
    use voltnoise::system::{Engine, Testbed};
    let report = full_report(
        Testbed::fast(),
        &Engine::with_workers(2),
        ReportScale::Reduced,
    );
    golden::assert_golden("full_report_reduced.txt", &report);
}

/// The rendered resonance-entropy study (reduced scale) is pinned to
/// its own golden file: estimator or solver drift shows up as a
/// reviewable diff, not a silent number change.
#[test]
fn resonance_entropy_reduced_render_matches_golden() {
    use voltnoise::analysis::{Experiment, ResonanceEntropyConfig, ResonanceEntropyExperiment};
    use voltnoise::system::{Engine, Testbed};
    let study = ResonanceEntropyExperiment {
        cfg: ResonanceEntropyConfig::reduced(),
    }
    .run(Testbed::fast(), &Engine::new())
    .unwrap();
    golden::assert_golden("resonance_entropy_reduced.txt", &study.render());
}
