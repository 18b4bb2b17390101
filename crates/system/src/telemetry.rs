//! Engine-level telemetry: log-scale latency histograms and the
//! aggregate every [`crate::engine::Engine`] carries.
//!
//! Two kinds of observation flow through here, with different rules:
//!
//! - **Deterministic work counters**
//!   ([`voltnoise_pdn::telemetry::SolverCounters`]) are always
//!   aggregated — they are exact integer tallies, identical on every
//!   machine, and cost a handful of adds per solved job.
//! - **Wall-clock spans** (per-job wall time, per-phase solver time)
//!   are nondeterministic and only recorded by an engine built with
//!   tracing on (`Engine::with_trace`, or `VOLTNOISE_TRACE` read when
//!   the engine is built). They land in fixed-bucket
//!   log-scale histograms so merging is associative, allocation-free
//!   and cheap to snapshot.
//!
//! Neither kind ever enters a job content key, a cached outcome, or a
//! figure: telemetry observes campaigns, it cannot perturb them. The
//! golden-output tests enforce this by requiring byte-identical
//! `full_report` output with tracing on and off.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

pub use voltnoise_pdn::telemetry::{PhaseTimes, SolverCounters};

/// Number of histogram buckets. Bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds zero), so 32 buckets span
/// sub-nanosecond to ~4.3 s — wider than any sane solve.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket logarithmic (base-2) latency histogram over
/// nanosecond samples.
///
/// The representation is a plain array of counts, which buys three
/// properties the engine relies on: recording is branch-light and
/// allocation-free, merging is element-wise addition (associative,
/// commutative, total-count-preserving — the property tests check
/// this), and snapshots are `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Per-bucket sample counts.
    pub counts: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// The bucket index of a nanosecond sample: `floor(log2(ns))`,
    /// clamped into the bucket range (0 holds 0–1 ns, the last bucket
    /// holds everything ≥ ~2.1 s).
    pub(crate) fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The lower bound (inclusive, nanoseconds) of bucket `i`.
    pub(crate) fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
    }

    /// Adds another histogram into this one. Element-wise, so merging
    /// is associative and commutative and preserves total counts.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or `None` for an empty histogram. Bucket
    /// resolution means the answer is exact to within a factor of two —
    /// the right fidelity for "where did the time go" questions.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(i));
            }
        }
        Some(Self::bucket_floor(HISTOGRAM_BUCKETS - 1))
    }

    /// Median bucket floor (see `LogHistogram::quantile`).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th-percentile bucket floor (see `LogHistogram::quantile`).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }
}

/// Spectral-signature telemetry over every *traced* solve (jobs with
/// `record_traces` set): each captured scope trace is reduced to a
/// [`voltnoise_pdn::signal::TraceSignature`] and quantized into
/// log-scale histograms, so a campaign's spectral fingerprint is a
/// mergeable, `Copy`, integer-only aggregate exactly like the latency
/// histograms. A drifting fingerprint — the die-resonance peak
/// migrating out of its power-of-two frequency bucket, band power or
/// min-entropy collapsing — flags a wrong-physics regression without
/// ever perturbing job content keys or figure bytes.
///
/// Units are repurposed [`LogHistogram`] buckets (`floor(log2(x))`),
/// not nanoseconds: peak frequency in Hz, die-band (1–5 MHz) power in
/// units of 1e-15 V² ("femto-V²"), and assessed min-entropy in
/// milli-bits/sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalTelemetry {
    /// Scope traces analyzed (one per core per traced solve).
    pub traces: u64,
    /// Traces whose signature computation failed (malformed trace).
    pub rejected: u64,
    /// Strongest non-DC Welch peak frequency, Hz.
    pub peak_freq_hz: LogHistogram,
    /// Die-resonance band (1–5 MHz) power, 1e-15 V² units.
    pub band_power_femto: LogHistogram,
    /// Assessed (MCV ∧ Markov) min-entropy, milli-bits/sample.
    pub min_entropy_millibits: LogHistogram,
}

impl SignalTelemetry {
    /// Folds one trace signature into the aggregate. Saturating
    /// integer quantization: non-finite or negative quantities land
    /// in bucket 0.
    pub fn record_signature(&mut self, sig: &voltnoise_pdn::signal::TraceSignature) {
        self.traces += 1;
        self.peak_freq_hz.record(sig.peak_freq_hz as u64);
        self.band_power_femto.record((sig.band_power * 1e15) as u64);
        self.min_entropy_millibits
            .record((sig.min_entropy_bits * 1e3) as u64);
    }

    /// Counts a trace whose signature could not be computed.
    pub fn record_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Merges another aggregate (associative, commutative,
    /// count-preserving — element-wise integer adds throughout).
    pub fn merge(&mut self, other: &SignalTelemetry) {
        self.traces += other.traces;
        self.rejected += other.rejected;
        self.peak_freq_hz.merge(&other.peak_freq_hz);
        self.band_power_femto.merge(&other.band_power_femto);
        self.min_entropy_millibits
            .merge(&other.min_entropy_millibits);
    }
}

/// The engine's telemetry aggregate: solver work counters plus
/// wall-clock histograms.
///
/// `solver` totals are always live (deterministic, near-free). The
/// histograms and `phase_ns` totals only fill while tracing is enabled;
/// untraced campaigns carry them as zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineTelemetry {
    /// Solver work counters summed over every solved job (cache and
    /// store hits perform no solver work and contribute nothing).
    pub solver: SolverCounters,
    /// Cumulative per-phase solver wall time (traced runs only).
    pub phase_ns: PhaseTimes,
    /// Per-job wall time of each solve (traced runs only).
    pub job_wall: LogHistogram,
    /// Per-job RHS-assembly time (traced runs only).
    pub assemble: LogHistogram,
    /// Per-job LU-factorization time (traced runs only).
    pub factor: LogHistogram,
    /// Per-job back-substitution time (traced runs only).
    pub step: LogHistogram,
    /// Per-job validation/state-advance time (traced runs only).
    pub validate: LogHistogram,
    /// Spectral signatures of captured scope traces (traced-job
    /// solves only; cache and store hits contribute nothing).
    pub signal: SignalTelemetry,
}

impl EngineTelemetry {
    /// Merges another aggregate into this one (associative,
    /// commutative, count-preserving).
    pub fn merge(&mut self, other: &EngineTelemetry) {
        self.solver.merge(&other.solver);
        self.phase_ns.merge(&other.phase_ns);
        self.job_wall.merge(&other.job_wall);
        self.assemble.merge(&other.assemble);
        self.factor.merge(&other.factor);
        self.step.merge(&other.step);
        self.validate.merge(&other.validate);
        self.signal.merge(&other.signal);
    }

    /// Records one solved job's telemetry: counters always, wall-clock
    /// spans only when `traced`.
    pub(crate) fn record_job(
        &mut self,
        counters: &SolverCounters,
        phase: &PhaseTimes,
        wall_ns: Option<u64>,
    ) {
        self.solver.merge(counters);
        self.phase_ns.merge(phase);
        if let Some(ns) = wall_ns {
            self.job_wall.record(ns);
            self.assemble.record(phase.assemble_ns);
            self.factor.record(phase.factor_ns);
            self.step.record(phase.step_ns);
            self.validate.record(phase.validate_ns);
        }
    }
}

/// Writes `json` to the path named by `VOLTNOISE_STATS_PATH`, when set.
///
/// Diagnostics-only side channel: failures are reported on stderr and
/// swallowed (a campaign never dies because its stats file was
/// unwritable), and nothing at all happens when the variable is unset.
/// Returns the path written, if any.
pub fn export_stats_json(json: &str) -> Option<std::path::PathBuf> {
    let raw = std::env::var_os("VOLTNOISE_STATS_PATH")?;
    let path = std::path::PathBuf::from(raw);
    match write_all(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "voltnoise: could not write VOLTNOISE_STATS_PATH={}: {e}",
                path.display()
            );
            None
        }
    }
}

fn write_all(path: &Path, json: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(10), 1024);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut h = LogHistogram::new();
        assert_eq!(h.median(), None);
        for ns in [1u64, 2, 2, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        // Ranks: bucket0 has 1, bucket1 has 2, bucket9 has 1, bucket19 has 1.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.median(), Some(2)); // rank 3 lands in bucket 1
        assert_eq!(h.p95(), Some(LogHistogram::bucket_floor(19)));
        assert_eq!(h.quantile(1.0), Some(LogHistogram::bucket_floor(19)));
    }

    /// Property test: over seeded random sample sets, histogram merge is
    /// associative and preserves total counts, and merging is equivalent
    /// to recording the union of the samples.
    #[test]
    fn merge_is_associative_and_count_preserving() {
        let mut rng = SmallRng::seed_from_u64(0xbe11);
        for _ in 0..50 {
            let mut parts: Vec<Vec<u64>> = Vec::new();
            for _ in 0..3 {
                let n = rng.gen_range(0..40usize);
                // Log-uniform samples spanning the full bucket range.
                parts.push(
                    (0..n)
                        .map(|_| {
                            let exp = rng.gen_range(0..40u32);
                            rng.gen::<u64>() >> exp.min(63)
                        })
                        .collect(),
                );
            }
            let hist_of = |samples: &[u64]| {
                let mut h = LogHistogram::new();
                for &s in samples {
                    h.record(s);
                }
                h
            };
            let [ha, hb, hc] = [hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2])];
            // (a + b) + c
            let mut left = ha;
            left.merge(&hb);
            left.merge(&hc);
            // a + (b + c)
            let mut right_inner = hb;
            right_inner.merge(&hc);
            let mut right = ha;
            right.merge(&right_inner);
            // union recorded directly
            let union: Vec<u64> = parts.concat();
            let direct = hist_of(&union);
            assert_eq!(left, right, "merge must be associative");
            assert_eq!(left, direct, "merge must equal recording the union");
            assert_eq!(left.count(), union.len() as u64);
        }
    }

    #[test]
    fn signal_telemetry_quantizes_and_merges_exactly() {
        use voltnoise_pdn::signal::TraceSignature;
        let sig = TraceSignature {
            peak_freq_hz: 2.5e6,
            peak_psd: 1e-9,
            band_power: 4e-7, // 4e8 femto-V² -> bucket 28
            min_entropy_bits: 1.5,
        };
        let mut a = SignalTelemetry::default();
        a.record_signature(&sig);
        a.record_rejected();
        assert_eq!(a.traces, 1);
        assert_eq!(a.rejected, 1);
        // 2.5e6 Hz lands in bucket floor 2^21 = 2097152.
        assert_eq!(a.peak_freq_hz.median(), Some(1 << 21));
        // 1500 milli-bits lands in bucket floor 2^10 = 1024.
        assert_eq!(a.min_entropy_millibits.median(), Some(1 << 10));
        let mut b = SignalTelemetry::default();
        b.record_signature(&sig);
        b.record_signature(&TraceSignature {
            peak_freq_hz: 0.0,
            peak_psd: 0.0,
            band_power: f64::NAN, // non-finite saturates to bucket 0
            min_entropy_bits: 0.0,
        });
        // merge(a, b) == merge(b, a), element-wise and count-preserving.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.traces, 3);
        assert_eq!(ab.peak_freq_hz.count(), 3);
    }

    #[test]
    fn record_job_gates_wall_clock_on_trace() {
        let counters = SolverCounters {
            steps: 10,
            solve_calls: 10,
            ..SolverCounters::default()
        };
        let phase = PhaseTimes {
            assemble_ns: 100,
            factor_ns: 200,
            step_ns: 300,
            validate_ns: 400,
        };
        let mut untraced = EngineTelemetry::default();
        untraced.record_job(&counters, &PhaseTimes::default(), None);
        assert_eq!(untraced.solver.steps, 10);
        assert!(untraced.job_wall.is_empty());
        let mut traced = EngineTelemetry::default();
        traced.record_job(&counters, &phase, Some(1234));
        assert_eq!(traced.job_wall.count(), 1);
        assert_eq!(traced.factor.count(), 1);
        assert_eq!(traced.phase_ns.total_ns(), 1000);
    }
}
