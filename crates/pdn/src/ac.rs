//! AC (phasor) analysis: frequency-domain impedance profiles.
//!
//! This reproduces the package-characterization flow the paper shows in
//! Figure 7b: sweep a sinusoidal unit current injected at an observation
//! port (with the DC sources shorted) and report the complex impedance
//! `Z(f) = V / I` seen at that port, or the transfer impedance to another
//! node.
//!
//! The solve path factors **once per frequency**: the stamped matrix
//! depends only on `ω`, so any number of injection nodes at one
//! frequency share a single factorization ([`AcAnalysis::impedance_batch`]
//! solves them as multi-RHS lanes, up to [`MAX_LANES`] at a time). On the sparse path the
//! elimination order discovered at the first frequency is replayed at
//! every later one (the pattern never changes), skipping the Markowitz
//! search. Work is tallied in [`SolverCounters`] — telemetry only,
//! never part of results.

use crate::backend::Factorization;
use crate::complex::Complex;
use crate::error::PdnError;
use crate::linalg::Matrix;
use crate::mna::{MnaSystem, SolverBackend, SystemPattern};
use crate::netlist::{Netlist, NodeId};
use crate::sparse::{CsrMatrix, EliminationOrder, SparseLu};
use crate::telemetry::SolverCounters;
use crate::transient::MAX_LANES;
use std::cell::RefCell;
use std::sync::Arc;

/// One point of an impedance sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpedancePoint {
    /// Frequency in hertz.
    pub freq_hz: f64,
    /// Complex impedance at that frequency.
    pub z: Complex,
}

impl ImpedancePoint {
    /// Impedance magnitude in ohms.
    pub fn magnitude(&self) -> f64 {
        self.z.abs()
    }
}

/// Frequency-domain analyzer over a fixed netlist.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::ac::AcAnalysis;
/// use voltnoise_pdn::netlist::{Netlist, NodeId};
///
/// # fn main() -> Result<(), voltnoise_pdn::PdnError> {
/// let mut nl = Netlist::new();
/// let die = nl.add_node();
/// nl.add_resistor(die, NodeId::GROUND, 0.001)?;
/// let ac = AcAnalysis::new(&nl);
/// let z = ac.impedance_at(die, 1e6)?;
/// assert!((z.abs() - 0.001).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AcAnalysis {
    sys: MnaSystem,
    backend: SolverBackend,
    /// Symbolic pattern for the sparse path, computed once at
    /// construction (the AC matrix has the same pattern at every
    /// frequency). `None` on the dense fast path.
    pattern: Option<Arc<SystemPattern>>,
    /// Interior-mutable solve state: work counters plus the cached
    /// sparse elimination order. `RefCell` (not `Mutex`) on purpose —
    /// an analyzer is a per-thread object; concurrent sweeps construct
    /// one analyzer each.
    state: RefCell<AcState>,
}

/// Mutable solve state of an [`AcAnalysis`].
#[derive(Debug, Clone, Default)]
struct AcState {
    counters: SolverCounters,
    /// Elimination order discovered at the first sparse factorization,
    /// replayed at every later frequency (same pattern, new values).
    elim: Option<EliminationOrder>,
}

impl AcAnalysis {
    /// Creates an analyzer for a snapshot of the netlist with automatic
    /// dense/sparse backend selection (see [`SolverBackend::Auto`]).
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_backend(netlist, SolverBackend::Auto)
    }

    /// Creates an analyzer with an explicit backend choice; `Auto` is
    /// right for almost everything.
    pub fn with_backend(netlist: &Netlist, backend: SolverBackend) -> Self {
        let sys = MnaSystem::new(netlist);
        let pattern = if backend.is_sparse(sys.size()) {
            Some(Arc::new(SystemPattern::coupled(&sys)))
        } else {
            None
        };
        AcAnalysis {
            sys,
            backend,
            pattern,
            state: RefCell::new(AcState::default()),
        }
    }

    /// Whether this analyzer runs on the sparse path.
    pub fn uses_sparse(&self) -> bool {
        self.backend.is_sparse(self.sys.size())
    }

    /// Snapshot of the work counters this analyzer has accumulated
    /// (factorizations, solves, batched solves, estimated flops).
    /// Telemetry only — reading them never affects any result.
    pub fn counters(&self) -> SolverCounters {
        self.state.borrow().counters
    }

    /// Factors the AC system matrix at one frequency. Every injection
    /// at this frequency shares the returned factors; on the sparse
    /// path the first discovered elimination order is replayed for all
    /// later frequencies (counted as `pattern_reuses`).
    fn factor_at(&self, freq_hz: f64) -> Result<Factorization<Complex>, PdnError> {
        if !(freq_hz.is_finite() && freq_hz > 0.0) {
            return Err(PdnError::InvalidTimebase {
                reason: format!("AC analysis requires positive finite frequency, got {freq_hz}"),
            });
        }
        let n = self.sys.size();
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        let mut st = self.state.borrow_mut();
        match &self.pattern {
            Some(pattern) => {
                let mut m = CsrMatrix::<Complex>::zeros(pattern.clone());
                self.sys.stamp_ac(&mut m, omega);
                // Replay the cached pivot order when its threshold
                // check still passes at the new values; fall back to a
                // fresh Markowitz factorization (and re-cache) when not.
                let reused = st
                    .elim
                    .as_ref()
                    .and_then(|order| SparseLu::refactor(&m, order).ok());
                let lu = match reused {
                    Some(lu) => {
                        st.counters.pattern_reuses += 1;
                        lu
                    }
                    None => {
                        let lu = SparseLu::factor(&m)?;
                        st.elim = Some(lu.order());
                        lu
                    }
                };
                st.counters.lu_factorizations += 1;
                st.counters.est_flops += lu.factor_flops();
                Ok(Factorization::Sparse(lu))
            }
            None => {
                let mut g = Matrix::<Complex>::zeros(n, n);
                self.sys.stamp_ac(&mut g, omega);
                st.counters.lu_factorizations += 1;
                st.counters.est_flops += g.lu_flops();
                Ok(Factorization::Dense(g.lu()?))
            }
        }
    }

    fn solve_with_injection(&self, inject: NodeId, freq_hz: f64) -> Result<Vec<Complex>, PdnError> {
        // Unit sinusoidal current drawn out of the injection node (a load).
        let Some(idx) = inject.unknown_index() else {
            return Err(PdnError::UnknownNode { node: 0 });
        };
        let factors = self.factor_at(freq_hz)?;
        let n = self.sys.size();
        let mut rhs = vec![Complex::ZERO; n];
        rhs[idx] = -Complex::ONE;
        let mut x = vec![Complex::ZERO; n];
        factors.solve_into(&rhs, &mut x)?;
        let mut st = self.state.borrow_mut();
        st.counters.solve_calls += 1;
        st.counters.est_flops += factors.solve_flops();
        if factors.is_sparse() {
            st.counters.sparse_solves += 1;
        }
        Ok(x)
    }

    /// Self-impedances at several nodes for one frequency, solved as
    /// multi-RHS lanes (`Factorization::solve_lanes`, up to
    /// [`MAX_LANES`] ports per solve) against **one** factorization —
    /// the "many injection ports, one matrix" case of a drawer
    /// characterization sweep. Results are bitwise identical to calling
    /// [`AcAnalysis::impedance_at`] per node (every lane keeps the
    /// single-RHS operation order); only the work differs: one
    /// factorization instead of `nodes.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] for non-positive frequency, ground
    /// injection, or a singular network.
    pub fn impedance_batch(
        &self,
        nodes: &[NodeId],
        freq_hz: f64,
    ) -> Result<Vec<Complex>, PdnError> {
        if nodes.is_empty() {
            return Ok(Vec::new());
        }
        let idxs: Vec<usize> = nodes
            .iter()
            .map(|nd| nd.unknown_index().ok_or(PdnError::UnknownNode { node: 0 }))
            .collect::<Result<_, _>>()?;
        let factors = self.factor_at(freq_hz)?;
        let n = self.sys.size();
        let mut z = Vec::with_capacity(idxs.len());
        for ports in idxs.chunks(MAX_LANES) {
            let f = &factors;
            match ports.len() {
                1 => injection_lanes::<1>(f, n, ports, &mut z),
                2 => injection_lanes::<2>(f, n, ports, &mut z),
                3 => injection_lanes::<3>(f, n, ports, &mut z),
                4 => injection_lanes::<4>(f, n, ports, &mut z),
                5 => injection_lanes::<5>(f, n, ports, &mut z),
                6 => injection_lanes::<6>(f, n, ports, &mut z),
                7 => injection_lanes::<7>(f, n, ports, &mut z),
                _ => injection_lanes::<MAX_LANES>(f, n, ports, &mut z),
            }?;
        }
        let k = idxs.len() as u64;
        let mut st = self.state.borrow_mut();
        st.counters.solve_calls += k;
        st.counters.batched_solves += k;
        st.counters.est_flops += k * factors.solve_flops();
        if factors.is_sparse() {
            st.counters.sparse_solves += k;
        }
        Ok(z)
    }

    /// Impedance magnitude/phase seen *into the PDN* at `node` for a unit
    /// load current at `freq_hz`.
    ///
    /// The sign convention reports the droop impedance: a positive real
    /// part means the node voltage drops when load current is drawn.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] for non-positive frequency, ground injection,
    /// or a singular network.
    pub fn impedance_at(&self, node: NodeId, freq_hz: f64) -> Result<Complex, PdnError> {
        let sol = self.solve_with_injection(node, freq_hz)?;
        let idx = node
            .unknown_index()
            .ok_or(PdnError::UnknownNode { node: 0 })?;
        // The load draws +1 A, so the node voltage phasor is -Z.
        Ok(-sol[idx])
    }

    /// Transfer impedance: voltage response at `observe` per unit load
    /// current injected at `inject`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcAnalysis::impedance_at`].
    pub fn transfer_impedance(
        &self,
        inject: NodeId,
        observe: NodeId,
        freq_hz: f64,
    ) -> Result<Complex, PdnError> {
        let sol = self.solve_with_injection(inject, freq_hz)?;
        let idx = observe
            .unknown_index()
            .ok_or(PdnError::UnknownNode { node: 0 })?;
        Ok(-sol[idx])
    }

    /// Sweeps the self-impedance at `node` over the given frequencies.
    ///
    /// Routed through the batched path ([`AcAnalysis::impedance_batch`]
    /// with a single injection per frequency), which is bitwise
    /// identical to the looped path — sweep-derived figures are pinned
    /// byte-for-byte on the dense backend.
    ///
    /// # Errors
    ///
    /// Fails on the first frequency that errors.
    pub fn sweep(&self, node: NodeId, freqs: &[f64]) -> Result<Vec<ImpedancePoint>, PdnError> {
        let ports = [node];
        freqs
            .iter()
            .map(|&f| {
                let z = self.impedance_batch(&ports, f)?;
                Ok(ImpedancePoint {
                    freq_hz: f,
                    z: z[0],
                })
            })
            .collect()
    }
}

/// Solves one unit injection per port (exactly `K` ports) as the `K`
/// lanes of one multi-RHS solve and appends each port's impedance to
/// `z`. The load draws +1 A at each port, so each node voltage is -Z.
fn injection_lanes<const K: usize>(
    factors: &Factorization<Complex>,
    n: usize,
    ports: &[usize],
    z: &mut Vec<Complex>,
) -> Result<(), PdnError> {
    let mut rhs = vec![[Complex::ZERO; K]; n];
    for (lane, &idx) in ports.iter().enumerate() {
        rhs[idx][lane] = -Complex::ONE;
    }
    let mut x = vec![[Complex::ZERO; K]; n];
    factors.solve_lanes(&mut rhs, &mut x)?;
    z.extend(ports.iter().enumerate().map(|(lane, &idx)| -x[idx][lane]));
    Ok(())
}

/// Builds `count` log-spaced frequencies between `f_lo` and `f_hi`
/// (inclusive).
///
/// A degenerate span `f_lo == f_hi` is allowed and yields `count`
/// copies of that frequency (so a sweep collapsed to a single point is
/// a valid single-frequency sweep, not a silent divide-by-zero in the
/// spacing formula).
///
/// # Errors
///
/// Returns [`PdnError::InvalidTimebase`] unless `0 < f_lo <= f_hi`
/// (both finite), `count >= 1`, and additionally `count >= 2` whenever
/// `f_hi > f_lo` (two distinct endpoints cannot be covered by one
/// point).
///
/// # Examples
///
/// ```
/// let f = voltnoise_pdn::ac::log_space(1e3, 1e6, 4).unwrap();
/// assert_eq!(f.len(), 4);
/// assert!((f[0] - 1e3).abs() < 1e-9);
/// assert!((f[3] - 1e6).abs() < 1e-3);
/// ```
pub fn log_space(f_lo: f64, f_hi: f64, count: usize) -> Result<Vec<f64>, PdnError> {
    if !(f_lo.is_finite() && f_hi.is_finite() && f_lo > 0.0 && f_hi >= f_lo) {
        return Err(PdnError::InvalidTimebase {
            reason: format!("log_space requires 0 < f_lo <= f_hi, got [{f_lo}, {f_hi}]"),
        });
    }
    if count == 0 {
        return Err(PdnError::InvalidTimebase {
            reason: "log_space requires count >= 1".to_string(),
        });
    }
    if f_hi == f_lo {
        return Ok(vec![f_lo; count]);
    }
    if count < 2 {
        return Err(PdnError::InvalidTimebase {
            reason: format!("log_space requires count >= 2, got {count}"),
        });
    }
    let l0 = f_lo.ln();
    let l1 = f_hi.ln();
    Ok((0..count)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (count - 1) as f64).exp())
        .collect())
}

/// Finds local maxima ("resonance peaks") of an impedance sweep, returning
/// `(freq_hz, magnitude)` pairs sorted by descending magnitude.
///
/// Only *interior* maxima count: a profile rising monotonically into an
/// endpoint returns no peaks. A monotone or flat profile therefore
/// yields an empty, not erroneous, result.
///
/// **Plateau tie-break:** a sample is a peak when it strictly exceeds
/// its left neighbor and is at least its right neighbor (`>` left,
/// `>=` right). When a resonance lands between sweep points and two
/// adjacent samples share the maximum magnitude, exactly the
/// *leftmost* (lowest-frequency) sample of the plateau is reported —
/// later plateau samples fail the strict left comparison — so a
/// plateau never double-counts as two peaks and the reported
/// frequency is deterministic.
///
/// # Errors
///
/// Returns [`PdnError::EmptyProfile`] for an empty profile — asking for
/// the resonances of nothing is a caller bug (typically a sweep that
/// silently produced no points), not a "no peaks found" answer.
pub fn find_peaks(profile: &[ImpedancePoint]) -> Result<Vec<(f64, f64)>, PdnError> {
    if profile.is_empty() {
        return Err(PdnError::EmptyProfile);
    }
    let mut peaks = Vec::new();
    for i in 1..profile.len().saturating_sub(1) {
        let m = profile[i].magnitude();
        if m > profile[i - 1].magnitude() && m >= profile[i + 1].magnitude() {
            peaks.push((profile[i].freq_hz, m));
        }
    }
    peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(peaks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistor_impedance_is_flat() {
        let mut nl = Netlist::new();
        let die = nl.add_node();
        nl.add_resistor(die, NodeId::GROUND, 0.002).unwrap();
        let ac = AcAnalysis::new(&nl);
        for f in [1e3, 1e5, 1e7] {
            let z = ac.impedance_at(die, f).unwrap();
            assert!((z.abs() - 0.002).abs() < 1e-12);
            assert!(z.re > 0.0, "droop sign convention");
        }
    }

    #[test]
    fn capacitor_impedance_falls_with_frequency() {
        let mut nl = Netlist::new();
        let die = nl.add_node();
        nl.add_resistor(die, NodeId::GROUND, 1e6).unwrap(); // DC path
        nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
        let ac = AcAnalysis::new(&nl);
        let z1 = ac.impedance_at(die, 1e4).unwrap().abs();
        let z2 = ac.impedance_at(die, 1e5).unwrap().abs();
        assert!((z1 / z2 - 10.0).abs() < 0.01, "z1={z1} z2={z2}");
        // |Z| = 1/(2*pi*f*C)
        let expected = 1.0 / (2.0 * std::f64::consts::PI * 1e4 * 1e-6);
        assert!((z1 - expected).abs() / expected < 1e-3);
    }

    #[test]
    fn parallel_rlc_peaks_at_resonance() {
        // Source inductance vs die capacitance: anti-resonance peak.
        let l: f64 = 1e-9;
        let c: f64 = 1e-6;
        let f_res = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node();
        nl.add_series_rl(vdd, die, 1e-4, l).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, c).unwrap();

        let ac = AcAnalysis::new(&nl);
        let freqs = log_space(1e5, 1e8, 200).unwrap();
        let profile = ac.sweep(die, &freqs).unwrap();
        let peaks = find_peaks(&profile).unwrap();
        assert!(!peaks.is_empty());
        let (f_peak, _) = peaks[0];
        assert!(
            (f_peak - f_res).abs() / f_res < 0.1,
            "peak {f_peak:.3e} vs resonance {f_res:.3e}"
        );
    }

    #[test]
    fn transfer_impedance_attenuates_across_resistor() {
        let mut nl = Netlist::new();
        let a = nl.add_node();
        let b = nl.add_node();
        nl.add_resistor(a, NodeId::GROUND, 0.01).unwrap();
        nl.add_resistor(b, NodeId::GROUND, 0.01).unwrap();
        nl.add_resistor(a, b, 0.01).unwrap();
        let ac = AcAnalysis::new(&nl);
        let z_self = ac.impedance_at(a, 1e6).unwrap().abs();
        let z_xfer = ac.transfer_impedance(a, b, 1e6).unwrap().abs();
        assert!(z_xfer < z_self);
        assert!(z_xfer > 0.0);
    }

    #[test]
    fn rejects_bad_frequency() {
        let mut nl = Netlist::new();
        let die = nl.add_node();
        nl.add_resistor(die, NodeId::GROUND, 1.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        assert!(ac.impedance_at(die, 0.0).is_err());
        assert!(ac.impedance_at(die, -5.0).is_err());
        assert!(ac.impedance_at(die, f64::NAN).is_err());
    }

    #[test]
    fn log_space_is_monotonic() {
        let f = log_space(1e3, 1e8, 50).unwrap();
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn log_space_rejects_bad_bounds() {
        assert!(log_space(0.0, 1e6, 10).is_err());
        assert!(log_space(1e6, 1e3, 10).is_err());
        assert!(log_space(f64::NAN, 1e6, 10).is_err());
        assert!(log_space(1e3, f64::INFINITY, 10).is_err());
        assert!(log_space(1e3, 1e6, 1).is_err());
        assert!(log_space(1e3, 1e6, 0).is_err());
        assert!(log_space(1e3, 1e3, 0).is_err());
    }

    #[test]
    fn log_space_degenerate_span_repeats_the_point() {
        let f = log_space(2e6, 2e6, 1).unwrap();
        assert_eq!(f, vec![2e6]);
        let f = log_space(2e6, 2e6, 3).unwrap();
        assert_eq!(f, vec![2e6, 2e6, 2e6]);
    }

    fn profile_of(mags: &[f64]) -> Vec<ImpedancePoint> {
        mags.iter()
            .enumerate()
            .map(|(i, &m)| ImpedancePoint {
                freq_hz: (i + 1) as f64,
                z: Complex::from_real(m),
            })
            .collect()
    }

    #[test]
    fn find_peaks_orders_by_magnitude() {
        let peaks = find_peaks(&profile_of(&[1.0, 3.0, 1.0, 5.0, 1.0])).unwrap();
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].0, 4.0);
        assert_eq!(peaks[1].0, 2.0);
    }

    /// Regression test for plateau maxima: when a resonance lands
    /// between sweep points and two adjacent samples tie at the peak
    /// magnitude, exactly one peak is reported, at the leftmost
    /// (lowest-frequency) sample of the plateau.
    #[test]
    fn find_peaks_plateau_reports_leftmost_sample_once() {
        // Two-sample plateau at the maximum.
        let peaks = find_peaks(&profile_of(&[1.0, 3.0, 3.0, 1.0])).unwrap();
        assert_eq!(peaks, vec![(2.0, 3.0)]);
        // Three-sample plateau still yields a single leftmost peak.
        let peaks = find_peaks(&profile_of(&[1.0, 4.0, 4.0, 4.0, 2.0])).unwrap();
        assert_eq!(peaks, vec![(2.0, 4.0)]);
        // A plateau running into the right endpoint still reports its
        // leftmost interior sample (the `>=` right comparison).
        let peaks = find_peaks(&profile_of(&[1.0, 3.0, 3.0])).unwrap();
        assert_eq!(peaks, vec![(2.0, 3.0)]);
        let peaks = find_peaks(&profile_of(&[1.0, 2.0, 3.0, 3.0])).unwrap();
        assert_eq!(peaks, vec![(3.0, 3.0)]);
    }

    #[test]
    fn find_peaks_rejects_empty_profile() {
        assert_eq!(find_peaks(&[]), Err(PdnError::EmptyProfile));
    }

    #[test]
    fn monotone_profile_has_no_interior_peaks() {
        assert!(find_peaks(&profile_of(&[1.0, 2.0, 3.0, 4.0]))
            .unwrap()
            .is_empty());
        assert!(find_peaks(&profile_of(&[4.0, 3.0, 2.0, 1.0]))
            .unwrap()
            .is_empty());
        assert!(find_peaks(&profile_of(&[2.0, 2.0, 2.0]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_matches_looped_bitwise_and_counts_work() {
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let mut ports = Vec::new();
        let mut prev = vdd;
        for i in 0..5 {
            let n = nl.add_node();
            nl.add_series_rl(prev, n, 1e-4 * (i + 1) as f64, 0.3e-9)
                .unwrap();
            nl.add_capacitor_with_esr(n, NodeId::GROUND, 2e-6, 0.5e-3)
                .unwrap();
            ports.push(n);
            prev = n;
        }
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            // Fresh analyzers so the looped reference pays one
            // factorization per injection, exactly as the batch's
            // single factorization must reproduce.
            let looped = AcAnalysis::with_backend(&nl, backend);
            let batched = AcAnalysis::with_backend(&nl, backend);
            for f in [1e5, 3e6, 5e7] {
                let zb = batched.impedance_batch(&ports, f).unwrap();
                assert_eq!(zb.len(), ports.len());
                for (i, &p) in ports.iter().enumerate() {
                    let zl = looped.impedance_at(p, f).unwrap();
                    assert_eq!(
                        zl.re.to_bits(),
                        zb[i].re.to_bits(),
                        "{backend:?} re {f} {i}"
                    );
                    assert_eq!(
                        zl.im.to_bits(),
                        zb[i].im.to_bits(),
                        "{backend:?} im {f} {i}"
                    );
                }
            }
            let cl = looped.counters();
            let cb = batched.counters();
            // One factorization per frequency instead of one per
            // (frequency, injection) pair.
            assert_eq!(cb.lu_factorizations, 3);
            assert_eq!(cl.lu_factorizations, 3 * ports.len() as u64);
            assert_eq!(cb.batched_solves, 3 * ports.len() as u64);
            assert_eq!(cl.batched_solves, 0);
            assert_eq!(cb.solve_calls, cl.solve_calls);
            assert!(cb.est_flops < cl.est_flops);
        }
    }

    #[test]
    fn sparse_sweep_reuses_elimination_order() {
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node();
        nl.add_series_rl(vdd, die, 1e-4, 1e-9).unwrap();
        nl.add_capacitor_with_esr(die, NodeId::GROUND, 1e-6, 1e-3)
            .unwrap();
        let ac = AcAnalysis::with_backend(&nl, SolverBackend::Sparse);
        let freqs = log_space(1e4, 1e8, 12).unwrap();
        ac.sweep(die, &freqs).unwrap();
        let c = ac.counters();
        assert_eq!(c.lu_factorizations, 12);
        // Every frequency after the first replays the cached order.
        assert_eq!(c.pattern_reuses, 11);
        assert_eq!(c.sparse_solves, 12);
    }

    #[test]
    fn batch_rejects_ground_port_and_allows_empty() {
        let mut nl = Netlist::new();
        let die = nl.add_node();
        nl.add_resistor(die, NodeId::GROUND, 1.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        assert!(ac.impedance_batch(&[die, NodeId::GROUND], 1e6).is_err());
        assert!(ac.impedance_batch(&[], 1e6).unwrap().is_empty());
    }

    #[test]
    fn forced_sparse_ac_matches_dense() {
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node();
        nl.add_series_rl(vdd, die, 1e-4, 1e-9).unwrap();
        nl.add_capacitor_with_esr(die, NodeId::GROUND, 1e-6, 1e-3)
            .unwrap();
        let dense = AcAnalysis::with_backend(&nl, SolverBackend::Dense);
        let sparse = AcAnalysis::with_backend(&nl, SolverBackend::Sparse);
        assert!(!dense.uses_sparse());
        assert!(sparse.uses_sparse());
        for f in [1e4, 1e6, 5e6, 1e8] {
            let zd = dense.impedance_at(die, f).unwrap();
            let zs = sparse.impedance_at(die, f).unwrap();
            assert!(
                (zd.re - zs.re).abs() < 1e-9,
                "re {f}: {} vs {}",
                zd.re,
                zs.re
            );
            assert!(
                (zd.im - zs.im).abs() < 1e-9,
                "im {f}: {} vs {}",
                zd.im,
                zs.im
            );
        }
    }
}
