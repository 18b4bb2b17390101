//! Reduced-order PDN macromodel: Krylov moment matching with an
//! empirically enforced error budget.
//!
//! A multi-chip drawer assembles hundreds of MNA unknowns, but its
//! step response is dominated by a handful of smooth electrical modes
//! (the VRM loop, the spine resonance, the per-chip package modes). A
//! long transient spent back-substituting the full 200-unknown system
//! at every step wastes almost all of its work on dynamics that a
//! ~10-state model reproduces to sub-millivolt accuracy.
//!
//! The reduction is PRIMA-style single-input moment matching. The
//! netlist's descriptor form `C·ż + G·z = b·u(t)` (assembled by
//! `MnaSystem::stamp_dc` and `MnaSystem::stamp_capacitance` over
//! `MnaSystem::dc_size` unknowns, taken as a *deviation* from the DC
//! operating point so `z(0) = 0`) is projected onto the Krylov basis of
//! `(G + s₀C)⁻¹C` seeded with `(G + s₀C)⁻¹b`, matching transfer-function
//! moments at the expansion frequency `s₀ = 2π·expansion_hz`.
//!
//! **The error budget is enforced by measurement, not by construction**:
//! the reduced model is integrated over a short calibration window and
//! compared against the full-order solver on the same stimulus; the
//! reduced order grows (the Arnoldi basis is nested, so order `q` is the
//! leading `q×q` block of one projection) until the worst probe-voltage
//! discrepancy fits the caller's [`RomSpec::budget_v`], or the solve
//! fails with [`PdnError::RomBudget`]. A caller never silently gets a
//! model worse than the budget it keyed its results on.

use crate::backend::RomSpec;
use crate::error::PdnError;
use crate::linalg::{LuFactors, Matrix};
use crate::mna::{MnaSystem, SystemPattern};
use crate::netlist::Netlist;
use crate::sparse::{CsrMatrix, SparseLu};
use crate::telemetry::SolverCounters;
use crate::transient::{Drive, Probe, TransientConfig, TransientSolver};
use std::sync::Arc;

/// Relative tolerance below which an Arnoldi candidate vector is
/// treated as linearly dependent ("happy breakdown"): the Krylov space
/// is exhausted and the basis stops growing.
const BREAKDOWN_TOL: f64 = 1e-12;

/// A single-source step stimulus on a fixed netlist — the problem shape
/// the drawer propagation study solves thousands of times: every source
/// draws `idle_amps`, and at `t0_s` the source in drive slot `slot`
/// abruptly draws `delta_amps` more.
#[derive(Debug, Clone)]
pub struct RomStepProblem<'a> {
    /// The network to reduce.
    pub netlist: &'a Netlist,
    /// Drive slot (current-source index) receiving the step.
    pub slot: usize,
    /// Quiescent current of every source, amperes.
    pub idle_amps: f64,
    /// Additional current drawn by `slot` from `t0_s` on, amperes.
    pub delta_amps: f64,
    /// Step time, seconds (must fall inside the calibration window so
    /// the budget check actually exercises the transient).
    pub t0_s: f64,
    /// Simulated window length, seconds.
    pub window_s: f64,
    /// Observation probes; node voltages and source currents both map
    /// onto descriptor unknowns.
    pub probes: &'a [Probe],
    /// Coarse step of the *full-order reference*; the reduced model
    /// dilates this by [`RomSpec::dilation`] away from the edge.
    pub h_coarse: f64,
    /// Fine step used inside the refinement window around the edge.
    pub h_fine: f64,
}

/// Result of a reduced-order step solve.
#[derive(Debug, Clone)]
pub struct RomOutcome {
    /// Sample times, starting at 0 (the DC point).
    pub times: Vec<f64>,
    /// One trace per probe, aligned with `times`, in absolute volts
    /// (DC operating point plus the reduced deviation).
    pub traces: Vec<Vec<f64>>,
    /// Accepted reduced integration steps of the final run.
    pub steps: usize,
    /// Reduced order the calibration settled on.
    pub states: usize,
    /// Worst probe-voltage discrepancy against the full-order solver
    /// over the calibration window (guaranteed `<= spec.budget_v`).
    pub max_error_v: f64,
    /// Work counters: the ROM's own build/integration work plus the
    /// full-order calibration run it was validated against.
    pub counters: SolverCounters,
}

/// A built (projected and calibrated) reduced-order model.
///
/// Obtained via [`ReducedPdn::build`]; [`ReducedPdn::simulate`] then
/// integrates it over any window. [`solve_step_rom`] wraps both for the
/// common one-shot case.
#[derive(Debug, Clone)]
pub(crate) struct ReducedPdn {
    /// Active (calibrated) order; `gr`/`cr` leading blocks of this size
    /// are what `simulate` integrates.
    q: usize,
    /// Basis size actually built (row stride of `gr`, `cr`,
    /// `probe_rows`).
    q_built: usize,
    /// Projected conductance `Vᵀ G V`, row-major `q_built × q_built`.
    gr: Vec<f64>,
    /// Projected capacitance `Vᵀ C V`, row-major `q_built × q_built`.
    cr: Vec<f64>,
    /// Projected input vector `Vᵀ b`.
    br: Vec<f64>,
    /// Per-probe output rows (the probe's row of `V`).
    probe_rows: Vec<Vec<f64>>,
    /// Per-probe DC operating-point value (added back to deviations).
    probe_dc: Vec<f64>,
    /// Step description the model was built for.
    t0_s: f64,
    delta_amps: f64,
    h_coarse: f64,
    h_fine: f64,
    /// Worst calibration error at order `q`.
    max_error_v: f64,
    counters: SolverCounters,
}

/// The calibration drive: every source idles, `slot` steps up at `t0`.
/// Must describe exactly the stimulus the descriptor input vector `b`
/// models, or the calibration would validate the wrong problem.
struct StepTailDrive {
    slot: usize,
    idle: f64,
    delta: f64,
    t0: f64,
}

impl Drive for StepTailDrive {
    fn currents(&self, t: f64, out: &mut [f64]) {
        out.fill(self.idle);
        if t >= self.t0 {
            out[self.slot] += self.delta;
        }
    }
    fn edges(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        if self.t0 >= t0 && self.t0 < t1 {
            out.push(self.t0);
        }
    }
}

/// Edge-refinement extents around the step, matching
/// [`TransientConfig`]'s defaults so reduced and full runs refine the
/// same window.
const REFINE_PRE: f64 = 2e-9;
const REFINE_POST: f64 = 10e-9;

impl ReducedPdn {
    /// Builds, projects, and calibrates a reduced model for `problem`.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidTimebase`] for inconsistent problem/spec
    /// parameters, [`PdnError::UnknownNode`] for an out-of-range drive
    /// slot, [`PdnError::SingularMatrix`] when the descriptor cannot be
    /// factored, and [`PdnError::RomBudget`] when no order up to
    /// [`RomSpec::max_states`] meets the budget.
    pub fn build(problem: &RomStepProblem<'_>, spec: &RomSpec) -> Result<Self, PdnError> {
        validate(problem, spec)?;
        let sys = MnaSystem::new(problem.netlist);
        if problem.slot >= sys.drive_len() {
            return Err(PdnError::UnknownNode { node: problem.slot });
        }
        let nn = sys.dc_size();
        let mut counters = SolverCounters::default();

        // Assemble the descriptor pair over the shared dc_dynamic
        // pattern: G (static), C (dynamic), and Gs = G + s0*C.
        let pattern = Arc::new(SystemPattern::dc_dynamic(&sys));
        let mut gm = CsrMatrix::<f64>::zeros(pattern.clone());
        sys.stamp_dc(&mut gm);
        let mut cm = CsrMatrix::<f64>::zeros(pattern.clone());
        sys.stamp_capacitance(&mut cm, 1.0);
        let s0 = 2.0 * std::f64::consts::PI * spec.expansion_hz;
        let mut gsm = CsrMatrix::<f64>::zeros(pattern);
        sys.stamp_dc(&mut gsm);
        sys.stamp_capacitance(&mut gsm, s0);
        let gs = SparseLu::factor(&gsm)?;
        counters.lu_factorizations += 1;
        counters.est_flops += gs.factor_flops();

        // DC operating point under the idle drive (deviation reference).
        let mut rhs = vec![0.0; nn];
        for v in &sys.vsources {
            rhs[v.row] = v.volts;
        }
        for s in &sys.isources {
            if let Some(ifrom) = s.from {
                rhs[ifrom] -= problem.idle_amps;
            }
            if let Some(ito) = s.to {
                rhs[ito] += problem.idle_amps;
            }
        }
        let gdc = SparseLu::factor(&gm)?;
        counters.dc_solves += 1;
        counters.lu_factorizations += 1;
        counters.solve_calls += 1;
        counters.sparse_solves += 1;
        counters.est_flops += gdc.factor_flops() + gdc.solve_flops();
        let z_dc = gdc.solve(&rhs)?;
        for (node, &v) in z_dc.iter().enumerate() {
            if !v.is_finite() {
                return Err(PdnError::Diverged {
                    t: 0.0,
                    node,
                    value: v,
                });
            }
        }

        // Input vector: derivative of the RHS w.r.t. the stepped slot's
        // extra current (a load draws out of `from`).
        let mut b = vec![0.0; nn];
        let mut slot_wired = false;
        for s in &sys.isources {
            if s.source != problem.slot {
                continue;
            }
            slot_wired = true;
            if let Some(ifrom) = s.from {
                b[ifrom] -= 1.0;
            }
            if let Some(ito) = s.to {
                b[ito] += 1.0;
            }
        }
        if !slot_wired || b.iter().all(|&v| v == 0.0) {
            // Slot exists but drives only ground: nothing to reduce.
            return Err(PdnError::UnknownNode { node: problem.slot });
        }

        // Arnoldi on (G + s0*C)^-1 * C, seeded with (G + s0*C)^-1 * b,
        // modified Gram-Schmidt. The basis is nested: order q uses the
        // first q vectors, so one build serves every candidate order.
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(spec.max_states);
        let mut v0 = gs.solve(&b)?;
        counters.solve_calls += 1;
        counters.sparse_solves += 1;
        counters.est_flops += gs.solve_flops();
        let norm0 = norm(&v0);
        if !(norm0.is_finite() && norm0 > 0.0) {
            return Err(PdnError::SingularMatrix { column: 0 });
        }
        scale(&mut v0, 1.0 / norm0);
        basis.push(v0);
        while basis.len() < spec.max_states {
            let prev = &basis[basis.len() - 1];
            let cv = cm.mul_vec(prev)?;
            let mut w = gs.solve(&cv)?;
            counters.solve_calls += 1;
            counters.sparse_solves += 1;
            counters.est_flops += gs.solve_flops() + 2 * nn as u64;
            let mut survived = norm(&w);
            for v in &basis {
                let h = dot(v, &w);
                axpy(&mut w, -h, v);
                counters.est_flops += 4 * nn as u64;
            }
            let wn = norm(&w);
            if !(wn.is_finite() && wn > BREAKDOWN_TOL * survived.max(1.0)) {
                break; // Krylov space exhausted at this order.
            }
            survived = wn;
            scale(&mut w, 1.0 / survived);
            basis.push(w);
        }
        let q_built = basis.len();
        counters.rom_states += q_built as u64;

        // One-sided projection onto the basis: Gr = V^T G V, Cr = V^T C V,
        // br = V^T b, probe rows = the probes' rows of V.
        let mut gr = vec![0.0; q_built * q_built];
        let mut cr = vec![0.0; q_built * q_built];
        let mut br = vec![0.0; q_built];
        for (j, vj) in basis.iter().enumerate() {
            let gv = gm.mul_vec(vj)?;
            let cv = cm.mul_vec(vj)?;
            for (i, vi) in basis.iter().enumerate() {
                gr[i * q_built + j] = dot(vi, &gv);
                cr[i * q_built + j] = dot(vi, &cv);
            }
            br[j] = dot(vj, &b);
            counters.est_flops += (4 * q_built as u64 + 6) * nn as u64;
        }
        let (probe_rows, probe_dc) = probe_views(&sys, problem.probes, &basis, &z_dc);

        let mut rom = ReducedPdn {
            q: 0,
            q_built,
            gr,
            cr,
            br,
            probe_rows,
            probe_dc,
            t0_s: problem.t0_s,
            delta_amps: problem.delta_amps,
            h_coarse: problem.h_coarse * spec.dilation.max(1) as f64,
            h_fine: problem.h_fine,
            max_error_v: f64::INFINITY,
            counters,
        };

        // Calibrate: one full-order reference over the short window,
        // then grow the order until the budget is met.
        let drive = StepTailDrive {
            slot: problem.slot,
            idle: problem.idle_amps,
            delta: problem.delta_amps,
            t0: problem.t0_s,
        };
        let mut full = TransientSolver::new(problem.netlist)?;
        let mut cfg = TransientConfig::new(spec.calib_window_s);
        cfg.h_coarse = problem.h_coarse;
        cfg.h_fine = problem.h_fine;
        cfg.settle = 0.0;
        cfg.record_decimation = Some(1);
        let reference = full.run(&drive, problem.probes, &cfg)?;
        rom.counters.merge(&reference.counters);

        let mut best = f64::INFINITY;
        for q in 1..=q_built {
            rom.q = q;
            let trial = rom.simulate(spec.calib_window_s)?;
            let err = worst_error(&reference.times, &reference.traces, &trial);
            if err < best {
                best = err;
            }
            if err <= spec.budget_v {
                rom.max_error_v = err;
                return Ok(rom);
            }
        }
        Err(PdnError::RomBudget {
            budget_v: spec.budget_v,
            achieved_v: best,
            states: q_built,
        })
    }

    /// Integrates the reduced model over `[0, window_s]` with
    /// trapezoidal steps: dilated coarse steps away from the edge, fine
    /// steps inside the refinement window around it. Records every
    /// accepted step (plus the DC point at `t = 0`).
    ///
    /// # Errors
    ///
    /// [`PdnError::SingularMatrix`] if a reduced step matrix cannot be
    /// factored, [`PdnError::Diverged`] on a non-finite reduced state.
    fn simulate(&mut self, window_s: f64) -> Result<RomTrace, PdnError> {
        let q = self.q;
        let stride = self.q_built;
        let n_probes = self.probe_rows.len();
        let mut times = vec![0.0];
        let mut traces: Vec<Vec<f64>> = self.probe_dc.iter().map(|&v| vec![v]).collect();
        let mut z = vec![0.0; q];
        let mut znew = vec![0.0; q];
        let mut rhs = vec![0.0; q];
        // Per-step-size factors of (2C/h + G) plus the explicit-side
        // matrix (2C/h - G); at most three step sizes occur.
        let mut cache: Vec<(u64, LuFactors<f64>, Vec<f64>)> = Vec::new();
        let (w0, w1) = (self.t0_s - REFINE_PRE, self.t0_s + REFINE_POST);
        let eps = self.h_fine * 1e-6;
        let mut t = 0.0f64;
        let mut steps = 0usize;
        while t < window_s - eps {
            let in_window = t + self.h_coarse > w0 && t < w1;
            let mut h = if in_window {
                self.h_fine
            } else {
                self.h_coarse
            };
            if t + h > window_s {
                h = window_s - t;
            }
            let key = h.to_bits();
            let idx = match cache.iter().position(|(k, _, _)| *k == key) {
                Some(i) => i,
                None => {
                    let mut lhs = Matrix::<f64>::zeros(q, q);
                    let mut exp = vec![0.0; q * q];
                    for r in 0..q {
                        for c in 0..q {
                            let g = self.gr[r * stride + c];
                            let cc = 2.0 * self.cr[r * stride + c] / h;
                            lhs[(r, c)] = cc + g;
                            exp[r * q + c] = cc - g;
                        }
                    }
                    self.counters.est_flops += lhs.lu_flops();
                    self.counters.lu_factorizations += 1;
                    cache.push((key, lhs.lu()?, exp));
                    cache.len() - 1
                }
            };
            let t_next = t + h;
            let u0 = if t >= self.t0_s { self.delta_amps } else { 0.0 };
            let u1 = if t_next >= self.t0_s {
                self.delta_amps
            } else {
                0.0
            };
            let (_, lu, exp) = &cache[idx];
            let usum = u0 + u1;
            for r in 0..q {
                let mut acc = self.br[r] * usum;
                for c in 0..q {
                    acc += exp[r * q + c] * z[c];
                }
                rhs[r] = acc;
            }
            lu.solve_into(&rhs, &mut znew)?;
            for (node, &v) in znew.iter().enumerate() {
                if !v.is_finite() {
                    return Err(PdnError::Diverged {
                        t: t_next,
                        node,
                        value: v,
                    });
                }
            }
            std::mem::swap(&mut z, &mut znew);
            t = t_next;
            steps += 1;
            self.counters.rom_solves += 1;
            self.counters.est_flops += (4 * q * q + 4 * q) as u64;
            times.push(t);
            for (p, trace) in traces.iter_mut().enumerate().take(n_probes) {
                let row = &self.probe_rows[p];
                let mut acc = self.probe_dc[p];
                for (c, &zc) in z.iter().enumerate() {
                    acc += row[c] * zc;
                }
                trace.push(acc);
            }
        }
        Ok(RomTrace {
            times,
            traces,
            steps,
        })
    }
}

/// A recorded reduced-model integration.
struct RomTrace {
    times: Vec<f64>,
    traces: Vec<Vec<f64>>,
    steps: usize,
}

/// Builds, calibrates, and runs a reduced-order model for a single-step
/// problem — the one-call entry the system layer uses.
///
/// # Errors
///
/// See `ReducedPdn::build`; additionally anything the final
/// integration raises.
pub fn solve_step_rom(
    problem: &RomStepProblem<'_>,
    spec: &RomSpec,
) -> Result<RomOutcome, PdnError> {
    let mut rom = ReducedPdn::build(problem, spec)?;
    let run = rom.simulate(problem.window_s)?;
    Ok(RomOutcome {
        times: run.times,
        traces: run.traces,
        steps: run.steps,
        states: rom.q,
        max_error_v: rom.max_error_v,
        counters: rom.counters,
    })
}

fn validate(problem: &RomStepProblem<'_>, spec: &RomSpec) -> Result<(), PdnError> {
    let bad = |reason: String| Err(PdnError::InvalidTimebase { reason });
    let pos = |v: f64| v.is_finite() && v > 0.0;
    if !(pos(problem.window_s) && pos(problem.h_coarse) && pos(problem.h_fine)) {
        return bad("ROM window and steps must be positive and finite".to_string());
    }
    if problem.h_fine > problem.h_coarse {
        return bad("ROM h_fine must not exceed h_coarse".to_string());
    }
    if !(pos(problem.t0_s) && problem.t0_s < spec.calib_window_s) {
        return bad(format!(
            "ROM step time {:.3e} s must fall inside the calibration window {:.3e} s",
            problem.t0_s, spec.calib_window_s
        ));
    }
    if !(pos(spec.budget_v) && pos(spec.expansion_hz) && pos(spec.calib_window_s)) {
        return bad(
            "ROM budget, expansion frequency and calibration window must be positive".to_string(),
        );
    }
    if spec.max_states == 0 {
        return bad("ROM max_states must be at least 1".to_string());
    }
    if spec.calib_window_s > problem.window_s {
        return bad("ROM calibration window must not exceed the simulated window".to_string());
    }
    Ok(())
}

/// Maps probes to output rows of the basis and DC values: node voltages
/// index node unknowns, source currents index voltage-source branch
/// rows; a ground probe reads a constant zero.
fn probe_views(
    sys: &MnaSystem,
    probes: &[Probe],
    basis: &[Vec<f64>],
    z_dc: &[f64],
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let q = basis.len();
    let mut rows = Vec::with_capacity(probes.len());
    let mut dc = Vec::with_capacity(probes.len());
    for p in probes {
        let idx = match p {
            Probe::NodeVoltage(node) => node.unknown_index(),
            Probe::SourceCurrent(k) => sys.vsources.get(*k).map(|v| v.row),
        };
        match idx {
            Some(i) => {
                rows.push(basis.iter().take(q).map(|v| v[i]).collect());
                dc.push(z_dc[i]);
            }
            None => {
                rows.push(vec![0.0; q]);
                dc.push(0.0);
            }
        }
    }
    (rows, dc)
}

/// Worst absolute discrepancy between the reduced trace and the
/// full-order reference, comparing at the reduced sample times with
/// linear interpolation of the reference.
fn worst_error(ref_times: &[f64], ref_traces: &[Vec<f64>], trial: &RomTrace) -> f64 {
    let mut worst = 0.0f64;
    for (p, trace) in trial.traces.iter().enumerate() {
        let reference = &ref_traces[p];
        for (&t, &v) in trial.times.iter().zip(trace) {
            let r = interp(ref_times, reference, t);
            let e = (v - r).abs();
            if e > worst {
                worst = e;
            }
        }
    }
    worst
}

/// Linear interpolation of `(xs, ys)` at `x`, clamped to the endpoints.
fn interp(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let i = xs.partition_point(|&t| t < x);
    if i == 0 {
        return ys[0];
    }
    if i >= xs.len() {
        return ys[ys.len() - 1];
    }
    let (x0, x1) = (xs[i - 1], xs[i]);
    let (y0, y1) = (ys[i - 1], ys[i]);
    if x1 <= x0 {
        return y1;
    }
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn scale(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * *xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use crate::topology::{DrawerParams, Pdn};

    fn drawer_problem<'a>(drawer: &'a Pdn, probes: &'a [Probe], window: f64) -> RomStepProblem<'a> {
        RomStepProblem {
            netlist: drawer.netlist(),
            slot: 0,
            idle_amps: 2.0,
            delta_amps: 10.0,
            t0_s: 0.5e-6,
            window_s: window,
            probes,
            h_coarse: 2e-9,
            h_fine: 0.5e-9,
        }
    }

    #[test]
    fn rom_meets_budget_and_matches_full_solver() {
        let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
        let probes = [
            Probe::NodeVoltage(drawer.core_node(0)),
            Probe::NodeVoltage(drawer.package_node(0)),
            Probe::NodeVoltage(drawer.package_node(3)),
        ];
        let window = 6e-6;
        let problem = drawer_problem(&drawer, &probes, window);
        let spec = RomSpec::default();
        let out = solve_step_rom(&problem, &spec).unwrap();
        assert!(out.states >= 1 && out.states <= spec.max_states);
        assert!(out.max_error_v <= spec.budget_v);
        assert!(out.counters.rom_solves > 0);
        assert_eq!(
            out.counters.rom_states as usize,
            spec.max_states.min(out.counters.rom_states as usize)
        );

        // Compare the full window against the full solver, not just the
        // calibration prefix: the budget must hold out-of-sample too
        // (allow 3x headroom for extrapolation beyond calibration).
        let drive = StepTailDrive {
            slot: 0,
            idle: 2.0,
            delta: 10.0,
            t0: 0.5e-6,
        };
        let mut full = TransientSolver::new(drawer.netlist()).unwrap();
        let mut cfg = TransientConfig::new(window);
        cfg.h_coarse = 2e-9;
        cfg.h_fine = 0.5e-9;
        cfg.settle = 0.0;
        cfg.record_decimation = Some(1);
        let reference = full.run(&drive, &probes, &cfg).unwrap();
        let trial = RomTrace {
            times: out.times.clone(),
            traces: out.traces.clone(),
            steps: out.steps,
        };
        let err = worst_error(&reference.times, &reference.traces, &trial);
        assert!(
            err <= 3.0 * spec.budget_v,
            "out-of-sample error {err:.3e} vs budget {:.3e}",
            spec.budget_v
        );
        // And the reduced run is far cheaper per step.
        assert!(out.steps < reference.steps);
    }

    #[test]
    fn impossible_budget_fails_with_rom_budget() {
        let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
        let probes = [Probe::NodeVoltage(drawer.core_node(0))];
        let problem = drawer_problem(&drawer, &probes, 6e-6);
        let spec = RomSpec {
            budget_v: 1e-15,
            max_states: 3,
            ..RomSpec::default()
        };
        let err = solve_step_rom(&problem, &spec).unwrap_err();
        let PdnError::RomBudget {
            budget_v,
            achieved_v,
            states,
        } = err
        else {
            panic!("expected RomBudget, got {err:?}");
        };
        assert_eq!(budget_v, 1e-15);
        assert!(achieved_v > budget_v);
        assert_eq!(states, 3);
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
        let probes = [Probe::NodeVoltage(drawer.core_node(0))];
        let spec = RomSpec::default();
        // Step outside the calibration window.
        let mut p = drawer_problem(&drawer, &probes, 6e-6);
        p.t0_s = spec.calib_window_s * 2.0;
        assert!(matches!(
            solve_step_rom(&p, &spec),
            Err(PdnError::InvalidTimebase { .. })
        ));
        // Out-of-range drive slot.
        let mut p = drawer_problem(&drawer, &probes, 6e-6);
        p.slot = 10_000;
        assert!(matches!(
            solve_step_rom(&p, &spec),
            Err(PdnError::UnknownNode { .. })
        ));
        // Calibration window longer than the simulated window.
        let p = drawer_problem(&drawer, &probes, spec.calib_window_s / 2.0);
        assert!(matches!(
            solve_step_rom(&p, &spec),
            Err(PdnError::InvalidTimebase { .. })
        ));
        // Zero states permitted.
        let p = drawer_problem(&drawer, &probes, 6e-6);
        let bad_spec = RomSpec {
            max_states: 0,
            ..RomSpec::default()
        };
        assert!(matches!(
            solve_step_rom(&p, &bad_spec),
            Err(PdnError::InvalidTimebase { .. })
        ));
        let _ = NodeId::GROUND;
    }
}
