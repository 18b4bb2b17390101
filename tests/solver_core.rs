//! Solver-core equivalence suite: the sparse backend must agree with the
//! dense backend on any netlist. (The golden reduced report, which pins
//! figure bytes across solver-core changes, is compared by the analysis
//! crate's report tests.)
//!
//! The dense path is the reference implementation (direct LU with
//! partial pivoting); the sparse path (CSR + Markowitz LU with pattern
//! reuse) is an optimization that must never change results. Random RLC
//! ladders exercise both transient and AC analysis on both backends.
//! Beside each equivalence test sits the cost floor of the same
//! optimization: the deterministic `est_flops` ratio it must keep.
//! Reciprocity (`Z_ij = Z_ji` on any passive RLC network) checks the AC
//! stamps against circuit theory rather than against the other backend.
//! The rail shift (undervolting lowers every node by exactly the rail
//! drop) checks the chip's linearity, which Fig. 12's Vmin descent
//! relies on to read each step without solving it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voltnoise::analysis::margin::MarginConfig;
use voltnoise::measure::vmin::{run_vmin, VminConfig};
use voltnoise::pdn::ac::{log_space, AcAnalysis};
use voltnoise::pdn::netlist::{Netlist, NodeId};
use voltnoise::pdn::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};
use voltnoise::pdn::{Pdn, PdnParams, SolverBackend, SolverCounters, NUM_CORES};
use voltnoise::stressmark::SyncSpec;
use voltnoise::system::{
    run_drawer_step_instrumented, CoreLoad, DrawerStepConfig, DrawerStepOutcome, Engine,
    NoiseRunConfig, SimJob, Testbed,
};

/// Floor on the drawer's dense-model-to-sparse flop ratio (measured
/// ~55x on the default drawer step).
const MIN_DRAWER_FLOPS_RATIO: f64 = 5.0;

/// Floor on the batched AC sweep's advantage over refactoring per
/// injection (measured ~24x on the 36-port drawer).
const MIN_AC_BATCH_FLOPS_RATIO: f64 = 5.0;

/// Floor on the macromodel's flop advantage over the full-order
/// transient on the long drawer window (measured ~13x; the ROM's cost is
/// dominated by its fixed-length calibration run).
const MIN_ROM_FLOPS_RATIO: f64 = 10.0;

/// Flops the dense cost model charges for one factorization and for one
/// solve of an `n`-unknown system: `2n³/3 + n²/2` and `2n²`.
fn dense_model_flops(n: usize) -> (f64, f64) {
    let n = n as f64;
    (2.0 * n * n * n / 3.0 + n * n / 2.0, 2.0 * n * n)
}

/// Solves one drawer step on a fresh single-worker engine; returns the
/// outcome and the solver counters it charged.
fn drawer_solve(cfg: DrawerStepConfig) -> (DrawerStepOutcome, SolverCounters) {
    let engine = Engine::with_workers(1);
    let outcome = engine.run_drawer(&cfg).unwrap();
    ((*outcome).clone(), engine.stats().telemetry.solver)
}

/// Builds a random but well-posed RLC ladder: a voltage source feeding a
/// chain of series R (sometimes R+L) segments, each node shunted to
/// ground by a capacitor (sometimes with ESR), with a few branch
/// resistors for off-ladder fill and current-source loads at random
/// nodes. Every node has a resistive path to ground, so both backends
/// must factor it without pivoting trouble.
fn random_ladder(rng: &mut SmallRng, segments: usize, loads: usize) -> (Netlist, Vec<NodeId>) {
    let mut nl = Netlist::new();
    let vdd = nl.add_node();
    nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
    let mut nodes = Vec::with_capacity(segments);
    let mut prev = vdd;
    for _ in 0..segments {
        let n = nl.add_node();
        let r = 0.1e-3 + rng.gen::<f64>() * 2e-3;
        if rng.gen::<f64>() < 0.35 {
            let l = 0.05e-9 + rng.gen::<f64>() * 1e-9;
            nl.add_series_rl(prev, n, r, l).unwrap();
        } else {
            nl.add_resistor(prev, n, r).unwrap();
        }
        let c = 1e-9 + rng.gen::<f64>() * 100e-9;
        if rng.gen::<f64>() < 0.6 {
            let esr = 0.1e-3 + rng.gen::<f64>() * 1e-3;
            nl.add_capacitor_with_esr(n, NodeId::GROUND, c, esr)
                .unwrap();
        } else {
            nl.add_capacitor(n, NodeId::GROUND, c).unwrap();
        }
        nodes.push(n);
        prev = n;
    }
    // Off-ladder fill: a few resistive rungs between random node pairs.
    for _ in 0..segments / 3 {
        let a = nodes[rng.gen_range(0..segments)];
        let b = nodes[rng.gen_range(0..segments)];
        if a != b {
            nl.add_resistor(a, b, 0.5e-3 + rng.gen::<f64>() * 2e-3)
                .unwrap();
        }
    }
    for _ in 0..loads {
        let at = nodes[rng.gen_range(0..segments)];
        nl.add_current_source(at, NodeId::GROUND).unwrap();
    }
    (nl, nodes)
}

#[test]
fn transient_sparse_matches_dense_on_random_netlists() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
    for trial in 0..6 {
        let segments = 10 + (trial % 3) * 6;
        let loads = 2 + trial % 3;
        let (nl, nodes) = random_ladder(&mut rng, segments, loads);
        let amps: Vec<f64> = (0..loads).map(|_| 1.0 + rng.gen::<f64>() * 20.0).collect();
        let drive = ConstantDrive::new(amps);
        let probes: Vec<Probe> = nodes
            .iter()
            .step_by(3)
            .map(|&n| Probe::NodeVoltage(n))
            .collect();
        let mut tc = TransientConfig::new(2e-6);
        tc.record_decimation = Some(1);

        let mut dense = TransientSolver::with_backend(&nl, SolverBackend::Dense).unwrap();
        let mut sparse = TransientSolver::with_backend(&nl, SolverBackend::Sparse).unwrap();
        assert!(!dense.uses_sparse() && sparse.uses_sparse());

        // DC operating points agree element-wise.
        let dc_d = dense.solve_dc(&drive).unwrap();
        let dc_s = sparse.solve_dc(&drive).unwrap();
        assert_eq!(dc_d.len(), dc_s.len());
        for (i, (a, b)) in dc_d.iter().zip(&dc_s).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "trial {trial} DC node {i}: dense {a} vs sparse {b}"
            );
        }

        // Full transient runs agree at every recorded sample.
        let rd = dense.run(&drive, &probes, &tc).unwrap();
        let rs = sparse.run(&drive, &probes, &tc).unwrap();
        assert_eq!(rd.steps, rs.steps, "trial {trial}: step counts differ");
        for (p, (td, ts)) in rd.traces.iter().zip(&rs.traces).enumerate() {
            for (k, (a, b)) in td.iter().zip(ts).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "trial {trial} probe {p} sample {k}: dense {a} vs sparse {b}"
                );
            }
        }
        for (p, (sd, ss)) in rd.stats.iter().zip(&rs.stats).enumerate() {
            assert!((sd.mean - ss.mean).abs() < 1e-9, "trial {trial} probe {p}");
            assert!((sd.min - ss.min).abs() < 1e-9, "trial {trial} probe {p}");
            assert!((sd.max - ss.max).abs() < 1e-9, "trial {trial} probe {p}");
        }
        // The forced-sparse run actually took the sparse path.
        assert!(rs.counters.sparse_solves > 0);
        assert_eq!(rd.counters.sparse_solves, 0);
        // And the nnz-aware cost model charged the sparse run less.
        assert!(rs.counters.est_flops < rd.counters.est_flops);
    }
}

#[test]
fn ac_sparse_matches_dense_on_random_netlists() {
    let mut rng = SmallRng::seed_from_u64(0xac5eed);
    for trial in 0..6 {
        let (nl, nodes) = random_ladder(&mut rng, 14, 2);
        let dense = AcAnalysis::with_backend(&nl, SolverBackend::Dense);
        let sparse = AcAnalysis::with_backend(&nl, SolverBackend::Sparse);
        assert!(!dense.uses_sparse() && sparse.uses_sparse());
        let freqs = log_space(1e4, 100e6, 25).unwrap();
        let inject = nodes[nodes.len() / 2];
        let pd = dense.sweep(inject, &freqs).unwrap();
        let ps = sparse.sweep(inject, &freqs).unwrap();
        assert_eq!(pd.len(), ps.len());
        for (k, (a, b)) in pd.iter().zip(&ps).enumerate() {
            assert!(
                (a.z.re - b.z.re).abs() < 1e-9 && (a.z.im - b.z.im).abs() < 1e-9,
                "trial {trial} point {k}: dense {}+{}j vs sparse {}+{}j",
                a.z.re,
                a.z.im,
                b.z.re,
                b.z.im
            );
        }
    }
}

/// Asserts `Z(i→j) == Z(j→i)` to rounding for every ordered pair of
/// `nodes` at `freq_hz`: a passive RLC network is reciprocal, so a slip
/// in either solver's AC stamps (an asymmetric companion, a transposed
/// branch row) breaks the equality.
fn assert_reciprocal(ac: &AcAnalysis, nodes: &[NodeId], freq_hz: f64, what: &str) {
    for (a, &i) in nodes.iter().enumerate() {
        for &j in &nodes[a + 1..] {
            let zij = ac.transfer_impedance(i, j, freq_hz).unwrap();
            let zji = ac.transfer_impedance(j, i, freq_hz).unwrap();
            let scale = zij.abs().max(zji.abs());
            assert!(
                (zij - zji).abs() <= 1e-9 * scale + 1e-15,
                "{what} at {freq_hz:.3e} Hz: Z({i:?}->{j:?}) = {}+{}j but Z({j:?}->{i:?}) = {}+{}j",
                zij.re,
                zij.im,
                zji.re,
                zji.im
            );
        }
    }
}

#[test]
fn transfer_impedance_is_reciprocal_on_random_netlists() {
    let mut rng = SmallRng::seed_from_u64(0x2ec1_0c17);
    for trial in 0..4 {
        let (nl, nodes) = random_ladder(&mut rng, 12, 2);
        let ports: Vec<NodeId> = nodes.iter().step_by(3).copied().collect();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let ac = AcAnalysis::with_backend(&nl, backend);
            for freq_hz in [1e4, 1e6, 50e6] {
                assert_reciprocal(&ac, &ports, freq_hz, &format!("trial {trial} {backend:?}"));
            }
        }
    }
}

#[test]
fn chip_core_transfer_impedance_is_reciprocal() {
    let chip = Pdn::chip(&PdnParams::default()).unwrap();
    let ac = AcAnalysis::new(chip.netlist());
    let cores: Vec<NodeId> = (0..NUM_CORES).map(|i| chip.core_node(i)).collect();
    // Die band, board band, and off resonance between them.
    for freq_hz in [2.5e6, 40e3, 400e3] {
        assert_reciprocal(&ac, &cores, freq_hz, "chip cores");
    }
}

/// The bound `analysis::margin` trusts a rail-shifted Vmin step to (its
/// private `SHIFT_BOUND_V`): a step whose shifted minimum lies farther
/// than this from the failure voltage reads the shift instead of a solve.
const SHIFT_BOUND_V: f64 = 1e-9;

/// Rail shift: the PDN is linear and no load current depends on the
/// rail, so undervolting the chip to `bias` lowers every node by exactly
/// `v_nom − v_nom·bias`. Walks Fig. 12 cells (the customer-code
/// stressmark at 80 % of max ΔI among them) down the whole 0.5 % Vmin
/// ladder and requires each solved minimum to match the nominal one
/// shifted by the rail drop within `SHIFT_BOUND_V`.
#[test]
fn undervolting_shifts_the_minimum_by_the_rail_drop() {
    let tb = Testbed::fast();
    let window = NoiseRunConfig {
        window_s: Some(MarginConfig::reduced().window_s),
        record_traces: false,
        seed: 1,
        ..NoiseRunConfig::default()
    };
    let sync = |events| SyncSpec {
        events,
        ..SyncSpec::paper_default()
    };
    let mut customer = tb.max_stressmark(2.5e6, None);
    customer.i_high_a = customer.i_low_a + customer.delta_i() * 0.8;
    let cells = [
        tb.max_stressmark(35e3, Some(sync(1))),
        tb.max_stressmark(1.75e6, Some(sync(8))),
        tb.max_stressmark(2.5e6, None),
        customer,
    ];
    let mut ladder = Vec::new();
    run_vmin(&VminConfig::default(), |bias| {
        ladder.push(bias);
        false
    });
    assert_eq!(ladder[0], 1.0);
    let mut jobs = Vec::new();
    for &bias in &ladder {
        let batch = SimJob::batch(&tb.chip().undervolted(bias).unwrap());
        for sm in &cells {
            let loads: [CoreLoad; NUM_CORES] =
                std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()));
            jobs.push(batch.job(loads, window.clone()));
        }
    }
    let outcomes = Engine::with_workers(2).run_jobs(&jobs).unwrap();
    let lowest: Vec<f64> = (outcomes.iter())
        .map(|o| o.v_min.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let v_nom = tb.chip().config().pdn.v_nom;
    let (nominal, steps) = lowest.split_at(cells.len());
    for (step, &bias) in ladder.iter().enumerate().skip(1) {
        for (cell, &v_min_nominal) in nominal.iter().enumerate() {
            let solved = steps[(step - 1) * cells.len() + cell];
            let shifted = v_min_nominal - (v_nom - v_nom * bias);
            assert!(
                (solved - shifted).abs() <= SHIFT_BOUND_V,
                "cell {cell} at bias {bias}: solved {solved} V, shifted {shifted} V"
            );
        }
    }
}

#[test]
fn ac_batched_injections_match_looped_bitwise() {
    let mut rng = SmallRng::seed_from_u64(0x0ba7_c4ed);
    for trial in 0..4 {
        let (nl, nodes) = random_ladder(&mut rng, 12 + trial * 4, 2);
        let freqs = log_space(1e5, 50e6, 7).unwrap();
        let ports: Vec<NodeId> = nodes.iter().step_by(2).copied().collect();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let batched = AcAnalysis::with_backend(&nl, backend);
            let looped = AcAnalysis::with_backend(&nl, backend);
            for &f in &freqs {
                let zb = batched.impedance_batch(&ports, f).unwrap();
                for (i, &node) in ports.iter().enumerate() {
                    let zl = looped.impedance_at(node, f).unwrap();
                    assert!(
                        zb[i].re.to_bits() == zl.re.to_bits()
                            && zb[i].im.to_bits() == zl.im.to_bits(),
                        "trial {trial} {backend:?} port {i} at {f} Hz: \
                         batched {}+{}j vs looped {}+{}j must be bitwise equal",
                        zb[i].re,
                        zb[i].im,
                        zl.re,
                        zl.im
                    );
                }
            }
            // The batched analyzer factored once per frequency; the
            // looped one refactored per (frequency, port) pair.
            let cb = batched.counters();
            let cl = looped.counters();
            assert_eq!(cb.lu_factorizations as usize, freqs.len());
            assert_eq!(
                cl.lu_factorizations as usize,
                freqs.len() * ports.len(),
                "looped path must factor per injection"
            );
            assert!(cb.batched_solves > 0 && cl.batched_solves == 0);
            assert!(cb.est_flops < cl.est_flops);
        }
    }
}

/// The drawer step is drawer-scale and runs on the sparse backend, whose
/// nnz-aware flops undercut what the dense cost model would charge for
/// the same factorizations and solves at least fivefold.
#[test]
fn sparse_drawer_step_beats_the_dense_cost_model() {
    let (outcome, c) = drawer_solve(DrawerStepConfig::default());
    assert!(
        outcome.system_size >= 150,
        "drawer must be drawer-scale, got {} unknowns",
        outcome.system_size
    );
    assert!(
        c.sparse_solves > 0,
        "drawer run must exercise the sparse backend, got {c:?}"
    );
    let (factor, solve) = dense_model_flops(outcome.system_size);
    let dense = c.lu_factorizations as f64 * factor + c.solve_calls as f64 * solve;
    let ratio = dense / c.est_flops.max(1) as f64;
    assert!(
        ratio >= MIN_DRAWER_FLOPS_RATIO,
        "drawer sparse path must beat the dense cost model by >= {MIN_DRAWER_FLOPS_RATIO}x, \
         got {ratio:.2}x ({} sparse vs {dense:.0} dense-model flops)",
        c.est_flops
    );
}

/// A full drawer impedance sweep (every core node a port, dense backend)
/// factors once per frequency and charges at least five times fewer
/// flops than one factorization plus one solve per (frequency, port).
#[test]
fn batched_drawer_ac_sweep_beats_per_injection_refactorization() {
    use voltnoise::pdn::{DrawerParams, MnaSystem, Pdn};
    let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
    let ports = drawer.core_nodes();
    assert_eq!(ports.len(), 36);
    let freqs = log_space(1e5, 1e8, 24).unwrap();
    let ac = AcAnalysis::with_backend(drawer.netlist(), SolverBackend::Dense);
    for &f in &freqs {
        ac.impedance_batch(ports, f).unwrap();
    }
    let c = ac.counters();
    assert!(
        c.batched_solves > 0,
        "AC sweep must route through the batched path, got {c:?}"
    );
    assert_eq!(
        c.lu_factorizations as usize,
        freqs.len(),
        "batched AC sweep must factor exactly once per frequency"
    );
    let (factor, solve) = dense_model_flops(MnaSystem::new(drawer.netlist()).size());
    let per_injection = c.solve_calls as f64 * (factor + solve);
    let ratio = per_injection / c.est_flops.max(1) as f64;
    assert!(
        ratio >= MIN_AC_BATCH_FLOPS_RATIO,
        "batched AC sweep must beat per-injection refactorization by >= \
         {MIN_AC_BATCH_FLOPS_RATIO}x, got {ratio:.2}x ({} batched vs {per_injection:.0} \
         baseline flops)",
        c.est_flops
    );
}

#[test]
fn rom_tracks_full_solver_across_drawer_topologies() {
    use voltnoise::pdn::{DrawerParams, RomSpec, SolveSpec};
    let topologies = [
        DrawerParams {
            chips: 4,
            ..DrawerParams::default()
        },
        DrawerParams {
            chips: 8,
            r_spine: 0.05e-3,
            ..DrawerParams::default()
        },
    ];
    for (t, drawer) in topologies.into_iter().enumerate() {
        let base = DrawerStepConfig {
            drawer,
            window_s: 3e-6,
            ..DrawerStepConfig::default()
        };
        let (full, _) = run_drawer_step_instrumented(&base, false).unwrap();
        let spec = RomSpec::default();
        let reduced = DrawerStepConfig {
            solve: SolveSpec::reduced(spec),
            ..base.clone()
        };
        let (rom, _) = run_drawer_step_instrumented(&reduced, false).unwrap();
        assert!(
            rom.rom_states > 0,
            "topology {t}: ROM must report its order"
        );
        assert!(
            rom.rom_max_error_v <= spec.budget_v,
            "topology {t}: calibrated error {:.3e} V above budget {:.3e} V",
            rom.rom_max_error_v,
            spec.budget_v
        );
        assert!(
            rom.steps < full.steps,
            "topology {t}: reduced solve must take fewer steps ({} vs {})",
            rom.steps,
            full.steps
        );
        let gap = full
            .droop_depth_v
            .iter()
            .zip(&rom.droop_depth_v)
            .map(|(a, b)| (a - b).abs())
            .fold(
                (full.source_core_droop_v - rom.source_core_droop_v).abs(),
                f64::max,
            );
        assert!(
            gap <= 3.0 * spec.budget_v,
            "topology {t}: droop gap {:.3e} V far above the {:.3e} V budget",
            gap,
            spec.budget_v
        );
    }
}

/// On a 100 µs drawer window, the macromodel (at a doubled coarse-step
/// dilation, which its calibration validates) stays within its error
/// budget, takes fewer steps, and charges at least ten times fewer
/// flops than the full-order transient, calibration included.
#[test]
fn rom_beats_the_full_order_transient_on_a_long_drawer_window() {
    use voltnoise::pdn::{RomSpec, SolveSpec};
    let spec = RomSpec {
        dilation: 12,
        ..RomSpec::default()
    };
    let base = DrawerStepConfig {
        window_s: 100e-6,
        ..DrawerStepConfig::default()
    };
    let (full, fc) = drawer_solve(DrawerStepConfig {
        solve: SolveSpec::full(),
        ..base.clone()
    });
    let (rom, rc) = drawer_solve(DrawerStepConfig {
        solve: SolveSpec::reduced(spec),
        ..base
    });
    assert!(
        rom.rom_states > 0 && rc.est_flops > 0,
        "ROM solve must report its reduced order and charge work"
    );
    assert!(
        rom.rom_max_error_v <= spec.budget_v,
        "ROM calibrated error {:.3e} V exceeds its {:.3e} V budget",
        rom.rom_max_error_v,
        spec.budget_v
    );
    assert!(
        rom.steps < full.steps,
        "ROM solve must take fewer steps ({} vs {})",
        rom.steps,
        full.steps
    );
    let ratio = fc.est_flops as f64 / rc.est_flops.max(1) as f64;
    assert!(
        ratio >= MIN_ROM_FLOPS_RATIO,
        "ROM must beat the full-order transient by >= {MIN_ROM_FLOPS_RATIO}x flops on the \
         long window, got {ratio:.2}x ({} rom vs {} full flops)",
        rc.est_flops,
        fc.est_flops
    );
}
