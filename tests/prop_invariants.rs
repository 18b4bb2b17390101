//! Property-based tests over the workspace's core data structures and
//! invariants.
//!
//! Uses a small hand-rolled case generator (seeded, deterministic)
//! instead of an external property-testing framework: each test draws a
//! few dozen random cases from named ranges and asserts the invariant on
//! every case.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voltnoise::measure::{Skitter, SkitterConfig};
use voltnoise::pdn::ac::AcAnalysis;
use voltnoise::pdn::linalg::Matrix;
use voltnoise::pdn::netlist::{Netlist, NodeId};
use voltnoise::pdn::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};
use voltnoise::pdn::waveform::{StressWaveform, WaveMode};
use voltnoise::prelude::*;
use voltnoise::system::guardband::GuardbandTable;
use voltnoise::system::spread_offsets;
use voltnoise::uarch::pipeline::{estimate_throughput, form_groups, group_count};
use voltnoise::uarch::Isa;

/// Runs `body` for `cases` deterministic seeded cases.
fn check(cases: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ (case << 8));
        body(&mut rng);
    }
}

fn vec_in(rng: &mut SmallRng, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// LU solve is a right inverse of matrix multiplication for
/// well-conditioned random systems.
#[test]
fn lu_solves_random_systems() {
    check(48, |rng| {
        let n = 4;
        let values = vec_in(rng, -5.0, 5.0, n * n);
        let rhs = vec_in(rng, -10.0, 10.0, n);
        let mut a = Matrix::<f64>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = values[r * n + c];
            }
            a[(r, r)] += 25.0; // diagonal dominance
        }
        let x = a.lu().unwrap().solve(&rhs).unwrap();
        let back = a.mul_vec(&x);
        for (b, r) in back.iter().zip(&rhs) {
            assert!((b - r).abs() < 1e-8);
        }
    });
}

/// A resistive divider network never produces node voltages outside the
/// source range (passivity of the DC solution).
#[test]
fn dc_voltages_bounded_by_source() {
    check(48, |rng| {
        let r1 = rng.gen_range(1e-4..1.0);
        let r2 = rng.gen_range(1e-4..1.0);
        let load = rng.gen_range(0.0..5.0);
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let mid = nl.add_node();
        let die = nl.add_node();
        nl.add_resistor(vdd, mid, r1).unwrap();
        nl.add_resistor(mid, die, r2).unwrap();
        nl.add_resistor(die, NodeId::GROUND, 10.0).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let sol = solver.solve_dc(&ConstantDrive::new(vec![load])).unwrap();
        for node in [mid, die] {
            let v = sol[node.unknown_index().unwrap()];
            assert!(v <= 1.0 + 1e-9, "node above source: {v}");
        }
    });
}

/// AC impedance magnitude of any RC one-port is bounded by its DC
/// resistance (an RC network's |Z| is maximal at DC).
#[test]
fn rc_impedance_below_dc_resistance() {
    check(48, |rng| {
        let r = rng.gen_range(1e-3..10.0);
        let c = rng.gen_range(1e-9..1e-3);
        let f = rng.gen_range(1e2..1e8);
        let mut nl = Netlist::new();
        let die = nl.add_node();
        nl.add_resistor(die, NodeId::GROUND, r).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, c).unwrap();
        let z = AcAnalysis::new(&nl).impedance_at(die, f).unwrap().abs();
        assert!(z <= r * (1.0 + 1e-9));
    });
}

/// Stress waveforms only ever emit the three defined levels (within ramp
/// interpolation bounds).
#[test]
fn waveform_values_stay_in_range() {
    check(48, |rng| {
        let t = rng.gen_range(0.0..1e-3);
        let phase = rng.gen_range(0.0..1e-6);
        let period_ns = rng.gen_range(100.0..100_000.0);
        let duty = rng.gen_range(0.1..0.9);
        let w = StressWaveform {
            i_low: 5.0,
            i_high: 20.0,
            i_idle: 3.0,
            stim_period: period_ns * 1e-9,
            duty,
            rise_time: 2e-9,
            mode: WaveMode::FreeRun {
                phase,
                period_skew_ppm: 50.0,
            },
        };
        let v = w.value(t);
        assert!((5.0..=20.0).contains(&v), "value {v}");
        let ws = StressWaveform {
            mode: WaveMode::Synced {
                interval: 4e-3,
                offset: 62.5e-9,
                events: 10,
            },
            ..w
        };
        let v = ws.value(t);
        assert!((3.0..=20.0).contains(&v), "synced value {v}");
    });
}

/// The skitter %p2p reading is monotone in the excursion width.
#[test]
fn skitter_monotone_in_excursion() {
    check(48, |rng| {
        let lo = rng.gen_range(0.0..0.1);
        let hi = rng.gen_range(0.0..0.1);
        let extra = rng.gen_range(0.001..0.05);
        let sk = Skitter::new(SkitterConfig::default());
        let narrow = sk.measure_extremes(1.05 - lo, 1.05 + hi).pct_p2p();
        let wide = sk
            .measure_extremes(1.05 - lo - extra, 1.05 + hi + extra)
            .pct_p2p();
        assert!(wide >= narrow);
    });
}

/// Group formation partitions the body: every index exactly once, in
/// order, and no group exceeds the dispatch width.
#[test]
fn groups_partition_body() {
    let isa = Isa::zlike();
    let cfg = CoreConfig::default();
    check(48, |rng| {
        let len = rng.gen_range(1usize..40);
        let body: Vec<Opcode> = (0..len)
            .map(|_| isa.opcodes().nth(rng.gen_range(0usize..1301)).unwrap())
            .collect();
        let groups = form_groups(&isa, &cfg, &body);
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(flat, (0..body.len()).collect::<Vec<_>>());
        assert!(groups
            .iter()
            .all(|g| !g.is_empty() && g.len() <= cfg.dispatch_width));
    });
}

/// The non-allocating group count agrees with group formation on random
/// bodies drawn from the whole ISA, with dispatch-alone and group-ending
/// ops planted so that every rule fires.
#[test]
fn group_count_matches_form_groups() {
    let isa = Isa::zlike();
    let cfg = CoreConfig::default();
    let all: Vec<Opcode> = isa.iter().map(|(op, _)| op).collect();
    let alone: Vec<Opcode> = isa
        .iter()
        .filter(|(_, d)| d.dispatch_alone)
        .map(|(op, _)| op)
        .collect();
    let enders: Vec<Opcode> = isa
        .iter()
        .filter(|(_, d)| d.ends_group && !d.dispatch_alone)
        .map(|(op, _)| op)
        .collect();
    assert!(!alone.is_empty() && !enders.is_empty());
    let pick = |rng: &mut SmallRng, ops: &[Opcode]| ops[rng.gen_range(0..ops.len())];
    check(400, |rng| {
        let len = rng.gen_range(0usize..24);
        let body: Vec<Opcode> = (0..len)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => pick(rng, &alone),
                1 | 2 => pick(rng, &enders),
                _ => pick(rng, &all),
            })
            .collect();
        assert_eq!(
            group_count(&isa, &cfg, &body),
            form_groups(&isa, &cfg, &body).len(),
            "{body:?}"
        );
    });
}

/// The analytic throughput estimate never exceeds the dispatch width and
/// is always positive for non-empty bodies.
#[test]
fn throughput_estimate_bounded() {
    let isa = Isa::zlike();
    let cfg = CoreConfig::default();
    check(48, |rng| {
        let len = rng.gen_range(1usize..24);
        let body: Vec<Opcode> = (0..len)
            .map(|_| isa.opcodes().nth(rng.gen_range(0usize..1301)).unwrap())
            .collect();
        let est = estimate_throughput(&isa, &cfg, &body);
        assert!(est > 0.0);
        assert!(est <= cfg.dispatch_width as f64 + 1e-9);
    });
}

/// Offsets spread within a window stay within it and start at zero.
#[test]
fn spread_offsets_bounds() {
    check(48, |rng| {
        let n = rng.gen_range(1usize..7);
        let window = rng.gen_range(0u64..20);
        let offs = spread_offsets(n, window);
        assert_eq!(offs.len(), n);
        assert!(offs.iter().all(|&o| o <= window));
        assert_eq!(offs[0], 0);
    });
}

/// Guard-band tables are monotone regardless of the (noisy) measured
/// input order.
#[test]
fn guardband_table_monotone() {
    check(48, |rng| {
        let mut arr = [0.0f64; 7];
        for x in &mut arr {
            *x = rng.gen_range(0.0..0.2);
        }
        let safety = rng.gen_range(1.0..1.5);
        let t = GuardbandTable::from_worst_case_noise(arr, safety);
        for k in 1..=6 {
            assert!(t.margin_v(k) >= t.margin_v(k - 1));
        }
    });
}

/// Transient simulation of a passive RC network under constant load
/// settles to the DC solution regardless of element values.
#[test]
fn transient_settles_to_dc() {
    check(24, |rng| {
        let r = rng.gen_range(1e-3..0.1);
        let c = rng.gen_range(1e-8..1e-5);
        let load = rng.gen_range(0.0..20.0);
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node();
        nl.add_resistor(vdd, die, r).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, c).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();
        let mut solver = TransientSolver::new(&nl).unwrap();
        let cfg = TransientConfig::new(20e-6);
        let out = solver
            .run(
                &ConstantDrive::new(vec![load]),
                &[Probe::NodeVoltage(die)],
                &cfg,
            )
            .unwrap();
        let expected = 1.0 - load * r;
        assert!((out.stats[0].mean - expected).abs() < 1e-6);
        assert!(out.stats[0].peak_to_peak() < 1e-6);
    });
}

/// Trace playback is exactly periodic with the loop duration.
#[test]
fn trace_playback_is_periodic() {
    use voltnoise::pdn::transient::Drive;
    use voltnoise::pdn::waveform::TracePlayback;
    check(32, |rng| {
        let len = rng.gen_range(3usize..40);
        let samples = vec_in(rng, 1.0, 30.0, len);
        let t = rng.gen_range(0.0..1e-5);
        let p = TracePlayback::new(vec![samples], 1e-9, 2.0);
        let period = p.loop_duration(0);
        let mut a = [0.0];
        let mut b = [0.0];
        p.currents(t, &mut a);
        p.currents(t + period, &mut b);
        // Tolerate one-sample boundary slip from floating division.
        let mut c = [0.0];
        p.currents(t + period + 1e-12, &mut c);
        let periodic = (a[0] - b[0]).abs() < 1e-12 || (a[0] - c[0]).abs() < 1e-12;
        assert!(periodic, "value changed across one loop period");
    });
}

/// The global governor never overfills a slot when per-request sizes fit
/// the budget and capacity suffices.
#[test]
fn governor_respects_budget() {
    use voltnoise::system::mitigation::{GlobalNoiseGovernor, GovernorConfig};
    check(32, |rng| {
        let len = rng.gen_range(1usize..7);
        let requests = vec_in(rng, 0.5, 8.0, len);
        let budget = 10.0;
        let gov = GlobalNoiseGovernor::new(GovernorConfig {
            delta_i_budget_a: budget,
            max_stagger_ticks: 15, // plenty of slots
        });
        let admissions = gov.schedule(&requests);
        assert_eq!(admissions.len(), requests.len());
        assert!(gov.worst_slot_delta_i(&requests) <= budget + 1e-9);
    });
}

/// Dither outcomes are bounded by the pigeonhole principle.
#[test]
fn dither_best_alignment_bounds() {
    use voltnoise::system::dither::simulate_dither;
    check(32, |rng| {
        let cores = rng.gen_range(1usize..7);
        let slots = rng.gen_range(1u64..20);
        let intervals = rng.gen_range(1u64..200);
        let out = simulate_dither(cores, slots, intervals, 5);
        assert!(out.best_aligned_cores <= cores);
        let floor = cores.div_ceil(slots as usize);
        assert!(out.best_aligned_cores >= floor);
    });
}

/// Register dependencies can only slow execution down, never speed it
/// up, relative to the structural model.
#[test]
fn dependencies_never_increase_ipc() {
    use voltnoise::uarch::deps::{assign_operands, run_with_deps, OperandPolicy};
    use voltnoise::uarch::pipeline::PipelineSim;
    let isa = Isa::zlike();
    let cfg = CoreConfig::default();
    check(24, |rng| {
        let len = rng.gen_range(2usize..14);
        let body: Vec<Opcode> = (0..len)
            .map(|_| isa.opcodes().nth(rng.gen_range(0usize..1301)).unwrap())
            .collect();
        let structural = PipelineSim::new(&isa, &cfg).run(&body, 120, false).ipc();
        for policy in [OperandPolicy::Independent, OperandPolicy::Chained] {
            let with_deps = run_with_deps(&isa, &cfg, &assign_operands(&body, policy), 120).ipc();
            assert!(
                with_deps <= structural + 1e-9,
                "policy {policy:?}: {with_deps} > {structural}"
            );
        }
    });
}

/// Sticky bit strings grow monotonically under accumulation.
#[test]
fn bitstring_accumulation_is_monotone() {
    use voltnoise::measure::bitstring::StickyBitmap;
    check(32, |rng| {
        let len = rng.gen_range(1usize..60);
        let volts = vec_in(rng, 0.9, 1.15, len);
        let sk = Skitter::new(SkitterConfig::default());
        let mut sticky = StickyBitmap::new();
        let mut prev = 0;
        for v in volts {
            sticky.observe(&sk, v);
            let count = sticky.bits().count();
            assert!(count >= prev);
            assert!(count as usize <= voltnoise::measure::bitstring::TAPS);
            prev = count;
        }
    });
}

/// Impedance masks pick the band of the lowest covering frequency.
#[test]
fn mask_band_selection() {
    use voltnoise::pdn::design::ImpedanceMask;
    check(32, |rng| {
        let f = rng.gen_range(1.0..1e9);
        let mask = ImpedanceMask::new(vec![(1e4, 1e-3), (1e6, 2e-3), (1e8, 3e-3)]).unwrap();
        match mask.limit_at(f) {
            Some(z) => {
                if f <= 1e4 {
                    assert_eq!(z, 1e-3);
                } else if f <= 1e6 {
                    assert_eq!(z, 2e-3);
                } else {
                    assert_eq!(z, 3e-3);
                }
            }
            None => assert!(f > 1e8),
        }
    });
}

/// [`voltnoise::system::SimJob`] keys: hashing is consistent with
/// equality — jobs built from the same inputs compare equal and hash
/// identically, and any drawn perturbation of seed, window, trace
/// recording or per-core load produces an unequal key.
#[test]
fn sim_job_hash_consistent_with_equality() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use voltnoise::system::SimJob;

    fn hash_of(job: &SimJob) -> u64 {
        let mut h = DefaultHasher::new();
        job.key().hash(&mut h);
        h.finish()
    }

    let tb = Testbed::fast();
    let freqs = [45e3, 300e3, 2.5e6];
    let windows = [None, Some(20e-6), Some(35e-6)];
    let batch = SimJob::batch(tb.chip());
    let loads_of = |freq: f64, synced: bool| -> [CoreLoad; 6] {
        let sm = tb.max_stressmark(freq, synced.then(SyncSpec::paper_default));
        std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()))
    };
    check(48, |rng| {
        let freq = freqs[rng.gen_range(0..freqs.len() as u32) as usize];
        let synced = rng.gen_range(0..2u32) == 1;
        let cfg = NoiseRunConfig {
            window_s: windows[rng.gen_range(0..windows.len() as u32) as usize],
            record_traces: rng.gen_range(0..2u32) == 1,
            seed: u64::from(rng.gen_range(0..4u32)),
            ..NoiseRunConfig::default()
        };
        let a = batch.job(loads_of(freq, synced), cfg.clone());
        let b = batch.job(loads_of(freq, synced), cfg.clone());
        assert_eq!(a.key(), b.key(), "same inputs must produce equal keys");
        assert_eq!(hash_of(&a), hash_of(&b), "equal keys must hash equally");

        // Any single perturbation must change the key.
        let perturbed = [
            batch.job(
                loads_of(freq, synced),
                NoiseRunConfig {
                    seed: cfg.seed + 1,
                    ..cfg.clone()
                },
            ),
            batch.job(
                loads_of(freq, synced),
                NoiseRunConfig {
                    record_traces: !cfg.record_traces,
                    ..cfg.clone()
                },
            ),
            batch.job(
                loads_of(freq, synced),
                NoiseRunConfig {
                    window_s: Some(55e-6),
                    ..cfg.clone()
                },
            ),
            batch.job(loads_of(freq * 1.5, synced), cfg.clone()),
        ];
        for p in &perturbed {
            assert_ne!(
                a.key(),
                p.key(),
                "perturbed inputs must produce distinct keys"
            );
        }
    });
}

/// Welch PSD merging is associative, commutative, and
/// segment-count-preserving — bit for bit, on any random partition of
/// the work. The fixed-point accumulator makes partial periodogram
/// merging exact, so a campaign's spectral telemetry can be split across
/// workers arbitrarily and every merge tree produces identical bytes.
#[test]
fn welch_merge_is_associative_commutative_and_exact() {
    use voltnoise::pdn::signal::{welch_psd, WelchConfig, WelchPsd};
    check(24, |rng| {
        let cfg = WelchConfig::half_overlap(64, 1.0e6);
        let parts: Vec<WelchPsd> = (0..3)
            .map(|_| {
                let n = rng.gen_range(96usize..1500);
                let samples = vec_in(rng, -2.0, 2.0, n);
                welch_psd(&samples, cfg).unwrap()
            })
            .collect();
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), built left and right.
        let mut left = a.clone();
        left.merge(b).unwrap();
        left.merge(c).unwrap();
        let mut right = b.clone();
        right.merge(c).unwrap();
        let mut right_total = a.clone();
        right_total.merge(&right).unwrap();
        assert_eq!(left, right_total, "merge must be associative, bitwise");

        // a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(b).unwrap();
        let mut ba = b.clone();
        ba.merge(a).unwrap();
        assert_eq!(ab, ba, "merge must be commutative, bitwise");

        // Segment counts are conserved like any telemetry counter.
        assert_eq!(
            left.segments(),
            a.segments() + b.segments() + c.segments(),
            "merge must preserve total segment count"
        );

        // Mismatched configurations must refuse, not silently mix.
        let other = welch_psd(
            &vec_in(rng, -1.0, 1.0, 256),
            WelchConfig::half_overlap(128, 1.0e6),
        )
        .unwrap();
        assert!(a.clone().merge(&other).is_err());
    });
}

/// The periodic Hann window keeps its analytic normalization on every
/// power-of-two length: DC gain exactly 1/2 and power gain exactly 3/8
/// (to float-sum roundoff), which is what makes the one-sided PSD
/// scaling — and therefore every band-power number — trustworthy.
#[test]
fn hann_window_gains_match_analytic_values() {
    use voltnoise::pdn::signal::{hann_window, window_dc_gain, window_power_gain};
    for exp in 2..14 {
        let n = 1usize << exp;
        let w = hann_window(n);
        assert_eq!(w.len(), n);
        assert!(
            (window_dc_gain(&w) - 0.5).abs() < 1e-12,
            "DC gain drifted at n={n}: {}",
            window_dc_gain(&w)
        );
        assert!(
            (window_power_gain(&w) - 0.375).abs() < 1e-12,
            "power gain drifted at n={n}: {}",
            window_power_gain(&w)
        );
    }
}
