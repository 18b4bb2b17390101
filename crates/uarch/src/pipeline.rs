//! Dispatch-group formation and the cycle-level execution model.
//!
//! The modeled core follows the zEC12 outline the paper leans on: an
//! in-order front end dispatching **groups of up to three** micro-ops per
//! cycle (branches close a group; serializing operations dispatch alone),
//! out-of-order issue over the unit ports of [`crate::units::UnitKind`],
//! and in-order retirement bounded by a reorder-buffer budget.
//!
//! Stressmark kernels are dependency-free by construction (the paper
//! found explicit dependencies unnecessary, §IV-C), so the model resolves
//! only *structural* hazards: dispatch width, port occupancy, the ROB
//! bound and pipeline serialization.

use crate::isa::{Isa, Opcode};
use crate::units::UnitKind;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of the modeled core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core clock frequency in hertz (the modeled machine runs 5.5 GHz).
    pub freq_hz: f64,
    /// Maximum micro-ops per dispatch group.
    pub dispatch_width: usize,
    /// Maximum in-flight (dispatched, unretired) micro-ops.
    pub rob_uops: usize,
    /// Leakage + clock-grid power in watts, drawn regardless of activity.
    pub static_power_w: f64,
    /// Nominal supply voltage in volts, used to convert power to current.
    pub v_nom: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            freq_hz: 5.5e9,
            dispatch_width: 3,
            rob_uops: 72,
            static_power_w: 8.5,
            v_nom: 1.05,
        }
    }
}

impl CoreConfig {
    /// Clock period in seconds.
    pub fn cycle_time(&self) -> f64 {
        1.0 / self.freq_hz
    }
}

/// Splits a kernel body into dispatch groups (indices into `body`).
///
/// Rules (paper §IV-B: "sequences that are known to not have an average
/// dispatch group size of 3 ... are filtered out"):
///
/// - at most `dispatch_width` micro-ops per group;
/// - a branch (`ends_group`) closes its group;
/// - a `dispatch_alone` instruction forms a singleton group.
///
/// # Examples
///
/// ```
/// use voltnoise_uarch::isa::Isa;
/// use voltnoise_uarch::pipeline::{form_groups, CoreConfig};
///
/// let isa = Isa::zlike();
/// let cfg = CoreConfig::default();
/// let chhsi = isa.opcode("CHHSI").unwrap();
/// let cib = isa.opcode("CIB").unwrap();
/// // [CHHSI, CHHSI, CIB, CHHSI] -> groups {0,1,2}, {3}
/// let groups = form_groups(&isa, &cfg, &[chhsi, chhsi, cib, chhsi]);
/// assert_eq!(groups, vec![vec![0, 1, 2], vec![3]]);
/// ```
pub fn form_groups(isa: &Isa, cfg: &CoreConfig, body: &[Opcode]) -> Vec<Vec<usize>> {
    let mut groups = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for (i, &op) in body.iter().enumerate() {
        let def = isa.def(op);
        if def.dispatch_alone {
            if !current.is_empty() {
                groups.push(std::mem::take(&mut current));
            }
            groups.push(vec![i]);
            continue;
        }
        current.push(i);
        if def.ends_group || current.len() >= cfg.dispatch_width {
            groups.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// The number of dispatch groups [`form_groups`] forms, by the same
/// rules, without allocating the groups.
pub fn group_count(isa: &Isa, cfg: &CoreConfig, body: &[Opcode]) -> usize {
    let mut groups = 0;
    let mut open = 0;
    for &op in body {
        let def = isa.def(op);
        if def.dispatch_alone {
            groups += usize::from(open > 0) + 1;
            open = 0;
            continue;
        }
        open += 1;
        if def.ends_group || open >= cfg.dispatch_width {
            groups += 1;
            open = 0;
        }
    }
    groups + usize::from(open > 0)
}

/// Average dispatch-group size of a body (micro-ops per group).
pub fn average_group_size(isa: &Isa, cfg: &CoreConfig, body: &[Opcode]) -> f64 {
    match group_count(isa, cfg, body) {
        0 => 0.0,
        groups => body.len() as f64 / groups as f64,
    }
}

/// Outcome of a cycle-level simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Total simulated cycles (time of the last completion).
    pub cycles: u64,
    /// Micro-ops executed.
    pub uops: u64,
    /// Total dynamic energy in picojoules.
    pub energy_pj: f64,
    /// Dynamic energy per cycle, in picojoules, when tracing was enabled.
    pub cycle_energy_pj: Option<Vec<f64>>,
}

impl SimOutcome {
    /// Micro-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Average power in watts for a core configuration.
    pub fn avg_power_w(&self, cfg: &CoreConfig) -> f64 {
        if self.cycles == 0 {
            return cfg.static_power_w;
        }
        cfg.static_power_w + self.energy_pj * 1e-12 * cfg.freq_hz / self.cycles as f64
    }

    /// Average supply current in amperes.
    pub fn avg_current_a(&self, cfg: &CoreConfig) -> f64 {
        self.avg_power_w(cfg) / cfg.v_nom
    }
}

/// Cycle-level simulator of one core.
#[derive(Debug)]
pub struct PipelineSim<'a> {
    isa: &'a Isa,
    cfg: &'a CoreConfig,
}

impl<'a> PipelineSim<'a> {
    /// Creates a simulator over an ISA and core configuration.
    pub fn new(isa: &'a Isa, cfg: &'a CoreConfig) -> Self {
        PipelineSim { isa, cfg }
    }

    /// Simulates `iterations` repetitions of `body` and returns aggregate
    /// metrics. When `trace` is set, per-cycle dynamic energy is recorded
    /// (one entry per cycle, pJ).
    pub fn run(&self, body: &[Opcode], iterations: usize, trace: bool) -> SimOutcome {
        let groups = form_groups(self.isa, self.cfg, body);
        let mut port_free: Vec<Vec<u64>> = UnitKind::ALL
            .iter()
            .map(|u| vec![0u64; u.ports()])
            .collect();

        // In-flight completion times in dispatch order, for the ROB bound.
        let mut inflight: VecDeque<u64> = VecDeque::with_capacity(self.cfg.rob_uops + 4);
        let mut retire_watermark: u64 = 0; // in-order retire cursor
        let mut max_completion: u64 = 0;
        let mut dispatch_cycle: u64 = 0;
        let mut serialize_until: u64 = 0;

        let mut uops: u64 = 0;
        let mut energy = 0.0f64;
        let mut cycle_energy: Vec<f64> = Vec::new();
        let add_energy = |cycle: u64, e: f64, cycle_energy: &mut Vec<f64>| {
            if trace {
                let idx = cycle as usize;
                if idx >= cycle_energy.len() {
                    cycle_energy.resize(idx + 1, 0.0);
                }
                cycle_energy[idx] += e;
            }
        };

        for _ in 0..iterations {
            for group in &groups {
                // One group per cycle, after any serialization drain.
                dispatch_cycle = (dispatch_cycle + 1).max(serialize_until);

                let is_serializing = group.iter().any(|&i| self.isa.def(body[i]).serializing);
                if is_serializing {
                    // Wait for the pipeline to drain.
                    dispatch_cycle = dispatch_cycle.max(max_completion + 1);
                }

                // ROB back-pressure: free slots by retiring in order.
                while inflight.len() + group.len() > self.cfg.rob_uops {
                    let done = inflight.pop_front().expect("rob accounting");
                    retire_watermark = retire_watermark.max(done);
                    dispatch_cycle = dispatch_cycle.max(retire_watermark + 1);
                }

                for &i in group {
                    let def = self.isa.def(body[i]);
                    // Earliest free port of the instruction's unit.
                    let ports = &mut port_free[def.unit.index()];
                    let (best, &free_at) = ports
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &t)| t)
                        .expect("unit has ports");
                    let issue = dispatch_cycle.max(free_at);
                    ports[best] = issue + def.occupancy as u64;
                    let completion = issue + def.latency as u64;
                    max_completion = max_completion.max(completion);
                    inflight.push_back(completion);
                    uops += 1;
                    energy += def.energy_pj;
                    add_energy(issue, def.energy_pj, &mut cycle_energy);
                }

                if is_serializing {
                    serialize_until = max_completion + 1;
                }
            }
        }

        SimOutcome {
            cycles: max_completion.max(dispatch_cycle),
            uops,
            energy_pj: energy,
            cycle_energy_pj: trace.then_some(cycle_energy),
        }
    }
}

/// Fast analytic throughput estimate in micro-ops per cycle, used to
/// pre-filter large candidate sets before cycle simulation (paper §IV-B
/// step 4 motivates IPC filtering by its speed).
///
/// The estimate is the structural bound: dispatch can sustain at most one
/// group per cycle, each unit sustains `ports / occupancy` micro-ops per
/// cycle, and serializing instructions insert full drains.
pub fn estimate_throughput(isa: &Isa, cfg: &CoreConfig, body: &[Opcode]) -> f64 {
    if body.is_empty() {
        return 0.0;
    }
    let mut unit_occupancy = [0u64; UnitKind::ALL.len()];
    let mut serialize_penalty = 0u64;
    for &op in body {
        let def = isa.def(op);
        unit_occupancy[def.unit.index()] += def.occupancy as u64;
        if def.serializing {
            serialize_penalty += def.latency as u64 + 1;
        }
    }
    let dispatch_cycles = group_count(isa, cfg, body) as u64;
    let unit_cycles = UnitKind::ALL
        .iter()
        .map(|u| unit_occupancy[u.index()].div_ceil(u.ports() as u64))
        .max()
        .unwrap_or(0);
    let cycles = dispatch_cycles.max(unit_cycles) + serialize_penalty;
    body.len() as f64 / cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Isa, CoreConfig) {
        (Isa::zlike(), CoreConfig::default())
    }

    #[test]
    fn groups_close_on_branches_and_width() {
        let (isa, cfg) = setup();
        let chhsi = isa.opcode("CHHSI").unwrap();
        let cib = isa.opcode("CIB").unwrap();
        let body = [chhsi, chhsi, chhsi, chhsi, cib, chhsi];
        let groups = form_groups(&isa, &cfg, &body);
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn serializing_op_is_singleton_group() {
        let (isa, cfg) = setup();
        let chhsi = isa.opcode("CHHSI").unwrap();
        let srnm = isa.opcode("SRNM").unwrap();
        let groups = form_groups(&isa, &cfg, &[chhsi, srnm, chhsi]);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn dual_port_fxu_sustains_ipc_2_on_single_op_loop() {
        let (isa, cfg) = setup();
        let chhsi = isa.opcode("CHHSI").unwrap();
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&vec![chhsi; 300], 4, false);
        let ipc = out.ipc();
        assert!((ipc - 2.0).abs() < 0.1, "ipc = {ipc}");
    }

    #[test]
    fn branch_loop_sustains_ipc_1() {
        let (isa, cfg) = setup();
        let cib = isa.opcode("CIB").unwrap();
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&vec![cib; 300], 4, false);
        assert!((out.ipc() - 1.0).abs() < 0.05, "ipc = {}", out.ipc());
    }

    #[test]
    fn mixed_sequence_reaches_ipc_3() {
        let (isa, cfg) = setup();
        let chhsi = isa.opcode("CHHSI").unwrap();
        let l = isa.opcode("L").unwrap();
        let cib = isa.opcode("CIB").unwrap();
        let madbr = isa.opcode("MADBR").unwrap();
        let body = [chhsi, l, cib, chhsi, madbr, cib];
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&body, 400, false);
        assert!(out.ipc() > 2.8, "ipc = {}", out.ipc());
    }

    #[test]
    fn serializing_loop_has_tiny_ipc() {
        let (isa, cfg) = setup();
        let srnm = isa.opcode("SRNM").unwrap();
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&[srnm; 50], 4, false);
        assert!(out.ipc() < 0.08, "ipc = {}", out.ipc());
    }

    #[test]
    fn blocking_divide_throttles_unit() {
        let (isa, cfg) = setup();
        let ddbr = isa.opcode("DDBR").unwrap(); // occupancy 27 on 1-port BFU
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&[ddbr; 100], 4, false);
        let expected = 1.0 / isa.def(ddbr).occupancy as f64;
        assert!((out.ipc() - expected).abs() < 0.01, "ipc = {}", out.ipc());
    }

    #[test]
    fn estimator_tracks_simulation_within_20_percent() {
        let (isa, cfg) = setup();
        let sim = PipelineSim::new(&isa, &cfg);
        let bodies: Vec<Vec<Opcode>> = vec![
            vec![isa.opcode("CHHSI").unwrap(); 6],
            vec![isa.opcode("CIB").unwrap(); 6],
            vec![
                isa.opcode("CHHSI").unwrap(),
                isa.opcode("L").unwrap(),
                isa.opcode("CIB").unwrap(),
                isa.opcode("CHHSI").unwrap(),
                isa.opcode("MADBR").unwrap(),
                isa.opcode("CIB").unwrap(),
            ],
            vec![isa.opcode("DDBR").unwrap(); 6],
        ];
        for body in bodies {
            let est = estimate_throughput(&isa, &cfg, &body);
            let real = sim.run(&body, 400, false).ipc();
            let rel = (est - real).abs() / real.max(1e-9);
            assert!(rel < 0.2, "est {est} vs real {real} for {body:?}");
        }
    }

    #[test]
    fn energy_trace_sums_to_total() {
        let (isa, cfg) = setup();
        let chhsi = isa.opcode("CHHSI").unwrap();
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&[chhsi; 60], 3, true);
        let trace_sum: f64 = out.cycle_energy_pj.as_ref().unwrap().iter().sum();
        assert!((trace_sum - out.energy_pj).abs() < 1e-6);
    }

    #[test]
    fn rob_bound_limits_runahead() {
        let (isa, mut cfg) = setup();
        cfg.rob_uops = 6;
        // Long-latency loads: with a tiny ROB, dispatch stalls on retire.
        let l = isa.opcode("L").unwrap();
        let sim_small = PipelineSim::new(&isa, &cfg);
        let out_small = sim_small.run(&vec![l; 120], 4, false);
        let cfg_big = CoreConfig::default();
        let sim_big = PipelineSim::new(&isa, &cfg_big);
        let out_big = sim_big.run(&vec![l; 120], 4, false);
        assert!(out_small.ipc() <= out_big.ipc() + 1e-9);
    }

    #[test]
    fn power_includes_static_floor() {
        let (isa, cfg) = setup();
        let srnm = isa.opcode("SRNM").unwrap();
        let sim = PipelineSim::new(&isa, &cfg);
        let out = sim.run(&[srnm; 50], 2, false);
        let p = out.avg_power_w(&cfg);
        assert!(p > cfg.static_power_w);
        assert!(p < cfg.static_power_w + 0.5, "p = {p}");
    }
}
