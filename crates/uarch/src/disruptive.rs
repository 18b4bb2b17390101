//! Disruptive events and memory-hierarchy activity (paper §IV-C).
//!
//! While defining the stressmark methodology the authors "also studied
//! the introduction of disruptive (e.g. branch/cache/TLB misses) events
//! and memory hierarchy activity to maximize the ΔI generated" and
//! rejected them for three measured reasons:
//!
//! (a) disruptive events showed small power differences vs the minimum
//!     power sequence;
//! (b) memory activity did not improve the maximum power significantly;
//! (c) disruptive events and memory activity in shared resources limit
//!     the capacity to control the stimulus frequency.
//!
//! This module models those effects so the rejection can be reproduced:
//! kernels may be decorated with miss events that stall the pipeline
//! (hurting IPC and power) and with off-core memory traffic that adds a
//! little uncore energy but couples the loop timing to a shared, variable
//! resource.

use crate::isa::{Isa, Opcode};
use crate::kernel::{Kernel, RunMetrics};
use crate::pipeline::{CoreConfig, PipelineSim};
use serde::{Deserialize, Serialize};

/// A class of disruptive event injected into a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DisruptiveEvent {
    /// Branch misprediction: pipeline flush and refill.
    BranchMiss,
    /// L1 data-cache miss served by the L2.
    L1Miss,
    /// Cache miss served by the shared L3 (off-core).
    L3Miss,
    /// TLB miss with a table walk.
    TlbMiss,
}

impl DisruptiveEvent {
    /// Stall cycles the event inserts at the dispatch stage.
    pub fn stall_cycles(self) -> u32 {
        match self {
            DisruptiveEvent::BranchMiss => 18,
            DisruptiveEvent::L1Miss => 12,
            DisruptiveEvent::L3Miss => 60,
            DisruptiveEvent::TlbMiss => 40,
        }
    }

    /// Extra energy of the event itself, picojoules (flush/refill or
    /// line transfer). Small compared with the energy lost to stalling.
    pub fn energy_pj(self) -> f64 {
        match self {
            DisruptiveEvent::BranchMiss => 650.0,
            DisruptiveEvent::L1Miss => 900.0,
            DisruptiveEvent::L3Miss => 2600.0,
            DisruptiveEvent::TlbMiss => 1400.0,
        }
    }

    /// True when the event occupies a *shared* resource whose service
    /// time varies with other cores' traffic.
    pub fn uses_shared_resource(self) -> bool {
        matches!(self, DisruptiveEvent::L3Miss | DisruptiveEvent::TlbMiss)
    }
}

/// A kernel decorated with periodic disruptive events and, optionally,
/// off-core memory traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisruptedKernel {
    /// The underlying instruction kernel.
    pub kernel: Kernel,
    /// Event injected once per `every_uops` micro-ops (`None` = never).
    pub event: Option<(DisruptiveEvent, u32)>,
    /// Off-core memory accesses per loop iteration (L3/DRAM traffic).
    pub memory_accesses_per_iter: u32,
}

/// Uncore energy of one off-core memory access (L3 array + fabric), pJ.
const MEMORY_ACCESS_ENERGY_PJ: f64 = 1900.0;

/// Cycles one off-core access occupies the (shared) interface per access
/// beyond what the pipeline overlaps.
const MEMORY_ACCESS_SHARED_CYCLES: f64 = 4.0;

/// Result of running a disrupted kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisruptedMetrics {
    /// Baseline metrics (cycles, power, IPC) including disruption.
    pub metrics: RunMetrics,
    /// Relative loop-period variability (coefficient of variation) caused
    /// by shared-resource contention — the paper's reason (c): it
    /// "limits the capacity to control the stimulus frequency".
    pub period_variability: f64,
}

impl DisruptedKernel {
    /// Builds an undisrupted wrapper.
    pub fn plain(kernel: Kernel) -> Self {
        DisruptedKernel {
            kernel,
            event: None,
            memory_accesses_per_iter: 0,
        }
    }

    /// Adds a periodic disruptive event.
    pub fn with_event(mut self, event: DisruptiveEvent, every_uops: u32) -> Self {
        self.event = Some((event, every_uops.max(1)));
        self
    }

    /// Adds off-core memory traffic.
    pub fn with_memory_traffic(mut self, accesses_per_iter: u32) -> Self {
        self.memory_accesses_per_iter = accesses_per_iter;
        self
    }

    /// Runs the disrupted kernel with a given level of *other-core*
    /// contention on shared resources, in `[0, 1]` (0 = alone on the
    /// chip).
    pub fn run(&self, isa: &Isa, cfg: &CoreConfig, contention: f64) -> DisruptedMetrics {
        let base = PipelineSim::new(isa, cfg).run(&self.kernel.body, self.kernel.iterations, false);

        // Disruptive events: stall cycles and flush energy, scaled by the
        // injection rate.
        let (stall_cycles, event_energy, event_shared) = match self.event {
            Some((ev, every)) => {
                let events = base.uops / every as u64;
                let shared_factor = if ev.uses_shared_resource() {
                    1.0 + contention * 1.5
                } else {
                    1.0
                };
                (
                    events as f64 * ev.stall_cycles() as f64 * shared_factor,
                    events as f64 * ev.energy_pj(),
                    ev.uses_shared_resource(),
                )
            }
            None => (0.0, 0.0, false),
        };

        // Memory traffic: uncore energy plus shared-interface occupancy.
        let accesses = self.memory_accesses_per_iter as f64 * self.kernel.iterations as f64;
        let mem_cycles = accesses * MEMORY_ACCESS_SHARED_CYCLES * (1.0 + contention * 2.0);
        let mem_energy = accesses * MEMORY_ACCESS_ENERGY_PJ;

        let cycles = base.cycles as f64 + stall_cycles + mem_cycles;
        let energy_pj = base.energy_pj + event_energy + mem_energy;
        let power_w = cfg.static_power_w + energy_pj * 1e-12 * cfg.freq_hz / cycles;
        let metrics = RunMetrics {
            cycles: cycles as u64,
            uops: base.uops,
            ipc: base.uops as f64 / cycles,
            avg_power_w: power_w,
            avg_current_a: power_w / cfg.v_nom,
            energy_per_uop_pj: if base.uops == 0 {
                0.0
            } else {
                energy_pj / base.uops as f64
            },
        };

        // Loop-period variability: shared-resource service time varies
        // with the other cores' traffic; private events are deterministic.
        let shared_fraction = (if event_shared { stall_cycles } else { 0.0 } + mem_cycles) / cycles;
        let period_variability = shared_fraction * (0.1 + 0.5 * contention);

        DisruptedMetrics {
            metrics,
            period_variability,
        }
    }
}

/// The paper's three §IV-C findings, evaluated for a given max-power and
/// min-power sequence pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisruptionStudy {
    /// Power of a loop dominated by disruptive events, watts.
    pub disruptive_power_w: f64,
    /// Power of the minimum-power sequence, watts.
    pub min_power_w: f64,
    /// Power of the maximum-power sequence, watts.
    pub max_power_w: f64,
    /// Power of the maximum sequence with added memory traffic, watts.
    pub max_with_memory_w: f64,
    /// Period variability of the core-contained maximum sequence.
    pub contained_variability: f64,
    /// Period variability of the memory-active sequence under contention.
    pub memory_variability: f64,
}

impl DisruptionStudy {
    /// Runs the study.
    pub fn run(isa: &Isa, cfg: &CoreConfig, max_body: &[Opcode], min_body: &[Opcode]) -> Self {
        let max_kernel = Kernel::from_sequence("max", max_body.to_vec(), 200);
        let min_kernel = Kernel::from_sequence("min", min_body.to_vec(), 40);

        let max_plain = DisruptedKernel::plain(max_kernel.clone()).run(isa, cfg, 0.0);
        let min_plain = DisruptedKernel::plain(min_kernel).run(isa, cfg, 0.0);
        // A "disruptive" low-power candidate: cheap ops with frequent
        // branch misses (the alternative the paper evaluated).
        let cheap = isa
            .iter()
            .filter(|(_, d)| d.latency <= 1 && !d.serializing && !d.ends_group)
            .min_by(|a, b| a.1.energy_pj.total_cmp(&b.1.energy_pj))
            .map(|(op, _)| op)
            .expect("cheap op exists");
        let disruptive = DisruptedKernel::plain(Kernel::from_sequence("disr", vec![cheap; 6], 200))
            .with_event(DisruptiveEvent::BranchMiss, 6)
            .run(isa, cfg, 0.0);
        let max_mem = DisruptedKernel::plain(max_kernel)
            .with_memory_traffic(2)
            .run(isa, cfg, 0.5);

        DisruptionStudy {
            disruptive_power_w: disruptive.metrics.avg_power_w,
            min_power_w: min_plain.metrics.avg_power_w,
            max_power_w: max_plain.metrics.avg_power_w,
            max_with_memory_w: max_mem.metrics.avg_power_w,
            contained_variability: max_plain.period_variability,
            memory_variability: max_mem.period_variability,
        }
    }

    /// Finding (a): the disruptive loop sits close to the minimum power.
    pub fn disruptive_close_to_minimum(&self) -> bool {
        let range = self.max_power_w - self.min_power_w;
        (self.disruptive_power_w - self.min_power_w).abs() < 0.25 * range
    }

    /// Finding (b): memory traffic does not raise the maximum power
    /// significantly (under 5 %).
    pub fn memory_gain_fraction(&self) -> f64 {
        (self.max_with_memory_w - self.max_power_w) / self.max_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static (Isa, CoreConfig, DisruptionStudy) {
        static CELL: OnceLock<(Isa, CoreConfig, DisruptionStudy)> = OnceLock::new();
        CELL.get_or_init(|| {
            let isa = Isa::zlike();
            let cfg = CoreConfig::default();
            let max_body: Vec<Opcode> = ["CHHSI", "L", "CIB", "CHHSI", "MADBR", "CIB"]
                .iter()
                .map(|m| isa.opcode(m).unwrap())
                .collect();
            let min_body = vec![isa.opcode("SRNM").unwrap()];
            let s = DisruptionStudy::run(&isa, &cfg, &max_body, &min_body);
            (isa, cfg, s)
        })
    }

    #[test]
    fn finding_a_disruptive_events_are_near_minimum_power() {
        let (_, _, s) = study();
        assert!(
            s.disruptive_close_to_minimum(),
            "disruptive {:.2} W vs min {:.2} W / max {:.2} W",
            s.disruptive_power_w,
            s.min_power_w,
            s.max_power_w
        );
    }

    #[test]
    fn finding_b_memory_does_not_boost_max_power() {
        let (_, _, s) = study();
        let gain = s.memory_gain_fraction();
        assert!(gain < 0.05, "memory gain {:.3}", gain);
    }

    #[test]
    fn finding_c_shared_resources_hurt_stimulus_control() {
        let (_, _, s) = study();
        assert!(
            s.contained_variability < 1e-6,
            "core-contained loops are deterministic"
        );
        assert!(
            s.memory_variability > 0.01,
            "shared traffic must add variability"
        );
    }

    #[test]
    fn stalls_reduce_ipc_and_power() {
        let (isa, cfg, _) = study();
        let body: Vec<Opcode> = vec![isa.opcode("CHHSI").unwrap(); 12];
        let plain = DisruptedKernel::plain(Kernel::from_sequence("k", body.clone(), 100))
            .run(isa, cfg, 0.0);
        let missy = DisruptedKernel::plain(Kernel::from_sequence("k", body, 100))
            .with_event(DisruptiveEvent::L1Miss, 4)
            .run(isa, cfg, 0.0);
        assert!(missy.metrics.ipc < plain.metrics.ipc * 0.5);
        assert!(missy.metrics.avg_power_w < plain.metrics.avg_power_w);
    }

    #[test]
    fn contention_slows_shared_events_only() {
        let (isa, cfg, _) = study();
        let body: Vec<Opcode> = vec![isa.opcode("CHHSI").unwrap(); 12];
        let mk = |ev: DisruptiveEvent, cont: f64| {
            DisruptedKernel::plain(Kernel::from_sequence("k", body.clone(), 100))
                .with_event(ev, 6)
                .run(isa, cfg, cont)
                .metrics
                .ipc
        };
        // Branch misses are core-private: contention-independent.
        assert!(
            (mk(DisruptiveEvent::BranchMiss, 0.0) - mk(DisruptiveEvent::BranchMiss, 1.0)).abs()
                < 1e-12
        );
        // L3 misses slow down under contention.
        assert!(mk(DisruptiveEvent::L3Miss, 1.0) < mk(DisruptiveEvent::L3Miss, 0.0));
    }
}
