//! Micro-benchmark kernels: looped instruction sequences with measured
//! power, IPC and current.
//!
//! A [`Kernel`] is the paper's micro-benchmark skeleton: "an endless loop
//! with 4000 repetitions of the instruction, without dependencies"
//! (§IV-A), generalized to arbitrary bodies for sequence search and
//! stressmark construction.

use crate::isa::{Isa, Opcode};
use crate::pipeline::{CoreConfig, PipelineSim};
use serde::{Deserialize, Serialize};

/// Default repetition count of the EPI micro-benchmark skeleton.
pub(crate) const EPI_REPETITIONS: usize = 4000;

/// A looped instruction sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Display name.
    pub name: String,
    /// One loop iteration's instructions.
    pub body: Vec<Opcode>,
    /// Number of loop iterations to simulate.
    pub iterations: usize,
}

impl Kernel {
    /// Builds the EPI micro-benchmark for one instruction: `reps`
    /// dependency-free repetitions, split into loop iterations of at most
    /// 400 body instructions.
    pub fn single_instruction(isa: &Isa, op: Opcode, reps: usize) -> Self {
        let unroll = reps.clamp(1, 400);
        let iterations = reps.div_ceil(unroll);
        Kernel {
            name: format!("epi_{}", isa.def(op).mnemonic),
            body: vec![op; unroll],
            iterations,
        }
    }

    /// Builds a kernel from a sequence body, repeated enough times to
    /// reach a steady state (at least 200 iterations).
    pub fn from_sequence(name: impl Into<String>, body: Vec<Opcode>, iterations: usize) -> Self {
        Kernel {
            name: name.into(),
            body,
            iterations: iterations.max(1),
        }
    }

    /// Simulates the kernel and reports aggregate metrics.
    pub fn run(&self, isa: &Isa, cfg: &CoreConfig) -> RunMetrics {
        let out = PipelineSim::new(isa, cfg).run(&self.body, self.iterations, false);
        RunMetrics {
            cycles: out.cycles,
            uops: out.uops,
            ipc: out.ipc(),
            avg_power_w: out.avg_power_w(cfg),
            avg_current_a: out.avg_current_a(cfg),
            energy_per_uop_pj: if out.uops == 0 {
                0.0
            } else {
                out.energy_pj / out.uops as f64
            },
        }
    }

    /// Simulates the kernel and additionally returns the per-cycle supply
    /// current in amperes (static + dynamic).
    pub fn run_traced(&self, isa: &Isa, cfg: &CoreConfig) -> (RunMetrics, Vec<f64>) {
        let out = PipelineSim::new(isa, cfg).run(&self.body, self.iterations, true);
        let metrics = RunMetrics {
            cycles: out.cycles,
            uops: out.uops,
            ipc: out.ipc(),
            avg_power_w: out.avg_power_w(cfg),
            avg_current_a: out.avg_current_a(cfg),
            energy_per_uop_pj: if out.uops == 0 {
                0.0
            } else {
                out.energy_pj / out.uops as f64
            },
        };
        let static_current = cfg.static_power_w / cfg.v_nom;
        let trace = out
            .cycle_energy_pj
            .unwrap_or_default()
            .iter()
            .map(|e_pj| static_current + e_pj * 1e-12 * cfg.freq_hz / cfg.v_nom)
            .collect();
        (metrics, trace)
    }
}

/// Aggregate measurements of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Simulated cycles.
    pub cycles: u64,
    /// Micro-ops executed.
    pub uops: u64,
    /// Micro-ops per cycle.
    pub ipc: f64,
    /// Average power in watts (static + dynamic).
    pub avg_power_w: f64,
    /// Average supply current in amperes.
    pub avg_current_a: f64,
    /// Average dynamic energy per micro-op in picojoules.
    pub energy_per_uop_pj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Isa, CoreConfig) {
        (Isa::zlike(), CoreConfig::default())
    }

    #[test]
    fn single_instruction_kernel_covers_requested_reps() {
        let (isa, _) = setup();
        let op = isa.opcode("CHHSI").unwrap();
        let k = Kernel::single_instruction(&isa, op, EPI_REPETITIONS);
        assert_eq!(k.body.len() * k.iterations, EPI_REPETITIONS);
    }

    #[test]
    fn high_power_loop_beats_low_power_loop() {
        let (isa, cfg) = setup();
        let cib = Kernel::single_instruction(&isa, isa.opcode("CIB").unwrap(), 4000);
        let srnm = Kernel::single_instruction(&isa, isa.opcode("SRNM").unwrap(), 400);
        let p_hi = cib.run(&isa, &cfg).avg_power_w;
        let p_lo = srnm.run(&isa, &cfg).avg_power_w;
        assert!(p_hi > 1.4 * p_lo, "hi {p_hi} lo {p_lo}");
    }

    #[test]
    fn current_is_power_over_voltage() {
        let (isa, cfg) = setup();
        let k = Kernel::single_instruction(&isa, isa.opcode("L").unwrap(), 2000);
        let m = k.run(&isa, &cfg);
        assert!((m.avg_current_a - m.avg_power_w / cfg.v_nom).abs() < 1e-12);
    }

    #[test]
    fn traced_run_matches_untraced_metrics() {
        let (isa, cfg) = setup();
        let k = Kernel::single_instruction(&isa, isa.opcode("AR").unwrap(), 1200);
        let plain = k.run(&isa, &cfg);
        let (traced, trace) = k.run_traced(&isa, &cfg);
        assert_eq!(plain, traced);
        assert!(!trace.is_empty());
        // Trace average should approximate the mean current (trailing
        // cycles without issues drag it slightly).
        let avg: f64 = trace.iter().sum::<f64>() / trace.len() as f64;
        assert!((avg - traced.avg_current_a).abs() / traced.avg_current_a < 0.1);
    }

    #[test]
    fn nop_like_cheap_loop_is_not_minimum_power() {
        // Paper §IV-B: "the no-operation instruction (nop) is not the
        // optimal candidate. Instead, long-latency instructions ... are
        // better candidates because they stall all parts of the processor."
        let (isa, cfg) = setup();
        let cheap = isa
            .iter()
            .filter(|(_, d)| d.latency <= 1 && d.unit == crate::units::UnitKind::Fxu)
            .min_by(|a, b| a.1.energy_pj.total_cmp(&b.1.energy_pj))
            .unwrap()
            .0;
        let nop_like = Kernel::single_instruction(&isa, cheap, 4000).run(&isa, &cfg);
        let srnm =
            Kernel::single_instruction(&isa, isa.opcode("SRNM").unwrap(), 400).run(&isa, &cfg);
        assert!(
            srnm.avg_power_w < nop_like.avg_power_w,
            "srnm {} vs nop-like {}",
            srnm.avg_power_w,
            nop_like.avg_power_w
        );
    }
}
