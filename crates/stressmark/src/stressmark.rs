//! dI/dt stressmark construction (paper Fig. 6).
//!
//! A stressmark alternates a maximum-power and a minimum-power
//! instruction sequence inside a loop, sized from their IPCs so the
//! activity square wave hits a target stimulus frequency; an optional
//! TOD-synchronization prologue aligns the ΔI events of all cores to
//! 62.5 ns granularity (§IV-C).

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use voltnoise_uarch::isa::{Isa, Opcode};
use voltnoise_uarch::kernel::Kernel;
use voltnoise_uarch::pipeline::CoreConfig;

/// Granularity of the TOD-based alignment control: 62.5 ns on the
/// modeled machine (§IV-C).
pub const TOD_TICK_SECONDS: f64 = 62.5e-9;

/// Default synchronization interval: the paper re-syncs every 4 ms.
pub const SYNC_INTERVAL_SECONDS: f64 = 4e-3;

/// Synchronization options of a stressmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncSpec {
    /// Synchronization interval in seconds.
    pub interval_s: f64,
    /// Exit offset after each boundary, in TOD ticks of 62.5 ns — the
    /// paper's deliberate-misalignment knob (§V-C).
    pub offset_ticks: u32,
    /// Consecutive ΔI events per burst before re-synchronizing.
    pub events: u32,
}

impl SyncSpec {
    /// The paper's default: sync every 4 ms, zero offset, 1000 events.
    pub fn paper_default() -> Self {
        SyncSpec {
            interval_s: SYNC_INTERVAL_SECONDS,
            offset_ticks: 0,
            events: 1000,
        }
    }

    /// Offset in seconds.
    pub fn offset_seconds(&self) -> f64 {
        self.offset_ticks as f64 * TOD_TICK_SECONDS
    }
}

/// Declarative description of a dI/dt stressmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StressmarkSpec {
    /// Display name.
    pub name: String,
    /// High-power sequence (one loop iteration).
    pub high_body: Vec<Opcode>,
    /// Low-power sequence (one loop iteration).
    pub low_body: Vec<Opcode>,
    /// Target stimulus frequency: ΔI event pairs per second.
    pub stim_freq_hz: f64,
    /// Fraction of each period spent in the high-power phase.
    pub duty: f64,
    /// Synchronization options; `None` free-runs (Fig. 7a style).
    pub sync: Option<SyncSpec>,
}

/// Errors from stressmark compilation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StressmarkError {
    /// A sequence body was empty.
    EmptyBody {
        /// Which body ("high" or "low").
        which: &'static str,
    },
    /// The duty cycle was outside `(0, 1)`.
    BadDuty {
        /// The offending value.
        duty: f64,
    },
    /// The stimulus frequency is not positive/finite, or so high that not
    /// even one sequence repetition fits in a phase.
    BadStimulus {
        /// Requested frequency.
        freq_hz: f64,
        /// Highest frequency this pair of sequences supports.
        max_hz: f64,
    },
}

impl fmt::Display for StressmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StressmarkError::EmptyBody { which } => write!(f, "empty {which}-power sequence"),
            StressmarkError::BadDuty { duty } => write!(f, "duty cycle {duty} outside (0, 1)"),
            StressmarkError::BadStimulus { freq_hz, max_hz } => write!(
                f,
                "stimulus frequency {freq_hz} Hz unrealizable (max ~{max_hz:.3e} Hz)"
            ),
        }
    }
}

impl Error for StressmarkError {}

/// A compiled stressmark: sequence repetition counts plus the measured
/// electrical operating points of its phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledStressmark {
    /// The input specification.
    pub spec: StressmarkSpec,
    /// High-power sequence repetitions per high phase.
    pub high_reps: u64,
    /// Low-power sequence repetitions per low phase.
    pub low_reps: u64,
    /// Supply current during the high phase, amperes.
    pub i_high_a: f64,
    /// Supply current during the low phase, amperes.
    pub i_low_a: f64,
    /// Supply current while spinning in the synchronization loop.
    pub i_idle_a: f64,
    /// Measured IPC of the high-power sequence.
    pub ipc_high: f64,
    /// Measured IPC of the low-power sequence.
    pub ipc_low: f64,
}

impl CompiledStressmark {
    /// The ΔI of one event on one core, in amperes.
    pub fn delta_i(&self) -> f64 {
        self.i_high_a - self.i_low_a
    }

    /// Renders the stressmark as pseudo-assembly, mirroring the paper's
    /// Fig. 6 skeleton (synchronization prologue, high sequence, low
    /// sequence, loop branch).
    pub fn render_asm(&self, isa: &Isa) -> String {
        let mut out = String::new();
        out.push_str(&format!("; dI/dt stressmark: {}\n", self.spec.name));
        out.push_str(&format!(
            "; stimulus {:.3e} Hz, duty {:.2}, dI {:.2} A\n",
            self.spec.stim_freq_hz,
            self.spec.duty,
            self.delta_i()
        ));
        if let Some(sync) = &self.spec.sync {
            out.push_str("sync_loop:\n");
            out.push_str("    STCKF   TODBUF            ; read time-of-day\n");
            out.push_str(&format!(
                "    TMLL    TODBUF,{:#06x}     ; low-order bits vs offset {} ticks\n",
                0xffff, sync.offset_ticks
            ));
            out.push_str("    BRC     7,sync_loop       ; spin until boundary\n");
            out.push_str(&format!(
                "    LGHI    R11,{}            ; events per burst\n",
                sync.events
            ));
        }
        out.push_str("didt_loop:\n");
        out.push_str(&format!(
            "    ; -- high power phase: {} reps --\n",
            self.high_reps
        ));
        for &op in &self.spec.high_body {
            out.push_str(&format!("    {}\n", isa.def(op).mnemonic));
        }
        out.push_str(&format!(
            "    ; -- low power phase: {} reps --\n",
            self.low_reps
        ));
        for &op in &self.spec.low_body {
            out.push_str(&format!("    {}\n", isa.def(op).mnemonic));
        }
        if self.spec.sync.is_some() {
            out.push_str("    BRCTG   R11,didt_loop     ; next event of burst\n");
            out.push_str("    J       sync_loop         ; re-synchronize\n");
        } else {
            out.push_str("    J       didt_loop         ; free-run\n");
        }
        out
    }
}

/// Instruction body of the synchronization spin loop; its power defines
/// the idle current between bursts.
fn spin_body(isa: &Isa) -> Vec<Opcode> {
    ["LGR", "LGR", "BC"]
        .iter()
        .filter_map(|m| isa.opcode(m))
        .collect()
}

/// The measured operating points of a stressmark's three phases: the
/// high and low sequences and the synchronization spin loop.
///
/// They are a function of the ISA, the core and the two sequence bodies
/// only — not of the stimulus frequency, duty cycle or sync setting — so
/// a platform that compiles one pair of sequences at many frequencies
/// measures once and [fits](MeasuredPhases::fit) per stressmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPhases {
    high_body: Vec<Opcode>,
    low_body: Vec<Opcode>,
    core_freq_hz: f64,
    i_high_a: f64,
    i_low_a: f64,
    i_idle_a: f64,
    ipc_high: f64,
    ipc_low: f64,
}

impl MeasuredPhases {
    /// Measures the phases: runs the high sequence ×200, the low
    /// sequence ×40 and the spin loop ×200 on the pipeline model. This is
    /// the only microarchitectural simulation in compilation.
    ///
    /// # Errors
    ///
    /// Returns [`StressmarkError::EmptyBody`] if either body is empty.
    pub fn measure(
        isa: &Isa,
        core: &CoreConfig,
        high_body: Vec<Opcode>,
        low_body: Vec<Opcode>,
    ) -> Result<MeasuredPhases, StressmarkError> {
        if high_body.is_empty() {
            return Err(StressmarkError::EmptyBody { which: "high" });
        }
        if low_body.is_empty() {
            return Err(StressmarkError::EmptyBody { which: "low" });
        }
        let high = Kernel::from_sequence("high", high_body.clone(), 200).run(isa, core);
        let low = Kernel::from_sequence("low", low_body.clone(), 40).run(isa, core);
        let idle = Kernel::from_sequence("spin", spin_body(isa), 200).run(isa, core);
        Ok(MeasuredPhases {
            high_body,
            low_body,
            core_freq_hz: core.freq_hz,
            i_high_a: high.avg_current_a,
            i_low_a: low.avg_current_a,
            i_idle_a: idle.avg_current_a,
            ipc_high: high.ipc,
            ipc_low: low.ipc,
        })
    }

    /// Fits a stressmark to the measured phases: derives the sequence
    /// repetition counts from the IPCs ("one can derive the length of
    /// high and low power sequences to generate low/high activity at the
    /// given stimulus frequency", §IV-C) and records the phase currents.
    /// Pure arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`StressmarkError`] for an out-of-range duty cycle or an
    /// unrealizable stimulus frequency.
    pub fn fit(
        &self,
        name: &str,
        stim_freq_hz: f64,
        duty: f64,
        sync: Option<SyncSpec>,
    ) -> Result<CompiledStressmark, StressmarkError> {
        if !(duty > 0.0 && duty < 1.0) {
            return Err(StressmarkError::BadDuty { duty });
        }
        if !stim_freq_hz.is_finite() || stim_freq_hz <= 0.0 {
            return Err(StressmarkError::BadStimulus {
                freq_hz: stim_freq_hz,
                max_hz: 0.0,
            });
        }
        // Cycles available per phase at the target stimulus frequency.
        let cycles_high = duty / stim_freq_hz * self.core_freq_hz;
        let cycles_low = (1.0 - duty) / stim_freq_hz * self.core_freq_hz;
        let cycles_per_high_rep = self.high_body.len() as f64 / self.ipc_high.max(1e-9);
        let cycles_per_low_rep = self.low_body.len() as f64 / self.ipc_low.max(1e-9);
        let high_reps = (cycles_high / cycles_per_high_rep).round() as u64;
        let low_reps = (cycles_low / cycles_per_low_rep).round() as u64;
        if high_reps < 1 || low_reps < 1 {
            let max_hz = self.core_freq_hz
                / (cycles_per_high_rep / duty).max(cycles_per_low_rep / (1.0 - duty));
            return Err(StressmarkError::BadStimulus {
                freq_hz: stim_freq_hz,
                max_hz,
            });
        }

        Ok(CompiledStressmark {
            spec: StressmarkSpec {
                name: name.to_string(),
                high_body: self.high_body.clone(),
                low_body: self.low_body.clone(),
                stim_freq_hz,
                duty,
                sync,
            },
            high_reps,
            low_reps,
            i_high_a: self.i_high_a,
            i_low_a: self.i_low_a,
            i_idle_a: self.i_idle_a,
            ipc_high: self.ipc_high,
            ipc_low: self.ipc_low,
        })
    }
}

/// Compiles a stressmark: [measures](MeasuredPhases::measure) its phases,
/// then [fits](MeasuredPhases::fit) the repetition counts to the spec's
/// stimulus frequency, duty cycle and sync setting.
///
/// # Errors
///
/// Returns [`StressmarkError`] for empty bodies, an out-of-range duty
/// cycle, or an unrealizable stimulus frequency.
pub fn compile(
    isa: &Isa,
    core: &CoreConfig,
    spec: StressmarkSpec,
) -> Result<CompiledStressmark, StressmarkError> {
    let StressmarkSpec {
        name,
        high_body,
        low_body,
        stim_freq_hz,
        duty,
        sync,
    } = spec;
    MeasuredPhases::measure(isa, core, high_body, low_body)?.fit(&name, stim_freq_hz, duty, sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use voltnoise_uarch::epi::EpiProfile;

    struct Fx {
        isa: Isa,
        core: CoreConfig,
        high: Vec<Opcode>,
        low: Vec<Opcode>,
    }

    fn fx() -> &'static Fx {
        static CELL: OnceLock<Fx> = OnceLock::new();
        CELL.get_or_init(|| {
            let isa = Isa::zlike();
            let core = CoreConfig::default();
            let profile = EpiProfile::generate(&isa, &core);
            let high = vec![
                isa.opcode("CHHSI").unwrap(),
                isa.opcode("L").unwrap(),
                isa.opcode("CIB").unwrap(),
                isa.opcode("CHHSI").unwrap(),
                isa.opcode("MADBR").unwrap(),
                isa.opcode("CIB").unwrap(),
            ];
            let low = vec![profile.min_power_opcode()];
            Fx {
                isa,
                core,
                high,
                low,
            }
        })
    }

    fn spec(freq: f64, sync: Option<SyncSpec>) -> StressmarkSpec {
        let f = fx();
        StressmarkSpec {
            name: "test".into(),
            high_body: f.high.clone(),
            low_body: f.low.clone(),
            stim_freq_hz: freq,
            duty: 0.5,
            sync,
        }
    }

    #[test]
    fn compile_produces_positive_delta_i() {
        let f = fx();
        let sm = compile(&f.isa, &f.core, spec(2e6, None)).unwrap();
        assert!(sm.delta_i() > 3.0, "delta_i = {}", sm.delta_i());
        assert!(sm.i_idle_a < sm.i_high_a);
    }

    #[test]
    fn reps_scale_inversely_with_frequency() {
        let f = fx();
        let slow = compile(&f.isa, &f.core, spec(1e5, None)).unwrap();
        let fast = compile(&f.isa, &f.core, spec(2e6, None)).unwrap();
        assert!(slow.high_reps > 10 * fast.high_reps);
        // Phase duration check: reps * cycles_per_rep ~= duty/f * freq.
        let cycles = slow.high_reps as f64 * slow.spec.high_body.len() as f64 / slow.ipc_high;
        let expected = 0.5 / 1e5 * f.core.freq_hz;
        assert!((cycles - expected).abs() / expected < 0.05);
    }

    #[test]
    fn unrealizable_frequency_is_rejected_with_bound() {
        let f = fx();
        let err = compile(&f.isa, &f.core, spec(2e9, None)).unwrap_err();
        match err {
            StressmarkError::BadStimulus { max_hz, .. } => {
                assert!(max_hz > 1e7 && max_hz < 2e9, "max_hz = {max_hz}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_duty_and_empty_bodies_rejected() {
        let f = fx();
        let mut s = spec(2e6, None);
        s.duty = 1.0;
        assert!(matches!(
            compile(&f.isa, &f.core, s),
            Err(StressmarkError::BadDuty { .. })
        ));
        let mut s = spec(2e6, None);
        s.high_body.clear();
        assert!(matches!(
            compile(&f.isa, &f.core, s),
            Err(StressmarkError::EmptyBody { which: "high" })
        ));
    }

    #[test]
    fn sync_offsets_convert_to_seconds() {
        let s = SyncSpec {
            interval_s: SYNC_INTERVAL_SECONDS,
            offset_ticks: 2,
            events: 1000,
        };
        assert!((s.offset_seconds() - 125e-9).abs() < 1e-15);
    }

    #[test]
    fn asm_rendering_includes_sync_prologue_only_when_synced() {
        let f = fx();
        let plain = compile(&f.isa, &f.core, spec(2e6, None)).unwrap();
        let synced = compile(&f.isa, &f.core, spec(2e6, Some(SyncSpec::paper_default()))).unwrap();
        assert!(!plain.render_asm(&f.isa).contains("sync_loop"));
        let asm = synced.render_asm(&f.isa);
        assert!(asm.contains("sync_loop"));
        assert!(asm.contains("CHHSI"));
        assert!(asm.contains("BRCTG"));
    }
}
