//! Energy-per-instruction (EPI) profiling.
//!
//! Reproduces the paper's §IV-A flow: one micro-benchmark per ISA
//! instruction (4000 dependency-free repetitions), measure power and IPC,
//! rank all 1301 instructions by loop power. Table I of the paper shows
//! the first and last five entries of this ranking.

use crate::isa::{Isa, Opcode};
use crate::kernel::{Kernel, RunMetrics, EPI_REPETITIONS};
use crate::pipeline::CoreConfig;
use serde::{Deserialize, Serialize};

/// One instruction's profile entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpiEntry {
    /// Profiled instruction.
    pub opcode: Opcode,
    /// Its mnemonic.
    pub mnemonic: String,
    /// Its description.
    pub description: String,
    /// Measured loop power in watts.
    pub power_w: f64,
    /// Power normalized to the lowest-power instruction (Table I style,
    /// where SRNM = 1.0).
    pub rel_power: f64,
    /// Measured micro-ops per cycle.
    pub ipc: f64,
}

/// The full EPI ranking, ordered from highest to lowest loop power.
///
/// # Examples
///
/// ```
/// use voltnoise_uarch::epi::EpiProfile;
/// use voltnoise_uarch::isa::Isa;
/// use voltnoise_uarch::pipeline::CoreConfig;
///
/// let isa = Isa::zlike();
/// let profile = EpiProfile::generate(&isa, &CoreConfig::default());
/// assert_eq!(profile.len(), isa.len());
/// // The ranking is monotonically non-increasing in power.
/// let e = profile.entries();
/// assert!(e.windows(2).all(|w| w[0].power_w >= w[1].power_w));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpiProfile {
    entries: Vec<EpiEntry>,
}

impl EpiProfile {
    /// Profiles every instruction of the ISA.
    ///
    /// Serializing instructions are profiled with fewer repetitions (their
    /// loops run hundreds of times slower), which does not change their
    /// steady-state power.
    pub fn generate(isa: &Isa, cfg: &CoreConfig) -> Self {
        let mut entries: Vec<EpiEntry> = isa
            .iter()
            .map(|(op, def)| {
                let reps = if def.serializing || def.occupancy > 8 {
                    EPI_REPETITIONS / 10
                } else {
                    EPI_REPETITIONS
                };
                let m: RunMetrics = Kernel::single_instruction(isa, op, reps).run(isa, cfg);
                EpiEntry {
                    opcode: op,
                    mnemonic: def.mnemonic.clone(),
                    description: def.description.clone(),
                    power_w: m.avg_power_w,
                    rel_power: 0.0,
                    ipc: m.ipc,
                }
            })
            .collect();
        entries.sort_by(|a, b| {
            b.power_w
                .total_cmp(&a.power_w)
                .then_with(|| a.mnemonic.cmp(&b.mnemonic))
        });
        let floor = entries.last().map(|e| e.power_w).unwrap_or(1.0);
        for e in &mut entries {
            e.rel_power = e.power_w / floor;
        }
        EpiProfile { entries }
    }

    /// All entries, highest power first.
    pub fn entries(&self) -> &[EpiEntry] {
        &self.entries
    }

    /// Number of profiled instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `n` highest-power entries.
    pub fn top(&self, n: usize) -> &[EpiEntry] {
        &self.entries[..n.min(self.entries.len())]
    }

    /// The `n` lowest-power entries, lowest last (Table I order).
    pub fn bottom(&self, n: usize) -> &[EpiEntry] {
        let n = n.min(self.entries.len());
        &self.entries[self.entries.len() - n..]
    }

    /// The lowest-power instruction — the paper's choice for the minimum
    /// power sequence ("we select the last instruction of the instruction
    /// rank", §IV-B).
    pub fn min_power_opcode(&self) -> Opcode {
        self.entries.last().expect("non-empty profile").opcode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn profile() -> &'static (Isa, EpiProfile) {
        static CELL: OnceLock<(Isa, EpiProfile)> = OnceLock::new();
        CELL.get_or_init(|| {
            let isa = Isa::zlike();
            let p = EpiProfile::generate(&isa, &CoreConfig::default());
            (isa, p)
        })
    }

    #[test]
    fn profile_covers_whole_isa() {
        let (isa, p) = profile();
        assert_eq!(p.len(), isa.len());
    }

    #[test]
    fn top_five_matches_table1() {
        let (_, p) = profile();
        let top: Vec<&str> = p.top(5).iter().map(|e| e.mnemonic.as_str()).collect();
        assert_eq!(top, vec!["CIB", "CRB", "BXHG", "CGIB", "CHHSI"]);
    }

    #[test]
    fn bottom_five_matches_table1() {
        let (_, p) = profile();
        let bottom: Vec<&str> = p.bottom(5).iter().map(|e| e.mnemonic.as_str()).collect();
        assert_eq!(bottom, vec!["DDTRA", "MXTRA", "MDTRA", "STCK", "SRNM"]);
    }

    #[test]
    fn relative_power_range_matches_table1_scale() {
        // Table I: top ~1.58x, bottom = 1.0x (normalized to SRNM).
        let (_, p) = profile();
        let max_rel = p.top(1)[0].rel_power;
        assert!(
            (1.4..1.85).contains(&max_rel),
            "max relative power {max_rel}, expected ~1.58"
        );
        assert!((p.bottom(1)[0].rel_power - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compare_immediate_in_top_five_is_the_nonintuitive_case() {
        // Paper: "the non-intuitive case where a compare immediate
        // instruction (CHHSI) is in the Top 5".
        let (isa, p) = profile();
        let chhsi = isa.opcode("CHHSI").unwrap();
        assert!(
            p.top(5).iter().any(|e| e.opcode == chhsi),
            "CHHSI outside the Top 5"
        );
    }

    #[test]
    fn min_power_opcode_is_serializing_not_cheap_fxu() {
        let (isa, p) = profile();
        let def = isa.def(p.min_power_opcode());
        assert!(def.serializing, "minimum power should be a serializing op");
    }
}
