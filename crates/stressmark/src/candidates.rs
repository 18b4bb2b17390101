//! Step 1 of the maximum-power sequence search (paper Fig. 5):
//! instruction candidate selection.
//!
//! Instructions are categorized by functional unit, issue class, and
//! whether they branch; the top power consumer of each category is taken,
//! low-power / low-IPC categories are discarded, and the nine strongest
//! candidates remain — "avoiding a design space explosion problem"
//! (§IV-B).

use serde::{Deserialize, Serialize};
use voltnoise_uarch::epi::EpiProfile;
use voltnoise_uarch::isa::{Isa, Opcode};
use voltnoise_uarch::units::{IssueClass, UnitKind};

/// Number of candidates the selection keeps (paper: nine).
pub(crate) const NUM_CANDIDATES: usize = 9;

/// Category key: unit × issue class × branch-ness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Category {
    /// Executing unit.
    pub unit: UnitKind,
    /// Issue class.
    pub class: IssueClass,
    /// True for group-ending branches.
    pub branches: bool,
}

/// One selected candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The instruction.
    pub opcode: Opcode,
    /// Its mnemonic (for reports).
    pub mnemonic: String,
    /// Its category.
    pub category: Category,
    /// EPI loop power of the instruction, watts.
    pub power_w: f64,
    /// EPI loop IPC of the instruction.
    pub ipc: f64,
}

/// Selects the nine instruction candidates from an EPI profile.
///
/// Serializing categories are discarded outright (their loops cannot
/// sustain IPC), then categories are ranked by the loop power of their
/// strongest member and the top `NUM_CANDIDATES` survive.
///
/// # Examples
///
/// ```
/// use voltnoise_stressmark::candidates::select_candidates;
/// use voltnoise_uarch::{epi::EpiProfile, isa::Isa, pipeline::CoreConfig};
///
/// let isa = Isa::zlike();
/// let profile = EpiProfile::generate(&isa, &CoreConfig::default());
/// let cands = select_candidates(&isa, &profile);
/// assert_eq!(cands.len(), 9);
/// // The fused compare-and-branch leader is always among them.
/// assert!(cands.iter().any(|c| c.mnemonic == "CIB"));
/// ```
pub fn select_candidates(isa: &Isa, profile: &EpiProfile) -> Vec<Candidate> {
    use std::collections::HashMap;
    let mut best: HashMap<Category, Candidate> = HashMap::new();
    for entry in profile.entries() {
        let def = isa.def(entry.opcode);
        if def.serializing {
            continue; // low-IPC categories are discarded
        }
        let cat = Category {
            unit: def.unit,
            class: def.issue_class(),
            branches: def.ends_group,
        };
        // Entries arrive highest-power first, so the first of a category
        // is its strongest member.
        best.entry(cat).or_insert_with(|| Candidate {
            opcode: entry.opcode,
            mnemonic: entry.mnemonic.clone(),
            category: cat,
            power_w: entry.power_w,
            ipc: entry.ipc,
        });
    }
    let mut cands: Vec<Candidate> = best.into_values().collect();
    cands.sort_by(|a, b| {
        b.power_w
            .total_cmp(&a.power_w)
            .then_with(|| a.mnemonic.cmp(&b.mnemonic))
    });
    cands.truncate(NUM_CANDIDATES);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use voltnoise_uarch::pipeline::CoreConfig;

    fn fixture() -> &'static (Isa, Vec<Candidate>) {
        static CELL: OnceLock<(Isa, Vec<Candidate>)> = OnceLock::new();
        CELL.get_or_init(|| {
            let isa = Isa::zlike();
            let profile = EpiProfile::generate(&isa, &CoreConfig::default());
            let cands = select_candidates(&isa, &profile);
            (isa, cands)
        })
    }

    #[test]
    fn exactly_nine_candidates() {
        assert_eq!(fixture().1.len(), NUM_CANDIDATES);
    }

    #[test]
    fn no_serializing_candidates() {
        let (isa, cands) = fixture();
        for c in cands {
            assert!(!isa.def(c.opcode).serializing, "{} serializes", c.mnemonic);
        }
    }

    #[test]
    fn candidates_span_multiple_units() {
        let (_, cands) = fixture();
        let units: std::collections::HashSet<_> = cands.iter().map(|c| c.category.unit).collect();
        assert!(units.len() >= 3, "only {units:?}");
    }

    #[test]
    fn one_candidate_per_category() {
        let (_, cands) = fixture();
        let cats: std::collections::HashSet<_> = cands.iter().map(|c| c.category).collect();
        assert_eq!(cats.len(), cands.len());
    }

    #[test]
    fn includes_branch_and_nonbranch_candidates() {
        let (_, cands) = fixture();
        assert!(cands.iter().any(|c| c.category.branches));
        assert!(cands.iter().any(|c| !c.category.branches));
    }

    #[test]
    fn sorted_by_descending_power() {
        let (_, cands) = fixture();
        assert!(cands.windows(2).all(|w| w[0].power_w >= w[1].power_w));
    }
}
