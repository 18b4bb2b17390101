//! Steps 2–3 of the sequence search (paper Fig. 5): combination
//! generation and microarchitectural filtering.
//!
//! All `9^6 = 531 441` length-six combinations of the candidates are
//! enumerated ("length six ... is twice the dispatch group size", §IV-B)
//! and reduced with static constraints from the core model: sequences
//! that cannot average a dispatch-group size of three, carry too many
//! branches, or oversubscribe a unit's ports are dropped before any
//! simulation happens.

use serde::{Deserialize, Serialize};
use voltnoise_uarch::isa::{Isa, Opcode};
use voltnoise_uarch::pipeline::{form_groups, CoreConfig};
use voltnoise_uarch::units::UnitKind;

/// Length of searched sequences: twice the dispatch group size.
pub const SEQ_LEN: usize = 6;

/// Iterator over all `k^SEQ_LEN` candidate combinations.
///
/// # Examples
///
/// ```
/// use voltnoise_stressmark::filter::Combinations;
/// use voltnoise_uarch::isa::Isa;
///
/// let isa = Isa::zlike();
/// let ops = vec![isa.opcode("AR").unwrap(), isa.opcode("SR").unwrap()];
/// let combos: Vec<_> = Combinations::new(&ops).collect();
/// assert_eq!(combos.len(), 2usize.pow(6));
/// ```
#[derive(Debug, Clone)]
pub struct Combinations<'a> {
    candidates: &'a [Opcode],
    counters: [usize; SEQ_LEN],
    done: bool,
}

impl<'a> Combinations<'a> {
    /// Creates the enumerator. An empty candidate list yields nothing.
    pub fn new(candidates: &'a [Opcode]) -> Self {
        Combinations {
            candidates,
            counters: [0; SEQ_LEN],
            done: candidates.is_empty(),
        }
    }

    /// Total number of combinations that will be produced.
    pub fn total(&self) -> usize {
        if self.candidates.is_empty() {
            0
        } else {
            self.candidates.len().pow(SEQ_LEN as u32)
        }
    }
}

impl Iterator for Combinations<'_> {
    type Item = [Opcode; SEQ_LEN];

    fn next(&mut self) -> Option<[Opcode; SEQ_LEN]> {
        if self.done {
            return None;
        }
        let mut seq = [*self.candidates.first()?; SEQ_LEN];
        for (s, &c) in seq.iter_mut().zip(&self.counters) {
            *s = self.candidates[c];
        }
        // Odometer increment.
        let mut i = SEQ_LEN;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.counters[i] += 1;
            if self.counters[i] < self.candidates.len() {
                break;
            }
            self.counters[i] = 0;
        }
        Some(seq)
    }
}

/// Static microarchitectural constraints applied before simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct FilterConfig {
    /// Required average dispatch-group size (the zEC12 maximum is 3).
    pub required_avg_group_size: f64,
    /// Maximum branches per sequence.
    pub max_branches: usize,
    /// Maximum blocking (multi-cycle-occupancy) operations per sequence.
    pub max_blocking: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            required_avg_group_size: 3.0,
            max_branches: 2,
            max_blocking: 1,
        }
    }
}

/// True when a sequence survives the microarchitectural filter:
///
/// 1. group formation must reach the required average group size
///    ("sequences that are known to not have an average dispatch group
///    size of 3 ... are filtered out because they will not exhibit a high
///    IPC");
/// 2. at most `max_branches` branches;
/// 3. at most `max_blocking` blocking operations;
/// 4. no unit's total port-occupancy may exceed what the dispatch-bound
///    cycle count lets it issue.
pub(crate) fn microarch_filter(
    isa: &Isa,
    core: &CoreConfig,
    filter: &FilterConfig,
    seq: &[Opcode],
) -> bool {
    let groups = form_groups(isa, core, seq);
    let avg = if groups.is_empty() {
        0.0
    } else {
        seq.len() as f64 / groups.len() as f64
    };
    if avg + 1e-9 < filter.required_avg_group_size {
        return false;
    }
    let mut branches = 0usize;
    let mut blocking = 0usize;
    let mut occupancy = [0u64; 6];
    for &op in seq {
        let def = isa.def(op);
        if def.ends_group {
            branches += 1;
        }
        if def.occupancy > 1 {
            blocking += 1;
        }
        if def.serializing {
            return false;
        }
        occupancy[def.unit.index()] += def.occupancy as u64;
    }
    if branches > filter.max_branches || blocking > filter.max_blocking {
        return false;
    }
    // Dispatch needs `groups.len()` cycles; any unit needing more issue
    // slots than `cycles * ports` bottlenecks the loop below max IPC.
    let cycles = groups.len() as u64;
    for unit in UnitKind::ALL {
        if occupancy[unit.index()] > cycles * unit.ports() as u64 {
            return false;
        }
    }
    true
}

/// Runs the combination enumeration and filter, returning survivors and
/// funnel counts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterOutcome {
    /// Sequences that passed the filter.
    pub survivors: Vec<[Opcode; SEQ_LEN]>,
    /// Total combinations enumerated (the paper's 531 441 for 9 candidates).
    pub total: usize,
}

/// Enumerates every combination of `candidates` and keeps those passing
/// [`microarch_filter`].
pub(crate) fn filter_combinations(
    isa: &Isa,
    core: &CoreConfig,
    filter: &FilterConfig,
    candidates: &[Opcode],
) -> FilterOutcome {
    let combos = Combinations::new(candidates);
    let total = combos.total();
    let survivors = combos
        .filter(|seq| microarch_filter(isa, core, filter, seq))
        .collect();
    FilterOutcome { survivors, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Isa, CoreConfig, FilterConfig) {
        (Isa::zlike(), CoreConfig::default(), FilterConfig::default())
    }

    #[test]
    fn combination_count_is_k_pow_6() {
        let (isa, _, _) = setup();
        let ops: Vec<Opcode> = ["AR", "SR", "NR"]
            .iter()
            .map(|m| isa.opcode(m).unwrap())
            .collect();
        let c = Combinations::new(&ops);
        assert_eq!(c.total(), 729);
        assert_eq!(c.count(), 729);
    }

    #[test]
    fn nine_candidates_enumerate_531441() {
        let (isa, _, _) = setup();
        let ops: Vec<Opcode> = ["AR", "SR", "NR", "OR", "XR", "CR", "LGR", "LR", "LCR"]
            .iter()
            .map(|m| isa.opcode(m).unwrap())
            .collect();
        assert_eq!(Combinations::new(&ops).total(), 531_441);
    }

    #[test]
    fn combinations_are_unique() {
        let (isa, _, _) = setup();
        let ops: Vec<Opcode> = ["AR", "SR"]
            .iter()
            .map(|m| isa.opcode(m).unwrap())
            .collect();
        let all: std::collections::HashSet<Vec<u16>> = Combinations::new(&ops)
            .map(|s| s.iter().map(|o| o.index() as u16).collect())
            .collect();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn filter_rejects_mid_sequence_branches() {
        let (isa, core, filter) = setup();
        let cib = isa.opcode("CIB").unwrap();
        let ar = isa.opcode("AR").unwrap();
        // Branch at position 0 truncates the first group to size 1.
        let seq = [cib, ar, ar, ar, ar, ar];
        assert!(!microarch_filter(&isa, &core, &filter, &seq));
        // Branches at group-final positions keep the average at 3.
        let seq_ok = [ar, ar, cib, ar, ar, cib];
        assert!(microarch_filter(&isa, &core, &filter, &seq_ok));
    }

    #[test]
    fn filter_rejects_serializing_ops() {
        let (isa, core, filter) = setup();
        let ar = isa.opcode("AR").unwrap();
        let srnm = isa.opcode("SRNM").unwrap();
        assert!(!microarch_filter(
            &isa,
            &core,
            &filter,
            &[ar, ar, ar, ar, ar, srnm]
        ));
    }

    #[test]
    fn filter_rejects_port_oversubscription() {
        let (isa, core, filter) = setup();
        // Six BFP multiply-adds on the single BFU port cannot sustain
        // anywhere near IPC 3.
        let madbr = isa.opcode("MADBR").unwrap();
        assert!(!microarch_filter(&isa, &core, &filter, &[madbr; 6]));
    }

    #[test]
    fn filter_rejects_too_many_blocking_ops() {
        let (isa, core, filter) = setup();
        let ar = isa.opcode("AR").unwrap();
        let xc = isa.opcode("XC").unwrap(); // occupancy > 1
        assert!(!microarch_filter(
            &isa,
            &core,
            &filter,
            &[xc, ar, ar, xc, ar, ar]
        ));
    }

    #[test]
    fn filter_accepts_known_good_mix() {
        let (isa, core, filter) = setup();
        let seq = [
            isa.opcode("CHHSI").unwrap(),
            isa.opcode("L").unwrap(),
            isa.opcode("CIB").unwrap(),
            isa.opcode("CHHSI").unwrap(),
            isa.opcode("MADBR").unwrap(),
            isa.opcode("CIB").unwrap(),
        ];
        assert!(microarch_filter(&isa, &core, &filter, &seq));
        assert!(
            (voltnoise_uarch::pipeline::average_group_size(&isa, &core, &seq) - 3.0).abs() < 1e-12
        );
    }

    #[test]
    fn filter_outcome_counts_total() {
        let (isa, core, filter) = setup();
        let ops: Vec<Opcode> = ["AR", "CIB"]
            .iter()
            .map(|m| isa.opcode(m).unwrap())
            .collect();
        let out = filter_combinations(&isa, &core, &filter, &ops);
        assert_eq!(out.total, 64);
        assert!(!out.survivors.is_empty());
        assert!(out.survivors.len() < 64);
    }
}
