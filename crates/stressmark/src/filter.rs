//! Steps 2–4 of the sequence search (paper Fig. 5): combination
//! generation, microarchitectural filtering and the IPC filter.
//!
//! All `9^6 = 531 441` length-six combinations of the candidates are
//! enumerated ("length six ... is twice the dispatch group size", §IV-B)
//! and reduced with static constraints from the core model: sequences
//! that cannot average a dispatch-group size of three, carry too many
//! branches, or oversubscribe a unit's ports are dropped before any
//! simulation happens. The survivors are then ranked by the analytic
//! throughput estimate and only the best few are kept for simulation.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use voltnoise_uarch::isa::{Isa, Opcode};
use voltnoise_uarch::par;
use voltnoise_uarch::pipeline::{estimate_throughput, group_count, CoreConfig};
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
    /// Leading positions held fixed: 0 enumerates everything, 1 one
    /// leading candidate's share.
    fixed: usize,
    done: bool,
}

impl<'a> Combinations<'a> {
    /// Creates the enumerator. An empty candidate list yields nothing.
    pub fn new(candidates: &'a [Opcode]) -> Self {
        Combinations {
            candidates,
            counters: [0; SEQ_LEN],
            fixed: 0,
            done: candidates.is_empty(),
        }
    }

    /// The combinations that start with `candidates[lead]`, in the order
    /// [`Combinations::new`] yields them.
    fn with_lead(candidates: &'a [Opcode], lead: usize) -> Self {
        let mut counters = [0; SEQ_LEN];
        counters[0] = lead;
        Combinations {
            candidates,
            counters,
            fixed: 1,
            done: lead >= candidates.len(),
        }
    }

    /// Total number of combinations that will be produced.
    pub fn total(&self) -> usize {
        if self.candidates.is_empty() {
            0
        } else {
            self.candidates.len().pow((SEQ_LEN - self.fixed) as u32)
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
            if i == self.fixed {
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
    let groups = group_count(isa, core, seq);
    let avg = if groups == 0 {
        0.0
    } else {
        seq.len() as f64 / groups as f64
    };
    if avg + 1e-9 < filter.required_avg_group_size {
        return false;
    }
    let mut branches = 0usize;
    let mut blocking = 0usize;
    let mut occupancy = [0u64; UnitKind::ALL.len()];
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
    // Dispatch needs `groups` cycles; any unit needing more issue slots
    // than `cycles * ports` bottlenecks the loop below max IPC.
    let cycles = groups as u64;
    for unit in UnitKind::ALL {
        if occupancy[unit.index()] > cycles * unit.ports() as u64 {
            return false;
        }
    }
    true
}

/// The funnel through the microarchitectural and IPC filters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterOutcome {
    /// Total combinations enumerated (the paper's 531 441 for 9 candidates).
    pub total: usize,
    /// Sequences that passed the microarchitectural filter.
    pub survivors: usize,
    /// The IPC filter's output, best first: at most `keep` survivors, by
    /// estimated throughput, then static energy (both descending), then
    /// enumeration order.
    pub kept: Vec<[Opcode; SEQ_LEN]>,
}

/// A microarchitectural survivor under the IPC filter's ranking. The
/// order is total, and the better sequence compares less.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    throughput: f64,
    energy_pj: f64,
    ordinal: usize,
    seq: [Opcode; SEQ_LEN],
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .throughput
            .total_cmp(&self.throughput)
            .then(other.energy_pj.total_cmp(&self.energy_pj))
            .then(self.ordinal.cmp(&other.ordinal))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Enumerates every combination of `candidates`, keeps those passing
/// [`microarch_filter`], and ranks them with the analytic throughput
/// estimate, keeping the best `keep`.
///
/// The combinations are split by leading candidate and each share is
/// filtered and ranked on one of `workers` threads. A share holds only
/// its best `keep` sequences, so no buffer grows with the survivor
/// count; the calling thread merges the shares. The ranking is a total
/// order that ends in enumeration order, so the outcome is the serial
/// one at every worker count.
pub(crate) fn filter_combinations(
    isa: &Isa,
    core: &CoreConfig,
    filter: &FilterConfig,
    candidates: &[Opcode],
    keep: usize,
    workers: usize,
) -> FilterOutcome {
    let leads: Vec<usize> = (0..candidates.len()).collect();
    let share = Combinations::with_lead(candidates, 0).total();
    let shares = par::map(&leads, workers, |&lead| {
        let mut survivors = 0usize;
        // The worst kept sequence sits on top.
        let mut best: BinaryHeap<Ranked> = BinaryHeap::new();
        for (i, seq) in Combinations::with_lead(candidates, lead).enumerate() {
            if !microarch_filter(isa, core, filter, &seq) {
                continue;
            }
            survivors += 1;
            let ranked = Ranked {
                throughput: estimate_throughput(isa, core, &seq),
                energy_pj: seq.iter().map(|&op| isa.def(op).energy_pj).sum(),
                ordinal: lead * share + i,
                seq,
            };
            if best.len() < keep {
                best.push(ranked);
            } else if let Some(mut worst) = best.peek_mut() {
                if ranked < *worst {
                    *worst = ranked;
                }
            }
        }
        (survivors, best.into_vec())
    });
    let mut survivors = 0;
    let mut ranked = Vec::new();
    for (n, best) in shares {
        survivors += n;
        ranked.extend(best);
    }
    ranked.sort_unstable();
    ranked.truncate(keep);
    FilterOutcome {
        total: Combinations::new(candidates).total(),
        survivors,
        kept: ranked.into_iter().map(|r| r.seq).collect(),
    }
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
    fn lead_shares_concatenate_to_the_whole_enumeration() {
        let (isa, _, _) = setup();
        let ops: Vec<Opcode> = ["AR", "SR", "NR"]
            .iter()
            .map(|m| isa.opcode(m).unwrap())
            .collect();
        let whole: Vec<_> = Combinations::new(&ops).collect();
        let shares: Vec<_> = (0..ops.len())
            .flat_map(|lead| Combinations::with_lead(&ops, lead))
            .collect();
        assert_eq!(shares, whole);
        assert_eq!(Combinations::with_lead(&ops, 1).total(), 243);
        assert_eq!(Combinations::with_lead(&ops, 3).count(), 0);
    }

    #[test]
    fn kept_survivors_are_the_stable_sort_of_all_survivors() {
        // The paper-scale candidate set (results/seq_search.txt), ranked
        // the way the search ranked it before the filter kept only the
        // best: score every survivor, stable-sort, truncate.
        let (isa, core, filter) = setup();
        let ops: Vec<Opcode> = [
            "CIB", "CHHSI", "LG", "STRVFY", "MADBR", "DY", "XC", "LDR", "CDTR",
        ]
        .iter()
        .map(|m| isa.opcode(m).unwrap())
        .collect();
        let mut scored: Vec<(f64, f64, [Opcode; SEQ_LEN])> = Combinations::new(&ops)
            .filter(|seq| microarch_filter(&isa, &core, &filter, seq))
            .map(|seq| {
                let energy: f64 = seq.iter().map(|&op| isa.def(op).energy_pj).sum();
                (estimate_throughput(&isa, &core, &seq), energy, seq)
            })
            .collect();
        let survivors = scored.len();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)));
        for keep in [0, 60, 1000] {
            let expected: Vec<_> = scored.iter().take(keep).map(|s| s.2).collect();
            for workers in [1, 3] {
                let out = filter_combinations(&isa, &core, &filter, &ops, keep, workers);
                assert_eq!(out.total, 531_441);
                assert_eq!(out.survivors, survivors, "keep={keep} workers={workers}");
                assert_eq!(out.kept, expected, "keep={keep} workers={workers}");
            }
        }
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
        let out = filter_combinations(&isa, &core, &filter, &ops, 64, 1);
        assert_eq!(out.total, 64);
        assert!(out.survivors > 0);
        assert!(out.survivors < 64);
        assert_eq!(out.kept.len(), out.survivors);
    }
}
