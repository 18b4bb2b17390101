//! Steps 4–5 of the sequence search (paper Fig. 5): IPC filtering and
//! power evaluation, plus the minimum- and medium-power sequence
//! construction of §IV-B/V-D.

use crate::candidates::{select_candidates, Candidate};
use crate::filter::{filter_combinations, FilterConfig};
use serde::{Deserialize, Serialize};
use voltnoise_uarch::epi::EpiProfile;
use voltnoise_uarch::isa::{Isa, Opcode};
use voltnoise_uarch::kernel::Kernel;
use voltnoise_uarch::par;
use voltnoise_uarch::pipeline::CoreConfig;

/// A power-evaluated sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceEval {
    /// The instruction sequence (one loop iteration).
    pub body: Vec<Opcode>,
    /// Mnemonics, for reports.
    pub mnemonics: Vec<String>,
    /// Measured micro-ops per cycle.
    pub ipc: f64,
    /// Measured loop power in watts.
    pub power_w: f64,
    /// Measured supply current in amperes.
    pub current_a: f64,
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Candidates that survive the IPC filter and get power-evaluated
    /// (the paper keeps the "top thousand").
    pub ipc_keep: usize,
    /// Loop iterations used for each power evaluation.
    pub eval_iterations: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            ipc_keep: 1000,
            eval_iterations: 300,
        }
    }
}

/// Funnel counts and the winning sequence of a search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The nine selected candidates.
    pub candidates: Vec<Candidate>,
    /// Combinations enumerated (9^6 = 531 441 for nine candidates).
    pub total_combinations: usize,
    /// Sequences surviving the microarchitectural filter.
    pub after_microarch: usize,
    /// Sequences surviving the IPC filter (≤ `ipc_keep`).
    pub after_ipc: usize,
    /// The maximum-power sequence.
    pub best: SequenceEval,
    /// The next-best evaluated sequences (for validation on "different
    /// processors" and ablation studies).
    pub runners_up: Vec<SequenceEval>,
}

fn evaluate(isa: &Isa, core: &CoreConfig, body: &[Opcode], iterations: usize) -> SequenceEval {
    let kernel = Kernel::from_sequence("seq_eval", body.to_vec(), iterations);
    let m = kernel.run(isa, core);
    SequenceEval {
        body: body.to_vec(),
        mnemonics: body
            .iter()
            .map(|&op| isa.def(op).mnemonic.clone())
            .collect(),
        ipc: m.ipc,
        power_w: m.avg_power_w,
        current_a: m.avg_current_a,
    }
}

/// Runs the full maximum-power sequence search (paper Fig. 5):
/// candidate selection → 9^6 combinations → microarchitectural filter →
/// IPC filter → power evaluation.
///
/// # Examples
///
/// ```no_run
/// use voltnoise_stressmark::search::{find_max_power_sequence, SearchConfig};
/// use voltnoise_uarch::{epi::EpiProfile, isa::Isa, pipeline::CoreConfig};
///
/// let isa = Isa::zlike();
/// let core = CoreConfig::default();
/// let profile = EpiProfile::generate(&isa, &core);
/// let outcome = find_max_power_sequence(&isa, &core, &profile, &SearchConfig::default());
/// assert!(outcome.best.power_w > 2.0 * core.static_power_w * 0.8);
/// ```
pub fn find_max_power_sequence(
    isa: &Isa,
    core: &CoreConfig,
    profile: &EpiProfile,
    cfg: &SearchConfig,
) -> SearchOutcome {
    find_max_power_sequence_on(isa, core, profile, cfg, par::workers())
}

/// [`find_max_power_sequence`] on `workers` threads: the filters run one
/// share of the combinations per thread and the power evaluations run
/// one sequence per claim. Every step is pure and merged in a fixed
/// order, so the outcome is bitwise the same at every worker count.
pub(crate) fn find_max_power_sequence_on(
    isa: &Isa,
    core: &CoreConfig,
    profile: &EpiProfile,
    cfg: &SearchConfig,
    workers: usize,
) -> SearchOutcome {
    let candidates = select_candidates(isa, profile);
    let cand_ops: Vec<Opcode> = candidates.iter().map(|c| c.opcode).collect();
    // IPC filter: fast analytic throughput, keep the top `ipc_keep`.
    // Many sequences tie at the dispatch-width bound, so ties are broken
    // by the static energy sum — a free proxy that keeps the
    // highest-power candidates in the evaluated set.
    let filtered = filter_combinations(
        isa,
        core,
        &FilterConfig::default(),
        &cand_ops,
        cfg.ipc_keep,
        workers,
    );

    // Power evaluation of the survivors.
    let mut evals = par::map(&filtered.kept, workers, |seq| {
        evaluate(isa, core, seq, cfg.eval_iterations)
    });
    evals.sort_by(|a, b| b.power_w.total_cmp(&a.power_w));
    let best = evals.remove(0);
    evals.truncate(8);

    SearchOutcome {
        candidates,
        total_combinations: filtered.total,
        after_microarch: filtered.survivors,
        after_ipc: filtered.kept.len(),
        best,
        runners_up: evals,
    }
}

/// The minimum-power sequence: the last instruction of the EPI rank,
/// repeated (paper §IV-B — long-latency serializing instructions beat
/// `nop` because "they stall all parts of the processor").
pub fn min_power_sequence(isa: &Isa, core: &CoreConfig, profile: &EpiProfile) -> SequenceEval {
    let op = profile.min_power_opcode();
    // A single serializing op per loop iteration; its loop power is
    // iteration-count independent.
    evaluate(isa, core, &[op], 40.max(core.dispatch_width))
}

/// Composes a sequence whose loop power approximates `target_w` by mixing
/// instructions of the maximum-power sequence with low-energy filler —
/// used for the paper's "medium dI/dt" workload, which "consumes exactly
/// the average between the maximum and the minimum power sequence" (§V-D).
pub fn find_sequence_with_power(
    isa: &Isa,
    core: &CoreConfig,
    max_seq: &SequenceEval,
    target_w: f64,
    iterations: usize,
) -> SequenceEval {
    // Filler: the cheapest single-cycle FXU op keeps IPC high while
    // contributing little energy. An ISA with no such op (impossible for
    // z-like ISAs, but profiles are data) degrades to the max sequence.
    let Some(filler) = isa
        .iter()
        .filter(|(_, d)| d.latency <= 1 && !d.ends_group && !d.serializing && d.occupancy == 1)
        .min_by(|a, b| a.1.energy_pj.total_cmp(&b.1.energy_pj))
        .map(|(op, _)| op)
    else {
        return max_seq.clone();
    };

    // Replace 0..=len positions of the max sequence with filler and pick
    // the mix closest to the target power. k = 0 (the unmodified max
    // sequence) seeds the comparison, so `best` always exists.
    let mut best = evaluate(isa, core, &max_seq.body, iterations);
    for k in 1..=max_seq.body.len() {
        let mut body = max_seq.body.clone();
        // Replace the highest-energy non-branch positions first so group
        // structure (branches at group ends) survives.
        let mut order: Vec<usize> = (0..body.len()).collect();
        order.sort_by(|&a, &b| {
            let ea = isa.def(max_seq.body[a]).energy_pj;
            let eb = isa.def(max_seq.body[b]).energy_pj;
            let ba = isa.def(max_seq.body[a]).ends_group;
            let bb = isa.def(max_seq.body[b]).ends_group;
            ba.cmp(&bb).then(eb.total_cmp(&ea))
        });
        for &pos in order.iter().take(k) {
            body[pos] = filler;
        }
        let eval = evaluate(isa, core, &body, iterations);
        if (eval.power_w - target_w).abs() < (best.power_w - target_w).abs() {
            best = eval;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    struct Fixture {
        isa: Isa,
        core: CoreConfig,
        profile: EpiProfile,
        outcome: SearchOutcome,
    }

    fn fixture() -> &'static Fixture {
        static CELL: OnceLock<Fixture> = OnceLock::new();
        CELL.get_or_init(|| {
            let isa = Isa::zlike();
            let core = CoreConfig::default();
            let profile = EpiProfile::generate(&isa, &core);
            let outcome = find_max_power_sequence(
                &isa,
                &core,
                &profile,
                &SearchConfig {
                    ipc_keep: 200,
                    eval_iterations: 150,
                },
            );
            Fixture {
                isa,
                core,
                profile,
                outcome,
            }
        })
    }

    #[test]
    fn funnel_shape_matches_paper() {
        let f = fixture();
        let o = &f.outcome;
        assert_eq!(o.total_combinations, 531_441);
        assert!(
            o.after_microarch > 5_000 && o.after_microarch < 120_000,
            "after_microarch = {}",
            o.after_microarch
        );
        assert_eq!(o.after_ipc, 200);
    }

    #[test]
    fn best_sequence_sustains_high_ipc() {
        let f = fixture();
        assert!(f.outcome.best.ipc > 2.5, "ipc = {}", f.outcome.best.ipc);
    }

    #[test]
    fn best_beats_every_single_instruction_loop() {
        let f = fixture();
        let top_single = f.profile.top(1)[0].power_w;
        assert!(
            f.outcome.best.power_w > top_single,
            "best {} vs single {}",
            f.outcome.best.power_w,
            top_single
        );
    }

    #[test]
    fn min_power_sequence_uses_rank_tail() {
        let f = fixture();
        let min = min_power_sequence(&f.isa, &f.core, &f.profile);
        assert_eq!(min.body[0], f.profile.min_power_opcode());
        assert!(min.power_w < f.outcome.best.power_w / 1.8);
    }

    #[test]
    fn medium_sequence_hits_average_power() {
        let f = fixture();
        let min = min_power_sequence(&f.isa, &f.core, &f.profile);
        let target = (f.outcome.best.power_w + min.power_w) / 2.0;
        let med = find_sequence_with_power(&f.isa, &f.core, &f.outcome.best, target, 150);
        let rel = (med.power_w - target).abs() / target;
        assert!(rel < 0.08, "medium {} vs target {target}", med.power_w);
    }

    #[test]
    fn outcome_is_bitwise_the_same_at_one_and_three_workers() {
        let f = fixture();
        let cfg = SearchConfig {
            ipc_keep: 200,
            eval_iterations: 150,
        };
        let bits = |e: &SequenceEval| {
            let floats = [e.ipc, e.power_w, e.current_a].map(f64::to_bits);
            (e.body.clone(), e.mnemonics.clone(), floats)
        };
        let serial = find_max_power_sequence_on(&f.isa, &f.core, &f.profile, &cfg, 1);
        let three = find_max_power_sequence_on(&f.isa, &f.core, &f.profile, &cfg, 3);
        for o in [&serial, &three] {
            assert_eq!(o.candidates, f.outcome.candidates);
            let counts = (o.total_combinations, o.after_microarch, o.after_ipc);
            let fixture_counts = (
                f.outcome.total_combinations,
                f.outcome.after_microarch,
                f.outcome.after_ipc,
            );
            assert_eq!(counts, fixture_counts);
            assert_eq!(bits(&o.best), bits(&f.outcome.best));
            let runners: Vec<_> = o.runners_up.iter().map(bits).collect();
            let expected: Vec<_> = f.outcome.runners_up.iter().map(bits).collect();
            assert_eq!(runners, expected);
        }
        let core = &f.core;
        let kept = |workers| {
            let ops: Vec<Opcode> = serial.candidates.iter().map(|c| c.opcode).collect();
            filter_combinations(&f.isa, core, &FilterConfig::default(), &ops, 200, workers)
        };
        assert_eq!(kept(1), kept(3));
    }

    #[test]
    fn runners_up_are_ordered_and_close() {
        let f = fixture();
        let best = f.outcome.best.power_w;
        let rs = &f.outcome.runners_up;
        assert!(!rs.is_empty());
        assert!(rs.windows(2).all(|w| w[0].power_w >= w[1].power_w));
        assert!(rs[0].power_w <= best);
        assert!(rs[0].power_w > best * 0.9);
    }
}
