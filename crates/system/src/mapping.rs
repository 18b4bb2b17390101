//! Noise-aware workload mapping (paper §VII-A).
//!
//! Worst-case noise depends on *which* cores run the workloads, not only
//! how many (Figs. 14, 15). This module evaluates mappings against the
//! noise engine and implements a mapping policy that minimizes the
//! worst-case core noise.

use crate::engine::{Engine, SimJob};
use crate::noise::{NoiseOutcome, NoiseRunConfig};
use crate::site::SiteVec;
use crate::testbed::Testbed;
use crate::workload::{mappings_of, Distribution, Mapping, WorkloadKind};
use serde::{Deserialize, Serialize};
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;

/// Noise evaluation of one mapping (or rack-scale placement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingEvaluation {
    /// The evaluated mapping.
    pub mapping: Mapping,
    /// Per-site %p2p readings.
    pub per_core_pct: SiteVec<f64>,
    /// Site ordinal with the highest reading.
    pub worst_core: usize,
    /// The highest reading — the mapping's figure of (de)merit.
    pub worst_pct: f64,
}

impl MappingEvaluation {
    /// Builds the evaluation of a mapping from its noise outcome.
    pub fn from_outcome(mapping: &Mapping, outcome: &NoiseOutcome) -> MappingEvaluation {
        let (worst_core, worst_pct) = outcome.worst();
        MappingEvaluation {
            mapping: mapping.clone(),
            per_core_pct: outcome.pct_p2p.clone(),
            worst_core,
            worst_pct,
        }
    }
}

/// Evaluates every mapping of `k` maximum-dI/dt workloads (rest idle)
/// on `engine`, running the jobs in parallel.
///
/// # Errors
///
/// Returns [`PdnError`] when any PDN solve fails.
pub fn evaluate_all_mappings(
    engine: &Engine,
    tb: &Testbed,
    k_workloads: usize,
    stim_freq_hz: f64,
    sync: Option<SyncSpec>,
    cfg: &NoiseRunConfig,
) -> Result<Vec<MappingEvaluation>, PdnError> {
    let dist = Distribution {
        max_count: k_workloads,
        medium_count: 0,
    };
    let mappings = mappings_of(&dist);
    let batch = SimJob::batch(tb.chip());
    let jobs: Vec<SimJob> = mappings
        .iter()
        .map(|m| batch.job(tb.loads_of_mapping(m, stim_freq_hz, sync), cfg.clone()))
        .collect();
    let outcomes = engine.run_jobs(&jobs)?;
    Ok(mappings
        .iter()
        .zip(&outcomes)
        .map(|(m, o)| MappingEvaluation::from_outcome(m, o))
        .collect())
}

/// A mapping policy built from measured evaluations: picks the mapping
/// with the lowest worst-case noise for each workload count.
#[derive(Debug, Clone, Default)]
pub struct NoiseAwareMapper {
    evaluations: Vec<MappingEvaluation>,
}

impl NoiseAwareMapper {
    /// Builds the mapper from a measurement campaign.
    pub fn from_measurements(evaluations: Vec<MappingEvaluation>) -> Self {
        NoiseAwareMapper { evaluations }
    }

    /// All stored evaluations.
    pub fn evaluations(&self) -> &[MappingEvaluation] {
        &self.evaluations
    }

    fn with_count(&self, k: usize) -> impl Iterator<Item = &MappingEvaluation> {
        self.evaluations.iter().filter(move |e| {
            e.mapping
                .iter()
                .filter(|w| **w != WorkloadKind::Idle)
                .count()
                == k
        })
    }

    /// Best (lowest worst-case noise) mapping for `k` workloads.
    pub fn best_for(&self, k: usize) -> Option<&MappingEvaluation> {
        self.with_count(k)
            .min_by(|a, b| a.worst_pct.total_cmp(&b.worst_pct))
    }

    /// Worst mapping for `k` workloads.
    pub fn worst_for(&self, k: usize) -> Option<&MappingEvaluation> {
        self.with_count(k)
            .max_by(|a, b| a.worst_pct.total_cmp(&b.worst_pct))
    }

    /// Noise-reduction opportunity for `k` workloads: worst minus best
    /// mapping noise, in %p2p points (the paper's Fig. 15 secondary axis).
    pub fn opportunity(&self, k: usize) -> Option<f64> {
        match (self.best_for(k), self.worst_for(k)) {
            (Some(b), Some(w)) => Some(w.worst_pct - b.worst_pct),
            _ => None,
        }
    }
}

/// The naive mapping: fill cores in index order (what a noise-oblivious
/// scheduler does).
pub fn naive_mapping(k_workloads: usize) -> Mapping {
    Mapping::from_fn(NUM_CORES, |i| {
        if i < k_workloads.min(NUM_CORES) {
            WorkloadKind::MaxDidt
        } else {
            WorkloadKind::Idle
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(mapping: Mapping, worst_pct: f64) -> MappingEvaluation {
        MappingEvaluation {
            mapping,
            per_core_pct: SiteVec::from_elem(worst_pct, NUM_CORES),
            worst_core: 0,
            worst_pct,
        }
    }

    #[test]
    fn naive_mapping_fills_in_order() {
        let m = naive_mapping(3);
        assert_eq!(
            m[..3],
            [
                WorkloadKind::MaxDidt,
                WorkloadKind::MaxDidt,
                WorkloadKind::MaxDidt
            ]
        );
        assert_eq!(m[3], WorkloadKind::Idle);
    }

    #[test]
    fn mapper_selects_extremes_per_count() {
        let mut m1 = naive_mapping(2);
        m1[1] = WorkloadKind::Idle;
        m1[2] = WorkloadKind::MaxDidt; // {0, 2}
        let mapper = NoiseAwareMapper::from_measurements(vec![
            eval(naive_mapping(2), 25.0),
            eval(m1, 28.0),
            eval(naive_mapping(3), 31.0),
        ]);
        assert_eq!(mapper.best_for(2).unwrap().worst_pct, 25.0);
        assert_eq!(mapper.worst_for(2).unwrap().worst_pct, 28.0);
        assert!((mapper.opportunity(2).unwrap() - 3.0).abs() < 1e-12);
        assert!(mapper.opportunity(4).is_none());
    }

    #[test]
    fn end_to_end_single_mapping_evaluation() {
        let tb = Testbed::fast();
        let mapping = naive_mapping(2);
        let cfg = NoiseRunConfig {
            window_s: Some(30e-6),
            ..NoiseRunConfig::default()
        };
        let job = SimJob::batch(tb.chip()).job(tb.loads_of_mapping(&mapping, 2.5e6, None), cfg);
        let e = MappingEvaluation::from_outcome(&mapping, &Engine::new().run_one(&job).unwrap());
        assert!(e.worst_pct > 0.0 && e.worst_pct < 100.0);
        assert_eq!(e.per_core_pct[e.worst_core], e.worst_pct);
    }
}
