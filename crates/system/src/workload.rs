//! Workload kinds and workload-to-core mappings.
//!
//! The paper's §V-D/VI experiments map three workload classes — idle,
//! medium dI/dt and maximum dI/dt — onto the six cores in all possible
//! ways (36 distinct distributions) and measure per-core noise for each.

use crate::site::SiteVec;
use serde::{Deserialize, Serialize};
use voltnoise_pdn::topology::NUM_CORES;

/// Workload class of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Core idles (spin loop / static power only).
    Idle,
    /// Medium dI/dt stressmark: half the ΔI of the maximum.
    MediumDidt,
    /// Maximum dI/dt stressmark.
    MaxDidt,
}

impl WorkloadKind {
    /// All kinds, in increasing ΔI order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Idle,
        WorkloadKind::MediumDidt,
        WorkloadKind::MaxDidt,
    ];

    /// Short label used in reports ("idle", "med", "max").
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Idle => "idle",
            WorkloadKind::MediumDidt => "med",
            WorkloadKind::MaxDidt => "max",
        }
    }
}

/// A placement of workload kinds onto the sites of a
/// `crate::site::SiteSpace`, indexed by site ordinal. At chip scale
/// this has [`NUM_CORES`] entries; at rack scale one per rack site.
pub type Placement = SiteVec<WorkloadKind>;

/// A workload *distribution*: how many cores run each class, regardless
/// of which cores (the paper's Fig. 11b "x-y" notation: x maximum
/// stressmarks, y medium stressmarks, the rest idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Distribution {
    /// Cores running the maximum dI/dt stressmark.
    pub max_count: usize,
    /// Cores running the medium dI/dt stressmark.
    pub medium_count: usize,
}

impl Distribution {
    /// The distribution of a mapping (any site count).
    pub fn of(mapping: &[WorkloadKind]) -> Self {
        Distribution {
            max_count: mapping
                .iter()
                .filter(|w| **w == WorkloadKind::MaxDidt)
                .count(),
            medium_count: mapping
                .iter()
                .filter(|w| **w == WorkloadKind::MediumDidt)
                .count(),
        }
    }

    /// Fraction of the chip's maximum possible ΔI this distribution
    /// generates (a medium stressmark contributes half a maximum one).
    pub fn delta_i_fraction(&self) -> f64 {
        (self.max_count as f64 + self.medium_count as f64 / 2.0) / NUM_CORES as f64
    }

    /// Paper-style "x-y" label.
    pub fn label(&self) -> String {
        format!("{}-{}", self.max_count, self.medium_count)
    }
}

/// Enumerates all distributions with `max_count + medium_count <= 6` —
/// the paper's "6 cores & 3 workloads ⇒ 36 combinations".
pub fn all_distributions() -> Vec<Distribution> {
    let mut out = Vec::new();
    for max_count in 0..=NUM_CORES {
        for medium_count in 0..=(NUM_CORES - max_count) {
            out.push(Distribution {
                max_count,
                medium_count,
            });
        }
    }
    out
}

/// Enumerates every distinct core-assignment (mapping) of a distribution.
pub fn mappings_of(dist: &Distribution) -> Vec<Placement> {
    let mut out = Vec::new();
    let n = NUM_CORES;
    // Choose positions for max workloads, then medium among the rest.
    let mut max_sel = vec![false; n];
    choose(n, dist.max_count, 0, &mut max_sel, &mut |max_mask| {
        let free: Vec<usize> = (0..n).filter(|&i| !max_mask[i]).collect();
        let mut med_sel = vec![false; free.len()];
        choose(
            free.len(),
            dist.medium_count,
            0,
            &mut med_sel,
            &mut |med_mask| {
                let mut m = Placement::from_elem(WorkloadKind::Idle, NUM_CORES);
                for (i, &is_max) in max_mask.iter().enumerate() {
                    if is_max {
                        m[i] = WorkloadKind::MaxDidt;
                    }
                }
                for (k, &fi) in free.iter().enumerate() {
                    if med_mask[k] {
                        m[fi] = WorkloadKind::MediumDidt;
                    }
                }
                out.push(m);
            },
        );
    });
    out
}

fn choose(n: usize, k: usize, start: usize, sel: &mut Vec<bool>, visit: &mut impl FnMut(&[bool])) {
    let chosen = sel.iter().filter(|&&s| s).count();
    if chosen == k {
        visit(sel);
        return;
    }
    if start >= n || n - start < k - chosen {
        return;
    }
    sel[start] = true;
    choose(n, k, start + 1, sel, visit);
    sel[start] = false;
    choose(n, k, start + 1, sel, visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_36_minus_8_distributions() {
        // max in 0..=6, medium in 0..=(6-max): sum_{m=0..6} (7-m) = 28.
        // The paper's "36 combinations" counts workloads x cores loosely;
        // the distinct (max, medium) distributions number 28.
        assert_eq!(all_distributions().len(), 28);
    }

    #[test]
    fn delta_i_fraction_weights_medium_as_half() {
        let d = Distribution {
            max_count: 1,
            medium_count: 4,
        };
        assert!((d.delta_i_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(d.label(), "1-4");
    }

    #[test]
    fn mappings_count_matches_binomials() {
        // 2 max, 1 medium: C(6,2) * C(4,1) = 15 * 4 = 60.
        let d = Distribution {
            max_count: 2,
            medium_count: 1,
        };
        assert_eq!(mappings_of(&d).len(), 60);
    }

    #[test]
    fn mappings_have_correct_composition() {
        let d = Distribution {
            max_count: 3,
            medium_count: 2,
        };
        for m in mappings_of(&d) {
            assert_eq!(Distribution::of(&m), d);
        }
    }

    #[test]
    fn full_idle_distribution_has_single_mapping() {
        let d = Distribution {
            max_count: 0,
            medium_count: 0,
        };
        assert_eq!(mappings_of(&d).len(), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(WorkloadKind::MaxDidt.label(), "max");
        assert_eq!(WorkloadKind::Idle.label(), "idle");
    }
}
