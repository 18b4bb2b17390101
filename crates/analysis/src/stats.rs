//! Statistics used by the noise-propagation analyses (paper §VI).

use serde::{Deserialize, Serialize};
use voltnoise_pdn::topology::NUM_CORES;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0 when either series is constant (no linear relation defined).
///
/// # Panics
///
/// Panics if the series lengths differ.
pub(crate) fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series lengths differ");
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// A 6×6 inter-core correlation matrix (Fig. 13a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CorrelationMatrix {
    values: [[f64; NUM_CORES]; NUM_CORES],
}

impl CorrelationMatrix {
    /// Computes pairwise Pearson correlations of per-core noise series:
    /// `series[i]` holds core `i`'s reading in every experiment.
    ///
    /// # Panics
    ///
    /// Panics if the series have differing lengths.
    pub(crate) fn from_series(series: &[Vec<f64>; NUM_CORES]) -> Self {
        let mut values = [[0.0; NUM_CORES]; NUM_CORES];
        for (i, row) in values.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = if i == j {
                    1.0
                } else {
                    pearson(&series[i], &series[j])
                };
            }
        }
        CorrelationMatrix { values }
    }

    /// Correlation between cores `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i][j]
    }

    /// Minimum off-diagonal correlation (the paper reports all > 0.91).
    pub(crate) fn min_off_diagonal(&self) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..NUM_CORES {
            for j in 0..NUM_CORES {
                if i != j {
                    m = m.min(self.values[i][j]);
                }
            }
        }
        m
    }

    /// Mean correlation within a group of cores (off-diagonal pairs only).
    pub(crate) fn mean_within(&self, group: &[usize]) -> f64 {
        let mut acc = Vec::new();
        for (k, &i) in group.iter().enumerate() {
            for &j in &group[k + 1..] {
                acc.push(self.values[i][j]);
            }
        }
        mean(&acc)
    }

    /// Mean correlation between two disjoint groups.
    pub(crate) fn mean_between(&self, a: &[usize], b: &[usize]) -> f64 {
        let mut acc = Vec::new();
        for &i in a {
            for &j in b {
                acc.push(self.values[i][j]);
            }
        }
        mean(&acc)
    }

    /// Splits the cores into two clusters by greedy agglomeration on
    /// correlation, returning `(cluster_a, cluster_b)` with `a` holding
    /// core 0. The paper detects {0, 2, 4} vs {1, 3, 5}.
    pub(crate) fn two_clusters(&self) -> (Vec<usize>, Vec<usize>) {
        // Assign each non-seed core to whichever seed (0 or its least
        // correlated partner) it correlates with more.
        let seed_a = 0usize;
        // Seed B: the core least correlated with core 0.
        let seed_b = (1..NUM_CORES)
            .min_by(|&i, &j| self.values[seed_a][i].total_cmp(&self.values[seed_a][j]))
            .expect("more than one core");
        let mut a = vec![seed_a];
        let mut b = vec![seed_b];
        for k in 0..NUM_CORES {
            if k == seed_a || k == seed_b {
                continue;
            }
            if self.values[seed_a][k] >= self.values[seed_b][k] {
                a.push(k);
            } else {
                b.push(k);
            }
        }
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn pearson_of_identical_series_is_one() {
        let a = vec![1.0, 3.0, 2.0, 5.0];
        assert!((pearson(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_negated_series_is_minus_one() {
        let a = vec![1.0, 3.0, 2.0, 5.0];
        let b: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    fn clustered_matrix() -> CorrelationMatrix {
        // Two clusters {0,2,4} and {1,3,5}: high inside, lower across.
        let mut series: [Vec<f64>; NUM_CORES] = Default::default();
        let base_a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 5.0, 3.0];
        let base_b = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 3.0, 5.0];
        for (i, out) in series.iter_mut().enumerate() {
            let base = if i % 2 == 0 { &base_a } else { &base_b };
            *out = base
                .iter()
                .enumerate()
                .map(|(k, v)| v + 0.05 * ((i * 7 + k * 3) % 5) as f64)
                .collect();
        }
        CorrelationMatrix::from_series(&series)
    }

    #[test]
    fn diagonal_is_one_and_matrix_symmetric() {
        let m = clustered_matrix();
        for i in 0..NUM_CORES {
            assert_eq!(m.get(i, i), 1.0);
            for j in 0..NUM_CORES {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn two_clusters_recovers_even_odd_split() {
        let m = clustered_matrix();
        let (a, b) = m.two_clusters();
        assert_eq!(a, vec![0, 2, 4]);
        assert_eq!(b, vec![1, 3, 5]);
        assert!(m.mean_within(&a) > m.mean_between(&a, &b));
    }

    #[test]
    fn min_off_diagonal_bounds_all_pairs() {
        let m = clustered_matrix();
        let lo = m.min_off_diagonal();
        for i in 0..NUM_CORES {
            for j in 0..NUM_CORES {
                if i != j {
                    assert!(m.get(i, j) >= lo - 1e-12);
                }
            }
        }
    }
}
