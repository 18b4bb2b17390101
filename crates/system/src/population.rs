//! Multi-chip reproducibility studies.
//!
//! The paper's experimental discipline (§III): "various CP chips of zEC12
//! systems were measured ... experiments have been run on different
//! processors multiple times to check their reproducibility, and
//! arithmetic average values are reported". This module runs the same
//! experiment across a population of seeded chip instances and reports
//! per-core statistics, so reproducibility and the spread due to
//! manufacturing variation can be quantified.
//!
//! The per-chip solves run as content-keyed [`SimJob`]s through an
//! [`Engine`] (one job per seed, executed in parallel), so repeated
//! studies over overlapping seed sets answer from the cache and — with a
//! persistent store attached — resume across crashes like every other
//! campaign.

use crate::chip::Chip;
use crate::engine::{Engine, SimJob};
use crate::noise::{CoreLoad, NoiseRunConfig};
use crate::site::SiteVec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::NUM_CORES;
use voltnoise_pdn::PdnError;

/// Per-core noise statistics over a chip population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationStudy {
    /// Seeds of the measured chips (seed 0 = the curated paper chip).
    pub seeds: Vec<u64>,
    /// Arithmetic mean %p2p per core across chips.
    pub mean_pct: SiteVec<f64>,
    /// Standard deviation per core across chips.
    pub std_pct: SiteVec<f64>,
    /// Highest single-core reading over the whole population and the
    /// `(seed, core)` where it occurred.
    pub worst: (u64, usize, f64),
}

impl PopulationStudy {
    /// Runs the same per-core loads on `seeds.len()` chip instances
    /// through `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if a chip build or PDN solve fails.
    pub fn run(
        engine: &Engine,
        seeds: &[u64],
        loads: &[CoreLoad],
        run_cfg: &NoiseRunConfig,
    ) -> Result<Self, PdnError> {
        let loads: SiteVec<CoreLoad> = loads.iter().cloned().collect();
        let jobs = seeds
            .iter()
            .map(|&seed| {
                let chip = if seed == 0 {
                    Chip::paper_default()
                } else {
                    Chip::with_seed(seed)?
                };
                Ok(SimJob::new(Arc::new(chip), loads.clone(), run_cfg.clone()))
            })
            .collect::<Result<Vec<_>, PdnError>>()?;
        let outcomes = engine.run_jobs(&jobs)?;

        let mut worst = (0u64, 0usize, f64::NEG_INFINITY);
        let mut per_chip: Vec<SiteVec<f64>> = Vec::with_capacity(seeds.len());
        for (&seed, out) in seeds.iter().zip(&outcomes) {
            for (core, &pct) in out.pct_p2p.iter().enumerate() {
                if pct > worst.2 {
                    worst = (seed, core, pct);
                }
            }
            per_chip.push(out.pct_p2p.clone());
        }
        let n = per_chip.len().max(1) as f64;
        let mean_pct = SiteVec::from_fn(NUM_CORES, |i| {
            per_chip.iter().map(|c| c[i]).sum::<f64>() / n
        });
        let std_pct = SiteVec::from_fn(NUM_CORES, |i| {
            let m = mean_pct[i];
            (per_chip
                .iter()
                .map(|c| (c[i] - m) * (c[i] - m))
                .sum::<f64>()
                / n)
                .sqrt()
        });
        Ok(PopulationStudy {
            seeds: seeds.to_vec(),
            mean_pct,
            std_pct,
            worst,
        })
    }

    /// Mean of the per-core means.
    pub fn grand_mean(&self) -> f64 {
        self.mean_pct.iter().sum::<f64>() / self.mean_pct.len().max(1) as f64
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# multi-chip reproducibility ({} chips)\ncore,mean_pct_p2p,std_pct_p2p\n",
            self.seeds.len()
        );
        for i in 0..self.mean_pct.len() {
            out.push_str(&format!(
                "core{i},{:.1},{:.2}\n",
                self.mean_pct[i], self.std_pct[i]
            ));
        }
        out.push_str(&format!(
            "# worst reading: {:.1} %p2p on core {} of chip seed {}\n",
            self.worst.2, self.worst.1, self.worst.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use voltnoise_stressmark::SyncSpec;

    fn loads() -> [CoreLoad; NUM_CORES] {
        let tb = Testbed::fast();
        let sm = tb.max_stressmark(2.5e6, Some(SyncSpec::paper_default()));
        std::array::from_fn(|_| CoreLoad::Stressmark(sm.clone()))
    }

    #[test]
    fn population_reproduces_within_reasonable_spread() {
        let cfg = NoiseRunConfig {
            window_s: Some(30e-6),
            ..NoiseRunConfig::default()
        };
        let study = PopulationStudy::run(&Engine::new(), &[0, 7, 21, 42], &loads(), &cfg).unwrap();
        // Chips agree broadly: the stressmark stresses them all...
        assert!(
            study.grand_mean() > 35.0,
            "grand mean {}",
            study.grand_mean()
        );
        // ...and manufacturing variation stays a second-order effect.
        let spread = study
            .mean_pct
            .iter()
            .zip(&study.std_pct)
            .map(|(m, s)| if *m > 0.0 { s / m } else { 0.0 })
            .fold(0.0, f64::max);
        assert!(spread < 0.20, "spread {spread}");
        assert!(study.worst.2 >= study.grand_mean());
    }

    #[test]
    fn single_chip_population_has_zero_spread() {
        let cfg = NoiseRunConfig {
            window_s: Some(25e-6),
            ..NoiseRunConfig::default()
        };
        let study = PopulationStudy::run(&Engine::new(), &[0], &loads(), &cfg).unwrap();
        assert!(study.std_pct.iter().all(|s| *s == 0.0));
        assert_eq!(study.seeds, vec![0]);
    }

    #[test]
    fn render_lists_every_core() {
        let cfg = NoiseRunConfig {
            window_s: Some(25e-6),
            ..NoiseRunConfig::default()
        };
        let study = PopulationStudy::run(&Engine::new(), &[0, 3], &loads(), &cfg).unwrap();
        let text = study.render();
        for i in 0..NUM_CORES {
            assert!(text.contains(&format!("core{i},")));
        }
    }

    #[test]
    fn repeated_studies_reuse_cached_solves() {
        let engine = Engine::new();
        let cfg = NoiseRunConfig {
            window_s: Some(8e-6),
            ..NoiseRunConfig::default()
        };
        let first = PopulationStudy::run(&engine, &[0, 7], &loads(), &cfg).unwrap();
        let solved = engine.stats().solves;
        assert_eq!(solved, 2);
        // A second study over an overlapping population only solves the
        // new seed.
        let second = PopulationStudy::run(&engine, &[0, 7, 21], &loads(), &cfg).unwrap();
        assert_eq!(engine.stats().solves, solved + 1);
        assert_eq!(second.seeds.len(), 3);
        assert!(first.grand_mean() > 0.0 && second.grand_mean() > 0.0);
    }
}
