//! Rack-scale noise-aware placement study (the paper's §VII mapping
//! argument run one hierarchy level up).
//!
//! The §VII claim — worst-case noise depends on *which* cores run the
//! work, so noise-aware placement recovers guardband — is reproduced at
//! chip scale by [`crate::mapping_gain`] (Fig. 15) and the scheduler
//! replay. This study runs the same argument on a rack: ≥2 drawers of
//! process-variated chips on a shared supply spine
//! ([`voltnoise_system::RackScenario`]), a synthetic job trace, and two
//! placement policies replayed through the site-indexed discrete-event
//! scheduler. The naive policy packs sites in ordinal order — which
//! clusters work onto one chip (the Fig. 14 failure mode) and lands on
//! whatever silicon comes first; the noise-aware policy consults an
//! engine-backed occupancy noise model, spreading work across the spine
//! and away from the noisy corners of the variated population.
//!
//! Every occupancy the replay visits is a content-keyed
//! [`voltnoise_system::SimJob`] solved through the engine, so the two
//! policies share one cache (candidate scans dedupe against the replay's
//! own trajectory), repeated studies answer from the memo, and a
//! persistent store makes the whole campaign crash-resumable.

use crate::experiment::Experiment;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use voltnoise_pdn::topology::VariationSpec;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::engine::Engine;
use voltnoise_system::noise::{CoreLoad, NoiseRunConfig};
use voltnoise_system::rack::RackScenario;
use voltnoise_system::scheduler::{
    replay, synthetic_trace, EngineNoiseModel, NaivePolicy, NoiseAwarePolicy, ScheduleOutcome,
};
use voltnoise_system::testbed::Testbed;

/// Rack mapping-study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackMapConfig {
    /// Drawers on the rack's supply spine (the study needs ≥ 2).
    pub drawers: usize,
    /// Chips per drawer (`drawers * chips_per_drawer` ≥ 4 for the
    /// variated-population claim).
    pub chips_per_drawer: usize,
    /// Seed of the per-chip process-variation draw.
    pub variation_seed: u64,
    /// Stressmark stimulus frequency of an occupied site.
    pub stim_freq_hz: f64,
    /// Simulation window per occupancy solve.
    pub window_s: f64,
    /// Jobs in the synthetic trace.
    pub jobs: usize,
    /// Target mean jobs in flight (kept below the site count so the two
    /// policies actually differ — a saturated rack pins both to the
    /// all-sites occupancy).
    pub mean_parallelism: f64,
    /// Multiplicative guardband safety factor (§VII-B convention).
    pub safety_factor: f64,
}

impl RackMapConfig {
    /// Paper-scale: 2 drawers × 2 chips (24 sites), a 60-job trace.
    pub fn paper() -> Self {
        RackMapConfig {
            drawers: 2,
            chips_per_drawer: 2,
            variation_seed: 7,
            stim_freq_hz: 2.5e6,
            window_s: 8e-6,
            jobs: 60,
            mean_parallelism: 8.0,
            safety_factor: 1.1,
        }
    }

    /// Reduced for tests and the bench smoke: same topology (the
    /// ≥2-drawer / ≥4-chip claim must hold even reduced), shorter
    /// window and trace.
    pub fn reduced() -> Self {
        RackMapConfig {
            jobs: 14,
            window_s: 4e-6,
            ..RackMapConfig::paper()
        }
    }
}

/// Result of the rack mapping study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackMapResult {
    /// Drawers on the spine.
    pub drawers: usize,
    /// Chips per drawer.
    pub chips_per_drawer: usize,
    /// Total sites placed into.
    pub sites: usize,
    /// Nominal supply voltage (guardband conversions).
    pub v_nom: f64,
    /// The naive (ordinal-order) replay.
    pub naive: ScheduleOutcome,
    /// The noise-aware replay.
    pub aware: ScheduleOutcome,
    /// Distinct occupancies solved across both replays (the engine
    /// deduped everything else).
    pub occupancies_evaluated: usize,
    /// Time-weighted guardband recovered in mV (see
    /// `RackMapResult::guardband_recovered_mv`); set at assembly with
    /// the config's safety factor applied once.
    pub recovered_mv: f64,
}

impl RackMapResult {
    /// Worst-case improvement: naive peak minus aware peak, %p2p.
    pub(crate) fn worst_gain_pct(&self) -> f64 {
        self.naive.peak_required_pct - self.aware.peak_required_pct
    }

    /// Time-weighted guardband recovered by noise-aware placement, in
    /// millivolts: the difference of the two policies' time-weighted
    /// mean required margins, converted at `v_nom` and inflated by the
    /// config's safety factor (§VII-B convention).
    pub(crate) fn guardband_recovered_mv(&self) -> f64 {
        self.recovered_mv
    }

    fn assemble_recovery(&mut self, safety_factor: f64) {
        let delta_pct = self.naive.mean_required_pct - self.aware.mean_required_pct;
        self.recovered_mv = delta_pct / 100.0 * self.v_nom * safety_factor * 1e3;
    }

    /// Renders the study's rows.
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Rack mapping study: naive vs noise-aware placement over {} drawers x {} chips \
             ({} sites)",
            self.drawers, self.chips_per_drawer, self.sites
        ));
        t.columns([
            "policy",
            "mean_required_pct",
            "peak_required_pct",
            "queued_jobs",
        ]);
        for out in [&self.naive, &self.aware] {
            t.row([
                out.policy.clone(),
                format!("{:.2}", out.mean_required_pct),
                format!("{:.2}", out.peak_required_pct),
                out.queued_jobs.to_string(),
            ]);
        }
        let mut doc = t.finish();
        doc.push_str(&format!(
            "worst_gain_pct,{:.2}\nguardband_recovered_mv,{:.2}\noccupancies_evaluated,{}\n",
            self.worst_gain_pct(),
            self.guardband_recovered_mv(),
            self.occupancies_evaluated
        ));
        doc
    }
}

/// The rack mapping-study experiment (registry id `rack-map`).
#[derive(Debug, Clone)]
pub struct RackMapExperiment {
    /// The study configuration.
    pub cfg: RackMapConfig,
}

impl Experiment for RackMapExperiment {
    type Artifact = RackMapResult;

    fn id(&self) -> &'static str {
        "rack-map"
    }

    fn title(&self) -> &'static str {
        "Rack study: noise-aware placement over a variated chip population"
    }

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<RackMapResult, PdnError> {
        let cfg = &self.cfg;
        let rack = Arc::new(RackScenario::build(
            tb.chip(),
            cfg.drawers,
            cfg.chips_per_drawer,
            VariationSpec::paper_default(cfg.variation_seed),
        )?);
        let active = CoreLoad::Stressmark(
            tb.max_stressmark(cfg.stim_freq_hz, Some(SyncSpec::paper_default())),
        );
        let run_cfg = NoiseRunConfig {
            window_s: Some(cfg.window_s),
            record_traces: false,
            seed: 1,
            ..NoiseRunConfig::default()
        };
        let mut model = EngineNoiseModel::rack(engine, rack.clone(), active, run_cfg);
        let trace = synthetic_trace(cfg.jobs, cfg.mean_parallelism);
        // One model across both replays: the aware policy's candidate
        // scans and the naive trajectory share the occupancy cache.
        let naive = replay(&mut model, &NaivePolicy, &trace)?;
        let aware = replay(&mut model, &NoiseAwarePolicy, &trace)?;
        let mut result = RackMapResult {
            drawers: cfg.drawers,
            chips_per_drawer: cfg.chips_per_drawer,
            sites: rack.num_sites(),
            v_nom: tb.chip().v_nom(),
            naive,
            aware,
            occupancies_evaluated: model.evaluated(),
            recovered_mv: 0.0,
        };
        result.assemble_recovery(cfg.safety_factor);
        Ok(result)
    }

    fn render(&self, artifact: &RackMapResult) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_aware_placement_strictly_beats_naive_on_the_variated_rack() {
        let tb = Testbed::fast();
        let engine = Engine::new();
        let exp = RackMapExperiment {
            cfg: RackMapConfig::reduced(),
        };
        let res = exp.run(tb, &engine).unwrap();
        assert!(res.drawers >= 2, "study must span drawers");
        assert!(
            res.drawers * res.chips_per_drawer >= 4,
            "study must span a chip population"
        );
        assert!(
            res.aware.peak_required_pct < res.naive.peak_required_pct,
            "noise-aware peak {:.3} must be strictly below naive {:.3}",
            res.aware.peak_required_pct,
            res.naive.peak_required_pct
        );
        assert!(
            res.aware.mean_required_pct < res.naive.mean_required_pct,
            "noise-aware mean {:.3} must be below naive {:.3}",
            res.aware.mean_required_pct,
            res.naive.mean_required_pct
        );
        assert!(res.guardband_recovered_mv() > 0.0);
        assert!(res.occupancies_evaluated > 0);
        // The replay's occupancy jobs all dedupe through one engine.
        assert_eq!(engine.stats().solves, res.occupancies_evaluated);
        assert!(engine.stats().telemetry.solver.steps > 0);
    }

    /// The reduced study, pinned bit for bit to the values the serial
    /// replay (one engine solve per closed segment) produced, on one
    /// worker and on two: batching the replay's lookups and sharing the
    /// rack's factorizations move no outcome and no solve.
    #[test]
    fn reduced_study_is_pinned_on_one_and_two_workers() {
        for workers in [1, 2] {
            let engine = Engine::with_workers(workers);
            let exp = RackMapExperiment {
                cfg: RackMapConfig::reduced(),
            };
            let res = exp.run(Testbed::fast(), &engine).unwrap();
            let bits = |out: &ScheduleOutcome| {
                (
                    out.mean_required_pct.to_bits(),
                    out.peak_required_pct.to_bits(),
                    out.queued_jobs,
                )
            };
            assert_eq!(
                bits(&res.naive),
                (0x4045_0e77_b5bd_ceb5, 0x404d_d84f_613d_84f5, 0),
                "naive, {workers} workers"
            );
            assert_eq!(
                bits(&res.aware),
                (0x4039_a8ae_a2ba_8aeb, 0x4040_aaaa_aaaa_aaaa, 0),
                "aware, {workers} workers"
            );
            assert_eq!(res.occupancies_evaluated, 290);
            assert_eq!(engine.stats().solves, 290);
        }
    }

    #[test]
    fn render_reports_both_policies_and_the_recovery() {
        let tb = Testbed::fast();
        let engine = Engine::new();
        let exp = RackMapExperiment {
            cfg: RackMapConfig::reduced(),
        };
        let res = exp.run(tb, &engine).unwrap();
        let doc = res.render();
        assert!(doc.contains("naive"));
        assert!(doc.contains("noise-aware"));
        assert!(doc.contains("worst_gain_pct"));
        assert!(doc.contains("guardband_recovered_mv"));
    }
}
