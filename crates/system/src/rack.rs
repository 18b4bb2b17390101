//! Rack-scale scenarios: a population of process-variated chips on a
//! shared supply spine, run through the same noise kernel, engine and
//! store as single chips.
//!
//! A [`RackScenario`] packages an N drawers × M chips
//! [`voltnoise_pdn::Pdn`] (each chip's [`voltnoise_pdn::PdnParams`]
//! independently perturbed by a seeded [`VariationSpec`]) together with
//! one variated [`Skitter`] per site. Its electrical view plugs straight
//! into the topology-blind kernel in [`crate::noise`], sharing the PDN's
//! factorization memo across the scenario's jobs, and its content
//! signature keys rack jobs through [`crate::engine::SimJob`] — rack
//! solves memoize, persist and shard through the existing machinery
//! unchanged.
//!
//! The degenerate rack — one drawer, one chip, zero variation — is
//! electrically bitwise-identical to the chip it was built from: one
//! builder ([`voltnoise_pdn::Pdn::build`]) makes both, element for
//! element, and the hierarchy degeneracy tests pin the outcomes. That is
//! what licenses treating every chip-scale experiment as the
//! 1×1×[`NUM_CORES`](voltnoise_pdn::NUM_CORES) special case.

use crate::chip::{Chip, HfNoiseParams};
use crate::noise::{NoiseOutcome, NoiseRunConfig, ScenarioView, SolveTelemetry};
use crate::site::{Site, SiteSpace};
use std::sync::Arc;
use voltnoise_measure::skitter::Skitter;
use voltnoise_pdn::topology::{DrawerParams, Pdn, RackParams, VariationSpec};
use voltnoise_pdn::PdnError;

/// A rack of process-variated chips, ready to solve: the site-indexed
/// generalization of [`Chip`].
#[derive(Debug, Clone)]
pub struct RackScenario {
    space: SiteSpace,
    params: RackParams,
    variation: VariationSpec,
    pdn: Pdn,
    /// Per-site skitters in site-ordinal order, each with its chip's
    /// variated sensitivity applied.
    skitters: Vec<Skitter>,
    hf: HfNoiseParams,
    v_nom: f64,
    idle_current: f64,
    signature: Arc<str>,
}

impl RackScenario {
    /// Builds a rack of `drawers × chips_per_drawer` copies of `base`,
    /// each chip's PDN parameters and skitter sensitivities perturbed by
    /// `variation` (pass [`VariationSpec::none`] for an unvaried rack).
    /// Spine electricals come from the default [`RackParams`] /
    /// [`DrawerParams`]; use [`RackScenario::build_with_params`] to
    /// override them.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when the topology is empty or an electrical
    /// value is invalid.
    pub fn build(
        base: &Chip,
        drawers: usize,
        chips_per_drawer: usize,
        variation: VariationSpec,
    ) -> Result<RackScenario, PdnError> {
        let params = RackParams {
            drawers,
            drawer: DrawerParams {
                chips: chips_per_drawer,
                ..DrawerParams::default()
            },
            ..RackParams::default()
        };
        RackScenario::build_with_params(base, params, variation)
    }

    /// [`RackScenario::build`] with explicit rack parameters. The chip
    /// template inside `params.drawer.chip` is overwritten with `base`'s
    /// *realized* PDN parameters (including its seeded on-die grid
    /// variation), so the chip the rack replicates is exactly the chip
    /// the caller measured.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when the topology is empty or an electrical
    /// value is invalid.
    pub fn build_with_params(
        base: &Chip,
        mut params: RackParams,
        variation: VariationSpec,
    ) -> Result<RackScenario, PdnError> {
        params.drawer.chip = base.pdn().params().drawer.chip.clone();
        let space = SiteSpace::rack(params.drawers, params.drawer.chips);
        let base_params = &params.drawer.chip;
        let mut chip_params = Vec::with_capacity(space.num_chips());
        for d in 0..space.drawers() {
            for c in 0..space.chips_per_drawer() {
                chip_params.push(variation.chip_pdn_params(base_params, d, c));
            }
        }
        let pdn = Pdn::build(&params, &chip_params)?;

        let mut skitters = Vec::with_capacity(space.num_sites());
        for d in 0..space.drawers() {
            for c in 0..space.chips_per_drawer() {
                let sens = variation.skitter_variation(d, c);
                for (core, mult) in sens.iter().enumerate() {
                    let mut sc = *base.skitter(core).config();
                    // ×1.0 under a zero spec: bitwise the base skitter.
                    sc.sensitivity_variation *= mult;
                    skitters.push(Skitter::new(sc));
                }
            }
        }

        let signature = rack_signature(base, &params, &variation)?;
        Ok(RackScenario {
            space,
            params,
            variation,
            pdn,
            skitters,
            hf: base.config().hf,
            v_nom: base.v_nom(),
            idle_current: base.config().core.static_power_w / base.config().core.v_nom,
            signature,
        })
    }

    /// The rack's site space.
    pub fn space(&self) -> &SiteSpace {
        &self.space
    }

    /// Total number of sites (= load slots of a rack job).
    pub fn num_sites(&self) -> usize {
        self.space.num_sites()
    }

    /// The rack parameters the PDN was built from.
    pub fn params(&self) -> &RackParams {
        &self.params
    }

    /// The variation spec the population was drawn from.
    pub fn variation(&self) -> &VariationSpec {
        &self.variation
    }

    /// The built rack PDN.
    pub fn pdn(&self) -> &Pdn {
        &self.pdn
    }

    /// The skitter of a site.
    ///
    /// # Panics
    ///
    /// Panics when `site` lies outside the rack's space.
    pub fn skitter(&self, site: Site) -> &Skitter {
        &self.skitters[self.space.ordinal(site)]
    }

    /// The rack's content signature: rack params + variation + the base
    /// chip's full signature. Two racks with equal signatures produce
    /// bitwise-identical outcomes, so this is the `chip_sig` rack jobs
    /// carry in their [`crate::engine::JobKey`].
    pub fn signature(&self) -> Arc<str> {
        self.signature.clone()
    }

    /// The kernel's electrical view of this rack.
    pub(crate) fn view(&self) -> ScenarioView<'_> {
        ScenarioView {
            pdn: &self.pdn,
            memoized: true,
            skitters: self.skitters.iter().collect(),
            hf: &self.hf,
            v_nom: self.v_nom,
            idle_current: self.idle_current,
        }
    }
}

/// Content signature of a rack scenario (see [`RackScenario::signature`]).
fn rack_signature(
    base: &Chip,
    params: &RackParams,
    variation: &VariationSpec,
) -> Result<Arc<str>, PdnError> {
    let render = |what: &str, r: Result<String, serde_json::Error>| {
        r.map_err(|e| PdnError::InvalidTimebase {
            reason: format!("{what} failed to serialize: {e}"),
        })
    };
    let base_sig = crate::engine::try_chip_signature(base)?;
    let params_json = render("rack params", serde_json::to_string(params))?;
    let variation_json = render("variation spec", serde_json::to_string(variation))?;
    Ok(Arc::from(format!(
        "rack/1|{params_json}|{variation_json}|{base_sig}"
    )))
}

/// Runs one rack-scale noise experiment: one transient solve of the
/// whole rack netlist under per-site `loads` (site-ordinal order, one
/// per site), skitter readings per site.
///
/// # Errors
///
/// Returns [`PdnError::DimensionMismatch`] when the load count does not
/// match the rack's site count, or a [`PdnError`] when the solve fails.
pub fn run_rack_noise(
    rack: &RackScenario,
    loads: &[crate::noise::CoreLoad],
    cfg: &NoiseRunConfig,
) -> Result<NoiseOutcome, PdnError> {
    run_rack_noise_instrumented(rack, loads, cfg, false).map(|(outcome, _)| outcome)
}

/// [`run_rack_noise`] plus the solve's telemetry (the rack analogue of
/// [`crate::noise::run_noise_instrumented`]).
///
/// # Errors
///
/// Returns [`PdnError`] when the solve fails.
pub fn run_rack_noise_instrumented(
    rack: &RackScenario,
    loads: &[crate::noise::CoreLoad],
    cfg: &NoiseRunConfig,
    trace: bool,
) -> Result<(NoiseOutcome, SolveTelemetry), PdnError> {
    crate::noise::run_view_noise_instrumented(&rack.view(), loads, cfg, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{run_noise, CoreLoad};
    use crate::testbed::Testbed;
    use voltnoise_pdn::topology::NUM_CORES;

    #[test]
    fn degenerate_rack_reproduces_chip_noise_byte_identically() {
        let tb = Testbed::fast();
        let rack = RackScenario::build(tb.chip(), 1, 1, VariationSpec::none()).unwrap();
        assert_eq!(rack.num_sites(), NUM_CORES);
        let sm = tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default()));
        let loads: Vec<CoreLoad> = (0..NUM_CORES)
            .map(|_| CoreLoad::Stressmark(sm.clone()))
            .collect();
        let cfg = NoiseRunConfig {
            window_s: Some(20e-6),
            ..NoiseRunConfig::default()
        };
        let chip_out = run_noise(tb.chip(), &loads, &cfg).unwrap();
        let rack_out = run_rack_noise(&rack, &loads, &cfg).unwrap();
        assert_eq!(
            serde_json::to_string(&chip_out).unwrap(),
            serde_json::to_string(&rack_out).unwrap(),
            "1×1 zero-variation rack must be the chip, bit for bit"
        );
    }

    #[test]
    fn variated_chips_read_different_noise() {
        let tb = Testbed::fast();
        let rack = RackScenario::build(tb.chip(), 1, 2, VariationSpec::paper_default(7)).unwrap();
        let sm = tb.max_stressmark(2.5e6, Some(voltnoise_stressmark::SyncSpec::paper_default()));
        let loads: Vec<CoreLoad> = (0..rack.num_sites())
            .map(|_| CoreLoad::Stressmark(sm.clone()))
            .collect();
        let out = run_rack_noise(
            &rack,
            &loads,
            &NoiseRunConfig {
                window_s: Some(8e-6),
                ..NoiseRunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.num_sites(), 2 * NUM_CORES);
        // The two chips carry independently drawn variation, so their
        // continuous voltage extrema must not coincide (the tap-quantized
        // %p2p readings may — skitters discretize to 129 taps).
        let chip_a: Vec<u64> = (0..NUM_CORES).map(|i| out.v_min[i].to_bits()).collect();
        let chip_b: Vec<u64> = (NUM_CORES..2 * NUM_CORES)
            .map(|i| out.v_min[i].to_bits())
            .collect();
        assert_ne!(chip_a, chip_b);
        for &p in out.pct_p2p.iter() {
            assert!(p.is_finite() && p > 0.0);
        }
    }

    #[test]
    fn rack_signature_keys_on_variation_and_shape() {
        let tb = Testbed::fast();
        let a = RackScenario::build(tb.chip(), 1, 2, VariationSpec::none()).unwrap();
        let b = RackScenario::build(tb.chip(), 1, 2, VariationSpec::paper_default(1)).unwrap();
        let c = RackScenario::build(tb.chip(), 1, 2, VariationSpec::paper_default(2)).unwrap();
        let d = RackScenario::build(tb.chip(), 2, 2, VariationSpec::paper_default(1)).unwrap();
        let sigs = [a.signature(), b.signature(), c.signature(), d.signature()];
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "signatures {i} and {j} must differ");
            }
        }
        // Identical builds share a signature (memoization is sound).
        let a2 = RackScenario::build(tb.chip(), 1, 2, VariationSpec::none()).unwrap();
        assert_eq!(a.signature(), a2.signature());
    }
}
