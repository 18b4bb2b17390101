//! The modeled six-core chip: PDN, skitters, critical paths and process
//! variation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use voltnoise_measure::skitter::{Skitter, SkitterConfig};
use voltnoise_measure::vmin::CriticalPath;
use voltnoise_pdn::topology::{Pdn, PdnParams, NUM_CORES};
use voltnoise_pdn::PdnError;
use voltnoise_uarch::pipeline::CoreConfig;

/// Parameters of the cycle-microstructure (high-frequency) noise
/// component.
///
/// The mid-frequency noise is simulated by the PDN transient solver; on
/// top of it rides sub-nanosecond supply ripple from the per-cycle
/// current microstructure of the running code. When the ΔI events of
/// several cores are cycle-aligned (deterministic TOD sync), their
/// microstructure superposes **coherently** through the shared die grid;
/// once misaligned by more than a cycle (62.5 ns is ~344 cycles) the
/// contributions only add in quadrature. This is the mechanism behind
/// the paper's two headline results: synchronization matters more than
/// resonance (Fig. 9/12), and 62.5 ns of misalignment collapses the sync
/// bonus (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HfNoiseParams {
    /// Impedance a core's *own* cycle-rate ripple sees (ohms): small,
    /// because the local decap sits adjacent.
    pub z_local_ohm: f64,
    /// Impedance cycle-rate ripple sees through the *shared* die grid
    /// (ohms): dominated by L·di/dt at the core clock rate, so much
    /// larger than the mid-frequency impedances.
    pub z_shared_ohm: f64,
    /// Fraction of a workload's ΔI that appears as cycle-rate ripple.
    pub ripple_fraction: f64,
    /// Coupling weight of same-domain neighbours (own core = 1.0).
    pub same_domain_coupling: f64,
    /// Coupling weight across domains (damped by the L3 decap).
    pub cross_domain_coupling: f64,
    /// Fraction of the ripple that appears as droop (the rest as
    /// overshoot); droops dominate because the grid is charged from above.
    pub droop_asymmetry: f64,
}

impl Default for HfNoiseParams {
    fn default() -> Self {
        HfNoiseParams {
            z_local_ohm: 0.35e-3,
            z_shared_ohm: 8.2e-3,
            ripple_fraction: 0.45,
            same_domain_coupling: 0.52,
            cross_domain_coupling: 0.44,
            droop_asymmetry: 0.65,
        }
    }
}

/// Chip-level configuration: everything needed to instantiate a chip
/// instance with its process variation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Manufacturing-variation seed. Seed 0 selects the curated "paper
    /// chip" whose noisiest cores are 2 and 4, as measured in Fig. 7a.
    pub seed: u64,
    /// Electrical parameters of the PDN before per-core variation.
    pub pdn: PdnParams,
    /// Core pipeline/power model configuration.
    pub core: CoreConfig,
    /// Skitter macro configuration before per-core variation.
    pub skitter: SkitterConfig,
    /// Critical-path timing model (shared by all cores).
    pub critical_path: CriticalPath,
    /// High-frequency microstructure noise parameters.
    pub hf: HfNoiseParams,
}

// Spelled out (rather than derived) to document that seed 0 is the
// curated paper chip.
#[allow(clippy::derivable_impls)]
impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            seed: 0,
            pdn: PdnParams::default(),
            core: CoreConfig::default(),
            skitter: SkitterConfig::default(),
            critical_path: CriticalPath::default(),
            hf: HfNoiseParams::default(),
        }
    }
}

/// Curated per-core skitter sensitivity of the seed-0 "paper chip":
/// cores 2 and 4 read noisiest, as in Fig. 7a.
const PAPER_SKITTER_VARIATION: [f64; NUM_CORES] = [1.00, 0.96, 1.10, 1.01, 1.07, 0.98];

/// Curated per-core grid-resistance variation of the seed-0 chip.
const PAPER_GRID_VARIATION: [f64; NUM_CORES] = [1.00, 0.95, 1.18, 1.00, 1.12, 0.97];

/// A chip instance: built PDN plus per-core instrumentation.
#[derive(Debug, Clone)]
pub struct Chip {
    config: ChipConfig,
    pdn: Pdn,
    skitters: [Skitter; NUM_CORES],
}

impl Chip {
    /// Builds a chip from its configuration, applying seeded process
    /// variation to the PDN grid and the skitter sensitivities.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the PDN parameters are invalid.
    pub fn new(config: &ChipConfig) -> Result<Self, PdnError> {
        let (grid_var, skitter_var) = if config.seed == 0 {
            (PAPER_GRID_VARIATION, PAPER_SKITTER_VARIATION)
        } else {
            let mut rng = SmallRng::seed_from_u64(config.seed);
            let mut g = [1.0; NUM_CORES];
            let mut s = [1.0; NUM_CORES];
            for i in 0..NUM_CORES {
                g[i] = 1.0 + rng.gen_range(-0.08..0.20);
                s[i] = 1.0 + rng.gen_range(-0.06..0.12);
            }
            (g, s)
        };
        let mut pdn_params = config.pdn.clone();
        pdn_params.grid_variation = grid_var;
        let pdn = Pdn::chip(&pdn_params)?;
        let skitters = std::array::from_fn(|i| {
            let mut sc = config.skitter;
            sc.sensitivity_variation = skitter_var[i];
            sc.v_nom = config.pdn.v_nom;
            Skitter::new(sc)
        });
        Ok(Chip {
            config: config.clone(),
            pdn,
            skitters,
        })
    }

    /// The seed-0 chip that reproduces the paper's per-core ordering.
    ///
    /// # Panics
    ///
    /// Never panics: the default parameters are valid by construction.
    // The one sanctioned expect in this crate: the default-config build
    // is validated by the test suite, and an infallible constructor is
    // the documented contract of this method.
    #[allow(clippy::expect_used)]
    pub fn paper_default() -> Self {
        Chip::new(&ChipConfig::default()).expect("default chip parameters are valid")
    }

    /// A chip with random process variation (different physical
    /// processor, as in the paper's cross-processor validation).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the base PDN parameters are invalid.
    pub fn with_seed(seed: u64) -> Result<Self, PdnError> {
        let config = ChipConfig {
            seed,
            ..ChipConfig::default()
        };
        Chip::new(&config)
    }

    /// The configuration this chip was built from.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The built PDN.
    pub fn pdn(&self) -> &Pdn {
        &self.pdn
    }

    /// The skitter macro of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_CORES`.
    pub fn skitter(&self, i: usize) -> &Skitter {
        &self.skitters[i]
    }

    /// Nominal supply voltage.
    pub fn v_nom(&self) -> f64 {
        self.config.pdn.v_nom
    }

    /// Rebuilds the PDN with every voltage source scaled by `bias`
    /// (undervolting for Vmin experiments).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the scaled parameters are invalid.
    pub fn undervolted(&self, bias: f64) -> Result<Chip, PdnError> {
        let mut cfg = self.config.clone();
        cfg.pdn.v_nom *= bias;
        // Keep the skitter and timing references anchored at the original
        // nominal voltage: droop below the *biased* rail must read as a
        // deeper excursion from the original operating point.
        let mut chip = Chip::new(&cfg)?;
        for (sk, orig) in chip.skitters.iter_mut().zip(&self.skitters) {
            let mut sc = *sk.config();
            sc.v_nom = orig.config().v_nom;
            *sk = Skitter::new(sc);
        }
        chip.config.critical_path = self.config.critical_path;
        Ok(chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_marks_cores_2_and_4_noisy() {
        let chip = Chip::paper_default();
        let s: Vec<f64> = (0..NUM_CORES)
            .map(|i| chip.skitter(i).config().sensitivity_variation)
            .collect();
        assert!(s[2] > s[0] && s[2] > s[1]);
        assert!(s[4] > s[0] && s[4] > s[5]);
    }

    #[test]
    fn seeded_chips_differ_but_are_reproducible() {
        let a = Chip::with_seed(7).unwrap();
        let b = Chip::with_seed(7).unwrap();
        let c = Chip::with_seed(8).unwrap();
        let var = |ch: &Chip| -> Vec<f64> {
            (0..NUM_CORES)
                .map(|i| ch.skitter(i).config().sensitivity_variation)
                .collect()
        };
        assert_eq!(var(&a), var(&b));
        assert_ne!(var(&a), var(&c));
    }

    #[test]
    fn undervolted_chip_scales_rail_but_keeps_skitter_reference() {
        let chip = Chip::paper_default();
        let uv = chip.undervolted(0.95).unwrap();
        assert!((uv.config().pdn.v_nom - 1.05 * 0.95).abs() < 1e-12);
        assert_eq!(uv.skitter(0).config().v_nom, chip.skitter(0).config().v_nom);
    }

    #[test]
    fn hf_defaults_are_physical() {
        let hf = HfNoiseParams::default();
        assert!(hf.z_local_ohm > 0.0 && hf.z_local_ohm < hf.z_shared_ohm);
        assert!(hf.z_shared_ohm < 0.05);
        assert!(hf.ripple_fraction > 0.0 && hf.ripple_fraction < 1.0);
        assert!(hf.same_domain_coupling > hf.cross_domain_coupling);
        assert!((0.5..1.0).contains(&hf.droop_asymmetry));
    }
}
