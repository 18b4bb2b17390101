//! The modeled multi-core chip PDN topology.
//!
//! Mirrors the zEC12-style hierarchy of the paper's Figures 1–3: a VRM
//! feeds the motherboard, which feeds the package through board
//! inductance; C4s feed **two on-die voltage domains** (the upper core row
//! {0, 2, 4} and the lower row {1, 3, 5} of Fig. 3) that share the single
//! package domain; the large deep-trench eDRAM L3 sits between the rows
//! and bridges the domains with a big damping capacitance. Cores attach to
//! their domain rail through the on-die grid and couple resistively to
//! their row neighbours.
//!
//! Drawers and racks repeat that chip on shared board and rack supply
//! spines. One type, [`Pdn`], builds every shape: a chip is one drawer of
//! one chip, a drawer one drawer of N chips, a rack D drawers of N chips.

use crate::error::PdnError;
use crate::mna::SolverBackend;
use crate::netlist::{Netlist, NodeId, SourceId};
use crate::transient::{ScenarioFactors, TransientSolver};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of cores on the modeled chip.
pub const NUM_CORES: usize = 6;

/// On-die voltage domain of a core: cores {0, 2, 4} sit on domain 0 (upper
/// row), cores {1, 3, 5} on domain 1 (lower row).
pub fn core_domain(core: usize) -> usize {
    core % 2
}

/// Row-adjacent core pairs of the modeled floorplan (Fig. 3): upper row
/// 0–2–4, lower row 1–3–5.
pub(crate) const NEIGHBOR_PAIRS: [(usize, usize); 4] = [(0, 2), (2, 4), (1, 3), (3, 5)];

/// Electrical parameters of the chip/package/board model.
///
/// Defaults are calibrated so the die-level impedance profile shows the
/// paper's two resonant bands (≈40 kHz board/package and ≈2 MHz
/// die/package after the deep-trench eDRAM decap increase) with realistic
/// milliohm-scale magnitudes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdnParams {
    /// Nominal VRM output voltage (volts).
    pub v_nom: f64,
    /// VRM output resistance (ohms).
    pub r_vrm: f64,
    /// VRM output inductance (henries).
    pub l_vrm: f64,
    /// Board bulk capacitance (farads) and its ESR (ohms).
    pub c_bulk: f64,
    /// ESR of the board bulk capacitance.
    pub esr_bulk: f64,
    /// Board spreading resistance (ohms).
    pub r_board: f64,
    /// Board + socket inductance (henries).
    pub l_board: f64,
    /// Package decap (farads) and ESR (ohms).
    pub c_pkg: f64,
    /// ESR of the package decap.
    pub esr_pkg: f64,
    /// C4/package-via resistance per on-die domain (ohms).
    pub r_c4: f64,
    /// C4/package-via inductance per on-die domain (henries).
    pub l_c4: f64,
    /// Per-domain on-die decap (farads) and ESR (ohms).
    pub c_domain: f64,
    /// ESR of the per-domain decap.
    pub esr_domain: f64,
    /// Domain-to-L3 bridge resistance (ohms).
    pub r_l3: f64,
    /// Domain-to-L3 bridge inductance (henries).
    pub l_l3: f64,
    /// L3/eDRAM deep-trench decap (farads) and ESR (ohms).
    pub c_l3: f64,
    /// ESR of the L3 decap.
    pub esr_l3: f64,
    /// On-die grid resistance from domain rail to each core (ohms).
    pub r_grid: f64,
    /// On-die grid inductance from domain rail to each core (henries).
    pub l_grid: f64,
    /// Local per-core decap (farads) and ESR (ohms).
    pub c_core: f64,
    /// ESR of the per-core decap.
    pub esr_core: f64,
    /// Resistive coupling between row-adjacent cores (ohms).
    pub r_neighbor: f64,
    /// Per-core multiplier on the grid resistance, modeling process and
    /// layout variation (index = core id).
    pub grid_variation: [f64; NUM_CORES],
}

impl Default for PdnParams {
    fn default() -> Self {
        PdnParams {
            v_nom: 1.05,
            r_vrm: 0.017e-3,
            l_vrm: 0.67e-9,
            c_bulk: 60e-3,
            esr_bulk: 0.067e-3,
            r_board: 0.027e-3,
            l_board: 1.0e-9,
            c_pkg: 15e-3,
            esr_pkg: 0.18e-3,
            r_c4: 0.025e-3,
            l_c4: 22e-12,
            c_domain: 316e-6,
            esr_domain: 0.004e-3,
            r_l3: 0.05e-3,
            l_l3: 30e-12,
            c_l3: 555e-6,
            esr_l3: 0.012e-3,
            r_grid: 0.017e-3,
            l_grid: 0.1e-12,
            c_core: 4.4e-6,
            esr_core: 0.267e-3,
            r_neighbor: 0.04e-3,
            grid_variation: [1.0; NUM_CORES],
        }
    }
}

impl PdnParams {
    /// Parameters of a legacy (pre-deep-trench) design: 40× less on-die
    /// decap, which moves the first-droop resonance back into the
    /// 30–100 MHz band the paper describes for older systems (§V-A).
    pub fn legacy_decap() -> Self {
        let mut p = PdnParams::default();
        p.c_domain /= 40.0;
        p.c_l3 /= 40.0;
        p.c_core /= 40.0;
        p
    }
}

/// Handles to one chip's observable nodes, as returned by
/// [`attach_chip`].
struct ChipNodes {
    pkg: NodeId,
    cores: [NodeId; NUM_CORES],
    core_sources: [SourceId; NUM_CORES],
}

/// Builds one package-and-below chip subtree hanging off `attach`
/// (a board-plane node): package, two on-die domains, L3 bridge, six
/// cores with loads, and the neighbor coupling resistors.
///
/// The element and node creation sequence here is byte-identity
/// critical: node ids (including the intermediate nodes of series-RL
/// branches and ESR capacitors) follow creation order, and dense
/// stamping order follows element insertion order, so every chip of
/// every shape [`Pdn::build`] makes must keep this order.
fn attach_chip(
    nl: &mut Netlist,
    attach: NodeId,
    params: &PdnParams,
) -> Result<ChipNodes, PdnError> {
    let pkg = nl.add_node();
    nl.add_series_rl(attach, pkg, params.r_board, params.l_board)?;
    nl.add_capacitor_with_esr(pkg, NodeId::GROUND, params.c_pkg, params.esr_pkg)?;

    let mut domains = [NodeId::GROUND; 2];
    for dom in &mut domains {
        let node = nl.add_node();
        nl.add_series_rl(pkg, node, params.r_c4, params.l_c4)?;
        nl.add_capacitor_with_esr(node, NodeId::GROUND, params.c_domain, params.esr_domain)?;
        *dom = node;
    }

    let l3 = nl.add_node();
    for dom in domains {
        nl.add_series_rl(dom, l3, params.r_l3, params.l_l3)?;
    }
    nl.add_capacitor_with_esr(l3, NodeId::GROUND, params.c_l3, params.esr_l3)?;

    let mut cores = [NodeId::GROUND; NUM_CORES];
    let mut core_sources = [SourceId(0); NUM_CORES];
    for i in 0..NUM_CORES {
        let node = nl.add_node();
        let dom = domains[core_domain(i)];
        nl.add_series_rl(
            dom,
            node,
            params.r_grid * params.grid_variation[i],
            params.l_grid,
        )?;
        nl.add_capacitor_with_esr(node, NodeId::GROUND, params.c_core, params.esr_core)?;
        core_sources[i] = nl.add_current_source(node, NodeId::GROUND)?;
        cores[i] = node;
    }
    for (a, b) in NEIGHBOR_PAIRS {
        nl.add_resistor(cores[a], cores[b], params.r_neighbor)?;
    }

    Ok(ChipNodes {
        pkg,
        cores,
        core_sources,
    })
}

/// Parameters of a multi-chip drawer: N zEC12-like chips sharing one
/// board PDN, joined by a resistive/inductive board spine.
///
/// Models the paper's drawer/book hierarchy above the single-chip
/// substrate: one VRM and bulk capacitance feed a chain of board plane
/// segments, and each segment carries one full chip (package, domains,
/// L3, six cores). A 6-chip drawer assembles 200+ MNA unknowns —
/// deliberately past [`crate::mna::SPARSE_THRESHOLD`], so drawer
/// studies exercise the sparse solver path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrawerParams {
    /// Number of chips on the drawer (>= 1).
    pub chips: usize,
    /// Per-chip electrical parameters (shared by every chip).
    pub chip: PdnParams,
    /// Board spine resistance between adjacent chip sites (ohms).
    pub r_spine: f64,
    /// Board spine inductance between adjacent chip sites (henries).
    pub l_spine: f64,
}

impl Default for DrawerParams {
    fn default() -> Self {
        DrawerParams {
            chips: 6,
            chip: PdnParams::default(),
            r_spine: 0.02e-3,
            l_spine: 0.5e-9,
        }
    }
}

/// Parameters of a rack: N drawers hanging off one shared supply spine.
///
/// Models the next hierarchy level of the paper's zEC12 frame above the
/// drawer/book: a rack-level bulk supply feeds drawer 0 directly and
/// each further drawer through a rack spine segment. Board-level values
/// (VRM impedance, bulk decap, nominal voltage) are taken from the base
/// chip parameters in `drawer.chip`; per-chip electrical variation is
/// supplied separately at build time via [`Pdn::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackParams {
    /// Number of drawers in the rack (>= 1).
    pub drawers: usize,
    /// Per-drawer layout (chip count, base chip parameters, board spine).
    pub drawer: DrawerParams,
    /// Rack spine resistance between adjacent drawer heads (ohms).
    pub r_rack: f64,
    /// Rack spine inductance between adjacent drawer heads (henries).
    pub l_rack: f64,
}

impl Default for RackParams {
    fn default() -> Self {
        RackParams {
            drawers: 2,
            drawer: DrawerParams::default(),
            r_rack: 0.05e-3,
            l_rack: 1.5e-9,
        }
    }
}

impl RackParams {
    /// Total chip sites in the rack (`drawers * drawer.chips`).
    pub fn num_chips(&self) -> usize {
        self.drawers * self.drawer.chips
    }
}

/// Seeded per-chip process-variation model for rack populations.
///
/// Emits deterministic multipliers from a splitmix64 stream keyed on
/// `(seed, drawer, chip)`: chip-wide package impedance scaling, per-core
/// on-die grid scaling, and per-core critical-path sensitivity scaling
/// (applied by the system layer to its skitter model — this crate only
/// hands out the numbers). All spreads at `0.0` are the exact identity:
/// multipliers are then precisely `1.0`, so perturbed parameters equal
/// the base bitwise and a zero-variation rack reproduces the unvaried
/// build byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationSpec {
    /// Stream seed; two racks with equal seeds and spreads are identical.
    pub seed: u64,
    /// Half-spread of the uniform per-core grid-resistance multiplier
    /// (`1.0 ± grid_spread`).
    pub grid_spread: f64,
    /// Half-spread of the uniform chip-wide C4/package impedance
    /// multiplier (`1.0 ± package_spread`).
    pub package_spread: f64,
    /// Half-spread of the uniform per-core skitter-sensitivity
    /// multiplier (`1.0 ± sensitivity_spread`).
    pub sensitivity_spread: f64,
}

/// One step of the splitmix64 sequence (Steele et al.), the standard
/// minimal deterministic stream generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a splitmix64 draw onto a uniform multiplier `1.0 ± spread`.
/// Exactly `1.0` when `spread == 0.0`.
fn unit_multiplier(draw: u64, spread: f64) -> f64 {
    let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 + spread * (2.0 * unit - 1.0)
}

impl VariationSpec {
    /// The zero-variation identity spec: every multiplier is exactly 1.
    pub fn none() -> Self {
        VariationSpec {
            seed: 0,
            grid_spread: 0.0,
            package_spread: 0.0,
            sensitivity_spread: 0.0,
        }
    }

    /// Spreads sized like the single-chip population model (§VI): low
    /// double-digit-percent grid and sensitivity variation, small
    /// package-level variation.
    pub fn paper_default(seed: u64) -> Self {
        VariationSpec {
            seed,
            grid_spread: 0.12,
            package_spread: 0.05,
            sensitivity_spread: 0.09,
        }
    }

    /// True when every spread is zero (the identity spec).
    pub fn is_zero(&self) -> bool {
        self.grid_spread == 0.0 && self.package_spread == 0.0 && self.sensitivity_spread == 0.0
    }

    /// Per-chip stream state, decorrelated across `(seed, drawer, chip)`.
    fn stream(&self, drawer: usize, chip: usize) -> u64 {
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((drawer as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((chip as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        // Burn one step so near-identical raw states decorrelate.
        splitmix64(&mut state);
        state
    }

    /// Base chip parameters perturbed for site `(drawer, chip)`:
    /// chip-wide C4 impedance scaling plus per-core grid scaling. With
    /// zero spreads the result equals `base` exactly.
    pub fn chip_pdn_params(&self, base: &PdnParams, drawer: usize, chip: usize) -> PdnParams {
        let mut state = self.stream(drawer, chip);
        let mut p = base.clone();
        let pkg = unit_multiplier(splitmix64(&mut state), self.package_spread);
        p.r_c4 *= pkg;
        p.l_c4 *= pkg;
        for g in p.grid_variation.iter_mut() {
            *g *= unit_multiplier(splitmix64(&mut state), self.grid_spread);
        }
        p
    }

    /// Per-core skitter sensitivity multipliers for site
    /// `(drawer, chip)`. All exactly `1.0` with zero spreads.
    pub fn skitter_variation(&self, drawer: usize, chip: usize) -> [f64; NUM_CORES] {
        let mut state = self.stream(drawer, chip);
        // Skip the package draw and the grid draws so sensitivity values
        // stay decoupled from the electrical ones.
        for _ in 0..=NUM_CORES {
            splitmix64(&mut state);
        }
        let mut out = [1.0; NUM_CORES];
        for s in out.iter_mut() {
            *s = unit_multiplier(splitmix64(&mut state), self.sensitivity_spread);
        }
        out
    }
}

/// A built PDN: a VRM feeding `drawers` drawer heads chained by the
/// rack spine, each head feeding a board spine of `drawer.chips` chip
/// sites, and one chip subtree (package, two on-die domains, L3 bridge,
/// six cores) per site. A chip is the 1×1 shape ([`Pdn::chip`]), a
/// drawer the 1×N shape ([`Pdn::drawer`]); one builder makes all three.
///
/// Chips are numbered drawer-major (`drawer * drawer.chips + chip`) and
/// cores are addressed by flat *site* ordinal `chip * NUM_CORES + core`,
/// which is also the core load's drive slot. On a chip, the site is the
/// core index.
///
/// The PDN owns the factorization memo every solver from
/// [`Pdn::solver`] shares, so the jobs of one scenario factor each of
/// its systems once. Nothing can change the netlist after it is built,
/// so memoized factors never go stale; clones share the memo along with
/// the identical netlist.
#[derive(Debug, Clone)]
pub struct Pdn {
    netlist: Netlist,
    params: RackParams,
    packages: Vec<NodeId>,
    cores: Vec<NodeId>,
    core_sources: Vec<SourceId>,
    factors: Arc<ScenarioFactors>,
}

impl Pdn {
    /// Builds one chip: the 1 drawer × 1 chip shape.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] if any parameter is
    /// non-positive or non-finite.
    pub fn chip(params: &PdnParams) -> Result<Self, PdnError> {
        let shape = RackParams {
            drawers: 1,
            drawer: DrawerParams {
                chips: 1,
                chip: params.clone(),
                ..DrawerParams::default()
            },
            ..RackParams::default()
        };
        Self::build(&shape, std::slice::from_ref(params))
    }

    /// Builds one drawer of identical chips: the 1 × `params.chips`
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a zero chip count or
    /// any non-positive/non-finite electrical parameter.
    pub fn drawer(params: &DrawerParams) -> Result<Self, PdnError> {
        let shape = RackParams {
            drawers: 1,
            drawer: params.clone(),
            ..RackParams::default()
        };
        Self::build(&shape, &vec![params.chip.clone(); params.chips])
    }

    /// Builds a rack whose chip at flat chip index `drawer * chips +
    /// chip` uses `chip_params[index]` (e.g. from [`VariationSpec`]).
    /// Board-level values (VRM impedance, bulk decap, nominal voltage)
    /// come from `params.drawer.chip`.
    ///
    /// Each drawer adds its head board with bulk decap, its spine-chained
    /// boards, then one chip subtree per board, so a 1 × 1 rack is the
    /// historical single-chip netlist element for element.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a zero drawer/chip
    /// count, a `chip_params` length mismatch, or any non-positive/
    /// non-finite electrical parameter.
    pub fn build(params: &RackParams, chip_params: &[PdnParams]) -> Result<Self, PdnError> {
        if params.drawers == 0 {
            return Err(PdnError::InvalidElement {
                element: "rack drawer count".to_string(),
                value: 0.0,
            });
        }
        if params.drawer.chips == 0 {
            return Err(PdnError::InvalidElement {
                element: "drawer chip count".to_string(),
                value: 0.0,
            });
        }
        if chip_params.len() != params.num_chips() {
            return Err(PdnError::InvalidElement {
                element: format!(
                    "rack chip parameter count (expected {})",
                    params.num_chips()
                ),
                value: chip_params.len() as f64,
            });
        }
        let base = &params.drawer.chip;
        let mut nl = Netlist::new();
        let vrm = nl.add_node();
        nl.add_voltage_source(vrm, NodeId::GROUND, base.v_nom)?;

        let mut boards = Vec::with_capacity(params.num_chips());
        let mut packages = Vec::with_capacity(params.num_chips());
        let mut cores = Vec::with_capacity(params.num_chips() * NUM_CORES);
        let mut core_sources = Vec::with_capacity(params.num_chips() * NUM_CORES);
        let mut prev_head: Option<NodeId> = None;
        for _ in 0..params.drawers {
            let head = nl.add_node();
            match prev_head {
                // Drawer 0 hangs off the VRM through the VRM impedance.
                None => nl.add_series_rl(vrm, head, base.r_vrm, base.l_vrm)?,
                Some(prev) => nl.add_series_rl(prev, head, params.r_rack, params.l_rack)?,
            };
            nl.add_capacitor_with_esr(head, NodeId::GROUND, base.c_bulk, base.esr_bulk)?;
            prev_head = Some(head);

            let first = boards.len();
            boards.push(head);
            for i in 1..params.drawer.chips {
                let board = nl.add_node();
                nl.add_series_rl(
                    boards[first + i - 1],
                    board,
                    params.drawer.r_spine,
                    params.drawer.l_spine,
                )?;
                boards.push(board);
            }
            for i in 0..params.drawer.chips {
                let chip = first + i;
                let nodes = attach_chip(&mut nl, boards[chip], &chip_params[chip])?;
                packages.push(nodes.pkg);
                cores.extend(nodes.cores);
                core_sources.extend(nodes.core_sources);
            }
        }

        Ok(Pdn {
            netlist: nl,
            params: params.clone(),
            packages,
            cores,
            core_sources,
            factors: Arc::default(),
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// A transient solver of this PDN's netlist that shares the PDN's
    /// factorization memo. Scenarios that solve one netlist many times
    /// use it; a one-off solve takes [`TransientSolver::with_backend`].
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] as [`TransientSolver::with_backend`] does.
    pub fn solver(&self, backend: SolverBackend) -> Result<TransientSolver, PdnError> {
        TransientSolver::with_memo(&self.netlist, backend, self.factors.clone())
    }

    /// The shape and base parameters the PDN was built from.
    pub fn params(&self) -> &RackParams {
        &self.params
    }

    /// Total chip count across all drawers.
    pub fn num_chips(&self) -> usize {
        self.packages.len()
    }

    /// Package node of flat chip index `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()`.
    pub fn package_node(&self, chip: usize) -> NodeId {
        self.packages[chip]
    }

    /// Supply node of core site `site` (`chip * NUM_CORES + core`).
    ///
    /// # Panics
    ///
    /// Panics if `site >= num_chips() * NUM_CORES`.
    pub fn core_node(&self, site: usize) -> NodeId {
        self.cores[site]
    }

    /// Every core supply node, in site order.
    pub fn core_nodes(&self) -> &[NodeId] {
        &self.cores
    }

    /// Current-source id of core site `site`'s load (its index equals
    /// `site`).
    ///
    /// # Panics
    ///
    /// Panics if `site >= num_chips() * NUM_CORES`.
    pub fn core_source(&self, site: usize) -> SourceId {
        self.core_sources[site]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{find_peaks, log_space, AcAnalysis};
    use crate::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};

    fn uniform_rack(params: &RackParams) -> Result<Pdn, PdnError> {
        Pdn::build(
            params,
            &vec![params.drawer.chip.clone(); params.num_chips()],
        )
    }

    #[test]
    fn domains_partition_cores_by_row() {
        assert_eq!(core_domain(0), 0);
        assert_eq!(core_domain(2), 0);
        assert_eq!(core_domain(4), 0);
        assert_eq!(core_domain(1), 1);
        assert_eq!(core_domain(3), 1);
        assert_eq!(core_domain(5), 1);
    }

    #[test]
    fn build_produces_expected_sources() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        assert_eq!(chip.netlist().current_source_count(), NUM_CORES);
        // One voltage source: one branch row past the node unknowns.
        assert_eq!(chip.netlist().system_size(), chip.netlist().node_count());
        for i in 0..NUM_CORES {
            assert_eq!(chip.core_source(i).index(), i);
        }
    }

    #[test]
    fn dc_droop_is_small_and_ordered() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        // All six cores drawing 20 A.
        let sol = solver.solve_dc(&ConstantDrive::new(vec![20.0; 6])).unwrap();
        let v_nom = chip.params().drawer.chip.v_nom;
        for i in 0..NUM_CORES {
            let v = sol[chip.core_node(i).unknown_index().unwrap()];
            let droop = v_nom - v;
            assert!(droop > 0.0, "core {i} droop must be positive");
            assert!(droop < 0.06 * v_nom, "core {i} droop {droop} too large");
        }
        // Package sits above the core nodes.
        let v_pkg = sol[chip.package_node(0).unknown_index().unwrap()];
        let v_core0 = sol[chip.core_node(0).unknown_index().unwrap()];
        assert!(v_pkg > v_core0);
    }

    #[test]
    fn impedance_profile_shows_two_bands() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let ac = AcAnalysis::new(chip.netlist());
        let freqs = log_space(1e3, 50e6, 400).unwrap();
        let profile = ac.sweep(chip.core_node(0), &freqs).unwrap();
        let peaks = find_peaks(&profile).unwrap();
        assert!(peaks.len() >= 2, "expected at least two resonance peaks");
        let mut freqs_sorted: Vec<f64> = peaks.iter().take(2).map(|p| p.0).collect();
        freqs_sorted.sort_by(|a, b| a.total_cmp(b));
        let (f_lo, f_hi) = (freqs_sorted[0], freqs_sorted[1]);
        assert!(
            (10e3..120e3).contains(&f_lo),
            "low band at {f_lo:.3e}, expected tens of kHz"
        );
        assert!(
            (1e6..5e6).contains(&f_hi),
            "high band at {f_hi:.3e}, expected ~2 MHz"
        );
    }

    #[test]
    fn no_resonance_above_5mhz_with_deep_trench() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let ac = AcAnalysis::new(chip.netlist());
        let freqs = log_space(5e6, 500e6, 200).unwrap();
        let profile = ac.sweep(chip.core_node(0), &freqs).unwrap();
        let peaks = find_peaks(&profile).unwrap();
        // Any peak above 5 MHz must be small relative to the 2 MHz band.
        let z_2mhz = ac.impedance_at(chip.core_node(0), 2e6).unwrap().abs();
        for (f, m) in peaks {
            assert!(
                m < z_2mhz,
                "unexpected strong high-frequency resonance at {f:.3e} ({m:.3e} ohm)"
            );
        }
    }

    #[test]
    fn legacy_decap_moves_first_droop_up() {
        let modern = Pdn::chip(&PdnParams::default()).unwrap();
        let legacy = Pdn::chip(&PdnParams::legacy_decap()).unwrap();
        let freqs = log_space(1e5, 500e6, 400).unwrap();
        let find_top_band = |chip: &Pdn| {
            let ac = AcAnalysis::new(chip.netlist());
            let profile = ac.sweep(chip.core_node(0), &freqs).unwrap();
            find_peaks(&profile)
                .unwrap()
                .first()
                .map(|p| p.0)
                .unwrap_or(0.0)
        };
        let f_modern = find_top_band(&modern);
        let f_legacy = find_top_band(&legacy);
        assert!(
            f_legacy > 4.0 * f_modern,
            "legacy {f_legacy:.3e} should sit far above modern {f_modern:.3e}"
        );
        assert!(f_legacy > 5e6, "legacy first droop should exceed 5 MHz");
    }

    #[test]
    fn same_domain_transfer_impedance_exceeds_cross_domain() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let ac = AcAnalysis::new(chip.netlist());
        // Inject at core 0: response at core 2 (same row) vs core 1 (other row).
        let f = 2e6;
        let z_same = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(2), f)
            .unwrap()
            .abs();
        let z_cross = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(1), f)
            .unwrap()
            .abs();
        assert!(
            z_same > z_cross,
            "same-domain coupling {z_same:.3e} should exceed cross-domain {z_cross:.3e}"
        );
    }

    #[test]
    fn grid_variation_changes_core_droop() {
        let mut params = PdnParams::default();
        params.grid_variation[2] = 2.0;
        let chip = Pdn::chip(&params).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        let sol = solver.solve_dc(&ConstantDrive::new(vec![20.0; 6])).unwrap();
        let v2 = sol[chip.core_node(2).unknown_index().unwrap()];
        let v4 = sol[chip.core_node(4).unknown_index().unwrap()];
        assert!(v2 < v4, "core with higher grid resistance droops more");
    }

    #[test]
    fn transient_on_full_chip_runs() {
        let chip = Pdn::chip(&PdnParams::default()).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        let cfg = TransientConfig::new(20e-6);
        let probes: Vec<Probe> = (0..NUM_CORES)
            .map(|i| Probe::NodeVoltage(chip.core_node(i)))
            .collect();
        let res = solver
            .run(&ConstantDrive::new(vec![10.0; 6]), &probes, &cfg)
            .unwrap();
        for st in &res.stats {
            assert!(st.mean > 0.9 * chip.params().drawer.chip.v_nom);
            assert!(st.peak_to_peak() < 1e-6);
        }
    }

    #[test]
    fn drawer_rejects_zero_chips() {
        let params = DrawerParams {
            chips: 0,
            ..DrawerParams::default()
        };
        assert!(matches!(
            Pdn::drawer(&params),
            Err(PdnError::InvalidElement { .. })
        ));
    }

    #[test]
    fn drawer_scale_exceeds_sparse_threshold() {
        let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
        assert_eq!(drawer.num_chips(), 6);
        let nl = drawer.netlist();
        assert_eq!(nl.current_source_count(), 6 * NUM_CORES);
        assert_eq!(nl.system_size(), nl.node_count());
        let size = nl.system_size();
        assert!(
            size >= 150,
            "drawer must be drawer-scale, got {size} unknowns"
        );
        assert!(size > crate::mna::SPARSE_THRESHOLD);
        let solver = TransientSolver::new(nl).unwrap();
        assert!(solver.uses_sparse(), "drawer must take the sparse path");
    }

    #[test]
    fn drawer_dc_droop_grows_down_the_spine() {
        let drawer = Pdn::drawer(&DrawerParams::default()).unwrap();
        let mut solver = TransientSolver::new(drawer.netlist()).unwrap();
        let amps = vec![10.0; drawer.num_chips() * NUM_CORES];
        let sol = solver.solve_dc(&ConstantDrive::new(amps)).unwrap();
        let volt = |n: NodeId| sol[n.unknown_index().unwrap()];
        // Under a uniform load, chips farther along the spine see more
        // board-level IR drop than chip 0.
        let v_first = volt(drawer.package_node(0));
        let v_last = volt(drawer.package_node(drawer.num_chips() - 1));
        assert!(
            v_last < v_first,
            "far chip {v_last} should droop below near chip {v_first}"
        );
        // Every chip still lands near nominal.
        for c in 0..drawer.num_chips() {
            let v = volt(drawer.core_node(c * NUM_CORES));
            assert!(
                v > 0.9 * drawer.params().drawer.chip.v_nom,
                "chip {c} at {v}"
            );
        }
    }

    #[test]
    fn rack_rejects_zero_drawers() {
        let params = RackParams {
            drawers: 0,
            ..RackParams::default()
        };
        assert!(matches!(
            uniform_rack(&params),
            Err(PdnError::InvalidElement { .. })
        ));
    }

    #[test]
    fn rack_rejects_chip_param_count_mismatch() {
        let params = RackParams::default();
        let wrong = vec![PdnParams::default(); params.num_chips() + 1];
        assert!(matches!(
            Pdn::build(&params, &wrong),
            Err(PdnError::InvalidElement { .. })
        ));
    }

    #[test]
    fn rack_source_ordinals_follow_flat_site_order() {
        let params = RackParams {
            drawers: 2,
            drawer: DrawerParams {
                chips: 3,
                ..DrawerParams::default()
            },
            ..RackParams::default()
        };
        let rack = uniform_rack(&params).unwrap();
        assert_eq!(rack.num_chips(), 6);
        assert_eq!(rack.netlist().current_source_count(), 6 * NUM_CORES);
        for d in 0..2 {
            for c in 0..3 {
                for core in 0..NUM_CORES {
                    let site = NUM_CORES * (d * 3 + c) + core;
                    assert_eq!(rack.core_source(site).index(), site);
                }
            }
        }
    }

    #[test]
    fn rack_droop_grows_down_the_rack_spine() {
        let params = RackParams {
            drawers: 3,
            drawer: DrawerParams {
                chips: 2,
                ..DrawerParams::default()
            },
            ..RackParams::default()
        };
        let rack = uniform_rack(&params).unwrap();
        let mut solver = TransientSolver::new(rack.netlist()).unwrap();
        let amps = vec![10.0; rack.num_chips() * NUM_CORES];
        let sol = solver.solve_dc(&ConstantDrive::new(amps)).unwrap();
        let volt = |n: NodeId| sol[n.unknown_index().unwrap()];
        let v_near = volt(rack.package_node(0));
        let v_far = volt(rack.package_node(4));
        assert!(
            v_far < v_near,
            "far drawer {v_far} should droop below near drawer {v_near}"
        );
        for d in 0..3 {
            for c in 0..2 {
                let v = volt(rack.core_node((d * 2 + c) * NUM_CORES));
                assert!(v > 0.9 * params.drawer.chip.v_nom, "site {d}/{c} at {v}");
            }
        }
    }

    #[test]
    fn zero_variation_spec_is_bitwise_identity() {
        let spec = VariationSpec::none();
        assert!(spec.is_zero());
        let base = PdnParams::default();
        for d in 0..2 {
            for c in 0..3 {
                assert_eq!(spec.chip_pdn_params(&base, d, c), base);
                assert_eq!(spec.skitter_variation(d, c), [1.0; NUM_CORES]);
            }
        }
    }

    #[test]
    fn variation_spec_is_deterministic_and_decorrelated() {
        let spec = VariationSpec::paper_default(42);
        let base = PdnParams::default();
        let a = spec.chip_pdn_params(&base, 0, 1);
        let b = spec.chip_pdn_params(&base, 0, 1);
        assert_eq!(a, b, "same site must give identical parameters");
        let other = spec.chip_pdn_params(&base, 1, 1);
        assert_ne!(a, other, "different drawers must vary");
        let sens = spec.skitter_variation(0, 1);
        assert_eq!(sens, spec.skitter_variation(0, 1));
        for (i, s) in sens.iter().enumerate() {
            assert!(
                (*s - 1.0).abs() <= spec.sensitivity_spread + 1e-12,
                "core {i} multiplier {s} outside spread"
            );
            assert!(*s != 1.0, "spread draw should essentially never be exact");
        }
        // Multipliers within bounds for the electrical side too.
        for (i, g) in a.grid_variation.iter().enumerate() {
            assert!(
                (*g - 1.0).abs() <= spec.grid_spread + 1e-12,
                "core {i} grid multiplier {g} outside spread"
            );
        }
    }
}
