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
pub const NEIGHBOR_PAIRS: [(usize, usize); 4] = [(0, 2), (2, 4), (1, 3), (3, 5)];

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
/// [`attach_chip`]. Shared by the single-chip [`ChipPdn`] and the
/// multi-chip [`DrawerPdn`].
#[derive(Debug, Clone)]
struct ChipNodes {
    pkg: NodeId,
    domains: [NodeId; 2],
    l3: NodeId,
    cores: [NodeId; NUM_CORES],
    core_sources: [SourceId; NUM_CORES],
}

/// Builds one package-and-below chip subtree hanging off `attach`
/// (a board-plane node): package, two on-die domains, L3 bridge, six
/// cores with loads, and the neighbor coupling resistors.
///
/// The element and node creation sequence here is byte-identity
/// critical: auto-generated intermediate node names (`rl_mid_N`,
/// `esr_mid_N`) derive from the running node count, and dense stamping
/// order follows element insertion order, so [`ChipPdn::build`] calling
/// this with an empty prefix must reproduce the historical netlist
/// exactly.
fn attach_chip(
    nl: &mut Netlist,
    attach: NodeId,
    params: &PdnParams,
    prefix: &str,
) -> Result<ChipNodes, PdnError> {
    let pkg = nl.add_node(format!("{prefix}pkg"));
    nl.add_series_rl(attach, pkg, params.r_board, params.l_board)?;
    nl.add_capacitor_with_esr(pkg, NodeId::GROUND, params.c_pkg, params.esr_pkg)?;

    let mut domains = [NodeId::GROUND; 2];
    for (d, dom) in domains.iter_mut().enumerate() {
        let node = nl.add_node(format!("{prefix}domain{d}"));
        nl.add_series_rl(pkg, node, params.r_c4, params.l_c4)?;
        nl.add_capacitor_with_esr(node, NodeId::GROUND, params.c_domain, params.esr_domain)?;
        *dom = node;
    }

    let l3 = nl.add_node(format!("{prefix}l3"));
    for dom in domains {
        nl.add_series_rl(dom, l3, params.r_l3, params.l_l3)?;
    }
    nl.add_capacitor_with_esr(l3, NodeId::GROUND, params.c_l3, params.esr_l3)?;

    let mut cores = [NodeId::GROUND; NUM_CORES];
    let mut core_sources = [SourceId(0); NUM_CORES];
    for i in 0..NUM_CORES {
        let node = nl.add_node(format!("{prefix}core{i}"));
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
        domains,
        l3,
        cores,
        core_sources,
    })
}

/// A built chip PDN: the netlist plus handles to every observable node.
#[derive(Debug, Clone)]
pub struct ChipPdn {
    netlist: Netlist,
    params: PdnParams,
    board: NodeId,
    pkg: NodeId,
    domains: [NodeId; 2],
    l3: NodeId,
    cores: [NodeId; NUM_CORES],
    core_sources: [SourceId; NUM_CORES],
}

impl ChipPdn {
    /// Builds the chip PDN from parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] if any parameter is
    /// non-positive or non-finite.
    pub fn build(params: &PdnParams) -> Result<Self, PdnError> {
        let mut nl = Netlist::new();
        let vrm = nl.add_node("vrm");
        nl.add_voltage_source(vrm, NodeId::GROUND, params.v_nom)?;

        let board = nl.add_node("board");
        nl.add_series_rl(vrm, board, params.r_vrm, params.l_vrm)?;
        nl.add_capacitor_with_esr(board, NodeId::GROUND, params.c_bulk, params.esr_bulk)?;

        let chip = attach_chip(&mut nl, board, params, "")?;

        Ok(ChipPdn {
            netlist: nl,
            params: params.clone(),
            board,
            pkg: chip.pkg,
            domains: chip.domains,
            l3: chip.l3,
            cores: chip.cores,
            core_sources: chip.core_sources,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Parameters the PDN was built from.
    pub fn params(&self) -> &PdnParams {
        &self.params
    }

    /// Node of the board plane.
    pub fn board_node(&self) -> NodeId {
        self.board
    }

    /// Node of the package plane.
    pub fn package_node(&self) -> NodeId {
        self.pkg
    }

    /// Node of on-die voltage domain `d` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `d > 1`.
    pub fn domain_node(&self, d: usize) -> NodeId {
        self.domains[d]
    }

    /// Node of the L3/eDRAM decap plane.
    pub fn l3_node(&self) -> NodeId {
        self.l3
    }

    /// Supply node of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_CORES`.
    pub fn core_node(&self, i: usize) -> NodeId {
        self.cores[i]
    }

    /// Current-source id of core `i`'s load.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_CORES`.
    pub fn core_source(&self, i: usize) -> SourceId {
        self.core_sources[i]
    }

    /// All six core supply nodes in core order.
    pub fn core_nodes(&self) -> [NodeId; NUM_CORES] {
        self.cores
    }
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

/// A built multi-chip drawer PDN: the netlist plus handles to every
/// chip's observable nodes.
#[derive(Debug, Clone)]
pub struct DrawerPdn {
    netlist: Netlist,
    params: DrawerParams,
    boards: Vec<NodeId>,
    chips: Vec<ChipNodes>,
}

impl DrawerPdn {
    /// Builds the drawer PDN: a VRM feeding board segment 0, spine
    /// segments chaining to board `i`, and one chip subtree per
    /// segment. Chip `i`'s core loads occupy drive slots
    /// `NUM_CORES*i .. NUM_CORES*(i+1)` in chip/core order.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a zero chip count or
    /// any non-positive/non-finite electrical parameter.
    pub fn build(params: &DrawerParams) -> Result<Self, PdnError> {
        if params.chips == 0 {
            return Err(PdnError::InvalidElement {
                element: "drawer chip count".to_string(),
                value: 0.0,
            });
        }
        let p = &params.chip;
        let mut nl = Netlist::new();
        let vrm = nl.add_node("vrm");
        nl.add_voltage_source(vrm, NodeId::GROUND, p.v_nom)?;

        let mut boards = Vec::with_capacity(params.chips);
        let board0 = nl.add_node("board0");
        nl.add_series_rl(vrm, board0, p.r_vrm, p.l_vrm)?;
        nl.add_capacitor_with_esr(board0, NodeId::GROUND, p.c_bulk, p.esr_bulk)?;
        boards.push(board0);
        for i in 1..params.chips {
            let board = nl.add_node(format!("board{i}"));
            nl.add_series_rl(boards[i - 1], board, params.r_spine, params.l_spine)?;
            boards.push(board);
        }

        let mut chips = Vec::with_capacity(params.chips);
        for (i, &board) in boards.iter().enumerate() {
            chips.push(attach_chip(&mut nl, board, p, &format!("c{i}_"))?);
        }

        Ok(DrawerPdn {
            netlist: nl,
            params: params.clone(),
            boards,
            chips,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Parameters the drawer was built from.
    pub fn params(&self) -> &DrawerParams {
        &self.params
    }

    /// Number of chips on the drawer.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Board plane node of chip site `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()`.
    pub fn board_node(&self, chip: usize) -> NodeId {
        self.boards[chip]
    }

    /// Package node of chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()`.
    pub fn package_node(&self, chip: usize) -> NodeId {
        self.chips[chip].pkg
    }

    /// On-die domain node `d` (0 or 1) of chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()` or `d > 1`.
    pub fn domain_node(&self, chip: usize, d: usize) -> NodeId {
        self.chips[chip].domains[d]
    }

    /// L3 decap node of chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()`.
    pub fn l3_node(&self, chip: usize) -> NodeId {
        self.chips[chip].l3
    }

    /// Supply node of core `core` on chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()` or `core >= NUM_CORES`.
    pub fn core_node(&self, chip: usize, core: usize) -> NodeId {
        self.chips[chip].cores[core]
    }

    /// Current-source id of core `core` on chip `chip` (equals
    /// `NUM_CORES * chip + core`).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= num_chips()` or `core >= NUM_CORES`.
    pub fn core_source(&self, chip: usize, core: usize) -> SourceId {
        self.chips[chip].core_sources[core]
    }
}

/// Parameters of a rack: N drawers hanging off one shared supply spine.
///
/// Models the next hierarchy level of the paper's zEC12 frame above the
/// drawer/book: a rack-level bulk supply feeds drawer 0 directly and
/// each further drawer through a rack spine segment. Board-level values
/// (VRM impedance, bulk decap, nominal voltage) are taken from the base
/// chip parameters in `drawer.chip`; per-chip electrical variation is
/// supplied separately at build time via [`RackPdn::build_varied`].
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

/// A built rack PDN: N drawers of chips on one shared supply spine.
///
/// The rack owns its netlist and the factorization memo every
/// solver from [`RackPdn::solver`] shares, so the jobs of one rack
/// factor each of its systems once. Nothing can change the netlist
/// after it is built, so memoized factors never go stale; clones share
/// the memo along with the identical netlist.
#[derive(Debug, Clone)]
pub struct RackPdn {
    netlist: Netlist,
    params: RackParams,
    boards: Vec<NodeId>,
    chips: Vec<ChipNodes>,
    factors: Arc<ScenarioFactors>,
}

impl RackPdn {
    /// Builds a uniform rack: every chip uses the base parameters in
    /// `params.drawer.chip`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a zero drawer/chip count
    /// or any non-positive/non-finite electrical parameter.
    pub fn build(params: &RackParams) -> Result<Self, PdnError> {
        let per_chip = vec![params.drawer.chip.clone(); params.num_chips()];
        Self::build_varied(params, &per_chip)
    }

    /// Builds a rack whose chip at flat site `drawer * chips + chip`
    /// uses `chip_params[site]` (e.g. from [`VariationSpec`]).
    ///
    /// Element creation order per drawer mirrors [`DrawerPdn::build`]
    /// (head board with bulk decap, spine-chained boards, then one chip
    /// subtree per board), so a 1-drawer × 1-chip rack is structurally —
    /// and therefore numerically — identical to [`ChipPdn::build`].
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a zero drawer/chip
    /// count, a `chip_params` length mismatch, or any non-positive/
    /// non-finite electrical parameter.
    pub fn build_varied(params: &RackParams, chip_params: &[PdnParams]) -> Result<Self, PdnError> {
        if params.drawers == 0 {
            return Err(PdnError::InvalidElement {
                element: "rack drawer count".to_string(),
                value: 0.0,
            });
        }
        if params.drawer.chips == 0 {
            return Err(PdnError::InvalidElement {
                element: "rack drawer chip count".to_string(),
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
        let vrm = nl.add_node("vrm");
        nl.add_voltage_source(vrm, NodeId::GROUND, base.v_nom)?;

        let mut boards = Vec::with_capacity(params.num_chips());
        let mut chips = Vec::with_capacity(params.num_chips());
        let mut prev_head: Option<NodeId> = None;
        for d in 0..params.drawers {
            let head = nl.add_node(format!("d{d}_board0"));
            match prev_head {
                // Drawer 0 hangs off the VRM exactly like a standalone
                // drawer's board 0.
                None => nl.add_series_rl(vrm, head, base.r_vrm, base.l_vrm)?,
                Some(prev) => nl.add_series_rl(prev, head, params.r_rack, params.l_rack)?,
            };
            nl.add_capacitor_with_esr(head, NodeId::GROUND, base.c_bulk, base.esr_bulk)?;
            prev_head = Some(head);

            let first = boards.len();
            boards.push(head);
            for i in 1..params.drawer.chips {
                let board = nl.add_node(format!("d{d}_board{i}"));
                nl.add_series_rl(
                    boards[first + i - 1],
                    board,
                    params.drawer.r_spine,
                    params.drawer.l_spine,
                )?;
                boards.push(board);
            }
            for i in 0..params.drawer.chips {
                let site = first + i;
                chips.push(attach_chip(
                    &mut nl,
                    boards[site],
                    &chip_params[site],
                    &format!("d{d}c{i}_"),
                )?);
            }
        }

        Ok(RackPdn {
            netlist: nl,
            params: params.clone(),
            boards,
            chips,
            factors: Arc::default(),
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// A transient solver of this rack's netlist that shares the rack's
    /// factorization memo.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] as [`TransientSolver::with_backend`] does.
    pub fn solver(&self, backend: SolverBackend) -> Result<TransientSolver, PdnError> {
        TransientSolver::with_memo(&self.netlist, backend, self.factors.clone())
    }

    /// Parameters the rack was built from.
    pub fn params(&self) -> &RackParams {
        &self.params
    }

    /// Number of drawers in the rack.
    pub fn num_drawers(&self) -> usize {
        self.params.drawers
    }

    /// Number of chips per drawer.
    pub fn chips_per_drawer(&self) -> usize {
        self.params.drawer.chips
    }

    /// Total chip count across all drawers.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Flat chip-site index of `(drawer, chip)`.
    ///
    /// # Panics
    ///
    /// Panics if the site is out of range.
    fn site(&self, drawer: usize, chip: usize) -> usize {
        assert!(drawer < self.num_drawers(), "drawer {drawer} out of range");
        assert!(
            chip < self.chips_per_drawer(),
            "chip {chip} out of range on drawer {drawer}"
        );
        drawer * self.chips_per_drawer() + chip
    }

    /// Board plane node of chip `chip` on drawer `drawer`.
    ///
    /// # Panics
    ///
    /// Panics if the site is out of range.
    pub fn board_node(&self, drawer: usize, chip: usize) -> NodeId {
        self.boards[self.site(drawer, chip)]
    }

    /// Package node of chip `chip` on drawer `drawer`.
    ///
    /// # Panics
    ///
    /// Panics if the site is out of range.
    pub fn package_node(&self, drawer: usize, chip: usize) -> NodeId {
        self.chips[self.site(drawer, chip)].pkg
    }

    /// Supply node of core `core` of chip `chip` on drawer `drawer`.
    ///
    /// # Panics
    ///
    /// Panics if the site is out of range or `core >= NUM_CORES`.
    pub fn core_node(&self, drawer: usize, chip: usize, core: usize) -> NodeId {
        self.chips[self.site(drawer, chip)].cores[core]
    }

    /// Current-source id of core `core` of chip `chip` on drawer
    /// `drawer` (equals `NUM_CORES * (drawer * chips_per_drawer + chip)
    /// + core`, i.e. flat site order).
    ///
    /// # Panics
    ///
    /// Panics if the site is out of range or `core >= NUM_CORES`.
    pub fn core_source(&self, drawer: usize, chip: usize, core: usize) -> SourceId {
        self.chips[self.site(drawer, chip)].core_sources[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{find_peaks, log_space, AcAnalysis};
    use crate::transient::{ConstantDrive, Probe, TransientConfig, TransientSolver};

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
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
        assert_eq!(chip.netlist().current_source_count(), NUM_CORES);
        assert_eq!(chip.netlist().voltage_source_count(), 1);
        for i in 0..NUM_CORES {
            assert_eq!(chip.core_source(i).index(), i);
        }
    }

    #[test]
    fn dc_droop_is_small_and_ordered() {
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        // All six cores drawing 20 A.
        let sol = solver.solve_dc(&ConstantDrive::new(vec![20.0; 6])).unwrap();
        let v_nom = chip.params().v_nom;
        for i in 0..NUM_CORES {
            let v = sol[chip.core_node(i).unknown_index().unwrap()];
            let droop = v_nom - v;
            assert!(droop > 0.0, "core {i} droop must be positive");
            assert!(droop < 0.06 * v_nom, "core {i} droop {droop} too large");
        }
        // Package sits above the core nodes.
        let v_pkg = sol[chip.package_node().unknown_index().unwrap()];
        let v_core0 = sol[chip.core_node(0).unknown_index().unwrap()];
        assert!(v_pkg > v_core0);
    }

    #[test]
    fn impedance_profile_shows_two_bands() {
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
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
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
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
        let modern = ChipPdn::build(&PdnParams::default()).unwrap();
        let legacy = ChipPdn::build(&PdnParams::legacy_decap()).unwrap();
        let freqs = log_space(1e5, 500e6, 400).unwrap();
        let find_top_band = |chip: &ChipPdn| {
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
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
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
        let chip = ChipPdn::build(&params).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        let sol = solver.solve_dc(&ConstantDrive::new(vec![20.0; 6])).unwrap();
        let v2 = sol[chip.core_node(2).unknown_index().unwrap()];
        let v4 = sol[chip.core_node(4).unknown_index().unwrap()];
        assert!(v2 < v4, "core with higher grid resistance droops more");
    }

    #[test]
    fn transient_on_full_chip_runs() {
        let chip = ChipPdn::build(&PdnParams::default()).unwrap();
        let mut solver = TransientSolver::new(chip.netlist()).unwrap();
        let cfg = TransientConfig::new(20e-6);
        let probes: Vec<Probe> = (0..NUM_CORES)
            .map(|i| Probe::NodeVoltage(chip.core_node(i)))
            .collect();
        let res = solver
            .run(&ConstantDrive::new(vec![10.0; 6]), &probes, &cfg)
            .unwrap();
        for st in &res.stats {
            assert!(st.mean > 0.9 * chip.params().v_nom);
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
            DrawerPdn::build(&params),
            Err(PdnError::InvalidElement { .. })
        ));
    }

    #[test]
    fn drawer_scale_exceeds_sparse_threshold() {
        let drawer = DrawerPdn::build(&DrawerParams::default()).unwrap();
        assert_eq!(drawer.num_chips(), 6);
        let nl = drawer.netlist();
        assert_eq!(nl.current_source_count(), 6 * NUM_CORES);
        assert_eq!(nl.voltage_source_count(), 1);
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
        let drawer = DrawerPdn::build(&DrawerParams::default()).unwrap();
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
            let v = volt(drawer.core_node(c, 0));
            assert!(v > 0.9 * drawer.params().chip.v_nom, "chip {c} at {v}");
        }
    }

    #[test]
    fn drawer_chips_are_electrically_identical_chips() {
        // A 1-chip drawer's chip subtree matches the standalone chip: the
        // only difference is the board spine (absent for chip 0).
        let params = DrawerParams {
            chips: 1,
            ..DrawerParams::default()
        };
        let drawer = DrawerPdn::build(&params).unwrap();
        let chip = ChipPdn::build(&params.chip).unwrap();
        assert_eq!(drawer.netlist().system_size(), chip.netlist().system_size());
        let mut ds = TransientSolver::new(drawer.netlist()).unwrap();
        let mut cs = TransientSolver::new(chip.netlist()).unwrap();
        let drive = ConstantDrive::new(vec![15.0; NUM_CORES]);
        let dv = ds.solve_dc(&drive).unwrap();
        let cv = cs.solve_dc(&drive).unwrap();
        for core in 0..NUM_CORES {
            let a = dv[drawer.core_node(0, core).unknown_index().unwrap()];
            let b = cv[chip.core_node(core).unknown_index().unwrap()];
            assert!((a - b).abs() < 1e-12, "core {core}: {a} vs {b}");
        }
    }

    #[test]
    fn rack_rejects_zero_drawers() {
        let params = RackParams {
            drawers: 0,
            ..RackParams::default()
        };
        assert!(matches!(
            RackPdn::build(&params),
            Err(PdnError::InvalidElement { .. })
        ));
    }

    #[test]
    fn rack_rejects_chip_param_count_mismatch() {
        let params = RackParams::default();
        let wrong = vec![PdnParams::default(); params.num_chips() + 1];
        assert!(matches!(
            RackPdn::build_varied(&params, &wrong),
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
        let rack = RackPdn::build(&params).unwrap();
        assert_eq!(rack.num_chips(), 6);
        assert_eq!(rack.netlist().current_source_count(), 6 * NUM_CORES);
        for d in 0..2 {
            for c in 0..3 {
                for core in 0..NUM_CORES {
                    assert_eq!(
                        rack.core_source(d, c, core).index(),
                        NUM_CORES * (d * 3 + c) + core
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_rack_is_bitwise_identical_to_chip() {
        // A 1-drawer × 1-chip rack must reproduce the standalone chip
        // build sequence exactly: identical system size and bitwise
        // identical DC solution (node names differ but play no role in
        // stamping order or auto-generated intermediate node naming).
        let params = RackParams {
            drawers: 1,
            drawer: DrawerParams {
                chips: 1,
                ..DrawerParams::default()
            },
            ..RackParams::default()
        };
        let rack = RackPdn::build(&params).unwrap();
        let chip = ChipPdn::build(&params.drawer.chip).unwrap();
        assert_eq!(rack.netlist().system_size(), chip.netlist().system_size());
        let mut rs = TransientSolver::new(rack.netlist()).unwrap();
        let mut cs = TransientSolver::new(chip.netlist()).unwrap();
        let drive = ConstantDrive::new(vec![15.0; NUM_CORES]);
        let rv = rs.solve_dc(&drive).unwrap();
        let cv = cs.solve_dc(&drive).unwrap();
        for core in 0..NUM_CORES {
            let a = rv[rack.core_node(0, 0, core).unknown_index().unwrap()];
            let b = cv[chip.core_node(core).unknown_index().unwrap()];
            assert!(a.to_bits() == b.to_bits(), "core {core}: {a} vs {b}");
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
        let rack = RackPdn::build(&params).unwrap();
        let mut solver = TransientSolver::new(rack.netlist()).unwrap();
        let amps = vec![10.0; rack.num_chips() * NUM_CORES];
        let sol = solver.solve_dc(&ConstantDrive::new(amps)).unwrap();
        let volt = |n: NodeId| sol[n.unknown_index().unwrap()];
        let v_near = volt(rack.package_node(0, 0));
        let v_far = volt(rack.package_node(2, 0));
        assert!(
            v_far < v_near,
            "far drawer {v_far} should droop below near drawer {v_near}"
        );
        for d in 0..3 {
            for c in 0..2 {
                let v = volt(rack.core_node(d, c, 0));
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
