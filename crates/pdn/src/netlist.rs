//! Circuit description: nodes and lumped elements.
//!
//! A [`Netlist`] is the shared input of both analyses: the transient
//! solver ([`crate::transient`]) and the AC solver ([`crate::ac`]).
//! Elements use the standard SPICE-like conventions: every two-terminal
//! element connects node `a` to node `b`, with branch voltage
//! `v_ab = v(a) - v(b)` and branch current flowing from `a` to `b`.

use crate::error::PdnError;
use serde::{Deserialize, Serialize};

/// Identifier of a circuit node.
///
/// [`NodeId::GROUND`] is the reference node; all other ids are created by
/// [`Netlist::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The reference (ground) node, fixed at 0 V.
    pub const GROUND: NodeId = NodeId(0);

    /// Index of this node among the MNA unknowns — i.e. its position in
    /// solution vectors returned by the solvers — or `None` for ground.
    pub fn unknown_index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

/// Identifier of a time-varying current source within a netlist.
///
/// The transient solver asks its drive callback for one current value per
/// source, indexed by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceId(pub(crate) usize);

impl SourceId {
    /// Position of this source in the drive vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A lumped circuit element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// Resistor of `ohms` between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Capacitor of `farads` between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Inductor of `henries` between `a` and `b`.
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries.
        henries: f64,
    },
    /// Ideal DC voltage source holding `v(plus) - v(minus) = volts`.
    VoltageSource {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Source voltage in volts.
        volts: f64,
    },
    /// Time-varying current source drawing current from `from` into `to`.
    ///
    /// For a load (e.g. a core) `from` is the supply node and `to` is
    /// ground: positive drive current discharges the supply node.
    CurrentSource {
        /// Node the current is drawn out of.
        from: NodeId,
        /// Node the current is returned to.
        to: NodeId,
        /// Drive-vector index of this source.
        source: SourceId,
    },
}

/// A circuit under construction.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::netlist::{Netlist, NodeId};
///
/// let mut nl = Netlist::new();
/// let vdd = nl.add_node("vdd");
/// nl.add_voltage_source(vdd, NodeId::GROUND, 1.05).unwrap();
/// let die = nl.add_node("die");
/// nl.add_resistor(vdd, die, 1e-3).unwrap();
/// nl.add_capacitor(die, NodeId::GROUND, 10e-6).unwrap();
/// assert_eq!(nl.node_count(), 3); // ground + vdd + die
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<Element>,
    n_vsources: usize,
    n_isources: usize,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["gnd".to_string()],
            elements: Vec::new(),
            n_vsources: 0,
            n_isources: 0,
        }
    }

    /// Adds a named node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        NodeId(self.node_names.len() - 1)
    }

    /// Total number of nodes, including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements added so far.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of time-varying current sources.
    pub(crate) fn current_source_count(&self) -> usize {
        self.n_isources
    }

    /// Size of the MNA system: non-ground nodes plus one branch-current
    /// unknown per voltage source.
    pub fn system_size(&self) -> usize {
        (self.node_count() - 1) + self.n_vsources
    }

    fn check_node(&self, node: NodeId) -> Result<(), PdnError> {
        if node.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(PdnError::UnknownNode { node: node.0 })
        }
    }

    fn check_value(element: &str, value: f64) -> Result<(), PdnError> {
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(PdnError::InvalidElement {
                element: element.to_string(),
                value,
            })
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and unknown nodes.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<(), PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value("resistor", ohms)?;
        self.elements.push(Element::Resistor { a, b, ohms });
        Ok(())
    }

    /// Adds a negative-resistance element (an idealized active device).
    ///
    /// Regular elements reject non-positive values because a passive PDN
    /// is unconditionally stable. This escape hatch deliberately builds
    /// an *unstable* network for solver-robustness and fault-injection
    /// testing: paired with a capacitor, a negative resistor produces
    /// exponential growth that must trip the transient solver's
    /// divergence guard ([`crate::PdnError::Diverged`]) rather than leak
    /// NaN into results.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-negative resistance and unknown nodes.
    pub fn add_negative_resistor(
        &mut self,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(ohms.is_finite() && ohms < 0.0) {
            return Err(PdnError::InvalidElement {
                element: "negative resistor".to_string(),
                value: ohms,
            });
        }
        self.elements.push(Element::Resistor { a, b, ohms });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite capacitance and unknown nodes.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<(), PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value("capacitor", farads)?;
        self.elements.push(Element::Capacitor { a, b, farads });
        Ok(())
    }

    /// Adds a capacitor with equivalent series resistance by creating an
    /// internal node, returning that node's id.
    ///
    /// # Errors
    ///
    /// Rejects non-positive values and unknown nodes.
    pub fn add_capacitor_with_esr(
        &mut self,
        a: NodeId,
        b: NodeId,
        farads: f64,
        esr_ohms: f64,
    ) -> Result<NodeId, PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value("capacitor", farads)?;
        Self::check_value("capacitor esr", esr_ohms)?;
        let mid = self.add_node(format!("esr_mid_{}", self.node_names.len()));
        self.add_resistor(a, mid, esr_ohms)?;
        self.add_capacitor(mid, b, farads)?;
        Ok(mid)
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite inductance and unknown nodes.
    pub(crate) fn add_inductor(
        &mut self,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value("inductor", henries)?;
        self.elements.push(Element::Inductor { a, b, henries });
        Ok(())
    }

    /// Adds a series resistor-inductor branch between `a` and `b` by
    /// creating an internal node, returning that node's id.
    ///
    /// This is the natural model of an interconnect segment (board trace,
    /// C4 path, on-die grid), whose resistance and inductance act in
    /// series.
    ///
    /// # Errors
    ///
    /// Rejects non-positive values and unknown nodes.
    pub fn add_series_rl(
        &mut self,
        a: NodeId,
        b: NodeId,
        ohms: f64,
        henries: f64,
    ) -> Result<NodeId, PdnError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value("series rl resistor", ohms)?;
        Self::check_value("series rl inductor", henries)?;
        let mid = self.add_node(format!("rl_mid_{}", self.node_names.len()));
        self.add_resistor(a, mid, ohms)?;
        self.add_inductor(mid, b, henries)?;
        Ok(mid)
    }

    /// Adds an ideal DC voltage source.
    ///
    /// # Errors
    ///
    /// Rejects non-finite voltage and unknown nodes. Zero and negative
    /// voltages are allowed (useful for probes and undervolting studies).
    pub fn add_voltage_source(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        volts: f64,
    ) -> Result<usize, PdnError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        if !volts.is_finite() {
            return Err(PdnError::InvalidElement {
                element: "voltage source".to_string(),
                value: volts,
            });
        }
        self.elements
            .push(Element::VoltageSource { plus, minus, volts });
        self.n_vsources += 1;
        Ok(self.n_vsources - 1)
    }

    /// Adds a time-varying current source and returns its drive id.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes.
    pub fn add_current_source(&mut self, from: NodeId, to: NodeId) -> Result<SourceId, PdnError> {
        self.check_node(from)?;
        self.check_node(to)?;
        let source = SourceId(self.n_isources);
        self.elements
            .push(Element::CurrentSource { from, to, source });
        self.n_isources += 1;
        Ok(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_sequential_and_named() {
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        let b = nl.add_node("b");
        assert_eq!((a, b), (NodeId(1), NodeId(2)));
        assert_eq!(nl.node_count(), 3);
    }

    #[test]
    fn unknown_index_maps_ground_to_none() {
        assert_eq!(NodeId::GROUND.unknown_index(), None);
        assert_eq!(NodeId(3).unknown_index(), Some(2));
    }

    #[test]
    fn rejects_invalid_values() {
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        assert!(nl.add_resistor(a, NodeId::GROUND, 0.0).is_err());
        assert!(nl.add_capacitor(a, NodeId::GROUND, -1.0).is_err());
        assert!(nl.add_inductor(a, NodeId::GROUND, f64::NAN).is_err());
        assert!(nl
            .add_voltage_source(a, NodeId::GROUND, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut nl = Netlist::new();
        let bogus = NodeId(42);
        assert!(matches!(
            nl.add_resistor(bogus, NodeId::GROUND, 1.0),
            Err(PdnError::UnknownNode { node: 42 })
        ));
    }

    #[test]
    fn system_size_counts_vsources() {
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        let b = nl.add_node("b");
        nl.add_voltage_source(a, NodeId::GROUND, 1.0).unwrap();
        nl.add_resistor(a, b, 1.0).unwrap();
        assert_eq!(nl.system_size(), 3); // 2 nodes + 1 vsource branch
    }

    #[test]
    fn esr_capacitor_creates_internal_node() {
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        let before = nl.node_count();
        let mid = nl
            .add_capacitor_with_esr(a, NodeId::GROUND, 1e-6, 1e-3)
            .unwrap();
        assert_eq!(nl.node_count(), before + 1);
        assert_ne!(mid, NodeId::GROUND);
        assert_eq!(nl.elements().len(), 2);
    }

    #[test]
    fn current_sources_get_sequential_ids() {
        let mut nl = Netlist::new();
        let a = nl.add_node("a");
        let s0 = nl.add_current_source(a, NodeId::GROUND).unwrap();
        let s1 = nl.add_current_source(a, NodeId::GROUND).unwrap();
        assert_eq!(s0.index(), 0);
        assert_eq!(s1.index(), 1);
        assert_eq!(nl.current_source_count(), 2);
    }
}
