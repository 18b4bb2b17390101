//! Shared MNA assembly core: one stamping path for every analysis.
//!
//! Historically the crate stamped modified-nodal-analysis systems in
//! three hand-rolled places — the transient DC operating point, the
//! trapezoidal companion step matrix, and the complex-valued AC path —
//! each with its own closure and its own opportunity to drift. This
//! module centralizes them:
//!
//! - `Stamper` is the one primitive set (two-terminal admittance,
//!   branch-constraint pair), generic over [`Scalar`] so the same code
//!   assembles real transient systems and complex AC systems;
//! - [`MnaSystem`] is the parsed, analysis-ready view of a
//!   [`Netlist`], with one stamping function per system kind
//!   (`MnaSystem::stamp_transient`, `MnaSystem::stamp_dc`,
//!   `MnaSystem::stamp_ac`);
//! - `SystemPattern` is the symbolic sparsity of an assembled system,
//!   computed once per netlist and shared by every sparse
//!   factorization of it (see [`crate::sparse`]).
//!
//! Stamp *order* is part of the contract: dense floating-point
//! accumulation is order-sensitive, and the figure pipeline pins its
//! outputs byte-for-byte, so each stamping function reproduces the
//! historical assembly order exactly (all resistors, then capacitors,
//! then inductors, then voltage-source pairs for the transient matrix;
//! netlist element order for AC).

use crate::complex::Complex;
use crate::linalg::{Matrix, Scalar};
use crate::netlist::{Element, Netlist};
use serde::{Deserialize, Serialize};

/// System-size threshold (in MNA unknowns) above which
/// [`SolverBackend::Auto`] switches from the dense LU fast path to the
/// sparse path. A single zEC12-like chip assembles ~35 unknowns and
/// stays dense (preserving the pinned dense cost model and figure
/// bytes); a multi-chip drawer crosses 150+ unknowns and goes sparse.
pub const SPARSE_THRESHOLD: usize = 96;

/// Dense/sparse backend selection for the MNA solvers.
///
/// Serializable and hashable so it can participate in content keys
/// (see `voltnoise_system`): which backend solved a job is part of what
/// was computed, because the backends are only equivalent up to
/// floating-point rounding, not byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SolverBackend {
    /// Dense below [`SPARSE_THRESHOLD`] unknowns, sparse at or above it.
    #[default]
    Auto,
    /// Always use the dense `Matrix` path.
    Dense,
    /// Always use the CSR sparse path.
    Sparse,
}

impl SolverBackend {
    /// Whether a system of `n` unknowns should use the sparse path.
    pub(crate) fn is_sparse(self, n: usize) -> bool {
        match self {
            SolverBackend::Auto => n >= SPARSE_THRESHOLD,
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
        }
    }
}

/// Assembly sink of a [`Stamper`]: anything positions can be
/// accumulated into. Implemented by the dense [`Matrix`], the CSR
/// matrix of [`crate::sparse`], and the symbolic pattern builder — so
/// numeric assembly and sparsity discovery run through the exact same
/// stamping code.
pub(crate) trait StampTarget<T: Scalar> {
    /// Adds `value` at position `(r, c)`.
    fn add(&mut self, r: usize, c: usize, value: T);
}

impl<T: Scalar> StampTarget<T> for Matrix<T> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, value: T) {
        self.stamp(r, c, value);
    }
}

/// The shared MNA stamping primitives, generic over [`Scalar`].
///
/// Every assembly path in the crate routes through these two methods;
/// their internal stamp order is fixed (and documented per method)
/// because dense accumulation order decides the low bits of every
/// figure.
pub(crate) struct Stamper<'m, T: Scalar, M: StampTarget<T>> {
    target: &'m mut M,
    _scalar: std::marker::PhantomData<T>,
}

impl<'m, T: Scalar, M: StampTarget<T>> Stamper<'m, T, M> {
    /// Wraps an assembly target.
    pub fn new(target: &'m mut M) -> Self {
        Stamper {
            target,
            _scalar: std::marker::PhantomData,
        }
    }

    /// Stamps a two-terminal admittance `y` between unknowns `a` and
    /// `b` (`None` = ground): `+y` on both diagonals, `-y` on both
    /// off-diagonals, in the fixed order `(a,a)`, `(b,b)`, `(a,b)`,
    /// `(b,a)`.
    pub(crate) fn admittance(&mut self, a: Option<usize>, b: Option<usize>, y: T) {
        if let Some(ia) = a {
            self.target.add(ia, ia, y);
        }
        if let Some(ib) = b {
            self.target.add(ib, ib, y);
        }
        if let (Some(ia), Some(ib)) = (a, b) {
            self.target.add(ia, ib, -y);
            self.target.add(ib, ia, -y);
        }
    }

    /// Stamps one side of a branch constraint: `sign` at `(node, row)`
    /// and `(row, node)`. Used for voltage-source branch rows and the
    /// DC inductor-short rows.
    pub fn branch(&mut self, node: Option<usize>, row: usize, sign: T) {
        if let Some(i) = node {
            self.target.add(i, row, sign);
            self.target.add(row, i, sign);
        }
    }
}

/// A two-terminal element view: unknown indices plus the one value the
/// stamping functions need (conductance for resistors, farads for
/// capacitors, henries for inductors).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TwoTerminal {
    pub(crate) a: Option<usize>,
    pub(crate) b: Option<usize>,
    pub(crate) value: f64,
}

/// A voltage source with its assigned MNA branch row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchStamp {
    pub(crate) plus: Option<usize>,
    pub(crate) minus: Option<usize>,
    pub(crate) volts: f64,
    pub(crate) row: usize,
}

/// A time-varying current source and its drive-vector slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CurrentStamp {
    pub(crate) from: Option<usize>,
    pub(crate) to: Option<usize>,
    pub(crate) source: usize,
}

/// Reference into the per-kind element vectors, preserving netlist
/// element order (the AC path stamps in that order).
#[derive(Debug, Clone, Copy)]
enum OrderedElement {
    Resistor(usize),
    Capacitor(usize),
    Inductor(usize),
    VoltageSource(usize),
}

/// Parsed, analysis-ready MNA view of a [`Netlist`].
///
/// Element values and unknown indices are resolved once at
/// construction; the three stamping functions then assemble any
/// `StampTarget` — a dense matrix, a CSR matrix, or the symbolic
/// pattern builder — without touching the netlist again. The system is
/// immutable: companion-model *state* (trapezoidal history) lives in
/// the transient solver, not here.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    n: usize,
    pub(crate) resistors: Vec<TwoTerminal>,
    pub(crate) caps: Vec<TwoTerminal>,
    pub(crate) inductors: Vec<TwoTerminal>,
    pub(crate) vsources: Vec<BranchStamp>,
    pub(crate) isources: Vec<CurrentStamp>,
    order: Vec<OrderedElement>,
    n_drive: usize,
}

impl MnaSystem {
    /// Parses a netlist into its MNA element views. Voltage-source
    /// branch rows are assigned in netlist order starting at the first
    /// index past the non-ground nodes.
    pub fn new(netlist: &Netlist) -> Self {
        let n_nodes = netlist.node_count() - 1;
        let n = netlist.system_size();
        let mut sys = MnaSystem {
            n,
            resistors: Vec::new(),
            caps: Vec::new(),
            inductors: Vec::new(),
            vsources: Vec::new(),
            isources: Vec::new(),
            order: Vec::new(),
            n_drive: netlist.current_source_count(),
        };
        let mut vrow = n_nodes;
        for el in netlist.elements() {
            match *el {
                Element::Resistor { a, b, ohms } => {
                    sys.order
                        .push(OrderedElement::Resistor(sys.resistors.len()));
                    sys.resistors.push(TwoTerminal {
                        a: a.unknown_index(),
                        b: b.unknown_index(),
                        value: 1.0 / ohms,
                    });
                }
                Element::Capacitor { a, b, farads } => {
                    sys.order.push(OrderedElement::Capacitor(sys.caps.len()));
                    sys.caps.push(TwoTerminal {
                        a: a.unknown_index(),
                        b: b.unknown_index(),
                        value: farads,
                    });
                }
                Element::Inductor { a, b, henries } => {
                    sys.order
                        .push(OrderedElement::Inductor(sys.inductors.len()));
                    sys.inductors.push(TwoTerminal {
                        a: a.unknown_index(),
                        b: b.unknown_index(),
                        value: henries,
                    });
                }
                Element::VoltageSource { plus, minus, volts } => {
                    sys.order
                        .push(OrderedElement::VoltageSource(sys.vsources.len()));
                    sys.vsources.push(BranchStamp {
                        plus: plus.unknown_index(),
                        minus: minus.unknown_index(),
                        volts,
                        row: vrow,
                    });
                    vrow += 1;
                }
                Element::CurrentSource { from, to, source } => {
                    // Open circuits in every assembled matrix; they only
                    // contribute RHS drive terms.
                    sys.isources.push(CurrentStamp {
                        from: from.unknown_index(),
                        to: to.unknown_index(),
                        source: source.index(),
                    });
                }
            }
        }
        sys
    }

    /// Size of the coupled (transient step / AC) system: non-ground
    /// nodes plus voltage-source branch rows.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Size of the DC operating-point system: the coupled system plus
    /// one branch row per inductor (inductors are DC shorts).
    pub(crate) fn dc_size(&self) -> usize {
        self.n + self.inductors.len()
    }

    /// Length of the drive vector (number of current sources).
    pub(crate) fn drive_len(&self) -> usize {
        self.n_drive
    }

    /// Stamps the trapezoidal companion matrix for step size `h`:
    /// resistor conductances, capacitor companions `2C/h`, inductor
    /// companions `h/2L`, then voltage-source branch pairs — the
    /// historical transient assembly order.
    pub(crate) fn stamp_transient<M: StampTarget<f64>>(&self, target: &mut M, h: f64) {
        let mut s = Stamper::new(target);
        for r in &self.resistors {
            s.admittance(r.a, r.b, r.value);
        }
        for c in &self.caps {
            s.admittance(c.a, c.b, 2.0 * c.value / h);
        }
        for l in &self.inductors {
            s.admittance(l.a, l.b, h / (2.0 * l.value));
        }
        for v in &self.vsources {
            s.branch(v.plus, v.row, 1.0);
            s.branch(v.minus, v.row, -1.0);
        }
    }

    /// Stamps the DC operating-point matrix (size [`MnaSystem::dc_size`]):
    /// resistor conductances, voltage-source branch pairs, then one
    /// short-circuit branch row per inductor (`v(a) - v(b) = 0` with a
    /// branch-current unknown at row `size() + k`). Capacitors are DC
    /// open circuits and stamp nothing.
    pub(crate) fn stamp_dc<M: StampTarget<f64>>(&self, target: &mut M) {
        let mut s = Stamper::new(target);
        for r in &self.resistors {
            s.admittance(r.a, r.b, r.value);
        }
        for v in &self.vsources {
            s.branch(v.plus, v.row, 1.0);
            s.branch(v.minus, v.row, -1.0);
        }
        for (k, l) in self.inductors.iter().enumerate() {
            let row = self.n + k;
            s.branch(l.a, row, 1.0);
            s.branch(l.b, row, -1.0);
        }
    }

    /// Stamps the dynamic (energy-storage) part of the DC-sized
    /// descriptor system, scaled by `scale`: capacitors as admittances
    /// `scale·C`, then for each inductor `k` the entry `-scale·L` on the
    /// branch-row diagonal `(size() + k, size() + k)`.
    ///
    /// Together with [`MnaSystem::stamp_dc`] this forms the descriptor
    /// pair `(G, C)` of `C·ż + G·z = B·u` over [`MnaSystem::dc_size`]
    /// unknowns: node KCL rows gain `C·dv/dt` terms, and each inductor
    /// branch row reads `v(a) - v(b) - L·di/dt = 0`. This is the
    /// state-space form the reduced-order macromodel projects.
    pub(crate) fn stamp_capacitance<M: StampTarget<f64>>(&self, target: &mut M, scale: f64) {
        {
            let mut s = Stamper::new(target);
            for c in &self.caps {
                s.admittance(c.a, c.b, scale * c.value);
            }
        }
        for (k, l) in self.inductors.iter().enumerate() {
            let row = self.n + k;
            target.add(row, row, -scale * l.value);
        }
    }

    /// Stamps the complex admittance matrix at angular frequency
    /// `omega`, in netlist element order (the historical AC assembly
    /// order): resistors `1/R`, capacitors `jωC`, inductors `-j/(ωL)`,
    /// voltage sources as AC shorts (branch pairs), current sources as
    /// small-signal opens.
    pub(crate) fn stamp_ac<M: StampTarget<Complex>>(&self, target: &mut M, omega: f64) {
        let mut s = Stamper::new(target);
        for el in &self.order {
            match *el {
                OrderedElement::Resistor(i) => {
                    let r = &self.resistors[i];
                    s.admittance(r.a, r.b, Complex::from_real(r.value));
                }
                OrderedElement::Capacitor(i) => {
                    let c = &self.caps[i];
                    s.admittance(c.a, c.b, Complex::new(0.0, omega * c.value));
                }
                OrderedElement::Inductor(i) => {
                    let l = &self.inductors[i];
                    s.admittance(l.a, l.b, Complex::new(0.0, -1.0 / (omega * l.value)));
                }
                OrderedElement::VoltageSource(i) => {
                    let v = &self.vsources[i];
                    s.branch(v.plus, v.row, Complex::ONE);
                    s.branch(v.minus, v.row, -Complex::ONE);
                }
            }
        }
    }
}

/// Symbolic sparsity pattern of an assembled MNA system, in CSR form
/// (sorted column indices per row).
///
/// Computed once per netlist by replaying the exact stamping sequence
/// into a position recorder, then shared (behind an `Arc`) by every
/// sparse matrix assembled for that system — the transient step matrix
/// at every step size, and the AC matrix at every frequency, have the
/// same pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SystemPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

/// Records stamp positions, ignoring values.
struct PatternBuilder {
    rows: Vec<Vec<usize>>,
}

impl PatternBuilder {
    fn new(n: usize) -> Self {
        PatternBuilder {
            rows: vec![Vec::new(); n],
        }
    }

    fn finish(mut self) -> SystemPattern {
        let n = self.rows.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for row in &mut self.rows {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        SystemPattern {
            n,
            row_ptr,
            col_idx,
        }
    }
}

impl StampTarget<f64> for PatternBuilder {
    #[inline]
    fn add(&mut self, r: usize, c: usize, _value: f64) {
        self.rows[r].push(c);
    }
}

impl SystemPattern {
    /// Pattern of the coupled system (transient step matrix at any `h`;
    /// identical to the AC matrix pattern at any frequency).
    pub fn coupled(sys: &MnaSystem) -> SystemPattern {
        let mut b = PatternBuilder::new(sys.size());
        sys.stamp_transient(&mut b, 1.0);
        b.finish()
    }

    /// Pattern of the DC operating-point system (includes the inductor
    /// branch rows).
    pub(crate) fn dc(sys: &MnaSystem) -> SystemPattern {
        let mut b = PatternBuilder::new(sys.dc_size());
        sys.stamp_dc(&mut b);
        b.finish()
    }

    /// Pattern of the DC-sized descriptor pair: the union of the static
    /// part ([`MnaSystem::stamp_dc`]) and the dynamic part
    /// ([`MnaSystem::stamp_capacitance`]), so one pattern serves `G`,
    /// `C`, and any shifted combination `G + s·C` the reduced-order
    /// model factors.
    pub(crate) fn dc_dynamic(sys: &MnaSystem) -> SystemPattern {
        let mut b = PatternBuilder::new(sys.dc_size());
        sys.stamp_dc(&mut b);
        sys.stamp_capacitance(&mut b, 1.0);
        b.finish()
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of structurally nonzero positions.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Sorted column indices of row `r`.
    pub(crate) fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Value-array index of position `(r, c)`, or `None` when the
    /// position is structurally zero.
    pub fn index_of(&self, r: usize, c: usize) -> Option<usize> {
        let base = self.row_ptr[r];
        self.row_cols(r)
            .binary_search(&c)
            .ok()
            .map(|off| base + off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, NodeId};

    fn rlc_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let vdd = nl.add_node();
        nl.add_voltage_source(vdd, NodeId::GROUND, 1.0).unwrap();
        let die = nl.add_node();
        nl.add_series_rl(vdd, die, 1e-3, 1e-9).unwrap();
        nl.add_capacitor(die, NodeId::GROUND, 1e-6).unwrap();
        nl.add_current_source(die, NodeId::GROUND).unwrap();
        nl
    }

    #[test]
    fn backend_threshold_selects_sparse() {
        assert!(!SolverBackend::Auto.is_sparse(SPARSE_THRESHOLD - 1));
        assert!(SolverBackend::Auto.is_sparse(SPARSE_THRESHOLD));
        assert!(!SolverBackend::Dense.is_sparse(10_000));
        assert!(SolverBackend::Sparse.is_sparse(2));
    }

    #[test]
    fn system_sizes_match_netlist() {
        let nl = rlc_netlist();
        let sys = MnaSystem::new(&nl);
        assert_eq!(sys.size(), nl.system_size());
        assert_eq!(sys.dc_size(), sys.size() + 1); // one inductor
        assert_eq!(sys.drive_len(), 1);
    }

    #[test]
    fn pattern_is_symmetric_and_covers_diagonal_nodes() {
        let nl = rlc_netlist();
        let sys = MnaSystem::new(&nl);
        let p = SystemPattern::coupled(&sys);
        assert_eq!(p.size(), sys.size());
        for r in 0..p.size() {
            for &c in p.row_cols(r) {
                assert!(
                    p.index_of(c, r).is_some(),
                    "pattern must be structurally symmetric ({r},{c})"
                );
            }
        }
        // Every node unknown touches at least one element.
        for r in 0..nl.node_count() - 1 {
            assert!(p.index_of(r, r).is_some(), "missing diagonal at {r}");
        }
    }

    #[test]
    fn pattern_rejects_structural_zeros() {
        let nl = rlc_netlist();
        let sys = MnaSystem::new(&nl);
        let p = SystemPattern::coupled(&sys);
        // A voltage-source branch row has no diagonal entry.
        let vrow = sys.vsources[0].row;
        assert_eq!(p.index_of(vrow, vrow), None);
    }

    #[test]
    fn dc_dynamic_pattern_covers_descriptor_pair() {
        let nl = rlc_netlist();
        let sys = MnaSystem::new(&nl);
        let p = SystemPattern::dc_dynamic(&sys);
        assert_eq!(p.size(), sys.dc_size());
        // The inductor branch-row diagonal is present (it holds -L in
        // the dynamic part) even though the static DC pattern lacks it.
        let lrow = sys.size(); // one inductor -> first extra row
        assert!(p.index_of(lrow, lrow).is_some());
        assert!(SystemPattern::dc(&sys).index_of(lrow, lrow).is_none());
        // stamp_capacitance lands entirely inside the pattern and its
        // values scale linearly.
        let n = sys.dc_size();
        let mut c1 = Matrix::<f64>::zeros(n, n);
        sys.stamp_capacitance(&mut c1, 1.0);
        let mut c2 = Matrix::<f64>::zeros(n, n);
        sys.stamp_capacitance(&mut c2, 2.0);
        assert_eq!(c1[(lrow, lrow)], -1e-9);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(2.0 * c1[(r, c)], c2[(r, c)]);
            }
        }
    }

    #[test]
    fn dense_stamp_matches_legacy_shapes() {
        let nl = rlc_netlist();
        let sys = MnaSystem::new(&nl);
        let n = sys.size();
        let mut m = Matrix::<f64>::zeros(n, n);
        sys.stamp_transient(&mut m, 1e-9);
        // Symmetric structure with positive diagonals on node rows.
        for r in 0..nl.node_count() - 1 {
            assert!(m[(r, r)] > 0.0, "diagonal {r} must be positive");
        }
        let vrow = sys.vsources[0].row;
        let plus = sys.vsources[0].plus.unwrap();
        assert_eq!(m[(plus, vrow)], 1.0);
        assert_eq!(m[(vrow, plus)], 1.0);
    }
}
