//! Topology-indexed core identity: [`Site`], [`SiteSpace`] and
//! [`SiteVec`].
//!
//! Every scenario in the workspace used to address cores with a bare
//! `usize` into `[_; NUM_CORES]` arrays, hard-wiring the single-chip
//! topology into every API. This module replaces that convention with a
//! *site*: the `(drawer, chip, core)` coordinate of one core slot in a
//! rack. A [`SiteSpace`] enumerates the sites of a concrete topology and
//! provides the bijection between sites and flat ordinals (drawer-major,
//! then chip, then core — the same flat order in which
//! [`voltnoise_pdn::Pdn`] numbers its core nodes and current sources, so
//! `SiteSpace::ordinal` is also the `Pdn::core_node` index and the
//! drive-slot index). [`SiteVec`] is a site-ordinal-indexed vector
//! that replaces the fixed arrays; it dereferences to a slice, so
//! indexing, iteration and slicing at existing call sites read
//! unchanged, and it serializes exactly like the array it replaces (a
//! JSON array), keeping every golden byte-identical.
//!
//! The chip-scale paths are the 1 drawer × 1 chip × [`NUM_CORES`]
//! special case ([`SiteSpace::chip_scale`]).

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use voltnoise_pdn::topology::NUM_CORES;

/// Identity of one core slot in a rack: which drawer, which chip on
/// that drawer's spine, which core on that chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Site {
    /// Drawer index on the rack's supply spine.
    pub drawer: usize,
    /// Chip index on the drawer's board spine.
    pub chip: usize,
    /// Core index within the chip.
    pub core: usize,
}

/// The site set of a concrete topology: `drawers × chips_per_drawer ×
/// cores_per_chip` slots, with flat ordinals assigned in
/// (drawer, chip, core) lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SiteSpace {
    drawers: usize,
    chips_per_drawer: usize,
    cores_per_chip: usize,
}

impl SiteSpace {
    /// A site space with the given extents (each clamped to ≥ 1: an
    /// empty site dimension is never meaningful).
    pub fn new(drawers: usize, chips_per_drawer: usize, cores_per_chip: usize) -> SiteSpace {
        SiteSpace {
            drawers: drawers.max(1),
            chips_per_drawer: chips_per_drawer.max(1),
            cores_per_chip: cores_per_chip.max(1),
        }
    }

    /// The single-chip special case: 1 drawer × 1 chip × [`NUM_CORES`]
    /// cores. Every pre-rack experiment runs in this space.
    pub fn chip_scale() -> SiteSpace {
        SiteSpace::new(1, 1, NUM_CORES)
    }

    /// A rack of `drawers` drawers carrying `chips` [`NUM_CORES`]-core
    /// chips each.
    pub fn rack(drawers: usize, chips: usize) -> SiteSpace {
        SiteSpace::new(drawers, chips, NUM_CORES)
    }

    /// Number of drawers.
    pub fn drawers(&self) -> usize {
        self.drawers
    }

    /// Chips per drawer.
    pub fn chips_per_drawer(&self) -> usize {
        self.chips_per_drawer
    }

    /// Cores per chip.
    pub fn cores_per_chip(&self) -> usize {
        self.cores_per_chip
    }

    /// Total number of sites.
    pub fn num_sites(&self) -> usize {
        self.drawers * self.chips_per_drawer * self.cores_per_chip
    }

    /// Total number of chips.
    pub fn num_chips(&self) -> usize {
        self.drawers * self.chips_per_drawer
    }

    /// Whether `site` lies within this space.
    pub fn contains(&self, site: Site) -> bool {
        site.drawer < self.drawers
            && site.chip < self.chips_per_drawer
            && site.core < self.cores_per_chip
    }

    /// Flat ordinal of a site (drawer-major). This is also the drive
    /// slot of the site's current source in the rack netlist.
    ///
    /// # Panics
    ///
    /// Panics when `site` lies outside the space.
    pub fn ordinal(&self, site: Site) -> usize {
        assert!(self.contains(site), "site {site:?} outside space {self:?}");
        (site.drawer * self.chips_per_drawer + site.chip) * self.cores_per_chip + site.core
    }

    /// The site of a flat ordinal (inverse of [`SiteSpace::ordinal`]).
    ///
    /// # Panics
    ///
    /// Panics when `ordinal ≥ num_sites()`.
    pub fn site(&self, ordinal: usize) -> Site {
        assert!(
            ordinal < self.num_sites(),
            "ordinal {ordinal} outside space {self:?}"
        );
        let core = ordinal % self.cores_per_chip;
        let chip_flat = ordinal / self.cores_per_chip;
        Site {
            drawer: chip_flat / self.chips_per_drawer,
            chip: chip_flat % self.chips_per_drawer,
            core,
        }
    }

    /// Iterates every site in ordinal order.
    pub fn sites(&self) -> impl Iterator<Item = Site> + '_ {
        (0..self.num_sites()).map(move |o| self.site(o))
    }
}

/// A site-ordinal-indexed vector: the growable replacement for the
/// `[_; NUM_CORES]` arrays that hard-wired chip scale into the scenario
/// APIs.
///
/// `SiteVec` dereferences to a slice, so `v[i]`, `v.iter()`, `v.len()`
/// and `&v[..]` all work as they did on the arrays. It serializes as a
/// plain JSON array — exactly the bytes the fixed arrays produced — so
/// goldens, the persistent store and the server wire format are
/// unchanged by the migration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SiteVec<T>(Vec<T>);

impl<T> SiteVec<T> {
    /// An empty site vector.
    pub fn new() -> SiteVec<T> {
        SiteVec(Vec::new())
    }

    /// A site vector produced by calling `f` on each ordinal `0..n`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> SiteVec<T> {
        SiteVec((0..n).map(f).collect())
    }

    /// A site vector of `n` copies of `value`.
    pub fn from_elem(value: T, n: usize) -> SiteVec<T>
    where
        T: Clone,
    {
        SiteVec(vec![value; n])
    }

    /// Appends a value (next ordinal).
    pub fn push(&mut self, value: T) {
        self.0.push(value);
    }

    /// The underlying vector.
    pub fn into_inner(self) -> Vec<T> {
        self.0
    }

    /// Copies the elements into a fixed-size array — the bridge back to
    /// the analysis-layer code that still reasons in chip-scale arrays.
    ///
    /// # Panics
    ///
    /// Panics when the vector holds fewer than `N` elements.
    pub fn to_array<const N: usize>(&self) -> [T; N]
    where
        T: Copy,
    {
        assert!(self.0.len() >= N, "SiteVec of {} < {N}", self.0.len());
        std::array::from_fn(|i| self.0[i])
    }
}

impl<T> Default for SiteVec<T> {
    fn default() -> SiteVec<T> {
        SiteVec::new()
    }
}

impl<T> std::ops::Deref for SiteVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> std::ops::DerefMut for SiteVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> From<Vec<T>> for SiteVec<T> {
    fn from(v: Vec<T>) -> SiteVec<T> {
        SiteVec(v)
    }
}

impl<T, const N: usize> From<[T; N]> for SiteVec<T> {
    fn from(a: [T; N]) -> SiteVec<T> {
        SiteVec(a.into_iter().collect())
    }
}

impl<T> FromIterator<T> for SiteVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SiteVec<T> {
        SiteVec(iter.into_iter().collect())
    }
}

impl<T> IntoIterator for SiteVec<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a SiteVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<T: Serialize> Serialize for SiteVec<T> {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl<T: Deserialize> Deserialize for SiteVec<T> {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Vec::<T>::from_value(v).map(SiteVec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_scale_is_the_degenerate_space() {
        let s = SiteSpace::chip_scale();
        assert_eq!(s.num_sites(), NUM_CORES);
        assert_eq!(s.num_chips(), 1);
        for i in 0..NUM_CORES {
            let site = s.site(i);
            assert_eq!((site.drawer, site.chip, site.core), (0, 0, i));
            assert_eq!(s.ordinal(site), i);
        }
    }

    #[test]
    fn rack_ordinals_round_trip_in_drawer_major_order() {
        let s = SiteSpace::rack(2, 3);
        assert_eq!(s.num_sites(), 2 * 3 * NUM_CORES);
        assert_eq!(s.num_chips(), 6);
        let mut seen = 0usize;
        for (o, site) in s.sites().enumerate() {
            assert_eq!(s.ordinal(site), o);
            assert_eq!(s.site(o), site);
            seen += 1;
        }
        assert_eq!(seen, s.num_sites());
        // Drawer-major: the first chip's cores come first.
        assert_eq!(
            s.site(NUM_CORES),
            Site {
                drawer: 0,
                chip: 1,
                core: 0
            }
        );
        assert_eq!(
            s.site(3 * NUM_CORES),
            Site {
                drawer: 1,
                chip: 0,
                core: 0
            }
        );
    }

    #[test]
    fn site_vec_serializes_exactly_like_the_array_it_replaces() {
        let arr = [1.5f64, 2.5, 3.5];
        let sv = SiteVec::from(arr);
        assert_eq!(
            serde_json::to_string(&arr).unwrap(),
            serde_json::to_string(&sv).unwrap()
        );
        let back: SiteVec<f64> =
            serde_json::from_str(&serde_json::to_string(&sv).unwrap()).unwrap();
        assert_eq!(back, sv);
    }

    #[test]
    fn site_vec_derefs_to_slice_semantics() {
        let mut v = SiteVec::from_fn(4, |i| i * 10);
        assert_eq!(v[2], 20);
        v[2] = 7;
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 10, 7, 30]);
        let arr: [usize; 3] = v.to_array();
        assert_eq!(arr, [0, 10, 7]);
    }
}
