//! Skitter bit strings: the raw 129-latch edge-capture view.
//!
//! The hardware skitter "sampling latches take a snapshot of the state of
//! the inverter chain every cycle, forming a 129 bit string of 0's with
//! 1's where the edges are detected" (paper §III, refs \[13\]\[42\]). This
//! module models that raw view: given the instantaneous supply voltage,
//! successive clock edges sit at depths proportional to the inverter
//! speed, and sticky accumulation ORs the captured strings so the worst
//! case timing uncertainty is visible as a widened band of 1's.

use crate::skitter::Skitter;
use serde::{Deserialize, Serialize};

/// Number of latches in the modeled delay line.
pub const TAPS: usize = 129;

/// One captured (or sticky-accumulated) 129-bit latch snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BitString {
    words: [u64; 3],
}

impl BitString {
    /// The empty string (no edges captured).
    pub fn new() -> Self {
        BitString::default()
    }

    /// Sets latch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= TAPS`.
    pub fn set(&mut self, i: usize) {
        assert!(i < TAPS, "latch {i} out of range");
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// True when latch `i` captured an edge.
    ///
    /// # Panics
    ///
    /// Panics if `i >= TAPS`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < TAPS, "latch {i} out of range");
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// ORs another snapshot into this one (sticky mode).
    pub fn merge(&mut self, other: &BitString) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of latches that captured edges.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Lowest and highest set latch, or `None` when empty.
    pub fn span(&self) -> Option<(usize, usize)> {
        let mut lo = None;
        let mut hi = None;
        for i in 0..TAPS {
            if self.get(i) {
                if lo.is_none() {
                    lo = Some(i);
                }
                hi = Some(i);
            }
        }
        lo.zip(hi)
    }

    /// Renders the string as `0`s and `1`s, latch 0 first.
    pub fn render(&self) -> String {
        (0..TAPS)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect()
    }
}

impl std::fmt::Display for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Captures the latch snapshot at supply voltage `v`: successive clock
/// edges (alternating rising/falling every half clock period) sit at
/// multiples of the first-edge depth along the line.
pub fn capture(skitter: &Skitter, v: f64) -> BitString {
    let mut bits = BitString::new();
    // Depth of the most recent half-period edge; older edges sit deeper
    // at integer multiples until they fall off the line.
    let first = skitter.edge_position(v) / 2.0;
    if first < 0.5 {
        return bits; // line starved: supply below threshold
    }
    let mut depth = first;
    while depth < TAPS as f64 {
        let idx = depth.round() as usize;
        if idx < TAPS {
            bits.set(idx);
        }
        depth += first;
    }
    bits
}

/// Sticky-mode accumulation of snapshots over a voltage sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StickyBitmap {
    acc: BitString,
    samples: usize,
}

impl StickyBitmap {
    /// Creates an empty sticky accumulator.
    pub fn new() -> Self {
        StickyBitmap::default()
    }

    /// Accumulates one voltage sample.
    pub fn observe(&mut self, skitter: &Skitter, v: f64) {
        self.acc.merge(&capture(skitter, v));
        self.samples += 1;
    }

    /// The accumulated string.
    pub fn bits(&self) -> &BitString {
        &self.acc
    }

    /// Samples observed.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skitter::SkitterConfig;

    fn skitter() -> Skitter {
        Skitter::new(SkitterConfig::default())
    }

    #[test]
    fn bitstring_set_get_and_span() {
        let mut b = BitString::new();
        b.set(0);
        b.set(128);
        assert!(b.get(0) && b.get(128) && !b.get(64));
        assert_eq!(b.span(), Some((0, 128)));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn capture_places_periodic_edges() {
        let s = skitter();
        let bits = capture(&s, 1.05);
        // First edge at ~45 taps (half the nominal 90), then ~90, ~135>129.
        assert!(bits.get(45), "{}", bits.render());
        assert!(bits.get(90));
        assert_eq!(bits.count(), 2);
    }

    #[test]
    fn lower_voltage_pulls_edges_shallower() {
        let s = skitter();
        let nominal = capture(&s, 1.05).span().unwrap().0;
        let droopy = capture(&s, 0.98).span().unwrap().0;
        assert!(droopy < nominal, "droop {droopy} vs nominal {nominal}");
    }

    #[test]
    fn starved_line_captures_nothing() {
        let s = skitter();
        assert_eq!(capture(&s, 0.3).count(), 0);
    }

    #[test]
    fn render_is_129_chars() {
        let s = skitter();
        let bits = capture(&s, 1.05);
        assert_eq!(bits.render().len(), TAPS);
        assert_eq!(bits.to_string(), bits.render());
    }

    #[test]
    fn merge_is_union() {
        let mut a = BitString::new();
        a.set(3);
        let mut b = BitString::new();
        b.set(7);
        a.merge(&b);
        assert!(a.get(3) && a.get(7));
        assert_eq!(a.count(), 2);
    }
}
