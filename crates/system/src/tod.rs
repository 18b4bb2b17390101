//! Time-of-day (TOD) clock facilities.
//!
//! The modeled machine exposes a global 64-bit TOD register whose
//! low-order stepping gives 62.5 ns alignment granularity; stressmarks
//! spin on mask conditions over it to exit their synchronization loops in
//! lockstep, or deliberately misaligned by a controlled number of ticks
//! (paper §IV-C, §V-C).

use serde::{Deserialize, Serialize};
use voltnoise_stressmark::TOD_TICK_SECONDS;

/// Converts TOD ticks to seconds.
pub(crate) fn seconds_of(ticks: u64) -> f64 {
    ticks as f64 * TOD_TICK_SECONDS
}

/// A synchronization condition over the TOD register: the spin loop exits
/// when `ticks % interval_ticks == offset_ticks`.
///
/// The paper's canonical setting checks "the low-order bits of the clock
/// value are zero; this happens every 4 ms" — i.e. an interval of 64 000
/// ticks with offset 0. Offsetting by one tick reproduces the 62.5 ns
/// deliberate-misalignment experiment.
///
/// # Examples
///
/// ```
/// use voltnoise_system::tod::TodSync;
///
/// let sync = TodSync::every_4ms(0);
/// assert_eq!(sync.interval_ticks, 64_000);
/// let exit = sync.next_exit_after(0.0);
/// assert!(exit >= 0.0 && exit < 4.1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TodSync {
    /// Sync period in ticks.
    pub interval_ticks: u64,
    /// Exit offset within the period, in ticks.
    pub offset_ticks: u64,
}

impl TodSync {
    /// The paper's 4 ms interval with a configurable misalignment offset.
    pub fn every_4ms(offset_ticks: u64) -> Self {
        TodSync {
            interval_ticks: 64_000,
            offset_ticks,
        }
    }

    /// Interval in seconds.
    pub(crate) fn interval_seconds(&self) -> f64 {
        seconds_of(self.interval_ticks)
    }

    /// Offset in seconds.
    pub fn offset_seconds(&self) -> f64 {
        seconds_of(self.offset_ticks % self.interval_ticks.max(1))
    }

    /// First spin-loop exit time strictly after `t` seconds.
    pub fn next_exit_after(&self, t: f64) -> f64 {
        let interval = self.interval_seconds();
        let offset = self.offset_seconds();
        let k = ((t - offset) / interval).floor() + 1.0;
        let exit = k.max(0.0) * interval + offset;
        if exit <= t {
            exit + interval
        } else {
            exit
        }
    }
}

/// Distributes `n` stressmark offsets evenly within a maximum
/// misalignment window, in ticks — the paper's Fig. 10 methodology: "for
/// a maximum allowed misalignment of 125 ns, 2 stressmarks are
/// synchronized at t = 0 ns, 2 at t = 62.5 ns and 2 at t = 125 ns".
pub fn spread_offsets(n: usize, max_misalignment_ticks: u64) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let slots = max_misalignment_ticks + 1;
    (0..n)
        .map(|i| {
            // Round-robin over the available tick slots, filling evenly.
            (i as u64 * slots) / n as u64
        })
        .map(|t| t.min(max_misalignment_ticks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_conversions_round_trip() {
        assert_eq!(seconds_of(1), TOD_TICK_SECONDS);
        assert!((seconds_of(64_000) - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn next_exit_lands_on_offset_grid() {
        let sync = TodSync::every_4ms(2);
        let exit = sync.next_exit_after(0.0);
        let expected = 2.0 * 62.5e-9;
        assert!((exit - expected).abs() < 1e-12, "exit = {exit}");
        let exit2 = sync.next_exit_after(exit);
        assert!((exit2 - (4e-3 + expected)).abs() < 1e-12);
    }

    #[test]
    fn zero_offset_exits_at_boundaries() {
        let sync = TodSync::every_4ms(0);
        let exit = sync.next_exit_after(1e-3);
        assert!((exit - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn spread_offsets_match_paper_example() {
        // 6 stressmarks over 125 ns (2 ticks): 2 at 0, 2 at 1, 2 at 2.
        let offs = spread_offsets(6, 2);
        assert_eq!(offs, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn spread_offsets_zero_window_aligns_all() {
        assert_eq!(spread_offsets(4, 0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn spread_offsets_within_bounds() {
        for n in 1..=6 {
            for w in 0..12 {
                let offs = spread_offsets(n, w);
                assert_eq!(offs.len(), n);
                assert!(offs.iter().all(|&o| o <= w));
            }
        }
    }
}
