//! Utilization-based dynamic voltage guard-banding (paper §VII-B).
//!
//! Worst-case noise is bounded by the number of cores that can execute a
//! workload (Fig. 11a's regions). A controller that tracks how many
//! cores are active can therefore shrink the supply margin when the chip
//! is partially utilized, raising it again before new cores start.

use serde::{Deserialize, Serialize};
use voltnoise_pdn::topology::NUM_CORES;

/// Guard-band margin table: worst-case noise margin (volts) required for
/// each possible number of active cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardbandTable {
    margin_v: [f64; NUM_CORES + 1],
}

impl GuardbandTable {
    /// Builds the table from per-active-count worst-case noise voltages,
    /// inflated by a multiplicative safety factor.
    ///
    /// # Panics
    ///
    /// Panics if the noise values are not non-decreasing in the active
    /// count (more active cores can never need less margin) after a small
    /// tolerance, or if the safety factor is below 1.
    pub fn from_worst_case_noise(noise_v: [f64; NUM_CORES + 1], safety_factor: f64) -> Self {
        assert!(safety_factor >= 1.0, "safety factor must be >= 1");
        let mut margin_v = [0.0; NUM_CORES + 1];
        let mut running_max = 0.0f64;
        for (m, n) in margin_v.iter_mut().zip(noise_v.iter()) {
            // Enforce monotonicity: a count's margin covers all smaller counts.
            running_max = running_max.max(*n);
            *m = running_max * safety_factor;
        }
        GuardbandTable { margin_v }
    }

    /// Margin for a given number of active cores.
    ///
    /// # Panics
    ///
    /// Panics if `active > NUM_CORES`.
    pub fn margin_v(&self, active: usize) -> f64 {
        self.margin_v[active]
    }

    /// Supply voltage to program for `active` cores, given the failure
    /// voltage of the critical path.
    pub(crate) fn voltage_for(&self, active: usize, v_fail: f64) -> f64 {
        v_fail + self.margin_v(active)
    }

    /// The static (worst-case, all cores) setting a conventional design
    /// ships with.
    pub(crate) fn static_voltage(&self, v_fail: f64) -> f64 {
        self.voltage_for(NUM_CORES, v_fail)
    }
}

/// The dynamic guard-band controller: raises voltage *before* admitting a
/// new core and lowers it after releasing one, so the margin always
/// covers the worst case of the current utilization.
#[derive(Debug, Clone)]
pub struct GuardbandController {
    table: GuardbandTable,
    v_fail: f64,
    active: usize,
    voltage: f64,
    transitions: u64,
}

impl GuardbandController {
    /// Creates a controller starting with all cores assumed active
    /// (safe default).
    pub fn new(table: GuardbandTable, v_fail: f64) -> Self {
        let voltage = table.static_voltage(v_fail);
        GuardbandController {
            table,
            v_fail,
            active: NUM_CORES,
            voltage,
            transitions: 0,
        }
    }

    /// Currently programmed supply voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Number of voltage transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Updates the active-core count and returns the (possibly changed)
    /// supply voltage. Raising utilization raises voltage first; the
    /// caller must only start the new work after this returns.
    ///
    /// # Panics
    ///
    /// Panics if `active > NUM_CORES`.
    pub fn step(&mut self, active: usize) -> f64 {
        assert!(active <= NUM_CORES, "at most {NUM_CORES} cores");
        let target = self.table.voltage_for(active, self.v_fail);
        if (target - self.voltage).abs() > 1e-12 {
            self.voltage = target;
            self.transitions += 1;
        }
        self.active = active;
        self.voltage
    }
}

/// Energy saving of dynamic guard-banding over the static worst-case
/// setting, for a utilization trace of active-core counts. Dynamic power
/// scales as V², and only active cores burn dynamic power; static
/// (leakage) power scales as V for all cores.
///
/// Returns the fractional saving in `[0, 1)`.
pub fn energy_saving(
    table: &GuardbandTable,
    v_fail: f64,
    utilization_trace: &[usize],
    dynamic_fraction: f64,
) -> f64 {
    if utilization_trace.is_empty() {
        return 0.0;
    }
    let v_static = table.static_voltage(v_fail);
    let mut e_static = 0.0;
    let mut e_dynamic = 0.0;
    for &active in utilization_trace {
        let v = table.voltage_for(active, v_fail);
        let util = active as f64 / NUM_CORES as f64;
        let energy_at = |volts: f64| {
            dynamic_fraction * util * (volts / v_static).powi(2)
                + (1.0 - dynamic_fraction) * (volts / v_static)
        };
        e_static += energy_at(v_static);
        e_dynamic += energy_at(v);
    }
    1.0 - e_dynamic / e_static
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> GuardbandTable {
        GuardbandTable::from_worst_case_noise([0.01, 0.03, 0.05, 0.06, 0.07, 0.08, 0.09], 1.1)
    }

    #[test]
    fn margins_grow_with_active_cores() {
        let t = table();
        for k in 1..=NUM_CORES {
            assert!(t.margin_v(k) >= t.margin_v(k - 1));
        }
        assert!((t.margin_v(6) - 0.09 * 1.1).abs() < 1e-12);
    }

    #[test]
    fn monotonicity_is_enforced_on_noisy_input() {
        let t =
            GuardbandTable::from_worst_case_noise([0.02, 0.05, 0.04, 0.06, 0.06, 0.07, 0.08], 1.0);
        assert!(
            (t.margin_v(2) - 0.05).abs() < 1e-12,
            "dip must be flattened"
        );
    }

    #[test]
    fn controller_raises_before_admitting() {
        let mut c = GuardbandController::new(table(), 0.93);
        let v_all = c.voltage();
        let v_two = c.step(2);
        assert!(v_two < v_all);
        let v_five = c.step(5);
        assert!(v_five > v_two);
        assert_eq!(c.transitions(), 2);
        // Re-stepping the same count changes nothing.
        assert_eq!(c.step(5), v_five);
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn saving_is_zero_at_full_utilization() {
        let t = table();
        let s = energy_saving(&t, 0.93, &[6; 100], 0.6);
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn saving_grows_with_idleness() {
        let t = table();
        let busy = energy_saving(&t, 0.93, &[5, 6, 5, 6], 0.6);
        let idle = energy_saving(&t, 0.93, &[1, 2, 1, 2], 0.6);
        assert!(idle > busy);
        assert!(idle > 0.01 && idle < 0.5, "saving = {idle}");
    }

    #[test]
    fn empty_trace_saves_nothing() {
        assert_eq!(energy_saving(&table(), 0.93, &[], 0.6), 0.0);
    }
}
