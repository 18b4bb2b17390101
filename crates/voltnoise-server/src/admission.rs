//! Admission control: a step-budget ceiling on the estimated in-flight
//! solver load.
//!
//! Every batch request carries a deterministic step estimate (see
//! `crate::wire::JobSpec::estimated_steps`). Admission adds the
//! estimate to a running in-flight total under a lock; if the total
//! would exceed the configured ceiling the batch is refused — the
//! caller answers `429` with a `Retry-After` hint — and the total is
//! untouched. Admitted batches hold a `Permit` whose `Drop` returns
//! the estimate, so the accounting can never leak on an early return,
//! a panic in the handler, or a reaped deadline.

use std::sync::{Arc, Mutex, PoisonError};

/// The admission gate. Cheap to clone handles via [`Arc`].
#[derive(Debug)]
pub(crate) struct AdmissionControl {
    /// Maximum estimated steps allowed in flight at once.
    ceiling: u64,
    /// Estimated steps currently admitted.
    in_flight: Mutex<u64>,
}

/// Why a batch was refused, with the data the `429` response needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rejection {
    /// The batch's own estimate.
    pub estimated: u64,
    /// Estimated steps already in flight at refusal time.
    pub in_flight: u64,
    /// The configured ceiling.
    pub ceiling: u64,
}

impl Rejection {
    /// Deterministic `Retry-After` hint, seconds: proportional to how
    /// overcommitted the gate is, clamped to `[1, 30]`.
    pub(crate) fn retry_after_secs(&self) -> u64 {
        let over = self.in_flight.saturating_add(self.estimated);
        let ratio = over / self.ceiling.max(1);
        ratio.clamp(1, 30)
    }
}

impl AdmissionControl {
    /// A gate admitting up to `ceiling` estimated steps in flight
    /// (a ceiling of 0 refuses every batch — useful for tests and for
    /// administratively draining a server).
    pub fn new(ceiling: u64) -> Arc<AdmissionControl> {
        Arc::new(AdmissionControl {
            ceiling,
            in_flight: Mutex::new(0),
        })
    }

    /// Estimated steps currently admitted.
    pub fn in_flight(&self) -> u64 {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Tries to admit a batch of `estimated` steps.
    ///
    /// A batch whose own estimate exceeds the ceiling is still admitted
    /// when the gate is *idle* (`in_flight == 0`): refusing it would
    /// starve it forever, and one oversized batch alone is exactly the
    /// load the operator sized the server for.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejection`] carrying the numbers behind the `429`.
    pub(crate) fn try_admit(self: &Arc<Self>, estimated: u64) -> Result<Permit, Rejection> {
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let admitted_when_idle = *in_flight == 0 && self.ceiling > 0;
        let over = self.ceiling == 0 || in_flight.saturating_add(estimated) > self.ceiling;
        if over && !admitted_when_idle {
            let rejection = Rejection {
                estimated,
                in_flight: *in_flight,
                ceiling: self.ceiling,
            };
            return Err(rejection);
        }
        *in_flight += estimated;
        Ok(Permit {
            gate: self.clone(),
            estimated,
        })
    }

    fn release(&self, estimated: u64) {
        let mut in_flight = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *in_flight = in_flight.saturating_sub(estimated);
    }
}

/// An admitted batch's hold on the gate; dropping it returns the
/// estimate.
#[derive(Debug)]
pub(crate) struct Permit {
    gate: Arc<AdmissionControl>,
    estimated: u64,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.release(self.estimated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_the_ceiling_then_rejects() {
        let gate = AdmissionControl::new(100);
        let a = gate.try_admit(60).unwrap();
        assert_eq!(gate.in_flight(), 60);
        let rejection = gate.try_admit(50).unwrap_err();
        assert_eq!(
            rejection,
            Rejection {
                estimated: 50,
                in_flight: 60,
                ceiling: 100
            }
        );
        // Within the remaining headroom: admitted.
        let b = gate.try_admit(40).unwrap();
        assert_eq!(gate.in_flight(), 100);
        drop(a);
        drop(b);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn permit_drop_releases_even_out_of_order() {
        let gate = AdmissionControl::new(10);
        let a = gate.try_admit(4).unwrap();
        let b = gate.try_admit(6).unwrap();
        drop(b);
        assert_eq!(gate.in_flight(), 4);
        drop(a);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn oversized_batch_admitted_only_when_idle() {
        let gate = AdmissionControl::new(10);
        // Idle gate: a 50-step batch passes (anti-starvation).
        let big = gate.try_admit(50).unwrap();
        assert_eq!(big.estimated, 50);
        // Busy gate: everything else bounces.
        assert!(gate.try_admit(1).is_err());
        drop(big);
        assert!(gate.try_admit(1).is_ok());
    }

    #[test]
    fn zero_ceiling_refuses_everything() {
        let gate = AdmissionControl::new(0);
        assert!(gate.try_admit(1).is_err());
        assert!(gate.try_admit(0).is_err());
    }

    #[test]
    fn retry_after_is_deterministic_and_clamped() {
        let low = Rejection {
            estimated: 5,
            in_flight: 6,
            ceiling: 10,
        };
        assert_eq!(low.retry_after_secs(), 1);
        let heavy = Rejection {
            estimated: 50,
            in_flight: 60,
            ceiling: 10,
        };
        assert_eq!(heavy.retry_after_secs(), 11);
        let absurd = Rejection {
            estimated: u64::MAX,
            in_flight: 1,
            ceiling: 1,
        };
        assert_eq!(absurd.retry_after_secs(), 30);
    }
}
