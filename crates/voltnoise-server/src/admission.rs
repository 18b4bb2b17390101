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
//!
//! The hint is the time the gate needs to drain the steps admitted
//! ahead of the refused batch, at the rate it has measured: the steps
//! its permits have released over the time it has been busy (holding
//! at least one permit) up to the last release.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Time since the gate was made; tests substitute a fake.
type Clock = Box<dyn Fn() -> Duration + Send + Sync>;

/// The admission gate. Cheap to clone handles via [`Arc`].
pub(crate) struct AdmissionControl {
    /// Maximum estimated steps allowed in flight at once.
    ceiling: u64,
    state: Mutex<GateState>,
    clock: Clock,
}

impl std::fmt::Debug for AdmissionControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionControl")
            .field("ceiling", &self.ceiling)
            .field("state", &*self.state())
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct GateState {
    /// Estimated steps currently admitted.
    in_flight: u64,
    /// Estimated steps the released permits held.
    released: u64,
    /// Busy time up to the last release.
    busy: Duration,
    /// Clock reading at the start of the busy time not yet in `busy`;
    /// `None` while the gate holds no permit.
    busy_since: Option<Duration>,
}

impl GateState {
    /// Seconds to drain the steps in flight at the measured rate,
    /// rounded up and clamped to `[1, 30]`; 1 until a release has been
    /// timed.
    fn retry_after_secs(&self) -> u64 {
        let secs = self.busy.as_secs_f64();
        if self.released == 0 || secs <= 0.0 {
            return 1;
        }
        let drain = self.in_flight as f64 * secs / self.released as f64;
        drain.ceil().clamp(1.0, 30.0) as u64
    }
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
    /// The `Retry-After` hint, seconds.
    pub retry_after_s: u64,
}

impl AdmissionControl {
    /// A gate admitting up to `ceiling` estimated steps in flight
    /// (a ceiling of 0 refuses every batch — useful for tests and for
    /// administratively draining a server).
    pub fn new(ceiling: u64) -> Arc<AdmissionControl> {
        let start = Instant::now();
        AdmissionControl::with_clock(ceiling, Box::new(move || start.elapsed()))
    }

    fn with_clock(ceiling: u64, clock: Clock) -> Arc<AdmissionControl> {
        Arc::new(AdmissionControl {
            ceiling,
            state: Mutex::new(GateState::default()),
            clock,
        })
    }

    /// Every update leaves the state whole, so a poisoned lock's state
    /// is still valid.
    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Estimated steps currently admitted.
    pub fn in_flight(&self) -> u64 {
        self.state().in_flight
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
        let mut state = self.state();
        let admitted_when_idle = state.in_flight == 0 && self.ceiling > 0;
        let over = self.ceiling == 0 || state.in_flight.saturating_add(estimated) > self.ceiling;
        if over && !admitted_when_idle {
            return Err(Rejection {
                estimated,
                in_flight: state.in_flight,
                ceiling: self.ceiling,
                retry_after_s: state.retry_after_secs(),
            });
        }
        state.in_flight += estimated;
        if state.busy_since.is_none() {
            state.busy_since = Some((self.clock)());
        }
        Ok(Permit {
            gate: self.clone(),
            estimated,
        })
    }

    fn release(&self, estimated: u64) {
        let now = (self.clock)();
        let mut state = self.state();
        state.in_flight = state.in_flight.saturating_sub(estimated);
        state.released = state.released.saturating_add(estimated);
        if let Some(since) = state.busy_since {
            state.busy += now.saturating_sub(since);
        }
        state.busy_since = (state.in_flight > 0).then_some(now);
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
                ceiling: 100,
                retry_after_s: 1,
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

    /// A gate on a clock the test advances by hand.
    fn gate_on_fake_clock(ceiling: u64) -> (Arc<AdmissionControl>, Arc<AtomicU64>) {
        let millis = Arc::new(AtomicU64::new(0));
        let read = millis.clone();
        let clock = Box::new(move || Duration::from_millis(read.load(Ordering::SeqCst)));
        (AdmissionControl::with_clock(ceiling, clock), millis)
    }

    #[test]
    fn retry_after_drains_the_steps_ahead_at_the_measured_rate() {
        let (gate, millis) = gate_on_fake_clock(1_000);
        let advance = |ms: u64| millis.fetch_add(ms, Ordering::SeqCst);
        // Nothing released yet: the 1 s floor, however much is ahead.
        let big = gate.try_admit(900).unwrap();
        assert_eq!(gate.try_admit(200).unwrap_err().retry_after_s, 1);
        // 900 steps drained in 3 s: 300 steps/s.
        advance(3_000);
        drop(big);
        // 2,400 steps ahead take 8 s at that rate.
        let ahead = gate.try_admit(2_400).unwrap();
        let rejection = gate.try_admit(1).unwrap_err();
        assert_eq!((rejection.in_flight, rejection.retry_after_s), (2_400, 8));
        // 2,400 more steps in 2 s, then 10 idle seconds, which do not
        // count: 3,300 steps over 5 busy seconds, 660 steps/s, so 990
        // steps ahead take 1.5 s, rounded up.
        advance(2_000);
        drop(ahead);
        advance(10_000);
        let _held = gate.try_admit(990).unwrap();
        assert_eq!(gate.try_admit(11).unwrap_err().retry_after_s, 2);
    }

    #[test]
    fn retry_after_is_deterministic_and_clamped() {
        let (gate, millis) = gate_on_fake_clock(10);
        // A 10-step permit held for 100 s: 0.1 steps/s.
        let slow = gate.try_admit(10).unwrap();
        millis.fetch_add(100_000, Ordering::SeqCst);
        drop(slow);
        let _held = gate.try_admit(10).unwrap();
        assert_eq!(gate.try_admit(1).unwrap_err().retry_after_s, 30);
        // A drain faster than a second still asks for one.
        let (gate, millis) = gate_on_fake_clock(10);
        let fast = gate.try_admit(10).unwrap();
        millis.fetch_add(1, Ordering::SeqCst);
        drop(fast);
        let _held = gate.try_admit(10).unwrap();
        assert_eq!(gate.try_admit(1).unwrap_err().retry_after_s, 1);
    }
}
