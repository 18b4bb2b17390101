//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheaply clonable flag shared between a
//! controller (an engine draining a campaign, a signal handler, a test)
//! and the transient solver, which polls it between accepted integration
//! steps. Cancellation is *cooperative*: nothing is interrupted
//! mid-step, so a cancelled solve leaves no torn state behind — it
//! simply returns [`crate::PdnError::Cancelled`] at the next step
//! boundary.
//!
//! Unlike wall-clock timeouts, a token is deterministic from the
//! caller's perspective: a run either completes or reports the exact
//! simulation time at which it stopped, and an un-cancelled token never
//! perturbs results.
//!
//! A cancellation carries a [`CancelReason`]: a plain [`CancelToken::cancel`]
//! (a controller draining a campaign) surfaces as
//! [`crate::PdnError::Cancelled`], while [`CancelToken::cancel_deadline`]
//! (a serving layer reaping a request past its wall-clock deadline)
//! surfaces as [`crate::PdnError::DeadlineExceeded`] so callers can tell
//! "the operator stopped this" from "this job blew its latency budget".

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Why a token was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// A controller requested a cooperative drain ([`CancelToken::cancel`]).
    Cancelled,
    /// A wall-clock deadline expired ([`CancelToken::cancel_deadline`]).
    Deadline,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// A shared, thread-safe cancellation flag.
///
/// Clones observe the same flag; once [`CancelToken::cancel`] (or
/// [`CancelToken::cancel_deadline`]) is called the token stays cancelled
/// forever (there is no reset — build a new token for a new campaign).
/// The first cancellation wins: a later call with a different reason
/// does not overwrite the recorded one.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::cancel::{CancelReason, CancelToken};
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// assert_eq!(observer.reason(), Some(CancelReason::Cancelled));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    fn cancel_as(&self, state: u8) {
        // First reason wins; later cancellations are no-ops.
        let _ = self
            .flag
            .compare_exchange(LIVE, state, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Identity of the token's shared flag: equal for a token and all
    /// of its clones, distinct between live independent tokens.
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.flag) as usize
    }

    /// Requests cancellation. Idempotent and irreversible.
    pub fn cancel(&self) {
        self.cancel_as(CANCELLED);
    }

    /// Requests cancellation because a wall-clock deadline expired.
    /// Idempotent and irreversible; solvers observing this reason abort
    /// with [`crate::PdnError::DeadlineExceeded`] instead of
    /// [`crate::PdnError::Cancelled`].
    pub fn cancel_deadline(&self) {
        self.cancel_as(DEADLINE);
    }

    /// Whether cancellation has been requested (on this token or any of
    /// its clones), for any reason.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) != LIVE
    }

    /// The recorded cancellation reason, `None` while the token is live.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.flag.load(Ordering::Acquire) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::Deadline),
            _ => None,
        }
    }

    /// Maps the token's state to the error a solver should abort with at
    /// simulation time `t`: `None` while live, otherwise the
    /// reason-matched [`crate::PdnError`].
    pub fn abort_error(&self, t: f64) -> Option<crate::PdnError> {
        match self.reason()? {
            CancelReason::Cancelled => Some(crate::PdnError::Cancelled { t }),
            CancelReason::Deadline => Some(crate::PdnError::DeadlineExceeded { t }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_cancellation_records_its_reason() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        assert!(t.abort_error(1.0).is_none());
        t.cancel_deadline();
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        assert!(matches!(
            t.abort_error(2e-6),
            Some(crate::PdnError::DeadlineExceeded { t }) if t == 2e-6
        ));
    }

    #[test]
    fn first_cancellation_reason_wins() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel_deadline();
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
        let u = CancelToken::new();
        u.cancel_deadline();
        u.cancel();
        assert_eq!(u.reason(), Some(CancelReason::Deadline));
        assert!(matches!(
            u.abort_error(0.0),
            Some(crate::PdnError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let token = CancelToken::new();
        let observer = token.clone();
        let handle = std::thread::spawn(move || {
            while !observer.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().expect("observer thread"));
    }
}
