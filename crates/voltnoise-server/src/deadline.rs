//! The deadline reaper: one background thread that cancels batch
//! tokens — with the *deadline* reason — when their wall-clock budget
//! expires.
//!
//! Registration hands the reaper a `(deadline, token)` pair and returns
//! a guard; dropping the guard (the batch settled in time) withdraws
//! the entry. The reaper thread sleeps until the earliest pending
//! deadline and calls [`CancelToken::cancel_deadline`] on expiry, which
//! the transient solver observes at its next accepted step and turns
//! into [`voltnoise_pdn::PdnError::DeadlineExceeded`] — the engine
//! books it as a final, non-retried deadline fault.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use voltnoise_pdn::CancelToken;

#[derive(Default)]
struct ReaperState {
    /// Pending entries by registration id.
    pending: HashMap<u64, (Instant, CancelToken)>,
    next_id: u64,
    shutdown: bool,
}

/// The reaper: shared state plus the condvar its thread sleeps on.
pub(crate) struct DeadlineReaper {
    state: Mutex<ReaperState>,
    wake: Condvar,
}

impl DeadlineReaper {
    /// Starts the reaper thread; the returned handle registers
    /// deadlines. The thread exits when [`DeadlineReaper::shutdown`] is
    /// called (it is detached otherwise and dies with the process).
    pub fn start() -> Arc<DeadlineReaper> {
        let reaper = Arc::new(DeadlineReaper {
            state: Mutex::new(ReaperState::default()),
            wake: Condvar::new(),
        });
        let worker = reaper.clone();
        std::thread::Builder::new()
            .name("deadline-reaper".to_string())
            .spawn(move || worker.run())
            // Thread spawn only fails on resource exhaustion at process
            // start; without a reaper, deadlines degrade to "never
            // enforced", which the caller cannot distinguish anyway —
            // so surface it loudly instead.
            .unwrap_or_else(|e| panic!("cannot start deadline reaper: {e}"));
        reaper
    }

    /// Registers `token` to be deadline-cancelled `after` from now.
    /// Dropping the guard withdraws the registration.
    pub fn register(self: &Arc<Self>, token: CancelToken, after: Duration) -> DeadlineGuard {
        let deadline = Instant::now() + after;
        let id = {
            let mut state = self.lock();
            let id = state.next_id;
            state.next_id += 1;
            state.pending.insert(id, (deadline, token));
            id
        };
        self.wake.notify_all();
        DeadlineGuard {
            reaper: self.clone(),
            id,
        }
    }

    /// Stops the reaper thread. Pending registrations are abandoned
    /// un-cancelled — shutdown cancels batches through the drain path,
    /// not through their deadlines.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.wake.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReaperState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn run(&self) {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Fire everything due; keep the earliest remaining deadline.
            let due: Vec<u64> = state
                .pending
                .iter()
                .filter(|(_, (deadline, _))| *deadline <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                if let Some((_, token)) = state.pending.remove(&id) {
                    token.cancel_deadline();
                }
            }
            let next = state.pending.values().map(|(deadline, _)| *deadline).min();
            state = match next {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    self.wake
                        .wait_timeout(state, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// A pending deadline registration; dropping it (batch settled in
/// time) withdraws the entry before it can fire.
pub(crate) struct DeadlineGuard {
    reaper: Arc<DeadlineReaper>,
    id: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.reaper.lock().pending.remove(&self.id);
        self.reaper.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltnoise_pdn::CancelReason;

    #[test]
    fn expired_deadlines_cancel_with_the_deadline_reason() {
        let reaper = DeadlineReaper::start();
        let token = CancelToken::new();
        let _guard = reaper.register(token.clone(), Duration::from_millis(20));
        assert!(!token.is_cancelled());
        let t0 = Instant::now();
        while !token.is_cancelled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled(), "deadline never fired");
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
        assert_eq!(reaper.lock().pending.len(), 0);
        reaper.shutdown();
    }

    #[test]
    fn dropped_guard_withdraws_before_firing() {
        let reaper = DeadlineReaper::start();
        let token = CancelToken::new();
        let guard = reaper.register(token.clone(), Duration::from_millis(40));
        assert_eq!(reaper.lock().pending.len(), 1);
        drop(guard);
        assert_eq!(reaper.lock().pending.len(), 0);
        std::thread::sleep(Duration::from_millis(80));
        assert!(!token.is_cancelled(), "withdrawn deadline must not fire");
        reaper.shutdown();
    }

    #[test]
    fn multiple_deadlines_fire_independently() {
        let reaper = DeadlineReaper::start();
        let fast = CancelToken::new();
        let slow = CancelToken::new();
        let _g1 = reaper.register(fast.clone(), Duration::from_millis(10));
        let _g2 = reaper.register(slow.clone(), Duration::from_secs(600));
        let t0 = Instant::now();
        while !fast.is_cancelled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fast.is_cancelled());
        assert!(!slow.is_cancelled(), "distant deadline fired early");
        assert_eq!(reaper.lock().pending.len(), 1);
        reaper.shutdown();
    }
}
