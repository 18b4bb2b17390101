//! Fault vocabulary of the engine: captured per-job faults, retry
//! policy, and the deterministic fault-injection harness.
//!
//! The paper's Vmin methodology (§V, Fig. 12) exists *because* runs
//! fail: undervolted machines crash, hang, or corrupt results, and the
//! lab flow records the failure and moves on. A characterization engine
//! must therefore survive — and be testable under — per-job failure.
//! This module provides the three pieces:
//!
//! 1. [`JobFault`] / [`FaultKind`] — what the engine records when a job
//!    cannot be solved: the job's content key, how many attempts were
//!    made, and whether the failure was a solver error or a worker
//!    panic.
//! 2. [`RetryPolicy`] — how many attempts a job gets, and whether
//!    retries perturb the seed (useful when a fault is tied to one
//!    random phase assignment).
//! 3. [`FaultInjector`] — a deterministic hook the engine consults
//!    before every solve attempt. Faults are injected by solve ordinal
//!    (fail the Nth solve) and come in three classes: a solver error, a NaN-corrupted outcome (which
//!    must be caught by the finite-output guard), and a worker panic
//!    (which must be captured, not propagated).

use std::collections::HashMap;
use voltnoise_pdn::PdnError;

use crate::engine::JobKey;

/// Classification of a captured failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The solve returned an error ([`PdnError::Diverged`],
    /// [`PdnError::SingularMatrix`], an injected error, ...).
    Solver(PdnError),
    /// The job's step budget ran out; always carries
    /// [`PdnError::BudgetExceeded`]. Deterministic and final — retrying
    /// the identical job would burn the identical budget — so the engine
    /// never retries budget faults.
    Budget(PdnError),
    /// The job was cancelled cooperatively; always carries
    /// [`PdnError::Cancelled`]. Final: a cancelled campaign must drain,
    /// not retry.
    Cancelled(PdnError),
    /// The job was reaped at its request's wall-clock deadline; always
    /// carries [`PdnError::DeadlineExceeded`]. Final: the token stays
    /// cancelled, so a retry would be reaped at its first step poll.
    Deadline(PdnError),
    /// The worker thread panicked; the payload's message is preserved.
    Panic(String),
}

impl FaultKind {
    /// Classifies a solve error into its fault kind: budget exhaustion,
    /// cancellation and deadline reaping get their own kinds, everything
    /// else is a generic solver fault.
    pub fn of_error(e: PdnError) -> FaultKind {
        match e {
            PdnError::BudgetExceeded { .. } => FaultKind::Budget(e),
            PdnError::Cancelled { .. } => FaultKind::Cancelled(e),
            PdnError::DeadlineExceeded { .. } => FaultKind::Deadline(e),
            _ => FaultKind::Solver(e),
        }
    }

    /// True for faults that retrying cannot change: a budget fault is
    /// deterministic, a cancelled campaign is draining, and a deadline
    /// token stays cancelled.
    pub(crate) fn is_final(&self) -> bool {
        matches!(
            self,
            FaultKind::Budget(_) | FaultKind::Cancelled(_) | FaultKind::Deadline(_)
        )
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Solver(e) => write!(f, "solver error: {e}"),
            FaultKind::Budget(e) => write!(f, "budget fault: {e}"),
            FaultKind::Cancelled(e) => write!(f, "cancelled: {e}"),
            FaultKind::Deadline(e) => write!(f, "deadline fault: {e}"),
            FaultKind::Panic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

/// One job's terminal failure: every attempt allowed by the
/// [`RetryPolicy`] was made and all failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFault {
    /// Content key of the failed job (boxed: a key carries the full job
    /// signature, and the settled `Result` should stay small).
    pub key: Box<JobKey>,
    /// Solve attempts made (more than 1 means retries happened; 0 means
    /// the job was cancelled before any attempt started).
    pub attempts: u32,
    /// The final attempt's failure.
    pub fault: FaultKind,
}

impl std::fmt::Display for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job failed after {} attempt(s): {}",
            self.attempts, self.fault
        )
    }
}

impl std::error::Error for JobFault {}

/// Retry policy for transient faults.
///
/// The default (`max_attempts: 1`) retries nothing — every fault is
/// terminal, matching the engine's historical semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (clamped to ≥ 1).
    pub max_attempts: u32,
    /// When `true`, each retry perturbs the job's seed (attempt `k`
    /// runs with `seed + k - 1`), emulating the lab practice of
    /// re-running a flaky measurement with a fresh alignment. The
    /// retried outcome is cached under its *own* (reseeded) key, never
    /// the original, so the content-keyed cache stays truthful.
    pub reseed: bool,
    /// Base delay of the exponential backoff before retry `k`
    /// (milliseconds): the nominal delay is `base · 2^(k-1)`, jittered.
    /// `0` (the default) retries immediately, preserving the engine's
    /// historical semantics and keeping test suites fast.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff delay (milliseconds), so a
    /// deep retry chain cannot sleep unboundedly. Ignored when
    /// `backoff_base_ms` is 0.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            reseed: false,
            backoff_base_ms: 0,
            backoff_cap_ms: 10_000,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts, without
    /// reseeding or backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Sets the exponential-backoff base (builder style). Retry `k`
    /// sleeps `base · 2^(k-1)` ms, jittered deterministically (see
    /// `RetryPolicy::backoff_delay_ms`) and capped at
    /// `backoff_cap_ms`.
    #[must_use]
    pub fn with_backoff(mut self, base_ms: u64, cap_ms: u64) -> RetryPolicy {
        self.backoff_base_ms = base_ms;
        self.backoff_cap_ms = cap_ms;
        self
    }

    /// The backoff delay before retry attempt `retry` (1 = first retry)
    /// of the job whose content seed is `job_seed`, in milliseconds.
    ///
    /// Deterministic by construction: the delay is a pure function of
    /// `(job_seed, retry, policy)` — never of wall-clock, thread id or
    /// scheduling — so the retry schedule of a campaign reproduces
    /// exactly under any `VOLTNOISE_THREADS` setting. Jitter
    /// de-synchronizes jobs that fail together (a thundering herd after
    /// a shared-resource fault) by scaling the nominal exponential delay
    /// into `[1/2, 1)·nominal` with a splitmix64 hash of the seed and
    /// attempt.
    pub(crate) fn backoff_delay_ms(&self, job_seed: u64, retry: u32) -> u64 {
        if self.backoff_base_ms == 0 || retry == 0 {
            return 0;
        }
        let exp = retry.saturating_sub(1).min(20);
        let nominal = self
            .backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap_ms.max(1));
        // splitmix64 of (job_seed, retry): the same mixer the fault
        // injector uses, reproducible across processes and toolchains.
        let mut z = job_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(retry));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Unit jitter in [0, 1): half the nominal delay is kept, the
        // other half is scaled by the jitter.
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = nominal as f64 * (0.5 + 0.5 * unit);
        (jittered as u64).max(1)
    }

    /// The delay before retry `retry` when the server supplied a
    /// `Retry-After` hint (milliseconds): the larger of the hint and
    /// the policy's own jittered backoff. Honoring the hint as a floor
    /// keeps an overloaded server's explicit schedule authoritative,
    /// while the seeded jitter keeps a fleet of clients told "come back
    /// in 1s" from stampeding back in the same millisecond — they
    /// spread out *after* the hint, deterministically per job seed.
    pub fn delay_with_hint(&self, job_seed: u64, retry: u32, hint_ms: u64) -> u64 {
        self.backoff_delay_ms(job_seed, retry).max(hint_ms)
    }
}

/// The class of fault an injector plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The solve attempt returns [`PdnError::Injected`] without running.
    SolverError,
    /// The solve runs, then its outcome is corrupted with NaN; the
    /// engine's finite-output guard must convert this into
    /// [`PdnError::Diverged`] and must not cache the outcome.
    NanOutcome,
    /// The worker panics mid-solve; the engine must capture the panic
    /// as a [`FaultKind::Panic`] instead of unwinding the campaign.
    WorkerPanic,
}

/// Deterministic fault-injection plan, consulted by the engine before
/// every solve attempt.
///
/// Solve attempts are numbered 0, 1, 2, ... in the order the engine
/// starts them (cache hits consume no ordinal). A plan maps ordinals to
/// fault classes.
///
/// # Examples
///
/// ```
/// use voltnoise_system::fault::{FaultInjector, InjectedFault};
///
/// let inj = FaultInjector::new()
///     .fail_solve(0, InjectedFault::SolverError)
///     .fail_solve(3, InjectedFault::WorkerPanic);
/// assert_eq!(inj.decide(0), Some(InjectedFault::SolverError));
/// assert_eq!(inj.decide(1), None);
/// assert_eq!(inj.decide(3), Some(InjectedFault::WorkerPanic));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    planned: HashMap<usize, InjectedFault>,
}

impl FaultInjector {
    /// An injector that never fires (until configured).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Plans a fault at one solve ordinal (builder style).
    #[must_use]
    pub fn fail_solve(mut self, ordinal: usize, kind: InjectedFault) -> Self {
        self.planned.insert(ordinal, kind);
        self
    }

    /// The fault planted at `ordinal`, if any.
    pub fn decide(&self, ordinal: usize) -> Option<InjectedFault> {
        self.planned.get(&ordinal).copied()
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_ordinals_fire_exactly() {
        let inj = FaultInjector::new()
            .fail_solve(2, InjectedFault::NanOutcome)
            .fail_solve(5, InjectedFault::SolverError);
        assert_eq!(inj.decide(2), Some(InjectedFault::NanOutcome));
        assert_eq!(inj.decide(5), Some(InjectedFault::SolverError));
        for n in [0, 1, 3, 4, 6, 100] {
            assert_eq!(inj.decide(n), None, "ordinal {n}");
        }
    }

    #[test]
    fn retry_policy_default_is_single_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.reseed);
        assert_eq!(p.backoff_base_ms, 0);
        assert_eq!(RetryPolicy::attempts(3).max_attempts, 3);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::attempts(6).with_backoff(10, 2000);
        // Pure function of (seed, retry): identical on every call.
        for retry in 1..6 {
            assert_eq!(
                p.backoff_delay_ms(42, retry),
                p.backoff_delay_ms(42, retry),
                "retry {retry}"
            );
        }
        // Jitter keeps each delay within [nominal/2, nominal).
        for (retry, nominal) in [(1u32, 10u64), (2, 20), (3, 40), (4, 80)] {
            let d = p.backoff_delay_ms(7, retry);
            assert!(
                d >= nominal / 2 && d < nominal,
                "retry {retry}: delay {d} outside [{}, {nominal})",
                nominal / 2
            );
        }
        // The cap bounds deep chains (2^30 would overflow the schedule).
        assert!(p.backoff_delay_ms(7, 31) <= 2000);
        // Different seeds de-synchronize (overwhelmingly likely for a
        // 53-bit jitter; these fixed seeds are a regression anchor).
        assert_ne!(p.backoff_delay_ms(1, 3), p.backoff_delay_ms(2, 3));
        // Zero base means immediate retries.
        assert_eq!(RetryPolicy::attempts(3).backoff_delay_ms(42, 2), 0);
    }

    #[test]
    fn retry_after_hint_is_a_floor_under_the_jittered_backoff() {
        let p = RetryPolicy::attempts(4).with_backoff(10, 2000);
        // A hint beyond the backoff dominates; the client never comes
        // back before the server asked it to.
        assert_eq!(p.delay_with_hint(42, 1, 1000), 1000);
        // A hint below the backoff leaves the jittered schedule intact.
        assert_eq!(p.delay_with_hint(42, 3, 1), p.backoff_delay_ms(42, 3));
        // No backoff configured: the hint is the whole delay.
        assert_eq!(RetryPolicy::attempts(3).delay_with_hint(42, 2, 700), 700);
        // Deterministic: same inputs, same delay.
        assert_eq!(p.delay_with_hint(9, 2, 500), p.delay_with_hint(9, 2, 500));
    }

    #[test]
    fn deadline_faults_are_final_and_typed() {
        let deadline = FaultKind::of_error(PdnError::DeadlineExceeded { t: 1e-6 });
        assert!(matches!(
            deadline,
            FaultKind::Deadline(PdnError::DeadlineExceeded { .. })
        ));
        assert!(deadline.is_final());
        assert!(deadline.to_string().starts_with("deadline fault:"));
    }

    #[test]
    fn classification_routes_budget_and_cancel() {
        let budget = FaultKind::of_error(PdnError::BudgetExceeded { steps: 7, t: 1e-6 });
        assert!(matches!(budget, FaultKind::Budget(_)));
        assert!(budget.is_final());
        assert!(budget.to_string().starts_with("budget fault:"));
        let cancelled = FaultKind::of_error(PdnError::Cancelled { t: 2e-6 });
        assert!(matches!(cancelled, FaultKind::Cancelled(_)));
        assert!(cancelled.is_final());
        assert!(cancelled.to_string().starts_with("cancelled:"));
        let solver = FaultKind::of_error(PdnError::Injected { ordinal: 3 });
        assert!(matches!(solver, FaultKind::Solver(_)));
        assert!(!solver.is_final());
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(p.as_ref()), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
