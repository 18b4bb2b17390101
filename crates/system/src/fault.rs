//! Fault vocabulary of the engine: captured per-job faults and the
//! deterministic fault-injection harness.
//!
//! The paper's Vmin methodology (§V, Fig. 12) exists *because* runs
//! fail: undervolted machines crash, hang, or corrupt results, and the
//! lab flow records the failure and moves on. A characterization engine
//! must therefore survive — and be testable under — per-job failure.
//! Every fault in this simulator is deterministic (the same job fails
//! the same way), so the engine makes one attempt per job and records
//! its failure once. This module provides the two pieces:
//!
//! 1. [`JobFault`] / [`FaultKind`] — what the engine records when a job
//!    cannot be solved: the job's content key, whether the solver was
//!    entered, and whether the failure was a solver error, an exhausted
//!    budget, a cancellation, a deadline or a worker panic.
//! 2. [`FaultInjector`] — a deterministic hook the engine consults
//!    before every solve attempt. Faults are injected by solve ordinal
//!    (fail the Nth solve) and come in three classes: a solver error, a
//!    NaN-corrupted outcome (which must be caught by the finite-output
//!    guard), and a worker panic (which must be captured, not
//!    propagated).

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
    /// [`PdnError::BudgetExceeded`]. Deterministic: the identical job
    /// burns the identical budget.
    Budget(PdnError),
    /// The job was cancelled cooperatively; always carries
    /// [`PdnError::Cancelled`]. A cancelled campaign drains: what is
    /// already solved is served, the rest settles as this fault.
    Cancelled(PdnError),
    /// The job was reaped at its request's wall-clock deadline; always
    /// carries [`PdnError::DeadlineExceeded`].
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

/// One job's failure, recorded once: the engine makes one attempt per
/// job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFault {
    /// Content key of the failed job (boxed: a key carries the full job
    /// signature, and the settled `Result` should stay small).
    pub key: Box<JobKey>,
    /// Solve attempts made: 1, or 0 when the job was cancelled before
    /// the solver was entered.
    pub attempts: u32,
    /// The attempt's failure.
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
    fn deadline_faults_are_final_and_typed() {
        let deadline = FaultKind::of_error(PdnError::DeadlineExceeded { t: 1e-6 });
        assert!(matches!(
            deadline,
            FaultKind::Deadline(PdnError::DeadlineExceeded { .. })
        ));
        assert!(deadline.to_string().starts_with("deadline fault:"));
    }

    #[test]
    fn classification_routes_budget_and_cancel() {
        let budget = FaultKind::of_error(PdnError::BudgetExceeded { steps: 7, t: 1e-6 });
        assert!(matches!(budget, FaultKind::Budget(_)));
        assert!(budget.to_string().starts_with("budget fault:"));
        let cancelled = FaultKind::of_error(PdnError::Cancelled { t: 2e-6 });
        assert!(matches!(cancelled, FaultKind::Cancelled(_)));
        assert!(cancelled.to_string().starts_with("cancelled:"));
        let solver = FaultKind::of_error(PdnError::Injected { ordinal: 3 });
        assert!(matches!(solver, FaultKind::Solver(_)));
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
