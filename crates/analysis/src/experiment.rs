//! The [`Experiment`] abstraction and the experiment registry.
//!
//! Every paper artifact (table, figure, study) is an [`Experiment`]: a
//! configuration that [`Experiment::run`]s on the [`Engine`] it is handed
//! into a serializable artifact, and a `render` step producing the
//! figure's text document. Experiments come in two shapes:
//!
//! - a [`JobList`] experiment expands into pure [`SimJob`]s known up
//!   front, and an `assemble` step folds the solved outcomes into the
//!   artifact. It implements only `jobs` and `assemble`; the blanket
//!   [`Experiment`] impl routes the jobs through the engine, so it gets
//!   parallel execution and content-keyed memoization for free;
//! - every other experiment implements [`Experiment::run`] itself:
//!   Fig. 12's Vmin campaign solves one nominal job per descent in one
//!   [`Engine::run_jobs`] batch, walks each bias ladder on rail-shifted
//!   minima, and solves a step with [`Engine::run_one`] only when its
//!   shifted minimum sits at the failure voltage; solver-free ones
//!   (tables, AC analyses) ignore the engine.
//!
//! Either way there is one path from configuration to artifact, and it
//! runs on the caller's engine: sharing work between experiments (the
//! ΔI campaign behind Figs. 11a, 11b and 13a) means handing them the
//! same engine.
//!
//! That path is *settled*: a run never aborts the caller. Job failures
//! the engine captures surface as an [`ExperimentFailure`] (a job-list
//! experiment runs every job and carries every [`JobFault`]), and a
//! panic that escapes an experiment is contained as one too. The full
//! report uses this to render the healthy figures and a fault summary
//! when some experiments fail.
//!
//! The [`registry`] lists one entry per artifact and is the only place
//! an artifact's id and title are written. The full report and the
//! `experiment` binary both walk it, so adding an experiment in one
//! place surfaces it everywhere.

use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use voltnoise_pdn::PdnError;
use voltnoise_system::engine::{Engine, SimJob};
use voltnoise_system::fault::{panic_message, FaultKind, JobFault};
use voltnoise_system::noise::NoiseOutcome;
use voltnoise_system::testbed::Testbed;

/// Why an experiment could not produce its artifact.
///
/// Carries every [`JobFault`] the engine captured (deduplicated — jobs
/// sharing a content key share one fault), plus the `primary` kind: the
/// first failure in job order. Failures that happen outside the
/// job layer (job construction, assembly, a panic in an experiment's own
/// `run`) carry an empty `faults` list and only the `primary` kind.
#[derive(Debug, Clone)]
pub struct ExperimentFailure {
    /// Captured job faults, in job order, deduplicated by content key.
    pub faults: Vec<JobFault>,
    /// The first failure's class, in job order.
    pub primary: FaultKind,
}

impl ExperimentFailure {
    /// Builds a failure from the engine's captured job faults.
    pub(crate) fn from_faults(faults: Vec<JobFault>) -> ExperimentFailure {
        let primary = faults.first().map_or_else(
            || FaultKind::Panic("experiment failed without a recorded fault".to_string()),
            |f| f.fault.clone(),
        );
        ExperimentFailure { faults, primary }
    }

    /// Builds a failure from a panic that escaped the experiment.
    pub(crate) fn from_panic(message: String) -> ExperimentFailure {
        ExperimentFailure {
            faults: Vec::new(),
            primary: FaultKind::Panic(message),
        }
    }

    /// One-line digest for fault-summary tables (comma-free so it can
    /// live in a CSV cell).
    pub fn summary(&self) -> String {
        let detail = self.primary.to_string().replace(',', ";");
        match self.faults.len() {
            0 | 1 => detail,
            n => format!("{n} job faults; first: {detail}"),
        }
    }
}

impl From<PdnError> for ExperimentFailure {
    fn from(e: PdnError) -> ExperimentFailure {
        ExperimentFailure {
            faults: Vec::new(),
            primary: FaultKind::of_error(e),
        }
    }
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment failed: {}", self.summary())
    }
}

impl std::error::Error for ExperimentFailure {}

/// One reproducible paper artifact.
pub trait Experiment {
    /// The structured result: serializable for JSON export and for the
    /// byte-exact parallel-vs-serial determinism checks.
    type Artifact: Serialize;

    /// Renders the artifact as the figure's text document.
    fn render(&self, artifact: &Self::Artifact) -> String;

    /// Runs the experiment end to end on `engine`, settling failure
    /// instead of aborting: [`JobList`] experiments run every job (see
    /// [`Engine::run_jobs_settled`]) and report all captured faults.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentFailure`] when any job or the assembly fails.
    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<Self::Artifact, ExperimentFailure>;
}

/// An experiment whose whole job list is known before any job runs.
/// Every `JobList` is an [`Experiment`] through the blanket impl below.
pub trait JobList {
    /// See [`Experiment::Artifact`].
    type Artifact: Serialize;

    /// Expands the configuration into pure simulation jobs.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when job construction requires a solve that
    /// fails.
    fn jobs(&self, tb: &Testbed) -> Result<Vec<SimJob>, PdnError>;

    /// Folds solved outcomes (parallel to [`JobList::jobs`]'s order)
    /// into the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] when a non-job computation inside the
    /// experiment fails.
    fn assemble(
        &self,
        tb: &Testbed,
        outcomes: &[Arc<NoiseOutcome>],
    ) -> Result<Self::Artifact, PdnError>;

    /// See [`Experiment::render`].
    fn render(&self, artifact: &Self::Artifact) -> String;
}

impl<T: JobList> Experiment for T {
    type Artifact = T::Artifact;

    fn render(&self, artifact: &T::Artifact) -> String {
        JobList::render(self, artifact)
    }

    fn run(&self, tb: &Testbed, engine: &Engine) -> Result<T::Artifact, ExperimentFailure> {
        let jobs = self.jobs(tb)?;
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut faults: Vec<JobFault> = Vec::new();
        for settled in engine.run_jobs_settled(&jobs) {
            match settled {
                Ok(outcome) => outcomes.push(outcome),
                Err(fault) => {
                    if !faults.contains(&fault) {
                        faults.push(fault);
                    }
                }
            }
        }
        if !faults.is_empty() {
            return Err(ExperimentFailure::from_faults(faults));
        }
        Ok(self.assemble(tb, &outcomes)?)
    }
}

/// A finished experiment: rendered text plus the serialized artifact.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The rendered figure document.
    pub rendered: String,
    /// The artifact as a serde value tree (for `--json` export).
    pub value: Value,
}

/// Runs an experiment, additionally containing any panic that escapes
/// the experiment itself (its `run`, `assemble`, or `render`) as an
/// [`ExperimentFailure`]: one broken experiment degrades to a
/// fault-summary row instead of taking the whole document down.
///
/// # Errors
///
/// Returns [`ExperimentFailure`] when the experiment fails or panics.
pub(crate) fn run_to_output<E: Experiment>(
    exp: &E,
    tb: &Testbed,
    engine: &Engine,
) -> Result<ExperimentOutput, ExperimentFailure> {
    match catch_unwind(AssertUnwindSafe(|| {
        let artifact = exp.run(tb, engine)?;
        Ok(ExperimentOutput {
            rendered: exp.render(&artifact),
            value: artifact.to_value(),
        })
    })) {
        Ok(result) => result,
        Err(payload) => Err(ExperimentFailure::from_panic(panic_message(
            payload.as_ref(),
        ))),
    }
}

pub(crate) type EntryRun =
    fn(&Testbed, &Engine, bool) -> Result<ExperimentOutput, ExperimentFailure>;

/// One registry entry: an artifact the workspace can regenerate.
pub struct RegistryEntry {
    /// Stable identifier (`fig7a`, `table1`, ...), used by the report and
    /// the `experiment` binary.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Whether [`crate::report::full_report`] includes this artifact (in
    /// registry order).
    pub in_report: bool,
    pub(crate) run: EntryRun,
}

impl RegistryEntry {
    /// Runs the entry's experiment at paper (`reduced = false`) or
    /// reduced scale on the given engine. Failure is settled, never
    /// raised: a captured worker panic, like any job fault, comes back
    /// as an [`ExperimentFailure`].
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentFailure`] when the experiment fails.
    pub fn run(
        &self,
        tb: &Testbed,
        engine: &Engine,
        reduced: bool,
    ) -> Result<ExperimentOutput, ExperimentFailure> {
        (self.run)(tb, engine, reduced)
    }
}

impl std::fmt::Debug for RegistryEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryEntry")
            .field("id", &self.id)
            .field("title", &self.title)
            .field("in_report", &self.in_report)
            .finish()
    }
}

/// The experiment registry, in full-report order.
pub fn registry() -> &'static [RegistryEntry] {
    crate::catalog::ENTRIES
}

/// Looks up a registry entry by id.
pub fn find(id: &str) -> Option<&'static RegistryEntry> {
    registry().iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let entries = registry();
        assert!(!entries.is_empty());
        for (i, e) in entries.iter().enumerate() {
            assert!(find(e.id).is_some(), "{} not findable", e.id);
            for later in &entries[i + 1..] {
                assert_ne!(e.id, later.id, "duplicate id {}", e.id);
            }
        }
        assert!(find("no-such-experiment").is_none());
    }
}
