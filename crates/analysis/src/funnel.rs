//! The sequence-search funnel (paper Fig. 5 / §IV-B): candidate counts at
//! every stage plus the winning sequences.

use crate::experiment::{Experiment, ExperimentFailure};
use serde::{Deserialize, Serialize};
use voltnoise_system::engine::Engine;
use voltnoise_system::testbed::Testbed;

/// Summary of the search funnel and its products.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunnelSummary {
    /// The nine candidate mnemonics.
    pub candidates: Vec<String>,
    /// Combinations enumerated.
    pub total_combinations: usize,
    /// Survivors of the microarchitectural filter.
    pub after_microarch: usize,
    /// Survivors of the IPC filter.
    pub after_ipc: usize,
    /// Winning maximum-power sequence and its power/IPC.
    pub max_sequence: (Vec<String>, f64, f64),
    /// Minimum-power sequence and its power.
    pub min_sequence: (Vec<String>, f64),
    /// Medium sequence and its power.
    pub medium_sequence: (Vec<String>, f64),
}

impl FunnelSummary {
    /// Builds the summary from a testbed.
    pub fn from_testbed(tb: &Testbed) -> Self {
        let s = tb.search();
        FunnelSummary {
            candidates: s.candidates.iter().map(|c| c.mnemonic.clone()).collect(),
            total_combinations: s.total_combinations,
            after_microarch: s.after_microarch,
            after_ipc: s.after_ipc,
            max_sequence: (s.best.mnemonics.clone(), s.best.power_w, s.best.ipc),
            min_sequence: (
                tb.min_sequence().mnemonics.clone(),
                tb.min_sequence().power_w,
            ),
            medium_sequence: (
                tb.medium_sequence().mnemonics.clone(),
                tb.medium_sequence().power_w,
            ),
        }
    }

    /// Renders the funnel report.
    pub fn render(&self) -> String {
        format!(
            "# Fig. 5 / §IV-B: maximum power sequence search funnel\n\
             candidates ({}): {:?}\n\
             combinations enumerated: {}\n\
             after microarchitectural filter: {}\n\
             after IPC filter: {}\n\
             max-power sequence: {:?} ({:.2} W, IPC {:.2})\n\
             min-power sequence: {:?} ({:.2} W)\n\
             medium sequence: {:?} ({:.2} W)\n",
            self.candidates.len(),
            self.candidates,
            self.total_combinations,
            self.after_microarch,
            self.after_ipc,
            self.max_sequence.0,
            self.max_sequence.1,
            self.max_sequence.2,
            self.min_sequence.0,
            self.min_sequence.1,
            self.medium_sequence.0,
            self.medium_sequence.1,
        )
    }
}

/// The Fig. 5 experiment: pure search-funnel summary, no simulation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FunnelExperiment;

impl Experiment for FunnelExperiment {
    type Artifact = FunnelSummary;

    fn run(&self, tb: &Testbed, _engine: &Engine) -> Result<FunnelSummary, ExperimentFailure> {
        Ok(FunnelSummary::from_testbed(tb))
    }

    fn render(&self, artifact: &FunnelSummary) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funnel_matches_paper_shape() {
        let f = FunnelSummary::from_testbed(Testbed::fast());
        assert_eq!(f.candidates.len(), 9);
        assert_eq!(f.total_combinations, 531_441);
        assert!(f.after_microarch < f.total_combinations / 4);
        assert!(f.after_ipc <= 1000);
        assert!(f.max_sequence.1 > f.medium_sequence.1);
        assert!(f.medium_sequence.1 > f.min_sequence.1);
    }

    #[test]
    fn render_reports_counts() {
        let f = FunnelSummary::from_testbed(Testbed::fast());
        let text = f.render();
        assert!(text.contains("531441"));
        assert!(text.contains("max-power sequence"));
    }
}
