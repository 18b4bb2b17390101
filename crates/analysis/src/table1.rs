//! The EPI ranking table (paper Table I): first and last five
//! instructions of the 1301-instruction profile.

use crate::experiment::Experiment;
use crate::render::Table;
use serde::{Deserialize, Serialize};
use voltnoise_pdn::PdnError;
use voltnoise_system::engine::Engine;
use voltnoise_system::testbed::Testbed;
use voltnoise_uarch::epi::EpiEntry;

/// One rendered Table I row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// 1-based rank.
    pub rank: usize,
    /// Mnemonic.
    pub mnemonic: String,
    /// Description.
    pub description: String,
    /// Power normalized to the lowest-power instruction.
    pub rel_power: f64,
}

/// The Table I reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// Ranks 1–5.
    pub top: Vec<Table1Row>,
    /// Ranks 1297–1301.
    pub bottom: Vec<Table1Row>,
    /// Total instructions profiled.
    pub total: usize,
}

impl Table1 {
    /// Builds the table from a testbed's EPI profile.
    pub fn from_testbed(tb: &Testbed) -> Self {
        let profile = tb.profile();
        let row = |rank: usize, e: &EpiEntry| Table1Row {
            rank,
            mnemonic: e.mnemonic.clone(),
            description: e.description.clone(),
            rel_power: e.rel_power,
        };
        let total = profile.len();
        Table1 {
            top: profile
                .top(5)
                .iter()
                .enumerate()
                .map(|(i, e)| row(i + 1, e))
                .collect(),
            bottom: profile
                .bottom(5)
                .iter()
                .enumerate()
                .map(|(i, e)| row(total - 4 + i, e))
                .collect(),
            total,
        }
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new("Table I: first and last five instructions in the EPI profile");
        t.columns(["rank", "instr", "description", "power"]);
        for r in self.top.iter().chain(&self.bottom) {
            t.row([
                r.rank.to_string(),
                r.mnemonic.clone(),
                r.description.clone(),
                format!("{:.2}", r.rel_power),
            ]);
        }
        t.note(&format!("total instructions profiled: {}", self.total));
        t.finish()
    }
}

/// The Table I experiment: pure EPI-profile processing, no simulation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table1Experiment;

impl Experiment for Table1Experiment {
    type Artifact = Table1;

    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table I: EPI profile extremes"
    }

    fn run(&self, tb: &Testbed, _engine: &Engine) -> Result<Table1, PdnError> {
        Ok(Table1::from_testbed(tb))
    }

    fn render(&self, artifact: &Table1) -> String {
        artifact.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_rows() {
        let t = Table1::from_testbed(Testbed::fast());
        assert_eq!(t.total, 1301);
        let top: Vec<&str> = t.top.iter().map(|r| r.mnemonic.as_str()).collect();
        assert_eq!(top, vec!["CIB", "CRB", "BXHG", "CGIB", "CHHSI"]);
        let bottom: Vec<&str> = t.bottom.iter().map(|r| r.mnemonic.as_str()).collect();
        assert_eq!(bottom, vec!["DDTRA", "MXTRA", "MDTRA", "STCK", "SRNM"]);
        assert_eq!(t.bottom.last().unwrap().rank, 1301);
        // Paper scale: top ~1.58, bottom 1.00-1.01.
        assert!(t.top[0].rel_power > 1.4 && t.top[0].rel_power < 1.85);
        assert!(t.bottom.iter().all(|r| r.rel_power < 1.08));
    }

    #[test]
    fn render_contains_both_ends() {
        let t = Table1::from_testbed(Testbed::fast());
        let text = t.render();
        assert!(text.contains("CIB"));
        assert!(text.contains("SRNM"));
        assert!(text.contains("1301"));
    }
}
