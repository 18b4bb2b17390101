//! The assembled experimental platform: ISA, EPI profile, searched
//! sequences, and a chip instance — everything §III of the paper has on
//! the bench.

use crate::chip::{Chip, ChipConfig};
use crate::noise::CoreLoad;
use crate::site::SiteVec;
use crate::workload::WorkloadKind;
use std::sync::OnceLock;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::{
    find_max_power_sequence, find_sequence_with_power, min_power_sequence, CompiledStressmark,
    MeasuredPhases, SearchConfig, SearchOutcome, SequenceEval, SyncSpec,
};
use voltnoise_uarch::epi::EpiProfile;
use voltnoise_uarch::isa::Isa;
use voltnoise_uarch::pipeline::CoreConfig;

/// A ready-to-measure platform: core model, profiled ISA, searched
/// max/min/medium sequences and a chip with instrumentation.
///
/// Building one runs the EPI profiling and the sequence search, which is
/// the expensive part, and measures the stressmark phases of the max and
/// medium sequences once, so every stressmark after that is a pure
/// [`MeasuredPhases::fit`]. The cached [`Testbed::fast`] and
/// [`Testbed::shared`] constructors amortize the build across tests and
/// experiments.
#[derive(Debug)]
pub struct Testbed {
    isa: Isa,
    core: CoreConfig,
    profile: EpiProfile,
    search: SearchOutcome,
    min_eval: SequenceEval,
    med_eval: SequenceEval,
    max_phases: MeasuredPhases,
    med_phases: MeasuredPhases,
    chip: Chip,
}

impl Testbed {
    /// Builds a testbed with explicit search and chip configurations.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`] if the chip parameters are invalid.
    pub fn build(search_cfg: &SearchConfig, chip_cfg: &ChipConfig) -> Result<Testbed, PdnError> {
        let isa = Isa::zlike();
        let core = chip_cfg.core.clone();
        let profile = EpiProfile::generate(&isa, &core);
        let search = find_max_power_sequence(&isa, &core, &profile, search_cfg);
        let min_eval = min_power_sequence(&isa, &core, &profile);
        let target = (search.best.power_w + min_eval.power_w) / 2.0;
        let med_eval = find_sequence_with_power(&isa, &core, &search.best, target, 200);
        #[allow(clippy::expect_used)] // searched sequences are never empty
        let phases = |high: &SequenceEval| {
            MeasuredPhases::measure(&isa, &core, high.body.clone(), min_eval.body.clone())
                .expect("searched sequences are non-empty")
        };
        let max_phases = phases(&search.best);
        let med_phases = phases(&med_eval);
        let chip = Chip::new(chip_cfg)?;
        Ok(Testbed {
            isa,
            core,
            profile,
            search,
            min_eval,
            med_eval,
            max_phases,
            med_phases,
            chip,
        })
    }

    /// Full-fidelity testbed (paper-sized search funnel).
    ///
    /// # Panics
    ///
    /// Never panics: default parameters are valid.
    // Sanctioned expect: the default-config build is validated by the
    // test suite, and an infallible constructor is the documented
    // contract of this method.
    #[allow(clippy::expect_used)]
    pub fn new() -> Testbed {
        Testbed::build(&SearchConfig::default(), &ChipConfig::default())
            .expect("default chip parameters are valid")
    }

    /// A cached reduced-search testbed for tests: the funnel keeps 60
    /// sequences instead of 1000, which preserves the winner's character
    /// at a fraction of the cost.
    // Sanctioned expect: same infallible-constructor contract as `new`.
    #[allow(clippy::expect_used)]
    pub fn fast() -> &'static Testbed {
        static CELL: OnceLock<Testbed> = OnceLock::new();
        CELL.get_or_init(|| {
            Testbed::build(
                &SearchConfig {
                    ipc_keep: 60,
                    eval_iterations: 120,
                },
                &ChipConfig::default(),
            )
            .expect("default chip parameters are valid")
        })
    }

    /// A cached full-fidelity testbed shared by experiment drivers.
    pub fn shared() -> &'static Testbed {
        static CELL: OnceLock<Testbed> = OnceLock::new();
        CELL.get_or_init(Testbed::new)
    }

    /// The ISA under test.
    pub fn isa(&self) -> &Isa {
        &self.isa
    }

    /// The core configuration.
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// The EPI profile (Table I source).
    pub fn profile(&self) -> &EpiProfile {
        &self.profile
    }

    /// The full sequence-search outcome (funnel counts, winner,
    /// runners-up).
    pub fn search(&self) -> &SearchOutcome {
        &self.search
    }

    /// The maximum-power sequence.
    pub fn max_sequence(&self) -> &SequenceEval {
        &self.search.best
    }

    /// The minimum-power sequence.
    pub fn min_sequence(&self) -> &SequenceEval {
        &self.min_eval
    }

    /// The medium-power sequence (average of max and min).
    pub fn medium_sequence(&self) -> &SequenceEval {
        &self.med_eval
    }

    /// The chip instance.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Replaces the chip (e.g. a different process-variation seed or an
    /// undervolted instance).
    pub fn with_chip(mut self, chip: Chip) -> Testbed {
        self.chip = chip;
        self
    }

    fn fit_stressmark(
        name: &str,
        phases: &MeasuredPhases,
        stim_freq_hz: f64,
        sync: Option<SyncSpec>,
    ) -> CompiledStressmark {
        #[allow(clippy::expect_used)] // documented panic contract (see max_stressmark)
        phases
            .fit(name, stim_freq_hz, 0.5, sync)
            .expect("searched sequences compile at paper frequencies")
    }

    /// The maximum dI/dt stressmark at a stimulus frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is unrealizable for the searched sequences
    /// (beyond hundreds of MHz).
    pub fn max_stressmark(&self, stim_freq_hz: f64, sync: Option<SyncSpec>) -> CompiledStressmark {
        Self::fit_stressmark("max_didt", &self.max_phases, stim_freq_hz, sync)
    }

    /// The medium dI/dt stressmark (half the ΔI of the maximum).
    ///
    /// # Panics
    ///
    /// Panics if the frequency is unrealizable.
    pub fn medium_stressmark(
        &self,
        stim_freq_hz: f64,
        sync: Option<SyncSpec>,
    ) -> CompiledStressmark {
        Self::fit_stressmark("medium_didt", &self.med_phases, stim_freq_hz, sync)
    }

    /// The [`CoreLoad`] of a workload kind.
    pub fn load_of(
        &self,
        kind: WorkloadKind,
        stim_freq_hz: f64,
        sync: Option<SyncSpec>,
    ) -> CoreLoad {
        match kind {
            WorkloadKind::Idle => CoreLoad::Idle,
            WorkloadKind::MediumDidt => {
                CoreLoad::Stressmark(self.medium_stressmark(stim_freq_hz, sync))
            }
            WorkloadKind::MaxDidt => CoreLoad::Stressmark(self.max_stressmark(stim_freq_hz, sync)),
        }
    }

    /// Expands a workload placement into per-site loads (any site
    /// count: a chip mapping yields six loads, a rack placement one
    /// load per rack site).
    pub fn loads_of_mapping(
        &self,
        mapping: &[WorkloadKind],
        stim_freq_hz: f64,
        sync: Option<SyncSpec>,
    ) -> SiteVec<CoreLoad> {
        SiteVec::from_fn(mapping.len(), |i| {
            self.load_of(mapping[i], stim_freq_hz, sync)
        })
    }
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltnoise_stressmark::{compile, StressmarkError, StressmarkSpec};

    #[test]
    fn fast_testbed_orders_sequence_powers() {
        let tb = Testbed::fast();
        let max = tb.max_sequence().power_w;
        let med = tb.medium_sequence().power_w;
        let min = tb.min_sequence().power_w;
        assert!(max > med && med > min, "max {max} med {med} min {min}");
        let target = (max + min) / 2.0;
        assert!(
            (med - target).abs() / target < 0.08,
            "medium {med} vs target {target}"
        );
    }

    #[test]
    fn medium_stressmark_has_half_delta_i() {
        let tb = Testbed::fast();
        let max = tb.max_stressmark(2e6, None);
        let med = tb.medium_stressmark(2e6, None);
        let ratio = med.delta_i() / max.delta_i();
        assert!((ratio - 0.5).abs() < 0.12, "ratio = {ratio}");
    }

    #[test]
    fn loads_of_mapping_matches_kinds() {
        let tb = Testbed::fast();
        let mapping = [
            WorkloadKind::MaxDidt,
            WorkloadKind::Idle,
            WorkloadKind::MediumDidt,
            WorkloadKind::Idle,
            WorkloadKind::Idle,
            WorkloadKind::Idle,
        ];
        let loads = tb.loads_of_mapping(&mapping, 2e6, None);
        assert!(matches!(loads[0], CoreLoad::Stressmark(_)));
        assert!(matches!(loads[1], CoreLoad::Idle));
        assert!(matches!(loads[2], CoreLoad::Stressmark(_)));
    }

    #[test]
    fn stressmarks_compile_across_paper_frequency_range() {
        let tb = Testbed::fast();
        for f in [1.0, 1e3, 35e3, 2.5e6, 15e6, 100e6] {
            let sm = tb.max_stressmark(f, None);
            assert!(sm.high_reps >= 1, "no reps at {f} Hz");
        }
    }

    fn assert_bit_identical(a: &CompiledStressmark, b: &CompiledStressmark) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.spec.stim_freq_hz.to_bits(), b.spec.stim_freq_hz.to_bits());
        assert_eq!(a.spec.duty.to_bits(), b.spec.duty.to_bits());
        assert_eq!((a.high_reps, a.low_reps), (b.high_reps, b.low_reps));
        for (x, y) in [
            (a.i_high_a, b.i_high_a),
            (a.i_low_a, b.i_low_a),
            (a.i_idle_a, b.i_idle_a),
            (a.ipc_high, b.ipc_high),
            (a.ipc_low, b.ipc_low),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", a.spec.name);
        }
    }

    #[test]
    fn fitted_stressmarks_are_bit_identical_to_compile() {
        let tb = Testbed::fast();
        let spec = |name: &str, high: &SequenceEval, stim_freq_hz, sync| StressmarkSpec {
            name: name.to_string(),
            high_body: high.body.clone(),
            low_body: tb.min_sequence().body.clone(),
            stim_freq_hz,
            duty: 0.5,
            sync,
        };
        let compiled = |spec| compile(tb.isa(), tb.core(), spec);
        let offset = SyncSpec {
            offset_ticks: 3,
            ..SyncSpec::paper_default()
        };
        for f in [1.0, 1e3, 35e3, 2.5e6, 15e6, 100e6] {
            for sync in [None, Some(SyncSpec::paper_default()), Some(offset)] {
                let max = compiled(spec("max_didt", tb.max_sequence(), f, sync)).unwrap();
                assert_bit_identical(&tb.max_stressmark(f, sync), &max);
                let med = compiled(spec("medium_didt", tb.medium_sequence(), f, sync)).unwrap();
                assert_bit_identical(&tb.medium_stressmark(f, sync), &med);
            }
        }
        // An unrealizable frequency is rejected with the same bound.
        for (name, seq, phases) in [
            ("max_didt", tb.max_sequence(), &tb.max_phases),
            ("medium_didt", tb.medium_sequence(), &tb.med_phases),
        ] {
            let direct = compiled(spec(name, seq, 10e9, None)).unwrap_err();
            let fitted = phases.fit(name, 10e9, 0.5, None).unwrap_err();
            match (&direct, &fitted) {
                (
                    StressmarkError::BadStimulus { max_hz: a, .. },
                    StressmarkError::BadStimulus { max_hz: b, .. },
                ) => assert_eq!(a.to_bits(), b.to_bits(), "{name}"),
                other => panic!("unexpected errors {other:?}"),
            }
            assert_eq!(direct, fitted);
        }
    }
}
