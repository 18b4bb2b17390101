//! Optimization opportunity studies (paper SVII): noise-aware workload
//! mapping and utilization-based dynamic guard-banding.
//!
//! Run with: `cargo run --release --example mapping_policies`

use voltnoise::analysis::{GuardbandConfig, GuardbandExperiment, MappingComparisonExperiment};
use voltnoise::prelude::*;

fn main() {
    let tb = Testbed::shared();
    // One engine for every study below: mappings they share solve once.
    let engine = Engine::new();

    println!("== Fig. 14: same-row vs split placement of 3 stressmarks ==");
    let cmp = MappingComparisonExperiment {
        stim_freq_hz: 2.5e6,
    }
    .run(tb, &engine)
    .expect("comparison runs");
    print!("{}", cmp.render());

    println!("== Fig. 15: best vs worst mapping per workload count ==");
    let gain = MappingGainExperiment {
        cfg: MappingGainConfig {
            counts: vec![1, 2, 3, 4, 5],
            ..MappingGainConfig::paper()
        },
    }
    .run(tb, &engine)
    .expect("mapping study runs");
    print!("{}", gain.render());

    println!("== SVII-B: utilization-based dynamic guard-banding ==");
    let study = GuardbandExperiment {
        cfg: GuardbandConfig::reduced(),
    }
    .run(tb, &engine)
    .expect("guardband study runs");
    print!("{}", study.render());
}
