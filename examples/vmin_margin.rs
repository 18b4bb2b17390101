//! Vmin experiments (paper Fig. 12): undervolt each stressmark
//! configuration in 0.5 % steps until the R-Unit detects the first
//! failure, and compare available margins.
//!
//! Run with: `cargo run --release --example vmin_margin`

use voltnoise::prelude::*;

fn main() {
    let tb = Testbed::shared();
    println!("== Fig. 12: available margin vs consecutive dI events and stimulus frequency ==");
    let cfg = MarginConfig {
        freqs_hz: vec![35e3, 2.5e6],
        event_counts: vec![Some(1), Some(16), Some(1000), None],
        ..MarginConfig::paper()
    };
    let res = MarginExperiment { cfg }
        .run(tb, &Engine::new())
        .expect("margin campaign runs");
    print!("{}", res.render());
    println!(
        "mean margin: synchronized {:.2} %, unsynchronized {:.2} % (paper: 0-2 % vs 5-7 %)",
        res.mean_sync_margin(),
        res.mean_unsync_margin()
    );
}
