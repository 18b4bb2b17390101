//! The paper's noise characterization in one run: frequency sweeps with
//! and without synchronization (Figs. 7a/9), the impedance profile
//! (Fig. 7b), an oscilloscope shot (Fig. 8) and the misalignment
//! sensitivity (Fig. 10). Uses reduced sweep sizes so it finishes in a
//! couple of minutes; the bench binaries run the paper-scale versions.
//!
//! Run with: `cargo run --release --example noise_characterization`

use voltnoise::prelude::*;

fn main() {
    let tb = Testbed::shared();
    let engine = Engine::new();

    println!("== Fig. 7b: impedance profile ==");
    let prof = run_impedance(tb.chip(), &ImpedanceConfig::reduced()).expect("AC sweep");
    for (f, z) in prof.signal.peaks.iter().take(3) {
        println!("  resonance: {:.3} mOhm at {:.3e} Hz", z * 1e3, f);
    }

    println!("\n== Figs. 7a / 9: noise vs stimulus frequency ==");
    let sweep = |synced| {
        SweepExperiment {
            cfg: SweepConfig::reduced(),
            synced,
        }
        .run(tb, &engine)
        .expect("sweep")
    };
    let (unsync, synced) = (sweep(false), sweep(true));
    println!("  freq_hz      unsync_max  sync_max");
    for (u, s) in unsync.points.iter().zip(&synced.points) {
        println!(
            "  {:9.3e}  {:10.1}  {:8.1}",
            u.freq_hz,
            u.max_pct(),
            s.max_pct()
        );
    }
    let (fu, mu) = unsync.peak().expect("non-empty sweep");
    let (fs, ms) = synced.peak().expect("non-empty sweep");
    println!("  unsync peak {mu:.1} %p2p at {fu:.3e} Hz; sync peak {ms:.1} %p2p at {fs:.3e} Hz");

    println!("\n== Fig. 8: oscilloscope shot at the resonant band ==");
    let shot = ScopeShotExperiment {
        cfg: ScopeConfig::default(),
    }
    .run(tb, &engine)
    .expect("scope capture");
    print!("{}", shot.render());

    println!("== Fig. 10: misalignment sensitivity ==");
    let mis = MisalignExperiment {
        cfg: MisalignConfig::reduced(),
    }
    .run(tb, &engine)
    .expect("misalignment sweep");
    for p in &mis.points {
        println!(
            "  max misalignment {:6.1} ns -> {:.1} %p2p",
            p.max_ns(),
            p.mean_pct()
        );
    }
}
