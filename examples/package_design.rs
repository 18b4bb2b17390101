//! Package-design flow (paper §II-B): impedance masks, compliance
//! checking, and decap sizing — how designers "ensure that a target
//! maximum impedance Z is not surpassed for any given frequency by
//! placing enough decaps in parallel".
//!
//! Run with: `cargo run --release --example package_design`

use voltnoise::pdn::design::{check_mask, size_decap, ImpedanceMask};
use voltnoise::pdn::{Pdn, PdnParams};

fn main() {
    let mask = ImpedanceMask::zlike_default();

    println!("== modern (deep-trench eDRAM) design vs the impedance mask ==");
    let modern = Pdn::chip(&PdnParams::default()).expect("default params valid");
    let v = check_mask(&modern, modern.core_node(0), &mask, 200).expect("AC sweep");
    println!("violations: {}", v.len());

    println!("\n== legacy design (1/40 on-die decap) ==");
    let legacy_params = PdnParams::legacy_decap();
    let legacy = Pdn::chip(&legacy_params).expect("legacy params valid");
    let v = check_mask(&legacy, legacy.core_node(0), &mask, 200).expect("AC sweep");
    println!("violations: {}", v.len());
    for viol in v.iter().take(5) {
        println!(
            "  {:.3e} Hz: {:.3} mOhm > limit {:.3} mOhm",
            viol.freq_hz,
            viol.z_ohm * 1e3,
            viol.limit_ohm * 1e3
        );
    }

    println!("\n== sizing the decap to recover compliance ==");
    let sizing = size_decap(&legacy_params, &mask, 64.0, 150).expect("sizing runs");
    println!(
        "smallest compliant decap multiplier: {:.1}x (paper: deep trench added 40x)",
        sizing.decap_scale
    );
    println!(
        "sized on-die capacitance: domain {:.0} uF, L3 {:.0} uF, per-core {:.1} uF; residual violations: {}",
        sizing.params.c_domain * 1e6,
        sizing.params.c_l3 * 1e6,
        sizing.params.c_core * 1e6,
        sizing.violations.len()
    );
}
