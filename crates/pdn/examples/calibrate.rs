//! Dev tool: prints the die-level impedance profile and coupling numbers
//! used to calibrate `PdnParams`.
use voltnoise_pdn::ac::{find_peaks, log_space, AcAnalysis};
use voltnoise_pdn::topology::{Pdn, PdnParams};

fn main() {
    let params = PdnParams::default();
    let chip = Pdn::chip(&params).unwrap();
    let ac = AcAnalysis::new(chip.netlist());
    let freqs = log_space(1e3, 100e6, 300).expect("valid sweep bounds");
    let prof = ac.sweep(chip.core_node(0), &freqs).unwrap();
    println!("freq_hz,z_mohm");
    for p in prof.iter().step_by(6) {
        println!("{:.4e},{:.4}", p.freq_hz, p.magnitude() * 1e3);
    }
    println!("peaks:");
    for (f, m) in find_peaks(&prof).expect("non-empty profile").iter().take(6) {
        println!("  f={:.4e} Hz |Z|={:.4} mOhm", f, m * 1e3);
    }
    for f in [40e3, 2e6] {
        let z_self = ac.impedance_at(chip.core_node(0), f).unwrap().abs();
        let z_same = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(2), f)
            .unwrap()
            .abs();
        let z_far = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(4), f)
            .unwrap()
            .abs();
        let z_cross = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(1), f)
            .unwrap()
            .abs();
        let z_cross2 = ac
            .transfer_impedance(chip.core_node(0), chip.core_node(3), f)
            .unwrap()
            .abs();
        println!("f={:.2e}: self={:.4} same(0->2)={:.4} same(0->4)={:.4} cross(0->1)={:.4} cross(0->3)={:.4} mOhm",
            f, z_self*1e3, z_same*1e3, z_far*1e3, z_cross*1e3, z_cross2*1e3);
    }
}
