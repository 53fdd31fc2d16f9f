//! Close the loop: use SSRESF's sensitivity predictions to selectively
//! TMR-harden the SoC, then re-run the same fault campaign to measure the
//! SER reduction per unit area — guided vs random hardening.
//!
//! ```sh
//! cargo run --release --example selective_hardening
//! ```

use ssresf::{
    run_campaign_with, selective_harden, Dut, HardeningStrategy, Instrument, Ssresf, SsresfConfig,
    Workload,
};
use ssresf_socgen::{build_soc, SocConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = build_soc(&SocConfig::table1()[0])?;
    let netlist = soc.design.flatten()?;

    // 1. Analyze the baseline design.
    let mut config = SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor);
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: 80,
    };
    config.campaign.injections_per_cell = 2;
    let framework = Ssresf::new(config);
    let analysis = framework.analyze(&netlist)?;
    let baseline_ser = analysis.ser.chip_ser;
    println!(
        "baseline: {} cells, chip SER {:.2}%",
        netlist.cells().len(),
        baseline_ser * 100.0
    );

    // 2. Harden 25% of the sequential cells, guided vs random, and re-run
    //    the *same* fault list on the transformed netlists.
    let sampled = analysis.sample.all_cells();
    println!(
        "\n{:<12} {:>10} {:>12} {:>12} {:>14}",
        "strategy", "hardened", "area ovhd", "SER after", "SER reduction"
    );
    for strategy in [
        HardeningStrategy::SvmGuided,
        HardeningStrategy::Random { seed: 11 },
    ] {
        let result = selective_harden(&netlist, &analysis, 0.25, strategy)?;
        let dut = Dut::from_conventions(&result.netlist)?;
        let outcome = run_campaign_with(
            &dut,
            &sampled,
            &framework.config().campaign,
            &Instrument::default(),
        )?;
        let ser = outcome.soft_errors() as f64 / outcome.records.len().max(1) as f64;
        let name = match strategy {
            HardeningStrategy::SvmGuided => "svm-guided",
            HardeningStrategy::Random { .. } => "random",
        };
        println!(
            "{:<12} {:>10} {:>11.1}% {:>11.2}% {:>13.1}%",
            name,
            result.report.hardened.len(),
            result.report.area_overhead() * 100.0,
            ser * 100.0,
            (1.0 - ser / baseline_ser.max(1e-12)) * 100.0
        );
    }
    println!("\n(Guided hardening should buy more SER reduction at the same area budget.)");
    Ok(())
}
