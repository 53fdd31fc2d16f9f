//! Ablation: SVM-guided vs random selective TMR hardening across area
//! budgets — the "what is the sensitivity analysis worth" study.
//!
//! ```sh
//! cargo run --release -p ssresf-bench --bin ablation_hardening
//! ```

use ssresf::{
    run_campaign_with, selective_harden, Dut, HardeningStrategy, Instrument, Ssresf, Workload,
};
use ssresf_bench::{analysis_config, quick, soc};

fn main() {
    let (built, flat) = soc(0);
    let mut config = analysis_config(&built, flat.cells().len());
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: if quick() { 50 } else { 80 },
    };
    config.campaign.injections_per_cell = if quick() { 1 } else { 2 };
    let framework = Ssresf::new(config);
    let analysis = framework.analyze(&flat).expect("analysis succeeds");
    let sampled = analysis.sample.all_cells();
    let baseline = analysis.ser.chip_ser.max(1e-12);
    println!(
        "Ablation: selective TMR on PULP SoC_1 (baseline chip SER {:.2}%)\n",
        baseline * 100.0
    );
    println!(
        "{:>8} {:<12} {:>10} {:>12} {:>12}",
        "budget", "strategy", "hardened", "area ovhd", "SER after"
    );

    let budgets = if quick() {
        vec![0.1, 0.3]
    } else {
        vec![0.1, 0.25, 0.5]
    };
    for budget in budgets {
        for strategy in [
            HardeningStrategy::SvmGuided,
            HardeningStrategy::Random { seed: 17 },
        ] {
            let result =
                selective_harden(&flat, &analysis, budget, strategy).expect("hardening succeeds");
            let dut = Dut::from_conventions(&result.netlist).expect("conventions");
            let outcome = run_campaign_with(
                &dut,
                &sampled,
                &framework.config().campaign,
                &Instrument::default(),
            )
            .expect("campaign runs");
            let ser = outcome.soft_errors() as f64 / outcome.records.len().max(1) as f64;
            let name = match strategy {
                HardeningStrategy::SvmGuided => "svm-guided",
                HardeningStrategy::Random { .. } => "random",
            };
            println!(
                "{:>7.0}% {:<12} {:>10} {:>11.1}% {:>11.2}%",
                budget * 100.0,
                name,
                result.report.hardened.len(),
                result.report.area_overhead() * 100.0,
                ser * 100.0
            );
        }
    }
    println!("\n(At equal area, guided hardening should leave a lower residual SER.)");
}
