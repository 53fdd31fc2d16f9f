//! The Table-III experiment in miniature: compare the runtime of full
//! fault-injection simulation (both engines) against SVM classification for
//! identifying highly sensitive nodes, across a particle-flux sweep.
//!
//! ```sh
//! cargo run --release --example svm_speedup
//! ```

use ssresf::{
    run_campaign_with, CampaignConfig, Dut, EngineKind, Instrument, Ssresf, SsresfConfig, Workload,
};
use ssresf_netlist::CellId;
use ssresf_radiation::RadiationEnvironment;
use ssresf_socgen::{build_soc, SocConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = build_soc(&SocConfig::table1()[0])?;
    let netlist = soc.design.flatten()?;
    let dut = Dut::from_conventions(&netlist)?;
    let workload = Workload {
        reset_cycles: 3,
        run_cycles: 80,
    };

    // Train the classifier once from a sampled campaign.
    let mut config = SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor);
    config.campaign.workload = workload;
    let analysis = Ssresf::new(config).analyze(&netlist)?;
    println!(
        "trained SVM: accuracy {:.1}%, {} nodes in the netlist\n",
        analysis.sensitivity_report.metrics.accuracy() * 100.0,
        netlist.cells().len()
    );

    // Target nodes "with unknown sensitivity": everything not sampled.
    let sampled = analysis.sample.all_cells();
    let unknown: Vec<CellId> = netlist
        .iter_cells()
        .map(|(id, _)| id)
        .filter(|id| !sampled.contains(id))
        .collect();

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "Flux", "EventSim(s)", "LevelSim(s)", "Model(s)", "Spd(Ev)", "Spd(Lv)", "Agree"
    );
    for env in RadiationEnvironment::flux_sweep() {
        // Full-simulation reference: inject every unknown node (subsampled
        // here to keep the example fast, then scaled to the full count).
        let probe: Vec<CellId> = unknown.iter().copied().step_by(20).collect();
        let scale = unknown.len() as f64 / probe.len() as f64;

        let base = CampaignConfig {
            workload,
            environment: env,
            ..CampaignConfig::default()
        };
        let t0 = Instant::now();
        let ev = run_campaign_with(
            &dut,
            &probe,
            &CampaignConfig {
                engine: EngineKind::EventDriven,
                ..base
            },
            &Instrument::default(),
        )?;
        let event_time = t0.elapsed().as_secs_f64() * scale;

        let t1 = Instant::now();
        let _lv = run_campaign_with(
            &dut,
            &probe,
            &CampaignConfig {
                engine: EngineKind::Levelized,
                ..base
            },
            &Instrument::default(),
        )?;
        let level_time = t1.elapsed().as_secs_f64() * scale;

        // Model path: classify every unknown node.
        let t2 = Instant::now();
        let mut predicted_sensitive = 0usize;
        for &cell in &unknown {
            let feature = &analysis.predictions.get(cell.index()).map(|&(_, s)| s);
            if feature.unwrap_or(false) {
                predicted_sensitive += 1;
            }
        }
        let model_time = t2.elapsed().as_secs_f64() + analysis.timing.prediction().as_secs_f64();

        // Agreement on the probed subset: simulated verdict vs prediction.
        let agree = ev
            .records
            .iter()
            .filter(|r| {
                let predicted = analysis.predictions[r.cell.index()].1;
                predicted == r.soft_error
            })
            .count() as f64
            / ev.records.len().max(1) as f64;

        println!(
            "{:>8.0e} {:>12.2} {:>12.2} {:>12.4} {:>9.1}x {:>9.1}x {:>8.1}%",
            env.flux.value(),
            event_time,
            level_time,
            model_time,
            event_time / model_time.max(1e-9),
            level_time / model_time.max(1e-9),
            agree * 100.0
        );
        let _ = predicted_sensitive;
    }
    Ok(())
}
