//! Margin-driven active learning: budget savings, determinism across
//! threads and repeat runs, and drop-in parity with the one-shot pipeline.

use ssresf::{
    campaign_jobs, run_campaign_with, run_injection_jobs_with_golden, ActiveLearningConfig, Dut,
    Instrument, Ssresf, SsresfConfig, Workload,
};
use ssresf_netlist::CellId;
use ssresf_socgen::{build_soc, SocConfig};
use std::time::Duration;

/// A reduced-budget configuration mirroring the end-to-end test's, so the
/// active loop exercises every stage quickly in debug builds.
fn quick_config(memory_scale: f64, threads: usize) -> SsresfConfig {
    let mut config = SsresfConfig::default().with_memory_scale(memory_scale);
    config.sampling.fraction = 0.08;
    config.sampling.min_per_cluster = 3;
    config.sampling.seed = 4;
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: 60,
    };
    config.campaign.injections_per_cell = 1;
    config.campaign.threads = threads;
    config.sensitivity.threads = threads;
    config.clustering.threads = threads;
    config
}

fn active_config() -> ActiveLearningConfig {
    ActiveLearningConfig {
        seed_fraction: 0.03,
        seed_min_per_cluster: 2,
        batch_size: 8,
        max_rounds: 6,
        ..ActiveLearningConfig::default()
    }
}

#[test]
fn active_loop_saves_injections_and_still_classifies() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor, 1));
    let result = framework
        .analyze_active(&netlist, &active_config())
        .unwrap();

    // Round accounting is consistent with the records.
    assert!(!result.rounds.is_empty());
    let seed_cells =
        result.injected_cells - result.rounds.iter().map(|r| r.injected).sum::<usize>();
    assert!(seed_cells > 0, "seed sample was empty");
    assert_eq!(
        result.analysis.campaign.records.len(),
        result.injected_cells * framework.config().campaign.injections_per_cell
    );
    assert_eq!(result.analysis.sample.len(), result.injected_cells);

    // Strictly fewer injections than the one-shot equal-proportion draw.
    assert!(
        result.injected_cells < result.baseline_cells,
        "active used {} cells vs one-shot {}",
        result.injected_cells,
        result.baseline_cells
    );
    assert!(result.injections_saved > 0);

    // The final classifier still covers the whole netlist and the
    // qualitative speed-up survives.
    assert_eq!(result.analysis.predictions.len(), netlist.cells().len());
    assert!(
        result.analysis.sensitivity_report.metrics.accuracy() > 0.7,
        "accuracy {:.3}",
        result.analysis.sensitivity_report.metrics.accuracy()
    );
    assert!(result.analysis.timing.speedup() > 10.0);

    // Margin batches target genuinely uncertain cells: once trained
    // rounds begin, recorded margins are finite and non-negative.
    for round in result.rounds.iter().filter(|r| !r.fallback) {
        assert!(round.min_margin.is_finite() && round.min_margin >= 0.0);
        assert!(round.mean_margin >= round.min_margin || round.injected == 0);
    }
}

#[test]
fn active_analysis_is_identical_across_thread_counts_and_repeats() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let run = |threads: usize| {
        let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor, threads));
        framework
            .analyze_active(&netlist, &active_config())
            .unwrap()
    };
    let serial = run(1);
    let repeat = run(1);
    // Repeat runs of the same seed are bit-identical in every
    // deterministic artifact.
    assert_eq!(
        serial.analysis.campaign.records,
        repeat.analysis.campaign.records
    );
    assert_eq!(serial.analysis.predictions, repeat.analysis.predictions);
    assert_eq!(serial.rounds, repeat.rounds);
    assert_eq!(serial.injections_saved, repeat.injections_saved);

    for threads in [2usize, 8] {
        let threaded = run(threads);
        assert_eq!(
            serial.analysis.campaign.records, threaded.analysis.campaign.records,
            "records differ at {threads} threads"
        );
        assert_eq!(
            serial.analysis.predictions, threaded.analysis.predictions,
            "predictions differ at {threads} threads"
        );
        assert_eq!(
            serial.rounds, threaded.rounds,
            "rounds differ at {threads} threads"
        );
        assert_eq!(serial.injected_cells, threaded.injected_cells);
        assert_eq!(serial.baseline_cells, threaded.baseline_cells);
        assert_eq!(
            serial.analysis.ser.chip_ser.to_bits(),
            threaded.analysis.ser.chip_ser.to_bits()
        );
    }
}

#[test]
fn both_pipelines_charge_the_work_the_executor_reports() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor, 1));
    let config = framework.config().campaign;
    let dut = Dut::from_conventions(&netlist).unwrap();
    let golden = dut
        .run_golden_with_checkpoints(config.engine, &config.workload, config.checkpoint_interval)
        .unwrap();
    let injections_only = |cells: &[CellId]| {
        let jobs = campaign_jobs(&dut, cells, &config).unwrap();
        run_injection_jobs_with_golden(&dut, jobs, &config, &golden, &Instrument::default())
            .unwrap()
    };

    // One-shot: exactly the standalone campaign over the sample, with the
    // golden run charged once.
    let analysis = framework.analyze(&netlist).unwrap();
    let cells = analysis.sample.all_cells();
    let standalone = run_campaign_with(&dut, &cells, &config, &Instrument::default()).unwrap();
    assert_eq!(analysis.campaign.records, standalone.records);
    assert_eq!(analysis.campaign.total_work, standalone.total_work);
    assert_eq!(analysis.campaign.telemetry, standalone.telemetry);
    assert_eq!(
        analysis.campaign.total_work,
        injections_only(&cells).total_work + golden.outcome.work
    );

    // Active learning: injections only, in injection order (the scalar
    // engine's per-injection work does not depend on how rounds split).
    let active = framework
        .analyze_active(&netlist, &active_config())
        .unwrap();
    let campaign = &active.analysis.campaign;
    assert_eq!(campaign.golden_time, Duration::ZERO);
    let mut order: Vec<CellId> = campaign.records.iter().map(|r| r.cell).collect();
    order.dedup();
    assert_eq!(order.len(), active.injected_cells);
    let replay = injections_only(&order);
    assert_eq!(campaign.records, replay.records);
    assert_eq!(campaign.total_work, replay.total_work);
    assert_eq!(campaign.telemetry, replay.telemetry);
}

#[test]
fn cached_features_match_a_fresh_extraction() {
    // Satellite of the same change: `Analysis.features` is the single
    // source of truth for feature records — it must equal what a fresh
    // extractor produces against the golden activity.
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor, 1));
    let analysis = framework.analyze(&netlist).unwrap();
    let extractor = ssresf_netlist::FeatureExtractor::new(&netlist).unwrap();
    for (id, _) in netlist.iter_cells() {
        let fresh = extractor.extract_cell(id, Some(&analysis.campaign.golden_activity));
        let cached = analysis.features_of(id);
        assert_eq!(cached.cell, fresh.cell);
        assert_eq!(cached.values.len(), fresh.values.len());
        for (a, b) in cached.values.iter().zip(&fresh.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {:?}", id);
        }
    }
}

#[test]
fn active_rejects_bad_configs() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor, 1));
    for bad in [
        ActiveLearningConfig {
            seed_fraction: 0.0,
            ..ActiveLearningConfig::default()
        },
        ActiveLearningConfig {
            seed_fraction: 1.5,
            ..ActiveLearningConfig::default()
        },
        ActiveLearningConfig {
            batch_size: 0,
            ..ActiveLearningConfig::default()
        },
        ActiveLearningConfig {
            max_rounds: 0,
            ..ActiveLearningConfig::default()
        },
        ActiveLearningConfig {
            stability_threshold: -0.1,
            ..ActiveLearningConfig::default()
        },
    ] {
        assert!(
            framework.analyze_active(&netlist, &bad).is_err(),
            "{bad:?} not rejected"
        );
    }
}
