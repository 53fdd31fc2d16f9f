//! Criterion comparison of from-scratch vs checkpoint-fast-forwarded
//! fault-injection campaigns — the simulation-side speed-up that compounds
//! with the paper's SVM-side speed-up.
//!
//! Besides the wall-clock benchmark, this suite asserts the headline
//! invariants once per process: checkpointed records are bit-identical to
//! from-scratch records, and total engine work drops by at least 1.5x on
//! the default 120-cycle workload with uniformly sampled fault cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssresf::{run_campaign_with, CampaignConfig, Dut, Instrument, MetricsRegistry, Workload};
use ssresf_netlist::CellId;
use ssresf_socgen::{build_soc, SocConfig};

fn campaign_variants(c: &mut Criterion) {
    let soc = build_soc(&SocConfig::table1()[0]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let dut = Dut::from_conventions(&flat).expect("conventions");
    let cells: Vec<CellId> = flat
        .iter_cells()
        .map(|(id, _)| id)
        .step_by(13)
        .take(12)
        .collect();
    let base = CampaignConfig {
        workload: Workload {
            reset_cycles: 3,
            run_cycles: 120,
        },
        threads: 1,
        ..CampaignConfig::default()
    };
    let variants = [
        (
            "from_scratch",
            CampaignConfig {
                checkpoint_interval: 0,
                ..base
            },
        ),
        (
            "checkpointed",
            CampaignConfig {
                checkpoint_interval: 10,
                ..base
            },
        ),
        (
            "checkpointed_early_stop",
            CampaignConfig {
                checkpoint_interval: 10,
                early_stop: true,
                ..base
            },
        ),
    ];

    let scratch = run_campaign_with(&dut, &cells, &variants[0].1, &Instrument::default())
        .expect("campaign runs");
    let metrics = MetricsRegistry::new();
    let fast = run_campaign_with(
        &dut,
        &cells,
        &variants[1].1,
        &Instrument::with_metrics(&metrics),
    )
    .expect("campaign runs");
    assert_eq!(
        scratch.records, fast.records,
        "fast-forward changed records"
    );
    let ratio = scratch.total_work as f64 / fast.total_work as f64;
    println!(
        "total_work from-scratch / checkpointed = {ratio:.2}x ({} / {})",
        scratch.total_work, fast.total_work
    );
    assert!(
        ratio >= 1.5,
        "checkpoint fast-forward below 1.5x: {ratio:.2}x"
    );
    println!(
        "checkpointed campaign metrics:\n{}",
        metrics.to_json().to_string_pretty()
    );

    let mut group = c.benchmark_group("campaign_soc1");
    for (name, config) in &variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), config, |b, config| {
            b.iter(|| {
                run_campaign_with(&dut, &cells, config, &Instrument::default())
                    .expect("campaign runs")
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = campaign_variants
}
criterion_main!(benches);
