//! Ablation: Eq.-1 cluster-stratified sampling vs flat random sampling.
//!
//! The paper motivates clustering as a way to "optimize fault injection
//! sample selection and distribution". This study measures the chip-SER
//! estimation error of both strategies at equal sample budgets, against a
//! large-budget reference, plus the SER-estimate convergence as the
//! sampling fraction grows.
//!
//! ```sh
//! cargo run --release -p ssresf-bench --bin ablation_sampling
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssresf::{
    cluster_cells, evaluate_ser, run_campaign_with, sample_clusters, CampaignConfig, ClusterSample,
    Dut, Instrument, SamplingConfig, Workload,
};
use ssresf_bench::{quick, soc};
use ssresf_netlist::CellId;

fn main() {
    let (_built, flat) = soc(0);
    let dut = Dut::from_conventions(&flat).expect("soc has clk/rst_n");
    let workload = Workload {
        reset_cycles: 3,
        run_cycles: if quick() { 50 } else { 80 },
    };
    let campaign_config = CampaignConfig {
        workload,
        ..CampaignConfig::default()
    };
    let clustering = cluster_cells(&flat, &Default::default()).expect("clustering succeeds");

    // Reference: a large-budget stratified campaign.
    let reference_sample = sample_clusters(
        &clustering,
        &SamplingConfig {
            fraction: if quick() { 0.3 } else { 0.6 },
            min_per_cluster: 8,
            seed: 9,
            budget: None,
        },
    )
    .expect("sampling succeeds");
    let reference = run_campaign_with(
        &dut,
        &reference_sample.all_cells(),
        &campaign_config,
        &Instrument::default(),
    )
    .expect("campaign runs");
    let reference_ser = evaluate_ser(&flat, &clustering, &reference_sample, &reference)
        .expect("ser evaluates")
        .chip_ser;
    println!("reference chip SER (large budget): {reference_ser:.4}\n");

    println!(
        "{:>10} {:>8} {:>18} {:>18}",
        "fraction", "cells", "stratified |err|", "flat |err|"
    );
    let fractions = if quick() {
        vec![0.05, 0.15]
    } else {
        vec![0.05, 0.10, 0.20, 0.35]
    };
    for fraction in fractions {
        let mut strat_err = 0.0;
        let mut flat_err = 0.0;
        let trials = if quick() { 2 } else { 4 };
        let mut budget_cells = 0usize;
        for trial in 0..trials {
            // Stratified (the paper's approach).
            let sample = sample_clusters(
                &clustering,
                &SamplingConfig {
                    fraction,
                    min_per_cluster: 2,
                    seed: 100 + trial,
                    budget: None,
                },
            )
            .expect("sampling succeeds");
            let budget = sample.len();
            budget_cells = budget;
            let outcome = run_campaign_with(
                &dut,
                &sample.all_cells(),
                &campaign_config,
                &Instrument::default(),
            )
            .expect("campaign");
            let ser = evaluate_ser(&flat, &clustering, &sample, &outcome)
                .expect("ser")
                .chip_ser;
            strat_err += (ser - reference_ser).abs() / trials as f64;

            // Flat random sampling at the same budget, evaluated as a plain
            // error ratio (no cluster weighting is possible).
            let mut all: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
            all.shuffle(&mut StdRng::seed_from_u64(200 + trial));
            all.truncate(budget);
            let outcome = run_campaign_with(&dut, &all, &campaign_config, &Instrument::default())
                .expect("campaign");
            let ser = outcome.soft_errors() as f64 / outcome.records.len().max(1) as f64;
            flat_err += (ser - reference_ser).abs() / trials as f64;

            // Keep the stratified sample's shape available for reuse checks.
            let _ = ClusterSample {
                per_cluster: sample.per_cluster.clone(),
            };
        }
        println!(
            "{:>10.2} {:>8} {:>18.4} {:>18.4}",
            fraction, budget_cells, strat_err, flat_err
        );
    }
    println!("\n(Lower error at equal budget favors the paper's cluster-stratified sampling.)");
}
