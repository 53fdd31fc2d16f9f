//! The deterministic counts the traced run reports next to its timings
//! (work units, records, SMO iterations, golden runs computed, frame and
//! cache bytes, cache hits and misses) must repeat exactly, or a later
//! change could not use them as proof of which layer it moved.
//!
//! Runs the `serve_soc10` flow (its analysis and serve cycle take about a
//! second in a release build): `cargo test --release` in `perfbench/`.

use ssresf::label_cells;
use ssresf_perfbench::analysis::{analyze, analyze_traced, Verdict};
use ssresf_perfbench::report::Ops;
use ssresf_perfbench::serve::traced_cycle;
use ssresf_perfbench::setup::prepare;
use ssresf_perfbench::workload::{by_name, seeded_config, serve_jobs};

/// Counts of one traced analysis and one traced serve cycle under `seed`,
/// plus the number of sensitive training labels and the training-set size.
fn counts(seed: u64, run: usize) -> ([u64; 5], [u64; 5], usize, usize) {
    let w = by_name("serve_soc10").expect("serve_soc10 exists");
    let (prepared, _) = prepare(&w.soc).expect("SoC_10 sets up");
    let config = seeded_config(&w, &prepared, seed, 2);

    let (analysis, _) = analyze(&prepared.flat, &config).expect("analysis runs");
    let labels = label_cells(
        &analysis.sample.all_cells(),
        &analysis.campaign,
        &analysis.clustering,
        &analysis.ser,
        config.labeling,
    );
    let positives = labels.iter().filter(|&&(_, sensitive)| sensitive).count();
    let verdict: Verdict = analysis.into();
    let (predictions, analysis_trace) =
        analyze_traced(&prepared.flat, &config).expect("traced analysis runs");
    assert_eq!(
        predictions, verdict.predictions,
        "traced composition diverged"
    );

    let (jobs, _, _) =
        serve_jobs(&w, &prepared, &config, &verdict, seed).expect("reference campaign runs");
    let root = std::env::temp_dir().join(format!(
        "perfbench-counts-{}-{seed}-{run}",
        std::process::id()
    ));
    let mut ops = Ops::default();
    let serve_trace = traced_cycle(&jobs, 2, &root, &mut ops).expect("traced cycle completes");
    assert_eq!(ops.failed, 0, "a traced serve check failed");
    assert!(!root.exists(), "the cycle leaves no cache behind");
    (
        analysis_trace.counts(),
        serve_trace.counts(),
        positives,
        labels.len(),
    )
}

#[test]
fn counts_repeat_across_runs_for_two_seeds() {
    for seed in [1, 2] {
        let first = counts(seed, 0);
        let second = counts(seed, 1);
        assert_eq!(first, second, "seed {seed}: counts changed between runs");
        let (analysis, serve, positives, labeled) = first;
        assert!(
            analysis.iter().all(|&c| c > 0),
            "seed {seed}: a zero count in {analysis:?}"
        );
        // Cold: campaign miss + one golden miss per shard; warm: campaign
        // hit; overlap: campaign miss + one golden hit per shard.
        assert_eq!(serve[0], 2, "seed {seed}: golden runs computed");
        assert_eq!(&serve[3..], &[3, 4], "seed {seed}: cache hits and misses");
        assert!(
            positives > 0 && positives < labeled,
            "seed {seed}: {positives} of {labeled} training labels sensitive; need both classes"
        );
    }
}
