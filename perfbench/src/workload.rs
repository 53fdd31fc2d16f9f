//! The workloads and the untraced and traced runs over them.
//!
//! Every workload runs the same user flow on its own netlist: set the
//! netlist up, analyze it into a sensitive-node list, then check that list
//! against simulation by serving a labeling campaign over held-out cells
//! through worker processes (cold, warm repeat, disjoint overlap). The
//! workloads differ in which layers dominate:
//!
//! - `paper_soc5`: the paper's pipeline on SoC_5 (event-driven scalar
//!   campaign); injections dominate the analysis and the jobs, and the
//!   golden run has no cacheable artifact.
//! - `serve_soc10`: SoC_10 with cheap batched simulation and every cell
//!   outside the sample served, so process spawn, frame codec and cache
//!   dominate the jobs, and the golden artifact is reused.

use crate::analysis::{self, AnalysisTrace, Verdict};
use crate::report::{ensure, iq_mean, median_of_medians, peak_rss_mib, Metrics, Ops};
use crate::serve::{self, ServeJobs, ServeTrace, Server};
use crate::setup::{prepare, Prepared, SetupTimes};
use ssresf::{run_campaign_with, Dut, EngineKind, Instrument, SsresfConfig, Workload as Cycles};
use ssresf_bench::analysis_config;
use ssresf_netlist::CellId;
use ssresf_serve::{JobSpec, NetlistSpec};
use ssresf_socgen::SocConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["paper_soc5", "serve_soc10"];

/// One workload: a netlist, its analysis config and its held-out size.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The SoC preset analyzed and served.
    pub soc: SocConfig,
    /// Held-out cells served and labeled; `None` serves every cell
    /// outside the pipeline's sample.
    pub heldout: Option<usize>,
    /// The analysis config before seeds and threads are applied.
    pub base_config: fn(&Prepared) -> SsresfConfig,
}

/// The bench crate's standard Table-I analysis config.
fn paper_config(p: &Prepared) -> SsresfConfig {
    analysis_config(&p.built, p.flat.cells().len())
}

/// The standard analysis config with `ssresf-serve run --batched`'s
/// campaign: 40 cycles, two injections per cell, 64-lane levelized
/// batching with collapse and refill.
fn serve_config(p: &Prepared) -> SsresfConfig {
    let mut config = paper_config(p);
    config.campaign.workload = Cycles {
        reset_cycles: 3,
        run_cycles: 40,
    };
    config.campaign.injections_per_cell = 2;
    config.campaign.engine = EngineKind::Levelized;
    config.campaign.batching = true;
    config.campaign.collapse_faults = true;
    config.campaign.lane_refill = true;
    config
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    let table1 = SocConfig::table1();
    Some(match name {
        "paper_soc5" => Workload {
            name: "paper_soc5",
            soc: table1[4].clone(),
            heldout: Some(400),
            base_config: paper_config,
        },
        "serve_soc10" => Workload {
            name: "serve_soc10",
            soc: table1[9].clone(),
            heldout: None,
            base_config: serve_config,
        },
        _ => return None,
    })
}

/// What one run is given.
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget in seconds (every timed loop runs once).
    pub seconds: f64,
    /// Threads per analysis stage and per single-process campaign.
    pub threads: usize,
    /// Shards (worker processes) per served job.
    pub shards: usize,
    /// The `ssresf-serve` binary.
    pub worker: PathBuf,
    /// Directory for artifact caches; created and emptied by the run.
    pub work_dir: PathBuf,
}

/// SplitMix64 step: derives independent streams from one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's analysis config under `seed`, with every thread count
/// set explicitly.
pub fn seeded_config(w: &Workload, p: &Prepared, seed: u64, threads: usize) -> SsresfConfig {
    let mut config = (w.base_config)(p);
    config.clustering.seed = mix(seed, 1);
    config.sampling.seed = mix(seed, 2);
    config.campaign.seed = mix(seed, 3);
    config.clustering.threads = threads;
    config.campaign.threads = threads;
    config.sensitivity.threads = threads;
    config
}

/// Held-out cells: a seeded draw from the cells outside the pipeline's
/// sample, split into two sorted, disjoint halves.
fn heldout_cells(
    w: &Workload,
    p: &Prepared,
    verdict: &Verdict,
    seed: u64,
) -> (Vec<CellId>, Vec<CellId>) {
    let mut sampled = verdict.sampled.clone();
    sampled.sort();
    let mut pool: Vec<CellId> = p
        .flat
        .iter_cells()
        .map(|(id, _)| id)
        .filter(|id| sampled.binary_search(id).is_err())
        .collect();
    let mut state = mix(seed, 4);
    for i in (1..pool.len()).rev() {
        state = mix(state, i as u64);
        pool.swap(i, (state % (i as u64 + 1)) as usize);
    }
    pool.truncate(w.heldout.unwrap_or(pool.len()));
    let mut second = pool.split_off(pool.len() / 2);
    pool.sort();
    second.sort();
    (pool, second)
}

/// Builds the serve jobs over the held-out halves and simulates their
/// single-process reference (outside every timed region). Returns the
/// jobs and the held-out cells with their reference campaign, for
/// accuracy.
///
/// # Errors
///
/// Describes a reference-campaign failure.
pub fn serve_jobs(
    w: &Workload,
    p: &Prepared,
    config: &SsresfConfig,
    verdict: &Verdict,
    seed: u64,
) -> Result<(ServeJobs, Vec<CellId>, ssresf::CampaignOutcome), String> {
    let (first, second) = heldout_cells(w, p, verdict, seed);
    let heldout: Vec<CellId> = first.iter().chain(&second).copied().collect();
    let dut = Dut::from_conventions(&p.flat).map_err(|e| e.to_string())?;
    let reference = run_campaign_with(&dut, &heldout, &config.campaign, &Instrument::default())
        .map_err(|e| format!("held-out reference campaign: {e}"))?;
    let split = first.len() * config.campaign.injections_per_cell;
    let spec = |cells: Vec<CellId>| JobSpec {
        netlist: NetlistSpec::Soc {
            preset: w.soc.name.clone(),
        },
        cells,
        // One thread per worker process: the shards fill the cores.
        config: ssresf::CampaignConfig {
            threads: 1,
            ..config.campaign
        },
    };
    let jobs = ServeJobs {
        first_reference: reference.records[..split].to_vec(),
        second_reference: reference.records[split..].to_vec(),
        first: spec(first),
        second: spec(second),
    };
    Ok((jobs, heldout, reference))
}

/// Seconds of short operations (set-ups and warm jobs) in each gap
/// between the long ones. The machine's speed drifts over seconds, so the
/// short operations are sampled in every gap of the run rather than in a
/// few bursts, and each gap counts as one group of samples.
const GAP_S: f64 = 0.5;

/// Set-ups for [`GAP_S`] seconds (at least one), each netlist dropped at
/// once.
fn set_up_for_a_gap(w: &Workload, setups: &mut Vec<SetupTimes>) -> Result<(), String> {
    let started = Instant::now();
    loop {
        setups.push(prepare(&w.soc)?.1);
        if started.elapsed().as_secs_f64() >= GAP_S {
            return Ok(());
        }
    }
}

/// One gap of the untraced run: set-ups alternating with warm jobs for
/// [`GAP_S`] seconds (at least one of each), added as one group to each
/// of `setups` and `warm`.
fn short_ops(
    w: &Workload,
    server: &Server<'_>,
    setups: &mut Vec<Vec<f64>>,
    warm: &mut Vec<Vec<f64>>,
    ops: &mut Ops,
) -> Result<(), String> {
    let mut gap_setups = Vec::new();
    let mut gap_warm = Vec::new();
    let started = Instant::now();
    loop {
        gap_setups.push(prepare(&w.soc)?.1.total());
        gap_warm.extend(server.warm(ops));
        if started.elapsed().as_secs_f64() >= GAP_S {
            break;
        }
    }
    setups.push(gap_setups);
    if !gap_warm.is_empty() {
        warm.push(gap_warm);
    }
    Ok(())
}

/// One untraced analysis, counted as an operation and checked: every
/// cell is predicted, and a repeat predicts exactly as the first did.
/// Returns the analysis' seconds and, for the first one, its verdict.
fn untraced_analysis(
    p: &Prepared,
    config: &SsresfConfig,
    first: Option<&Verdict>,
    ops: &mut Ops,
) -> Option<(f64, Verdict)> {
    match analysis::analyze(&p.flat, config) {
        Ok((analysis, seconds)) => {
            let check =
                analysis::check_every_cell(&p.flat, &analysis.predictions).and_then(
                    |()| match first {
                        Some(f) => ensure(
                            f.predictions == analysis.predictions,
                            "repeated analysis changed its predictions",
                        ),
                        None => Ok(()),
                    },
                );
            ops.record("analysis", check);
            Some((seconds, analysis.into()))
        }
        Err(e) => {
            ops.record("analysis", Err(e));
            None
        }
    }
}

/// The untraced run: every end-to-end metric. After the first set-up, one
/// analysis gives the sample the held-out cells avoid. Then, until the
/// time is up: a cold job on an empty cache, the overlap job and an
/// analysis, each followed by a gap of set-ups and warm jobs. The long
/// operations are reported as interquartile means of their samples, the
/// short ones as the median of their per-gap medians.
///
/// # Errors
///
/// Fails when set-up, the first analysis or the reference campaign fails,
/// or when no cold, warm or overlap job completes.
pub fn run_untraced(w: &Workload, args: &RunArgs, ops: &mut Ops) -> Result<Metrics, String> {
    let (prepared, _) = prepare(&w.soc)?;
    let config = seeded_config(w, &prepared, args.seed, args.threads);

    let (seconds, verdict) =
        untraced_analysis(&prepared, &config, None, ops).ok_or("the first analysis failed")?;
    let mut analysis_s = vec![seconds];
    let (jobs, heldout, reference) = serve_jobs(w, &prepared, &config, &verdict, args.seed)?;
    let accuracy = analysis::heldout_accuracy(&verdict, &heldout, &reference, &config)?;
    drop(reference);

    let cache_root = args.work_dir.join("cache");
    let server = Server {
        jobs: &jobs,
        worker: &args.worker,
        shards: args.shards,
        cache_root: &cache_root,
    };
    let (mut cold, mut overlap) = (Vec::new(), Vec::new());
    let (mut setups, mut warm) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        if !server.reset(ops) {
            break;
        }
        cold.extend(server.cold(ops));
        short_ops(w, &server, &mut setups, &mut warm, ops)?;
        overlap.extend(server.overlap(ops));
        short_ops(w, &server, &mut setups, &mut warm, ops)?;
        if let Some((seconds, _)) = untraced_analysis(&prepared, &config, Some(&verdict), ops) {
            analysis_s.push(seconds);
        }
        short_ops(w, &server, &mut setups, &mut warm, ops)?;
    }
    server.reset(ops);
    if cold.is_empty() || warm.is_empty() || overlap.is_empty() {
        return Err("no cold, warm or overlap job completed".into());
    }
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median_of_medians(&setups), "s");
    metrics.set("analysis_s", iq_mean(&analysis_s), "s");
    metrics.set("accuracy", accuracy, "ratio");
    metrics.set("job_cold_s", iq_mean(&cold), "s");
    metrics.set("job_warm_s", median_of_medians(&warm), "s");
    metrics.set("job_overlap_s", iq_mean(&overlap), "s");
    metrics.set("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(metrics)
}

/// Interquartile mean of the per-iteration values `f` picks.
fn central<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    iq_mean(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: every per-layer metric.
///
/// # Errors
///
/// Fails when set-up fails or no traced analysis or serve cycle completes.
pub fn run_traced(w: &Workload, args: &RunArgs, ops: &mut Ops) -> Result<Metrics, String> {
    let (prepared, first_setup) = prepare(&w.soc)?;
    let mut setups = vec![first_setup];
    let config = seeded_config(w, &prepared, args.seed, args.threads);

    let (seconds, verdict) =
        untraced_analysis(&prepared, &config, None, ops).ok_or("the first analysis failed")?;
    let mut untraced_s = vec![seconds];
    let (jobs, _, _) = serve_jobs(w, &prepared, &config, &verdict, args.seed)?;
    let cache_root = args.work_dir.join("cache");

    let mut traces: Vec<AnalysisTrace> = Vec::new();
    let mut cycles: Vec<ServeTrace> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        set_up_for_a_gap(w, &mut setups)?;
        if let Some(trace) = traced_serve_cycle(&jobs, args, &cache_root, cycles.first(), ops) {
            cycles.push(trace);
        }
        if let Some(trace) = traced_analysis(&prepared, &config, &verdict, traces.first(), ops) {
            traces.push(trace);
        }
        if let Some((seconds, _)) = untraced_analysis(&prepared, &config, Some(&verdict), ops) {
            untraced_s.push(seconds);
        }
    }
    if traces.is_empty() || cycles.is_empty() {
        return Err("no traced analysis or serve cycle completed".into());
    }
    let mut metrics = Metrics::default();
    metrics.set("socgen.build_s", central(&setups, |s| s.build), "s");
    metrics.set("netlist.flatten_s", central(&setups, |s| s.flatten), "s");
    metrics.set("netlist.levelize_s", central(&setups, |s| s.levelize), "s");
    metrics.set("core.dut_s", central(&setups, |s| s.dut), "s");
    let a = |f: fn(&AnalysisTrace) -> f64| central(&traces, f);
    metrics.set("core.cluster_s", a(|t| t.cluster_s), "s");
    metrics.set("core.sample_s", a(|t| t.sample_s), "s");
    metrics.set("core.golden_s", a(|t| t.golden_s), "s");
    metrics.set("core.golden_work", a(|t| t.golden_work as f64), "count");
    metrics.set("core.injections_s", a(|t| t.injections_s), "s");
    metrics.set(
        "core.injection_records",
        a(|t| t.injection_records as f64),
        "count",
    );
    metrics.set(
        "core.injection_work",
        a(|t| t.injection_work as f64),
        "count",
    );
    metrics.set(
        "core.injections_per_s",
        a(AnalysisTrace::injections_per_s),
        "1/s",
    );
    metrics.set("core.ser_s", a(|t| t.ser_s), "s");
    metrics.set("netlist.features_s", a(|t| t.features_s), "s");
    metrics.set(
        "netlist.features_cells_per_s",
        a(AnalysisTrace::features_cells_per_s),
        "1/s",
    );
    metrics.set("mlcore.svm_train_s", a(|t| t.svm_train_s), "s");
    metrics.set(
        "mlcore.smo_iterations",
        a(|t| t.smo_iterations as f64),
        "count",
    );
    metrics.set(
        "mlcore.kernel_cache_hit_rate",
        a(AnalysisTrace::kernel_cache_hit_rate),
        "ratio",
    );
    metrics.set("mlcore.predict_s", a(|t| t.predict_s), "s");
    metrics.set(
        "mlcore.predict_cells_per_s",
        a(AnalysisTrace::predict_cells_per_s),
        "1/s",
    );
    metrics.set(
        "trace.unattributed_s",
        a(AnalysisTrace::unattributed_s),
        "s",
    );
    metrics.set(
        "trace.overhead_s",
        a(|t| t.total_s) - iq_mean(&untraced_s),
        "s",
    );

    let s = |f: fn(&ServeTrace) -> f64| central(&cycles, f);
    metrics.set("serve.spawn_s", s(|t| t.spawn_s), "s");
    metrics.set("serve.netlist_build_s", s(|t| t.netlist_build_s), "s");
    metrics.set("serve.key_s", s(|t| t.key_s), "s");
    metrics.set("serve.shard_sim_s", s(|t| t.shard_sim_s), "s");
    metrics.set(
        "serve.golden_computed",
        s(|t| t.golden_computed as f64),
        "count",
    );
    metrics.set("serve.encode_s", s(|t| t.encode_s), "s");
    metrics.set("serve.decode_s", s(|t| t.decode_s), "s");
    metrics.set("serve.frame_bytes", s(|t| t.frame_bytes as f64), "bytes");
    metrics.set("serve.merge_s", s(|t| t.merge_s), "s");
    metrics.set("serve.cache_put_s", s(|t| t.cache_put_s), "s");
    metrics.set("serve.cache_get_s", s(|t| t.cache_get_s), "s");
    metrics.set("serve.cache_bytes", s(|t| t.cache_bytes as f64), "bytes");
    metrics.set("cache.hits", s(|t| t.cache_hits as f64), "count");
    metrics.set("cache.misses", s(|t| t.cache_misses as f64), "count");
    Ok(metrics)
}

/// One traced analysis, counted as an operation and checked: every cell
/// is predicted, the predictions equal `Ssresf::analyze`'s, and the
/// counts equal the first traced analysis'.
fn traced_analysis(
    p: &Prepared,
    config: &SsresfConfig,
    verdict: &Verdict,
    first: Option<&AnalysisTrace>,
    ops: &mut Ops,
) -> Option<AnalysisTrace> {
    match analysis::analyze_traced(&p.flat, config) {
        Ok((predictions, trace)) => {
            let check = analysis::check_every_cell(&p.flat, &predictions)
                .and_then(|()| {
                    ensure(
                        predictions == verdict.predictions,
                        "traced composition predicts differently from Ssresf::analyze",
                    )
                })
                .and_then(|()| match first {
                    Some(f) => ensure(
                        f.counts() == trace.counts(),
                        "traced counts changed on repeat",
                    ),
                    None => Ok(()),
                });
            ops.record("traced analysis", check);
            Some(trace)
        }
        Err(e) => {
            ops.record("traced analysis", Err(e));
            None
        }
    }
}

/// Spawn probes for the cycle's two worker fleets (cold and overlap job)
/// plus one traced serve cycle; a repeat must reproduce the first cycle's
/// counts.
fn traced_serve_cycle(
    jobs: &ServeJobs,
    args: &RunArgs,
    cache_root: &std::path::Path,
    first: Option<&ServeTrace>,
    ops: &mut Ops,
) -> Option<ServeTrace> {
    let spawn: Result<f64, String> = (0..2)
        .map(|_| serve::probe_spawn(&args.worker, args.shards))
        .sum();
    ops.record(
        "spawn probe",
        spawn.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let mut trace = serve::traced_cycle(jobs, args.shards, cache_root, ops)?;
    trace.spawn_s = spawn.ok()?;
    if let Some(f) = first {
        ops.record(
            "traced serve counts",
            ensure(
                f.counts() == trace.counts(),
                "traced serve counts changed on repeat",
            ),
        );
    }
    Some(trace)
}
