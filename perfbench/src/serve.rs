//! The service layers: `serve_campaign` through worker processes
//! untraced, the same job composed from the serve crate's public
//! functions with a span around every layer, and a spawn probe.

use crate::report::{ensure, span, Ops};
use ssresf::{
    campaign_jobs, merge_shard_outcomes, plan_shards, run_injection_jobs_with_golden,
    CampaignOutcome, Dut, InjectionRecord, Instrument, MetricsRegistry, ShardOutcome,
};
use ssresf_serve::codec::{
    campaign_outcome_from_json, campaign_outcome_to_json, golden_run_from_json, golden_run_to_json,
};
use ssresf_serve::{
    campaign_key, golden_key, read_frame, serve_campaign, write_frame, ArtifactCache, CacheConfig,
    JobSpec, Message, ServeOptions, NS_CAMPAIGN, NS_GOLDEN,
};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The two jobs of a serve cycle and their single-process references.
pub struct ServeJobs {
    /// The cold job, repeated warm.
    pub first: JobSpec,
    /// The overlap job: a disjoint cell set on the same netlist.
    pub second: JobSpec,
    /// `run_campaign_with` records of `first`.
    pub first_reference: Vec<InjectionRecord>,
    /// `run_campaign_with` records of `second`.
    pub second_reference: Vec<InjectionRecord>,
}

fn fresh_dir(root: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(root) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", root.display())),
    }
}

fn records_match(
    got: &[InjectionRecord],
    want: &[InjectionRecord],
    what: &str,
) -> Result<(), String> {
    ensure(
        got == want,
        &format!(
            "{what}: {} records differ from the {} expected",
            got.len(),
            want.len()
        ),
    )
}

/// One `serve_campaign` call through `shards` worker processes.
fn serve_once(
    spec: &JobSpec,
    worker: &Path,
    shards: usize,
    cache_root: &Path,
) -> Result<(CampaignOutcome, MetricsRegistry, f64), String> {
    let metrics = MetricsRegistry::new();
    let options = ServeOptions {
        shard_count: shards,
        worker_binary: Some(worker.to_path_buf()),
        cache: Some(CacheConfig {
            root: cache_root.to_path_buf(),
            max_bytes: None,
        }),
        metrics: Some(&metrics),
        progress: None,
        job_log: None,
        cancel: None,
    };
    let started = Instant::now();
    let outcome = serve_campaign(spec, &options)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((outcome, metrics, seconds))
}

/// Serves the jobs of a [`ServeJobs`] through `shards` worker processes
/// on the artifact cache under `cache_root`. Each job is one operation,
/// checked: served records equal the single-process records, a cold job
/// runs every shard and a warm job runs none.
pub struct Server<'a> {
    /// The jobs and their references.
    pub jobs: &'a ServeJobs,
    /// The `ssresf-serve` binary.
    pub worker: &'a Path,
    /// Worker processes per job.
    pub shards: usize,
    /// Artifact-cache root.
    pub cache_root: &'a Path,
}

type Check<'c> = &'c dyn Fn(&CampaignOutcome, &MetricsRegistry) -> Result<(), String>;

impl Server<'_> {
    /// Empties the cache; false (and a failed operation) if it cannot.
    pub fn reset(&self, ops: &mut Ops) -> bool {
        let reset = fresh_dir(self.cache_root);
        let ok = reset.is_ok();
        ops.record("cache reset", reset);
        ok
    }

    /// The first job on an empty cache.
    pub fn cold(&self, ops: &mut Ops) -> Option<f64> {
        self.run("cold job", &self.jobs.first, ops, &|o, m| {
            records_match(&o.records, &self.jobs.first_reference, "cold job")?;
            ensure(
                m.gauge("shard.count") == Some(self.shards as f64),
                "cold job did not run every shard",
            )
        })
    }

    /// The first job again, after [`Server::cold`]: the campaign artifact
    /// hits.
    pub fn warm(&self, ops: &mut Ops) -> Option<f64> {
        self.run("warm job", &self.jobs.first, ops, &|o, m| {
            records_match(&o.records, &self.jobs.first_reference, "warm job")?;
            ensure(
                m.gauge("shard.count") == Some(0.0),
                "warm job ran shards despite the cached campaign",
            )
        })
    }

    /// The second job, a disjoint cell set on the same netlist: only the
    /// golden artifact can hit.
    pub fn overlap(&self, ops: &mut Ops) -> Option<f64> {
        self.run("overlap job", &self.jobs.second, ops, &|o, _| {
            records_match(&o.records, &self.jobs.second_reference, "overlap job")
        })
    }

    fn run(&self, what: &str, spec: &JobSpec, ops: &mut Ops, check: Check<'_>) -> Option<f64> {
        let served = serve_once(spec, self.worker, self.shards, self.cache_root)
            .and_then(|(outcome, metrics, seconds)| check(&outcome, &metrics).map(|()| seconds));
        let seconds = served.as_ref().ok().copied();
        ops.record(what, served.map(|_| ()));
        seconds
    }
}

/// Per-layer spans and counts of one traced serve cycle (cold, warm and
/// overlap job). Times are summed over shards and jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTrace {
    /// Spawning worker processes until their first frame.
    pub spawn_s: f64,
    /// `NetlistSpec::build` in the coordinator and in every shard.
    pub netlist_build_s: f64,
    /// Content hashes and `campaign_key` / `golden_key`.
    pub key_s: f64,
    /// Shard simulation: golden run (on a miss) and
    /// `campaign_jobs` + `run_injection_jobs_with_golden`.
    pub shard_sim_s: f64,
    /// Golden runs simulated (golden-artifact misses).
    pub golden_computed: u64,
    /// `Message::to_json` + `write_frame` for job and result frames.
    pub encode_s: f64,
    /// `read_frame` + `Message::from_json` for the same frames.
    pub decode_s: f64,
    /// Bytes of every frame.
    pub frame_bytes: u64,
    /// `merge_shard_outcomes`.
    pub merge_s: f64,
    /// Artifact encoding + `ArtifactCache::put`.
    pub cache_put_s: f64,
    /// `ArtifactCache::get` + artifact decoding.
    pub cache_get_s: f64,
    /// Bytes stored in the cache after the cycle.
    pub cache_bytes: u64,
    /// Artifact-cache hits.
    pub cache_hits: u64,
    /// Artifact-cache misses.
    pub cache_misses: u64,
}

impl ServeTrace {
    /// The deterministic counts, for repeat checks.
    pub fn counts(&self) -> [u64; 5] {
        [
            self.golden_computed,
            self.frame_bytes,
            self.cache_bytes,
            self.cache_hits,
            self.cache_misses,
        ]
    }
}

/// Encodes `message` into a frame and decodes it back, as the two ends of
/// a worker pipe would.
fn frame_round_trip(message: &Message, t: &mut ServeTrace) -> Result<Message, String> {
    let mut wire = Vec::new();
    span(&mut t.encode_s, || {
        write_frame(&mut wire, &message.to_json())
    })
    .map_err(|e| format!("write_frame: {e}"))?;
    t.frame_bytes += wire.len() as u64;
    span(&mut t.decode_s, || {
        let value = read_frame(&mut wire.as_slice())
            .map_err(|e| format!("read_frame: {e}"))?
            .ok_or("empty frame")?;
        Message::from_json(&value)
    })
}

/// One shard as a worker runs it (`run_shard_local`), with spans. Every
/// shard looks the golden artifact up before any shard computes it, as
/// concurrently started workers do on an empty cache.
fn traced_shard(
    spec: &JobSpec,
    shard: usize,
    shard_count: usize,
    cache_root: &Path,
    barrier: &Barrier,
) -> (Result<ShardOutcome, String>, ServeTrace) {
    let mut t = ServeTrace::default();
    let metrics = MetricsRegistry::new();
    let prepared = (|| {
        let cache = ArtifactCache::open(cache_root, None, Some(&metrics))
            .map_err(|e| format!("cannot open cache: {e}"))?;
        let flat = span(&mut t.netlist_build_s, || spec.netlist.build())?;
        let gkey = span(&mut t.key_s, || {
            golden_key(flat.content_hash(), &spec.config).to_hex()
        });
        let cached = span(&mut t.cache_get_s, || {
            cache
                .get(NS_GOLDEN, &gkey)
                .map(|artifact| golden_run_from_json(&artifact))
                .transpose()
        })?;
        Ok::<_, String>((cache, flat, gkey, cached))
    })();
    barrier.wait();
    let outcome = (|| {
        let (cache, flat, gkey, cached) = prepared?;
        let dut = Dut::from_conventions(&flat).map_err(|e| e.to_string())?;
        let golden = match cached {
            Some(golden) => golden,
            None => {
                let golden = span(&mut t.shard_sim_s, || {
                    dut.run_golden_with_checkpoints(
                        spec.config.engine,
                        &spec.config.workload,
                        spec.config.checkpoint_interval,
                    )
                })
                .map_err(|e| e.to_string())?;
                t.golden_computed += 1;
                // Event-driven checkpoints have no codec; the service
                // recomputes those golden runs every time.
                span(&mut t.cache_put_s, || match golden_run_to_json(&golden) {
                    Ok(artifact) => cache.put(NS_GOLDEN, &gkey, &artifact),
                    Err(_) => Ok(()),
                })
                .map_err(|e| format!("golden put: {e}"))?;
                golden
            }
        };
        let (jobs, outcome) = span(&mut t.shard_sim_s, || {
            let jobs = campaign_jobs(&dut, &spec.cells, &spec.config)?;
            let range = plan_shards(jobs.len(), shard_count)
                .into_iter()
                .nth(shard)
                .expect("plan covers every shard index");
            let outcome = run_injection_jobs_with_golden(
                &dut,
                jobs[range.clone()].to_vec(),
                &spec.config,
                &golden,
                &Instrument::default(),
            )?;
            Ok::<_, ssresf::SsresfError>((range, outcome))
        })
        .map_err(|e| e.to_string())?;
        Ok(ShardOutcome {
            shard,
            shard_count,
            jobs,
            outcome,
            golden_work: golden.outcome.work,
            golden_engine: golden.outcome.engine,
            // Wall-clock fields are zeroed so frame and artifact bytes
            // repeat exactly.
            golden_time: Duration::ZERO,
        })
    })();
    t.cache_hits = metrics.counter("cache.hits");
    t.cache_misses = metrics.counter("cache.misses");
    (outcome, t)
}

fn add(t: &mut ServeTrace, s: &ServeTrace) {
    t.spawn_s += s.spawn_s;
    t.netlist_build_s += s.netlist_build_s;
    t.key_s += s.key_s;
    t.shard_sim_s += s.shard_sim_s;
    t.golden_computed += s.golden_computed;
    t.encode_s += s.encode_s;
    t.decode_s += s.decode_s;
    t.frame_bytes += s.frame_bytes;
    t.merge_s += s.merge_s;
    t.cache_put_s += s.cache_put_s;
    t.cache_get_s += s.cache_get_s;
    t.cache_hits += s.cache_hits;
    t.cache_misses += s.cache_misses;
}

/// `serve_campaign` composed from the serve crate's public functions:
/// coordinator netlist build and campaign key, campaign-artifact lookup,
/// job frames, one thread per shard in place of a worker process, result
/// frames, merge and campaign-artifact store. Spans go to `t`.
///
/// # Errors
///
/// Describes the failing layer.
pub fn traced_job(
    spec: &JobSpec,
    shards: usize,
    cache_root: &Path,
    t: &mut ServeTrace,
) -> Result<CampaignOutcome, String> {
    let metrics = MetricsRegistry::new();
    let flat = span(&mut t.netlist_build_s, || spec.netlist.build())?;
    let key = span(&mut t.key_s, || {
        campaign_key(flat.content_hash(), &spec.cells, &spec.config).to_hex()
    });
    let cache = ArtifactCache::open(cache_root, None, Some(&metrics))
        .map_err(|e| format!("cannot open cache: {e}"))?;
    let count = |t: &mut ServeTrace| {
        t.cache_hits += metrics.counter("cache.hits");
        t.cache_misses += metrics.counter("cache.misses");
    };
    let cached = span(&mut t.cache_get_s, || {
        cache
            .get(NS_CAMPAIGN, &key)
            .map(|artifact| campaign_outcome_from_json(&artifact))
            .transpose()
    })?;
    if let Some(outcome) = cached {
        count(t);
        return Ok(outcome);
    }

    for shard in 0..shards {
        let job = Message::Job {
            spec: spec.clone(),
            shard,
            shard_count: shards,
            cache_root: Some(cache_root.to_string_lossy().into_owned()),
            cache_max_bytes: None,
        };
        frame_round_trip(&job, t)?;
    }
    let barrier = Barrier::new(shards);
    let results: Vec<(Result<ShardOutcome, String>, ServeTrace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let barrier = &barrier;
                scope.spawn(move || traced_shard(spec, shard, shards, cache_root, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced shard panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(shards);
    for (result, shard_trace) in results {
        add(t, &shard_trace);
        let mut outcome = result?;
        outcome.outcome.simulation_time = Duration::ZERO;
        let message = Message::Result {
            outcome: Box::new(outcome),
            cache_hits: shard_trace.cache_hits,
            cache_misses: shard_trace.cache_misses,
        };
        match frame_round_trip(&message, t)? {
            Message::Result { outcome, .. } => outcomes.push(*outcome),
            _ => return Err("result frame decoded to another message".into()),
        }
    }
    let merged =
        span(&mut t.merge_s, || merge_shard_outcomes(&outcomes)).map_err(|e| e.to_string())?;
    span(&mut t.cache_put_s, || {
        cache.put(NS_CAMPAIGN, &key, &campaign_outcome_to_json(&merged))
    })
    .map_err(|e| format!("campaign put: {e}"))?;
    count(t);
    Ok(merged)
}

/// A traced cold, warm and overlap cycle on a fresh cache, with the same
/// checks as [`Server`] (each job is one operation). The spawn probe
/// is separate: see [`probe_spawn`].
pub fn traced_cycle(
    jobs: &ServeJobs,
    shards: usize,
    cache_root: &Path,
    ops: &mut Ops,
) -> Option<ServeTrace> {
    if let Err(e) = fresh_dir(cache_root) {
        ops.record("cache reset", Err(e));
        return None;
    }
    let mut t = ServeTrace::default();
    let cold = traced_job(&jobs.first, shards, cache_root, &mut t).and_then(|o| {
        records_match(&o.records, &jobs.first_reference, "traced cold job").map(|()| o)
    });
    let cold_ok = cold.is_ok();
    ops.record(
        "traced cold job",
        cold.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let warm = traced_job(&jobs.first, shards, cache_root, &mut t).and_then(|o| match &cold {
        Ok(c) => records_match(&o.records, &c.records, "traced warm job"),
        Err(_) => Err("no cold job to compare with".into()),
    });
    ops.record("traced warm job", warm.clone());
    let overlap = traced_job(&jobs.second, shards, cache_root, &mut t)
        .and_then(|o| records_match(&o.records, &jobs.second_reference, "traced overlap job"));
    ops.record("traced overlap job", overlap.clone());
    t.cache_bytes = ArtifactCache::open(cache_root, None, None)
        .map(|c| c.bytes())
        .unwrap_or(0);
    let _ = fresh_dir(cache_root);
    (cold_ok && warm.is_ok() && overlap.is_ok()).then_some(t)
}

/// Seconds from spawning `shards` worker processes until each has sent
/// its first frame. The probe's first frame to each worker is a cancel,
/// which a worker answers at once with an error frame, so the time is the
/// process start and one frame round trip with no simulation in it.
///
/// # Errors
///
/// Fails when a worker cannot start or answers with anything but an
/// error frame.
pub fn probe_spawn(worker: &Path, shards: usize) -> Result<f64, String> {
    let started = Instant::now();
    let mut children = Vec::with_capacity(shards);
    for _ in 0..shards {
        let mut child = Command::new(worker)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", worker.display()))?;
        let mut stdin = child.stdin.take().expect("worker stdin is piped");
        let sent = write_frame(&mut stdin, &Message::Cancel.to_json())
            .map_err(|e| format!("cannot write to worker: {e}"));
        children.push((child, sent));
    }
    let mut first_error = None;
    for (child, sent) in &mut children {
        let answer = sent.clone().and_then(|()| {
            let stdout = child.stdout.as_mut().expect("worker stdout is piped");
            read_frame(stdout).map_err(|e| format!("worker stream: {e}"))
        });
        let ok = match answer {
            Ok(Some(frame)) => matches!(Message::from_json(&frame), Ok(Message::Error { .. })),
            _ => false,
        };
        if !ok && first_error.is_none() {
            first_error = Some("worker did not answer the probe with an error frame".to_owned());
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    for (mut child, _) in children {
        let _ = child.wait();
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(seconds),
    }
}
