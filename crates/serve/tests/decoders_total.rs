//! Every JSON decoder is total: starting from a valid encoding, rewriting
//! any object member at any depth — dropping it, or replacing it with a
//! wrong type, `-1`, `1e300`, `2^32`, `2^64` or `""` — gives `Ok` or
//! `Err`, never a panic, and dropping a required key gives an error that
//! names the key.

use ssresf::{
    run_campaign_shard, run_campaign_with, AnalysisSummary, CampaignConfig, Dut, EngineKind,
    Instrument, Workload,
};
use ssresf_json::Value;
use ssresf_mlcore::{Dataset, Kernel, SvmModel, SvmParams};
use ssresf_netlist::CellId;
use ssresf_radiation::{MissionProfile, ParticleEnvironment, SoftErrorDatabase};
use ssresf_serve::codec::{
    campaign_config_from_json, campaign_config_to_json, campaign_outcome_from_json,
    campaign_outcome_to_json, circuit_spec_from_json, circuit_spec_to_json, golden_run_from_json,
    golden_run_to_json, injection_record_from_json, injection_record_to_json,
    shard_outcome_from_json, shard_outcome_to_json,
};
use ssresf_serve::key::smoke_circuit;
use ssresf_serve::{
    campaign_key, serve_campaign, ArtifactCache, CacheConfig, JobSpec, Message, NetlistSpec,
    ServeOptions, NS_CAMPAIGN,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A decoder under test, reduced to "did it accept the value".
type Decode = Box<dyn Fn(&Value) -> Result<(), String>>;

/// One decoder, a valid encoding, and the keys whose absence it accepts
/// (optional members and data-keyed map entries).
struct Case {
    name: &'static str,
    decode: Decode,
    valid: Value,
    optional: &'static [&'static str],
}

fn case<T, E: ToString>(
    name: &'static str,
    decode: impl Fn(&Value) -> Result<T, E> + 'static,
    valid: Value,
    optional: &'static [&'static str],
) -> Case {
    Case {
        name,
        decode: Box::new(move |v| decode(v).map(drop).map_err(|e| e.to_string())),
        valid,
        optional,
    }
}

fn config() -> CampaignConfig {
    CampaignConfig {
        workload: Workload {
            reset_cycles: 2,
            run_cycles: 24,
        },
        injections_per_cell: 2,
        threads: 1,
        engine: EngineKind::Levelized,
        checkpoint_interval: 8,
        ..CampaignConfig::default()
    }
}

fn job_spec() -> JobSpec {
    let netlist = NetlistSpec::Circuit(smoke_circuit("total"));
    let flat = netlist.build().unwrap();
    JobSpec {
        netlist,
        cells: flat.iter_cells().map(|(id, _)| id).collect(),
        config: config(),
    }
}

fn summary() -> AnalysisSummary {
    AnalysisSummary {
        cells: 40,
        clusters: 2,
        cluster_sizes: vec![25, 15],
        sampled: 6,
        injections: 12,
        soft_errors: 3,
        chip_ser: 0.25,
        ser_per_class: BTreeMap::from([("bus".to_owned(), 0.5)]),
        tnr: 0.9,
        tpr: 0.8,
        precision: 0.7,
        accuracy: 0.85,
        f1: 0.75,
        auc: 0.95,
        predicted_per_class: BTreeMap::from([("bus".to_owned(), (4, 10))]),
        seu_xsect_cm2: 1e-7,
        set_xsect_cm2: 2e-8,
        simulation_s: 1.5,
        training_s: 0.1,
        prediction_s: 0.01,
        speedup: 150.0,
    }
}

fn svm_model(kernel: Kernel) -> SvmModel {
    let x = vec![
        vec![0.0, 0.1],
        vec![0.2, 0.0],
        vec![1.0, 0.9],
        vec![0.9, 1.1],
    ];
    let data = Dataset::new(x, vec![-1, -1, 1, 1]).unwrap();
    SvmModel::train(
        &data,
        &SvmParams {
            kernel,
            ..SvmParams::default()
        },
    )
    .unwrap()
}

fn cases() -> Vec<Case> {
    let spec = job_spec();
    let flat = spec.netlist.build().unwrap();
    let dut = Dut::from_conventions(&flat).unwrap();
    let cfg = spec.config;
    let outcome = run_campaign_with(&dut, &spec.cells, &cfg, &Instrument::default()).unwrap();
    let golden = || dut.run_golden_with_checkpoints(cfg.engine, &cfg.workload, 8);
    let shard = run_campaign_shard(
        &dut,
        &spec.cells,
        &cfg,
        1,
        2,
        golden,
        &Instrument::default(),
    )
    .unwrap();
    let job = Message::Job {
        spec: spec.clone(),
        shard: 0,
        shard_count: 2,
        cache_root: Some("cache".into()),
        cache_max_bytes: Some(1 << 20),
    };
    let heartbeat = Message::Heartbeat {
        shard: 1,
        completed: 3,
        total: 9,
        soft_errors: 1,
        elapsed_seconds: 0.5,
        phase: "heartbeat".into(),
    };
    let result = Message::Result {
        outcome: Box::new(shard.clone()),
        cache_hits: 1,
        cache_misses: 2,
    };
    let soc_job = JobSpec {
        netlist: NetlistSpec::Soc {
            preset: "PULP SoC_1".into(),
        },
        cells: vec![CellId(3), CellId(1)],
        config: cfg,
    };
    let message = |v: &Value| Message::from_json(v);
    vec![
        case(
            "campaign config",
            campaign_config_from_json,
            campaign_config_to_json(&cfg),
            &[],
        ),
        case(
            "injection record",
            injection_record_from_json,
            injection_record_to_json(&outcome.records[0]),
            &[],
        ),
        case(
            "campaign outcome",
            campaign_outcome_from_json,
            campaign_outcome_to_json(&outcome),
            &[],
        ),
        case(
            "shard outcome",
            shard_outcome_from_json,
            shard_outcome_to_json(&shard),
            &[],
        ),
        case(
            "golden run",
            golden_run_from_json,
            golden_run_to_json(&golden().unwrap()).unwrap(),
            &[],
        ),
        case(
            "circuit spec",
            circuit_spec_from_json,
            circuit_spec_to_json(&smoke_circuit("total")),
            &[],
        ),
        case("job spec", JobSpec::from_json, spec.to_json(), &[]),
        case("soc job spec", JobSpec::from_json, soc_job.to_json(), &[]),
        case(
            "job message",
            message,
            job.to_json(),
            &["cache_root", "cache_max_bytes"],
        ),
        case("heartbeat message", message, heartbeat.to_json(), &[]),
        case(
            "result message",
            message,
            result.to_json(),
            &["cache_hits", "cache_misses"],
        ),
        case(
            "cancelled message",
            message,
            Message::Cancelled { shard: 1 }.to_json(),
            &[],
        ),
        case(
            "error message",
            message,
            Message::Error {
                message: "boom".into(),
            }
            .to_json(),
            &[],
        ),
        case(
            "linear svm model",
            SvmModel::from_json,
            svm_model(Kernel::Linear).to_json(),
            &[],
        ),
        case(
            "poly svm model",
            SvmModel::from_json,
            svm_model(Kernel::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            })
            .to_json(),
            &[],
        ),
        case(
            "particle environment",
            ParticleEnvironment::from_json,
            ParticleEnvironment::heavy_ion().to_json(),
            &[],
        ),
        case(
            "mission profile",
            MissionProfile::from_json,
            MissionProfile::orbit_with_flare(60, 40).unwrap().to_json(),
            &[],
        ),
        case(
            "soft-error database",
            |v: &Value| SoftErrorDatabase::from_json(&v.to_string_compact()),
            ssresf_json::parse(&SoftErrorDatabase::standard().to_json()).unwrap(),
            &[],
        ),
        case(
            "analysis summary",
            |v: &Value| AnalysisSummary::from_json(&v.to_string_compact()),
            ssresf_json::parse(&summary().to_json()).unwrap(),
            &["bus"],
        ),
    ]
}

/// The replacement values every member is rewritten to, as JSON text.
const REWRITES: [&str; 6] = [
    "-1",
    "1e300",
    "4294967296",
    "18446744073709551616",
    "\"\"",
    "null",
];

/// One rewrite of `root`: the member `key` of the object at `path`
/// (array steps enter element 0 only) dropped or replaced.
struct Mutant {
    key: String,
    replacement: Option<Value>,
    value: Value,
}

/// Every rewrite of every object member reachable from `value`, where the
/// walk enters only the first element of each array (the other elements
/// share its schema).
fn mutants(value: &Value) -> Vec<Mutant> {
    let mut out = Vec::new();
    match value {
        Value::Object(members) => {
            for (i, (key, member)) in members.iter().enumerate() {
                let wrong_type = match member {
                    Value::Object(_) => Value::Array(Vec::new()),
                    _ => Value::Object(Vec::new()),
                };
                let mut replacements: Vec<Option<Value>> = vec![None, Some(wrong_type)];
                replacements.extend(
                    REWRITES
                        .iter()
                        .map(|text| Some(ssresf_json::parse(text).unwrap())),
                );
                for replacement in replacements {
                    let mut rewritten = members.clone();
                    match &replacement {
                        None => {
                            rewritten.remove(i);
                        }
                        Some(v) => rewritten[i].1 = v.clone(),
                    }
                    out.push(Mutant {
                        key: key.clone(),
                        replacement,
                        value: Value::Object(rewritten),
                    });
                }
                for inner in mutants(member) {
                    let mut rewritten = members.clone();
                    rewritten[i].1 = inner.value;
                    out.push(Mutant {
                        value: Value::Object(rewritten),
                        ..inner
                    });
                }
            }
        }
        Value::Array(items) if !items.is_empty() => {
            for inner in mutants(&items[0]) {
                let mut rewritten = items.clone();
                rewritten[0] = inner.value;
                out.push(Mutant {
                    value: Value::Array(rewritten),
                    ..inner
                });
            }
        }
        _ => {}
    }
    out
}

#[test]
fn every_decoder_is_total_and_names_a_dropped_key() {
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for case in cases() {
        // The valid encoding decodes, after a trip through text.
        let reparsed = ssresf_json::parse(&case.valid.to_string_compact()).unwrap();
        if let Err(e) = (case.decode)(&reparsed) {
            failures.push(format!("{}: valid encoding rejected: {e}", case.name));
        }
        for mutant in mutants(&case.valid) {
            checked += 1;
            // Round-trip through text so the rewrite is what a reader of a
            // real frame or artifact would see.
            let text = mutant.value.to_string_compact();
            let value = ssresf_json::parse(&text).unwrap();
            let replaced = match &mutant.replacement {
                None => "dropped".to_owned(),
                Some(v) => format!("set to {}", v.to_string_compact()),
            };
            let decoded = match catch_unwind(AssertUnwindSafe(|| (case.decode)(&value))) {
                Ok(decoded) => decoded,
                Err(_) => {
                    failures.push(format!(
                        "{}: {:?} {replaced} panicked",
                        case.name, mutant.key
                    ));
                    continue;
                }
            };
            if mutant.replacement.is_none() && !case.optional.contains(&mutant.key.as_str()) {
                match decoded {
                    Ok(()) => failures.push(format!(
                        "{}: dropping required key {:?} was accepted",
                        case.name, mutant.key
                    )),
                    Err(e) if !e.contains(&mutant.key) => failures.push(format!(
                        "{}: dropping {:?} gave an error that does not name it: {e}",
                        case.name, mutant.key
                    )),
                    Err(_) => {}
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} rewrites generated");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_corrupt_cached_campaign_artifact_is_an_error_not_a_panic() {
    let spec = job_spec();
    let flat = spec.netlist.build().unwrap();
    let dut = Dut::from_conventions(&flat).unwrap();
    let outcome =
        run_campaign_with(&dut, &spec.cells, &spec.config, &Instrument::default()).unwrap();
    let mut artifact = campaign_outcome_to_json(&outcome);
    rewrite(&mut artifact, "simulation_seconds", Value::Number(-1.0));
    let root = std::env::temp_dir().join(format!("ssresf-decoders-total-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let key = campaign_key(flat.content_hash(), &spec.cells, &spec.config).to_hex();
    ArtifactCache::open(&root, None, None)
        .unwrap()
        .put(NS_CAMPAIGN, &key, &artifact)
        .unwrap();
    let options = ServeOptions {
        cache: Some(CacheConfig {
            root: root.clone(),
            max_bytes: None,
        }),
        ..ServeOptions::new(1)
    };
    let err = serve_campaign(&spec, &options).unwrap_err();
    std::fs::remove_dir_all(&root).unwrap();
    assert!(err.contains("corrupt campaign artifact"), "{err}");
    assert!(err.contains("simulation_seconds"), "{err}");
}

#[test]
fn a_job_frame_with_a_negative_let_is_an_error_naming_it() {
    let job = Message::Job {
        spec: job_spec(),
        shard: 0,
        shard_count: 1,
        cache_root: None,
        cache_max_bytes: None,
    };
    for key in ["let", "flux"] {
        let mut frame = job.to_json();
        rewrite(&mut frame, key, Value::Number(-1.0));
        let err = Message::from_json(&frame).unwrap_err();
        assert!(err.contains(&format!("\"{key}\"")), "{key}: {err}");
    }
}

/// Sets every member named `key`, at any depth, to `to`.
fn rewrite(value: &mut Value, key: &str, to: Value) {
    match value {
        Value::Object(members) => {
            for (k, v) in members.iter_mut() {
                if k == key {
                    *v = to.clone();
                } else {
                    rewrite(v, key, to.clone());
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|v| rewrite(v, key, to.clone())),
        _ => {}
    }
}
