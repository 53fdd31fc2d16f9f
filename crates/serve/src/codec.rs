//! JSON codecs for the campaign types that cross process or disk
//! boundaries: configs inside job frames, outcomes inside result frames
//! and cache artifacts, golden runs inside the golden cache.
//!
//! All floats survive round trips bit-exactly (`ssresf-json` prints the
//! shortest representation that re-parses to the same `f64`), which is
//! what lets the conformance checks compare a decoded outcome against a
//! freshly simulated one with plain equality. The one deliberate
//! exception: wall-clock durations are carried as `f64` seconds — they
//! are measurements, not simulation state, and no check compares them.
//!
//! Decoders read members through the `ssresf-json` field accessors and are
//! total: a missing, mistyped or out-of-range member (an id past `u32`, a
//! negative LET, flux or duration) is an error naming its key, not a panic.

#![deny(clippy::cast_possible_truncation)]

use ssresf::{
    CampaignConfig, CampaignOutcome, CampaignTelemetry, Checkpoint, EngineKind, GoldenRun,
    InjectionRecord, RunOutcome, ShardOutcome, Workload,
};
use ssresf_json::Value;
use ssresf_netlist::generate::{CircuitSpec, GateSpec, GENERATOR_KINDS};
use ssresf_netlist::CellId;
use ssresf_radiation::{Flux, Let, PulseWidthModel, RadiationEnvironment};
use ssresf_sim::codec as sim_codec;
use std::time::Duration;

/// Encodes a campaign config. The seed travels as a decimal string:
/// arbitrary `u64` seeds do not fit an `f64`-backed JSON number.
pub fn campaign_config_to_json(config: &CampaignConfig) -> Value {
    ssresf_json::object([
        (
            "workload",
            ssresf_json::object([
                ("reset_cycles", Value::from(config.workload.reset_cycles)),
                ("run_cycles", Value::from(config.workload.run_cycles)),
            ]),
        ),
        (
            "environment",
            ssresf_json::object([
                ("let", Value::from(config.environment.let_value.value())),
                ("flux", Value::from(config.environment.flux.value())),
            ]),
        ),
        (
            "injections_per_cell",
            Value::from(config.injections_per_cell),
        ),
        (
            "pulse",
            ssresf_json::object([
                ("base", Value::from(config.pulse.base)),
                ("gain", Value::from(config.pulse.gain)),
                ("max", Value::from(config.pulse.max)),
                ("jitter", Value::from(config.pulse.jitter)),
            ]),
        ),
        ("seed", Value::from(config.seed.to_string())),
        ("engine", Value::from(config.engine.name())),
        ("threads", Value::from(config.threads)),
        (
            "checkpoint_interval",
            Value::from(config.checkpoint_interval),
        ),
        ("early_stop", Value::from(config.early_stop)),
        ("batching", Value::from(config.batching)),
        ("batch_lanes", Value::from(config.batch_lanes)),
        ("collapse_faults", Value::from(config.collapse_faults)),
        ("lane_refill", Value::from(config.lane_refill)),
    ])
}

/// Decodes a campaign config.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn campaign_config_from_json(value: &Value) -> Result<CampaignConfig, String> {
    let workload = value.field("workload")?;
    let environment = value.field("environment")?;
    let pulse = value.field("pulse")?;
    let engine = match value.str_field("engine")? {
        "event-driven" => EngineKind::EventDriven,
        "levelized" => EngineKind::Levelized,
        other => return Err(format!("unknown engine {other:?}")),
    };
    Ok(CampaignConfig {
        workload: Workload {
            reset_cycles: workload.int_field("reset_cycles")?,
            run_cycles: workload.int_field("run_cycles")?,
        },
        environment: RadiationEnvironment::new(
            Let::try_new(environment.f64_field("let")?)
                .ok_or("key \"let\": expected a finite non-negative LET")?,
            Flux::try_new(environment.f64_field("flux")?)
                .ok_or("key \"flux\": expected a finite non-negative flux")?,
        ),
        injections_per_cell: value.int_field("injections_per_cell")?,
        pulse: PulseWidthModel {
            base: pulse.f64_field("base")?,
            gain: pulse.f64_field("gain")?,
            max: pulse.f64_field("max")?,
            jitter: pulse.f64_field("jitter")?,
        },
        seed: value
            .str_field("seed")?
            .parse::<u64>()
            .map_err(|e| format!("key \"seed\" is not a u64: {e}"))?,
        engine,
        threads: value.int_field("threads")?,
        checkpoint_interval: value.int_field("checkpoint_interval")?,
        early_stop: value.bool_field("early_stop")?,
        batching: value.bool_field("batching")?,
        batch_lanes: value.int_field("batch_lanes")?,
        collapse_faults: value.bool_field("collapse_faults")?,
        lane_refill: value.bool_field("lane_refill")?,
    })
}

/// Encodes one injection record.
pub fn injection_record_to_json(record: &InjectionRecord) -> Value {
    ssresf_json::object([
        ("cell", Value::from(record.cell.0)),
        ("fault", sim_codec::fault_to_json(&record.fault)),
        ("soft_error", Value::from(record.soft_error)),
        ("divergences", Value::from(record.divergences)),
    ])
}

/// Decodes one injection record.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn injection_record_from_json(value: &Value) -> Result<InjectionRecord, String> {
    Ok(InjectionRecord {
        cell: CellId(value.int_field("cell")?),
        fault: sim_codec::fault_from_json(value.field("fault")?)?,
        soft_error: value.bool_field("soft_error")?,
        divergences: value.int_field("divergences")?,
    })
}

/// Encodes campaign telemetry.
pub fn campaign_telemetry_to_json(t: &CampaignTelemetry) -> Value {
    ssresf_json::object([
        ("engine", sim_codec::telemetry_to_json(&t.engine)),
        ("checkpoint_restores", Value::from(t.checkpoint_restores)),
        (
            "early_stop_truncations",
            Value::from(t.early_stop_truncations),
        ),
        ("collapsed_faults", Value::from(t.collapsed_faults)),
        ("lane_refills", Value::from(t.lane_refills)),
    ])
}

/// Decodes campaign telemetry.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn campaign_telemetry_from_json(value: &Value) -> Result<CampaignTelemetry, String> {
    Ok(CampaignTelemetry {
        engine: sim_codec::telemetry_from_json(value.field("engine")?)?,
        checkpoint_restores: value.int_field("checkpoint_restores")?,
        early_stop_truncations: value.int_field("early_stop_truncations")?,
        collapsed_faults: value.int_field("collapsed_faults")?,
        lane_refills: value.int_field("lane_refills")?,
    })
}

/// Encodes a full campaign outcome (the `campaign` cache artifact).
pub fn campaign_outcome_to_json(outcome: &CampaignOutcome) -> Value {
    ssresf_json::object([
        ("golden", sim_codec::trace_to_json(&outcome.golden)),
        ("golden_activity", Value::from(&outcome.golden_activity[..])),
        (
            "records",
            Value::Array(
                outcome
                    .records
                    .iter()
                    .map(injection_record_to_json)
                    .collect(),
            ),
        ),
        (
            "simulation_seconds",
            Value::from(outcome.simulation_time.as_secs_f64()),
        ),
        (
            "golden_seconds",
            Value::from(outcome.golden_time.as_secs_f64()),
        ),
        ("total_work", Value::from(outcome.total_work)),
        ("telemetry", campaign_telemetry_to_json(&outcome.telemetry)),
    ])
}

/// Decodes a campaign outcome.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn campaign_outcome_from_json(value: &Value) -> Result<CampaignOutcome, String> {
    Ok(CampaignOutcome {
        golden: sim_codec::trace_from_json(value.field("golden")?)?,
        golden_activity: value.f64s_field("golden_activity")?,
        records: value
            .array_field("records")?
            .iter()
            .map(injection_record_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        simulation_time: Duration::try_from_secs_f64(value.f64_field("simulation_seconds")?)
            .map_err(|e| format!("key \"simulation_seconds\": {e}"))?,
        golden_time: Duration::try_from_secs_f64(value.f64_field("golden_seconds")?)
            .map_err(|e| format!("key \"golden_seconds\": {e}"))?,
        total_work: value.int_field("total_work")?,
        telemetry: campaign_telemetry_from_json(value.field("telemetry")?)?,
    })
}

fn run_outcome_to_json(outcome: &RunOutcome) -> Value {
    ssresf_json::object([
        ("trace", sim_codec::trace_to_json(&outcome.trace)),
        (
            "activity_per_cycle",
            Value::from(&outcome.activity_per_cycle[..]),
        ),
        ("work", Value::from(outcome.work)),
        ("engine", sim_codec::telemetry_to_json(&outcome.engine)),
        ("early_stopped", Value::from(outcome.early_stopped)),
    ])
}

fn run_outcome_from_json(value: &Value) -> Result<RunOutcome, String> {
    Ok(RunOutcome {
        trace: sim_codec::trace_from_json(value.field("trace")?)?,
        activity_per_cycle: value.f64s_field("activity_per_cycle")?,
        work: value.int_field("work")?,
        engine: sim_codec::telemetry_from_json(value.field("engine")?)?,
        // A golden run never resumes from a checkpoint or stops early.
        resumed_from: None,
        early_stopped: value.bool_field("early_stopped")?,
    })
}

/// Encodes a golden run with its checkpoints (the `golden` cache
/// artifact).
///
/// # Errors
///
/// Returns a description when a checkpoint's engine snapshot is not
/// serializable (event-driven engine) — the caller then simply skips
/// caching, which is a miss, not a failure.
pub fn golden_run_to_json(golden: &GoldenRun) -> Result<Value, String> {
    let checkpoints = golden
        .checkpoints
        .iter()
        .map(|cp| {
            Ok(ssresf_json::object([
                ("cycle", Value::from(cp.cycle)),
                ("state", sim_codec::engine_state_to_json(cp.state())?),
            ]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ssresf_json::object([
        ("outcome", run_outcome_to_json(&golden.outcome)),
        ("checkpoints", Value::Array(checkpoints)),
    ]))
}

/// Decodes a golden run.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn golden_run_from_json(value: &Value) -> Result<GoldenRun, String> {
    let checkpoints = value
        .array_field("checkpoints")?
        .iter()
        .map(|cp| {
            Ok(Checkpoint::new(
                cp.int_field("cycle")?,
                sim_codec::engine_state_from_json(cp.field("state")?)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(GoldenRun {
        outcome: run_outcome_from_json(value.field("outcome")?)?,
        checkpoints,
    })
}

/// Encodes one shard outcome (the `result` frame payload).
pub fn shard_outcome_to_json(shard: &ShardOutcome) -> Value {
    ssresf_json::object([
        ("shard", Value::from(shard.shard)),
        ("shard_count", Value::from(shard.shard_count)),
        ("jobs_start", Value::from(shard.jobs.start)),
        ("jobs_end", Value::from(shard.jobs.end)),
        ("outcome", campaign_outcome_to_json(&shard.outcome)),
        ("golden_work", Value::from(shard.golden_work)),
        (
            "golden_engine",
            sim_codec::telemetry_to_json(&shard.golden_engine),
        ),
        (
            "golden_seconds",
            Value::from(shard.golden_time.as_secs_f64()),
        ),
    ])
}

/// Decodes one shard outcome.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn shard_outcome_from_json(value: &Value) -> Result<ShardOutcome, String> {
    Ok(ShardOutcome {
        shard: value.int_field("shard")?,
        shard_count: value.int_field("shard_count")?,
        jobs: value.int_field("jobs_start")?..value.int_field("jobs_end")?,
        outcome: campaign_outcome_from_json(value.field("outcome")?)?,
        golden_work: value.int_field("golden_work")?,
        golden_engine: sim_codec::telemetry_from_json(value.field("golden_engine")?)?,
        golden_time: Duration::try_from_secs_f64(value.f64_field("golden_seconds")?)
            .map_err(|e| format!("key \"golden_seconds\": {e}"))?,
    })
}

/// Encodes a circuit spec (the `circuit` flavor of a job's netlist).
pub fn circuit_spec_to_json(spec: &CircuitSpec) -> Value {
    ssresf_json::object([
        ("name", Value::from(spec.name.as_str())),
        ("inputs", Value::from(spec.inputs)),
        (
            "gates",
            Value::Array(
                spec.gates
                    .iter()
                    .map(|g| {
                        ssresf_json::object([
                            ("kind", Value::from(g.kind.name())),
                            ("operands", Value::from(&g.operands[..])),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ff_d", Value::from(&spec.ff_d[..])),
        ("outputs", Value::from(spec.outputs)),
    ])
}

/// Decodes a circuit spec.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid or names
/// a gate kind outside [`GENERATOR_KINDS`].
pub fn circuit_spec_from_json(value: &Value) -> Result<CircuitSpec, String> {
    let gates = value
        .array_field("gates")?
        .iter()
        .map(|g| {
            let name = g.str_field("kind")?;
            let kind = GENERATOR_KINDS
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("unknown generator gate kind {name:?}"))?;
            Ok(GateSpec {
                kind,
                operands: g.ints_field("operands")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CircuitSpec {
        name: value.str_field("name")?.to_owned(),
        inputs: value.int_field("inputs")?,
        gates,
        ff_d: value.ints_field("ff_d")?,
        outputs: value.int_field("outputs")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::CellKind;

    fn reparse(value: &Value) -> Value {
        ssresf_json::parse(&value.to_string_compact()).unwrap()
    }

    #[test]
    fn campaign_config_round_trips_exactly() {
        let config = CampaignConfig {
            seed: u64::MAX - 3,
            engine: EngineKind::Levelized,
            batching: true,
            batch_lanes: 256,
            collapse_faults: true,
            lane_refill: true,
            injections_per_cell: 7,
            ..CampaignConfig::default()
        };
        let back = campaign_config_from_json(&reparse(&campaign_config_to_json(&config))).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn record_cell_ids_past_u32_are_rejected_not_truncated() {
        let text = r#"{"cell":4294967303,"soft_error":true,"divergences":2,
            "fault":{"type":"seu","cell":7,"cycle":3,"offset":0.25}}"#;
        let err = injection_record_from_json(&ssresf_json::parse(text).unwrap()).unwrap_err();
        assert!(err.contains("\"cell\""), "{err}");
        let ok = text.replace("4294967303", "7");
        let record = injection_record_from_json(&ssresf_json::parse(&ok).unwrap()).unwrap();
        assert_eq!(record.cell, CellId(7));
    }

    #[test]
    fn circuit_spec_round_trips_and_rejects_foreign_kinds() {
        let spec = CircuitSpec {
            name: "rt".into(),
            inputs: 3,
            gates: vec![
                GateSpec {
                    kind: CellKind::Aoi21,
                    operands: vec![0, 2, 1],
                },
                GateSpec {
                    kind: CellKind::Inv,
                    operands: vec![4],
                },
            ],
            ff_d: vec![5, 0],
            outputs: 2,
        };
        let back = circuit_spec_from_json(&reparse(&circuit_spec_to_json(&spec))).unwrap();
        assert_eq!(spec, back);
        let mut bad = circuit_spec_to_json(&spec).to_string_compact();
        bad = bad.replace("AOI21", "DFFR");
        assert!(circuit_spec_from_json(&ssresf_json::parse(&bad).unwrap()).is_err());
    }
}
