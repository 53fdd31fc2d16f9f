//! JSON codecs for simulation artifacts that cross process boundaries.
//!
//! The serve layer memoizes golden traces and engine checkpoints on disk
//! and ships them between coordinator and worker processes; this module
//! gives the simulation types an exact, self-contained JSON form (built on
//! `ssresf-json`, whose shortest-round-trip float printing makes every
//! `f64` survive a round trip bit-exactly).
//!
//! Logic values are packed as `0`/`1`/`x`/`z` characters — a trace row
//! becomes one string — keeping million-row golden traces compact.
//!
//! Only [`LevelizedState`] snapshots are encodable: the levelized engine
//! is memoryless between cycles, so its snapshot is a plain value. An
//! event-driven snapshot embeds an event wheel and is rejected — callers
//! fall back to re-simulating (a cache miss, not an error).
//!
//! Decoders read every member through the `ssresf-json` field accessors,
//! so they are total: a missing, mistyped or out-of-range member (a cell
//! id past `u32`, say) is an error naming its key, never a panic or a
//! silent truncation.

#![deny(clippy::cast_possible_truncation)]

use crate::engine::{EngineState, EngineTelemetry};
use crate::inject::{Fault, SetFault, SeuFault};
use crate::levelized::LevelizedState;
use crate::trace::CycleTrace;
use crate::value::Logic;
use ssresf_json::Value;
use ssresf_netlist::{CellId, NetId};

/// Encodes one logic value as its trace character.
fn logic_char(l: Logic) -> char {
    match l {
        Logic::Zero => '0',
        Logic::One => '1',
        Logic::X => 'x',
        Logic::Z => 'z',
    }
}

/// Decodes a trace character.
fn logic_of(c: char) -> Result<Logic, String> {
    match c {
        '0' => Ok(Logic::Zero),
        '1' => Ok(Logic::One),
        'x' => Ok(Logic::X),
        'z' => Ok(Logic::Z),
        other => Err(format!("invalid logic character {other:?}")),
    }
}

/// Packs a logic slice into one `0`/`1`/`x`/`z` string.
pub fn logic_row_to_json(row: &[Logic]) -> Value {
    Value::String(row.iter().map(|&l| logic_char(l)).collect())
}

/// Unpacks a packed logic string.
pub fn logic_row_from_json(value: &Value) -> Result<Vec<Logic>, String> {
    value
        .as_str()
        .ok_or_else(|| "logic row must be a string".to_string())?
        .chars()
        .map(logic_of)
        .collect()
}

/// Encodes a fault.
pub fn fault_to_json(fault: &Fault) -> Value {
    match *fault {
        Fault::Seu(f) => ssresf_json::object([
            ("type", Value::from("seu")),
            ("cell", Value::from(f.cell.0)),
            ("cycle", Value::from(f.cycle)),
            ("offset", Value::from(f.offset)),
        ]),
        Fault::Set(f) => ssresf_json::object([
            ("type", Value::from("set")),
            ("net", Value::from(f.net.0)),
            ("cycle", Value::from(f.cycle)),
            ("offset", Value::from(f.offset)),
            ("width", Value::from(f.width)),
        ]),
    }
}

/// Decodes a fault.
pub fn fault_from_json(value: &Value) -> Result<Fault, String> {
    match value.str_field("type")? {
        "seu" => Ok(Fault::Seu(SeuFault {
            cell: CellId(value.int_field("cell")?),
            cycle: value.int_field("cycle")?,
            offset: value.f64_field("offset")?,
        })),
        "set" => Ok(Fault::Set(SetFault {
            net: NetId(value.int_field("net")?),
            cycle: value.int_field("cycle")?,
            offset: value.f64_field("offset")?,
            width: value.f64_field("width")?,
        })),
        other => Err(format!("unknown fault type {other:?}")),
    }
}

/// Encodes a cycle trace with one packed string per row.
pub fn trace_to_json(trace: &CycleTrace) -> Value {
    ssresf_json::object([
        (
            "signals",
            Value::Array(
                trace
                    .signals
                    .iter()
                    .map(|s| Value::from(s.as_str()))
                    .collect(),
            ),
        ),
        (
            "rows",
            Value::Array(trace.rows.iter().map(|r| logic_row_to_json(r)).collect()),
        ),
    ])
}

/// Decodes a cycle trace.
pub fn trace_from_json(value: &Value) -> Result<CycleTrace, String> {
    let signals = value
        .array_field("signals")?
        .iter()
        .map(|s| s.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or("key \"signals\": expected an array of strings")?;
    let rows = value
        .array_field("rows")?
        .iter()
        .map(logic_row_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    for row in &rows {
        if row.len() != signals.len() {
            return Err(format!(
                "trace row has {} values for {} signals",
                row.len(),
                signals.len()
            ));
        }
    }
    Ok(CycleTrace { signals, rows })
}

/// Encodes engine telemetry counters.
pub fn telemetry_to_json(t: &EngineTelemetry) -> Value {
    ssresf_json::object([
        ("events_processed", Value::from(t.events_processed)),
        ("cells_evaluated", Value::from(t.cells_evaluated)),
        ("delta_cycles", Value::from(t.delta_cycles)),
        ("wheel_advances", Value::from(t.wheel_advances)),
        ("restores", Value::from(t.restores)),
        ("word_evals", Value::from(t.word_evals)),
    ])
}

/// Decodes engine telemetry counters.
pub fn telemetry_from_json(value: &Value) -> Result<EngineTelemetry, String> {
    Ok(EngineTelemetry {
        events_processed: value.int_field("events_processed")?,
        cells_evaluated: value.int_field("cells_evaluated")?,
        delta_cycles: value.int_field("delta_cycles")?,
        wheel_advances: value.int_field("wheel_advances")?,
        restores: value.int_field("restores")?,
        word_evals: value.int_field("word_evals")?,
    })
}

/// Encodes a levelized engine snapshot.
pub fn levelized_state_to_json(state: &LevelizedState) -> Value {
    ssresf_json::object([
        ("values", logic_row_to_json(state.values())),
        ("state", logic_row_to_json(state.state())),
        (
            "inverted",
            Value::String(
                state
                    .inverted()
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect(),
            ),
        ),
        (
            "faults",
            Value::Array(state.faults().iter().map(fault_to_json).collect()),
        ),
        ("cycle", Value::from(state.cycle())),
        ("activity", Value::from(state.activity())),
        ("evals", Value::from(state.evals())),
    ])
}

/// Decodes a levelized engine snapshot.
pub fn levelized_state_from_json(value: &Value) -> Result<LevelizedState, String> {
    let inverted = value
        .str_field("inverted")?
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid inverted flag {other:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let faults = value
        .array_field("faults")?
        .iter()
        .map(fault_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LevelizedState::from_parts(
        logic_row_from_json(value.field("values")?)?,
        logic_row_from_json(value.field("state")?)?,
        inverted,
        faults,
        value.int_field("cycle")?,
        value.ints_field("activity")?,
        value.int_field("evals")?,
    ))
}

/// Encodes an engine snapshot. Only levelized snapshots are encodable —
/// see the module docs for why.
///
/// # Errors
///
/// Returns a description for event-driven and oracle snapshots.
pub fn engine_state_to_json(state: &EngineState) -> Result<Value, String> {
    match state {
        EngineState::Levelized(s) => Ok(ssresf_json::object([
            ("engine", Value::from("levelized")),
            ("state", levelized_state_to_json(s)),
        ])),
        EngineState::EventDriven(_) => {
            Err("event-driven snapshots embed an event wheel and are not serializable".into())
        }
        EngineState::Oracle(_) => Err("oracle snapshots are not serializable".into()),
    }
}

/// Decodes an engine snapshot encoded by [`engine_state_to_json`].
pub fn engine_state_from_json(value: &Value) -> Result<EngineState, String> {
    match value.str_field("engine")? {
        "levelized" => Ok(EngineState::Levelized(levelized_state_from_json(
            value.field("state")?,
        )?)),
        other => Err(format!("unknown engine snapshot kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_faults() -> Vec<Fault> {
        vec![
            Fault::Seu(SeuFault {
                cell: CellId(7),
                cycle: 13,
                offset: 0.123_456_789,
            }),
            Fault::Set(SetFault {
                net: NetId(3),
                cycle: 2,
                offset: 0.5,
                width: 0.037,
            }),
        ]
    }

    #[test]
    fn faults_round_trip_exactly() {
        for fault in sample_faults() {
            let text = fault_to_json(&fault).to_string_compact();
            let back = fault_from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
            assert_eq!(fault, back);
        }
    }

    #[test]
    fn ids_past_u32_are_rejected_not_truncated() {
        // 4294967303 = 2^32 + 7 used to decode as id 7.
        for (text, key) in [
            (
                r#"{"type":"seu","cell":4294967303,"cycle":1,"offset":0.5}"#,
                "cell",
            ),
            (
                r#"{"type":"set","net":4294967303,"cycle":1,"offset":0.5,"width":0.1}"#,
                "net",
            ),
        ] {
            let err = fault_from_json(&ssresf_json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{err}");
        }
    }

    #[test]
    fn traces_round_trip_exactly() {
        let trace = CycleTrace {
            signals: vec!["q0".into(), "tap".into()],
            rows: vec![
                vec![Logic::Zero, Logic::X],
                vec![Logic::One, Logic::Z],
                vec![Logic::One, Logic::Zero],
            ],
        };
        let text = trace_to_json(&trace).to_string_compact();
        let back = trace_from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(trace, back);
        // Mismatched row width is rejected.
        let bad = r#"{"signals":["a"],"rows":["01"]}"#;
        assert!(trace_from_json(&ssresf_json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn telemetry_round_trips() {
        let t = EngineTelemetry {
            events_processed: 1,
            cells_evaluated: u64::from(u32::MAX) + 17,
            delta_cycles: 3,
            wheel_advances: 4,
            restores: 5,
            word_evals: 6,
        };
        let text = telemetry_to_json(&t).to_string_compact();
        let back = telemetry_from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn levelized_state_round_trips() {
        let state = LevelizedState::from_parts(
            vec![Logic::Zero, Logic::One, Logic::X],
            vec![Logic::Z, Logic::One],
            vec![true, false, true],
            sample_faults(),
            42,
            vec![0, 9, 3],
            1234,
        );
        let wrapped = EngineState::Levelized(state.clone());
        let text = engine_state_to_json(&wrapped).unwrap().to_string_compact();
        let back = engine_state_from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        match back {
            EngineState::Levelized(s) => assert_eq!(s, state),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
