//! The coordinator/worker wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte little-endian byte length followed by exactly
//! that many bytes of compact JSON. Framing keeps the protocol trivially
//! parseable from a pipe without any streaming JSON machinery, and the
//! length prefix lets a reader reject garbage (or a runaway writer) before
//! allocating.
//! [`Message::from_json`] is total: a bad member is an error naming its key.

#![deny(clippy::cast_possible_truncation)]

use crate::codec::{shard_outcome_from_json, shard_outcome_to_json};
use crate::key::JobSpec;
use ssresf::ShardOutcome;
use ssresf_json::Value;
use std::io::{self, Read, Write};

/// Upper bound on a single frame body. Shard results carry full golden
/// traces, so the bound is generous — it exists to fail fast when the
/// stream desynchronizes, not to ration memory.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Writes one frame and flushes (heartbeats must not sit in a pipe
/// buffer).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame(writer: &mut impl Write, value: &Value) -> io::Result<()> {
    let body = value.to_string_compact();
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O failures; truncated frames, oversized lengths and
/// invalid JSON are `InvalidData`.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Value>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    ssresf_json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A protocol message. Coordinator → worker: [`Message::Job`] then
/// optionally [`Message::Cancel`]. Worker → coordinator: any number of
/// [`Message::Heartbeat`]s followed by exactly one terminal
/// [`Message::Result`], [`Message::Cancelled`] or [`Message::Error`].
// One Message exists per frame, transiently, on its way to or from the
// wire — the Job variant's size never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Message {
    /// Assigns the worker its shard of a campaign job.
    Job {
        /// The campaign job (netlist spec, cells, config).
        spec: JobSpec,
        /// Shard index in `0..shard_count`.
        shard: usize,
        /// Total shards in the plan.
        shard_count: usize,
        /// Artifact-cache root the worker may read and write, if any.
        cache_root: Option<String>,
        /// Byte cap for the worker's cache writes.
        cache_max_bytes: Option<u64>,
    },
    /// Asks the worker to stop at the next cancellation poll point.
    Cancel,
    /// Periodic shard-local progress.
    Heartbeat {
        /// The reporting worker's shard index.
        shard: usize,
        /// Injections completed in the shard so far.
        completed: usize,
        /// Total injections the shard will run.
        total: usize,
        /// Soft errors observed in the shard so far.
        soft_errors: usize,
        /// Seconds since the shard started injecting.
        elapsed_seconds: f64,
        /// Progress phase (`start` / `heartbeat` / `finished`).
        phase: String,
    },
    /// Terminal: the shard completed.
    Result {
        /// The shard's outcome.
        outcome: Box<ShardOutcome>,
        /// Artifact-cache hits the worker saw while running the shard.
        cache_hits: u64,
        /// Artifact-cache misses the worker saw while running the shard.
        cache_misses: u64,
    },
    /// Terminal: the shard stopped at a cancellation poll point.
    Cancelled {
        /// The cancelled worker's shard index.
        shard: usize,
    },
    /// Terminal: the shard failed.
    Error {
        /// Failure description.
        message: String,
    },
}

impl Message {
    /// Encodes the message as a frame body.
    pub fn to_json(&self) -> Value {
        match self {
            Message::Job {
                spec,
                shard,
                shard_count,
                cache_root,
                cache_max_bytes,
            } => {
                let mut fields = vec![
                    ("type", Value::from("job")),
                    ("spec", spec.to_json()),
                    ("shard", Value::from(*shard)),
                    ("shard_count", Value::from(*shard_count)),
                ];
                if let Some(root) = cache_root {
                    fields.push(("cache_root", Value::from(root.as_str())));
                }
                if let Some(cap) = cache_max_bytes {
                    fields.push(("cache_max_bytes", Value::from(*cap)));
                }
                ssresf_json::object(fields)
            }
            Message::Cancel => ssresf_json::object([("type", Value::from("cancel"))]),
            Message::Heartbeat {
                shard,
                completed,
                total,
                soft_errors,
                elapsed_seconds,
                phase,
            } => ssresf_json::object([
                ("type", Value::from("heartbeat")),
                ("shard", Value::from(*shard)),
                ("completed", Value::from(*completed)),
                ("total", Value::from(*total)),
                ("soft_errors", Value::from(*soft_errors)),
                ("elapsed_seconds", Value::from(*elapsed_seconds)),
                ("phase", Value::from(phase.as_str())),
            ]),
            Message::Result {
                outcome,
                cache_hits,
                cache_misses,
            } => ssresf_json::object([
                ("type", Value::from("result")),
                ("outcome", shard_outcome_to_json(outcome)),
                ("cache_hits", Value::from(*cache_hits)),
                ("cache_misses", Value::from(*cache_misses)),
            ]),
            Message::Cancelled { shard } => ssresf_json::object([
                ("type", Value::from("cancelled")),
                ("shard", Value::from(*shard)),
            ]),
            Message::Error { message } => ssresf_json::object([
                ("type", Value::from("error")),
                ("message", Value::from(message.as_str())),
            ]),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not a valid message.
    pub fn from_json(value: &Value) -> Result<Message, String> {
        match value.str_field("type")? {
            "job" => Ok(Message::Job {
                spec: JobSpec::from_json(value.field("spec")?)?,
                shard: value.int_field("shard")?,
                shard_count: value.int_field("shard_count")?,
                cache_root: value
                    .optional("cache_root", Value::str_field)?
                    .map(str::to_owned),
                cache_max_bytes: value.optional("cache_max_bytes", Value::int_field)?,
            }),
            "cancel" => Ok(Message::Cancel),
            "heartbeat" => Ok(Message::Heartbeat {
                shard: value.int_field("shard")?,
                completed: value.int_field("completed")?,
                total: value.int_field("total")?,
                soft_errors: value.int_field("soft_errors")?,
                elapsed_seconds: value.f64_field("elapsed_seconds")?,
                phase: value.str_field("phase")?.to_owned(),
            }),
            "result" => Ok(Message::Result {
                outcome: Box::new(shard_outcome_from_json(value.field("outcome")?)?),
                cache_hits: value.optional("cache_hits", Value::int_field)?.unwrap_or(0),
                cache_misses: value
                    .optional("cache_misses", Value::int_field)?
                    .unwrap_or(0),
            }),
            "cancelled" => Ok(Message::Cancelled {
                shard: value.int_field("shard")?,
            }),
            "error" => Ok(Message::Error {
                message: value.str_field("message")?.to_owned(),
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let values = [
            Message::Cancel.to_json(),
            Message::Error {
                message: "boom".into(),
            }
            .to_json(),
        ];
        let mut buf = Vec::new();
        for v in &values {
            write_frame(&mut buf, v).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for v in &values {
            let back = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(back.to_string_compact(), v.to_string_compact());
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut bad = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(b"{}");
        assert!(read_frame(&mut Cursor::new(bad)).is_err());
        // A frame cut off mid-body is an error, not an EOF.
        let mut cut = Vec::new();
        write_frame(&mut cut, &Message::Cancel.to_json()).unwrap();
        cut.truncate(cut.len() - 1);
        assert!(read_frame(&mut Cursor::new(cut)).is_err());
    }
}
