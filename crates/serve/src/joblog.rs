//! The append-only job log.
//!
//! Every coordinator decision — submission, cache hit, shard completion,
//! merge, cancellation — appends one compact JSON line to a log file.
//! Lines carry a monotonically increasing `seq`, so a log replays into the
//! exact event order even after crashes mid-line (a torn final line is
//! dropped, never misparsed, because replay requires each line to parse).

use ssresf_json::Value;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// An append-only JSONL job log.
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    next_seq: u64,
}

impl JobLog {
    /// Opens (creating if needed) the log at `path` — parent directories
    /// included — resuming the sequence number after the last well-formed
    /// line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let next_seq = match fs::read_to_string(&path) {
            Ok(text) => replay_lines(&text)
                .last()
                .and_then(|e| e.int_field::<u64>("seq").ok())
                .map_or(0, |s| s + 1),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        Ok(JobLog { path, next_seq })
    }

    /// Appends one event, stamping it with the next sequence number. The
    /// `fields` extend the `{seq, event}` envelope.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append<'f>(
        &mut self,
        event: &str,
        fields: impl IntoIterator<Item = (&'f str, Value)>,
    ) -> io::Result<()> {
        let mut members = vec![
            ("seq", Value::from(self.next_seq)),
            ("event", Value::from(event)),
        ];
        members.extend(fields);
        let line = ssresf_json::object(members).to_string_compact();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{line}")?;
        self.next_seq += 1;
        Ok(())
    }
}

/// Replays a job log into its well-formed events, in order. A torn final
/// line (crash mid-append) is dropped; a torn *interior* line is an error,
/// since events after it would replay out of sequence.
///
/// # Errors
///
/// Propagates read failures and interior corruption.
pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<Value>> {
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut events = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match ssresf_json::parse(line) {
            Ok(event) => events.push(event),
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("torn interior log line {}: {e}", i + 1),
                ))
            }
        }
    }
    Ok(events)
}

fn replay_lines(text: &str) -> Vec<Value> {
    text.lines()
        .filter_map(|l| ssresf_json::parse(l).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ssresf-serve-joblog-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn log_replays_in_sequence_and_resumes_numbering() {
        let path = temp_log("seq");
        let _ = fs::remove_file(&path);
        let mut log = JobLog::open(&path).unwrap();
        log.append("submitted", [("key", Value::from("abc"))])
            .unwrap();
        log.append("merged", [("records", Value::from(12u64))])
            .unwrap();
        drop(log);
        // Reopening resumes after the last event.
        let mut log = JobLog::open(&path).unwrap();
        log.append("cancelled", []).unwrap();
        let events = replay(&path).unwrap();
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("seq").and_then(Value::as_u64), Some(i as u64));
        }
        assert_eq!(
            events[2].get("event").and_then(Value::as_str),
            Some("cancelled")
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_torn_interior_is_an_error() {
        let path = temp_log("torn");
        fs::write(&path, "{\"seq\":0,\"event\":\"a\"}\n{\"seq\":1,\"ev").unwrap();
        let events = replay(&path).unwrap();
        assert_eq!(events.len(), 1);
        fs::write(&path, "{\"seq\":0,\"ev\n{\"seq\":1,\"event\":\"b\"}").unwrap();
        assert!(replay(&path).is_err());
        fs::remove_file(&path).unwrap();
    }
}
