//! Result bookkeeping: named metrics, operation counts and the one-line
//! JSON result the runner prints.

use ssresf_json::Value;
use std::time::Instant;

/// Metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> Value {
        ssresf_json::object(self.0.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                ssresf_json::object([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
            )
        }))
    }
}

/// Counts operations (analyses, served jobs, traced compositions) and the
/// ones that errored or failed a correctness check.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failure is described on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {reason}");
        }
    }
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(ops: &Ops, metrics: &Metrics) -> String {
    ssresf_json::object([
        ("correct", Value::from(ops.failed == 0)),
        ("attempted", Value::from(ops.attempted)),
        ("failed", Value::from(ops.failed)),
        ("metrics", metrics.to_json()),
    ])
    .to_string_compact()
}

/// Times `f`, adding its seconds to `slot`.
pub fn span<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed().as_secs_f64();
    out
}

/// Interquartile mean of `values`: the mean of what is left after the
/// lowest and the highest quarter are dropped. Like a median it ignores
/// outliers, but it moves smoothly when samples fall into two speed
/// states, as they do on a shared virtual machine, where a median jumps
/// from one state to the other.
///
/// # Panics
///
/// Panics on an empty slice: every timed loop runs at least once.
pub fn iq_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Median of the medians of `groups`, for short operations sampled in
/// groups spread over a run. A group's samples share one stretch of
/// machine time, so its median drops the odd slow sample. Across groups,
/// the median drops the stretches where the machine ran slow (a shared
/// host's speed drifts over seconds) and warm-up, such as the first group
/// of a fresh process, without weighing any one long sample.
///
/// # Panics
///
/// Panics when there is no group or a group is empty.
pub fn median_of_medians(groups: &[Vec<f64>]) -> f64 {
    median(&groups.iter().map(|g| median(g)).collect::<Vec<_>>())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or has no `VmHWM` line,
/// rather than reporting a made-up zero.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// `n / seconds`, or 0 when nothing was timed.
pub fn rate(n: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        n as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iq_mean_drops_the_outer_quarters() {
        assert_eq!(iq_mean(&[3.0]), 3.0);
        assert_eq!(iq_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
    }

    #[test]
    fn median_of_medians_ignores_slow_samples_and_groups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let groups = vec![vec![1.0, 1.0, 9.0], vec![2.0], vec![7.0, 8.0]];
        assert_eq!(median_of_medians(&groups), 2.0);
    }

    #[test]
    fn result_line_reports_failures() {
        let mut ops = Ops::default();
        ops.record("ok", Ok(()));
        ops.record("bad", Err("mismatch".into()));
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.5, "s");
        let line = result_line(&ops, &metrics);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
    }
}
