//! Campaign progress reporting and pipeline instrumentation hooks.
//!
//! A [`ProgressSink`] receives [`CampaignProgress`] reports while a
//! campaign runs: one `Start` report before workers spawn, periodic
//! `Heartbeat` reports as injections complete, and one `Finished` report
//! (with per-worker utilization) after workers join. Attach a sink — and
//! optionally a [`MetricsRegistry`] — through [`Instrument`], accepted by
//! [`run_campaign_with`](crate::campaign::run_campaign_with) and
//! [`Ssresf::analyze_with`](crate::framework::Ssresf::analyze_with).
//! Instrumentation is observational only: attaching it never changes
//! records or traces.

use ssresf_telemetry::MetricsRegistry;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Default number of completed injections between heartbeat reports.
pub const DEFAULT_HEARTBEAT_EVERY: usize = 64;

/// Which point of the campaign a [`CampaignProgress`] report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressPhase {
    /// Before any injection has run (golden run already complete).
    Start,
    /// A periodic mid-campaign report.
    Heartbeat,
    /// After every worker joined; totals are final and
    /// [`CampaignProgress::workers`] is populated.
    Finished,
}

/// Utilization of one campaign worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker index (chunk order).
    pub worker: usize,
    /// Injection jobs the worker completed.
    pub jobs: usize,
    /// Wall-clock time the worker spent simulating.
    pub busy: Duration,
}

/// A progress report delivered to a [`ProgressSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignProgress {
    /// Where in the campaign this report was taken.
    pub phase: ProgressPhase,
    /// Injections completed so far.
    pub completed: usize,
    /// Total injections the campaign will run.
    pub total: usize,
    /// Soft errors observed so far.
    pub soft_errors: usize,
    /// Wall-clock time since the campaign started injecting.
    pub elapsed: Duration,
    /// Per-worker utilization; empty until the `Finished` report.
    pub workers: Vec<WorkerUtilization>,
}

impl CampaignProgress {
    /// Completed injections per second of elapsed time (0 when no time has
    /// passed).
    pub fn throughput_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Completed fraction in `[0, 1]` (1 when the campaign is empty).
    pub fn fraction_done(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.completed as f64 / self.total as f64
        }
    }
}

/// Receives progress reports from a running campaign.
///
/// Implementations must be `Sync`: heartbeats are delivered concurrently
/// from worker threads.
pub trait ProgressSink: Sync {
    /// Called with each progress report.
    fn report(&self, progress: &CampaignProgress);
}

/// Observability hooks threaded through a campaign or a full analysis.
///
/// All fields are optional; `Instrument::default()` is a no-op equivalent
/// to running uninstrumented.
#[derive(Clone, Copy, Default)]
pub struct Instrument<'a> {
    /// Receives counters, gauges, histograms and stage timings.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Receives campaign progress reports.
    pub progress: Option<&'a dyn ProgressSink>,
    /// Completed injections between heartbeats (0 = use
    /// [`DEFAULT_HEARTBEAT_EVERY`]).
    pub heartbeat_every: usize,
    /// External cancellation flag. When set mid-campaign, workers stop at
    /// the next poll point (between scalar injections, between batches,
    /// and between lane-refill rounds inside a queued batch) and the
    /// campaign returns [`SsresfError::Cancelled`](crate::SsresfError).
    pub cancel: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for Instrument<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instrument")
            .field("metrics", &self.metrics.is_some())
            .field("progress", &self.progress.is_some())
            .field("heartbeat_every", &self.heartbeat_every)
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl<'a> Instrument<'a> {
    /// Hooks that only record metrics.
    pub fn with_metrics(metrics: &'a MetricsRegistry) -> Self {
        Instrument {
            metrics: Some(metrics),
            ..Instrument::default()
        }
    }

    /// Publishes `elapsed` as the `name` stage timing and returns it.
    pub(crate) fn stage(&self, name: &str, elapsed: Duration) -> Duration {
        if let Some(metrics) = self.metrics {
            metrics.timing_add(name, elapsed);
        }
        elapsed
    }

    /// The effective heartbeat period.
    pub(crate) fn heartbeat(&self) -> usize {
        if self.heartbeat_every == 0 {
            DEFAULT_HEARTBEAT_EVERY
        } else {
            self.heartbeat_every
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_fraction_handle_zero() {
        let p = CampaignProgress {
            phase: ProgressPhase::Start,
            completed: 0,
            total: 0,
            soft_errors: 0,
            elapsed: Duration::ZERO,
            workers: Vec::new(),
        };
        assert_eq!(p.throughput_per_second(), 0.0);
        assert_eq!(p.fraction_done(), 1.0);

        let p = CampaignProgress {
            phase: ProgressPhase::Heartbeat,
            completed: 50,
            total: 200,
            soft_errors: 5,
            elapsed: Duration::from_secs(2),
            workers: Vec::new(),
        };
        assert_eq!(p.throughput_per_second(), 25.0);
        assert_eq!(p.fraction_done(), 0.25);
    }

    #[test]
    fn default_instrument_is_inert() {
        let hooks = Instrument::default();
        assert!(hooks.metrics.is_none());
        assert!(hooks.progress.is_none());
        assert_eq!(hooks.heartbeat(), DEFAULT_HEARTBEAT_EVERY);
    }
}
