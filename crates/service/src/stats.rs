//! Observability: per-class serving counters and latency histograms, each
//! declared once as a [`Series`] for both scraping surfaces.

use crate::request::PriorityClass;
use duoquest_core::SchedulerStats;
use duoquest_obs::{HistogramSnapshot, Reading::*, Series, Surface};

/// Serving counters and latency histograms of one priority class, from
/// [`SynthesisService::stats`](crate::SynthesisService::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The class these numbers describe.
    pub class: PriorityClass,
    /// Requests currently waiting in the admission queue.
    pub queued: usize,
    /// Requests currently running.
    pub live: usize,
    /// Requests admitted (started or queued) since the service started.
    pub submitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled (explicitly, by a dropped ticket, or at shutdown).
    pub cancelled: u64,
    /// Requests that hit their deadline (running or still queued).
    pub expired: u64,
    /// Requests refused at admission because both the live-session limit and
    /// the queue bound were exhausted.
    pub shed: u64,
    /// Time from submission to first candidate. Its quantiles are the
    /// holding bucket's upper bound — an estimate within one power of two —
    /// and `None` until a request of this class emits.
    pub ttfc: HistogramSnapshot,
    /// Time from submission to run start (admission queue wait).
    pub queue_wait: HistogramSnapshot,
}

impl ClassStats {
    /// Every series of the class, declared once: served under
    /// `"classes".<label>` in `/stats` and labelled `class="<label>"` in
    /// `/metrics`.
    pub fn series(&self) -> [Series<'_>; 9] {
        [
            Series::new(
                "queued",
                "duoquest_requests_queued",
                "Requests currently waiting in the admission queue.",
                Gauge(self.queued as u64),
            ),
            Series::new(
                "live",
                "duoquest_requests_live",
                "Requests currently running.",
                Gauge(self.live as u64),
            ),
            Series::new(
                "submitted",
                "duoquest_requests_submitted_total",
                "Requests admitted (started or queued) since the service started.",
                Counter(self.submitted),
            ),
            Series::new(
                "completed",
                "duoquest_requests_completed_total",
                "Requests that ran to completion.",
                Counter(self.completed),
            ),
            Series::new(
                "cancelled",
                "duoquest_requests_cancelled_total",
                "Requests cancelled (explicitly, by a dropped ticket, or at shutdown).",
                Counter(self.cancelled),
            ),
            Series::new(
                "expired",
                "duoquest_requests_expired_total",
                "Requests that hit their deadline, running or queued.",
                Counter(self.expired),
            ),
            Series::new(
                "shed",
                "duoquest_requests_shed_total",
                "Requests refused at admission (live and queue bounds exhausted).",
                Counter(self.shed),
            ),
            Series::new(
                "ttfc",
                "duoquest_ttfc_us",
                "Time from submission to first candidate, microseconds.",
                Histogram(&self.ttfc),
            ),
            Series::new(
                "queue_wait",
                "duoquest_queue_wait_us",
                "Time from submission to run start, microseconds.",
                Histogram(&self.queue_wait),
            ),
        ]
        .map(|s| s.labelled("class", self.class.label()))
    }
}

/// A point-in-time snapshot of the whole service: admission state per class
/// plus the shared scheduler pool's load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests currently running, across all classes.
    pub live_sessions: usize,
    /// Requests currently queued, across all classes.
    pub queued_requests: usize,
    /// High-water mark of concurrently live requests since the service
    /// started — with scheduler-driven sessions this can sit far above the
    /// worker count, because live requests cost memory, not threads.
    pub live_sessions_peak: usize,
    /// Completed request traces retained by the flight recorder.
    pub flight_traces: usize,
    /// Per-class breakdown, indexed like [`PriorityClass::ALL`].
    pub classes: [ClassStats; 3],
    /// The shared scheduler pool's load.
    pub scheduler: SchedulerStats,
}

impl ServiceStats {
    /// The stats of one class.
    pub fn class(&self, class: PriorityClass) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Walk every series of the snapshot into `surface`: the service's own
    /// gauges, then each class under `"classes"`, then the pool under
    /// `"scheduler"`. `GET /stats` and `GET /metrics` both render this walk.
    pub fn render(&self, surface: &mut dyn Surface) {
        for series in &[
            Series::new(
                "live_sessions",
                "duoquest_live_sessions",
                "Requests currently running, all classes.",
                Gauge(self.live_sessions as u64),
            ),
            Series::new(
                "queued_requests",
                "duoquest_queued_requests",
                "Requests currently queued, all classes.",
                Gauge(self.queued_requests as u64),
            ),
            Series::new(
                "live_sessions_peak",
                "duoquest_live_sessions_peak",
                "High-water mark of concurrently live requests.",
                Gauge(self.live_sessions_peak as u64),
            ),
            Series::new(
                "flight_traces",
                "duoquest_flight_traces",
                "Completed request traces retained by the flight recorder.",
                Gauge(self.flight_traces as u64),
            ),
        ] {
            surface.series(series);
        }
        surface.open("classes");
        for class in &self.classes {
            surface.section(class.class.label(), &class.series());
        }
        surface.close();
        surface.section("scheduler", &self.scheduler.series());
    }
}

#[cfg(test)]
mod tests {
    use duoquest_obs::Histogram;
    use std::time::Duration;

    // The TTFC percentiles now come from a lossless log-bucketed histogram
    // (`duoquest_obs::Histogram`) instead of a sampling reservoir: every
    // sample lands, and the reported percentile is the holding bucket's
    // upper bound.

    #[test]
    fn histogram_percentiles_feed_class_stats() {
        let h = Histogram::default();
        for ms in 1..=10u64 {
            h.record(Duration::from_millis(ms));
        }
        let snapshot = h.snapshot();
        // p50 over 1..=10ms lands in the bucket covering 5ms (le = 8192µs).
        assert_eq!(snapshot.quantile_us(0.50), Some(8192));
        assert_eq!(snapshot.quantile_us(0.95), Some(16384));
        assert_eq!(snapshot.count(), 10, "no samples lost, unlike the old reservoir");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let snapshot = Histogram::default().snapshot();
        assert_eq!(snapshot.quantile_us(0.50), None);
        assert_eq!(snapshot.quantile_us(0.95), None);
    }
}
