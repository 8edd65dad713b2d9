//! Serving metrics: lock-free counters plus a log-scale latency histogram.
//!
//! All recording paths are atomic (relaxed ordering — metrics tolerate
//! torn cross-counter reads), so workers never contend on a lock to
//! report. [`Metrics::snapshot`] folds everything into a [`ServerStats`]
//! value for display.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of power-of-two latency buckets; bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds. The last bucket is an explicit
/// overflow bucket holding everything from `2^(BUCKETS-1)` ns
/// (~9.2 minutes) up — any latency that long is an outage, not a
/// percentile, so finer resolution past it buys nothing.
const BUCKETS: usize = 40;

/// Upper bound reported for the overflow bucket: `2^BUCKETS`
/// nanoseconds (~18.3 minutes). A percentile landing in the overflow
/// bucket saturates to this sentinel instead of the old
/// `Duration::from_nanos(u64::MAX)` (~584 years), which used to poison
/// p99 dashboards after a single stuck request. Check
/// [`ServerStats::latency_overflows`] to see how many completions
/// actually saturated.
pub const LATENCY_OVERFLOW_NS: u64 = 1 << BUCKETS;

/// Power-of-two batch-size buckets: bucket `i` counts batches of
/// `[2^i, 2^(i+1))` rows, with the last bucket holding everything from
/// `2^(BATCH_BUCKETS-1)` rows up. 16 buckets reach 32k-row batches —
/// far past any sane `max_batch_size`.
pub const BATCH_BUCKETS: usize = 16;

/// Shared, thread-safe metrics sink for a serving engine.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_buckets: [AtomicU64; BATCH_BUCKETS],
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    latency_sum_ns: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates an empty sink; uptime counts from this instant.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_depth: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            latency_sum_ns: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records an accepted request and the queue depth it observed.
    pub fn record_submit(&self, queue_depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.set_queue_depth(queue_depth);
    }

    /// Records a rejected (queue-full) request.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed by admission control *before* it reached
    /// the engine queue — visible load-shedding (HTTP 429 at a gateway)
    /// as opposed to [`record_rejected`](Self::record_rejected)'s
    /// queue-full backpressure.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one gathered batch of `size` rows, including its bucket
    /// in the log-scale size distribution — the mean alone can't tell
    /// "steady batches of 8" from "mostly singletons plus rare bursts",
    /// and that difference is exactly what dynamic-batching tuning
    /// (`max_wait`, `max_batch_size`) needs to see.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        let bucket = ((size as u64).max(1).ilog2() as usize).min(BATCH_BUCKETS - 1);
        self.batch_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed request with its end-to-end latency.
    pub fn record_completion(&self, latency: Duration, ok: bool) {
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency_sum_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = (ns.max(1).ilog2() as usize).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the current queue-depth gauge (and its high-water mark).
    pub fn set_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Folds the counters into a point-in-time snapshot.
    pub fn snapshot(&self) -> ServerStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        let finished = completed + failed;
        let buckets: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mean_latency = self
            .latency_sum_ns
            .load(Ordering::Relaxed)
            .checked_div(finished)
            .map_or(Duration::ZERO, Duration::from_nanos);
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed,
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            batch_size_buckets: std::array::from_fn(|i| {
                self.batch_buckets[i].load(Ordering::Relaxed)
            }),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            mean_latency,
            p50_latency: percentile(&buckets, finished, 0.50),
            p90_latency: percentile(&buckets, finished, 0.90),
            p99_latency: percentile(&buckets, finished, 0.99),
            latency_overflows: buckets[BUCKETS - 1],
            throughput_rps: if uptime.as_secs_f64() > 0.0 {
                finished as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            uptime,
        }
    }
}

/// Upper bound of the bucket containing the requested quantile.
///
/// Total / per-bucket counts are loaded from independent relaxed
/// atomics, so they may disagree under concurrent recording and `total`
/// may be zero on an idle (or freshly hot-swapped) engine. Every such
/// combination yields `Duration::ZERO` or a real bucket bound — never a
/// panic or a garbage duration.
fn percentile(buckets: &[u64], total: u64, q: f64) -> Duration {
    if total == 0 {
        return Duration::ZERO;
    }
    // `max(1).min(total)` rather than `clamp(1, total)`: clamp panics
    // when its bounds invert, and this function must stay total for any
    // torn counter snapshot.
    let rank = ((total as f64 * q).ceil() as u64).max(1).min(total);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            // A quantile in the overflow bucket saturates to the
            // bucket's nominal bound (the next power of two) rather
            // than `u64::MAX`: one stuck request used to report a
            // ~584-year p99.
            return Duration::from_nanos(1u64 << (i + 1).min(buckets.len()));
        }
    }
    Duration::ZERO
}

/// Point-in-time view of a serving engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that finished with an error.
    pub failed: u64,
    /// Requests bounced with [`crate::ServeError::QueueFull`].
    pub rejected: u64,
    /// Requests shed by admission control before reaching the queue
    /// (recorded via [`Metrics::record_shed`], e.g. a gateway's 429s past
    /// its in-flight budget; a 429 at a full queue counts as `rejected`).
    pub shed: u64,
    /// Batches executed by the workers.
    pub batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch_size: f64,
    /// Log-scale batch-size distribution: `batch_size_buckets[i]`
    /// counts executed batches of `[2^i, 2^(i+1))` rows (last bucket is
    /// the overflow). Sums to [`batches`](Self::batches).
    pub batch_size_buckets: [u64; BATCH_BUCKETS],
    /// Queue depth at the last submit/drain.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: u64,
    /// Mean end-to-end latency over finished requests.
    pub mean_latency: Duration,
    /// Median latency (bucket upper bound, 2x log-scale resolution).
    pub p50_latency: Duration,
    /// 90th-percentile latency.
    pub p90_latency: Duration,
    /// 99th-percentile latency. Saturates at
    /// [`LATENCY_OVERFLOW_NS`] nanoseconds; when it reads exactly that
    /// value, [`latency_overflows`](Self::latency_overflows) says how
    /// many completions actually exceeded the histogram range.
    pub p99_latency: Duration,
    /// Completions that landed in the histogram's overflow bucket
    /// (latency at or above `2^39` ns, ~9.2 minutes).
    pub latency_overflows: u64,
    /// Finished requests per second of uptime.
    pub throughput_rps: f64,
    /// Time since the metrics sink was created.
    pub uptime: Duration,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok / {} failed / {} rejected / {} shed of {} submitted | {} batches (mean {:.1}) | \
             queue {} (peak {}) | latency mean {:?} p50 {:?} p90 {:?} p99 {:?} | {:.0} req/s",
            self.completed,
            self.failed,
            self.rejected,
            self.shed,
            self.submitted,
            self.batches,
            self.mean_batch_size,
            self.queue_depth,
            self.peak_queue_depth,
            self.mean_latency,
            self.p50_latency,
            self.p90_latency,
            self.p99_latency,
            self.throughput_rps,
        )?;
        if self.latency_overflows > 0 {
            write!(f, " | {} latency overflow(s)", self.latency_overflows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_submit(3);
        m.record_submit(7);
        m.record_rejected();
        m.record_batch(2);
        m.record_completion(Duration::from_micros(10), true);
        m.record_completion(Duration::from_micros(20), false);
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.peak_queue_depth, 7);
        assert!(s.mean_latency >= Duration::from_micros(10));
    }

    /// The batch-size histogram separates shapes the mean conflates.
    #[test]
    fn batch_size_distribution_buckets_by_rows() {
        let m = Metrics::new();
        m.record_batch(1); // bucket 0
        m.record_batch(1); // bucket 0
        m.record_batch(8); // bucket 3
        m.record_batch(15); // bucket 3
        m.record_batch(1 << 20); // clamps to the overflow bucket
        let s = m.snapshot();
        assert_eq!(s.batch_size_buckets[0], 2);
        assert_eq!(s.batch_size_buckets[3], 2);
        assert_eq!(s.batch_size_buckets[BATCH_BUCKETS - 1], 1);
        assert_eq!(s.batch_size_buckets.iter().sum::<u64>(), s.batches);
    }

    #[test]
    fn percentiles_track_bucket_bounds() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_completion(Duration::from_nanos(100), true);
        }
        m.record_completion(Duration::from_millis(10), true);
        let s = m.snapshot();
        assert!(s.p50_latency <= Duration::from_nanos(256));
        assert!(s.p99_latency <= Duration::from_nanos(256));
        // The single slow request shows up above p99.
        assert!(s.p50_latency < Duration::from_millis(1));
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_latency, Duration::ZERO);
        assert_eq!(s.mean_latency, Duration::ZERO);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.shed, 0);
    }

    /// An idle or just-swapped engine (`finished == 0`, possibly with
    /// sheds/rejections already recorded) must snapshot to zeroed
    /// latencies — no division by zero, no panicking rank clamp, no
    /// garbage `Duration`s.
    #[test]
    fn idle_snapshot_with_sheds_is_safe() {
        let m = Metrics::new();
        for _ in 0..5 {
            m.record_shed();
        }
        m.record_rejected();
        m.record_submit(3);
        let s = m.snapshot();
        assert_eq!(s.shed, 5);
        assert_eq!(s.rejected, 1);
        assert_eq!((s.completed, s.failed), (0, 0));
        assert_eq!(s.mean_latency, Duration::ZERO);
        assert_eq!(s.p50_latency, Duration::ZERO);
        assert_eq!(s.p90_latency, Duration::ZERO);
        assert_eq!(s.p99_latency, Duration::ZERO);
    }

    /// `percentile` stays total even when the bucket counts and the
    /// finished total disagree (torn relaxed-atomic snapshot).
    #[test]
    fn percentile_survives_torn_totals() {
        // Total larger than the bucket sum: rank never reached.
        assert_eq!(percentile(&[1, 0, 0], 10, 0.99), Duration::ZERO);
        // Total smaller than the bucket sum: clamps into the buckets.
        assert!(percentile(&[4, 4], 1, 0.5) > Duration::ZERO);
        // Zero total short-circuits.
        assert_eq!(percentile(&[7, 7], 0, 0.5), Duration::ZERO);
    }

    /// One pathological completion must not poison the percentiles
    /// with a ~584-year duration: it saturates to the overflow
    /// sentinel and is counted honestly.
    #[test]
    fn huge_latency_saturates_instead_of_poisoning_p99() {
        let m = Metrics::new();
        // ~115 days: far past the overflow bucket's 2^39 ns lower bound.
        m.record_completion(Duration::from_secs(10_000_000), true);
        let s = m.snapshot();
        assert_eq!(s.latency_overflows, 1);
        assert_eq!(s.p99_latency, Duration::from_nanos(LATENCY_OVERFLOW_NS));
        assert_eq!(s.p50_latency, Duration::from_nanos(LATENCY_OVERFLOW_NS));
        // The sentinel is ~18 minutes, not centuries.
        assert!(s.p99_latency < Duration::from_secs(60 * 60));
        assert!(s.to_string().contains("1 latency overflow(s)"));

        // Normal traffic keeps the overflow count at zero and its
        // percentiles in real buckets.
        let m = Metrics::new();
        m.record_completion(Duration::from_micros(50), true);
        let s = m.snapshot();
        assert_eq!(s.latency_overflows, 0);
        assert!(s.p99_latency < Duration::from_millis(1));
        assert!(!s.to_string().contains("overflow"));
    }

    #[test]
    fn display_is_single_line() {
        let m = Metrics::new();
        m.record_completion(Duration::from_micros(5), true);
        let line = m.snapshot().to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("req/s"));
    }
}
