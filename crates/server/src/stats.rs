//! Server-wide observability counters and the latency reservoir.
//!
//! Everything the protocol's `stats` verb reports lives here: request
//! counters (lock-free atomics), the aggregated engine totals
//! ([`BatchStats`] — verified/pruned/evaluated candidate counts summed
//! over every batch the server ran), and a bounded reservoir of
//! end-to-end query latencies from which p50/p99 are computed on demand.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gss_core::jsonio::Value;
use gss_core::BatchStats;

/// How many latency samples the reservoir keeps. Once full, new samples
/// overwrite the oldest slots round-robin, so percentiles track a recent
/// window instead of the full history.
const RESERVOIR_CAP: usize = 65_536;

/// Nearest-rank percentile over an ascending-sorted slice of microsecond
/// samples (0 for an empty slice). The one percentile definition shared
/// by the stats reservoir, the `gss client --bench` report and the
/// connection-wall test in `tests/server_loopback.rs`.
pub fn percentile_us(sorted: &[u64], p: usize) -> f64 {
    let rank = sorted.len().saturating_sub(1) * p / 100;
    sorted.get(rank).map_or(0.0, |&us| us as f64)
}

/// Poison recovery: every guarded value here is plain counters, valid
/// after any panic, and a stats block must never take the dispatcher down
/// with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Percentile snapshot of the latency reservoir.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LatencySnapshot {
    /// Samples currently in the reservoir.
    pub count: usize,
    /// Median end-to-end latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Maximum latency in the window, µs.
    pub max_us: f64,
}

#[derive(Default)]
struct Reservoir {
    samples: Vec<u64>,
    /// Total samples ever recorded (drives round-robin overwrite).
    recorded: u64,
}

/// Counters shared by the reactors and the dispatcher.
#[derive(Default)]
pub struct ServerStats {
    /// Responses released, in request order, to a live connection's write
    /// buffer — all verbs, including errors and rejections. A response
    /// whose connection died first is not counted.
    pub served: AtomicU64,
    /// `query` requests received.
    pub queries: AtomicU64,
    /// Queries answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Queries that missed the cache (admitted or rejected).
    pub cache_misses: AtomicU64,
    /// Queries rejected because the admission queue was full or draining.
    pub rejected: AtomicU64,
    /// Admitted queries dropped because their deadline passed in-queue
    /// (evaluation never started).
    pub deadline_expired: AtomicU64,
    /// Admitted queries aborted **mid-evaluation**: their deadline fired a
    /// [`gss_core::CancelToken`] checkpoint inside the scan. Distinct from
    /// [`ServerStats::deadline_expired`], which only counts in-queue drops.
    pub cancelled: AtomicU64,
    /// Micro-batches the dispatcher executed.
    pub batches: AtomicU64,
    /// Queries evaluated inside those batches.
    pub batched_queries: AtomicU64,
    /// Mutation batches applied to the live store (each bumped the
    /// database epoch).
    pub mutated: AtomicU64,
    /// True once graceful drain began (no new work admitted).
    pub draining: AtomicBool,
    totals: Mutex<BatchStats>,
    latencies: Mutex<Reservoir>,
}

impl ServerStats {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one end-to-end query latency sample.
    pub fn record_latency_us(&self, us: u64) {
        let mut r = lock(&self.latencies);
        if r.samples.len() < RESERVOIR_CAP {
            r.samples.push(us);
        } else {
            let slot = (r.recorded % RESERVOIR_CAP as u64) as usize;
            if let Some(sample) = r.samples.get_mut(slot) {
                *sample = us;
            }
        }
        r.recorded += 1;
    }

    /// Merges one batch's aggregated engine counters into the totals.
    pub fn absorb_batch(&self, batch: &BatchStats) {
        lock(&self.totals).merge(batch);
    }

    /// The engine totals so far.
    pub fn totals(&self) -> BatchStats {
        *lock(&self.totals)
    }

    /// Cache hit rate over all queries seen, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed) as f64;
        let misses = self.cache_misses.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    /// Computes p50/p99/max over the current latency window.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        let sorted = {
            let r = lock(&self.latencies);
            let mut s = r.samples.clone();
            s.sort_unstable();
            s
        };
        let Some(&max) = sorted.last() else {
            return LatencySnapshot::default();
        };
        LatencySnapshot {
            count: sorted.len(),
            p50_us: percentile_us(&sorted, 50),
            p99_us: percentile_us(&sorted, 99),
            max_us: max as f64,
        }
    }

    /// The `stats` verb payload as a JSON object value.
    pub fn to_value(&self, cache_entries: usize) -> Value {
        let load = |c: &AtomicU64| Value::Number(c.load(Ordering::Relaxed) as f64);
        let totals = self.totals();
        let lat = self.latency_snapshot();
        Value::Object(vec![
            ("served".into(), load(&self.served)),
            ("queries".into(), load(&self.queries)),
            ("cache_hits".into(), load(&self.cache_hits)),
            ("cache_misses".into(), load(&self.cache_misses)),
            (
                "cache_hit_rate".into(),
                Value::Number((self.cache_hit_rate() * 1e4).round() / 1e4),
            ),
            ("cache_entries".into(), Value::Number(cache_entries as f64)),
            ("rejected".into(), load(&self.rejected)),
            ("deadline_expired".into(), load(&self.deadline_expired)),
            ("cancelled".into(), load(&self.cancelled)),
            ("batches".into(), load(&self.batches)),
            ("batched_queries".into(), load(&self.batched_queries)),
            ("mutated".into(), load(&self.mutated)),
            (
                "draining".into(),
                Value::Bool(self.draining.load(Ordering::Relaxed)),
            ),
            (
                "latency".into(),
                Value::Object(vec![
                    ("count".into(), Value::Number(lat.count as f64)),
                    ("p50_us".into(), Value::Number(lat.p50_us)),
                    ("p99_us".into(), Value::Number(lat.p99_us)),
                    ("max_us".into(), Value::Number(lat.max_us)),
                ]),
            ),
            (
                "totals".into(),
                // A serializer bug degrades to `null`, not a panic.
                Value::parse(&gss_core::batch_stats_to_json(&totals)).unwrap_or(Value::Null),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let stats = ServerStats::default();
        assert_eq!(stats.latency_snapshot(), LatencySnapshot::default());
        for us in 1..=100u64 {
            stats.record_latency_us(us);
        }
        let lat = stats.latency_snapshot();
        assert_eq!(lat.count, 100);
        assert!((lat.p50_us - 50.0).abs() <= 1.0, "{lat:?}");
        assert!((lat.p99_us - 99.0).abs() <= 1.0, "{lat:?}");
        assert_eq!(lat.max_us, 100.0);
    }

    #[test]
    fn hit_rate() {
        let stats = ServerStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        stats.cache_hits.store(3, Ordering::Relaxed);
        stats.cache_misses.store(1, Ordering::Relaxed);
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_value_is_wellformed() {
        let stats = ServerStats::default();
        stats.record_latency_us(10);
        ServerStats::bump(&stats.queries);
        let batch = BatchStats {
            queries: 1,
            candidates: 10,
            verified: 4,
            pruned: 6,
            ..BatchStats::default()
        };
        stats.absorb_batch(&batch);
        let v = stats.to_value(2);
        let compact = v.to_compact();
        let parsed = Value::parse(&compact).expect("round-trips");
        assert_eq!(parsed.get("queries").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            parsed.get("cache_entries").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("pruned"))
                .and_then(Value::as_f64),
            Some(6.0)
        );
        assert_eq!(
            parsed
                .get("latency")
                .and_then(|l| l.get("count"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn a_poisoned_reservoir_still_records_and_reports() {
        let stats = ServerStats::default();
        stats.record_latency_us(5);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = stats.latencies.lock();
                panic!("poison the latency reservoir");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(stats.latencies.is_poisoned());
        stats.record_latency_us(7);
        let lat = stats.latency_snapshot();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max_us, 7.0);
        let v = stats.to_value(0);
        assert_eq!(
            v.get("latency")
                .and_then(|l| l.get("count"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn reservoir_wraps_at_capacity() {
        let stats = ServerStats::default();
        for i in 0..(RESERVOIR_CAP as u64 + 10) {
            stats.record_latency_us(i);
        }
        let lat = stats.latency_snapshot();
        assert_eq!(lat.count, RESERVOIR_CAP);
        // The 10 oldest samples (0..10) were overwritten by the newest.
        assert_eq!(lat.max_us, (RESERVOIR_CAP + 9) as f64);
    }
}
