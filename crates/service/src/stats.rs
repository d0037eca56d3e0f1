//! Service counters: request/batch accounting, a batch-occupancy
//! histogram, and an enqueue-to-reply latency histogram with percentile
//! extraction.
//!
//! Everything is lock-free atomics so the hot path (workers finishing
//! thousands of matrices per batch) never serializes on a stats mutex.
//! Latencies go into power-of-two nanosecond buckets; percentiles are
//! read out as the geometric midpoint of the covering bucket, which is
//! exact to within ~41% of the value — plenty for p50/p95/p99 that span
//! orders of magnitude between an in-process call and a deadline flush.

use crate::request::Kind;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How an admitted request was answered, for [`ServiceStats::deliver`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Answer {
    /// A factor went out for a request of this kind.
    Ok(Kind),
    /// A per-request failure went out for a request of this kind:
    /// non-SPD, non-finite, or a worker crash.
    Failed(Kind),
    /// The deadline expired before any work started; the request was
    /// shed with [`RejectReason::DeadlineExceeded`](crate::RejectReason).
    Shed,
}

/// Number of power-of-two latency buckets (bucket `i` covers
/// `[2^(i-1), 2^i)` ns; bucket 0 is `< 1` ns; the last bucket is open).
pub const LATENCY_BUCKETS: usize = 48;

/// Number of occupancy buckets (10% each; the last includes 100%).
pub const OCCUPANCY_BUCKETS: usize = 10;

/// Live, thread-shared counters.
#[derive(Debug)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub requests: AtomicU64,
    /// Requests refused (admission control, bad dimension, bad payload).
    pub rejected: AtomicU64,
    /// Replies delivered with a factor.
    pub replies_ok: AtomicU64,
    /// Replies delivered with a per-matrix failure (non-SPD, non-finite).
    pub replies_failed: AtomicU64,
    /// Batches formed and executed.
    pub batches: AtomicU64,
    /// Live matrices factorized across all batches (excludes padding).
    pub matrices: AtomicU64,
    /// Worker panics caught by the supervisor (each fails one batch).
    pub worker_crashes: AtomicU64,
    /// Worker threads restarted by the supervisor after a crash.
    pub worker_restarts: AtomicU64,
    /// Requests shed because their deadline expired before packing.
    pub deadline_expired: AtomicU64,
    /// Large-matrix requests admitted to the task-graph pool (a subset
    /// of `requests`).
    pub large_requests: AtomicU64,
    /// Large-matrix factorizations delivered (subset of `replies_ok`).
    pub large_ok: AtomicU64,
    /// Large-matrix failures delivered — non-SPD, non-finite, or a
    /// worker crash mid-DAG (subset of `replies_failed`).
    pub large_failed: AtomicU64,
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
    occupancy_sum_milli: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            replies_ok: AtomicU64::new(0),
            replies_failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            matrices: AtomicU64::new(0),
            worker_crashes: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            large_requests: AtomicU64::new(0),
            large_ok: AtomicU64::new(0),
            large_failed: AtomicU64::new(0),
            occupancy: std::array::from_fn(|_| AtomicU64::new(0)),
            occupancy_sum_milli: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServiceStats {
    /// Records one formed batch: `live` real requests in `slots` padded
    /// lane slots.
    pub fn record_batch(&self, live: usize, slots: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.matrices.fetch_add(live as u64, Ordering::Relaxed);
        let frac = if slots == 0 {
            0.0
        } else {
            live as f64 / slots as f64
        };
        let bucket = ((frac * OCCUPANCY_BUCKETS as f64) as usize).min(OCCUPANCY_BUCKETS - 1);
        self.occupancy[bucket].fetch_add(1, Ordering::Relaxed);
        self.occupancy_sum_milli
            .fetch_add((frac * 1000.0) as u64, Ordering::Relaxed);
    }

    /// Records one reply's enqueue-to-reply latency.
    pub fn record_latency(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Delivers one admitted request's reply through `send`, then books
    /// it. The latency clock stops before delivery; the counters bump
    /// only after it, because [`Client::drained`](crate::Client::drained)
    /// counts them as answered requests and a drain must never ack
    /// ahead of a reply still on its way out.
    pub(crate) fn deliver(&self, enqueued: Instant, answer: Answer, send: impl FnOnce()) {
        let latency = enqueued.elapsed();
        send();
        // Release on the three counters `drained` reads (with Acquire):
        // it publishes that the reply already went out.
        let (kind, all, large) = match answer {
            Answer::Shed => {
                self.deadline_expired.fetch_add(1, Ordering::Release);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Answer::Ok(kind) => (kind, &self.replies_ok, &self.large_ok),
            Answer::Failed(kind) => (kind, &self.replies_failed, &self.large_failed),
        };
        self.record_latency(latency);
        all.fetch_add(1, Ordering::Release);
        if kind == Kind::Large {
            large.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy of every counter (individual loads are
    /// relaxed; exactness across counters is not needed for reporting).
    pub fn snapshot(&self) -> StatsSnapshot {
        let occupancy_hist: Vec<u64> = self
            .occupancy
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let latency_hist: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let batches = self.batches.load(Ordering::Relaxed);
        let mean_occupancy = if batches == 0 {
            0.0
        } else {
            self.occupancy_sum_milli.load(Ordering::Relaxed) as f64 / 1000.0 / batches as f64
        };
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            replies_ok: self.replies_ok.load(Ordering::Relaxed),
            replies_failed: self.replies_failed.load(Ordering::Relaxed),
            batches,
            matrices: self.matrices.load(Ordering::Relaxed),
            worker_crashes: self.worker_crashes.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            large_requests: self.large_requests.load(Ordering::Relaxed),
            large_ok: self.large_ok.load(Ordering::Relaxed),
            large_failed: self.large_failed.load(Ordering::Relaxed),
            mean_occupancy,
            occupancy_hist,
            latency_hist,
            shards: None,
            fleet: None,
        }
    }
}

/// A point-in-time copy of [`ServiceStats`], serializable for the `stats`
/// wire request and CLI reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests admitted into the queue.
    pub requests: u64,
    /// Requests refused.
    pub rejected: u64,
    /// Successful replies.
    pub replies_ok: u64,
    /// Per-matrix failure replies.
    pub replies_failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Live matrices factorized.
    pub matrices: u64,
    /// Worker panics caught by the supervisor.
    pub worker_crashes: u64,
    /// Worker threads restarted after a crash.
    pub worker_restarts: u64,
    /// Requests shed on an expired deadline before packing.
    pub deadline_expired: u64,
    /// Large-matrix requests admitted to the task-graph pool (a subset
    /// of `requests`).
    pub large_requests: u64,
    /// Large-matrix factorizations delivered (subset of `replies_ok`).
    pub large_ok: u64,
    /// Large-matrix failures delivered (subset of `replies_failed`).
    pub large_failed: u64,
    /// Mean live/slots fraction over all batches.
    pub mean_occupancy: f64,
    /// 10%-wide occupancy buckets.
    pub occupancy_hist: Vec<u64>,
    /// Power-of-two nanosecond latency buckets.
    pub latency_hist: Vec<u64>,
    /// Per-shard breakdown when this snapshot describes a routed fleet;
    /// `None` for a single service. Optional so old and new snapshots
    /// keep deserializing each other.
    pub shards: Option<Vec<ShardStat>>,
    /// Router-level robustness counters (hedging, in-flight failover,
    /// circuit breakers) when this snapshot describes a routed fleet;
    /// `None` for a single service. Optional for the same
    /// cross-version-deserialization reason as `shards`.
    pub fleet: Option<FleetStat>,
}

/// Fleet-level robustness counters the router accumulates on top of the
/// per-shard [`StatsSnapshot`] merge: these events happen *between*
/// shards (a hedge copy on a second shard, a resubmission after a shard
/// process died), so no single shard's counters can account for them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStat {
    /// Hedge copies actually dispatched to a second shard.
    pub hedges: u64,
    /// Duplicate replies suppressed at the shared reply sink (either the
    /// hedge lost the race, or it won and the primary's reply was
    /// swallowed) — the exactly-one-reply ledger for hedging.
    pub hedge_wasted: u64,
    /// In-flight requests that came back `ShardLost` and were
    /// transparently resubmitted (exactly once) to a healthy shard.
    pub shard_lost_resubmits: u64,
    /// Circuit-breaker transitions closed → open across the fleet.
    pub breaker_trips: u64,
    /// Circuit-breaker transitions open → half-open (cooldown expired,
    /// probe admitted).
    pub breaker_half_opens: u64,
    /// Circuit-breaker transitions half-open → closed (probe succeeded,
    /// shard readmitted).
    pub breaker_closes: u64,
}

impl FleetStat {
    /// Field-wise sum (fleet merges, like counter merges, are addition).
    pub fn merge(&self, other: &FleetStat) -> FleetStat {
        FleetStat {
            hedges: self.hedges + other.hedges,
            hedge_wasted: self.hedge_wasted + other.hedge_wasted,
            shard_lost_resubmits: self.shard_lost_resubmits + other.shard_lost_resubmits,
            breaker_trips: self.breaker_trips + other.breaker_trips,
            breaker_half_opens: self.breaker_half_opens + other.breaker_half_opens,
            breaker_closes: self.breaker_closes + other.breaker_closes,
        }
    }
}

/// One shard's contribution to a fleet snapshot: its own full
/// [`StatsSnapshot`] plus the router's view of its health.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStat {
    /// The shard's display name (e.g. `shard-0`).
    pub name: String,
    /// Whether the router's health loop considered it routable at
    /// snapshot time.
    pub healthy: bool,
    /// Requests the router sent its way.
    pub routed: u64,
    /// The shard's circuit-breaker view at snapshot time; `None` when
    /// the snapshot predates breakers (optional so old and new snapshots
    /// keep deserializing each other).
    pub breaker: Option<BreakerStat>,
    /// The shard's own counters and histograms.
    pub snapshot: StatsSnapshot,
}

/// One shard's circuit-breaker state as the router saw it at snapshot
/// time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerStat {
    /// `closed`, `open`, or `half-open`.
    pub state: String,
    /// Times this shard's breaker tripped (closed → open).
    pub trips: u64,
}

impl StatsSnapshot {
    /// The `q`-quantile (`0 < q <= 1`) of the latency histogram, in
    /// microseconds: the geometric midpoint of the bucket holding the
    /// quantile sample. `None` until at least one reply was recorded.
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.latency_hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                let hi = (1u128 << i) as f64;
                let lo = if i == 0 {
                    0.5
                } else {
                    (1u128 << (i - 1)) as f64
                };
                return Some((lo * hi).sqrt() / 1000.0);
            }
        }
        None
    }

    /// p50/p95/p99 latency in microseconds (zeros until data exists).
    pub fn percentiles_us(&self) -> (f64, f64, f64) {
        (
            self.latency_quantile_us(0.50).unwrap_or(0.0),
            self.latency_quantile_us(0.95).unwrap_or(0.0),
            self.latency_quantile_us(0.99).unwrap_or(0.0),
        )
    }

    /// Combines two snapshots (e.g. from sharded services or across a
    /// restart) by summing counters and histograms bucket-wise. Because
    /// the histograms use fixed bucket boundaries, any quantile of the
    /// merge is bracketed by the same quantile of the two inputs, and
    /// quantiles stay monotone in `q`.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        fn add_hist(a: &[u64], b: &[u64]) -> Vec<u64> {
            (0..a.len().max(b.len()))
                .map(|i| a.get(i).copied().unwrap_or(0) + b.get(i).copied().unwrap_or(0))
                .collect()
        }
        let batches = self.batches + other.batches;
        let mean_occupancy = if batches == 0 {
            0.0
        } else {
            (self.mean_occupancy * self.batches as f64
                + other.mean_occupancy * other.batches as f64)
                / batches as f64
        };
        StatsSnapshot {
            requests: self.requests + other.requests,
            rejected: self.rejected + other.rejected,
            replies_ok: self.replies_ok + other.replies_ok,
            replies_failed: self.replies_failed + other.replies_failed,
            batches,
            matrices: self.matrices + other.matrices,
            worker_crashes: self.worker_crashes + other.worker_crashes,
            worker_restarts: self.worker_restarts + other.worker_restarts,
            deadline_expired: self.deadline_expired + other.deadline_expired,
            large_requests: self.large_requests + other.large_requests,
            large_ok: self.large_ok + other.large_ok,
            large_failed: self.large_failed + other.large_failed,
            mean_occupancy,
            occupancy_hist: add_hist(&self.occupancy_hist, &other.occupancy_hist),
            latency_hist: add_hist(&self.latency_hist, &other.latency_hist),
            shards: match (&self.shards, &other.shards) {
                (None, None) => None,
                (a, b) => Some(
                    a.iter()
                        .flatten()
                        .chain(b.iter().flatten())
                        .cloned()
                        .collect(),
                ),
            },
            fleet: match (&self.fleet, &other.fleet) {
                (None, None) => None,
                (Some(a), None) => Some(a.clone()),
                (None, Some(b)) => Some(b.clone()),
                (Some(a), Some(b)) => Some(a.merge(b)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_mean_and_buckets() {
        let s = ServiceStats::default();
        s.record_batch(16, 16); // 100%
        s.record_batch(8, 16); // 50%
        s.record_batch(1, 16); // 6.25%
        let snap = s.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.matrices, 25);
        assert!((snap.mean_occupancy - (1.0 + 0.5 + 0.0625) / 3.0).abs() < 1e-2);
        assert_eq!(snap.occupancy_hist[9], 1);
        assert_eq!(snap.occupancy_hist[5], 1);
        assert_eq!(snap.occupancy_hist[0], 1);
    }

    #[test]
    fn latency_percentiles_bracket_the_data() {
        let s = ServiceStats::default();
        for _ in 0..99 {
            s.record_latency(Duration::from_micros(100));
        }
        s.record_latency(Duration::from_millis(10));
        let snap = s.snapshot();
        let (p50, p95, p99) = snap.percentiles_us();
        // Bucketed estimates: within a factor of 2 of the true value.
        assert!((50.0..200.0).contains(&p50), "p50={p50}");
        assert!((50.0..200.0).contains(&p95), "p95={p95}");
        assert!((50.0..200.0).contains(&p99), "p99={p99}");
        let p100 = snap.latency_quantile_us(1.0).unwrap();
        assert!((5_000.0..20_000.0).contains(&p100), "p100={p100}");
    }

    #[test]
    fn empty_snapshot_has_no_percentiles() {
        let snap = ServiceStats::default().snapshot();
        assert!(snap.latency_quantile_us(0.5).is_none());
        assert_eq!(snap.percentiles_us(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        // Churn check: latency/occupancy histograms and the restart
        // counters are hammered from many threads at once; the final
        // snapshot must account for every single recorded event.
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        let s = Arc::new(ServiceStats::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        s.record_latency(Duration::from_nanos((1 + t * i) as u64));
                        s.record_batch(i % 17, 16.max(i % 17));
                        s.worker_crashes.fetch_add(1, Ordering::Relaxed);
                        s.worker_restarts.fetch_add(1, Ordering::Relaxed);
                        s.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        let want = (THREADS * PER_THREAD) as u64;
        assert_eq!(snap.latency_hist.iter().sum::<u64>(), want);
        assert_eq!(snap.occupancy_hist.iter().sum::<u64>(), want);
        assert_eq!(snap.batches, want);
        assert_eq!(snap.worker_crashes, want);
        assert_eq!(snap.worker_restarts, want);
        assert_eq!(snap.deadline_expired, want);
        assert!((0.0..=1.0).contains(&snap.mean_occupancy));
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed_under_merge() {
        let fast = ServiceStats::default();
        for i in 0..500u64 {
            fast.record_latency(Duration::from_micros(50 + i % 100));
        }
        let slow = ServiceStats::default();
        for i in 0..300u64 {
            slow.record_latency(Duration::from_millis(2 + i % 8));
        }
        let (a, b) = (fast.snapshot(), slow.snapshot());
        let m = a.merge(&b);
        assert_eq!(
            m.latency_hist.iter().sum::<u64>(),
            a.latency_hist.iter().sum::<u64>() + b.latency_hist.iter().sum::<u64>()
        );
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut prev = 0.0;
        for q in qs {
            let (qa, qb, qm) = (
                a.latency_quantile_us(q).unwrap(),
                b.latency_quantile_us(q).unwrap(),
                m.latency_quantile_us(q).unwrap(),
            );
            // Monotone in q...
            assert!(qm >= prev, "q={q}: {qm} < {prev}");
            prev = qm;
            // ...and bracketed by the inputs' same quantile.
            assert!(
                qm >= qa.min(qb) && qm <= qa.max(qb),
                "q={q}: merged {qm} outside [{}, {}]",
                qa.min(qb),
                qa.max(qb)
            );
        }
        // Counter merge is plain addition.
        let x = StatsSnapshot {
            worker_crashes: 3,
            worker_restarts: 2,
            ..StatsSnapshot::default()
        };
        let y = x.merge(&x);
        assert_eq!((y.worker_crashes, y.worker_restarts), (6, 4));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = ServiceStats::default();
        s.requests.fetch_add(7, Ordering::Relaxed);
        s.record_batch(10, 16);
        s.record_latency(Duration::from_micros(250));
        let snap = s.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.requests, 7);
        assert_eq!(back.occupancy_hist, snap.occupancy_hist);
        assert_eq!(back.latency_hist, snap.latency_hist);
        assert!(back.shards.is_none(), "single service has no shard list");
    }

    #[test]
    fn fleet_counters_survive_json_and_merge_additively() {
        let fleet = StatsSnapshot {
            fleet: Some(FleetStat {
                hedges: 4,
                hedge_wasted: 1,
                shard_lost_resubmits: 2,
                breaker_trips: 3,
                breaker_half_opens: 2,
                breaker_closes: 2,
            }),
            ..StatsSnapshot::default()
        };
        let text = serde_json::to_string(&fleet).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.fleet, fleet.fleet);

        let m = fleet.merge(&fleet);
        let f = m.fleet.as_ref().unwrap();
        assert_eq!(f.hedges, 8);
        assert_eq!(f.shard_lost_resubmits, 4);
        assert_eq!(f.breaker_closes, 4);
        // Merging with a plain service snapshot keeps the fleet side.
        assert_eq!(fleet.merge(&StatsSnapshot::default()).fleet, fleet.fleet);
        // Two plain services merge to no fleet counters at all.
        assert!(StatsSnapshot::default()
            .merge(&StatsSnapshot::default())
            .fleet
            .is_none());
    }

    #[test]
    fn shard_breakdown_survives_json_and_merge() {
        let shard = |name: &str, requests: u64, healthy: bool| ShardStat {
            name: name.to_string(),
            healthy,
            routed: requests,
            breaker: Some(BreakerStat {
                state: "closed".to_string(),
                trips: 0,
            }),
            snapshot: StatsSnapshot {
                requests,
                ..StatsSnapshot::default()
            },
        };
        let fleet = StatsSnapshot {
            requests: 12,
            shards: Some(vec![shard("shard-0", 7, true), shard("shard-1", 5, false)]),
            ..StatsSnapshot::default()
        };
        let text = serde_json::to_string(&fleet).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&text).unwrap();
        let shards = back.shards.as_ref().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].name, "shard-0");
        assert!(shards[0].healthy && !shards[1].healthy);
        assert_eq!(shards[1].snapshot.requests, 5);
        assert_eq!(shards[0].breaker.as_ref().unwrap().state, "closed");
        assert_eq!(shards[0].breaker.as_ref().unwrap().trips, 0);

        // Merging fleets concatenates the shard lists; merging a fleet
        // with a plain service keeps the fleet's list.
        let other = StatsSnapshot {
            requests: 3,
            shards: Some(vec![shard("shard-2", 3, true)]),
            ..StatsSnapshot::default()
        };
        let m = fleet.merge(&other);
        assert_eq!(m.requests, 15);
        assert_eq!(m.shards.as_ref().unwrap().len(), 3);
        let m2 = fleet.merge(&StatsSnapshot::default());
        assert_eq!(m2.shards.as_ref().unwrap().len(), 2);
        assert!(StatsSnapshot::default()
            .merge(&StatsSnapshot::default())
            .shards
            .is_none());
    }
}
