//! Criterion benches for the shard router's hot path.
//!
//! Two tiers:
//! * `routing_overhead` — the per-submit cost the router adds on top of
//!   a shard's own admission: rendezvous vs least-loaded ranking over
//!   instant-reply backends, against calling one backend directly. This
//!   is the number the `(n, dtype)`-keyed tier must keep negligible
//!   next to a ~ms factorization round trip;
//! * `fleet_end_to_end` — a single service called directly vs the same
//!   service behind a one-slot router (every `ibcf serve` runs one) vs
//!   a 3-shard in-process fleet, full submit → batch → factorize →
//!   reply round trips, so the router hop and rehoming traffic across
//!   formers (smaller per-shard batches) show their real cost.

use criterion::{criterion_group, criterion_main, Criterion};
use ibcf_core::spd::{random_spd, SpdKind};
use ibcf_service::{
    EngineSelector, InProcessShard, Kind, Payload, ReplySink, RoutePolicy, Router, RouterConfig,
    Service, ServiceConfig, ShardBackend, StatsSnapshot, SubmitRefusal,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const N: usize = 16;

fn spd_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec()
}

/// A shard that answers instantly: what's left to measure is the
/// router's ranking and dispatch, not factorization. With `lossy`
/// set it advertises `can_lose_inflight`, which makes the router arm
/// its in-flight loss guard (one payload clone + a sink wrap per
/// fresh submit) exactly as it does for real shard processes.
struct InstantShard {
    name: String,
    lossy: bool,
}

impl ShardBackend for InstantShard {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_submit(
        &self,
        _kind: Kind,
        id: u64,
        _n: usize,
        payload: Payload,
        _deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        sink.send(ibcf_service::FactorReply {
            id,
            outcome: ibcf_service::Outcome::Factor(payload),
        });
        Ok(())
    }

    fn probe(&self) -> bool {
        true
    }

    fn load(&self) -> usize {
        0
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    fn kill(&self) {}

    fn drained(&self) -> bool {
        true
    }

    fn shutdown(&self) {}

    fn can_lose_inflight(&self) -> bool {
        self.lossy
    }
}

fn bench_routing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_overhead");
    g.sample_size(10);
    let payload = || Payload::F32(spd_f32(N, 7));

    // Baseline: one backend called directly, no router in the path.
    g.bench_function("direct_backend", |b| {
        let shard = InstantShard {
            name: "solo".into(),
            lossy: false,
        };
        b.iter(|| {
            let ok = shard
                .try_submit(
                    Kind::Batch,
                    1,
                    N,
                    black_box(payload()),
                    None,
                    ReplySink::boxed(drop),
                )
                .is_ok();
            assert!(ok);
        });
    });

    for policy in [RoutePolicy::ConsistentHash, RoutePolicy::LeastLoaded] {
        for shard_count in [3usize, 8] {
            let label = format!("{policy:?}_{shard_count}shards").to_lowercase();
            g.bench_function(label, |b| {
                let backends: Vec<Arc<dyn ShardBackend>> = (0..shard_count)
                    .map(|i| {
                        Arc::new(InstantShard {
                            name: format!("s{i}"),
                            lossy: false,
                        }) as Arc<dyn ShardBackend>
                    })
                    .collect();
                let router = Router::start(
                    backends,
                    RouterConfig {
                        policy,
                        ..RouterConfig::default()
                    },
                );
                let client = router.client();
                let mut id = 0u64;
                b.iter(|| {
                    id += 1;
                    // Vary n so rendezvous can't cache a single key.
                    let n = 2 + (id % 14) as usize;
                    client.submit_kind(
                        Kind::Batch,
                        id,
                        n,
                        black_box(Payload::F32(vec![1.0; n * n])),
                        None,
                        ReplySink::boxed(drop),
                    );
                });
                router.shutdown();
            });
        }
    }

    // The robustness tax: what arming the process-fleet machinery costs
    // per submit over the same instant backends. `lossguard` pays one
    // payload clone + a boxed sink wrap (in-flight failover); `hedged`
    // additionally clones for, enqueues, and later discards a hedge
    // entry per request.
    for (label, hedge) in [
        ("consistenthash_3shards_lossguard", None),
        (
            "consistenthash_3shards_hedged",
            Some(Duration::from_micros(200)),
        ),
    ] {
        g.bench_function(label, |b| {
            let backends: Vec<Arc<dyn ShardBackend>> = (0..3)
                .map(|i| {
                    Arc::new(InstantShard {
                        name: format!("s{i}"),
                        lossy: true,
                    }) as Arc<dyn ShardBackend>
                })
                .collect();
            let router = Router::start(
                backends,
                RouterConfig {
                    policy: RoutePolicy::ConsistentHash,
                    hedge_after: hedge,
                    ..RouterConfig::default()
                },
            );
            let client = router.client();
            let mut id = 0u64;
            b.iter(|| {
                id += 1;
                let n = 2 + (id % 14) as usize;
                client.submit_kind(
                    Kind::Batch,
                    id,
                    n,
                    black_box(Payload::F32(vec![1.0; n * n])),
                    None,
                    ReplySink::boxed(drop),
                );
            });
            router.shutdown();
        });
    }
    g.finish();
}

fn bench_fleet_end_to_end(c: &mut Criterion) {
    const BATCH: usize = 512;
    let mut g = c.benchmark_group(format!("fleet_end_to_end_n{N}"));
    g.sample_size(10);
    let pool: Vec<Payload> = (0..16).map(|i| Payload::F32(spd_f32(N, 300 + i))).collect();
    let service_config = || ServiceConfig {
        workers: 1,
        max_batch: BATCH,
        max_delay: Duration::from_micros(200),
        queue_cap: 4 * BATCH,
        ..ServiceConfig::default()
    };

    let run_round = |submit: &dyn Fn(u64, Payload, ReplySink)| {
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for i in 0..BATCH {
            let done = done.clone();
            submit(
                i as u64,
                pool[i % pool.len()].clone(),
                ReplySink::boxed(move |reply| {
                    assert!(reply.outcome.is_ok());
                    let (lock, cvar) = &*done;
                    *lock.lock().unwrap() += 1;
                    cvar.notify_one();
                }),
            );
        }
        let (lock, cvar) = &*done;
        let mut n = lock.lock().unwrap();
        while *n < BATCH {
            n = cvar.wait(n).unwrap();
        }
    };

    g.bench_function(format!("single_service_submit{BATCH}"), |b| {
        let service = Service::start(service_config(), EngineSelector::heuristic());
        let client = service.client();
        b.iter(|| run_round(&|id, p, sink| client.submit_sink(id, N, p, None, sink, true)));
        service.shutdown();
    });

    // One shard is what a single `ibcf serve` runs: the router hop over
    // the direct call above, with nothing to spread across.
    for shard_count in [1usize, 3] {
        g.bench_function(format!("routed_{shard_count}shards_submit{BATCH}"), |b| {
            let backends: Vec<Arc<dyn ShardBackend>> = (0..shard_count)
                .map(|i| {
                    let service = Service::start(service_config(), EngineSelector::heuristic());
                    Arc::new(InProcessShard::new(format!("shard-{i}"), service))
                        as Arc<dyn ShardBackend>
                })
                .collect();
            let router = Router::start(backends, RouterConfig::default());
            let client = router.client();
            b.iter(|| {
                run_round(&|id, p, sink| client.submit_kind(Kind::Batch, id, N, p, None, sink))
            });
            router.shutdown();
        });
    }

    g.finish();
}

criterion_group!(benches, bench_routing_overhead, bench_fleet_end_to_end);
criterion_main!(benches);
