//! Criterion benches for the dynamic-batching service's hot path.
//!
//! Two tiers:
//! * `former_pack` — the batch former alone: the fused ingest path
//!   scatters each payload once straight into the aligned interleaved
//!   group buffer (identity tail written in place);
//! * `service_end_to_end` — submit/factorize/reply through a running
//!   in-process service with one worker on the SIMD lane kernels,
//!   measuring sustained matrices/second including queueing, forming,
//!   and reply routing. The two variants differ only in the fault hook
//!   (disabled vs enabled-but-inert), so a regression in the "zero-cost
//!   when disabled" claim shows up as a gap.

use criterion::{criterion_group, criterion_main, Criterion};
use ibcf_core::spd::{random_spd, SpdKind};
use ibcf_core::LaneBackend;
use ibcf_service::former::form_batch_mode;
use ibcf_service::request::{Payload, Pending, ReplySink};
use ibcf_service::{
    Dtype, EngineSelector, FaultHook, FaultPlan, IngestMode, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const N: usize = 16;
const BATCH: usize = 1024;

fn spd_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec()
}

fn pending_batch(n: usize, count: usize, pool: &[Vec<f32>]) -> Vec<Pending> {
    (0..count)
        .map(|i| Pending {
            id: i as u64,
            n,
            payload: Payload::F32(pool[i % pool.len()].clone()),
            enqueued: Instant::now(),
            deadline: None,
            sink: ReplySink::boxed(|_| {}),
        })
        .collect()
}

fn bench_former(c: &mut Criterion) {
    let selector = EngineSelector::heuristic();
    let plan = selector.plan(N);
    let pool: Vec<Vec<f32>> = (0..16).map(|i| spd_f32(N, 100 + i)).collect();
    let mut g = c.benchmark_group(format!("former_pack_n{N}"));
    g.sample_size(10);
    // Non-lane-multiple count exercises the identity-padding tail too.
    for count in [BATCH, BATCH + 7] {
        g.bench_function(format!("batch{count}_fused"), |b| {
            b.iter_with_setup(
                || pending_batch(N, count, &pool),
                |reqs| {
                    black_box(form_batch_mode(
                        N,
                        Dtype::F32,
                        reqs,
                        plan,
                        IngestMode::Fused,
                    ))
                },
            )
        });
    }
    g.finish();
}

fn bench_service(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("service_end_to_end_n{N}"));
    g.sample_size(10);
    let pool: Vec<Payload> = (0..16).map(|i| Payload::F32(spd_f32(N, 200 + i))).collect();
    // The inert plan's rules never fire: any measurable gap versus the
    // disabled hook is pure per-check overhead on the hot path.
    for (label, inert) in [
        ("hook_disabled_simd_fused", false),
        ("hook_inert_simd_fused", true),
    ] {
        g.bench_function(format!("submit{BATCH}_w1_{label}"), |b| {
            let service = Service::start(
                ServiceConfig {
                    workers: 1,
                    max_batch: BATCH,
                    max_delay: Duration::from_micros(200),
                    queue_cap: 4 * BATCH,
                    fault: if inert {
                        FaultHook::from_plan(FaultPlan::inert(1))
                    } else {
                        FaultHook::disabled()
                    },
                    ..ServiceConfig::default()
                },
                EngineSelector::heuristic().with_backend(LaneBackend::Simd),
            );
            let client = service.client();
            b.iter(|| {
                // Count replies with a condvar so an iteration is a full
                // submit → batch → factorize → reply round trip.
                let done = Arc::new((Mutex::new(0usize), Condvar::new()));
                let failures = Arc::new(AtomicU64::new(0));
                for i in 0..BATCH {
                    let done = done.clone();
                    let failures = failures.clone();
                    client.submit_sink(
                        i as u64,
                        N,
                        pool[i % pool.len()].clone(),
                        None,
                        ReplySink::boxed(move |reply| {
                            if !reply.outcome.is_ok() {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                            let (lock, cvar) = &*done;
                            *lock.lock().unwrap() += 1;
                            cvar.notify_one();
                        }),
                        true,
                    );
                }
                let (lock, cvar) = &*done;
                let mut n = lock.lock().unwrap();
                while *n < BATCH {
                    n = cvar.wait(n).unwrap();
                }
                assert_eq!(failures.load(Ordering::Relaxed), 0);
            });
            service.shutdown();
        });
    }
    g.finish();
}

criterion_group!(benches, bench_former, bench_service);
criterion_main!(benches);
