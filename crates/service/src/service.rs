//! The service: one admission function in front of two supervised
//! worker pools, with an in-process [`Client`] handle.
//!
//! Every request carries its [`Kind`] as a value, and [`Client`]
//! admission is the one place that acts on it, by choosing the queue
//! (and the dimension bound) the kind names:
//!
//! - [`Kind::Batch`] requests enter the [`IngestQueue`]. One former
//!   thread groups them by `(n, dtype)` and hands [`FormedBatch`]es to
//!   the batch pool, whose workers factorize each batch in place with
//!   [`factorize_batch_auto_backend`] under the plan the
//!   [`EngineSelector`] chose (including its lane backend:
//!   runtime-dispatched SIMD by default), then route every per-matrix
//!   outcome — factor or non-SPD failure — back to exactly the
//!   originating request's sink.
//! - [`Kind::Large`] requests skip the former. A matrix above the batch
//!   ceiling has no cohort to amortize with (one `n = 512` matrix is
//!   ~4000 `n = 8` matrices of work), so the large pool factorizes each
//!   payload **in place** with the task-graph runtime ([`potrf_tiled`]) —
//!   no gather, no packing; the reply reuses the request's own buffer. A
//!   non-SPD pivot tile reports the failing *global* column
//!   (deterministic even under parallel DAG execution, because diagonal
//!   factorizations are totally ordered).
//!
//! Both pools run one supervised-pool implementation. A supervisor per
//! worker slot runs a worker thread that executes jobs under
//! `catch_unwind`, so a panic (a kernel bug, or one injected by the
//! chaos harness) costs only that job — its requests get a typed
//! [`Outcome::WorkerCrashed`] reply — and the supervisor restarts the
//! worker on the [`RetryPolicy::reconnect`] backoff schedule that
//! shard-process respawn also follows. The pools keep separate
//! queues on purpose: with one shared queue a small request could wait
//! behind a multi-millisecond DAG (head-of-line blocking). Combined with
//! deadline shedding — in the former before packing, in the large pool
//! before a DAG starts — every admitted request receives exactly one
//! reply no matter what faults fire.

use crate::codec::{factor_ok_frame_f32, factor_ok_frame_f64, MAX_FRAME};
use crate::engine::EngineSelector;
use crate::fault::{silence_injected_panics, FaultAction, FaultHook, FaultSite};
use crate::former::{expired, run_former, shed, FormedBatch, FormerConfig, PackedData};
use crate::queue::{IngestQueue, PushRefused};
use crate::request::{
    FactorReply, Kind, Outcome, Payload, Pending, RejectReason, ReplySink, SubmitRefusal,
};
use crate::retry::RetryPolicy;
use crate::stats::{Answer, ServiceStats, StatsSnapshot};
use ibcf_core::lane_batch::factorize_batch_auto_backend;
use ibcf_core::{potrf_tiled, CholeskyError, Looking, Real};
use ibcf_layout::{gather_matrix_affine, Layout};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing formed batches.
    pub workers: usize,
    /// Ingest queue capacity (admission-control bound).
    pub queue_cap: usize,
    /// Batch former size threshold.
    pub max_batch: usize,
    /// Batch former deadline.
    pub max_delay: Duration,
    /// Largest admissible matrix dimension for a batched request.
    pub max_n: usize,
    /// Fault injection hook ([`FaultHook::disabled`] in production: one
    /// `None` check per site, no other cost).
    pub fault: FaultHook,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_cap: 8192,
            max_batch: 1024,
            max_delay: Duration::from_millis(1),
            max_n: 64,
            fault: FaultHook::disabled(),
        }
    }
}

/// Largest admissible dimension for a large request. Its factored f64
/// reply carries `n² × 8` bytes — 8 MiB at this bound — which keeps it
/// well inside the wire's [`MAX_FRAME`] (32 MiB).
pub const MAX_LARGE_N: usize = 1024;
const _: () = assert!(MAX_LARGE_N * MAX_LARGE_N * 8 + 64 <= MAX_FRAME);

/// Worker threads in the large pool. Each runs one task-graph
/// factorization at a time, itself parallel over the DAG.
const LARGE_WORKERS: usize = 1;

/// Tile edge of the large pool's task-graph runtime.
const LARGE_NB: usize = 32;

/// Queued-but-unserved bound for the large path: large payloads are big,
/// so admission control trips early instead of buffering a deep backlog
/// of megabyte buffers.
const LARGE_QUEUE_CAP: usize = 64;

/// Why the large sender's lock cannot be poisoned: admission and
/// `begin_drain` hold it only for a `try_send` or a `take`.
const LARGE_TX_LOCK: &str = "large sender lock held only for try_send/take";

struct Inner {
    queue: Arc<IngestQueue>,
    stats: Arc<ServiceStats>,
    max_n: usize,
    /// Sender side of the large pool's queue; `None` once a drain or
    /// shutdown began (dropping it lets the large workers drain out).
    large_tx: Mutex<Option<SyncSender<Pending>>>,
}

/// A running factorization service. Dropping without
/// [`Service::shutdown`] detaches the threads; shut down for a clean
/// exit.
pub struct Service {
    inner: Arc<Inner>,
    former: Option<JoinHandle<()>>,
    /// One supervisor per worker slot, of both pools.
    supervisors: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the former and both worker pools.
    pub fn start(config: ServiceConfig, selector: EngineSelector) -> Service {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        if config.fault.is_enabled() {
            silence_injected_panics();
        }
        let queue = Arc::new(IngestQueue::new(config.queue_cap));
        let stats = Arc::new(ServiceStats::default());
        let (large_tx, large_rx) = sync_channel::<Pending>(LARGE_QUEUE_CAP);
        let inner = Arc::new(Inner {
            queue: queue.clone(),
            stats: stats.clone(),
            max_n: config.max_n,
            large_tx: Mutex::new(Some(large_tx)),
        });
        // Shallow channel: the former should stall (and keep accumulating
        // arrivals into bigger batches) when workers are saturated, not
        // buffer an unbounded backlog of packed buffers.
        let (batch_tx, batch_rx) = sync_channel::<FormedBatch>(2 * config.workers);
        let former_cfg = FormerConfig {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            ..FormerConfig::default()
        };
        let former = {
            let (q, s, h) = (queue, stats.clone(), config.fault.clone());
            std::thread::Builder::new()
                .name("ibcf-former".into())
                .spawn(move || run_former(q, selector, former_cfg, s, batch_tx, h))
                .expect("spawn former")
        };
        let (s, h) = (&stats, &config.fault);
        let mut supervisors = spawn_pool("batch", config.workers, batch_rx, s, h, execute_batch);
        let large = spawn_pool("large", LARGE_WORKERS, large_rx, s, h, execute_large);
        supervisors.extend(large);
        Service {
            inner,
            former: Some(former),
            supervisors,
        }
    }

    /// A submission handle. Clients stay valid until shutdown; submissions
    /// after shutdown are rejected with [`RejectReason::ShuttingDown`].
    pub fn client(&self) -> Client {
        Client {
            inner: self.inner.clone(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Closes both queues, drains everything already admitted, and joins
    /// all threads. Every admitted request receives its reply before this
    /// returns.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.client().begin_drain();
        if let Some(former) = self.former.take() {
            former.join().expect("former panicked");
        }
        // The former dropped the batch sender and the drain dropped the
        // large one: each pool drains its channel, and each supervisor
        // follows its drained worker out.
        for s in self.supervisors.drain(..) {
            s.join().expect("supervisor panicked");
        }
        self.inner.stats.snapshot()
    }
}

/// How a pool executes one job — a formed batch or one large request —
/// delivering every reply the job owes. `Err` means the job panicked
/// (its requests already got typed crash replies) and the worker must
/// be restarted.
type Exec<J> = fn(J, &ServiceStats, &FaultHook, &mut GatherScratch) -> Result<(), ()>;

/// Why a worker thread returned.
enum WorkerExit {
    /// The job channel disconnected and drained: clean shutdown.
    Drained,
    /// A job panicked (caught); `processed` jobs completed before the
    /// crash — the supervisor restarts its backoff when that is > 0.
    Crashed { processed: u64 },
}

/// Starts one supervised pool: `workers` slots sharing the job channel
/// `rx`, each executing jobs with `exec`.
fn spawn_pool<J: Send + 'static>(
    pool: &'static str,
    workers: usize,
    rx: Receiver<J>,
    stats: &Arc<ServiceStats>,
    hook: &FaultHook,
    exec: Exec<J>,
) -> Vec<JoinHandle<()>> {
    let rx = Arc::new(Mutex::new(rx));
    (0..workers)
        .map(|slot| {
            let (rx, s, h) = (rx.clone(), stats.clone(), hook.clone());
            std::thread::Builder::new()
                .name(format!("ibcf-{pool}-supervisor-{slot}"))
                .spawn(move || run_supervisor(pool, slot, &rx, &s, &h, exec))
                .expect("spawn supervisor")
        })
        .collect()
}

/// Supervises one worker slot: spawns the worker thread, joins it, and
/// respawns it after a crash, sleeping on the [`RetryPolicy::reconnect`]
/// schedule first. The schedule restarts from its first step whenever
/// the crashed incarnation made progress, so a poisoned workload can't
/// permanently slow a healthy worker, while a crash loop (instant
/// repeated panics) backs off instead of spinning.
fn run_supervisor<J: Send + 'static>(
    pool: &'static str,
    slot: usize,
    rx: &Arc<Mutex<Receiver<J>>>,
    stats: &Arc<ServiceStats>,
    hook: &FaultHook,
    exec: Exec<J>,
) {
    let restart = RetryPolicy::reconnect(slot as u64);
    let mut attempt = 0u32;
    for incarnation in 0u64.. {
        let (rx2, s2, h2) = (rx.clone(), stats.clone(), hook.clone());
        let worker = std::thread::Builder::new()
            .name(format!("ibcf-{pool}-worker-{slot}.{incarnation}"))
            .spawn(move || run_worker(&rx2, &s2, &h2, exec))
            .expect("spawn worker");
        match worker.join().expect("worker escaped catch_unwind") {
            WorkerExit::Drained => return,
            WorkerExit::Crashed { processed } => {
                stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                attempt = if processed > 0 { 1 } else { attempt + 1 };
                std::thread::sleep(restart.backoff(attempt));
            }
        }
    }
}

/// Executes jobs until the channel drains (clean exit) or a job panics
/// (supervised exit).
fn run_worker<J>(
    rx: &Mutex<Receiver<J>>,
    stats: &ServiceStats,
    hook: &FaultHook,
    exec: Exec<J>,
) -> WorkerExit {
    let mut processed = 0u64;
    // Worker-lifetime gather scratch: reused across every batch this
    // incarnation executes, so the TCP fast path in `execute_batch`
    // allocates nothing per reply beyond the frame bytes themselves.
    let mut scratch = GatherScratch::default();
    loop {
        let job = {
            let guard = rx
                .lock()
                .expect("no worker panics holding the job receiver");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return WorkerExit::Drained, // senders gone, drained
            }
        };
        match exec(job, stats, hook, &mut scratch) {
            Ok(()) => processed += 1,
            Err(()) => return WorkerExit::Crashed { processed },
        }
    }
}

/// Runs `f` under `catch_unwind`, first applying the chaos hook's worker
/// fault if one is due: an injected delay sleeps, and an injected panic
/// fires inside the unwind scope, so it is contained exactly like a real
/// one. `None` means `f` panicked.
fn run_caught<R>(hook: &FaultHook, f: impl FnOnce() -> R) -> Option<R> {
    let inject_panic = match hook.check(FaultSite::WorkerBatch) {
        Some(FaultAction::PanicWorker) => true,
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        _ => false,
    };
    catch_unwind(AssertUnwindSafe(move || {
        if inject_panic {
            panic!("{} (chaos harness)", crate::fault::INJECTED_PANIC_MARKER);
        }
        f()
    }))
    .ok()
}

/// The typed reply for a factorization that stopped at a bad pivot.
fn failure_outcome(e: CholeskyError) -> Outcome {
    match e {
        CholeskyError::NotPositiveDefinite { column } => Outcome::NotSpd { column },
        CholeskyError::NonFinite { column } => Outcome::NonFinite { column },
    }
}

/// Runs one large request through the task-graph runtime, **in place** in
/// the request's own payload buffer (lower triangle becomes `L`, strict
/// upper stays the submitted data — the `potrf` convention the batched
/// path also honors). Deadline shedding happens here, after dequeue:
/// queue wait is exactly the time that can expire a large request.
/// A panic fails only this request with a typed
/// [`Outcome::WorkerCrashed`]; `Err` restarts the worker.
fn execute_large(
    p: Pending,
    stats: &ServiceStats,
    hook: &FaultHook,
    _scratch: &mut GatherScratch,
) -> Result<(), ()> {
    if expired(&p, Instant::now()) {
        shed(p, stats);
        return Ok(());
    }
    let Pending {
        id,
        n,
        payload,
        enqueued,
        sink,
        ..
    } = p;
    // Only the payload crosses the unwind boundary; the sink stays out
    // here so a panic still routes back to the originator.
    let factored = run_caught(hook, move || match payload {
        Payload::F32(mut v) => {
            let r = potrf_tiled(n, &mut v, n, LARGE_NB, Looking::Right);
            (Payload::F32(v), r)
        }
        Payload::F64(mut v) => {
            let r = potrf_tiled(n, &mut v, n, LARGE_NB, Looking::Right);
            (Payload::F64(v), r)
        }
    });
    let (answer, outcome, survived) = match factored {
        Some((payload, Ok(()))) => (Answer::Ok(Kind::Large), Outcome::Factor(payload), Ok(())),
        Some((_, Err(e))) => (Answer::Failed(Kind::Large), failure_outcome(e), Ok(())),
        None => {
            stats.worker_crashes.fetch_add(1, Ordering::Relaxed);
            (Answer::Failed(Kind::Large), Outcome::WorkerCrashed, Err(()))
        }
    };
    stats.deliver(enqueued, answer, || sink.send(FactorReply { id, outcome }));
    survived
}

/// Per-worker gather scratch: one reusable full-square staging buffer
/// per precision, living as long as the worker incarnation. The TCP
/// fast path in [`execute_batch`] gathers each factored matrix into this
/// scratch and encodes the reply frame straight from it, so serving a
/// reply costs one exactly-sized frame allocation instead of a zeroed
/// payload `Vec` *plus* a frame.
#[derive(Default)]
struct GatherScratch {
    f32: Vec<f32>,
    f64: Vec<f64>,
}

/// Runs one batch. A panic inside the factorization (or one injected by
/// the chaos hook) is caught here: every request in the batch gets a
/// typed [`Outcome::WorkerCrashed`] reply — never silence, never a
/// process abort — and `Err` tells the worker loop to die and be
/// restarted by its supervisor.
fn execute_batch(
    batch: FormedBatch,
    stats: &ServiceStats,
    hook: &FaultHook,
    scratch: &mut GatherScratch,
) -> Result<(), ()> {
    let FormedBatch {
        n,
        plan,
        layout,
        mut data,
        reqs,
        ..
    } = batch;
    // The requests (and their reply sinks) stay *outside* the unwind
    // scope: only the packed buffer and the factorization cross it, so a
    // panic can still be routed back to every originator.
    let factored = run_caught(hook, move || {
        let failures = match &mut data {
            PackedData::F32(buf) => {
                factorize_batch_auto_backend(
                    &layout,
                    buf.as_mut_slice(),
                    plan.order,
                    plan.width,
                    plan.backend,
                )
                .failures
            }
            PackedData::F64(buf) => {
                factorize_batch_auto_backend(
                    &layout,
                    buf.as_mut_slice(),
                    plan.order,
                    plan.width,
                    plan.backend,
                )
                .failures
            }
        };
        (data, failures)
    });
    let Some((data, failures)) = factored else {
        stats.worker_crashes.fetch_add(1, Ordering::Relaxed);
        for req in reqs {
            stats.deliver(req.enqueued, Answer::Failed(Kind::Batch), || {
                req.sink.send(FactorReply {
                    id: req.id,
                    outcome: Outcome::WorkerCrashed,
                })
            });
        }
        return Err(());
    };
    // `failures` is sorted by matrix index; walk it alongside the
    // requests so each failure lands on exactly its originator.
    let mut fail_iter = failures.into_iter().peekable();
    for (mat, req) in reqs.into_iter().enumerate() {
        let failure = match fail_iter.peek() {
            Some(&(idx, _)) if idx == mat => fail_iter.next().map(|(_, e)| e),
            _ => None,
        };
        let Pending {
            id, enqueued, sink, ..
        } = req;
        let answer = if failure.is_none() {
            Answer::Ok(Kind::Batch)
        } else {
            Answer::Failed(Kind::Batch)
        };
        stats.deliver(enqueued, answer, || match (failure, sink) {
            (Some(e), sink) => sink.send(FactorReply {
                id,
                outcome: failure_outcome(e),
            }),
            // Success: a frame sink gets its reply encoded straight from
            // the worker's reusable gather scratch — no per-reply payload
            // allocation, no zero-fill, just the frame bytes. Everything
            // else receives an owned Payload (that ownership *is* the
            // in-process reply contract).
            (None, ReplySink::Frame { tx, dtype }) => {
                debug_assert_eq!(
                    dtype.elem_bytes(),
                    match &data {
                        PackedData::F32(_) => 4,
                        PackedData::F64(_) => 8,
                    },
                    "frame sink dtype disagrees with its batch"
                );
                let frame = match &data {
                    PackedData::F32(v) => {
                        scratch.f32.resize(n * n, 0.0);
                        gather_matrix_affine(&layout, v.as_slice(), mat, &mut scratch.f32, n);
                        factor_ok_frame_f32(id, &scratch.f32[..n * n])
                    }
                    PackedData::F64(v) => {
                        scratch.f64.resize(n * n, 0.0);
                        gather_matrix_affine(&layout, v.as_slice(), mat, &mut scratch.f64, n);
                        factor_ok_frame_f64(id, &scratch.f64[..n * n])
                    }
                };
                // Send failure = connection gone; drop with it.
                let _ = tx.send(frame);
            }
            (None, other) => other.send(FactorReply {
                id,
                outcome: Outcome::Factor(gather_payload(&layout, &data, mat, n)),
            }),
        });
    }
    // Any remaining failure would sit in a padding slot — impossible,
    // padding is the identity matrix.
    debug_assert!(
        fail_iter.peek().is_none(),
        "failure reported for an identity padding slot"
    );
    Ok(())
}

fn gather_payload(layout: &Layout, data: &PackedData, mat: usize, n: usize) -> Payload {
    fn full_square<T: Real>(layout: &Layout, data: &[T], mat: usize, n: usize) -> Vec<T> {
        let mut out = vec![T::ZERO; n * n];
        gather_matrix_affine(layout, data, mat, &mut out, n);
        out
    }
    match data {
        PackedData::F32(v) => Payload::F32(full_square(layout, v.as_slice(), mat, n)),
        PackedData::F64(v) => Payload::F64(full_square(layout, v.as_slice(), mat, n)),
    }
}

/// A fresh request, its latency clock starting now.
fn pending(
    id: u64,
    n: usize,
    payload: Payload,
    deadline: Option<Instant>,
    sink: ReplySink,
) -> Pending {
    Pending {
        id,
        n,
        payload,
        enqueued: Instant::now(),
        deadline,
        sink,
    }
}

/// An in-process submission handle (cheap to clone, `Send`).
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Current counters (an [`InProcessShard`](crate::router::InProcessShard)'s
    /// share of its router's stats frame).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Stops admission on both queues (new submissions are rejected with
    /// [`RejectReason::ShuttingDown`]) while everything already admitted
    /// keeps flowing to workers. Poll [`Client::drained`] to learn when
    /// every admitted request has been answered.
    pub fn begin_drain(&self) {
        self.inner.queue.close();
        // Dropping the large sender drains the large workers once their
        // channel empties. Admission sends under this same lock, so no
        // large request slips in once it is taken.
        self.inner.large_tx.lock().expect(LARGE_TX_LOCK).take();
    }

    /// `true` once every admitted request has received its reply. Only
    /// meaningful after [`Client::begin_drain`] (or shutdown) stopped
    /// admission; before that, in-flight arrivals can flip it back.
    pub fn drained(&self) -> bool {
        // Acquire pairs with the Release bumps in `ServiceStats::deliver`:
        // every reply counted here was already sent through its sink, so
        // an ack sent after a `true` is ordered behind those replies.
        let s = &self.inner.stats;
        let answered = s.replies_ok.load(Ordering::Acquire)
            + s.replies_failed.load(Ordering::Acquire)
            + s.deadline_expired.load(Ordering::Acquire);
        answered >= s.requests.load(Ordering::Relaxed)
    }

    /// `true` while the ingest queue still admits new work; flips false
    /// once a drain or shutdown began. The router's health probe.
    pub fn is_accepting(&self) -> bool {
        !self.inner.queue.is_closed()
    }

    /// The one admission function, for both kinds: checks the request
    /// against the dimension bound its kind names, its payload length
    /// and its deadline, then publishes it to its kind's queue. Only a
    /// batched request can `block` for queue space; large admission
    /// never blocks. On refusal nothing was delivered and nothing stays
    /// counted, and everything comes back to the caller.
    fn admit(&self, kind: Kind, p: Pending, blocking: bool) -> Result<(), SubmitRefusal> {
        let max_n = match kind {
            Kind::Batch => self.inner.max_n,
            Kind::Large => MAX_LARGE_N,
        };
        let invalid = if p.n == 0 || p.n > max_n {
            Some(RejectReason::BadDimension)
        } else if p.payload.len() != p.n * p.n {
            Some(RejectReason::BadPayload)
        } else if p.deadline.is_some_and(|d| Instant::now() >= d) {
            // Dead on arrival: refuse at the door rather than admit work
            // that would be shed at once.
            Some(RejectReason::DeadlineExceeded)
        } else {
            None
        };
        if let Some(reason) = invalid {
            return Err((reason, p.payload, p.sink));
        }
        // Count the request *before* a worker can see it, and undo the
        // count on refusal: `drained()` compares answered against
        // admitted, so a request published uncounted could let a drain
        // ack ahead of its reply. Relaxed is enough: the count precedes
        // the publish, and the publish and `begin_drain` are ordered by
        // the queue's lock (the large path's by `large_tx`'s), which the
        // draining thread takes before it polls `drained()`.
        let stats = &self.inner.stats;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let published = match (kind, blocking) {
            (Kind::Batch, false) => self.inner.queue.try_push(p).map_err(|(p, closed)| {
                let reason = if closed {
                    RejectReason::ShuttingDown
                } else {
                    RejectReason::QueueFull
                };
                (p, reason)
            }),
            (Kind::Batch, true) => self.inner.queue.push_wait(p).map_err(|e| match e {
                PushRefused::ShuttingDown(p) => (p, RejectReason::ShuttingDown),
                PushRefused::DeadlineExceeded(p) => (p, RejectReason::DeadlineExceeded),
            }),
            // The closed check and the send both happen under the lock
            // `begin_drain` takes, so a drain can't begin in between.
            (Kind::Large, _) => match self.inner.large_tx.lock().expect(LARGE_TX_LOCK).as_ref() {
                None => Err((p, RejectReason::ShuttingDown)),
                Some(tx) => tx.try_send(p).map_err(|e| match e {
                    TrySendError::Full(p) => (p, RejectReason::QueueFull),
                    TrySendError::Disconnected(p) => (p, RejectReason::ShuttingDown),
                }),
            },
        };
        match published {
            Ok(()) => {
                if kind == Kind::Large {
                    stats.large_requests.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err((p, reason)) => {
                stats.requests.fetch_sub(1, Ordering::Relaxed);
                Err((reason, p.payload, p.sink))
            }
        }
    }

    /// [`Client::admit`], answering a refusal through the request's own
    /// sink: the sink is invoked exactly once either way, inline for a
    /// refusal.
    fn admit_or_reject(&self, kind: Kind, p: Pending, blocking: bool) {
        let id = p.id;
        if let Err((reason, _, sink)) = self.admit(kind, p, blocking) {
            self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(FactorReply {
                id,
                outcome: Outcome::Rejected(reason),
            });
        }
    }

    /// Non-blocking admission that hands everything back on refusal —
    /// what a router shard delegates to. `Ok` means the request was
    /// admitted to its kind's queue and the sink will be invoked exactly
    /// once by the service; `Err` returns `(reason, payload, sink)` with
    /// nothing delivered and nothing counted, so a router can re-route
    /// the request or translate a full queue into a typed backpressure
    /// reject.
    pub fn try_submit(
        &self,
        kind: Kind,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        self.admit(kind, pending(id, n, payload, deadline, sink), false)
    }

    /// Submits a batched request, delivering the reply through `sink`.
    /// With `blocking` the call waits for queue space (backpressure);
    /// otherwise a full queue rejects immediately (admission control).
    /// A `deadline` propagates to the former: if it expires before the
    /// request is packed into a batch, the request is shed with
    /// [`RejectReason::DeadlineExceeded`]. The sink is always invoked
    /// exactly once, inline for rejections.
    pub fn submit_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
        blocking: bool,
    ) {
        let p = pending(id, n, payload, deadline, sink);
        self.admit_or_reject(Kind::Batch, p, blocking);
    }

    /// Submits a *large* request: the former is bypassed and the payload
    /// is scheduled on the task-graph worker pool, which factorizes it
    /// in place (large matrices don't batch — they schedule). Admission
    /// is always non-blocking: a full large queue rejects with
    /// [`RejectReason::QueueFull`]. The sink is invoked exactly once,
    /// inline for rejections; a deadline that expires while queued sheds
    /// the request before any factorization work starts.
    pub fn submit_large_sink(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) {
        let p = pending(id, n, payload, deadline, sink);
        self.admit_or_reject(Kind::Large, p, false);
    }

    /// Submits a large request and waits for the reply.
    pub fn call_large(&self, id: u64, n: usize, payload: Payload) -> FactorReply {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_large_sink(id, n, payload, None, ReplySink::channel(tx));
        rx.recv().expect("reply sink dropped without reply")
    }

    /// Submits and returns a receiver for the reply (non-blocking
    /// admission, no deadline).
    pub fn submit(
        &self,
        id: u64,
        n: usize,
        payload: Payload,
    ) -> std::sync::mpsc::Receiver<FactorReply> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_sink(id, n, payload, None, ReplySink::channel(tx), false);
        rx
    }

    /// Submits with backpressure and waits for the reply.
    pub fn call(&self, id: u64, n: usize, payload: Payload) -> FactorReply {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit_sink(id, n, payload, None, ReplySink::channel(tx), true);
        rx.recv().expect("reply sink dropped without reply")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcf_core::spd::{random_spd, SpdKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd_vec<T: Real>(n: usize, seed: u64) -> Vec<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_spd::<T>(n, SpdKind::Wishart, &mut rng).into_vec()
    }

    fn spd_payload(n: usize, seed: u64) -> Payload {
        Payload::F32(spd_vec(n, seed))
    }

    fn neg_identity(n: usize) -> Payload {
        let mut m = vec![0.0f32; n * n];
        for d in 0..n {
            m[d * n + d] = -1.0;
        }
        Payload::F32(m)
    }

    fn check_factor(n: usize, input: &Payload, reply: &FactorReply) {
        let Outcome::Factor(Payload::F32(out)) = &reply.outcome else {
            panic!("expected a factor, got {:?}", reply.outcome);
        };
        let Payload::F32(a) = input else {
            unreachable!()
        };
        // L·Lᵀ ≈ A on the lower triangle.
        for col in 0..n {
            for row in col..n {
                let mut sum = 0.0f64;
                for k in 0..=col.min(row) {
                    sum += out[k * n + row] as f64 * out[k * n + col] as f64;
                }
                let want = a[col * n + row] as f64;
                assert!(
                    (sum - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "n={n} ({row},{col}): {sum} vs {want}"
                );
            }
        }
        // Strict upper triangle is the input, untouched.
        for col in 1..n {
            for row in 0..col {
                assert_eq!(out[col * n + row], a[col * n + row]);
            }
        }
    }

    #[test]
    fn end_to_end_factorization_round_trip() {
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_delay: Duration::from_millis(2),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let inputs: Vec<(u64, usize, Payload)> = (0..40)
            .map(|i| {
                let n = [3, 8, 16, 17][i as usize % 4];
                (i, n, spd_payload(n, 1000 + i))
            })
            .collect();
        let receivers: Vec<_> = inputs
            .iter()
            .map(|(id, n, p)| client.submit(*id, *n, p.clone()))
            .collect();
        for ((id, n, input), rx) in inputs.iter().zip(receivers) {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(reply.id, *id);
            check_factor(*n, input, &reply);
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 40);
        assert_eq!(snap.replies_ok, 40);
        assert_eq!(snap.rejected, 0);
        assert!(snap.batches >= 4, "four (n, dtype) groups at minimum");
    }

    #[test]
    fn non_spd_failure_routes_to_exactly_the_bad_request() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(2),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let n = 16;
        // One poisoned request sandwiched between good neighbors that land
        // in the same (n, dtype) batch.
        let receivers: Vec<_> = (0..20u64)
            .map(|i| {
                let payload = if i == 7 {
                    neg_identity(n)
                } else {
                    spd_payload(n, 2000 + i)
                };
                client.submit(i, n, payload)
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(reply.id, i as u64);
            if i == 7 {
                assert_eq!(reply.outcome, Outcome::NotSpd { column: 0 });
            } else {
                assert!(reply.outcome.is_ok(), "req {i}: {:?}", reply.outcome);
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.replies_failed, 1);
        assert_eq!(snap.replies_ok, 19);
    }

    #[test]
    fn admission_control_rejects_malformed_and_oversize_requests() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let r = client.call(1, 0, Payload::F32(vec![]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call(2, 65, Payload::F32(vec![0.0; 65 * 65]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call(3, 8, Payload::F32(vec![0.0; 63]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadPayload));
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 3);
        assert_eq!(snap.requests, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected_shutting_down() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let reply = client.call(1, 8, spd_payload(8, 42));
        assert!(reply.outcome.is_ok());
        service.shutdown();
        let reply = client.call(2, 8, spd_payload(8, 43));
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        let rx = client.submit(3, 8, spd_payload(8, 44));
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
    }

    #[test]
    fn worker_panics_are_contained_typed_and_survived() {
        use crate::fault::FaultPlan;
        // A panic plan that fires every few batches: many batches must
        // crash, every crashed batch's requests must get a typed
        // WorkerCrashed reply, and the service must keep serving.
        let hook = FaultHook::from_plan(FaultPlan::worker_panic(0xC0FFEE));
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                fault: hook.clone(),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let total = 96u64;
        let receivers: Vec<_> = (0..total)
            .map(|i| client.submit(i, 8, spd_payload(8, 5000 + i)))
            .collect();
        let mut ok = 0u64;
        let mut crashed = 0u64;
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert_eq!(reply.id, i as u64, "replies route to their originator");
            match reply.outcome {
                Outcome::Factor(_) => ok += 1,
                Outcome::WorkerCrashed => crashed += 1,
                other => panic!("req {i}: unexpected outcome {other:?}"),
            }
        }
        let snap = service.shutdown();
        assert_eq!(ok + crashed, total, "exactly one reply per request");
        assert!(
            snap.worker_crashes >= 3,
            "plan should fire repeatedly, got {} crashes",
            snap.worker_crashes
        );
        // Crashes count per batch, crashed replies per request: every
        // crashed batch holds between 1 and `max_batch` requests.
        assert!(
            crashed >= snap.worker_crashes,
            "every crash answered someone"
        );
        assert!(
            crashed <= snap.worker_crashes * 4,
            "crashed replies bounded by batch size"
        );
        assert_eq!(snap.worker_restarts, snap.worker_crashes);
        assert_eq!(snap.replies_ok, ok);
        assert!(hook.injected() >= 3);
    }

    #[test]
    fn queue_stall_faults_delay_but_never_lose_requests() {
        use crate::fault::FaultPlan;
        let hook = FaultHook::from_plan(FaultPlan::queue_stall(7));
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                fault: hook.clone(),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        // Trickle requests in so the former's drain loop actually
        // iterates enough times to reach the plan's clock residue.
        let receivers: Vec<_> = (0..50u64)
            .map(|i| {
                if i % 2 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                client.submit(i, 8, spd_payload(8, 7000 + i))
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert!(reply.outcome.is_ok(), "req {i}: {:?}", reply.outcome);
        }
        let snap = service.shutdown();
        assert_eq!(snap.replies_ok, 50);
        assert!(hook.injected() > 0, "the stall plan must actually fire");
    }

    #[test]
    fn expired_deadline_requests_get_typed_replies() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        // Dead on arrival: refused at the door.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_sink(
            1,
            8,
            spd_payload(8, 1),
            Some(Instant::now() - Duration::from_millis(1)),
            ReplySink::channel(tx),
            false,
        );
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            reply.outcome,
            Outcome::Rejected(RejectReason::DeadlineExceeded)
        );
        // A generous deadline sails through.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_sink(
            2,
            8,
            spd_payload(8, 2),
            Some(Instant::now() + Duration::from_secs(30)),
            ReplySink::channel(tx),
            false,
        );
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(reply.outcome.is_ok());
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.replies_ok, 1);
    }

    #[test]
    fn drain_answers_everything_then_refuses_new_work() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let receivers: Vec<_> = (0..30u64)
            .map(|i| client.submit(i, 8, spd_payload(8, 9000 + i)))
            .collect();
        client.begin_drain();
        let t0 = Instant::now();
        while !client.drained() {
            assert!(t0.elapsed() < Duration::from_secs(20), "drain stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
        for rx in receivers {
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(reply.outcome.is_ok());
        }
        let reply = client.call(99, 8, spd_payload(8, 9999));
        assert_eq!(reply.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        service.shutdown();
    }

    #[test]
    fn large_requests_bypass_the_former_and_factor_in_place() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let n = 96; // above max_n (64): only the large path can serve it
        let a = spd_vec::<f64>(n, 321);
        let reply = client.call_large(1, n, Payload::F64(a.clone()));
        assert_eq!(reply.id, 1);
        let Outcome::Factor(Payload::F64(l)) = &reply.outcome else {
            panic!("expected f64 factor, got {:?}", reply.outcome);
        };
        // L·Lᵀ ≈ A on the lower triangle; strict upper untouched.
        for col in 0..n {
            for row in col..n {
                let mut sum = 0.0;
                for k in 0..=col {
                    sum += l[k * n + row] * l[k * n + col];
                }
                let want = a[col * n + row];
                assert!(
                    (sum - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "({row},{col}): {sum} vs {want}"
                );
            }
        }
        for col in 1..n {
            for row in 0..col {
                assert_eq!(l[col * n + row], a[col * n + row]);
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.large_requests, 1);
        assert_eq!(snap.large_ok, 1);
        assert_eq!(snap.replies_ok, 1);
        assert_eq!(snap.batches, 0, "large requests never form batches");
    }

    #[test]
    fn large_non_spd_reports_the_global_column() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let n = 80;
        // SPD except one poisoned diagonal entry deep inside tile row 2:
        // the failing pivot's *global* column must come back.
        let bad_col = 71;
        let mut a = spd_vec::<f64>(n, 77);
        a[bad_col * n + bad_col] = -1.0e6;
        let reply = client.call_large(9, n, Payload::F64(a));
        assert_eq!(reply.outcome, Outcome::NotSpd { column: bad_col });
        let snap = service.shutdown();
        assert_eq!(snap.large_failed, 1);
        assert_eq!(snap.replies_failed, 1);
    }

    #[test]
    fn large_admission_validates_and_drains() {
        let service = Service::start(ServiceConfig::default(), EngineSelector::heuristic());
        let client = service.client();
        let r = client.call_large(1, 0, Payload::F32(vec![]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let over = MAX_LARGE_N + 1;
        let r = client.call_large(2, over, Payload::F32(vec![0.0; over * over]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadDimension));
        let r = client.call_large(3, 72, Payload::F32(vec![0.0; 10]));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::BadPayload));
        // Dead on arrival sheds at the door.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        client.submit_large_sink(
            4,
            72,
            Payload::F32(spd_vec(72, 8)),
            Some(Instant::now() - Duration::from_millis(1)),
            ReplySink::channel(tx),
        );
        let r = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::DeadlineExceeded));
        // After drain, large submissions are refused ShuttingDown.
        client.begin_drain();
        assert!(client.drained());
        let r = client.call_large(5, 72, Payload::F32(spd_vec(72, 9)));
        assert_eq!(r.outcome, Outcome::Rejected(RejectReason::ShuttingDown));
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 5);
        assert_eq!(snap.large_requests, 0);
    }

    #[test]
    fn mixed_small_and_large_traffic_all_answered() {
        let service = Service::start(
            ServiceConfig {
                workers: 2,
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let small: Vec<_> = (0..24u64)
            .map(|i| client.submit(i, 8, spd_payload(8, 100 + i)))
            .collect();
        let large: Vec<_> = (0..3u64)
            .map(|i| {
                let n = 72;
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                client.submit_large_sink(
                    1000 + i,
                    n,
                    Payload::F32(spd_vec(n, 500 + i)),
                    None,
                    ReplySink::channel(tx),
                );
                rx
            })
            .collect();
        for (i, rx) in small.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(reply.outcome.is_ok(), "small {i}: {:?}", reply.outcome);
        }
        for (i, rx) in large.into_iter().enumerate() {
            let reply = rx.recv_timeout(Duration::from_secs(20)).unwrap();
            assert_eq!(reply.id, 1000 + i as u64);
            assert!(reply.outcome.is_ok(), "large {i}: {:?}", reply.outcome);
        }
        let snap = service.shutdown();
        assert_eq!(snap.requests, 27);
        assert_eq!(snap.replies_ok, 27);
        assert_eq!(snap.large_ok, 3);
        assert!(snap.batches >= 1, "small traffic still batches");
    }

    #[test]
    fn f64_requests_are_served() {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let client = service.client();
        let n = 12;
        let a = spd_vec::<f64>(n, 99);
        let reply = client.call(5, n, Payload::F64(a.clone()));
        let Outcome::Factor(Payload::F64(l)) = &reply.outcome else {
            panic!("expected f64 factor, got {:?}", reply.outcome);
        };
        for col in 0..n {
            let mut sum = 0.0;
            for k in 0..=col {
                sum += l[k * n + col] * l[k * n + col];
            }
            assert!((sum - a[col * n + col]).abs() < 1e-9 * a[col * n + col].max(1.0));
        }
        service.shutdown();
    }

    /// A graceful drain must not read `drained()` while an admitted
    /// request is still unanswered, or a server acks shutdown ahead of a
    /// reply: admission must count a request before publishing it, and
    /// the large path must check and send under the lock `begin_drain`
    /// takes. This mirrors the server: replies and the ack share one
    /// channel, and the ack must come last. The window is a few
    /// instructions wide, so each kind races two submitters against the
    /// drain on many fresh services.
    #[test]
    fn drain_never_acks_ahead_of_an_admitted_reply() {
        use std::sync::atomic::AtomicU64;
        const ROUNDS: usize = 300;
        for kind in [Kind::Batch, Kind::Large] {
            for round in 0..ROUNDS {
                let service = Service::start(
                    ServiceConfig {
                        max_delay: Duration::from_micros(50),
                        ..ServiceConfig::default()
                    },
                    EngineSelector::heuristic(),
                );
                let client = service.client();
                // `Some(id)` is a reply, `None` the drain ack.
                let (tx, rx) = std::sync::mpsc::channel::<Option<u64>>();
                let admitted = Arc::new(AtomicU64::new(0));
                let submitters: Vec<_> = (0..2u64)
                    .map(|t| {
                        let (client, tx, admitted) = (client.clone(), tx.clone(), admitted.clone());
                        std::thread::spawn(move || {
                            for seq in 0u64.. {
                                let tx = tx.clone();
                                let sink = ReplySink::boxed(move |r| {
                                    let _ = tx.send(Some(r.id));
                                });
                                let payload = Payload::F32(vec![4.0, 2.0, 2.0, 5.0]);
                                match client.try_submit(kind, t << 32 | seq, 2, payload, None, sink)
                                {
                                    Ok(()) => {
                                        admitted.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Err((RejectReason::ShuttingDown, ..)) => return,
                                    Err(_) => std::thread::yield_now(), // queue full
                                }
                            }
                        })
                    })
                    .collect();
                // Drain at once: with little or nothing admitted yet,
                // `drained()` reads true almost immediately, which is when
                // a submitter between publishing and counting its request
                // shows the race.
                client.begin_drain();
                let t0 = Instant::now();
                while !client.drained() {
                    assert!(t0.elapsed() < Duration::from_secs(20), "drain stuck");
                    std::thread::yield_now();
                }
                tx.send(None).unwrap();
                for s in submitters {
                    s.join().unwrap();
                }
                service.shutdown();
                drop(tx);
                let log: Vec<Option<u64>> = rx.iter().collect();
                assert_eq!(
                    log.last(),
                    Some(&None),
                    "{kind:?} round {round}: a reply followed the drain ack"
                );
                assert_eq!(
                    log.len() as u64 - 1,
                    admitted.load(Ordering::SeqCst),
                    "{kind:?} round {round}: one reply per admitted request"
                );
            }
        }
    }
}
