//! Request and reply types shared by the in-process client, the batch
//! former, and the TCP codec.

use crate::codec::{K_FACTOR_REQ, K_LARGE_REQ};
use std::time::Instant;

/// Which serving path a request takes. The kind travels as a value
/// through every layer — TCP reader, router, shard backend — and only
/// [`Client`](crate::service::Client) admission acts on it, by picking
/// the queue (and the dimension bound) it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A small matrix: packed by the former into a batch with its
    /// `(n, dtype)` cohort.
    Batch,
    /// A large matrix: factorized alone, in place, by the task-graph
    /// pool (large matrices don't batch — they schedule).
    Large,
}

impl Kind {
    /// The request frame kind that carries this request kind.
    pub fn wire(self) -> u8 {
        match self {
            Kind::Batch => K_FACTOR_REQ,
            Kind::Large => K_LARGE_REQ,
        }
    }

    /// Inverse of [`Kind::wire`]; `None` for any other frame kind.
    pub fn from_wire(frame_kind: u8) -> Option<Kind> {
        match frame_kind {
            K_FACTOR_REQ => Some(Kind::Batch),
            K_LARGE_REQ => Some(Kind::Large),
            _ => None,
        }
    }
}

/// Element type of a request's matrix payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dtype {
    /// Single precision (the paper's working precision).
    F32,
    /// Double precision.
    F64,
}

impl Dtype {
    /// Wire tag (stable across versions of the frame codec).
    pub fn to_u8(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::F64 => 1,
        }
    }

    /// Inverse of [`Dtype::to_u8`].
    pub fn from_u8(tag: u8) -> Option<Dtype> {
        match tag {
            0 => Some(Dtype::F32),
            1 => Some(Dtype::F64),
            _ => None,
        }
    }

    /// Bytes per element on the wire.
    pub fn elem_bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Dtype {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "f32" => Ok(Dtype::F32),
            "f64" => Ok(Dtype::F64),
            other => Err(format!("unknown dtype {other} (use f32 or f64)")),
        }
    }
}

/// A column-major `n × n` matrix payload in either precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Single-precision elements.
    F32(Vec<f32>),
    /// Double-precision elements.
    F64(Vec<f64>),
}

impl Payload {
    /// The payload's element type.
    pub fn dtype(&self) -> Dtype {
        match self {
            Payload::F32(_) => Dtype::F32,
            Payload::F64(_) => Dtype::F64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::F64(v) => v.len(),
        }
    }

    /// `true` if the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a request was turned away instead of factorized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The ingest queue is at capacity (admission control).
    QueueFull,
    /// `n` is zero or above the service's configured maximum.
    BadDimension,
    /// The payload length does not match `n × n`.
    BadPayload,
    /// The service is draining: admission has stopped, queued work is
    /// still being answered.
    ShuttingDown,
    /// The request's deadline expired before its batch was packed; dead
    /// work is shed, never factorized.
    DeadlineExceeded,
    /// The routed shard's queue is full and the router refuses to block:
    /// resubmit no sooner than `retry_after_us` microseconds from now.
    /// Unlike the other reasons this one is a *hint*, not a verdict —
    /// the request is welcome back after the window.
    Backpressure {
        /// Earliest sensible resubmission delay, in microseconds.
        retry_after_us: u32,
    },
}

impl RejectReason {
    /// Wire tag. `Backpressure` additionally carries its retry-after
    /// hint in the reply's aux field (it travels as its own reply
    /// status, see `codec`), so the tag alone does not round-trip it —
    /// [`RejectReason::from_u8`] is the inverse for tags 0–4 only.
    pub fn to_u8(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::BadDimension => 1,
            RejectReason::BadPayload => 2,
            RejectReason::ShuttingDown => 3,
            RejectReason::DeadlineExceeded => 4,
            RejectReason::Backpressure { .. } => 5,
        }
    }

    /// Inverse of [`RejectReason::to_u8`] for the hint-less reasons.
    /// `Backpressure` decodes through its dedicated reply status (the
    /// aux field carries the hint), never through this table.
    pub fn from_u8(tag: u8) -> Option<RejectReason> {
        match tag {
            0 => Some(RejectReason::QueueFull),
            1 => Some(RejectReason::BadDimension),
            2 => Some(RejectReason::BadPayload),
            3 => Some(RejectReason::ShuttingDown),
            4 => Some(RejectReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "ingest queue full",
            RejectReason::BadDimension => "bad matrix dimension",
            RejectReason::BadPayload => "payload length != n*n",
            RejectReason::ShuttingDown => "service shutting down",
            RejectReason::DeadlineExceeded => "deadline expired before packing",
            RejectReason::Backpressure { .. } => "shard at capacity, retry after hint",
        }
    }
}

/// Per-request result. `Factor` carries the full square buffer: the lower
/// triangle (diagonal included) holds `L`, the strictly-upper part is the
/// submitted data untouched — the LAPACK `potrf` convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Factorization succeeded.
    Factor(Payload),
    /// The matrix is not positive definite; the pivot at `column` failed.
    NotSpd {
        /// First failing column.
        column: usize,
    },
    /// A NaN or infinity surfaced at `column`.
    NonFinite {
        /// First non-finite column.
        column: usize,
    },
    /// The worker executing this request's batch panicked; the batch was
    /// abandoned and the worker restarted. The request was *not*
    /// factorized — resubmitting is safe (factorization is idempotent).
    WorkerCrashed,
    /// The shard process (or its connection) holding this request died
    /// with the request still in flight. The request was *not*
    /// factorized — resubmitting is safe. The router converts the first
    /// loss into a transparent resubmission to a healthy shard; a second
    /// loss surfaces this outcome to the caller.
    ShardLost,
    /// The request was never factorized (admission refusal, shutdown, or
    /// a deadline expiring before packing).
    Rejected(RejectReason),
}

impl Outcome {
    /// `true` for a successful factorization.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Factor(_))
    }
}

/// A completed request, correlated by the id the submitter chose.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorReply {
    /// Caller-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// Where a finished reply goes: consumed exactly once per request, from a
/// worker thread (or inline at submit time for rejections).
///
/// A concrete enum rather than a boxed closure so the hot path can *see*
/// the destination: a worker holding a [`ReplySink::Frame`] sink encodes
/// the reply frame straight out of its reusable gather scratch instead of
/// allocating an owned [`Payload`] per reply (see `service::execute_batch`).
/// The boxed form survives as the escape hatch for tests and adapters.
pub enum ReplySink {
    /// Deliver into a bounded in-process channel — the `submit`/`call`
    /// path, where the caller blocks on the receiver.
    Channel(std::sync::mpsc::SyncSender<FactorReply>),
    /// Encode a reply frame and hand the bytes to a TCP connection's
    /// writer thread — the serving hot path. Carries the request's dtype
    /// so workers can encode from raw element slices.
    Frame {
        /// The connection writer's inbox; a send failure means the
        /// connection is gone and the reply is dropped with it.
        tx: std::sync::mpsc::Sender<Vec<u8>>,
        /// Element type the reply frame must carry.
        dtype: Dtype,
    },
    /// Arbitrary closure: tests, and the router's three recovery
    /// wrappers (hedge take-once, loss guard, hedge copy). Those stay
    /// boxed because each captures router state — the `RouterCore`, the
    /// hedge's shared sink, the loss guard's slot cell — which a
    /// concrete variant would pull into this module.
    Boxed(Box<dyn FnOnce(FactorReply) + Send + 'static>),
}

impl ReplySink {
    /// A sink delivering into a bounded channel.
    pub fn channel(tx: std::sync::mpsc::SyncSender<FactorReply>) -> ReplySink {
        ReplySink::Channel(tx)
    }

    /// A sink encoding reply frames for a connection writer.
    pub fn frame(tx: std::sync::mpsc::Sender<Vec<u8>>, dtype: Dtype) -> ReplySink {
        ReplySink::Frame { tx, dtype }
    }

    /// A sink wrapping an arbitrary closure.
    pub fn boxed<F: FnOnce(FactorReply) + Send + 'static>(f: F) -> ReplySink {
        ReplySink::Boxed(Box::new(f))
    }

    /// Delivers the reply, consuming the sink. Channel/frame send
    /// failures mean the receiver is gone; the reply is dropped, which is
    /// the correct fate for an answer nobody is waiting on.
    pub fn send(self, reply: FactorReply) {
        match self {
            ReplySink::Channel(tx) => drop(tx.send(reply)),
            ReplySink::Frame { tx, dtype } => {
                drop(tx.send(crate::codec::reply_frame(&reply, dtype)));
            }
            ReplySink::Boxed(f) => f(reply),
        }
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplySink::Channel(_) => "ReplySink::Channel",
            ReplySink::Frame { .. } => "ReplySink::Frame",
            ReplySink::Boxed(_) => "ReplySink::Boxed",
        })
    }
}

/// A refusal from a non-blocking admission: nothing was delivered
/// through the sink, so the caller still owns the request and can
/// re-route it or reject it.
pub type SubmitRefusal = (RejectReason, Payload, ReplySink);

/// A queued request: payload plus everything needed to route and time the
/// reply.
pub struct Pending {
    /// Caller-chosen correlation id.
    pub id: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Column-major `n × n` input.
    pub payload: Payload,
    /// When the request entered the ingest queue (latency clock start).
    pub enqueued: Instant,
    /// The latest instant the caller still wants an answer. Propagates
    /// queue → former: an expired request is shed with
    /// [`RejectReason::DeadlineExceeded`] before packing, and the
    /// former's flush deadline tightens to the soonest member deadline.
    pub deadline: Option<Instant>,
    /// Reply destination.
    pub sink: ReplySink,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("dtype", &self.payload.dtype())
            .finish()
    }
}
