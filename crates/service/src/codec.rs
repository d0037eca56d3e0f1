//! Length-prefixed binary frame codec for the TCP front-end.
//!
//! Every frame is `u32` little-endian length (of everything after the
//! length word) followed by a one-byte kind and the kind's body. All
//! integers are little-endian; matrix elements travel as raw IEEE-754
//! bits in column-major order, so a factor reply round-trips bitwise.
//!
//! Kinds:
//!
//! | kind | name          | body |
//! |------|---------------|------|
//! | 1    | factor req    | `id: u64`, `n: u32`, `dtype: u8`, `deadline_us: u32` (0 = none), `n*n` elements |
//! | 2    | factor reply  | `id: u64`, `status: u8`, `dtype: u8`, `aux: u32`, elements iff ok |
//! | 3    | stats req     | empty |
//! | 4    | stats reply   | UTF-8 JSON [`StatsSnapshot`](crate::stats::StatsSnapshot) |
//! | 5    | shutdown      | empty |
//! | 6    | shutdown ack  | empty |
//! | 7    | large req     | same body as factor req |
//!
//! A *large* request (kind 7) shares the factor-request body byte for
//! byte — only the kind differs, and it decodes one-to-one to a
//! [`Kind`](crate::request::Kind). The kind is the routing decision: kind
//! 1 enters the batch former and is packed with its cohort, kind 7
//! bypasses the former entirely and is scheduled on the task-graph worker
//! pool (large matrices don't batch — they schedule). Replies for both
//! kinds travel as kind 2.
//!
//! Reply `status`: 0 = factor (elements follow), 1 = not SPD (`aux` =
//! failing column), 2 = non-finite (`aux` = column), 3 = rejected
//! (`aux` = [`RejectReason`] tag), 4 = worker crashed (safe to
//! resubmit), 5 = backpressure (`aux` = retry-after hint in
//! microseconds; resubmit no sooner than the hint), 6 = shard lost
//! (the shard process died with the request in flight; safe to
//! resubmit — the router already retried once before surfacing this).
//!
//! Hedged requests need no wire-level ids: every shard connection
//! renumbers onto its own private wire-id space, so a hedge copy on a
//! second shard is just another wire id there, and duplicate
//! suppression happens at the router's shared reply sink.
//!
//! `deadline_us = 0` means *no deadline*, so encoders must never round a
//! real-but-tiny remaining deadline down to 0 — use
//! [`wire_deadline_us`], which clamps a present deadline to ≥ 1 µs.
//!
//! Decoding failures are typed ([`FrameError`]): a *torn* frame (EOF in
//! the middle of a frame) is distinguished from a *malformed* one (bad
//! length, unknown tag, short body) so the server can log the right
//! thing and close only the offending connection — never the listener.

use crate::request::{Dtype, FactorReply, Outcome, Payload, RejectReason};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Frame kind: factorization request.
pub const K_FACTOR_REQ: u8 = 1;
/// Frame kind: factorization reply.
pub const K_FACTOR_REPLY: u8 = 2;
/// Frame kind: stats request.
pub const K_STATS_REQ: u8 = 3;
/// Frame kind: stats reply (JSON snapshot).
pub const K_STATS_REPLY: u8 = 4;
/// Frame kind: shutdown request.
pub const K_SHUTDOWN: u8 = 5;
/// Frame kind: shutdown acknowledged.
pub const K_SHUTDOWN_ACK: u8 = 6;
/// Frame kind: large-matrix factorization request (former bypass; body
/// identical to [`K_FACTOR_REQ`]).
pub const K_LARGE_REQ: u8 = 7;

/// Largest accepted frame (a 64 × 64 f64 matrix is ~32 KiB; this leaves
/// three orders of magnitude of headroom while bounding a hostile or
/// corrupt length word).
pub const MAX_FRAME: usize = 1 << 25;

/// Why reading or decoding a frame failed. One bad frame costs one
/// connection, never the process: callers close the stream the error
/// came from and keep accepting.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (reset, broken pipe, ...).
    Io(io::Error),
    /// The stream ended in the middle of a frame — the peer died or was
    /// cut off mid-write. `context` names the section that was cut.
    Torn {
        /// Which part of the frame the EOF landed in.
        context: &'static str,
    },
    /// The bytes arrived intact but don't parse: bad length word,
    /// unknown tag, short or inconsistent body.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Torn { context } => write!(f, "torn frame: EOF inside {context}"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(inner) => inner,
            FrameError::Torn { .. } => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            FrameError::Malformed(_) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

fn bad(msg: impl Into<String>) -> FrameError {
    FrameError::Malformed(msg.into())
}

/// `read_exact` that converts an unexpected EOF into [`FrameError::Torn`]
/// tagged with the frame section being read.
fn read_section(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Torn { context }
        } else {
            FrameError::Io(e)
        }
    })
}

/// Writes one frame (single `write_all`, so concurrent writers on a
/// shared stream would still interleave whole frames — the server
/// serializes through a writer thread anyway).
pub fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> io::Result<()> {
    let len = body.len() + 1;
    assert!(len <= MAX_FRAME, "frame too large to encode");
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Reads one frame, returning `(kind, body)`. `Ok(None)` is a clean EOF
/// at a frame boundary; EOF anywhere *inside* a frame is
/// [`FrameError::Torn`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut len_word = [0u8; 4];
    match r.read_exact(&mut len_word) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(len_word) as usize;
    if len == 0 {
        return Err(bad("zero-length frame"));
    }
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut kind = [0u8; 1];
    read_section(r, &mut kind, "kind byte")?;
    let mut body = vec![0u8; len - 1];
    read_section(r, &mut body, "frame body")?;
    Ok(Some((kind[0], body)))
}

fn put_elems(out: &mut Vec<u8>, payload: &Payload) {
    match payload {
        Payload::F32(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Payload::F64(v) => {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

fn take_elems(bytes: &[u8], dtype: Dtype, count: usize) -> Result<Payload, FrameError> {
    if bytes.len() != count * dtype.elem_bytes() {
        return Err(bad(format!(
            "element section is {} bytes, want {} × {}",
            bytes.len(),
            count,
            dtype.elem_bytes()
        )));
    }
    Ok(match dtype {
        Dtype::F32 => Payload::F32(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        ),
        Dtype::F64 => Payload::F64(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        ),
    })
}

/// Encodes a remaining deadline for the wire. `None` maps to `0`
/// (*no deadline*); a present deadline is clamped to the `1 ..= u32::MAX`
/// microsecond range. The low clamp matters: the wire reserves `0` for
/// "no deadline", so rounding an almost-expired deadline (< 1 µs
/// remaining) down to zero would silently make the request immortal —
/// it must instead arrive as an already-hopeless 1 µs deadline and be
/// shed with a typed `DeadlineExceeded`.
pub fn wire_deadline_us(remaining: Option<Duration>) -> u32 {
    match remaining {
        None => 0,
        Some(d) => d.as_micros().clamp(1, u128::from(u32::MAX)) as u32,
    }
}

/// Encodes a factorization request body. `deadline_us` is a relative
/// deadline in microseconds from receipt (`0` = no deadline) — relative,
/// not absolute, so client and server clocks need not agree.
pub fn encode_factor_req(id: u64, n: usize, deadline_us: u32, payload: &Payload) -> Vec<u8> {
    let mut body = Vec::with_capacity(17 + payload.len() * payload.dtype().elem_bytes());
    body.extend_from_slice(&id.to_le_bytes());
    body.extend_from_slice(&(n as u32).to_le_bytes());
    body.push(payload.dtype().to_u8());
    body.extend_from_slice(&deadline_us.to_le_bytes());
    put_elems(&mut body, payload);
    body
}

/// Decodes a factorization request body into
/// `(id, n, deadline_us, payload)`.
///
/// Only structural validity is checked here (whole elements, known
/// dtype). An element count that disagrees with `n * n` decodes fine and
/// is the *service's* call to reject — the submitter then gets a typed
/// `BadPayload` reply instead of a dropped connection.
pub fn decode_factor_req(body: &[u8]) -> Result<(u64, usize, u32, Payload), FrameError> {
    if body.len() < 17 {
        return Err(bad("factor request header truncated"));
    }
    let id = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let n = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let dtype = Dtype::from_u8(body[12]).ok_or_else(|| bad("unknown dtype tag"))?;
    let deadline_us = u32::from_le_bytes(body[13..17].try_into().unwrap());
    let elems = &body[17..];
    if !elems.len().is_multiple_of(dtype.elem_bytes()) {
        return Err(bad("element section is not a whole number of elements"));
    }
    let payload = take_elems(elems, dtype, elems.len() / dtype.elem_bytes())?;
    Ok((id, n, deadline_us, payload))
}

/// Encodes a factorization reply body. `dtype` tags failure replies too
/// (they carry no elements) so the client can decode without pairing
/// state.
pub fn encode_factor_reply(reply: &FactorReply, dtype: Dtype) -> Vec<u8> {
    let (status, aux) = match &reply.outcome {
        Outcome::Factor(_) => (0u8, 0u32),
        Outcome::NotSpd { column } => (1, *column as u32),
        Outcome::NonFinite { column } => (2, *column as u32),
        // Backpressure gets its own status so the aux field is free to
        // carry the retry-after hint instead of the reason tag.
        Outcome::Rejected(RejectReason::Backpressure { retry_after_us }) => (5, *retry_after_us),
        Outcome::Rejected(reason) => (3, reason.to_u8() as u32),
        Outcome::WorkerCrashed => (4, 0),
        Outcome::ShardLost => (6, 0),
    };
    let mut body = Vec::new();
    body.extend_from_slice(&reply.id.to_le_bytes());
    body.push(status);
    body.push(dtype.to_u8());
    body.extend_from_slice(&aux.to_le_bytes());
    if let Outcome::Factor(payload) = &reply.outcome {
        debug_assert_eq!(payload.dtype(), dtype);
        put_elems(&mut body, payload);
    }
    body
}

/// Encodes a complete reply frame (length word, [`K_FACTOR_REPLY`] kind,
/// body) ready for a connection writer's `write_all`. The framing lives
/// here rather than in the server so every producer of reply bytes —
/// the connection reader, [`ReplySink::Frame`](crate::request::ReplySink)
/// delivery, and the workers' scratch fast path below — frames
/// identically.
pub fn reply_frame(reply: &FactorReply, dtype: Dtype) -> Vec<u8> {
    let body = encode_factor_reply(reply, dtype);
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&((body.len() + 1) as u32).to_le_bytes());
    frame.push(K_FACTOR_REPLY);
    frame.extend_from_slice(&body);
    frame
}

/// Shared header+element framing for the success fast path: one
/// allocation sized exactly, elements appended straight from the
/// caller's (reused) scratch slice — no intermediate [`Payload`].
fn factor_ok_frame_raw(
    id: u64,
    dtype: Dtype,
    elem_bytes: usize,
    put: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let body_len = 14 + elem_bytes;
    let mut frame = Vec::with_capacity(5 + body_len);
    frame.extend_from_slice(&((body_len + 1) as u32).to_le_bytes());
    frame.push(K_FACTOR_REPLY);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.push(0); // status: factor, elements follow
    frame.push(dtype.to_u8());
    frame.extend_from_slice(&0u32.to_le_bytes()); // aux
    put(&mut frame);
    frame
}

/// Encodes a successful `f32` factor reply frame directly from an element
/// slice. Byte-identical to
/// `reply_frame(&FactorReply { id, outcome: Factor(F32(elems.to_vec())) }, F32)`
/// (pinned by a test) without the owned payload.
pub fn factor_ok_frame_f32(id: u64, elems: &[f32]) -> Vec<u8> {
    factor_ok_frame_raw(id, Dtype::F32, elems.len() * 4, |out| {
        for x in elems {
            out.extend_from_slice(&x.to_le_bytes());
        }
    })
}

/// `f64` twin of [`factor_ok_frame_f32`].
pub fn factor_ok_frame_f64(id: u64, elems: &[f64]) -> Vec<u8> {
    factor_ok_frame_raw(id, Dtype::F64, elems.len() * 8, |out| {
        for x in elems {
            out.extend_from_slice(&x.to_le_bytes());
        }
    })
}

/// Decodes a factorization reply body.
pub fn decode_factor_reply(body: &[u8]) -> Result<FactorReply, FrameError> {
    if body.len() < 14 {
        return Err(bad("factor reply header truncated"));
    }
    let id = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let status = body[8];
    let dtype = Dtype::from_u8(body[9]).ok_or_else(|| bad("unknown dtype tag"))?;
    let aux = u32::from_le_bytes(body[10..14].try_into().unwrap());
    let elems = &body[14..];
    let outcome = match status {
        0 => {
            let count = elems.len() / dtype.elem_bytes();
            Outcome::Factor(take_elems(elems, dtype, count)?)
        }
        1 => Outcome::NotSpd {
            column: aux as usize,
        },
        2 => Outcome::NonFinite {
            column: aux as usize,
        },
        3 => Outcome::Rejected(
            RejectReason::from_u8(aux as u8).ok_or_else(|| bad("unknown reject reason"))?,
        ),
        4 => Outcome::WorkerCrashed,
        5 => Outcome::Rejected(RejectReason::Backpressure {
            retry_after_us: aux,
        }),
        6 => Outcome::ShardLost,
        other => return Err(bad(format!("unknown reply status {other}"))),
    };
    if status != 0 && !elems.is_empty() {
        return Err(bad("failure reply carries elements"));
    }
    Ok(FactorReply { id, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_req_round_trips_bitwise() {
        let payload = Payload::F32(vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e7]);
        let body = encode_factor_req(77, 2, 0, &payload);
        let (id, n, deadline_us, back) = decode_factor_req(&body).unwrap();
        assert_eq!((id, n, deadline_us), (77, 2, 0));
        assert_eq!(back, payload);

        let payload = Payload::F64(vec![std::f64::consts::PI; 9]);
        let body = encode_factor_req(u64::MAX, 3, 15_000, &payload);
        let (id, n, deadline_us, back) = decode_factor_req(&body).unwrap();
        assert_eq!((id, n, deadline_us), (u64::MAX, 3, 15_000));
        assert_eq!(back, payload);
    }

    #[test]
    fn factor_reply_round_trips_every_status() {
        let replies = [
            FactorReply {
                id: 1,
                outcome: Outcome::Factor(Payload::F32(vec![2.0, 0.5, 0.0, 1.25])),
            },
            FactorReply {
                id: 2,
                outcome: Outcome::NotSpd { column: 11 },
            },
            FactorReply {
                id: 3,
                outcome: Outcome::NonFinite { column: 0 },
            },
            FactorReply {
                id: 4,
                outcome: Outcome::Rejected(RejectReason::QueueFull),
            },
            FactorReply {
                id: 5,
                outcome: Outcome::Rejected(RejectReason::DeadlineExceeded),
            },
            FactorReply {
                id: 6,
                outcome: Outcome::WorkerCrashed,
            },
            FactorReply {
                id: 7,
                outcome: Outcome::Rejected(RejectReason::Backpressure {
                    retry_after_us: 1_500,
                }),
            },
            FactorReply {
                id: 8,
                outcome: Outcome::Rejected(RejectReason::Backpressure {
                    retry_after_us: u32::MAX,
                }),
            },
            FactorReply {
                id: 9,
                outcome: Outcome::ShardLost,
            },
        ];
        for reply in &replies {
            let body = encode_factor_reply(reply, Dtype::F32);
            let back = decode_factor_reply(&body).unwrap();
            assert_eq!(&back, reply);
        }
    }

    #[test]
    fn scratch_fast_path_frames_are_byte_identical() {
        // The workers' scratch encoding must be indistinguishable on the
        // wire from the generic payload-owning path.
        let f32s = vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e7];
        let via_payload = reply_frame(
            &FactorReply {
                id: 42,
                outcome: Outcome::Factor(Payload::F32(f32s.clone())),
            },
            Dtype::F32,
        );
        assert_eq!(factor_ok_frame_f32(42, &f32s), via_payload);

        let f64s = vec![std::f64::consts::PI, f64::MIN_POSITIVE, -7.0];
        let via_payload = reply_frame(
            &FactorReply {
                id: u64::MAX,
                outcome: Outcome::Factor(Payload::F64(f64s.clone())),
            },
            Dtype::F64,
        );
        assert_eq!(factor_ok_frame_f64(u64::MAX, &f64s), via_payload);
    }

    #[test]
    fn large_req_shares_the_factor_req_body() {
        // Kind 7 is kind 1's body under a different kind byte: the same
        // encoder/decoder pair serves both.
        let payload = Payload::F64(vec![2.0, 0.5, 0.5, 2.0]);
        let body = encode_factor_req(11, 2, 500, &payload);
        let mut wire = Vec::new();
        write_frame(&mut wire, K_LARGE_REQ, &body).unwrap();
        let (kind, back) = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(kind, K_LARGE_REQ);
        let (id, n, deadline_us, p) = decode_factor_req(&back).unwrap();
        assert_eq!((id, n, deadline_us), (11, 2, 500));
        assert_eq!(p, payload);
    }

    #[test]
    fn backpressure_reply_with_elements_is_malformed() {
        let reply = FactorReply {
            id: 9,
            outcome: Outcome::Rejected(RejectReason::Backpressure { retry_after_us: 10 }),
        };
        let mut body = encode_factor_reply(&reply, Dtype::F32);
        body.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(matches!(
            decode_factor_reply(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn wire_deadline_never_rounds_a_real_deadline_to_none() {
        // `0` is reserved for "no deadline": a sub-microsecond remaining
        // deadline must clamp *up* to 1 µs, not truncate down to
        // immortality.
        assert_eq!(wire_deadline_us(None), 0);
        assert_eq!(wire_deadline_us(Some(Duration::ZERO)), 1);
        assert_eq!(wire_deadline_us(Some(Duration::from_nanos(1))), 1);
        assert_eq!(wire_deadline_us(Some(Duration::from_nanos(999))), 1);
        assert_eq!(wire_deadline_us(Some(Duration::from_micros(1))), 1);
        assert_eq!(wire_deadline_us(Some(Duration::from_micros(250))), 250);
        // And the far end saturates instead of wrapping.
        assert_eq!(
            wire_deadline_us(Some(Duration::from_secs(10_000_000))),
            u32::MAX
        );
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, K_STATS_REQ, &[]).unwrap();
        write_frame(
            &mut wire,
            K_FACTOR_REQ,
            &encode_factor_req(9, 1, 0, &Payload::F32(vec![4.0])),
        )
        .unwrap();
        write_frame(&mut wire, K_SHUTDOWN, &[]).unwrap();
        let mut r = wire.as_slice();
        let (k1, b1) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((k1, b1.len()), (K_STATS_REQ, 0));
        let (k2, b2) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(k2, K_FACTOR_REQ);
        assert_eq!(decode_factor_req(&b2).unwrap().0, 9);
        let (k3, _) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(k3, K_SHUTDOWN);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Oversized length word.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // Zero-length frame.
        let wire = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // Garbage bodies.
        assert!(decode_factor_req(&[0; 5]).is_err());
        assert!(decode_factor_reply(&[0; 5]).is_err());
        let mut body = encode_factor_req(1, 2, 0, &Payload::F32(vec![0.0; 4]));
        body.truncate(body.len() - 1);
        assert!(decode_factor_req(&body).is_err());
    }

    #[test]
    fn torn_frames_are_typed_not_clean_eof() {
        // EOF inside the body: Torn, not Ok(None) and not Malformed.
        let mut wire = Vec::new();
        write_frame(&mut wire, K_FACTOR_REQ, &[1, 2, 3]).unwrap();
        wire.truncate(wire.len() - 2);
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Torn { context }) => assert_eq!(context, "frame body"),
            other => panic!("expected torn body, got {other:?}"),
        }
        // EOF after the length word but before the kind byte.
        let wire = 5u32.to_le_bytes();
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Torn { context }) => assert_eq!(context, "kind byte"),
            other => panic!("expected torn kind, got {other:?}"),
        }
        // A torn error converts to an UnexpectedEof io::Error for callers
        // that flatten into io::Result.
        let e: io::Error = FrameError::Torn { context: "x" }.into();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }
}
