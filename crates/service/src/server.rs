//! std::net TCP front-end: accepts connections, decodes request frames
//! of either [`Kind`] (the frame kind byte names it), submits each
//! through one [`RouterClient`] call — every server fronts a router,
//! and a single server is a fleet of one — and streams replies back as
//! they complete (replies may reorder relative to requests; the caller
//! correlates by id).
//!
//! Per connection: the accept loop spawns a reader thread (decodes and
//! submits) and a writer thread (serializes reply frames through an mpsc
//! channel — worker threads finish batches concurrently, and a reply
//! frame must hit the socket atomically). A `shutdown` frame triggers a
//! *graceful drain*: admission stops, every already-admitted request is
//! answered, then the ack goes out and the accept loop stops. The accept
//! loop blocks in `accept` — an idle server wakes for nothing — so the
//! connection that handled the shutdown frame wakes it with one last
//! connection of its own.
//!
//! Failure containment: a malformed or torn frame ([`FrameError`]) costs
//! exactly the connection it arrived on — the accept loop keeps serving
//! everyone else. The [`FaultHook`] threads chaos-harness faults
//! (connection drops, frame corruption/truncation, write stalls) through
//! the same paths production errors take.

use crate::codec::{
    decode_factor_req, read_frame, write_frame, FrameError, K_FACTOR_REPLY, K_FACTOR_REQ,
    K_LARGE_REQ, K_SHUTDOWN, K_SHUTDOWN_ACK, K_STATS_REPLY, K_STATS_REQ,
};
use crate::fault::{FaultAction, FaultHook, FaultSite};
use crate::request::{FactorReply, Kind, Payload, ReplySink};
use crate::router::RouterClient;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a graceful drain waits for in-flight requests before acking
/// shutdown anyway (replies still flush as they finish).
const DRAIN_WAIT_CAP: Duration = Duration::from_secs(30);

/// Writes one reply frame, first applying any scheduled write-side fault:
/// corruption flips the kind byte (so the peer *detects* it instead of
/// accepting garbage elements), truncation sends half the frame then
/// kills the socket, a drop kills it outright.
fn send_one(
    w: &mut BufWriter<TcpStream>,
    raw: &TcpStream,
    mut frame: Vec<u8>,
    hook: &FaultHook,
) -> io::Result<()> {
    match hook.check(FaultSite::ConnWrite) {
        Some(FaultAction::CorruptFrame) => {
            if frame.len() > 4 {
                frame[4] ^= 0x55;
            }
        }
        Some(FaultAction::TruncateFrame) => {
            w.write_all(&frame[..frame.len() / 2])?;
            w.flush()?;
            raw.shutdown(Shutdown::Both).ok();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected frame truncation",
            ));
        }
        Some(FaultAction::DropConn) => {
            raw.shutdown(Shutdown::Both).ok();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected connection drop",
            ));
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::PanicWorker)
        | Some(FaultAction::KillShard)
        | Some(FaultAction::KillProcess)
        | None => {}
    }
    w.write_all(&frame)
}

/// Serializes reply frames onto the socket. Batches consecutive pending
/// frames into one flush.
fn writer_loop(stream: TcpStream, rx: Receiver<Vec<u8>>, hook: FaultHook) -> io::Result<()> {
    let mut w = BufWriter::new(stream.try_clone()?);
    while let Ok(frame) = rx.recv() {
        send_one(&mut w, &stream, frame, &hook)?;
        while let Ok(more) = rx.try_recv() {
            send_one(&mut w, &stream, more, &hook)?;
        }
        w.flush()?;
    }
    Ok(())
}

/// Reads frames off one connection until EOF, error, or shutdown.
/// Returns `true` if this connection requested server shutdown. Any
/// [`FrameError`] (torn frame, malformed body) surfaces as the `Err`
/// branch and closes only this connection.
fn conn_loop(stream: TcpStream, client: RouterClient, hook: FaultHook) -> io::Result<bool> {
    let out_stream = stream.try_clone()?;
    let ctrl = stream.try_clone()?;
    let (tx, rx) = channel::<Vec<u8>>();
    let writer = {
        let hook = hook.clone();
        std::thread::Builder::new()
            .name("ibcf-conn-writer".into())
            .spawn(move || writer_loop(out_stream, rx, hook))
            .map_err(|e| io::Error::other(format!("spawn connection writer: {e}")))?
    };
    let mut r = BufReader::new(stream);
    let mut shutdown = false;
    let result = loop {
        if let Some(FaultAction::DropConn) = hook.check(FaultSite::ConnRead) {
            ctrl.shutdown(Shutdown::Both).ok();
            break Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected connection drop (read side)",
            ));
        }
        let (kind, body) = match read_frame(&mut r) {
            Ok(Some(frame)) => frame,
            Ok(None) => break Ok(()), // clean EOF at a frame boundary
            Err(e @ (FrameError::Torn { .. } | FrameError::Malformed(_))) => {
                // One bad peer costs one connection, never the server.
                break Err(e.into());
            }
            Err(FrameError::Io(e)) => break Err(e),
        };
        match kind {
            K_FACTOR_REQ | K_LARGE_REQ => {
                let kind = Kind::from_wire(kind).expect("a request frame kind");
                let (id, n, deadline_us, payload) =
                    decode_factor_req(&body).map_err(io::Error::from)?;
                let dtype = payload.dtype();
                let deadline = (deadline_us > 0)
                    .then(|| Instant::now() + Duration::from_micros(u64::from(deadline_us)));
                // A frame sink: workers encode the reply bytes (for
                // success, straight from their gather scratch) and the
                // writer thread owns the socket. Send failure =
                // connection gone; the reply is dropped with it.
                let sink = ReplySink::frame(tx.clone(), dtype);
                // Admission never blocks: a full queue answers with a
                // typed backpressure frame instead of stalling the reader
                // (which would deadlock a pipelining client).
                client.submit_kind(kind, id, n, payload, deadline, sink);
            }
            K_STATS_REQ => {
                let snap = client.stats();
                let json = serde_json::to_string(&snap)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let mut frame = Vec::with_capacity(5 + json.len());
                frame.extend_from_slice(&((json.len() + 1) as u32).to_le_bytes());
                frame.push(K_STATS_REPLY);
                frame.extend_from_slice(json.as_bytes());
                let _ = tx.send(frame);
            }
            K_SHUTDOWN => {
                // Graceful drain: stop admission, answer everything that
                // was already admitted, then ack. Replies for other
                // connections flush through their own writers.
                client.begin_drain();
                let t0 = Instant::now();
                while !client.drained() && t0.elapsed() < DRAIN_WAIT_CAP {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let _ = tx.send(vec![1, 0, 0, 0, K_SHUTDOWN_ACK]);
                shutdown = true;
                break Ok(());
            }
            other => {
                break Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame kind {other}"),
                ));
            }
        }
    };
    drop(tx);
    // Writer errors (including injected drops) were already terminal for
    // the connection; joining must still succeed.
    let _ = writer
        .join()
        .map_err(|_| io::Error::other("connection writer panicked"))?;
    result.map(|()| shutdown)
}

/// The accept loop's pause after running out of file descriptors.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// How long the accept loop pauses after a transient `accept` error
/// before accepting again, or `None` when the error is fatal. A peer
/// that aborted before the accept, or a signal, retries at once; running
/// out of file descriptors, in the process (EMFILE) or the system
/// (ENFILE), waits a little for finishing connections to release theirs.
fn accept_retry_pause(e: &io::Error) -> Option<Duration> {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    match e.kind() {
        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted => Some(Duration::ZERO),
        _ if matches!(e.raw_os_error(), Some(ENFILE | EMFILE)) => Some(ACCEPT_RETRY_PAUSE),
        _ => None,
    }
}

/// The TCP front-end. Owns the listener; [`TcpServer::run`] blocks until
/// a client sends a shutdown frame.
pub struct TcpServer {
    listener: TcpListener,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (reports the real port after binding to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// [`TcpServer::run_with_faults`] with the injector disabled.
    pub fn run(&self, client: RouterClient) -> io::Result<()> {
        self.run_with_faults(client, FaultHook::disabled())
    }

    /// Accepts and serves connections until a shutdown frame arrives.
    /// Returns once every connection thread joined, leaving the router
    /// itself to the caller to shut down. The hook injects
    /// connection-level faults on every accepted stream.
    pub fn run_with_faults(&self, client: RouterClient, hook: FaultHook) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        // Where the shutdown connection dials to wake the blocked accept.
        let mut wake = self.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Each live connection's thread, beside a clone of its stream so
        // the drain path below can wake a reader idling in a blocking
        // read. Both go together once the thread finishes.
        let mut conns: Vec<(JoinHandle<()>, Option<TcpStream>)> = Vec::new();
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                // A transient error costs this connection, not the server.
                Err(e) => match accept_retry_pause(&e) {
                    Some(pause) => {
                        std::thread::sleep(pause);
                        conns.retain(|(h, _)| !h.is_finished());
                        continue;
                    }
                    None => return Err(e),
                },
            };
            if stop.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a late client): dropped
            }
            conns.retain(|(h, _)| !h.is_finished());
            stream.set_nodelay(true).ok();
            let clone = stream.try_clone().ok();
            let client = client.clone();
            let stop = stop.clone();
            let hook = hook.clone();
            let handle = std::thread::Builder::new()
                .name("ibcf-conn".into())
                .spawn(move || {
                    // A broken connection kills itself, not the server.
                    if let Ok(true) = conn_loop(stream, client, hook) {
                        stop.store(true, Ordering::SeqCst);
                        TcpStream::connect(wake).ok();
                    }
                })
                .expect("spawn connection thread");
            conns.push((handle, clone));
        }
        // Give idle connections an EOF (shutting down only the read half
        // lets their writers flush any reply still in flight), so every
        // reader unblocks and its thread joins.
        for stream in conns.iter().filter_map(|(_, s)| s.as_ref()) {
            stream.shutdown(Shutdown::Read).ok();
        }
        for (handle, _) in conns {
            handle
                .join()
                .map_err(|_| io::Error::other("connection thread panicked"))?;
        }
        Ok(())
    }
}

/// A blocking TCP client for tests and the load generator: one stream,
/// frames written directly, replies read by the caller.
pub struct TcpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpConn {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> io::Result<TcpConn> {
        TcpConn::connect_with_timeout(addr, Duration::from_secs(60))
    }

    /// Connects with an explicit read timeout (a stuck server must fail
    /// a test, not hang it; chaos clients use a short timeout to detect
    /// stalled connections quickly).
    pub fn connect_with_timeout(addr: &str, read_timeout: Duration) -> io::Result<TcpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(read_timeout))?;
        let writer = stream.try_clone()?;
        Ok(TcpConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends a request frame of either kind (the frame kind byte names
    /// it; both share one body). `deadline_us` is the relative deadline
    /// in microseconds (0 = none).
    pub fn send_req(
        &mut self,
        kind: Kind,
        id: u64,
        n: usize,
        deadline_us: u32,
        payload: &Payload,
    ) -> io::Result<()> {
        let body = crate::codec::encode_factor_req(id, n, deadline_us, payload);
        write_frame(&mut self.writer, kind.wire(), &body)
    }

    /// Sends a stats request frame.
    pub fn send_stats_req(&mut self) -> io::Result<()> {
        write_frame(&mut self.writer, K_STATS_REQ, &[])
    }

    /// Sends a shutdown frame.
    pub fn send_shutdown(&mut self) -> io::Result<()> {
        write_frame(&mut self.writer, K_SHUTDOWN, &[])
    }

    /// Reads the next frame (`None` on clean EOF).
    pub fn read(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        read_frame(&mut self.reader).map_err(io::Error::from)
    }

    /// Reads frames until the next factor reply (stats frames in between
    /// are an error here — use typed readers in interleaved protocols).
    pub fn read_factor_reply(&mut self) -> io::Result<FactorReply> {
        match self.read()? {
            Some((K_FACTOR_REPLY, body)) => {
                crate::codec::decode_factor_reply(&body).map_err(io::Error::from)
            }
            Some((kind, _)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected factor reply, got frame kind {kind}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )),
        }
    }

    /// Requests and decodes a stats snapshot.
    pub fn fetch_stats(&mut self) -> io::Result<crate::stats::StatsSnapshot> {
        self.send_stats_req()?;
        match self.read()? {
            Some((K_STATS_REPLY, body)) => {
                let text = std::str::from_utf8(&body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                serde_json::from_str(text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
            Some((kind, _)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats reply, got frame kind {kind}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before stats reply",
            )),
        }
    }

    /// Sends shutdown and waits for the ack (the server drains first, so
    /// the ack can take a moment under load).
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send_shutdown()?;
        match self.read()? {
            Some((K_SHUTDOWN_ACK, _)) => Ok(()),
            Some((kind, _)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected shutdown ack, got frame kind {kind}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before shutdown ack",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSelector;
    use crate::request::{Outcome, RejectReason};
    use crate::router::{InProcessShard, Router, RouterConfig, ShardBackend};
    use crate::service::{Service, ServiceConfig};

    type Served = (Router, std::net::SocketAddr, JoinHandle<io::Result<()>>);

    /// Serves `service` on an ephemeral port through a one-slot router,
    /// exactly as `ibcf serve` runs a single server.
    fn serve(service: Service, cfg: RouterConfig) -> Served {
        let shard: Arc<dyn ShardBackend> = Arc::new(InProcessShard::new("shard-0", service));
        let router = Router::start(vec![shard], cfg);
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let client = router.client();
        let handle = std::thread::spawn(move || server.run(client));
        (router, addr, handle)
    }

    fn start_server() -> Served {
        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        serve(service, RouterConfig::default())
    }

    #[test]
    fn tcp_round_trip_factor_stats_shutdown() {
        let (router, addr, server) = start_server();
        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();

        // A 2×2 SPD matrix with a known exact factor: [[4,2],[2,5]] →
        // L = [[2,0],[1,2]].
        let a = Payload::F32(vec![4.0, 2.0, 2.0, 5.0]);
        conn.send_req(Kind::Batch, 123, 2, 0, &a).unwrap();
        let reply = conn.read_factor_reply().unwrap();
        assert_eq!(reply.id, 123);
        let Outcome::Factor(Payload::F32(l)) = reply.outcome else {
            panic!("expected factor, got {:?}", reply.outcome);
        };
        assert_eq!(l, vec![2.0, 1.0, 2.0, 2.0]); // upper 2.0 = input, untouched

        // Malformed request is rejected, not dropped.
        conn.send_req(Kind::Batch, 124, 3, 0, &Payload::F32(vec![1.0; 4]))
            .unwrap();
        let reply = conn.read_factor_reply().unwrap();
        assert_eq!(reply.id, 124);
        assert!(matches!(reply.outcome, Outcome::Rejected(_)));

        // Counters bump *after* sink delivery, so the stats fetch can
        // overtake the worker's ledger entry: poll for settled counters.
        let t0 = Instant::now();
        let stats = loop {
            let s = conn.fetch_stats().unwrap();
            if s.replies_ok == 1 || t0.elapsed() > Duration::from_secs(5) {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.replies_ok, 1);

        conn.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        router.shutdown();
    }

    /// This process's open descriptors on TCP sockets whose local port is
    /// `port`: the server's listener and the server side of each of its
    /// connections — immune to what tests running alongside open.
    fn fds_on_port(port: u16) -> usize {
        let mut sockets = std::collections::HashSet::new();
        for table in ["/proc/self/net/tcp", "/proc/self/net/tcp6"] {
            let Ok(text) = std::fs::read_to_string(table) else {
                continue;
            };
            for row in text.lines().skip(1) {
                let cols: Vec<&str> = row.split_whitespace().collect();
                let local_port = cols
                    .get(1)
                    .and_then(|addr| addr.rsplit(':').next())
                    .and_then(|hex| u16::from_str_radix(hex, 16).ok());
                if let (Some(p), Some(inode)) = (local_port, cols.get(9)) {
                    if p == port {
                        sockets.insert(format!("socket:[{inode}]"));
                    }
                }
            }
        }
        std::fs::read_dir("/proc/self/fd")
            .expect("procfs")
            .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
            .filter(|target| sockets.contains(target.to_string_lossy().as_ref()))
            .count()
    }

    #[test]
    fn connection_churn_does_not_leak_descriptors() {
        let (router, addr, server) = start_server();
        let before = fds_on_port(addr.port());
        // One connection at a time, each served (a stats round trip) and
        // closed: a server that keeps anything per finished connection
        // grows by one descriptor each.
        for _ in 0..300 {
            let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
            conn.fetch_stats().unwrap();
        }
        let after = fds_on_port(addr.port());
        assert!(
            after <= before + 8,
            "300 closed connections left {} descriptors open ({before} -> {after})",
            after.saturating_sub(before)
        );
        TcpConn::connect(&addr.to_string())
            .unwrap()
            .shutdown_server()
            .unwrap();
        server.join().unwrap().unwrap();
        router.shutdown();
    }

    #[test]
    fn concurrent_connections_each_get_their_own_replies() {
        let (router, addr, server) = start_server();
        let workers: Vec<_> = (0..4u64)
            .map(|c| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut conn = TcpConn::connect(&addr).unwrap();
                    for i in 0..8u64 {
                        let id = c * 100 + i;
                        let a = Payload::F64(vec![4.0, 2.0, 2.0, 5.0]);
                        conn.send_req(Kind::Batch, id, 2, 0, &a).unwrap();
                    }
                    let mut seen: Vec<u64> = (0..8)
                        .map(|_| {
                            let reply = conn.read_factor_reply().unwrap();
                            assert!(reply.outcome.is_ok());
                            reply.id
                        })
                        .collect();
                    seen.sort_unstable();
                    let want: Vec<u64> = (0..8).map(|i| c * 100 + i).collect();
                    assert_eq!(seen, want, "conn {c} got someone else's replies");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
        conn.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        let snap = router.shutdown();
        assert_eq!(snap.replies_ok, 32);
    }

    #[test]
    fn routed_fleet_serves_tcp_and_backpressure_is_honored_end_to_end() {
        use crate::fleet::ProcessShard;
        use crate::loadgen::{self, ArrivalMode, LoadgenConfig};

        // Two shards with tiny ingest queues: a 48-deep closed-loop
        // window must overflow them, so the fleet hands out real
        // Backpressure { retry_after_us } rejects and the load
        // generator's retry loop has to honor the hints for the run to
        // finish with nothing lost. The shards are reached in process,
        // then over TCP — each service behind its own server, as the
        // `--procs` children are — and either way a full queue must
        // reach the caller as the typed hint, never a hint-less reject.
        let tiny = || {
            Service::start(
                ServiceConfig {
                    queue_cap: 2,
                    max_delay: Duration::from_millis(2),
                    ..ServiceConfig::default()
                },
                EngineSelector::heuristic(),
            )
        };
        let hinted = || RouterConfig {
            retry_after_us: 300,
            ..RouterConfig::default()
        };
        for over_tcp in [false, true] {
            let mut shard_servers: Vec<Served> = Vec::new();
            let shards: Vec<Arc<dyn ShardBackend>> = (0..2)
                .map(|i| -> Arc<dyn ShardBackend> {
                    let name = format!("shard-{i}");
                    if over_tcp {
                        let served = serve(tiny(), hinted());
                        let addr = served.1.to_string();
                        shard_servers.push(served);
                        Arc::new(ProcessShard::connect(name, addr))
                    } else {
                        Arc::new(InProcessShard::new(name, tiny()))
                    }
                })
                .collect();
            let router = Router::start(shards, hinted());
            let server = TcpServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap();
            let client = router.client();
            let handle = std::thread::spawn(move || server.run(client));

            let report = loadgen::run(&LoadgenConfig {
                addr: addr.to_string(),
                sizes: vec![4, 6],
                requests: 400,
                conns: 2,
                mode: ArrivalMode::Closed { window: 48 },
                seed: 11,
                ..LoadgenConfig::default()
            })
            .unwrap();

            let what = if over_tcp { "TCP" } else { "in-process" };
            assert!(
                report.clean(),
                "{what} fleet run not clean:\n{}",
                report.render()
            );
            assert_eq!(report.lost, 0);
            assert_eq!(report.duplicates, 0);
            assert!(
                report.backpressured > 0,
                "tiny {what} shard queues under a deep window must backpressure:\n{}",
                report.render()
            );
            assert_eq!(
                report.rejected,
                0,
                "a full {what} shard queue must answer with the hint, not a reject:\n{}",
                report.render()
            );
            let shard_stats = report.server.shards.as_ref().expect("fleet breakdown");
            assert_eq!(shard_stats.len(), 2);
            let rendered = report.render();
            assert!(
                rendered.contains("shard-0") && rendered.contains("fleet:"),
                "report must show per-shard lines and fleet totals:\n{rendered}"
            );

            let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
            conn.shutdown_server().unwrap();
            handle.join().unwrap().unwrap();
            let snap = router.shutdown();
            assert_eq!(
                snap.shards.expect("final fleet snapshot").len(),
                2,
                "shutdown snapshot keeps the shard breakdown"
            );
            for (shard_router, shard_addr, shard_handle) in shard_servers {
                let mut conn = TcpConn::connect(&shard_addr.to_string()).unwrap();
                conn.shutdown_server().unwrap();
                shard_handle.join().unwrap().unwrap();
                shard_router.shutdown();
            }
        }
    }

    #[test]
    fn torn_frame_closes_one_connection_not_the_server() {
        // Regression for the unwrap()-on-bad-frame class of crash: a peer
        // that dies mid-frame (or sends garbage) must cost exactly its
        // own connection; the accept loop keeps serving everyone else.
        let (router, addr, server) = start_server();

        // Half a frame: a length word promising 64 bytes, then silence.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&64u32.to_le_bytes()).unwrap();
            s.write_all(&[K_FACTOR_REQ, 1, 2, 3]).unwrap();
            // Dropped here: mid-frame EOF on the server's reader.
        }
        // Garbage that parses as an unknown frame kind.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&2u32.to_le_bytes()).unwrap();
            s.write_all(&[0xEE, 0xEE]).unwrap();
        }

        // The server still serves a healthy connection afterwards.
        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
        let a = Payload::F32(vec![4.0, 2.0, 2.0, 5.0]);
        conn.send_req(Kind::Batch, 7, 2, 0, &a).unwrap();
        let reply = conn.read_factor_reply().unwrap();
        assert_eq!(reply.id, 7);
        assert!(reply.outcome.is_ok());

        conn.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        router.shutdown();
    }

    #[test]
    fn near_zero_deadline_is_shed_not_served_unbounded() {
        // Regression: the wire reserves `deadline_us = 0` for "no
        // deadline", so a remaining deadline that rounds below 1 µs used
        // to encode as 0 and silently become immortal. It must instead
        // clamp up to 1 µs and come back as a typed DeadlineExceeded —
        // shed, never served unbounded.
        let (router, addr, server) = start_server();
        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
        let a = Payload::F32(vec![4.0, 2.0, 2.0, 5.0]);
        let wire = crate::codec::wire_deadline_us(Some(Duration::from_nanos(1)));
        assert_eq!(wire, 1, "sub-µs deadline must clamp up, not truncate");
        conn.send_req(Kind::Batch, 42, 2, wire, &a).unwrap();
        let reply = conn.read_factor_reply().unwrap();
        assert_eq!(reply.id, 42);
        assert_eq!(
            reply.outcome,
            Outcome::Rejected(RejectReason::DeadlineExceeded),
            "a ~0-remaining deadline must be shed"
        );
        conn.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        router.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_requests_before_acking() {
        let (router, addr, server) = start_server();
        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
        let a = Payload::F32(vec![4.0, 2.0, 2.0, 5.0]);
        // Pipeline a burst, then shutdown on the same connection: the
        // server reads the frames in order, so all 64 are admitted before
        // the drain starts, and the drain must answer every one before
        // the ack goes out.
        for id in 0..64u64 {
            conn.send_req(Kind::Batch, id, 2, 0, &a).unwrap();
        }
        conn.send_shutdown().unwrap();
        for _ in 0..64 {
            let reply = conn.read_factor_reply().unwrap();
            assert!(reply.outcome.is_ok());
        }
        // Only after all 64 replies: the ack.
        match conn.read().unwrap() {
            Some((K_SHUTDOWN_ACK, _)) => {}
            other => panic!("expected shutdown ack after the drain, got {other:?}"),
        }
        server.join().unwrap().unwrap();
        let snap = router.shutdown();
        assert_eq!(snap.replies_ok, 64);
    }

    /// Mixed small (batched) and large (task-graph) traffic over one
    /// real TCP connection, with the worker-panic chaos plan firing on
    /// both worker pools (they share [`FaultSite::WorkerBatch`]): every
    /// request must get exactly one typed reply, and the large replies
    /// must carry a correct in-place factor.
    #[test]
    fn mixed_small_and_large_tcp_traffic_survives_worker_panics() {
        use crate::fault::{FaultHook, FaultPlan};
        use std::collections::HashMap;

        let service = Service::start(
            ServiceConfig {
                max_delay: Duration::from_millis(1),
                fault: FaultHook::from_plan(FaultPlan::worker_panic(11)),
                ..ServiceConfig::default()
            },
            EngineSelector::heuristic(),
        );
        let (router, addr, handle) = serve(service, RouterConfig::default());

        let mut conn = TcpConn::connect(&addr.to_string()).unwrap();
        let small = Payload::F64(vec![4.0, 2.0, 2.0, 5.0]);
        let ln = 48usize;
        let large = {
            let mut a = vec![0.0f64; ln * ln];
            for d in 0..ln {
                a[d * ln + d] = 2.0 * ln as f64;
            }
            for c in 0..ln {
                for r in (c + 1)..ln {
                    a[c * ln + r] = 1.0;
                    a[r * ln + c] = 1.0;
                }
            }
            Payload::F64(a)
        };
        // Interleave: every 8th request is large.
        let total = 48u64;
        let mut large_ids = Vec::new();
        for id in 0..total {
            if id % 8 == 3 {
                conn.send_req(Kind::Large, id, ln, 0, &large).unwrap();
                large_ids.push(id);
            } else {
                conn.send_req(Kind::Batch, id, 2, 0, &small).unwrap();
            }
        }
        let mut seen: HashMap<u64, Outcome> = HashMap::new();
        for _ in 0..total {
            let reply = conn.read_factor_reply().unwrap();
            assert!(
                seen.insert(reply.id, reply.outcome).is_none(),
                "id {} answered twice",
                reply.id
            );
        }
        assert_eq!(seen.len() as u64, total, "exactly one reply per request");
        let mut crashed = 0u64;
        for (id, outcome) in &seen {
            match outcome {
                Outcome::Factor(Payload::F64(l)) if large_ids.contains(id) => {
                    // Spot-check the in-place factor: L·Lᵀ ≈ A on the
                    // first column, strict upper untouched.
                    let a0 = 2.0 * ln as f64;
                    assert!((l[0] * l[0] - a0).abs() < 1e-9 * a0);
                    assert_eq!(l[ln], 1.0, "strict upper must be input, untouched");
                }
                Outcome::Factor(_) => {}
                Outcome::WorkerCrashed => crashed += 1,
                other => panic!("id {id}: unexpected outcome {other:?}"),
            }
        }
        // Counters bump *after* sink delivery, so the last reply can
        // race its own ledger entry by a beat: poll briefly.
        let t0 = Instant::now();
        let stats = loop {
            let s = conn.fetch_stats().unwrap();
            if s.replies_ok + s.replies_failed == total || t0.elapsed() > Duration::from_secs(5) {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(stats.large_requests, large_ids.len() as u64);
        assert_eq!(stats.requests, total);
        assert_eq!(stats.replies_ok + stats.replies_failed, total);
        assert_eq!(stats.replies_failed, crashed);

        conn.shutdown_server().unwrap();
        handle.join().unwrap().unwrap();
        router.shutdown();
    }
}
