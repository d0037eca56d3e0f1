//! Process-isolated shard fleet: OS-level crash recovery.
//!
//! The in-process router ([`crate::router`]) proves failover logic, but
//! every shard still shares one address space — a worker panic is
//! catchable, a segfault or OOM kill is not. This module moves each
//! shard into a real **child process** (`ibcf serve --shard-child`):
//! [`Fleet::spawn`] starts it and reads its ephemeral listen address
//! from a one-line stdout handshake, and a [`ProcessShard`] owns both
//! the child and the TCP connection the router routes over.
//!
//! Failure model (MODEL.md §18):
//!
//! - **One loop watches the children.** [`ProcessShard::probe`] — the
//!   router's health round — first reaps a dead child (`try_wait`) and
//!   starts its replacement, then checks the connection. A submit that
//!   finds the connection dead fails over at once; the slot's health
//!   flag and circuit breaker keep routing and probing off it until a
//!   probe succeeds again.
//! - **In-flight loss**: when the process dies, its connection's reader
//!   hits EOF and answers every orphaned request with a typed
//!   [`Outcome::ShardLost`]; the router transparently resubmits the
//!   first loss to a healthy shard.
//! - **Respawn** follows the shared [`RetryPolicy::reconnect`]
//!   equal-jitter backoff, capped, forever — whether to give up on a
//!   shard is an operator decision, not the fleet's. A respawned child
//!   gets a fresh ephemeral port; the connection is reopened to it in
//!   the same probe.
//! - **Graceful drain** ([`ProcessShard::shutdown`]): final stats are
//!   fetched and cached, the child gets a shutdown frame and drains,
//!   and is reaped with a bounded wait — SIGKILL only if the child
//!   ignores the protocol. `ibcf serve --procs N` therefore never leaks
//!   orphan processes.
//! - The chaos harness SIGKILLs live children deterministically through
//!   [`FaultSite::RouterShard`](crate::fault::FaultSite) /
//!   [`FaultAction::KillProcess`](crate::fault::FaultAction), which the
//!   router's health round turns into [`ShardBackend::crash`]; the last
//!   healthy shard is immune, so the fleet always retains capacity.

use crate::codec::{
    decode_factor_reply, encode_factor_req, read_frame, wire_deadline_us, write_frame,
    K_FACTOR_REPLY,
};
use crate::request::{FactorReply, Kind, Outcome, Payload, RejectReason, ReplySink, SubmitRefusal};
use crate::retry::RetryPolicy;
use crate::router::ShardBackend;
use crate::server::TcpConn;
use crate::stats::StatsSnapshot;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The stdout handshake prefix a `--shard-child` prints once its
/// listener is bound; the rest of the line is the `host:port` to dial.
pub const SHARD_READY_PREFIX: &str = "shard-child listening on ";

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shard-child executable (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments handed to every child; must put it into shard-child
    /// mode (bind an ephemeral port, print the handshake, serve).
    pub child_args: Vec<String>,
    /// Number of shard processes.
    pub shards: usize,
}

impl FleetConfig {
    /// A fleet of `shards` children of `program` with default child
    /// arguments (`serve --shard-child`).
    pub fn new(program: PathBuf, shards: usize) -> FleetConfig {
        FleetConfig {
            program,
            child_args: vec!["serve".into(), "--shard-child".into()],
            shards,
        }
    }
}

/// Spawns one shard child and reads its listen-address handshake from
/// stdout. The remaining stdout is drained by a detached thread so the
/// child can never block on a full pipe.
fn spawn_child(program: &PathBuf, args: &[String]) -> io::Result<(Child, String)> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard child exited before printing its listen address",
            ));
        }
        if let Some(rest) = line.trim().strip_prefix(SHARD_READY_PREFIX) {
            break rest.to_string();
        }
    };
    std::thread::Builder::new()
        .name("ibcf-shard-stdout".into())
        .spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        })
        .expect("spawn shard stdout drain");
    Ok((child, addr))
}

/// Requests in flight on one shard connection, keyed by the wire id the
/// shard sees (caller ids are only unique per front-end connection, not
/// fleet-wide, so the router renumbers).
struct Pending {
    map: HashMap<u64, (u64, ReplySink)>,
    /// Set by the dying reader, under this lock, *before* it drains the
    /// map — so a submitter holding the lock either sees `dead` or gets
    /// its entry drained, never neither.
    dead: bool,
}

/// One TCP connection to a shard's server, with the reader thread that
/// pumps its replies back to their sinks.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    pending: Arc<Mutex<Pending>>,
}

impl Conn {
    fn open(addr: &str) -> Option<Conn> {
        let stream = TcpStream::connect(addr).ok()?;
        let read_half = stream.try_clone().ok()?;
        stream.set_nodelay(true).ok();
        let pending = Arc::new(Mutex::new(Pending {
            map: HashMap::new(),
            dead: false,
        }));
        let reader = {
            let pending = pending.clone();
            std::thread::Builder::new()
                .name("ibcf-shard-reader".into())
                .spawn(move || {
                    let mut r = BufReader::new(read_half);
                    loop {
                        match read_frame(&mut r) {
                            Ok(Some((K_FACTOR_REPLY, body))) => {
                                let Ok(reply) = decode_factor_reply(&body) else {
                                    break;
                                };
                                let entry = pending.lock().unwrap().map.remove(&reply.id);
                                if let Some((caller_id, sink)) = entry {
                                    sink.send(FactorReply {
                                        id: caller_id,
                                        outcome: reply.outcome,
                                    });
                                }
                            }
                            Ok(Some(_)) => {} // unexpected kind: ignore
                            Ok(None) | Err(_) => break,
                        }
                    }
                    // The connection is gone: everything still in flight
                    // gets a typed shard-lost reply (resubmitting is
                    // safe — the router does it once itself). `dead`
                    // flips under the same lock, so no submitter can add
                    // an entry nobody will ever answer.
                    let drained: Vec<(u64, ReplySink)> = {
                        let mut p = pending.lock().unwrap();
                        p.dead = true;
                        p.map.drain().map(|(_, v)| v).collect()
                    };
                    for (caller_id, sink) in drained {
                        sink.send(FactorReply {
                            id: caller_id,
                            outcome: Outcome::ShardLost,
                        });
                    }
                })
                .ok()?
        };
        Some(Conn {
            stream,
            reader,
            pending,
        })
    }

    fn is_dead(&self) -> bool {
        self.pending.lock().unwrap().dead
    }

    /// Shuts the socket (the reader answers whatever is still in flight
    /// with `ShardLost`) and joins the reader. A loss-guard resubmission
    /// can re-enter from the dying reader itself (its drain callbacks
    /// run on that thread); joining ourselves would deadlock, so that
    /// case detaches instead.
    fn close(self) {
        self.stream.shutdown(Shutdown::Both).ok();
        if self.reader.thread().id() != std::thread::current().id() {
            let _ = self.reader.join();
        }
    }
}

struct ProcState {
    /// The running child; `None` between reaping a dead one and
    /// starting its replacement, and always for a shard attached with
    /// [`ProcessShard::connect`].
    child: Option<Child>,
    /// Address of the current (or last) server.
    addr: String,
    conn: Option<Conn>,
    /// Consecutive failed respawn attempts; resets on success.
    attempt: u32,
    /// Earliest instant the next respawn attempt is allowed.
    next_spawn_at: Option<Instant>,
}

/// One shard served by a separate `ibcf serve` process: it owns the
/// child process (when it started one) and the TCP connection to it.
///
/// The router renumbers requests onto a private wire-id space, a reader
/// thread pumps replies back, and everything still in flight when the
/// connection dies is answered with a typed [`Outcome::ShardLost`]
/// (idempotent — safe to resubmit, and the router resubmits the first
/// loss itself).
pub struct ProcessShard {
    name: String,
    /// The command that restarts the child; `None` for a server the
    /// router does not own.
    command: Option<(PathBuf, Vec<String>)>,
    /// Backoff between respawn attempts for a child that keeps dying.
    respawn: RetryPolicy,
    next_wire_id: AtomicU64,
    /// Admission stopped for good (drain/shutdown): no more submits,
    /// probes or respawns.
    killed: AtomicBool,
    /// Times a dead child was replaced with a fresh one.
    respawns: AtomicU64,
    /// Last successfully fetched stats snapshot; served when the server
    /// is unreachable (mid-respawn, or after shutdown).
    last_stats: Mutex<StatsSnapshot>,
    state: Mutex<ProcState>,
}

impl ProcessShard {
    fn new(
        name: String,
        command: Option<(PathBuf, Vec<String>)>,
        child: Option<Child>,
        addr: String,
        slot: usize,
    ) -> ProcessShard {
        ProcessShard {
            name,
            command,
            respawn: RetryPolicy::reconnect(slot as u64),
            next_wire_id: AtomicU64::new(1),
            killed: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
            last_stats: Mutex::new(StatsSnapshot::default()),
            state: Mutex::new(ProcState {
                child,
                addr,
                conn: None,
                attempt: 0,
                next_spawn_at: None,
            }),
        }
    }

    fn launch(slot: usize, cfg: &FleetConfig) -> io::Result<ProcessShard> {
        let (child, addr) = spawn_child(&cfg.program, &cfg.child_args)?;
        let command = (cfg.program.clone(), cfg.child_args.clone());
        Ok(Self::new(
            format!("proc-{slot}"),
            Some(command),
            Some(child),
            addr,
            slot,
        ))
    }

    /// A shard attached to a server at `addr` that the router does not
    /// own: no child, so reaping, respawn and [`ShardBackend::crash`] do
    /// nothing, and shutdown closes the connection but leaves the server
    /// running. The first probe connects.
    pub fn connect(name: impl Into<String>, addr: impl Into<String>) -> ProcessShard {
        Self::new(name.into(), None, None, addr.into(), 0)
    }

    /// OS pid of the current child, if one is running.
    pub fn child_pid(&self) -> Option<u32> {
        self.state.lock().unwrap().child.as_ref().map(|c| c.id())
    }

    /// Times this shard's process was respawned.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// `true` while the child process exists and has not exited.
    fn child_alive(&self) -> bool {
        match self.state.lock().unwrap().child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)),
            None => false,
        }
    }

    /// The process half of a probe: if the child died, reap it and
    /// (backoff permitting) spawn a replacement, dropping the dead
    /// generation's connection.
    fn respawn_if_dead(&self) {
        let Some((program, args)) = &self.command else {
            return;
        };
        {
            let mut st = self.state.lock().unwrap();
            if let Some(c) = st.child.as_mut() {
                if matches!(c.try_wait(), Ok(None)) {
                    return;
                }
                // Exited (or unwaitable): reap the zombie now so the
                // pid leaves the process table even if respawn waits.
                if let Some(mut c) = st.child.take() {
                    let _ = c.wait();
                }
            }
            if st.next_spawn_at.is_some_and(|t| Instant::now() < t) {
                return;
            }
        }
        // Spawn outside the lock: the handshake read blocks, and submits
        // only need the lock for a moment.
        match spawn_child(program, args) {
            Ok((child, addr)) => {
                let old = {
                    let mut st = self.state.lock().unwrap();
                    st.child = Some(child);
                    st.addr = addr;
                    st.attempt = 0;
                    st.next_spawn_at = None;
                    st.conn.take()
                };
                // Its EOF drain already answered in-flight requests
                // with ShardLost (or does so now).
                if let Some(old) = old {
                    old.close();
                }
                self.respawns.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let mut st = self.state.lock().unwrap();
                st.attempt += 1;
                st.next_spawn_at = Some(Instant::now() + self.respawn.backoff(st.attempt));
            }
        }
    }
}

impl ShardBackend for ProcessShard {
    fn name(&self) -> &str {
        &self.name
    }

    /// Both request kinds share one frame body; only the frame kind byte
    /// ([`Kind::wire`]) tells the shard which pool to admit to.
    fn try_submit(
        &self,
        kind: Kind,
        id: u64,
        n: usize,
        payload: Payload,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<(), SubmitRefusal> {
        if self.killed.load(Ordering::SeqCst) {
            return Err((RejectReason::ShuttingDown, payload, sink));
        }
        let st = self.state.lock().unwrap();
        let Some(c) = st.conn.as_ref() else {
            return Err((RejectReason::ShuttingDown, payload, sink));
        };
        let wire_id = self.next_wire_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut p = c.pending.lock().unwrap();
            if p.dead {
                return Err((RejectReason::ShuttingDown, payload, sink));
            }
            p.map.insert(wire_id, (id, sink));
        }
        // Forward the *remaining* deadline; wire_deadline_us keeps an
        // almost-expired one from truncating to "no deadline".
        let wire_deadline =
            wire_deadline_us(deadline.map(|d| d.saturating_duration_since(Instant::now())));
        let body = encode_factor_req(wire_id, n, wire_deadline, &payload);
        let mut w = &c.stream;
        if write_frame(&mut w, kind.wire(), &body).is_err() {
            c.stream.shutdown(Shutdown::Both).ok();
            return match c.pending.lock().unwrap().map.remove(&wire_id) {
                // We still own the sink: hand everything back.
                Some((_, sink)) => Err((RejectReason::ShuttingDown, payload, sink)),
                // The reader drained it first (typed crash reply went
                // out): the request was answered, nothing to hand back.
                None => Ok(()),
            };
        }
        Ok(())
    }

    /// Reaps and respawns a dead child first, then checks the
    /// connection, reopening it when it is gone.
    fn probe(&self) -> bool {
        if self.killed.load(Ordering::SeqCst) {
            return false;
        }
        self.respawn_if_dead();
        let mut st = self.state.lock().unwrap();
        if st.conn.as_ref().is_some_and(|c| !c.is_dead()) {
            return true;
        }
        let dead = st.conn.take();
        st.conn = Conn::open(&st.addr);
        let up = st.conn.is_some();
        drop(st);
        if let Some(c) = dead {
            c.close();
        }
        up
    }

    fn stats(&self) -> StatsSnapshot {
        let addr = self.state.lock().unwrap().addr.clone();
        match TcpConn::connect_with_timeout(&addr, Duration::from_secs(2))
            .and_then(|mut c| c.fetch_stats())
        {
            Ok(snap) => {
                *self.last_stats.lock().unwrap() = snap.clone();
                snap
            }
            Err(_) => self.last_stats.lock().unwrap().clone(),
        }
    }

    fn kill(&self) {
        // Graceful: stop admission and respawns, but leave the child —
        // and the connection — alive so admitted work still drains back
        // through the pending map.
        self.killed.store(true, Ordering::SeqCst);
    }

    /// SIGKILLs a live child (the deterministic process fault).
    fn crash(&self) -> bool {
        match self.state.lock().unwrap().child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)) && c.kill().is_ok(),
            None => false,
        }
    }

    fn drained(&self) -> bool {
        self.state
            .lock()
            .unwrap()
            .conn
            .as_ref()
            .is_none_or(|c| c.pending.lock().unwrap().map.is_empty())
    }

    fn shutdown(&self) {
        self.killed.store(true, Ordering::SeqCst);
        let (child, conn, addr) = {
            let mut st = self.state.lock().unwrap();
            (st.child.take(), st.conn.take(), st.addr.clone())
        };
        if let Some(mut child) = child {
            // Cache the child's final counters before asking it to exit;
            // the router merges these into the fleet snapshot afterwards.
            self.stats();
            // Graceful drain: shutdown frame, wait for the ack (the child
            // answers everything admitted first).
            let acked = TcpConn::connect_with_timeout(&addr, Duration::from_secs(5))
                .and_then(|mut c| c.shutdown_server())
                .is_ok();
            // An acknowledging child is exiting: reap it with a bounded
            // wait. One that never acknowledged (refused, closed, or
            // answered something else) is not going to exit on its own,
            // so it is SIGKILLed at once; so is an acknowledging child
            // that outlives the wait — neither is leaked.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut exited = false;
            while acked && Instant::now() < deadline {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    exited = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if !exited {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(c) = conn {
            c.close();
        }
    }

    fn can_lose_inflight(&self) -> bool {
        true
    }
}

/// N [`ProcessShard`]s spawned together. Hand [`Fleet::backends`] to
/// [`Router::start`](crate::Router); the router's health round reaps,
/// respawns and chaos-kills the children from then on.
pub struct Fleet {
    shards: Vec<Arc<ProcessShard>>,
}

impl Fleet {
    /// Spawns `cfg.shards` child processes, waiting for each handshake.
    /// On a failed spawn, every already-started child is shut down
    /// before the error returns.
    pub fn spawn(cfg: FleetConfig) -> io::Result<Fleet> {
        assert!(cfg.shards > 0, "fleet needs at least one shard process");
        let mut shards: Vec<Arc<ProcessShard>> = Vec::with_capacity(cfg.shards);
        for slot in 0..cfg.shards {
            match ProcessShard::launch(slot, &cfg) {
                Ok(s) => shards.push(Arc::new(s)),
                Err(e) => {
                    for s in &shards {
                        s.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Fleet { shards })
    }

    /// The shards as routable backends, in slot order.
    pub fn backends(&self) -> Vec<Arc<dyn ShardBackend>> {
        self.shards
            .iter()
            .map(|s| s.clone() as Arc<dyn ShardBackend>)
            .collect()
    }

    /// Current child pids, in slot order (dead slots omitted).
    pub fn child_pids(&self) -> Vec<u32> {
        self.shards.iter().filter_map(|s| s.child_pid()).collect()
    }

    /// Total respawns across the fleet.
    pub fn respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns()).sum()
    }

    /// `true` while every slot has a live child process.
    pub fn all_children_alive(&self) -> bool {
        self.shards.iter().all(|s| s.child_alive())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Belt and braces: anything the router did not shut down is
        // reaped here, so a panicking test never leaks processes.
        for s in &self.shards {
            if s.child_alive() {
                s.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in child: prints the handshake and sleeps. No TCP server
    /// behind it — these tests exercise the fleet's process management,
    /// not the wire path (the CLI integration tests do that with real
    /// `--shard-child` binaries).
    fn sleeper_cfg(shards: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(PathBuf::from("/bin/sh"), shards);
        cfg.child_args = vec![
            "-c".into(),
            format!("echo '{SHARD_READY_PREFIX}127.0.0.1:1'; exec sleep 600"),
        ];
        cfg
    }

    #[test]
    fn handshake_parses_and_children_are_reaped_on_drop() {
        let fleet = Fleet::spawn(sleeper_cfg(2)).expect("spawn sleeper fleet");
        let pids = fleet.child_pids();
        assert_eq!(pids.len(), 2);
        assert!(fleet.all_children_alive());
        drop(fleet);
        for pid in pids {
            // SIGKILL was delivered and the zombie reaped: the pid is
            // gone from the process table.
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "child {pid} leaked"
            );
        }
    }

    #[test]
    fn a_killed_child_is_respawned_with_a_fresh_pid() {
        let fleet = Fleet::spawn(sleeper_cfg(2)).expect("spawn sleeper fleet");
        let before = fleet.child_pids();
        assert!(fleet.shards[0].crash());
        // Each probe is one health-round visit: it reaps the dead child
        // and respawns it (no server answers, so the probe itself fails).
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.respawns() < 1 && Instant::now() < deadline {
            for s in &fleet.shards {
                s.probe();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fleet.respawns() >= 1, "probe never respawned");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fleet.all_children_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let after = fleet.child_pids();
        assert_eq!(after.len(), 2);
        assert_ne!(before[0], after[0], "slot 0 must hold a fresh process");
        assert_eq!(before[1], after[1], "slot 1 was untouched");
    }

    #[test]
    fn a_child_that_dies_without_the_handshake_is_an_error() {
        let mut cfg = FleetConfig::new(PathBuf::from("/bin/sh"), 1);
        cfg.child_args = vec!["-c".into(), "echo nope".into()];
        assert!(Fleet::spawn(cfg).is_err());
    }
}
