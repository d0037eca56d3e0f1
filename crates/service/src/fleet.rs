//! Process-isolated shard fleet: OS-level crash recovery.
//!
//! The in-process router ([`crate::router`]) proves failover logic, but
//! every shard still shares one address space — a worker panic is
//! catchable, a segfault or OOM kill is not. This module moves each
//! shard into a real **child process** (`ibcf serve --shard-child`): the
//! supervisor spawns it, reads its ephemeral listen address from a
//! one-line stdout handshake, and fronts it with a [`TcpShard`] so the
//! router routes to it like any remote shard.
//!
//! Failure model (MODEL.md §18):
//!
//! - **Crash detection** is double-sourced: the supervisor reaps child
//!   exits with `try_wait` (authoritative — a SIGKILL is visible here
//!   within one supervision round), and the router's health probes see
//!   the connection refuse (fast path for routing decisions).
//! - **In-flight loss**: when the process dies, its connection's reader
//!   hits EOF and answers every orphaned request with a typed
//!   [`Outcome::ShardLost`](crate::request::Outcome::ShardLost); the
//!   router transparently resubmits the first loss to a healthy shard.
//! - **Respawn** follows the shared [`RetryPolicy`] equal-jitter
//!   backoff, capped, forever — whether to give up on a shard is an
//!   operator decision, not the supervisor's. A respawned child gets a
//!   fresh ephemeral port; the slot's [`TcpShard`] is swapped under the
//!   shard lock so routing flips over atomically.
//! - **Graceful drain** ([`ProcessShard::shutdown`]): final stats are
//!   fetched and cached, the child gets a shutdown frame and drains,
//!   and the supervisor reaps it with a bounded wait — SIGKILL only if
//!   the child ignores the protocol. `ibcf serve --shards N` therefore
//!   never leaks orphan processes.
//! - The chaos harness SIGKILLs live children deterministically through
//!   [`FaultSite::ShardProcess`] / [`FaultAction::KillProcess`],
//!   refusing to kill the last live process so the fleet always
//!   retains capacity.

use crate::fault::{FaultAction, FaultHook, FaultSite};
use crate::request::{Kind, Payload, RejectReason, ReplySink, SubmitRefusal};
use crate::retry::RetryPolicy;
use crate::router::{ShardBackend, TcpShard};
use crate::server::TcpConn;
use crate::stats::StatsSnapshot;
use std::io::{self, BufRead, BufReader};
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
    /// Backoff between respawn attempts for a shard that keeps dying.
    pub respawn: RetryPolicy,
    /// Fault hook for deterministic process kills
    /// ([`FaultSite::ShardProcess`]); ticks once per shard per
    /// supervision round.
    pub fault: FaultHook,
    /// Supervision round cadence (liveness reap + respawn + fault tick).
    pub interval: Duration,
}

impl FleetConfig {
    /// A fleet of `shards` children of `program` with default child
    /// arguments (`serve --shard-child`), respawn backoff, no faults,
    /// and a 5 ms supervision cadence.
    pub fn new(program: PathBuf, shards: usize) -> FleetConfig {
        FleetConfig {
            program,
            child_args: vec!["serve".into(), "--shard-child".into()],
            shards,
            respawn: RetryPolicy::reconnect(0x0F1EE7),
            fault: FaultHook::disabled(),
            interval: Duration::from_millis(5),
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

struct ProcState {
    child: Option<Child>,
    /// The live connection front for the current child generation.
    tcp: Option<Arc<TcpShard>>,
    /// Address of the current (or last) child generation.
    addr: String,
    /// Consecutive failed respawn attempts; resets on success.
    attempt: u32,
    /// Earliest instant the next respawn attempt is allowed.
    next_spawn_at: Option<Instant>,
}

/// One shard living in a child OS process, fronted by a [`TcpShard`]
/// that is swapped atomically when the supervisor respawns the child.
pub struct ProcessShard {
    name: String,
    state: Mutex<ProcState>,
    /// Admission stopped for good (drain/shutdown), no more respawns.
    killed: AtomicBool,
    /// Times the supervisor replaced a dead child with a fresh one.
    respawns: AtomicU64,
    /// Last successfully fetched stats snapshot; served when the child
    /// is unreachable (mid-respawn, or after shutdown).
    last_stats: Mutex<StatsSnapshot>,
}

impl ProcessShard {
    fn launch(name: String, cfg: &FleetConfig) -> io::Result<Arc<ProcessShard>> {
        let (child, addr) = spawn_child(&cfg.program, &cfg.child_args)?;
        let tcp = Arc::new(TcpShard::new(format!("{name}-conn"), addr.clone()));
        Ok(Arc::new(ProcessShard {
            name,
            state: Mutex::new(ProcState {
                child: Some(child),
                tcp: Some(tcp),
                addr,
                attempt: 0,
                next_spawn_at: None,
            }),
            killed: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
            last_stats: Mutex::new(StatsSnapshot::default()),
        }))
    }

    /// OS pid of the current child, if one is running.
    pub fn child_pid(&self) -> Option<u32> {
        self.state.lock().unwrap().child.as_ref().map(|c| c.id())
    }

    /// Times the supervisor respawned this shard's process.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    fn conn(&self) -> Option<Arc<TcpShard>> {
        self.state.lock().unwrap().tcp.clone()
    }

    /// `true` while the child process exists and has not exited.
    fn child_alive(&self) -> bool {
        match self.state.lock().unwrap().child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)),
            None => false,
        }
    }

    /// SIGKILLs the current child (the deterministic process fault).
    /// Returns `true` if a live child was killed.
    fn kill_child(&self) -> bool {
        match self.state.lock().unwrap().child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)) && c.kill().is_ok(),
            None => false,
        }
    }

    /// One supervision step: if the child died, reap it and (backoff
    /// permitting) spawn a replacement, swapping the connection front.
    fn respawn_if_dead(&self, cfg: &FleetConfig) {
        if self.killed.load(Ordering::SeqCst) {
            return;
        }
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
            if let Some(t) = st.next_spawn_at {
                if Instant::now() < t {
                    return;
                }
            }
        }
        // Spawn outside the lock: the handshake read blocks, and submits
        // only need the lock for a moment to clone the connection front.
        match spawn_child(&cfg.program, &cfg.child_args) {
            Ok((child, addr)) => {
                let tcp = Arc::new(TcpShard::new(format!("{}-conn", self.name), addr.clone()));
                let old = {
                    let mut st = self.state.lock().unwrap();
                    let old = st.tcp.replace(tcp);
                    st.child = Some(child);
                    st.addr = addr;
                    st.attempt = 0;
                    st.next_spawn_at = None;
                    old
                };
                // Reap the dead generation's reader; its EOF drain
                // already answered in-flight requests with ShardLost.
                if let Some(old) = old {
                    old.shutdown();
                }
                self.respawns.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let mut st = self.state.lock().unwrap();
                st.attempt += 1;
                st.next_spawn_at = Some(Instant::now() + cfg.respawn.backoff(st.attempt));
            }
        }
    }
}

impl ShardBackend for ProcessShard {
    fn name(&self) -> &str {
        &self.name
    }

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
        match self.conn() {
            Some(tcp) => tcp.try_submit(kind, id, n, payload, deadline, sink),
            None => Err((RejectReason::ShuttingDown, payload, sink)),
        }
    }

    fn probe(&self) -> bool {
        if self.killed.load(Ordering::SeqCst) {
            return false;
        }
        self.conn().is_some_and(|t| t.probe())
    }

    fn load(&self) -> usize {
        self.conn().map_or(0, |t| t.load())
    }

    fn stats(&self) -> StatsSnapshot {
        let addr = self.state.lock().unwrap().addr.clone();
        if !addr.is_empty() {
            let fetched = TcpConn::connect_with_timeout(&addr, Duration::from_secs(2))
                .and_then(|mut c| c.fetch_stats());
            if let Ok(snap) = fetched {
                *self.last_stats.lock().unwrap() = snap.clone();
                return snap;
            }
        }
        self.last_stats.lock().unwrap().clone()
    }

    fn kill(&self) {
        // Graceful: stop admission and respawns, but leave the child —
        // and the connection — alive so admitted work still drains back
        // through the pending map.
        self.killed.store(true, Ordering::SeqCst);
    }

    fn drained(&self) -> bool {
        self.load() == 0
    }

    fn shutdown(&self) {
        self.killed.store(true, Ordering::SeqCst);
        let (child, tcp, addr) = {
            let mut st = self.state.lock().unwrap();
            (st.child.take(), st.tcp.take(), st.addr.clone())
        };
        // Cache the child's final counters before asking it to exit;
        // the router merges these into the fleet snapshot afterwards.
        if let Ok(snap) = TcpConn::connect_with_timeout(&addr, Duration::from_secs(2))
            .and_then(|mut c| c.fetch_stats())
        {
            *self.last_stats.lock().unwrap() = snap;
        }
        // Graceful drain: shutdown frame, wait for the ack (the child
        // answers everything admitted first).
        let _ = TcpConn::connect_with_timeout(&addr, Duration::from_secs(5))
            .and_then(|mut c| c.shutdown_server());
        // Reap with a bounded wait; a child that ignores the protocol
        // is SIGKILLed rather than leaked.
        if let Some(mut child) = child {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut exited = false;
            while Instant::now() < deadline {
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
        if let Some(tcp) = tcp {
            tcp.shutdown();
        }
    }

    fn can_lose_inflight(&self) -> bool {
        true
    }
}

/// The supervisor over N [`ProcessShard`]s: spawns them, reaps exits,
/// respawns with backoff, and drives the deterministic process-kill
/// fault. Hand [`Fleet::backends`] to [`Router::start`](crate::Router).
pub struct Fleet {
    shards: Vec<Arc<ProcessShard>>,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
    proc_kills: Arc<AtomicU64>,
}

impl Fleet {
    /// Spawns `cfg.shards` child processes (waiting for each handshake)
    /// and starts the supervision thread. On a failed spawn, every
    /// already-started child is killed before the error returns.
    pub fn spawn(cfg: FleetConfig) -> io::Result<Fleet> {
        assert!(cfg.shards > 0, "fleet needs at least one shard process");
        let mut shards: Vec<Arc<ProcessShard>> = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            match ProcessShard::launch(format!("proc-{i}"), &cfg) {
                Ok(s) => shards.push(s),
                Err(e) => {
                    for s in &shards {
                        s.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let proc_kills = Arc::new(AtomicU64::new(0));
        let supervisor = {
            let shards = shards.clone();
            let stop = stop.clone();
            let proc_kills = proc_kills.clone();
            std::thread::Builder::new()
                .name("ibcf-fleet-supervisor".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        for shard in &shards {
                            if let Some(FaultAction::KillProcess) =
                                cfg.fault.check(FaultSite::ShardProcess)
                            {
                                let alive = shards.iter().filter(|s| s.child_alive()).count();
                                // Never take the whole fleet down: the
                                // last live process is immune.
                                if alive > 1 && shard.kill_child() {
                                    proc_kills.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            shard.respawn_if_dead(&cfg);
                        }
                        std::thread::sleep(cfg.interval);
                    }
                })
                .expect("spawn fleet supervisor")
        };
        Ok(Fleet {
            shards,
            stop,
            supervisor: Some(supervisor),
            proc_kills,
        })
    }

    /// The shards as routable backends, in slot order.
    pub fn backends(&self) -> Vec<Arc<dyn ShardBackend>> {
        self.shards
            .iter()
            .map(|s| s.clone() as Arc<dyn ShardBackend>)
            .collect()
    }

    /// The shards themselves (pid/respawn introspection).
    pub fn shards(&self) -> &[Arc<ProcessShard>] {
        &self.shards
    }

    /// Current child pids, in slot order (dead slots omitted).
    pub fn child_pids(&self) -> Vec<u32> {
        self.shards.iter().filter_map(|s| s.child_pid()).collect()
    }

    /// Total respawns across the fleet.
    pub fn respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns()).sum()
    }

    /// Processes SIGKILLed by the fault plan.
    pub fn proc_kills(&self) -> u64 {
        self.proc_kills.load(Ordering::Relaxed)
    }

    /// `true` while every slot has a live child process.
    pub fn all_children_alive(&self) -> bool {
        self.shards.iter().all(|s| s.child_alive())
    }

    /// Stops the supervision thread (no more respawns). Call *before*
    /// [`Router::shutdown`](crate::Router::shutdown) so drained
    /// children are not resurrected mid-teardown.
    pub fn stop_supervisor(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_supervisor();
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
    /// behind it — these tests exercise the supervisor's process
    /// management, not the wire path (the CLI integration tests do
    /// that with real `--shard-child` binaries).
    fn sleeper_cfg(shards: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(PathBuf::from("/bin/sh"), shards);
        cfg.child_args = vec![
            "-c".into(),
            format!("echo '{SHARD_READY_PREFIX}127.0.0.1:1'; exec sleep 600"),
        ];
        cfg.interval = Duration::from_millis(1);
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
        assert!(fleet.shards[0].kill_child());
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.respawns() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fleet.respawns() >= 1, "supervisor never respawned");
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
