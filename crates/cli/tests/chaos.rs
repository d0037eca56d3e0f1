//! Chaos regression tests: `ibcf chaos` under fixed fault plans and
//! seeds must uphold the exactly-one-reply invariant (0 lost,
//! 0 duplicates) and, for the panic plan, survive repeated worker
//! crashes without losing the process.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ibcf")
}

fn run_chaos(plan: &str, seed: &str, extra: &[&str]) -> (std::process::ExitStatus, String, String) {
    let mut args = vec![
        "chaos",
        "--plan",
        plan,
        "--seed",
        seed,
        "--requests",
        "1000",
        "--conns",
        "3",
        "--window",
        "32",
        "--plant-bad",
        "5",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(bin())
        .args(&args)
        .output()
        .expect("run ibcf chaos");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_invariant(plan: &str, seed: &str, extra: &[&str]) -> String {
    let (status, stdout, stderr) = run_chaos(plan, seed, extra);
    assert!(
        status.success(),
        "chaos --plan {plan} --seed {seed} failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("exactly-one-reply invariant holds"),
        "invariant line missing for {plan}/{seed}: {stdout}"
    );
    assert!(
        stdout.contains("invariant: 0 lost, 0 duplicates"),
        "non-zero loss or duplication for {plan}/{seed}: {stdout}"
    );
    stdout
}

#[test]
fn chaos_worker_panic_survives_repeated_crashes() {
    let stdout = assert_invariant("worker-panic", "42", &[]);
    // The command itself enforces >= 3 crashes for this plan; check the
    // report surfaced them so a silently-inert plan can't pass.
    let crashes: u64 = stdout
        .lines()
        .find(|l| l.starts_with("faults injected"))
        .and_then(|l| l.split('(').nth(1))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|w| w.parse().ok())
        .expect("crash count in report");
    assert!(crashes >= 3, "only {crashes} worker crashes: {stdout}");
}

#[test]
fn chaos_slow_batch_loses_nothing() {
    assert_invariant("slow-batch", "1009", &[]);
}

#[test]
fn chaos_conn_drop_reconnects_and_resubmits() {
    assert_invariant("conn-drop", "7", &[]);
}

#[test]
fn chaos_shard_kill_fails_over_without_losing_replies() {
    let stdout = assert_invariant("shard-kill", "42", &["--shards", "3"]);
    // The command enforces >= 1 kill and >= 1 survivor; check the fleet
    // report surfaced both so an inert plan (or a router that killed
    // everything) can't pass.
    let fleet = stdout
        .lines()
        .find(|l| l.starts_with("fleet: 3 shards"))
        .unwrap_or_else(|| panic!("no fleet summary line: {stdout}"));
    assert!(
        !fleet.contains("0 killed"),
        "shard-kill plan killed nothing: {stdout}"
    );
    assert!(
        !fleet.contains("0 healthy at end"),
        "no shard survived: {stdout}"
    );
    // Per-shard breakdown made it into the load report.
    assert!(
        stdout.contains("shard shard-0") && stdout.contains("p50/p99"),
        "per-shard latency lines missing: {stdout}"
    );
}

#[test]
fn chaos_mixed_plan_over_a_routed_fleet_stays_clean() {
    // The full fault mix (panics, stalls, drops, corruption) routed over
    // 3 shards: cross-layer interference must not break the invariant.
    assert_invariant("mixed", "1009", &["--shards", "3"]);
}

#[test]
fn chaos_proc_kill_respawns_every_victim_and_keeps_the_invariant() {
    let stdout = assert_invariant(
        "proc-kill",
        "42",
        &["--procs", "3", "--hedge-after-us", "2000"],
    );
    // The command enforces >= 2 SIGKILLs, a respawn per kill, and full
    // recovery before it exits; check the report surfaced all three so
    // an inert plan (or a health loop that stopped respawning) can't
    // pass.
    let procs = stdout
        .lines()
        .find(|l| l.starts_with("processes:"))
        .unwrap_or_else(|| panic!("no process summary line: {stdout}"));
    assert!(
        !procs.contains("0 SIGKILLed"),
        "proc-kill plan killed nothing: {stdout}"
    );
    assert!(
        procs.contains("fully recovered"),
        "fleet did not recover: {stdout}"
    );
    assert!(
        stdout.contains("breakers:"),
        "breaker transitions missing from the report: {stdout}"
    );
}

#[test]
fn serve_procs_shutdown_reaps_every_shard_child() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let mut serve = Command::new(bin())
        .args(["serve", "--port", "0", "--procs", "2", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ibcf serve --procs");
    let mut reader = BufReader::new(serve.stdout.take().expect("serve stdout"));

    // The parent prints its bound address and the shard-child pids
    // before entering the accept loop.
    let mut addr = None;
    let mut pids: Vec<u32> = Vec::new();
    let mut line = String::new();
    while addr.is_none() || pids.is_empty() {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = serve.kill();
            panic!("serve exited before handshake (addr {addr:?}, pids {pids:?})");
        }
        if let Some(rest) = line.strip_prefix("serving on ") {
            addr = rest.split_whitespace().next().map(str::to_owned);
        } else if let Some(rest) = line.trim_end().strip_prefix("fleet pids: [") {
            pids = rest
                .trim_end_matches(']')
                .split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect();
        }
    }
    let addr = addr.unwrap();
    assert_eq!(pids.len(), 2, "expected 2 shard-child pids: {pids:?}");
    for pid in &pids {
        assert!(
            std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "shard child {pid} not alive after handshake"
        );
    }

    // Drive a little traffic through the fleet, then ask the server to
    // drain and exit.
    let load = Command::new(bin())
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "64",
            "--conns",
            "1",
            "--window",
            "8",
            "--shutdown",
        ])
        .output()
        .expect("run ibcf loadgen --shutdown");
    assert!(
        load.status.success(),
        "loadgen failed:\n{}\n{}",
        String::from_utf8_lossy(&load.stdout),
        String::from_utf8_lossy(&load.stderr)
    );

    let status = serve.wait().expect("wait for serve");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).ok();
    assert!(status.success(), "serve exited with {status}:\n{rest}");
    assert!(
        rest.contains("all shard processes reaped"),
        "no reap confirmation in serve output:\n{rest}"
    );
    // Regression guard for the orphan leak: after the parent exits,
    // no shard child process may remain.
    for pid in &pids {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "shard child {pid} leaked past shutdown:\n{rest}"
        );
    }
}

#[test]
fn chaos_rejects_unknown_plan() {
    let (status, _, stderr) = run_chaos("flaky-gpu", "1", &[]);
    assert!(!status.success());
    assert!(
        stderr.contains("unknown fault plan"),
        "no plan diagnostics: {stderr}"
    );
}
