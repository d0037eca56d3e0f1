//! The `ibcf` subcommands.

use crate::args::Args;
use ibcf_autotune::{
    merge_logs, run_sizes, run_sizes_logged, sweep_sizes, sweep_sizes_logged, sweep_sizes_with,
    BestTable, Dataset, LoggedSweepReport, Measurement, ParamSpace, SelectionReport, SelectorKind,
    ShardSpec, StderrProgress, SweepLog, SweepOptions, SweepReport, TunedDispatch,
};
use ibcf_core::flops::cholesky_flops_std;
use ibcf_core::host_batch::{factorize_batch, factorize_batch_seq, BatchReport};
use ibcf_core::lane_batch::{LaneOrder, LaneWidth};
use ibcf_core::spd::{fill_batch_spd, SpdKind};
use ibcf_core::verify::batch_reconstruction_error;
use ibcf_core::{
    detect_isa, factorize_batch_auto_backend, potrf_blocked, potrf_tiled_seq, potrf_tiled_threads,
    LaneBackend, Looking, Real,
};
use ibcf_forest::{permutation_importance, Forest, ForestConfig, TableData};
use ibcf_gpu_sim::GpuSpec;
use ibcf_kernels::{
    emit_cuda, factorize_batch_device, time_config, time_traditional, KernelConfig, Unroll,
};
use ibcf_layout::{alloc_batch, Canonical, Chunked, Interleaved, Layout};
use std::path::Path;

/// Help text.
pub const USAGE: &str = "\
ibcf - interleaved batch Cholesky factorization (IPPS'17 reproduction)

commands:
  simulate  --n N [--nb NB] [--looking right|left|top] [--chunk C]
            [--simple] [--full] [--fast] [--batch B]
            [--gpu p100|v100|a100|gtx1080]
            time one kernel configuration on the simulator
  best      --n N [--batch B] [--quick]      sweep one size, print winners
  sweep     --sizes 8,16,24 [--out F.jsonl] [--log F.log] [--shard i/k]
            [--batch B] [--quick] [--noise SIGMA] [--noise-seed S]
            [--selector exhaustive|analytic]
            run a sweep and persist the dataset; with --log, stream every
            measurement to a crash-safe resumable log; --selector swaps
            the exhaustive grid for the model-guided search over the
            same logging machinery
  resume    --log F.log [--out F.jsonl]
            finish an interrupted sweep from its log (all sweep
            parameters come from the log header)
  merge     --out F.jsonl [--partial] SHARD.log...
            reassemble shard logs into one canonical dataset
  verify-log [--strict] F.log
            validate a sweep log (checksums, grid, coverage)
  analyze   --data F.jsonl [--trees T]       random-forest importances
  tune      --data F.jsonl --out D.jsonl [--fast]
            build a per-size dispatch table from a sweep dataset; or
  tune      --out D.jsonl [--sizes 8,...,64] [--selector analytic]
            [--gpu G] [--batch B] [--quick] [--regret]
            search directly (no dataset needed): the analytic model
            ranks candidates and early stopping measures only the
            plausible ones; --regret also runs the exhaustive
            reference and prints the true per-size regret
  emit      --n N [--nb NB] [--looking L] [--full] [--out F.cu]
            emit the generated CUDA C source
  verify    --n N [--batch B] [--fast]       functional factorization check
  host-bench [--sizes 8,16,24,32] [--batch B] [--reps R] [--f32|--f64]
            CPU baseline throughput per layout: sequential vs
            rayon-gather vs the autovectorized lane engine vs the
            explicit-SIMD lane engine (the simd column reports the
            dispatched ISA: avx512, avx2, or fallback; force it with
            IBCF_SIMD=off|avx2|avx512)
  tiled-bench [--sizes 128,256,384,512] [--nbs 16,32] [--reps R]
            [--threads T] [--looking right|left|top] [--f32|--f64]
            large-matrix Cholesky throughput: sequential blocked
            baseline vs the core::tiled task-graph runtime, sequential
            replay and work-stealing parallel execution (the measured
            batched-vs-blocked crossover in EXPERIMENTS.md comes from
            this table)
  serve     [--host H] [--port P] [--workers W] [--queue-cap Q]
            [--max-batch B] [--max-delay-us D] [--max-n N] [--dispatch F]
            [--analytic G] [--shards N] [--procs N] [--shard-child]
            [--retry-after-us U] [--hedge-after-us U]
            run the dynamic-batching factorization service over TCP;
            small requests (n <= N) are batched, large ones (n <= 1024)
            run on a task-graph pool, and both kinds share one submit
            path (engine plans fall back table -> analytic model for
            gpu G -> heuristics; each tier is optional); every server
            is a health-checked router keyed by (n, dtype) over N >= 1
            shards — one in-process service by default, --shards N of
            them — and a full shard answers with a typed backpressure
            reject carrying the --retry-after-us hint; --procs N runs
            each shard as a *child process* instead (OS-level
            isolation: the router's health probes respawn dead
            children with backoff, in-flight requests fail over,
            per-shard circuit breakers gate readmission);
            --hedge-after-us U duplicates a straggling request to a
            second shard after U us (first reply wins, the duplicate
            is suppressed); --shard-child is the child's own mode:
            bind an ephemeral port, print 'shard-child listening on
            H:P', serve one shard through its own one-slot router;
            IBCF_SIMD=off pins workers (and shard children, which
            inherit it) to the autovectorized lane kernels
  loadgen   [--addr H:P] [--sizes 16,24] [--dtype f32|f64]
            [--requests R] [--conns C] [--window W | --rate R/s]
            [--plant-bad K] [--seed S] [--deadline-us D] [--retry]
            [--read-timeout-ms T] [--large-every K] [--large-n N]
            [--shutdown]
            drive a running server closed-loop (fixed window) or
            open-loop (fixed arrival rate); prints throughput, latency
            percentiles, and mean batch occupancy; with --retry,
            reconnect and resubmit outstanding requests on a dropped
            or stalled connection
  chaos     [--plan P] [--seed S] [--requests R] [--conns C]
            [--window W] [--sizes 8,16] [--plant-bad K] [--workers W]
            [--max-batch B] [--deadline-us D] [--shards N] [--procs N]
            [--hedge-after-us U] [--large-every K] [--large-n N]
            run loadgen against an in-process service under a seeded
            fault plan (worker-panic, slow-batch, queue-stall,
            conn-drop, frame-corrupt, shard-kill, proc-kill, mixed,
            inert) and verify the exactly-one-reply invariant: 0 lost,
            0 duplicates; the server routes over --shards N in-process
            shards (one by default) and the shard-kill plan kills whole
            shards mid-run (the last one is immune, so it needs N > 1;
            failover must keep the invariant); --procs N > 1 runs the
            shards as real child processes and lets the proc-kill plan
            SIGKILL them mid-run from the router's health loop — the
            run must show every kill respawned, the fleet healthy
            again, and zero lost/duplicate replies; --hedge-after-us U
            hedges stragglers on any fleet of two or more shards
  help                                        this text
";

fn gpu_of(args: &Args) -> Result<GpuSpec, String> {
    let name = args.get("gpu", "p100".to_string())?;
    GpuSpec::by_name(&name)
        .ok_or_else(|| format!("unknown gpu {name} (use p100, v100, a100, or gtx1080)"))
}

fn selector_of(args: &Args) -> Result<SelectorKind, String> {
    let name = args.get("selector", "exhaustive".to_string())?;
    SelectorKind::parse(&name)
        .ok_or_else(|| format!("unknown selector {name} (use exhaustive or analytic)"))
}

fn config_of(args: &Args) -> Result<KernelConfig, String> {
    let n: usize = args.get("n", 0)?;
    if n == 0 {
        return Err("missing required option --n".into());
    }
    let looking = match args.get("looking", "top".to_string())?.as_str() {
        "right" => Looking::Right,
        "left" => Looking::Left,
        "top" => Looking::Top,
        other => return Err(format!("unknown looking order {other}")),
    };
    let config = KernelConfig {
        n,
        nb: args.get("nb", 4.min(n))?,
        looking,
        chunked: !args.flag("simple"),
        chunk_size: args.get("chunk", 64)?,
        unroll: if args.flag("full") {
            Unroll::Full
        } else {
            Unroll::Partial
        },
        fast_math: args.flag("fast"),
        cache_pref: ibcf_kernels::CachePref::L1,
    };
    config.validate()?;
    Ok(config)
}

fn fail(e: impl std::fmt::Display) -> i32 {
    eprintln!("error: {e}");
    2
}

/// `ibcf simulate`: one configuration through the timing model.
pub fn simulate(args: &Args) -> i32 {
    let (config, spec, batch) = match (
        config_of(args),
        gpu_of(args),
        args.get("batch", 16_384usize),
    ) {
        (Ok(c), Ok(s), Ok(b)) => (c, s, b),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return fail(e),
    };
    let t = time_config(&config, batch, &spec);
    let flops = cholesky_flops_std(config.n) * batch as f64;
    println!("configuration : {config}");
    println!("gpu           : {}", spec.name);
    println!("batch         : {batch}");
    println!("time          : {:.3} us", t.time_s * 1e6);
    println!("performance   : {:.0} GFLOP/s", t.gflops(flops));
    println!("bottleneck    : {:?}", t.bottleneck);
    println!("  compute     : {:.3} us", t.compute_time_s * 1e6);
    println!("  lsu         : {:.3} us", t.lsu_time_s * 1e6);
    println!(
        "  dram        : {:.3} us ({} MB, row hit {:.0}%, L2 hit {:.0}%)",
        t.dram_time_s * 1e6,
        t.dram_bytes / 1_000_000,
        t.row_hit_rate * 100.0,
        t.l2_hit_rate * 100.0
    );
    println!(
        "coalescing    : {:.2} transactions/access",
        t.transactions_per_access
    );
    println!(
        "occupancy     : {:.0}% ({} blocks/SM, limited by {:?})",
        t.occupancy.occupancy * 100.0,
        t.occupancy.blocks_per_sm,
        t.occupancy.limiter
    );
    println!(
        "code size     : {} bytes (i-cache penalty {:.2}x)",
        t.code_bytes, t.icache_penalty
    );
    if t.spill_bytes > 0 {
        println!("spill traffic : {} bytes", t.spill_bytes);
    }
    let trad = time_traditional(config.n, batch, &spec, config.fast_math);
    println!(
        "traditional   : {:.0} GFLOP/s -> speedup {:.2}x",
        trad.gflops(flops),
        trad.time_s / t.time_s
    );
    0
}

/// `ibcf best`: exhaustive winners at one size.
pub fn best(args: &Args) -> i32 {
    let n: usize = match args.get("n", 0) {
        Ok(0) => return fail("missing required option --n"),
        Ok(n) => n,
        Err(e) => return fail(e),
    };
    let batch = match args.get("batch", 16_384usize) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let spec = match gpu_of(args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let space = if args.flag("quick") {
        ParamSpace::quick()
    } else {
        ParamSpace::paper()
    };
    eprintln!("sweeping {} configurations at n={n}...", space.len_per_n());
    let ds = sweep_sizes(
        &space,
        &[n],
        &spec,
        &SweepOptions {
            batch,
            progress_every: 0,
            ..Default::default()
        },
    );
    let table = BestTable::new(&ds);
    let overall = table.best(n).expect("non-empty sweep");
    println!(
        "best overall : {}  {:.0} GFLOP/s",
        overall.config, overall.gflops
    );
    for fast in [false, true] {
        if let Some(m) = table.best_by_arith(n, fast) {
            println!(
                "best {}    : {}  {:.0} GFLOP/s",
                if fast { "fast" } else { "ieee" },
                m.config,
                m.gflops
            );
        }
    }
    for looking in Looking::ALL {
        if let Some(m) = table.best_by_looking(n, looking) {
            println!(
                "best {:<5}   : {}  {:.0} GFLOP/s",
                looking.name(),
                m.config,
                m.gflops
            );
        }
    }
    0
}

fn parse_sizes(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad size: {p}"))
        })
        .collect()
}

/// The GPU spec whose `name` a sweep-log header recorded.
fn spec_from_name(name: &str) -> Result<GpuSpec, String> {
    GpuSpec::presets()
        .into_iter()
        .find(|spec| spec.name == name)
        .ok_or_else(|| format!("log was swept on unknown gpu {name:?}"))
}

fn print_sweep_stats(report: &SweepReport) {
    println!(
        "sweep took {:.1}s ({:.0} configs/s)",
        report.wall_s,
        report.configs_per_sec()
    );
    println!(
        "plan cache: {} hits / {} lookups ({:.1}% hit rate)",
        report.cache.hits,
        report.cache.lookups(),
        report.cache.hit_rate() * 100.0
    );
    println!(
        "stage time: {:.1} ms planning, {:.1} ms pricing",
        report.cache.plan_ns as f64 / 1e6,
        report.cache.price_ns as f64 / 1e6
    );
}

/// Writes the dataset if `--out` was given, then prints logged-sweep
/// bookkeeping (resumed/measured counts, torn-tail recovery).
fn finish_logged(args: &Args, logged: &LoggedSweepReport, log: &str) -> i32 {
    if let Some(tail) = &logged.dropped_tail {
        eprintln!("recovered {log}: {tail}");
    }
    println!(
        "log {log}: {} resumed + {} measured = {} of shard {}",
        logged.resumed,
        logged.measured,
        logged.resumed + logged.measured,
        logged.shard,
    );
    if let Some(out) = args.options.get("out") {
        let ds = &logged.report.dataset;
        if let Err(e) = ds.save_jsonl(Path::new(out)) {
            return fail(format!("{out}: {e}"));
        }
        println!("wrote {} measurements to {out}", ds.measurements.len());
    }
    print_sweep_stats(&logged.report);
    0
}

/// Prints per-size selection stats (evaluations vs grid, regret bounds).
fn print_selection_stats(report: &SelectionReport) {
    for o in &report.outcomes {
        let bound = o
            .regret_bound
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        println!(
            "  n={:<4} best {:>8.0} GFLOP/s  {}/{} configs{}  regret bound {bound}",
            o.n,
            o.best.gflops,
            o.evaluated,
            o.grid_total,
            if o.stopped_early {
                " (stopped early)"
            } else {
                ""
            },
        );
    }
    println!(
        "selector {}: {}/{} configurations evaluated in {:.2}s ({:.0} configs/s)",
        report.selector,
        report.evaluated(),
        report.grid_total(),
        report.wall_s,
        report.configs_per_sec()
    );
}

/// `ibcf sweep`: persist a dataset, optionally through a crash-safe log.
///
/// `--selector` swaps the strategy: `exhaustive` (default) measures the
/// whole grid; `analytic` measures the analytic model's ranking with
/// early stopping. Both share the logging/resume machinery (`--log`),
/// though only the exhaustive sweep shards.
pub fn sweep(args: &Args) -> i32 {
    let sizes = match args.require("sizes").and_then(parse_sizes) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let log = args.options.get("log").cloned();
    let out = match (args.options.get("out"), &log) {
        (Some(o), _) => Some(o.to_string()),
        (None, Some(_)) => None, // the log is the artifact
        (None, None) => return fail("missing required option --out (or --log)"),
    };
    let (batch, noise_sigma, noise_seed) = match (
        args.get("batch", 16_384usize),
        args.get("noise", 0.0f64),
        args.get("noise-seed", 0u64),
    ) {
        (Ok(b), Ok(s), Ok(n)) => (b, s, n),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return fail(e),
    };
    let shard = match args.options.get("shard") {
        None => ShardSpec::whole(),
        Some(s) => match ShardSpec::parse(s) {
            Ok(s) => s,
            Err(e) => return fail(e),
        },
    };
    if shard.count > 1 && log.is_none() {
        return fail("--shard requires --log (shard logs are what merge reassembles)");
    }
    let (spec, kind) = match (gpu_of(args), selector_of(args)) {
        (Ok(s), Ok(k)) => (s, k),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let space = if args.flag("quick") {
        ParamSpace::quick()
    } else {
        ParamSpace::paper()
    };
    let opts = SweepOptions {
        batch,
        noise_sigma,
        noise_seed,
        progress_every: 2000,
        ..Default::default()
    };
    if kind == SelectorKind::Exhaustive {
        eprintln!(
            "sweeping {} configurations ({} sizes x {}, shard {shard})...",
            shard.owned_of(sizes.len() * space.len_per_n()),
            sizes.len(),
            space.len_per_n()
        );
        if let Some(log) = log {
            let logged = match sweep_sizes_logged(
                &space,
                &sizes,
                &spec,
                &opts,
                &StderrProgress,
                Path::new(&log),
                shard,
            ) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            return finish_logged(args, &logged, &log);
        }
        let report = sweep_sizes_with(&space, &sizes, &spec, &opts, &StderrProgress);
        let ds = &report.dataset;
        let out = out.expect("out required without --log");
        if let Err(e) = ds.save_jsonl(Path::new(&out)) {
            return fail(format!("{out}: {e}"));
        }
        println!("wrote {} measurements to {out}", ds.measurements.len());
        print_sweep_stats(&report);
        return 0;
    }
    // Guided strategies: same driver, same log format, no sharding.
    if shard != ShardSpec::whole() {
        return fail(format!(
            "--selector {} does not shard; use --selector exhaustive",
            kind.name()
        ));
    }
    eprintln!(
        "searching {} sizes x up to {} configurations with selector {}...",
        sizes.len(),
        space.len_per_n(),
        kind.name()
    );
    let report = if let Some(log) = &log {
        match run_sizes_logged(
            kind,
            &space,
            &sizes,
            &spec,
            &opts,
            &StderrProgress,
            Path::new(log),
            shard,
        ) {
            Ok(r) => r,
            Err(e) => return fail(e),
        }
    } else {
        run_sizes(kind, &space, &sizes, &spec, &opts, &StderrProgress)
    };
    if let Some(tail) = &report.dropped_tail {
        eprintln!("recovered log: {tail}");
    }
    if report.resumed > 0 {
        println!("resumed {} measurements from the log", report.resumed);
    }
    if let Some(out) = out {
        let ds = report.dataset(&space);
        if let Err(e) = ds.save_jsonl(Path::new(&out)) {
            return fail(format!("{out}: {e}"));
        }
        println!("wrote {} measurements to {out}", ds.measurements.len());
    }
    print_selection_stats(&report);
    0
}

/// `ibcf resume`: finish an interrupted sweep from its log. Everything —
/// sizes, space, batch, GPU, noise, shard — comes from the log header,
/// so the resumed half cannot drift from the original run.
pub fn resume(args: &Args) -> i32 {
    let log = match args.require("log") {
        Ok(l) => l.to_string(),
        Err(e) => return fail(e),
    };
    // SweepLog / logged-sweep errors already name the log path.
    let parsed = match SweepLog::read(Path::new(&log), true) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let h = &parsed.header;
    let spec = match spec_from_name(&h.gpu) {
        Ok(s) => s,
        Err(e) => return fail(format!("{log}: {e}")),
    };
    let opts = SweepOptions {
        batch: h.batch,
        noise_sigma: h.noise_sigma,
        noise_seed: h.noise_seed,
        progress_every: 2000,
        ..Default::default()
    };
    eprintln!(
        "resuming {log}: {}/{} of shard {} already measured",
        parsed.entries.len(),
        parsed.owned_total(),
        h.shard
    );
    let logged = match sweep_sizes_logged(
        &h.space.clone(),
        &h.sizes.clone(),
        &spec,
        &opts,
        &StderrProgress,
        Path::new(&log),
        h.shard,
    ) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    finish_logged(args, &logged, &log)
}

/// `ibcf merge`: reassemble shard logs into one canonical dataset.
pub fn merge(args: &Args) -> i32 {
    let out = match args.require("out") {
        Ok(o) => o.to_string(),
        Err(e) => return fail(e),
    };
    if args.positional.is_empty() {
        return fail("merge needs at least one shard log (positional arguments)");
    }
    let paths: Vec<std::path::PathBuf> = args
        .positional
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    let (ds, report) = match merge_logs(&paths, args.flag("partial")) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Err(e) = ds.save_jsonl(Path::new(&out)) {
        return fail(format!("{out}: {e}"));
    }
    println!(
        "merged {} shard logs: {}/{} configurations ({} duplicates deduplicated)",
        report.shards, report.measured, report.total, report.duplicates
    );
    println!("wrote {} measurements to {out}", ds.measurements.len());
    0
}

/// `ibcf verify-log`: validate a sweep log and report its coverage.
pub fn verify_log(args: &Args) -> i32 {
    let path = match args
        .positional
        .first()
        .cloned()
        .or_else(|| args.options.get("log").cloned())
    {
        Some(p) => p,
        None => return fail("verify-log needs a log path"),
    };
    let strict = args.flag("strict");
    let log = match SweepLog::read(Path::new(&path), !strict) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let h = &log.header;
    println!("log     : {path}");
    println!("gpu     : {}", h.gpu);
    println!("batch   : {}", h.batch);
    println!("sizes   : {:?}", h.sizes);
    println!("noise   : sigma {} seed {}", h.noise_sigma, h.noise_seed);
    println!(
        "shard   : {} ({} of {} grid configs)",
        h.shard,
        log.owned_total(),
        h.total
    );
    println!(
        "coverage: {}/{} measured{}",
        log.entries.len(),
        log.owned_total(),
        if log.is_complete() { " (complete)" } else { "" }
    );
    if log.duplicates > 0 {
        println!("dedup   : {} identical duplicate lines", log.duplicates);
    }
    match &log.dropped_tail {
        Some(reason) => println!("recovery: {reason}"),
        None => println!("recovery: clean (no torn tail)"),
    }
    0
}

/// `ibcf analyze`: forest + importances over a saved dataset.
pub fn analyze(args: &Args) -> i32 {
    let path = match args.require("data") {
        Ok(p) => p.to_string(),
        Err(e) => return fail(e),
    };
    let trees = match args.get("trees", 500usize) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let ds = match Dataset::load_jsonl(Path::new(&path)) {
        Ok(d) => d,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let ieee: Vec<&Measurement> = ds
        .measurements
        .iter()
        .filter(|m| !m.config.fast_math)
        .collect();
    if ieee.is_empty() {
        return fail("dataset has no IEEE measurements");
    }
    let data = TableData::new(
        Measurement::feature_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ieee.iter().map(|m| m.features()).collect(),
        ieee.iter().map(|m| m.gflops).collect(),
    );
    eprintln!("fitting {} trees on {} rows...", trees, data.len());
    let forest = Forest::fit(
        &data,
        ForestConfig {
            num_trees: trees,
            ..Default::default()
        },
    );
    let imp = permutation_importance(&forest, &data, 1);
    println!("permutation importance (%IncMSE), descending:");
    for (name, v) in imp.ranking() {
        println!("  {name:<12} {v:>8.1}");
    }
    println!(
        "forest: {} trees, average depth {:.1}, OOB MSE {:.1}",
        forest.trees().len(),
        forest.average_depth(),
        forest.oob_mse(&data)
    );
    0
}

/// `ibcf tune`: build a dispatch table, either from a saved sweep dataset
/// (`--data`, the original path) or by searching directly (`--sizes` with
/// a `--selector`, the model-guided fast path: no full sweep required).
pub fn tune(args: &Args) -> i32 {
    let out = match args.require("out") {
        Ok(o) => o.to_string(),
        Err(e) => return fail(e),
    };
    if let Some(data) = args.options.get("data") {
        let ds = match Dataset::load_jsonl(Path::new(data)) {
            Ok(d) => d,
            Err(e) => return fail(format!("{data}: {e}")),
        };
        let fast = if args.flag("fast") { None } else { Some(false) };
        let dispatch = TunedDispatch::from_dataset(&ds, fast);
        return finish_tune(dispatch, &out);
    }
    // Fast path: search now, on the simulator, with the chosen selector.
    let sizes = match args
        .options
        .get("sizes")
        .map_or_else(|| Ok(ParamSpace::paper_sizes()), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if sizes.is_empty() || sizes.contains(&0) {
        return fail("--sizes entries must be positive");
    }
    let batch = match args.get("batch", 16_384usize) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let spec = match gpu_of(args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let kind = match args.get("selector", "analytic".to_string()) {
        Ok(name) => match SelectorKind::parse(&name) {
            Some(k) => k,
            None => return fail(format!("unknown selector {name}")),
        },
        Err(e) => return fail(e),
    };
    let space = if args.flag("quick") {
        ParamSpace::quick()
    } else {
        ParamSpace::paper()
    };
    let opts = SweepOptions {
        batch,
        progress_every: 0,
        ..Default::default()
    };
    eprintln!(
        "tuning {} sizes on {} with selector {}...",
        sizes.len(),
        spec.name,
        kind.name()
    );
    let report = run_sizes(kind, &space, &sizes, &spec, &opts, &StderrProgress);
    print_selection_stats(&report);
    if args.flag("regret") {
        // Measure the true exhaustive winner per size and report how far
        // the guided pick landed from it.
        eprintln!("computing exhaustive reference for regret...");
        let exhaustive = sweep_sizes_with(&space, &sizes, &spec, &opts, &StderrProgress);
        let best = BestTable::new(&exhaustive.dataset);
        let mut worst: f64 = 0.0;
        for o in &report.outcomes {
            let truth = best.best(o.n).expect("exhaustive covers every size");
            let regret = o.best.time_s / truth.time_s - 1.0;
            worst = worst.max(regret);
            println!(
                "  n={:<4} regret {:>6.2}%  (picked {:.0} vs true best {:.0} GFLOP/s)",
                o.n,
                regret * 100.0,
                o.best.gflops,
                truth.gflops
            );
        }
        println!(
            "worst regret {:.2}% at {}/{} of exhaustive cost",
            worst * 100.0,
            report.evaluated(),
            report.grid_total()
        );
    }
    finish_tune(report.dispatch_table(), &out)
}

/// Validates, saves, and prints a freshly built dispatch table.
fn finish_tune(dispatch: TunedDispatch, out: &str) -> i32 {
    if dispatch.is_empty() {
        return fail("tuning produced an empty dispatch table");
    }
    if let Err(e) = dispatch.save(Path::new(out)) {
        return fail(format!("{out}: {e}"));
    }
    println!("tuned {} sizes:", dispatch.len());
    for (n, config) in &dispatch.table {
        println!("  n={n:<4} -> {config}");
    }
    if let Some(p) = &dispatch.provenance {
        println!(
            "provenance: selector {}, {}/{} configs evaluated{}",
            p.selector,
            p.configs_evaluated,
            p.grid_total,
            p.regret_bound.map_or(String::new(), |b| format!(
                ", regret bound {:.1}%",
                b * 100.0
            ))
        );
    }
    println!("wrote {out}");
    0
}

/// `ibcf emit`: generated CUDA C.
pub fn emit(args: &Args) -> i32 {
    let config = match config_of(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let src = emit_cuda(&config);
    match args.options.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &src) {
                return fail(format!("{path}: {e}"));
            }
            println!("wrote {} bytes of CUDA C to {path}", src.len());
        }
        None => print!("{src}"),
    }
    0
}

/// `ibcf verify`: functional correctness check.
pub fn verify(args: &Args) -> i32 {
    let config = match config_of(args) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let batch = match args.get("batch", 1024usize) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let layout = config.layout(batch);
    let mut data = vec![0.0f32; ibcf_layout::BatchLayout::len(&layout)];
    fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 1);
    let orig = data.clone();
    factorize_batch_device(&config, batch, &mut data);
    let err = batch_reconstruction_error(&layout, &orig, &data);
    println!("{config}  batch {batch}");
    println!("worst relative reconstruction error: {err:.3e}");
    let tol = if config.fast_math { 5e-3 } else { 5e-4 };
    if err < tol {
        println!("OK (tolerance {tol:.0e})");
        0
    } else {
        eprintln!("FAILED (tolerance {tol:.0e})");
        1
    }
}

/// One engine of the host benchmark: name + entry point + the SIMD path
/// it runs on (`-` for scalar engines, `autovec` for the portable lane
/// path, the dispatched ISA for the explicit-SIMD engine).
type HostEngine<T> = (
    &'static str,
    fn(&Layout, &mut [T]) -> BatchReport,
    &'static str,
);

/// The lane engine pinned to the autovectorized backend — the pre-SIMD
/// baseline, kept as a bench row so the explicit-SIMD win stays visible.
fn lane_autovec<T: Real>(layout: &Layout, data: &mut [T]) -> BatchReport {
    factorize_batch_auto_backend(
        layout,
        data,
        LaneOrder::default(),
        LaneWidth::Auto,
        LaneBackend::Autovec,
    )
}

/// The lane engine on the runtime-dispatched explicit-SIMD backend.
fn lane_simd<T: Real>(layout: &Layout, data: &mut [T]) -> BatchReport {
    factorize_batch_auto_backend(
        layout,
        data,
        LaneOrder::default(),
        LaneWidth::Auto,
        LaneBackend::Simd,
    )
}

/// Times `engine` on pristine copies of `data`, returning the best-of-`reps`
/// wall time in seconds. The copy back to pristine state is not timed.
fn time_host_engine<T: Real>(
    layout: &Layout,
    pristine: &[T],
    engine: fn(&Layout, &mut [T]) -> BatchReport,
    reps: usize,
) -> f64 {
    let mut work = alloc_batch::<T, _>(layout);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        work.copy_from_slice(pristine);
        let t0 = std::time::Instant::now();
        let report = engine(layout, &mut work);
        let dt = t0.elapsed().as_secs_f64();
        assert!(report.all_ok(), "benchmark batch must factorize");
        best = best.min(dt);
    }
    best
}

/// Benches one (element type, size) cell of the host table across layouts.
fn host_bench_size<T: Real>(ty: &str, n: usize, batch: usize, reps: usize) {
    let flops = cholesky_flops_std(n) * batch as f64;
    let layouts: Vec<(&str, Layout)> = vec![
        (
            "interleaved",
            Layout::Interleaved(Interleaved::new(n, batch)),
        ),
        ("chunked64", Layout::Chunked(Chunked::new(n, batch, 64))),
        ("canonical", Layout::Canonical(Canonical::new(n, batch))),
    ];
    // For canonical the "lane"/"simd" engines are the auto path: pack
    // into an aligned chunked scratch, lane-factorize, unpack — pack cost
    // included.
    let engines: [HostEngine<T>; 4] = [
        ("seq", factorize_batch_seq::<T, Layout>, "-"),
        ("rayon-gather", factorize_batch::<T, Layout>, "-"),
        ("lane", lane_autovec::<T>, "autovec"),
        ("simd", lane_simd::<T>, detect_isa().name()),
    ];
    for (lname, layout) in layouts {
        let mut pristine = alloc_batch::<T, _>(&layout);
        fill_batch_spd(&layout, &mut pristine, SpdKind::DiagDominant, 42);
        let mut base = f64::NAN;
        for (ename, engine, isa) in engines {
            let t = time_host_engine(&layout, &pristine, engine, reps);
            if ename == "rayon-gather" {
                base = t;
            }
            println!(
                "{ty}  n={n:<3} {lname:<12} {ename:<13} {:>9.2} Gflop/s {:>13.0} mats/s {:>7} {isa:>8}",
                flops / t / 1e9,
                batch as f64 / t,
                if base.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2}x", base / t)
                },
            );
        }
    }
}

/// `ibcf host-bench`: CPU baseline throughput table — how much of the
/// interleaved layout's coalescing advantage the host lane engine
/// recovers over the gather/scatter baselines. Speedups are relative to
/// `rayon-gather` (the parallel gather/factor/scatter baseline).
pub fn host_bench(args: &Args) -> i32 {
    let sizes = match args
        .options
        .get("sizes")
        .map_or(Ok(vec![8, 16, 24, 32]), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let (batch, reps) = match (args.get("batch", 16_384usize), args.get("reps", 3usize)) {
        (Ok(b), Ok(r)) => (b, r),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    if sizes.contains(&0) {
        return fail("--sizes entries must be positive");
    }
    let f32_only = args.flag("f32");
    let f64_only = args.flag("f64");
    println!(
        "host batch Cholesky, batch {batch}, best of {reps} rep(s), {} threads, simd dispatch: {}",
        std::thread::available_parallelism().map_or(1, usize::from),
        detect_isa().name(),
    );
    println!(
        "type n    layout       engine         throughput        matrices       speedup     simd"
    );
    for &n in &sizes {
        if !f64_only {
            host_bench_size::<f32>("f32", n, batch, reps);
        }
        if !f32_only {
            host_bench_size::<f64>("f64", n, batch, reps);
        }
    }
    0
}

fn time_tiled<T: Real>(pristine: &[T], reps: usize, mut run: impl FnMut(&mut [T])) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut a = pristine.to_vec();
        let t0 = std::time::Instant::now();
        run(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn tiled_bench_size<T: Real>(
    ty: &str,
    n: usize,
    nb: usize,
    looking: Looking,
    threads: usize,
    reps: usize,
) {
    let flops = cholesky_flops_std(n);
    let layout = Canonical::new(n, 1);
    let mut batch = alloc_batch::<T, _>(&layout);
    fill_batch_spd(&layout, &mut batch, SpdKind::DiagDominant, 42);
    // Canonical stores each matrix contiguously: matrix 0 is the first
    // n*n elements, column-major with lda == n.
    let pristine = &batch[..n * n];

    let t_blocked = time_tiled(pristine, reps, |a| {
        let layout = Canonical::new(n, 1);
        potrf_blocked(&layout, a, 0, nb, looking).expect("SPD input must factor");
    });
    let t_seq = time_tiled(pristine, reps, |a| {
        potrf_tiled_seq(n, a, n, nb, looking).expect("SPD input must factor");
    });
    let t_par = time_tiled(pristine, reps, |a| {
        potrf_tiled_threads(n, a, n, nb, looking, threads).expect("SPD input must factor");
    });

    for (engine, t, speedup) in [
        ("blocked-seq", t_blocked, None),
        ("dag-seq", t_seq, Some(t_blocked / t_seq)),
        ("dag-par", t_par, Some(t_blocked / t_par)),
    ] {
        println!(
            "{ty}  n={n:<4} nb={nb:<3} {:<7} {engine:<12} {:>8.3} Gflop/s {:>8.2} ms {:>7}",
            looking.name(),
            flops / t / 1e9,
            t * 1e3,
            speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
        );
    }
}

/// `ibcf tiled-bench`: large-matrix Cholesky throughput — the
/// sequential blocked baseline against the `core::tiled` task-graph
/// runtime (sequential replay and work-stealing parallel execution).
/// The parallel column is bitwise identical to the sequential one by
/// construction; only the schedule differs.
pub fn tiled_bench(args: &Args) -> i32 {
    let sizes = match args
        .options
        .get("sizes")
        .map_or(Ok(vec![128, 256, 384, 512]), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let nbs = match args
        .options
        .get("nbs")
        .map_or(Ok(vec![16, 32]), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if sizes.contains(&0) || nbs.contains(&0) {
        return fail("--sizes and --nbs entries must be positive");
    }
    let default_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (reps, threads) = match (
        args.get("reps", 3usize),
        args.get("threads", default_threads),
    ) {
        (Ok(r), Ok(t)) => (r, t),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    if threads == 0 || reps == 0 {
        return fail("--threads and --reps must be positive");
    }
    let looking = match args.get("looking", "right".to_string()) {
        Ok(name) => match name.as_str() {
            "right" => Looking::Right,
            "left" => Looking::Left,
            "top" => Looking::Top,
            other => return fail(format!("unknown looking order {other}")),
        },
        Err(e) => return fail(e),
    };
    let f32_only = args.flag("f32");
    let f64_only = args.flag("f64");
    println!(
        "tiled task-graph Cholesky, best of {reps} rep(s), {threads} worker thread(s), {looking} looking"
    );
    println!("type n      nb    looking engine        throughput         time    vs blocked");
    for &n in &sizes {
        for &nb in &nbs {
            if !f64_only {
                tiled_bench_size::<f32>("f32", n, nb, looking, threads, reps);
            }
            if !f32_only {
                tiled_bench_size::<f64>("f64", n, nb, looking, threads, reps);
            }
        }
    }
    0
}

/// One router over N ≥ 1 shards — the one set-up `serve` and `chaos`
/// share. With `procs > 0` the shards are child processes running
/// `ibcf serve --shard-child` plus `child_args`; otherwise they are
/// `shards` in-process services made by `start`. `cfg.fault` drives the
/// router's shard kills and process kills alike. The process fleet, if
/// any, comes back beside the router for pid and respawn reporting.
fn start_fleet(
    procs: usize,
    shards: usize,
    child_args: &[String],
    start: impl Fn() -> ibcf_service::Service,
    cfg: ibcf_service::RouterConfig,
) -> Result<(ibcf_service::Router, Option<ibcf_service::Fleet>), String> {
    use ibcf_service::{Fleet, FleetConfig, InProcessShard, Router, ShardBackend};
    use std::sync::Arc;
    let (backends, fleet) = if procs > 0 {
        let exe = std::env::current_exe()
            .map_err(|e| format!("resolving own executable for shard children: {e}"))?;
        let mut fleet_cfg = FleetConfig::new(exe, procs);
        fleet_cfg.child_args.extend_from_slice(child_args);
        let fleet = Fleet::spawn(fleet_cfg).map_err(|e| format!("spawning shard fleet: {e}"))?;
        (fleet.backends(), Some(fleet))
    } else {
        let backends: Vec<Arc<dyn ShardBackend>> = (0..shards)
            .map(|i| -> Arc<dyn ShardBackend> {
                Arc::new(InProcessShard::new(format!("shard-{i}"), start()))
            })
            .collect();
        (backends, None)
    };
    Ok((Router::start(backends, cfg), fleet))
}

/// `ibcf serve`: run the dynamic-batching factorization service over
/// TCP behind one router — over one in-process service by default,
/// `--shards N` of them, or `--procs N` shard processes — with
/// health-checked failover and typed backpressure.
pub fn serve(args: &Args) -> i32 {
    use ibcf_service::{
        EngineSelector, RouterConfig, Service, ServiceConfig, TcpServer, SHARD_READY_PREFIX,
    };
    let host = match args.get("host", "127.0.0.1".to_string()) {
        Ok(h) => h,
        Err(e) => return fail(e),
    };
    let parsed = (
        args.get("port", 7117u16),
        args.get("workers", 1usize),
        args.get("queue-cap", 8192usize),
        args.get("max-batch", 1024usize),
        args.get("max-delay-us", 1000u64),
        args.get("max-n", 64usize),
        args.get("shards", 1usize),
        args.get("retry-after-us", 1000u32),
    );
    let (port, workers, queue_cap, max_batch, max_delay_us, max_n, shards, retry_after_us) =
        match parsed {
            (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e), Ok(f), Ok(g), Ok(h)) => (a, b, c, d, e, f, g, h),
            (Err(e), ..)
            | (_, Err(e), ..)
            | (_, _, Err(e), ..)
            | (_, _, _, Err(e), ..)
            | (_, _, _, _, Err(e), ..)
            | (_, _, _, _, _, Err(e), ..)
            | (_, _, _, _, _, _, Err(e), _)
            | (.., Err(e)) => return fail(e),
        };
    if workers == 0 || max_batch == 0 || queue_cap == 0 || max_n == 0 || shards == 0 {
        return fail("--workers, --max-batch, --queue-cap, --max-n and --shards must be positive");
    }
    let (procs, hedge_after_us) =
        match (args.get("procs", 0usize), args.get("hedge-after-us", 0u64)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return fail(e),
        };
    if procs > 0 && shards > 1 {
        return fail("--procs (child processes) and --shards (in-process) are mutually exclusive");
    }
    let shard_child = args.flag("shard-child");
    if shard_child && (procs > 0 || shards > 1) {
        return fail("--shard-child runs exactly one shard");
    }
    let selector = match args.options.get("dispatch") {
        None => EngineSelector::heuristic(),
        Some(path) => match EngineSelector::load(Path::new(path)) {
            Ok(s) => s,
            Err(e) => return fail(format!("loading dispatch table {path}: {e}")),
        },
    };
    // The analytic middle tier: sizes the table cannot answer are
    // resolved by the model for the named GPU (at the paper's batch)
    // before falling back to the heuristic.
    let selector = match args.options.get("analytic") {
        None => selector,
        Some(name) => match GpuSpec::by_name(name) {
            Some(spec) => selector.with_analytic(spec, 16_384),
            None => return fail(format!("unknown gpu {name} for --analytic")),
        },
    };
    let config = ServiceConfig {
        workers,
        queue_cap,
        max_batch,
        max_delay: std::time::Duration::from_micros(max_delay_us),
        max_n,
        ..ServiceConfig::default()
    };
    // A shard child binds an ephemeral port: its parent learns the
    // address from the stdout handshake, never from configuration.
    let bind_port = if shard_child { 0 } else { port };
    let server = match TcpServer::bind(&format!("{host}:{bind_port}")) {
        Ok(s) => s,
        Err(e) => return fail(format!("binding {host}:{bind_port}: {e}")),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let engine = match (selector.is_tuned(), selector.has_analytic()) {
        (true, true) => "tuned+analytic",
        (true, false) => "tuned",
        (false, true) => "analytic",
        (false, false) => "heuristic",
    };
    let simd = detect_isa().name();
    use std::io::Write as _;
    let hedge_after =
        (hedge_after_us > 0).then(|| std::time::Duration::from_micros(hedge_after_us));
    // A shard child serves one shard with this server's settings; it
    // hands out the retry-after hint itself when its queue fills.
    let mut child_args: Vec<String> = vec![
        "--workers".into(),
        workers.to_string(),
        "--queue-cap".into(),
        queue_cap.to_string(),
        "--max-batch".into(),
        max_batch.to_string(),
        "--max-delay-us".into(),
        max_delay_us.to_string(),
        "--max-n".into(),
        max_n.to_string(),
        "--retry-after-us".into(),
        retry_after_us.to_string(),
    ];
    for opt in ["dispatch", "analytic"] {
        if let Some(v) = args.options.get(opt) {
            child_args.extend([format!("--{opt}"), v.clone()]);
        }
    }
    let cfg = RouterConfig {
        retry_after_us,
        hedge_after,
        ..RouterConfig::default()
    };
    let start = || Service::start(config.clone(), selector.clone());
    let (router, fleet) = match start_fleet(procs, shards, &child_args, start, cfg) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    if shard_child {
        println!("{SHARD_READY_PREFIX}{addr}");
    } else {
        let topology = match &fleet {
            Some(_) => format!("{procs} shard process(es)"),
            None => format!("{shards} in-process shard(s)"),
        };
        println!(
            "serving on {addr} ({engine} engine, simd {simd}, \
             {topology} x {workers} worker(s), \
             retry-after {retry_after_us} us, batch <= {max_batch}, \
             deadline {max_delay_us} us, queue {queue_cap}/shard, n <= {max_n})"
        );
        if let Some(f) = &fleet {
            println!("fleet pids: {:?}", f.child_pids());
        }
    }
    std::io::stdout().flush().ok();
    let run = server.run(router.client());
    // The health loop stops first, then each child drains gracefully and
    // is reaped — serve --procs never leaves orphan processes behind.
    let snap = router.shutdown();
    if let Some(f) = &fleet {
        println!(
            "fleet: {} respawn(s); all shard processes reaped",
            f.respawns()
        );
    }
    if let Err(e) = run {
        return fail(format!("server loop: {e}"));
    }
    let (p50, p95, p99) = snap.percentiles_us();
    println!(
        "served {} requests in {} batches ({} matrices, {} rejected, {} failed)",
        snap.requests, snap.batches, snap.matrices, snap.rejected, snap.replies_failed
    );
    println!(
        "mean batch occupancy {:.1}%, latency p50/p95/p99 = {p50:.0}/{p95:.0}/{p99:.0} us",
        100.0 * snap.mean_occupancy
    );
    if let Some(shard_stats) = &snap.shards {
        for sh in shard_stats {
            let (sp50, _, sp99) = sh.snapshot.percentiles_us();
            let breaker = sh.breaker.as_ref().map_or(String::new(), |b| {
                format!(", breaker {} ({} trips)", b.state, b.trips)
            });
            println!(
                "  shard {} [{}]: {} routed, {} served, p50/p99 = {sp50:.0}/{sp99:.0} us{breaker}",
                sh.name,
                if sh.healthy { "up" } else { "down" },
                sh.routed,
                sh.snapshot.requests,
            );
        }
    }
    if let Some(fs) = &snap.fleet {
        println!(
            "fleet counters: {} hedges ({} duplicates suppressed), \
             {} in-flight losses resubmitted, breakers: {} trips, {} half-opens, {} closes",
            fs.hedges,
            fs.hedge_wasted,
            fs.shard_lost_resubmits,
            fs.breaker_trips,
            fs.breaker_half_opens,
            fs.breaker_closes
        );
    }
    0
}

/// `ibcf loadgen`: drive a running `ibcf serve` and report throughput,
/// latency percentiles, and batch occupancy.
pub fn loadgen(args: &Args) -> i32 {
    use ibcf_service::{ArrivalMode, Dtype, LoadgenConfig, RetryPolicy, TcpConn};
    let sizes = match args
        .options
        .get("sizes")
        .map_or(Ok(vec![16]), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if sizes.is_empty() || sizes.contains(&0) {
        return fail("--sizes entries must be positive");
    }
    let parsed = (
        args.get("addr", "127.0.0.1:7117".to_string()),
        args.get("requests", 100_000u64),
        args.get("conns", 4usize),
        args.get("window", 256usize),
        args.get("plant-bad", 0u64),
        args.get("seed", 1u64),
        args.get("dtype", Dtype::F32),
        args.get("deadline-us", 0u64),
        args.get("read-timeout-ms", 60_000u64),
    );
    let (addr, requests, conns, window, plant_bad, seed, dtype, deadline_us, read_timeout_ms) =
        match parsed {
            (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e), Ok(f), Ok(g), Ok(h), Ok(i)) => {
                (a, b, c, d, e, f, g, h, i)
            }
            (Err(e), ..)
            | (_, Err(e), ..)
            | (_, _, Err(e), ..)
            | (_, _, _, Err(e), ..)
            | (_, _, _, _, Err(e), ..)
            | (_, _, _, _, _, Err(e), ..)
            | (_, _, _, _, _, _, Err(e), ..)
            | (_, _, _, _, _, _, _, Err(e), _)
            | (.., Err(e)) => return fail(e),
        };
    if requests == 0 || conns == 0 {
        return fail("--requests and --conns must be positive");
    }
    if plant_bad > requests {
        return fail("--plant-bad cannot exceed --requests");
    }
    let mode = match args.get("rate", 0.0f64) {
        Ok(rate) if rate > 0.0 => ArrivalMode::Open { rate },
        Ok(_) => ArrivalMode::Closed { window },
        Err(e) => return fail(e),
    };
    let (large_every, large_n) = match (args.get("large-every", 0u64), args.get("large-n", 96usize))
    {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    if large_every > 0 && large_n == 0 {
        return fail("--large-n must be positive");
    }
    let cfg = LoadgenConfig {
        addr,
        sizes,
        dtype,
        requests,
        conns,
        mode,
        plant_bad,
        seed,
        deadline: (deadline_us > 0).then(|| std::time::Duration::from_micros(deadline_us)),
        retry: if args.flag("retry") {
            RetryPolicy::standard(seed)
        } else {
            RetryPolicy::disabled()
        },
        read_timeout: std::time::Duration::from_millis(read_timeout_ms.max(1)),
        large_every,
        large_n,
    };
    println!(
        "loadgen: {} requests ({} planted non-SPD), sizes {:?} {}, {} conn(s), {:?}",
        cfg.requests, cfg.plant_bad, cfg.sizes, cfg.dtype, cfg.conns, cfg.mode
    );
    let report = match ibcf_service::loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(format!("loadgen against {}: {e}", cfg.addr)),
    };
    println!("{}", report.render());
    if args.flag("shutdown") {
        match TcpConn::connect(&cfg.addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("server shutdown acknowledged"),
            Err(e) => return fail(format!("shutting down server: {e}")),
        }
    }
    if report.clean() {
        0
    } else {
        eprintln!(
            "error: {} replies contradicted expectations",
            report.mismatched
        );
        1
    }
}

/// `ibcf chaos`: run the load generator against an in-process service
/// under a seeded fault plan and check the exactly-one-reply invariant.
///
/// The whole run is reproducible from `--plan` + `--seed`: the plan
/// derives every fault firing (worker panics, stalls, connection drops,
/// frame corruption) from per-site logical clocks, not wall time.
pub fn chaos(args: &Args) -> i32 {
    use ibcf_service::{
        ArrivalMode, Dtype, EngineSelector, FaultHook, FaultPlan, LoadgenConfig, RetryPolicy,
        RouterConfig, Service, ServiceConfig, TcpConn, TcpServer,
    };
    use std::time::{Duration, Instant};
    let sizes = match args
        .options
        .get("sizes")
        .map_or(Ok(vec![8, 16]), |s| parse_sizes(s))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if sizes.is_empty() || sizes.contains(&0) {
        return fail("--sizes entries must be positive");
    }
    let parsed = (
        args.get("plan", "mixed".to_string()),
        args.get("seed", 1u64),
        args.get("requests", 2000u64),
        args.get("conns", 4usize),
        args.get("window", 64usize),
        args.get("plant-bad", 0u64),
        args.get("workers", 2usize),
        args.get("max-batch", 32usize),
        args.get("deadline-us", 0u64),
        args.get("shards", 1usize),
    );
    #[allow(clippy::type_complexity)]
    let (
        plan_name,
        seed,
        requests,
        conns,
        window,
        plant_bad,
        workers,
        max_batch,
        deadline_us,
        shards,
    ) = match parsed {
        (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e), Ok(f), Ok(g), Ok(h), Ok(i), Ok(j)) => {
            (a, b, c, d, e, f, g, h, i, j)
        }
        (Err(e), ..)
        | (_, Err(e), ..)
        | (_, _, Err(e), ..)
        | (_, _, _, Err(e), ..)
        | (_, _, _, _, Err(e), ..)
        | (_, _, _, _, _, Err(e), ..)
        | (_, _, _, _, _, _, Err(e), ..)
        | (_, _, _, _, _, _, _, Err(e), ..)
        | (_, _, _, _, _, _, _, _, Err(e), _)
        | (.., Err(e)) => return fail(e),
    };
    if requests == 0 || conns == 0 || workers == 0 || max_batch == 0 || shards == 0 {
        return fail("--requests, --conns, --workers, --max-batch and --shards must be positive");
    }
    if plant_bad > requests {
        return fail("--plant-bad cannot exceed --requests");
    }
    let (large_every, large_n) = match (args.get("large-every", 0u64), args.get("large-n", 96usize))
    {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    if large_every > 0 && large_n == 0 {
        return fail("--large-n must be positive");
    }
    let (procs, hedge_after_us) =
        match (args.get("procs", 0usize), args.get("hedge-after-us", 0u64)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return fail(e),
        };
    if procs > 0 && shards > 1 {
        return fail("--procs (child processes) and --shards (in-process) are mutually exclusive");
    }
    if procs == 1 {
        return fail("--procs needs at least 2 shard processes (the last one is kill-immune)");
    }
    let plan = match FaultPlan::named(&plan_name, seed) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let hook = FaultHook::from_plan(plan);
    let service_config = ServiceConfig {
        workers,
        max_batch,
        max_delay: Duration::from_micros(500),
        fault: hook.clone(),
        ..ServiceConfig::default()
    };
    // The children run *without* fault injection: the proc-kill plan
    // fires router-side (real SIGKILL), so every observed failure is
    // genuine process death, not an in-process fault.
    let child_args: Vec<String> = vec![
        "--workers".into(),
        workers.to_string(),
        "--max-batch".into(),
        max_batch.to_string(),
        "--max-delay-us".into(),
        "500".into(),
    ];
    let cfg = RouterConfig {
        health_interval: Duration::from_millis(2),
        fault: hook.clone(),
        hedge_after: (hedge_after_us > 0).then(|| Duration::from_micros(hedge_after_us)),
        ..RouterConfig::default()
    };
    // One router over one service, an in-process fleet the plan can
    // kill whole shards of, or a process fleet the plan can SIGKILL
    // children of.
    let start = || Service::start(service_config.clone(), EngineSelector::heuristic());
    let (router, proc_fleet) = match start_fleet(procs, shards, &child_args, start, cfg) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let server = match TcpServer::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => return fail(format!("binding chaos server: {e}")),
    };
    let addr = match server.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return fail(e),
    };
    let client = router.client();
    let server_thread = {
        let (client, hook) = (client.clone(), hook.clone());
        std::thread::spawn(move || server.run_with_faults(client, hook))
    };
    let (total, what) = match &proc_fleet {
        Some(_) => (procs, "shard processes"),
        None => (shards, "shards"),
    };
    println!(
        "chaos: plan {plan_name} seed {seed}, {requests} requests \
         ({plant_bad} planted non-SPD), sizes {sizes:?}, {conns} conn(s), \
         {total} {what}, {workers} worker(s)/shard, batch <= {max_batch}"
    );
    if hedge_after_us > 0 {
        println!("       hedging stragglers after {hedge_after_us} us");
    }
    if large_every > 0 {
        println!("       every {large_every}th request is large (n = {large_n}, task-graph path)");
    }
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        sizes,
        dtype: Dtype::F32,
        requests,
        conns,
        mode: ArrivalMode::Closed { window },
        plant_bad,
        seed,
        deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
        // Chaos clients always retry: the plan may kill their
        // connections, and lost-vs-duplicate accounting is the point.
        retry: RetryPolicy::standard(seed),
        read_timeout: Duration::from_secs(5),
        large_every,
        large_n,
    };
    let report = match ibcf_service::loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(format!("chaos loadgen against {addr}: {e}")),
    };
    // For a process fleet, gate on full recovery *before* tearing the
    // front server down — draining the server stops shard admission for
    // good, after which probes legitimately fail forever. Deadline-based
    // polling, no fixed sleeps: every budgeted SIGKILL fired, every
    // killed child respawned, every shard alive and probing healthy.
    let recovered = proc_fleet.as_ref().map(|fleet| {
        let expected_kills: u64 = if plan_name == "proc-kill" { 2 } else { 0 };
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let kills_done = router.kills() >= expected_kills;
            let respawned = fleet.respawns() >= router.kills();
            let alive = fleet.all_children_alive();
            let healthy = client
                .stats()
                .shards
                .is_some_and(|s| !s.is_empty() && s.iter().all(|sh| sh.healthy));
            if kills_done && respawned && alive && healthy {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    // The live healthy picture, captured before the drain flattens it.
    let survivors = client
        .stats()
        .shards
        .map_or(0, |s| s.iter().filter(|sh| sh.healthy).count());
    // Stop the server. The shutdown connection itself can be a fault
    // victim, so keep asking until the run loop actually exits.
    let stop_start = Instant::now();
    while !server_thread.is_finished() && stop_start.elapsed() < Duration::from_secs(30) {
        TcpConn::connect(&addr)
            .and_then(|mut c| c.shutdown_server())
            .ok();
        std::thread::sleep(Duration::from_millis(50));
    }
    if !server_thread.is_finished() {
        return fail("chaos server did not drain within 30 s");
    }
    let run = server_thread.join().expect("chaos server thread");
    // A plan kills either whole shards or shard processes, both from the
    // router's health loop.
    let kills = router.kills();
    let respawns = proc_fleet.as_ref().map_or(0, |f| f.respawns());
    let failovers = router.failovers();
    let backpressured = router.backpressured();
    let snap = router.shutdown();
    if let Err(e) = run {
        return fail(format!("chaos server loop: {e}"));
    }
    println!("{}", report.render());
    println!(
        "faults injected: {} ({} worker crashes, {} restarts, {} deadline-expired)",
        hook.injected(),
        snap.worker_crashes,
        snap.worker_restarts,
        snap.deadline_expired
    );
    println!(
        "fleet: {total} {what}, {kills} killed by the plan, {survivors} healthy at end, \
         {failovers} failovers, {backpressured} backpressure rejects"
    );
    if let Some(recovered) = recovered {
        println!(
            "processes: {kills} SIGKILLed, {respawns} respawned, fleet {}",
            if recovered {
                "fully recovered (all children alive and serving)"
            } else {
                "NOT recovered"
            }
        );
    }
    if let Some(fs) = &snap.fleet {
        println!(
            "breakers: {} trips, {} half-opens, {} closes; \
             {} in-flight losses resubmitted, {} hedges ({} duplicates suppressed)",
            fs.breaker_trips,
            fs.breaker_half_opens,
            fs.breaker_closes,
            fs.shard_lost_resubmits,
            fs.hedges,
            fs.hedge_wasted
        );
    }
    let mut failures: Vec<String> = Vec::new();
    if !report.clean() {
        failures.push(format!(
            "{} lost, {} duplicates, {} mismatched",
            report.lost, report.duplicates, report.mismatched
        ));
    }
    if plan_name == "worker-panic" && snap.worker_crashes < 3 {
        failures.push(format!(
            "worker-panic plan produced only {} crashes (need >= 3 to prove supervision)",
            snap.worker_crashes
        ));
    }
    if snap.worker_restarts != snap.worker_crashes {
        failures.push(format!(
            "{} crashes but {} restarts",
            snap.worker_crashes, snap.worker_restarts
        ));
    }
    if plan_name == "shard-kill" && kills == 0 {
        // With one shard this always fires: the last healthy shard is
        // kill-immune, so the plan has nothing to kill.
        failures.push("shard-kill plan never killed a shard".into());
    }
    if survivors == 0 {
        failures.push("no shard survived the run (the last one must be immune)".into());
    }
    if plan_name == "proc-kill" && recovered.is_none() {
        failures.push("proc-kill plan needs --procs > 1 to have processes to kill".into());
    }
    if let Some(recovered) = recovered {
        if plan_name == "proc-kill" && kills < 2 {
            failures.push(format!(
                "proc-kill plan SIGKILLed only {kills} processes (budget is 2)"
            ));
        }
        if respawns < kills {
            failures.push(format!(
                "{kills} processes killed but only {respawns} respawned"
            ));
        }
        if !recovered {
            failures.push("fleet did not recover (children dead or unhealthy at end)".into());
        }
    }
    if failures.is_empty() {
        println!(
            "exactly-one-reply invariant holds: {} sent, 0 lost, 0 duplicates",
            report.sent
        );
        0
    } else {
        for f in &failures {
            eprintln!("error: {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn config_parsing_round_trips() {
        let a = args("simulate --n 24 --nb 2 --looking left --chunk 128 --full --fast");
        let c = config_of(&a).unwrap();
        assert_eq!(c.n, 24);
        assert_eq!(c.nb, 2);
        assert_eq!(c.looking, Looking::Left);
        assert_eq!(c.chunk_size, 128);
        assert_eq!(c.unroll, Unroll::Full);
        assert!(c.fast_math && c.chunked);
        let a = args("simulate --n 8 --simple");
        assert!(!config_of(&a).unwrap().chunked);
    }

    #[test]
    fn config_requires_n() {
        let a = args("simulate --nb 4");
        assert!(config_of(&a).is_err());
    }

    #[test]
    fn gpu_selection() {
        assert_eq!(
            gpu_of(&args("x --gpu v100")).unwrap().name,
            GpuSpec::v100().name
        );
        assert!(gpu_of(&args("x --gpu k80")).is_err());
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_sizes("8,16, 24").unwrap(), vec![8, 16, 24]);
        assert!(parse_sizes("8,x").is_err());
    }

    #[test]
    fn verify_command_succeeds() {
        let a = args("verify --n 6 --batch 64");
        assert_eq!(verify(&a), 0);
    }

    #[test]
    fn host_bench_command_succeeds() {
        let a = args("host-bench --sizes 6 --batch 128 --reps 1 --f32");
        assert_eq!(host_bench(&a), 0);
    }

    #[test]
    fn host_bench_rejects_bad_sizes() {
        assert_eq!(host_bench(&args("host-bench --sizes 6,x")), 2);
        assert_eq!(host_bench(&args("host-bench --sizes 0 --reps 1")), 2);
    }

    #[test]
    fn simulate_command_succeeds() {
        let a = args("simulate --n 12 --batch 2048");
        assert_eq!(simulate(&a), 0);
    }

    #[test]
    fn emit_command_prints() {
        let a = args("emit --n 6 --full");
        assert_eq!(emit(&a), 0);
    }
}
