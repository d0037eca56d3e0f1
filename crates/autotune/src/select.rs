//! The pluggable selector layer: one search driver, many strategies.
//!
//! Every way this repo chooses a kernel configuration — the exhaustive
//! sweep, the analytic prior ([`crate::analytic`]), the
//! zero-measurement heuristic — is a [`Selector`]: a candidate proposal
//! plus a stopping policy. One driver ([`run_search`]) owns the
//! measurement loop, the shared [`TraceCache`], deduplication, and the
//! CRC-framed sweep log, so `resume`, `merge`, and `verify-log` work the
//! same no matter which strategy produced the log.
//!
//! The headline strategy is [`AnalyticSelector`]: measure the analytic
//! model's candidates best-first and stop, Hutter–Solomonik style, once
//! the incumbent's measured time excludes the optimistic bounds of every
//! remaining candidate — the bound being the candidate's modeled time
//! scaled by the most optimistic model-trust ratio observed so far. On
//! the paper space this measures a few percent of the grid and recovers
//! a winner within a few percent of the exhaustive one.

use crate::analytic;
use crate::dispatch::{DispatchTable, TableProvenance};
use crate::heuristics::heuristic_config;
use crate::log::{grid_configs, ShardSpec, SweepLog, SweepLogHeader, SweepLogWriter};
use crate::log::{LOG_FORMAT, LOG_VERSION};
use crate::record::{Dataset, Measurement};
use crate::runner::{
    measure_opts, sweep_sizes_logged, sweep_sizes_with, ProgressSink, SweepOptions,
};
use crate::space::ParamSpace;
use ibcf_gpu_sim::{CacheStats, GpuSpec, TraceCache};
use ibcf_kernels::{KernelConfig, PlanKey};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;
use std::time::Instant;

/// The fixed context of one search: where (space, size) and on what
/// (batch, GPU) configurations are being selected.
#[derive(Debug, Clone, Copy)]
pub struct SelectCtx<'a> {
    /// The parameter space candidates must come from.
    pub space: &'a ParamSpace,
    /// Matrix dimension being tuned.
    pub n: usize,
    /// Batch size of every measurement.
    pub batch: usize,
    /// Target GPU.
    pub spec: &'a GpuSpec,
}

/// A proposed configuration, optionally carrying the proposing model's
/// score (modeled time in seconds; lower is better).
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The configuration to measure.
    pub config: KernelConfig,
    /// The proposer's modeled time, when it has one.
    pub score: Option<f64>,
}

impl Candidate {
    /// A candidate without a model score.
    pub fn plain(config: KernelConfig) -> Self {
        Candidate {
            config,
            score: None,
        }
    }
}

/// One completed evaluation: the candidate and its measurement.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// What was proposed (including the model score, if any).
    pub candidate: Candidate,
    /// What the simulator measured.
    pub m: Measurement,
}

/// A search strategy: proposes candidates and decides when to stop.
///
/// The driver measures candidates in proposal order, deduplicating
/// configurations; adaptive strategies return more via
/// [`Selector::refine`] after seeing the history.
pub trait Selector {
    /// Short strategy name, recorded in dispatch-table provenance.
    fn name(&self) -> &'static str;

    /// The initial candidate list, best-first when the strategy can rank.
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate>;

    /// Proposes more candidates after the queue drains (adaptive
    /// strategies). Returning an empty list ends the search.
    fn refine(&mut self, _ctx: &SelectCtx<'_>, _history: &[Evaluation]) -> Vec<Candidate> {
        Vec::new()
    }

    /// Stopping policy, consulted before each measurement: `true` ends
    /// the search with `remaining` unmeasured.
    fn should_stop(
        &mut self,
        _ctx: &SelectCtx<'_>,
        _history: &[Evaluation],
        _remaining: &[Candidate],
    ) -> bool {
        false
    }

    /// The strategy's bound on relative regret vs the space's true best,
    /// when it can compute one (set by the early-stopping rule).
    fn regret_bound(&self) -> Option<f64> {
        None
    }

    /// `true` if this strategy measures the entire space — the driver may
    /// then use the parallel exhaustive sweep path.
    fn exhaustive(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// The paper's strategy: measure everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSelector;

impl Selector for ExhaustiveSelector {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        ctx.space
            .configs(ctx.n)
            .into_iter()
            .map(Candidate::plain)
            .collect()
    }
    fn exhaustive(&self) -> bool {
        true
    }
}

/// Model-guided search with confidence-interval early stopping.
///
/// Candidates are the analytic ranking, measured best-modeled-first. The
/// incumbent's measured time `t*` is compared against the optimistic
/// bound of the best remaining candidate: its modeled time `s` scaled by
/// the most optimistic measured-over-modeled ratio `r_lo` seen so far,
/// shrunk by `3σ` for measurement noise and by the configurable `guard`.
/// Once `t* ≤ guard · r_lo · s · (1 − 3σ)` no remaining candidate can
/// plausibly win, and the search stops. A hard cap (`max_frac` of the
/// grid) bounds the evaluation count even when the model is poorly
/// calibrated.
#[derive(Debug, Clone)]
pub struct AnalyticSelector {
    /// Minimum measurements before the stopping rule may fire.
    pub min_evals: usize,
    /// Hard cap as a fraction of the per-size grid.
    pub max_frac: f64,
    /// Multiplier on the optimistic bound (< 1 keeps measuring longer).
    pub guard: f64,
    /// The sweep's measurement-noise sigma (widens the stopping margin).
    pub noise_sigma: f64,
    bound: Option<f64>,
}

impl AnalyticSelector {
    /// The default policy under the given measurement noise.
    pub fn new(noise_sigma: f64) -> Self {
        AnalyticSelector {
            min_evals: 24,
            max_frac: 0.10,
            guard: 1.0,
            noise_sigma,
            bound: None,
        }
    }

    fn cap(&self, grid: usize) -> usize {
        ((grid as f64 * self.max_frac).floor() as usize).max(self.min_evals)
    }
}

impl Selector for AnalyticSelector {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        analytic::rank_candidates(ctx.space, ctx.n, ctx.batch, ctx.spec)
            .into_iter()
            .map(|s| Candidate {
                config: s.config,
                score: Some(s.time_s),
            })
            .collect()
    }

    fn should_stop(
        &mut self,
        ctx: &SelectCtx<'_>,
        history: &[Evaluation],
        remaining: &[Candidate],
    ) -> bool {
        if history.len() < self.min_evals || remaining.is_empty() {
            return false;
        }
        let t_best = history
            .iter()
            .map(|e| e.m.time_s)
            .fold(f64::INFINITY, f64::min);
        let r_lo = history
            .iter()
            .filter_map(|e| e.candidate.score.map(|s| e.m.time_s / s))
            .fold(f64::INFINITY, f64::min);
        let s_next = remaining
            .iter()
            .filter_map(|c| c.score)
            .fold(f64::INFINITY, f64::min);
        if !r_lo.is_finite() || !s_next.is_finite() {
            return false;
        }
        let shrink = (1.0 - 3.0 * self.noise_sigma).clamp(0.1, 1.0);
        let optimistic = self.guard * r_lo * s_next * shrink;
        let cap_hit = history.len() >= self.cap(ctx.space.len_per_n());
        if t_best <= optimistic || cap_hit {
            self.bound = Some((t_best / optimistic - 1.0).max(0.0));
            return true;
        }
        false
    }

    fn regret_bound(&self) -> Option<f64> {
        self.bound
    }
}

/// The §11 zero-measurement heuristic as a (single-candidate) selector —
/// the tail of the serving fallback chain, expressed in the same terms
/// as every other strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicSelector;

impl Selector for HeuristicSelector {
    fn name(&self) -> &'static str {
        "heuristic"
    }
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<Candidate> {
        vec![Candidate::plain(heuristic_config(ctx.n))]
    }
}

/// The strategies the CLI can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Measure the whole space (the paper's methodology).
    Exhaustive,
    /// Analytic ranking + confidence-interval early stopping.
    Analytic,
    /// The zero-measurement §11 heuristic.
    Heuristic,
}

impl SelectorKind {
    /// Parses a CLI selector name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "exhaustive" | "sweep" => Some(SelectorKind::Exhaustive),
            "analytic" | "model" => Some(SelectorKind::Analytic),
            "heuristic" => Some(SelectorKind::Heuristic),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Exhaustive => "exhaustive",
            SelectorKind::Analytic => "analytic",
            SelectorKind::Heuristic => "heuristic",
        }
    }

    /// Builds a fresh selector for one size under the sweep options.
    pub fn build(&self, opts: &SweepOptions) -> Box<dyn Selector> {
        match self {
            SelectorKind::Exhaustive => Box::new(ExhaustiveSelector),
            SelectorKind::Analytic => Box::new(AnalyticSelector::new(opts.noise_sigma)),
            SelectorKind::Heuristic => Box::new(HeuristicSelector),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The outcome of one size's search.
#[derive(Debug, Clone)]
pub struct SizeOutcome {
    /// Matrix dimension searched.
    pub n: usize,
    /// Best measurement found.
    pub best: Measurement,
    /// Evaluations consumed (fresh + resumed from a log).
    pub evaluated: usize,
    /// Evaluations measured (and logged) this run.
    pub measured_fresh: usize,
    /// The full per-size grid this search could have measured.
    pub grid_total: usize,
    /// `true` if the stopping policy fired with candidates remaining.
    pub stopped_early: bool,
    /// The strategy's regret bound at stop time, when it computes one.
    pub regret_bound: Option<f64>,
    /// Every evaluation, in measurement order.
    pub history: Vec<Evaluation>,
}

/// A multi-size search result: the selector-layer counterpart of
/// [`crate::SweepReport`].
#[derive(Debug, Clone)]
pub struct SelectionReport {
    /// Strategy that produced this report.
    pub selector: String,
    /// GPU name measured on.
    pub gpu: String,
    /// Batch size of every measurement.
    pub batch: usize,
    /// Per-size outcomes, in the order searched.
    pub outcomes: Vec<SizeOutcome>,
    /// Shared plan-cache counters.
    pub cache: CacheStats,
    /// Wall-clock seconds for the whole search.
    pub wall_s: f64,
    /// Measurements recovered from an existing log (logged runs only).
    pub resumed: usize,
    /// `Some(reason)` if a torn final log line was dropped on recovery.
    pub dropped_tail: Option<String>,
}

impl SelectionReport {
    /// Total evaluations across sizes.
    pub fn evaluated(&self) -> usize {
        self.outcomes.iter().map(|o| o.evaluated).sum()
    }

    /// Total grid size across sizes (what exhaustive would measure).
    pub fn grid_total(&self) -> usize {
        self.outcomes.iter().map(|o| o.grid_total).sum()
    }

    /// Evaluations per wall-clock second (0 when empty or untimed — never
    /// NaN or infinite).
    pub fn configs_per_sec(&self) -> f64 {
        let n = self.evaluated();
        if n == 0 || !self.wall_s.is_finite() || self.wall_s <= 0.0 {
            0.0
        } else {
            n as f64 / self.wall_s
        }
    }

    /// Every evaluation flattened into a [`Dataset`], ordered by size
    /// then canonical grid index (out-of-space configurations last).
    pub fn dataset(&self, space: &ParamSpace) -> Dataset {
        let mut measurements = Vec::new();
        for o in &self.outcomes {
            let mut ms: Vec<&Evaluation> = o.history.iter().collect();
            ms.sort_by_key(|e| space.index_of(&e.m.config).unwrap_or(usize::MAX));
            measurements.extend(ms.into_iter().map(|e| e.m.clone()));
        }
        Dataset {
            gpu: self.gpu.clone(),
            batch: self.batch,
            measurements,
        }
    }

    /// The winners as a [`DispatchTable`], stamped with this search's
    /// provenance.
    pub fn dispatch_table(&self) -> DispatchTable {
        let mut table = BTreeMap::new();
        for o in &self.outcomes {
            table.insert(o.n, o.best.config);
        }
        let regret_bound = self
            .outcomes
            .iter()
            .filter_map(|o| o.regret_bound)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a| a.max(b)))
            });
        DispatchTable {
            table,
            provenance: Some(TableProvenance {
                selector: self.selector.clone(),
                gpu: self.gpu.clone(),
                batch: self.batch,
                configs_evaluated: self.evaluated(),
                grid_total: self.grid_total(),
                regret_bound,
            }),
        }
    }
}

fn cfg_key(c: &KernelConfig) -> String {
    format!("{c}")
}

/// The sequential measurement loop shared by every strategy: dedup,
/// measure (or reuse a resumed measurement), log, consult the stopping
/// policy, refine.
fn drive(
    selector: &mut dyn Selector,
    ctx: &SelectCtx<'_>,
    opts: &SweepOptions,
    cache: &TraceCache<PlanKey>,
    mut log: Option<&mut SweepLogWriter>,
    seq_base: usize,
    resumed: &BTreeMap<usize, Measurement>,
) -> std::io::Result<SizeOutcome> {
    let mut queue: VecDeque<Candidate> = VecDeque::new();
    let mut queued: HashSet<String> = HashSet::new();
    let mut history: Vec<Evaluation> = Vec::new();
    let mut measured_fresh = 0usize;
    let mut stopped_early = false;

    for cand in selector.candidates(ctx) {
        if queued.insert(cfg_key(&cand.config)) {
            queue.push_back(cand);
        }
    }
    loop {
        if queue.is_empty() {
            let more = selector.refine(ctx, &history);
            let mut grew = false;
            for cand in more {
                if queued.insert(cfg_key(&cand.config)) {
                    queue.push_back(cand);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
            continue;
        }
        if selector.should_stop(ctx, &history, queue.make_contiguous()) {
            stopped_early = true;
            break;
        }
        let cand = queue.pop_front().expect("non-empty queue");
        let idx = ctx.space.index_of(&cand.config);
        let m = match idx.and_then(|i| resumed.get(&(seq_base + i))) {
            Some(m) => m.clone(),
            None => {
                let m = measure_opts(&cand.config, ctx.spec, opts, cache);
                measured_fresh += 1;
                if let (Some(w), Some(i)) = (log.as_deref_mut(), idx) {
                    w.append(seq_base + i, &m)?;
                }
                m
            }
        };
        history.push(Evaluation { candidate: cand, m });
    }
    let best = history
        .iter()
        .min_by(|a, b| a.m.time_s.total_cmp(&b.m.time_s))
        .map(|e| e.m.clone())
        .expect("selector proposed no candidates");
    Ok(SizeOutcome {
        n: ctx.n,
        best,
        evaluated: history.len(),
        measured_fresh,
        grid_total: ctx.space.len_per_n(),
        stopped_early,
        regret_bound: selector.regret_bound(),
        history,
    })
}

/// Runs one strategy at one size through the shared driver (no log).
pub fn run_search(
    selector: &mut dyn Selector,
    space: &ParamSpace,
    n: usize,
    spec: &GpuSpec,
    opts: &SweepOptions,
    cache: &TraceCache<PlanKey>,
) -> SizeOutcome {
    let ctx = SelectCtx {
        space,
        n,
        batch: opts.batch,
        spec,
    };
    drive(selector, &ctx, opts, cache, None, 0, &BTreeMap::new())
        .expect("un-logged search cannot fail on IO")
}

fn outcomes_from_dataset(ds: &Dataset, space: &ParamSpace) -> Vec<SizeOutcome> {
    ds.sizes()
        .into_iter()
        .map(|n| {
            let history: Vec<Evaluation> = ds
                .at_n(n)
                .map(|m| Evaluation {
                    candidate: Candidate::plain(m.config),
                    m: m.clone(),
                })
                .collect();
            let best = history
                .iter()
                .min_by(|a, b| a.m.time_s.total_cmp(&b.m.time_s))
                .map(|e| e.m.clone())
                .expect("dataset size with no measurements");
            SizeOutcome {
                n,
                best,
                evaluated: history.len(),
                measured_fresh: history.len(),
                grid_total: space.len_per_n(),
                stopped_early: false,
                regret_bound: Some(0.0),
                history,
            }
        })
        .collect()
}

/// Runs `kind` across `sizes`, sharing one plan cache. The exhaustive
/// strategy takes the parallel sweep fast path; everything else runs the
/// sequential driver per size.
pub fn run_sizes(
    kind: SelectorKind,
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
) -> SelectionReport {
    if kind == SelectorKind::Exhaustive {
        let report = sweep_sizes_with(space, sizes, spec, opts, sink);
        return SelectionReport {
            selector: kind.name().into(),
            gpu: spec.name.clone(),
            batch: opts.batch,
            outcomes: outcomes_from_dataset(&report.dataset, space),
            cache: report.cache,
            wall_s: report.wall_s,
            resumed: 0,
            dropped_tail: None,
        };
    }
    let cache: TraceCache<PlanKey> = TraceCache::default();
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(sizes.len());
    for (i, &n) in sizes.iter().enumerate() {
        let mut selector = kind.build(opts);
        outcomes.push(run_search(selector.as_mut(), space, n, spec, opts, &cache));
        if opts.progress_every > 0 {
            sink.on_progress(i + 1, sizes.len());
        }
    }
    SelectionReport {
        selector: kind.name().into(),
        gpu: spec.name.clone(),
        batch: opts.batch,
        outcomes,
        cache: cache.stats(),
        wall_s: start.elapsed().as_secs_f64(),
        resumed: 0,
        dropped_tail: None,
    }
}

/// [`run_sizes`] made crash-safe on the same CRC-framed log format as the
/// exhaustive sweep: measurements append with their canonical grid `seq`,
/// an existing compatible log resumes (already-measured configurations
/// are reused, not re-measured), and the resulting file is readable by
/// `resume`, `merge`, and `verify-log` regardless of strategy.
///
/// Non-exhaustive strategies only accept [`ShardSpec::whole`] — a guided
/// search owns its whole (small) measurement set. The exhaustive strategy
/// delegates to the parallel [`sweep_sizes_logged`] path, shard included.
#[allow(clippy::too_many_arguments)]
pub fn run_sizes_logged(
    kind: SelectorKind,
    space: &ParamSpace,
    sizes: &[usize],
    spec: &GpuSpec,
    opts: &SweepOptions,
    sink: &dyn ProgressSink,
    log_path: &Path,
    shard: ShardSpec,
) -> std::io::Result<SelectionReport> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if kind == SelectorKind::Exhaustive {
        let logged = sweep_sizes_logged(space, sizes, spec, opts, sink, log_path, shard)?;
        return Ok(SelectionReport {
            selector: kind.name().into(),
            gpu: spec.name.clone(),
            batch: opts.batch,
            outcomes: outcomes_from_dataset(&logged.report.dataset, space),
            cache: logged.report.cache,
            wall_s: logged.report.wall_s,
            resumed: logged.resumed,
            dropped_tail: logged.dropped_tail,
        });
    }
    if shard != ShardSpec::whole() {
        return Err(invalid(format!(
            "selector {} does not shard; use --selector exhaustive for sharded sweeps",
            kind.name()
        )));
    }
    let grid = grid_configs(space, sizes);
    let header = SweepLogHeader {
        format: LOG_FORMAT.into(),
        version: LOG_VERSION,
        gpu: spec.name.clone(),
        batch: opts.batch,
        sizes: sizes.to_vec(),
        space: space.clone(),
        noise_sigma: opts.noise_sigma,
        noise_seed: opts.noise_seed,
        shard,
        total: grid.len(),
    };
    let mut resumed_map: BTreeMap<usize, Measurement> = BTreeMap::new();
    let mut dropped_tail = None;
    let mut writer = if log_path.exists() {
        let log = SweepLog::read(log_path, true)?;
        header.compatible_with(&log.header).map_err(|e| {
            invalid(format!(
                "{}: log belongs to a different sweep: {e}",
                log_path.display()
            ))
        })?;
        if log.header.shard != ShardSpec::whole() {
            return Err(invalid(format!(
                "{}: log covers shard {}, guided search owns the whole grid",
                log_path.display(),
                log.header.shard
            )));
        }
        dropped_tail = log.dropped_tail.clone();
        if dropped_tail.is_some() {
            let f = std::fs::OpenOptions::new().write(true).open(log_path)?;
            f.set_len(log.valid_len)?;
            f.sync_data()?;
        }
        for e in log.entries {
            resumed_map.insert(e.seq, e.m);
        }
        SweepLogWriter::open_append(log_path, opts.log_fsync)?
    } else {
        SweepLogWriter::create(log_path, &header, opts.log_fsync)?
    };
    let cache: TraceCache<PlanKey> = TraceCache::default();
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(sizes.len());
    let mut resumed_used = 0usize;
    for (i, &n) in sizes.iter().enumerate() {
        let seq_base = i * space.len_per_n();
        let mut selector = kind.build(opts);
        let ctx = SelectCtx {
            space,
            n,
            batch: opts.batch,
            spec,
        };
        let outcome = drive(
            selector.as_mut(),
            &ctx,
            opts,
            &cache,
            Some(&mut writer),
            seq_base,
            &resumed_map,
        )?;
        resumed_used += outcome.evaluated - outcome.measured_fresh;
        outcomes.push(outcome);
        if opts.progress_every > 0 {
            sink.on_progress(i + 1, sizes.len());
        }
    }
    Ok(SelectionReport {
        selector: kind.name().into(),
        gpu: spec.name.clone(),
        batch: opts.batch,
        outcomes,
        cache: cache.stats(),
        wall_s: start.elapsed().as_secs_f64(),
        resumed: resumed_used,
        dropped_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best::BestTable;
    use crate::runner::{sweep, SilentProgress};

    fn p100_opts(batch: usize) -> SweepOptions {
        SweepOptions {
            batch,
            ..Default::default()
        }
    }

    #[test]
    fn exhaustive_selector_measures_the_whole_grid() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(1024);
        let cache = TraceCache::default();
        let mut sel = ExhaustiveSelector;
        let out = run_search(&mut sel, &space, 12, &spec, &opts, &cache);
        assert_eq!(out.evaluated, space.len_per_n());
        assert!(!out.stopped_early);
        // Tie-breaking may differ from BestTable (with full unroll many
        // configurations time identically), but the winning time must not.
        let ds = sweep(&space, 12, &spec, &opts);
        let best = BestTable::new(&ds).best(12).unwrap();
        assert_eq!(out.best.time_s, best.time_s);
        assert_eq!(out.best.gflops, best.gflops);
    }

    #[test]
    fn analytic_selector_stops_early_and_stays_close() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let opts = p100_opts(4096);
        let cache = TraceCache::default();
        for n in [8usize, 16, 32] {
            let mut sel = AnalyticSelector::new(0.0);
            let out = run_search(&mut sel, &space, n, &spec, &opts, &cache);
            assert!(
                out.evaluated <= space.len_per_n() / 4,
                "n={n}: evaluated {} of {}",
                out.evaluated,
                space.len_per_n()
            );
            let ds = sweep(&space, n, &spec, &opts);
            let best = BestTable::new(&ds).best(n).unwrap();
            assert!(
                out.best.time_s <= 1.05 * best.time_s,
                "n={n}: picked {} vs best {}",
                out.best.time_s,
                best.time_s
            );
        }
    }

    #[test]
    fn heuristic_selector_is_single_shot() {
        let space = ParamSpace::paper();
        let spec = GpuSpec::p100();
        let opts = p100_opts(1024);
        let cache = TraceCache::default();
        let mut sel = HeuristicSelector;
        let out = run_search(&mut sel, &space, 24, &spec, &opts, &cache);
        assert_eq!(out.evaluated, 1);
        assert_eq!(out.best.config, heuristic_config(24));
    }

    #[test]
    fn selector_kind_parses() {
        assert_eq!(
            SelectorKind::parse("analytic"),
            Some(SelectorKind::Analytic)
        );
        assert_eq!(
            SelectorKind::parse("EXHAUSTIVE"),
            Some(SelectorKind::Exhaustive)
        );
        assert_eq!(
            SelectorKind::parse("heuristic"),
            Some(SelectorKind::Heuristic)
        );
        assert_eq!(SelectorKind::parse("bogus"), None);
    }

    #[test]
    fn run_sizes_produces_a_provenance_stamped_table() {
        let space = ParamSpace::quick();
        let spec = GpuSpec::p100();
        let report = run_sizes(
            SelectorKind::Analytic,
            &space,
            &[8, 16],
            &spec,
            &p100_opts(2048),
            &SilentProgress,
        );
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.evaluated() < report.grid_total());
        let table = report.dispatch_table();
        let prov = table.provenance.as_ref().unwrap();
        assert_eq!(prov.selector, "analytic");
        assert_eq!(prov.configs_evaluated, report.evaluated());
        assert!(table.config_for(8).is_some());
        // The flattened dataset carries every evaluation.
        let ds = report.dataset(&space);
        assert_eq!(ds.measurements.len(), report.evaluated());
    }

    #[test]
    fn configs_per_sec_is_guarded() {
        let report = SelectionReport {
            selector: "analytic".into(),
            gpu: "test".into(),
            batch: 0,
            outcomes: Vec::new(),
            cache: CacheStats::default(),
            wall_s: 0.0,
            resumed: 0,
            dropped_tail: None,
        };
        assert_eq!(report.configs_per_sec(), 0.0);
        let report = SelectionReport {
            wall_s: f64::NAN,
            ..report
        };
        assert_eq!(report.configs_per_sec(), 0.0);
    }
}
