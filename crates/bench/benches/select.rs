//! Selector-strategy bench: configs evaluated and tuning wall-time vs
//! regret, per strategy. The exhaustive sweep is the reference (zero
//! regret by construction); the analytic selector trades a bounded
//! regret for measuring a small fraction of the grid. The
//! summary printed at the end is the table EXPERIMENTS.md quotes.

use criterion::{criterion_group, criterion_main, Criterion};
use ibcf_autotune::{run_sizes, BestTable, ParamSpace, SelectorKind, SilentProgress, SweepOptions};
use ibcf_gpu_sim::GpuSpec;

const SIZES: &[usize] = &[8, 16, 24, 32];
const BATCH: usize = 4096;

fn opts() -> SweepOptions {
    SweepOptions {
        batch: BATCH,
        progress_every: 0,
        ..Default::default()
    }
}

fn run(kind: SelectorKind) -> (usize, f64) {
    let report = run_sizes(
        kind,
        &ParamSpace::quick(),
        SIZES,
        &GpuSpec::p100(),
        &opts(),
        &SilentProgress,
    );
    (report.evaluated(), report.wall_s)
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select");
    group.sample_size(10);
    for kind in [SelectorKind::Exhaustive, SelectorKind::Analytic] {
        group.bench_function(kind.name(), |b| b.iter(|| run(kind)));
    }
    group.finish();

    // Headline table: evaluations, wall time, and true regret per
    // strategy against the exhaustive winner.
    let space = ParamSpace::quick();
    let spec = GpuSpec::p100();
    let exhaustive = run_sizes(
        SelectorKind::Exhaustive,
        &space,
        SIZES,
        &spec,
        &opts(),
        &SilentProgress,
    );
    let exhaustive_ds = exhaustive.dataset(&space);
    let truth = BestTable::new(&exhaustive_ds);
    println!("selector     configs      wall_s   worst_regret");
    for kind in [SelectorKind::Exhaustive, SelectorKind::Analytic] {
        let report = run_sizes(kind, &space, SIZES, &spec, &opts(), &SilentProgress);
        let worst = report
            .outcomes
            .iter()
            .map(|o| {
                let best = truth.best(o.n).expect("exhaustive covers every size");
                o.best.time_s / best.time_s - 1.0
            })
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>4}/{:<6} {:>8.3}s {:>12.2}%",
            kind.name(),
            report.evaluated(),
            report.grid_total(),
            report.wall_s,
            worst * 100.0
        );
    }
}

criterion_group!(benches, bench_select);
criterion_main!(benches);
