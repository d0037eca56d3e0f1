//! Integration: the full autotuning + analysis pipeline — sweep, persist,
//! reload, query, model, and rank.

use ibcf::prelude::*;
use ibcf_bench_shim::*;

/// Re-exports used below; keeps the test readable.
mod ibcf_bench_shim {
    pub use ibcf::autotune::{run_sizes, SelectorKind, SilentProgress};
    pub use ibcf::forest::r2;
}

#[test]
fn sweep_persist_reload_analyze() {
    let spec = GpuSpec::p100();
    let space = ParamSpace::quick();
    let ds = sweep_sizes(
        &space,
        &[8, 16, 32],
        &spec,
        &SweepOptions {
            batch: 4096,
            progress_every: 0,
            ..Default::default()
        },
    );
    assert_eq!(ds.measurements.len(), 3 * space.len_per_n());

    // Persist and reload.
    let dir = std::env::temp_dir().join("ibcf_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.jsonl");
    ds.save_jsonl(&path).unwrap();
    let ds2 = Dataset::load_jsonl(&path).unwrap();
    assert_eq!(ds2.measurements.len(), ds.measurements.len());
    assert_eq!(ds2.batch, 4096);

    // Query coherence: overall best dominates every slice.
    let table = BestTable::new(&ds2);
    for n in [8usize, 16, 32] {
        let best = table.best(n).unwrap().gflops;
        for looking in Looking::ALL {
            assert!(table.best_by_looking(n, looking).unwrap().gflops <= best);
        }
        for chunked in [false, true] {
            assert!(table.best_by_chunking(n, chunked).unwrap().gflops <= best);
        }
    }

    // Model the dataset: the forest must explain most of the variance.
    // The Table-I feature set excludes the arithmetic mode, so (like the
    // paper's analysis) restrict to the IEEE rows.
    let ieee: Vec<_> = ds2
        .measurements
        .iter()
        .filter(|m| !m.config.fast_math)
        .collect();
    let rows: Vec<Vec<f64>> = ieee.iter().map(|m| m.features()).collect();
    let targets: Vec<f64> = ieee.iter().map(|m| m.gflops).collect();
    let names = Measurement::feature_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let data = TableData::new(names, rows, targets);
    let forest = Forest::fit(
        &data,
        ForestConfig {
            num_trees: 50,
            ..Default::default()
        },
    );
    let preds: Vec<f64> = data.rows.iter().map(|r| forest.predict(r)).collect();
    let score = r2(&preds, &data.targets);
    assert!(score > 0.85, "in-sample R² {score}");

    // Importance: the constant-by-construction cache feature cannot beat
    // the real knobs.
    let imp = permutation_importance(&forest, &data, 3);
    let get = |name: &str| imp.inc_mse[imp.names.iter().position(|x| x == name).unwrap()];
    assert!(get("nb") > get("cache"), "{:?}", imp.ranking());
    assert!(get("chunking") > get("cache"), "{:?}", imp.ranking());

    std::fs::remove_file(&path).ok();
}

use ibcf::autotune::Measurement;

#[test]
fn guided_search_is_consistent_with_exhaustive() {
    let spec = GpuSpec::p100();
    let space = ParamSpace::quick();
    let n = 16;
    let batch = 4096;
    let opts = SweepOptions {
        batch,
        progress_every: 0,
        ..Default::default()
    };
    let ds = sweep_sizes(&space, &[n], &spec, &opts);
    // The model-guided selector searches the same space the grid covers.
    let best = BestTable::new(&ds).best(n).unwrap().gflops;
    let report = run_sizes(
        SelectorKind::Analytic,
        &space,
        &[n],
        &spec,
        &opts,
        &SilentProgress,
    );
    let guided = &report.outcomes[0];
    assert!(
        guided.evaluated < space.len_per_n(),
        "guided search measured the whole grid"
    );
    assert!(
        guided.best.gflops <= best * 1.0000001,
        "guided exceeded exhaustive grid"
    );
    assert!(guided.best.gflops >= 0.85 * best, "guided too far off");
}
