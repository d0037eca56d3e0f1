//! Criterion benches for the tile microkernels: fully-inlined
//! const-generic bodies vs runtime-size loops — the Rust analogue of the
//! paper's "inner loops of tile operations are always unrolled" choice —
//! and the task-graph DAG's GEMM/SYRK/TRSM leaves on the served tile
//! edge (nb = 32), once per ISA this machine (and `IBCF_SIMD`) allows.

use criterion::{criterion_group, criterion_main, Criterion};
use ibcf_core::tile::{
    gemm_tile, gemm_tile_unrolled, potrf_tile, potrf_tile_unrolled, syrk_tile, syrk_tile_unrolled,
    trsm_tile, trsm_tile_unrolled, TileLeaves,
};
use ibcf_core::{Real, SimdIsa};
use std::hint::black_box;

fn spd_tile(nb: usize) -> Vec<f32> {
    let mut a = vec![0.0f32; nb * nb];
    for c in 0..nb {
        for r in 0..nb {
            a[r + c * nb] = 1.0 / (1.0 + (r as f32 - c as f32).abs());
        }
    }
    for i in 0..nb {
        a[i + i * nb] += nb as f32;
    }
    a
}

fn seq(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i as f32) * 0.37 - 1.0).collect()
}

fn bench_potrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("potrf_tile");
    g.sample_size(40);
    for nb in [4usize, 8] {
        let base = spd_tile(nb);
        g.bench_function(format!("runtime_nb{nb}"), |b| {
            b.iter(|| {
                let mut t = base.clone();
                potrf_tile(black_box(nb), &mut t, nb).unwrap();
                black_box(t[0])
            })
        });
    }
    let base4 = spd_tile(4);
    g.bench_function("unrolled_nb4", |b| {
        b.iter(|| {
            let mut t = base4.clone();
            potrf_tile_unrolled::<f32, 4>(&mut t).unwrap();
            black_box(t[0])
        })
    });
    let base8 = spd_tile(8);
    g.bench_function("unrolled_nb8", |b| {
        b.iter(|| {
            let mut t = base8.clone();
            potrf_tile_unrolled::<f32, 8>(&mut t).unwrap();
            black_box(t[0])
        })
    });
    g.finish();
}

fn bench_gemm_syrk_trsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_tiles");
    g.sample_size(40);
    const NB: usize = 8;
    let a = seq(NB * NB);
    let bm = seq(NB * NB);
    let mut l = spd_tile(NB);
    potrf_tile(NB, &mut l, NB).unwrap();

    g.bench_function("gemm_runtime_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            gemm_tile(NB, NB, NB, &a, NB, &bm, NB, &mut cbuf, NB);
            black_box(cbuf[0])
        })
    });
    g.bench_function("gemm_unrolled_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            gemm_tile_unrolled::<f32, NB>(&a, &bm, &mut cbuf);
            black_box(cbuf[0])
        })
    });
    g.bench_function("syrk_runtime_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            syrk_tile(NB, NB, &a, NB, &mut cbuf, NB);
            black_box(cbuf[0])
        })
    });
    g.bench_function("syrk_unrolled_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            syrk_tile_unrolled::<f32, NB>(&a, &mut cbuf);
            black_box(cbuf[0])
        })
    });
    g.bench_function("trsm_runtime_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            trsm_tile(NB, NB, &l, NB, &mut cbuf, NB);
            black_box(cbuf[0])
        })
    });
    g.bench_function("trsm_unrolled_nb8", |b| {
        b.iter(|| {
            let mut cbuf = seq(NB * NB);
            trsm_tile_unrolled::<f32, NB>(&l, &mut cbuf);
            black_box(cbuf[0])
        })
    });
    g.finish();
}

/// The DAG's leaves on one `NB × NB` tile per operation, in element type
/// `T`: register-blocked on AVX2/AVX-512, `colvec` on the fallback.
fn bench_leaves_of<T: Real>(g: &mut criterion::BenchmarkGroup<'_>, dtype: &str) {
    const NB: usize = 32;
    let tile = |seed: usize| -> Vec<T> {
        (0..NB * NB)
            .map(|i| T::from_f64(((i * 7 + seed) % 17) as f64 * 0.03 - 0.25))
            .collect()
    };
    let (a, bm, c0) = (tile(1), tile(2), tile(3));
    let mut l: Vec<T> = spd_tile(NB)
        .into_iter()
        .map(|x| T::from_f64(x as f64))
        .collect();
    potrf_tile(NB, &mut l, NB).unwrap();
    let mut isas: Vec<TileLeaves> = [SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Fallback]
        .into_iter()
        .map(TileLeaves::new)
        .collect();
    isas.dedup();
    for leaves in isas {
        let isa = leaves.isa().name();
        g.bench_function(format!("gemm_{isa}_{dtype}_nb{NB}"), |b| {
            b.iter(|| {
                let mut cbuf = c0.clone();
                leaves.gemm(NB, NB, NB, &a, NB, &bm, NB, &mut cbuf, NB);
                black_box(cbuf[0])
            })
        });
        g.bench_function(format!("syrk_{isa}_{dtype}_nb{NB}"), |b| {
            b.iter(|| {
                let mut cbuf = c0.clone();
                leaves.syrk(NB, NB, &a, NB, &mut cbuf, NB);
                black_box(cbuf[0])
            })
        });
        g.bench_function(format!("trsm_{isa}_{dtype}_nb{NB}"), |b| {
            b.iter(|| {
                let mut cbuf = c0.clone();
                leaves.trsm(NB, NB, &l, NB, &mut cbuf, NB);
                black_box(cbuf[0])
            })
        });
    }
}

fn bench_dag_leaves(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag_leaves");
    g.sample_size(40);
    bench_leaves_of::<f32>(&mut g, "f32");
    bench_leaves_of::<f64>(&mut g, "f64");
    g.finish();
}

criterion_group!(benches, bench_potrf, bench_gemm_syrk_trsm, bench_dag_leaves);
criterion_main!(benches);
