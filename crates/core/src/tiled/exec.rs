//! Sequential and work-stealing executors for the tiled-Cholesky DAG.
//!
//! Both run the same leaves on the same [`TileStore`]:
//!
//! * `Potrf` — [`potrf_tile`] (stride-1 column ops already);
//! * `Trsm` — [`trsm_tile_colvec`];
//! * `Update` — [`syrk_tile_colvec`] / [`gemm_tile_colvec`].
//!
//! Because every `(i, j)` tile receives its updates in ascending `k`
//! (the serialization chain in [`graph`](super::graph)) and each leaf
//! applies identical per-element operation sequences, **any** execution —
//! sequential in any Looking order, or parallel — produces bitwise
//! identical factors; moreover the per-element sequence equals
//! [`potrf_unblocked`](crate::reference::potrf_unblocked)'s, so the tiled
//! factor is bitwise equal to the unblocked oracle as well (property
//! tested in `tests/proptest_tiled.rs`).
//!
//! The parallel executor is dependency-counted: a `Mutex`-guarded binary
//! heap of ready tasks (prioritized by the task's rank in the chosen
//! Looking order, so workers chase the critical path in the order the
//! paper's figures prescribe), per-task atomic-free in-degrees drained
//! under the same lock, and a `Condvar` parking idle workers. Worker
//! loops are hosted on the rayon pool (`into_par_iter().for_each`), which
//! the vendored shim maps to one scoped thread per worker; leaves write
//! disjoint tiles through a [`SyncSlice`]. Explicit-SIMD (`lane_simd`)
//! leaves are deliberately *not* dispatched here: its `LaneOps` vectorize
//! one element across 8–32 *matrices* with per-lane operands, while a
//! tile leaf needs scalar-broadcast column AXPYs — the stride-1 `colvec`
//! loops already autovectorize to exactly those.
//!
//! On a non-SPD or non-finite pivot the scheduler is poisoned: in-flight
//! tasks finish, waiting workers wake and exit, and the error reports the
//! failing **global** column `k·nb + col_in_tile`. Diagonal
//! factorizations are totally ordered (see `graph`), so the reported
//! column is deterministic even under parallel execution.

use super::graph::{Task, TaskGraph};
use super::store::TileStore;
use crate::blocked::Looking;
use crate::error::CholeskyError;
use crate::scalar::Real;
use crate::sync_slice::SyncSlice;
use crate::tile::{gemm_tile_colvec, potrf_tile, syrk_tile_colvec, trsm_tile_colvec};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Geometry the leaves need, copied out of the store so the tile buffer
/// can be wrapped in a [`SyncSlice`] independently.
#[derive(Clone, Copy)]
struct Geom {
    n: usize,
    nb: usize,
    tile_stride: usize,
}

impl Geom {
    #[inline]
    fn dim(&self, b: usize) -> usize {
        self.nb.min(self.n - b * self.nb)
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        (i * (i + 1) / 2 + j) * self.tile_stride
    }
}

/// Classifies a failed pivot the way the oracle does: non-finite wins
/// over non-positive, and the column is global.
fn pivot_error<T: Real>(pivot: T, nb: usize, k: usize, col_in_tile: usize) -> CholeskyError {
    let column = k * nb + col_in_tile;
    if !pivot.is_finite() {
        CholeskyError::NonFinite { column }
    } else {
        CholeskyError::NotPositiveDefinite { column }
    }
}

/// Runs one task's leaf on the shared tile buffer.
///
/// # Safety
/// The caller must guarantee DAG discipline: no concurrently-running task
/// touches any tile this task reads or writes. The graph provides exactly
/// that — a tile is written by one task at a time and only read after its
/// final writer completed.
unsafe fn run_task<T: Real>(
    task: Task,
    tiles: &SyncSlice<T>,
    g: Geom,
) -> Result<(), CholeskyError> {
    match task {
        Task::Potrf { k } => {
            let d = g.dim(k);
            // SAFETY: sole accessor of tile (k, k) per the DAG contract.
            let a = unsafe { tiles.block_mut(g.offset(k, k), g.tile_stride) };
            if let Err(c) = potrf_tile(d, a, g.nb) {
                return Err(pivot_error(a[c + c * g.nb], g.nb, k, c));
            }
            Ok(())
        }
        Task::Trsm { i, k } => {
            let (di, dk) = (g.dim(i), g.dim(k));
            // SAFETY: (k, k) is final (Potrf(k) done); (i, k) is
            // exclusively ours.
            let l = unsafe { tiles.block(g.offset(k, k), g.tile_stride) };
            let b = unsafe { tiles.block_mut(g.offset(i, k), g.tile_stride) };
            trsm_tile_colvec(di, dk, l, g.nb, b, g.nb);
            Ok(())
        }
        Task::Update { i, j, k } => {
            let (di, dj, dk) = (g.dim(i), g.dim(j), g.dim(k));
            // SAFETY: (i, k) and (j, k) are final (their Trsm tasks are
            // predecessors); (i, j) is exclusively ours.
            let a = unsafe { tiles.block(g.offset(i, k), g.tile_stride) };
            let c = unsafe { tiles.block_mut(g.offset(i, j), g.tile_stride) };
            if i == j {
                syrk_tile_colvec(dj, dk, a, g.nb, c, g.nb);
            } else {
                let b = unsafe { tiles.block(g.offset(j, k), g.tile_stride) };
                gemm_tile_colvec(di, dj, dk, a, g.nb, b, g.nb, c, g.nb);
            }
            Ok(())
        }
    }
}

/// Executes the DAG sequentially in the exact task order of the given
/// Looking variant — the bitwise reference replay.
pub fn factor_store_seq<T: Real>(
    store: &mut TileStore<T>,
    graph: &TaskGraph,
    looking: Looking,
) -> Result<(), CholeskyError> {
    let g = Geom {
        n: store.n(),
        nb: store.nb(),
        tile_stride: store.tile_len(),
    };
    let order = graph.sequential_order(looking);
    let tiles = SyncSlice::new(store.data_mut());
    for id in order {
        // SAFETY: single-threaded — no concurrent access at all.
        unsafe { run_task(graph.task(id), &tiles, g)? };
    }
    Ok(())
}

/// Scheduler state shared by the worker loops.
struct Sched {
    /// Min-heap of `(rank-in-looking-order, task id)`.
    ready: BinaryHeap<Reverse<(u32, u32)>>,
    indeg: Vec<u32>,
    /// Tasks not yet completed (or abandoned to poisoning).
    remaining: usize,
    error: Option<CholeskyError>,
}

/// Executes the DAG with `threads` cooperating workers, firing tasks as
/// their in-degrees drain. Results are bitwise identical to
/// [`factor_store_seq`] for every Looking order and thread count.
pub fn factor_store_par<T: Real>(
    store: &mut TileStore<T>,
    graph: &TaskGraph,
    looking: Looking,
    threads: usize,
) -> Result<(), CholeskyError> {
    let threads = threads.max(1);
    let g = Geom {
        n: store.n(),
        nb: store.nb(),
        tile_stride: store.tile_len(),
    };
    let order = graph.sequential_order(looking);
    let mut rank = vec![0u32; graph.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    let indeg = graph.in_degrees();
    let mut ready = BinaryHeap::new();
    for (id, &d) in indeg.iter().enumerate() {
        if d == 0 {
            ready.push(Reverse((rank[id], id as u32)));
        }
    }
    let sched = Mutex::new(Sched {
        ready,
        indeg,
        remaining: graph.len(),
        error: None,
    });
    let idle = Condvar::new();
    let tiles = SyncSlice::new(store.data_mut());

    (0..threads).into_par_iter().for_each(|_| {
        loop {
            let id = {
                let mut s = sched.lock().unwrap();
                loop {
                    if s.error.is_some() || s.remaining == 0 {
                        return;
                    }
                    if let Some(Reverse((_, id))) = s.ready.pop() {
                        break id;
                    }
                    // Acyclicity guarantees some task is in flight; wait
                    // for its completion to refill the ready heap.
                    s = idle.wait(s).unwrap();
                }
            };
            // SAFETY: the DAG hands each tile to one task at a time and
            // orders readers after final writers (see `run_task`).
            let result = unsafe { run_task(graph.task(id), &tiles, g) };
            let mut s = sched.lock().unwrap();
            s.remaining -= 1;
            match result {
                Err(e) => {
                    s.error = Some(e);
                    idle.notify_all();
                    return;
                }
                Ok(()) => {
                    let mut woke = 0;
                    for &succ in graph.successors(id) {
                        let d = &mut s.indeg[succ as usize];
                        *d -= 1;
                        if *d == 0 {
                            s.ready.push(Reverse((rank[succ as usize], succ)));
                            woke += 1;
                        }
                    }
                    if s.remaining == 0 {
                        idle.notify_all();
                    } else {
                        for _ in 0..woke {
                            idle.notify_one();
                        }
                    }
                }
            }
        }
    });

    match sched.into_inner().unwrap().error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Worker count for [`potrf_tiled`]: the machine's available parallelism,
/// capped — the DAG's width rarely feeds more productively on one host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(16)
}

/// Task-graph blocked Cholesky of a column-major `n × n` matrix (leading
/// dimension `lda`), parallel over [`default_threads`] workers.
///
/// Packs the lower triangle into a [`TileStore`], executes the DAG, and
/// scatters the factor back; the strictly-upper triangle is left
/// untouched, exactly like `potrf_unblocked` — to which the result is
/// bitwise identical.
///
/// # Errors
/// [`CholeskyError`] with the failing global column, non-finite pivots
/// classified before non-positive ones (oracle order).
pub fn potrf_tiled<T: Real>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    looking: Looking,
) -> Result<(), CholeskyError> {
    potrf_tiled_threads(n, a, lda, nb, looking, default_threads())
}

/// [`potrf_tiled`] with an explicit worker count.
pub fn potrf_tiled_threads<T: Real>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    looking: Looking,
    threads: usize,
) -> Result<(), CholeskyError> {
    let mut store = TileStore::pack(n, nb, a, lda);
    let graph = TaskGraph::build(store.num_tile_rows());
    factor_store_par(&mut store, &graph, looking, threads)?;
    store.unpack_into(a, lda);
    Ok(())
}

/// Sequential DAG replay of [`potrf_tiled`] — same pack/unpack, tasks run
/// one at a time in the Looking order's topological sort. The bitwise
/// reference for the parallel path.
pub fn potrf_tiled_seq<T: Real>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    looking: Looking,
) -> Result<(), CholeskyError> {
    let mut store = TileStore::pack(n, nb, a, lda);
    let graph = TaskGraph::build(store.num_tile_rows());
    factor_store_seq(&mut store, &graph, looking)?;
    store.unpack_into(a, lda);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::potrf_unblocked;
    use crate::spd::{random_spd, SpdKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits<T: Real>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    #[test]
    fn tiled_matches_oracle_bitwise_f64() {
        let mut rng = StdRng::seed_from_u64(21);
        for (n, nb) in [(8usize, 4usize), (24, 8), (33, 8), (40, 16)] {
            let a0 = random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec();
            let mut oracle = a0.clone();
            potrf_unblocked(n, &mut oracle, n).unwrap();
            for looking in Looking::ALL {
                let mut seq = a0.clone();
                potrf_tiled_seq(n, &mut seq, n, nb, looking).unwrap();
                assert_eq!(bits(&seq), bits(&oracle), "seq n={n} nb={nb} {looking}");
                let mut par = a0.clone();
                potrf_tiled_threads(n, &mut par, n, nb, looking, 4).unwrap();
                assert_eq!(bits(&par), bits(&oracle), "par n={n} nb={nb} {looking}");
            }
        }
    }

    #[test]
    fn tiled_matches_oracle_bitwise_f32() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 37;
        let a0 = random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec();
        let mut oracle = a0.clone();
        potrf_unblocked(n, &mut oracle, n).unwrap();
        for looking in Looking::ALL {
            let mut par = a0.clone();
            potrf_tiled_threads(n, &mut par, n, 8, looking, 3).unwrap();
            assert_eq!(bits(&par), bits(&oracle), "{looking}");
        }
    }

    #[test]
    fn upper_triangle_untouched() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 12;
        let mut a = random_spd::<f64>(n, SpdKind::DiagDominant, &mut rng).into_vec();
        for c in 1..n {
            for r in 0..c {
                a[r + c * n] = 777.0 + (r * n + c) as f64;
            }
        }
        potrf_tiled(n, &mut a, n, 5, Looking::Right).unwrap();
        for c in 1..n {
            for r in 0..c {
                assert_eq!(a[r + c * n], 777.0 + (r * n + c) as f64);
            }
        }
    }

    #[test]
    fn reports_global_failing_column_and_kind() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 20;
        let nb = 8;
        let base = random_spd::<f64>(n, SpdKind::DiagDominant, &mut rng);
        // Plant a non-SPD pivot in the second diagonal tile.
        let mut bad = base.clone();
        bad[(13, 13)] = -5.0e6;
        for looking in Looking::ALL {
            let mut a = bad.clone().into_vec();
            let err = potrf_tiled_threads(n, &mut a, n, nb, looking, 4).unwrap_err();
            assert_eq!(
                err,
                CholeskyError::NotPositiveDefinite { column: 13 },
                "{looking}"
            );
        }
        // A NaN pivot classifies as NonFinite (oracle precedence).
        let mut nan = base.into_vec();
        nan[13 + 13 * n] = f64::NAN;
        let err = potrf_tiled(n, &mut nan, n, nb, Looking::Left).unwrap_err();
        assert_eq!(err, CholeskyError::NonFinite { column: 13 });
    }

    #[test]
    fn single_thread_parallel_path_works() {
        let mut rng = StdRng::seed_from_u64(25);
        let n = 16;
        let a0 = random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec();
        let mut one = a0.clone();
        potrf_tiled_threads(n, &mut one, n, 4, Looking::Top, 1).unwrap();
        let mut many = a0;
        potrf_tiled_threads(n, &mut many, n, 4, Looking::Top, 8).unwrap();
        assert_eq!(bits(&one), bits(&many));
    }

    #[test]
    fn nb_larger_than_n_is_one_potrf_task() {
        let mut rng = StdRng::seed_from_u64(26);
        let n = 5;
        let a0 = random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec();
        let mut oracle = a0.clone();
        potrf_unblocked(n, &mut oracle, n).unwrap();
        let mut tiled = a0;
        potrf_tiled(n, &mut tiled, n, 32, Looking::Right).unwrap();
        assert_eq!(bits(&tiled), bits(&oracle));
    }
}
