//! The POTRF/TRSM/SYRK/GEMM dependency DAG of a tiled Cholesky
//! factorization.
//!
//! For `nt` tile rows the task set is the same for every
//! [`Looking`] order:
//!
//! * `Potrf(k)` — factor diagonal tile `(k, k)`, for `k < nt`;
//! * `Trsm(i, k)` — solve panel tile `(i, k)` against `(k, k)`, `i > k`;
//! * `Update(i, j, k)` — apply `A[i][j] −= A[i][k]·A[j][k]ᵀ` for
//!   `k < j ≤ i` (SYRK when `i == j`, GEMM otherwise).
//!
//! Edges:
//!
//! * `Potrf(k)` waits on `Update(k, k, k−1)` (the chain below makes that
//!   transitively *all* updates to the diagonal tile);
//! * `Trsm(i, k)` waits on `Potrf(k)` and `Update(i, k, k−1)`;
//! * `Update(i, j, k)` waits on `Trsm(i, k)`, `Trsm(j, k)`, **and
//!   `Update(i, j, k−1)`** — the per-tile serialization chain.
//!
//! The chain is the determinism linchpin: each `(i, j)` tile receives its
//! rank-`nb` subtractions in ascending `k` no matter which topological
//! order the executor realizes, so *every* execution of this DAG —
//! sequential in any Looking order, or parallel under work stealing — is
//! bitwise identical (see [`exec`](super::exec)). The Looking orders of
//! the paper's Figures 3–5 survive as [`TaskGraph::sequential_order`]:
//! three different topological sorts of one DAG, used as the sequential
//! reference replays and as the parallel executor's priority ranks.
//!
//! Critical path: `Potrf(k) → Trsm(k+1, k) → Update(k+1, k+1, k) →
//! Potrf(k+1)` links consecutive diagonal factorizations, so the DAG depth
//! is `3·(nt−1) + 1` tasks while the task count is Θ(nt³/6) — the
//! parallelism the executor can exploit grows quadratically with `nt`.
//! A corollary of the chain `Potrf(k+1) ← Update ← Trsm ← Potrf(k)`:
//! diagonal factorizations are *totally ordered*, so at most one `Potrf`
//! is ever in flight and a non-SPD failure reports a deterministic global
//! column even under parallel execution.

use crate::blocked::Looking;

/// One node of the tiled-Cholesky DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Factor diagonal tile `(k, k)`.
    Potrf {
        /// Diagonal tile index.
        k: usize,
    },
    /// Solve panel tile `(i, k)` against factored `(k, k)`.
    Trsm {
        /// Tile row (`i > k`).
        i: usize,
        /// Panel column.
        k: usize,
    },
    /// `A[i][j] −= A[i][k]·A[j][k]ᵀ` (SYRK when `i == j`).
    Update {
        /// Tile row.
        i: usize,
        /// Tile column (`k < j ≤ i`).
        j: usize,
        /// Source panel column.
        k: usize,
    },
}

/// Dependency-counted task graph for an `nt × nt` tile grid.
pub struct TaskGraph {
    nt: usize,
    tasks: Vec<Task>,
    /// `id → ids unblocked when it completes`.
    succs: Vec<Vec<u32>>,
    /// `id → number of predecessors`.
    indeg: Vec<u32>,
    /// `update_base[i][j]` = id of `Update(i, j, 0)` (tasks for higher `k`
    /// follow consecutively). Empty inner entries for `j == 0`.
    update_base: Vec<Vec<u32>>,
    trsm_base: u32,
}

impl TaskGraph {
    /// Builds the DAG for `nt` tile rows.
    ///
    /// # Panics
    /// If `nt == 0`.
    pub fn build(nt: usize) -> Self {
        assert!(nt > 0, "need at least one tile");
        let n_potrf = nt;
        let n_trsm = nt * (nt - 1) / 2;
        let trsm_base = n_potrf as u32;
        // Update(i, j, k) for k < j ≤ i: j tasks per (i, j) pair.
        let mut update_base = vec![Vec::new(); nt];
        let mut next = trsm_base + n_trsm as u32;
        for (i, row) in update_base.iter_mut().enumerate() {
            row.reserve(i + 1);
            for j in 0..=i {
                row.push(next);
                next += j as u32;
            }
        }
        let total = next as usize;

        let mut tasks = vec![Task::Potrf { k: 0 }; total];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut indeg = vec![0u32; total];
        let mut graph = TaskGraph {
            nt,
            tasks: Vec::new(),
            succs: Vec::new(),
            indeg: Vec::new(),
            update_base,
            trsm_base,
        };

        let edge = |succs: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>, from: u32, to: u32| {
            succs[from as usize].push(to);
            indeg[to as usize] += 1;
        };

        for k in 0..nt {
            let p = graph.potrf_id(k);
            tasks[p as usize] = Task::Potrf { k };
            if k > 0 {
                edge(&mut succs, &mut indeg, graph.update_id(k, k, k - 1), p);
            }
        }
        for i in 0..nt {
            for k in 0..i {
                let t = graph.trsm_id(i, k);
                tasks[t as usize] = Task::Trsm { i, k };
                edge(&mut succs, &mut indeg, graph.potrf_id(k), t);
                if k > 0 {
                    edge(&mut succs, &mut indeg, graph.update_id(i, k, k - 1), t);
                }
            }
        }
        for i in 0..nt {
            for j in 1..=i {
                for k in 0..j {
                    let u = graph.update_id(i, j, k);
                    tasks[u as usize] = Task::Update { i, j, k };
                    edge(&mut succs, &mut indeg, graph.trsm_id(i, k), u);
                    if i != j {
                        edge(&mut succs, &mut indeg, graph.trsm_id(j, k), u);
                    }
                    if k > 0 {
                        edge(&mut succs, &mut indeg, graph.update_id(i, j, k - 1), u);
                    }
                }
            }
        }

        graph.tasks = tasks;
        graph.succs = succs;
        graph.indeg = indeg;
        graph
    }

    /// Total number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` for a degenerate empty graph (never built here: `nt ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tile rows.
    pub fn num_tile_rows(&self) -> usize {
        self.nt
    }

    /// The task with dense id `id`.
    pub fn task(&self, id: u32) -> Task {
        self.tasks[id as usize]
    }

    /// Tasks unblocked when `id` completes.
    pub fn successors(&self, id: u32) -> &[u32] {
        &self.succs[id as usize]
    }

    /// Predecessor count per task (the executor's starting in-degrees).
    pub fn in_degrees(&self) -> Vec<u32> {
        self.indeg.clone()
    }

    #[inline]
    fn potrf_id(&self, k: usize) -> u32 {
        k as u32
    }

    #[inline]
    fn trsm_id(&self, i: usize, k: usize) -> u32 {
        debug_assert!(k < i);
        self.trsm_base + (i * (i - 1) / 2 + k) as u32
    }

    #[inline]
    fn update_id(&self, i: usize, j: usize, k: usize) -> u32 {
        debug_assert!(k < j && j <= i);
        self.update_base[i][j] + k as u32
    }

    /// The sequential reference order for a Looking variant — a
    /// topological sort of this DAG matching the evaluation order of the
    /// paper's Figure 3 (right), 4 (left), or 5/11 (top), lifted from
    /// per-tile-op loops to task ids. All three visit the same task set;
    /// executing tasks in any of these orders produces bitwise-identical
    /// results (module docs).
    pub fn sequential_order(&self, looking: Looking) -> Vec<u32> {
        let nt = self.nt;
        let mut order = Vec::with_capacity(self.len());
        match looking {
            // Figure 3: factor the panel, then update the whole trailing
            // submatrix with rank-nb updates.
            Looking::Right => {
                for k in 0..nt {
                    order.push(self.potrf_id(k));
                    for i in k + 1..nt {
                        order.push(self.trsm_id(i, k));
                    }
                    for i in k + 1..nt {
                        for j in k + 1..=i {
                            order.push(self.update_id(i, j, k));
                        }
                    }
                }
            }
            // Figure 4 (LAPACK): bring the current panel up to date just
            // before factoring/solving it.
            Looking::Left => {
                for k in 0..nt {
                    for p in 0..k {
                        order.push(self.update_id(k, k, p));
                    }
                    order.push(self.potrf_id(k));
                    for i in k + 1..nt {
                        for p in 0..k {
                            order.push(self.update_id(i, k, p));
                        }
                        order.push(self.trsm_id(i, k));
                    }
                }
            }
            // Figures 5/11 (laziest): walk tile rows; bring each tile of
            // the row up to date only when it is reached.
            Looking::Top => {
                for i in 0..nt {
                    for j in 0..=i {
                        for p in 0..j {
                            order.push(self.update_id(i, j, p));
                        }
                        if j < i {
                            order.push(self.trsm_id(i, j));
                        } else {
                            order.push(self.potrf_id(i));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), self.len());
        order
    }

    /// Length of the critical path in tasks: `3·(nt−1) + 1`.
    pub fn critical_path_len(&self) -> usize {
        3 * (self.nt - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_topological(graph: &TaskGraph, order: &[u32]) {
        assert_eq!(order.len(), graph.len());
        let mut pos = vec![usize::MAX; graph.len()];
        for (p, &id) in order.iter().enumerate() {
            assert_eq!(pos[id as usize], usize::MAX, "duplicate task {id}");
            pos[id as usize] = p;
        }
        for id in 0..graph.len() as u32 {
            for &s in graph.successors(id) {
                assert!(pos[id as usize] < pos[s as usize], "edge {id}→{s} violated");
            }
        }
    }

    #[test]
    fn all_looking_orders_are_topological() {
        for nt in [1usize, 2, 3, 5, 8] {
            let g = TaskGraph::build(nt);
            for looking in Looking::ALL {
                check_topological(&g, &g.sequential_order(looking));
            }
        }
    }

    #[test]
    fn task_counts() {
        let g = TaskGraph::build(4);
        // 4 potrf + 6 trsm + updates: (i,j) pairs j<=i contribute j each:
        // rows: i=1: j=1 →1; i=2: 1+2=3; i=3: 1+2+3=6. Total 10.
        assert_eq!(g.len(), 4 + 6 + 10);
        assert_eq!(g.critical_path_len(), 10);
    }

    #[test]
    fn in_degrees_match_edges() {
        let g = TaskGraph::build(5);
        let mut indeg = vec![0u32; g.len()];
        for id in 0..g.len() as u32 {
            for &s in g.successors(id) {
                indeg[s as usize] += 1;
            }
        }
        assert_eq!(indeg, g.in_degrees());
        // Exactly one source: Potrf(0).
        let sources: Vec<_> = (0..g.len()).filter(|&i| g.in_degrees()[i] == 0).collect();
        assert_eq!(sources, vec![0]);
        assert_eq!(g.task(0), Task::Potrf { k: 0 });
    }

    #[test]
    fn single_tile_graph_is_one_potrf() {
        let g = TaskGraph::build(1);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        assert_eq!(g.task(0), Task::Potrf { k: 0 });
        assert!(g.successors(0).is_empty());
        assert_eq!(g.critical_path_len(), 1);
    }
}
