//! Task-graph blocked Cholesky for large matrices.
//!
//! Everything else in this crate factors *many tiny* matrices per call;
//! this module factors *one large* matrix by tiling it and executing the
//! classic POTRF/TRSM/SYRK/GEMM dependency DAG — the regime where batching
//! stops winning and scheduling takes over (the crossover the paper only
//! gestures at; EXPERIMENTS.md measures it).
//!
//! Three layers:
//!
//! * [`store`] — [`TileStore`]: the matrix packed as 128-byte-aligned
//!   lower-triangle tile slots through the existing `ibcf-layout` batch
//!   machinery (each tile one matrix of a `Canonical` batch);
//! * [`graph`] — [`TaskGraph`]: the dependency-counted DAG generated from
//!   `(n, nb, Looking)`, with a per-tile update serialization chain that
//!   makes *every* topological execution bitwise identical;
//! * [`exec`] — a sequential reference replay per
//!   [`Looking`](crate::blocked::Looking) order and a dependency-counted
//!   parallel executor on the rayon pool, both driving the
//!   `core::tile` microkernels as leaves: register-blocked on AVX2 and
//!   AVX-512 ([`TileLeaves`](crate::tile::TileLeaves)), the stride-1
//!   `colvec` forms otherwise.
//!
//! Entry points: [`potrf_tiled`] (parallel), [`potrf_tiled_seq`] (the
//! bitwise-identical sequential replay), and the store-level functions
//! for callers that keep matrices packed.
//!
//! Determinism contract (property-tested in `tests/proptest_tiled.rs`):
//! parallel ≡ sequential replay ≡ `potrf_unblocked` **bitwise**, for all
//! three Looking orders, both precisions, any thread count, and ragged
//! tiles; non-SPD pivots report the same global column with the oracle's
//! NonFinite-before-NotPositiveDefinite classification.

pub mod exec;
pub mod graph;
pub mod store;

pub use exec::{
    default_threads, factor_store_par, factor_store_seq, potrf_tiled, potrf_tiled_seq,
    potrf_tiled_threads,
};
pub use graph::{Task, TaskGraph};
pub use store::TileStore;
