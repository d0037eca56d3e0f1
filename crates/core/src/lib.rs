//! Host-side batch linear algebra for very small matrices.
//!
//! This crate provides the numerical foundation of the IPPS'17 interleaved
//! batch Cholesky reproduction:
//!
//! * [`scalar::Real`] — an `f32`/`f64` abstraction so every routine exists in
//!   both precisions (the paper works in single precision; double is the
//!   verification oracle).
//! * [`mod@reference`] — the canonical unblocked right-looking Cholesky
//!   (Algorithm 1 of the paper), the correctness oracle for everything else.
//! * [`tile`] — the four tile microkernels of Figure 9 (`potrf_tile`,
//!   `trsm_tile`, `syrk_tile`, `gemm_tile`) in runtime-size and
//!   const-generic (fully inlined/unrolled) forms.
//! * [`blocked`] — right-, left-, and top-looking blocked factorizations
//!   (Figures 3–5 and 11) composed from the tile microkernels, with ragged
//!   last tiles when `n % nb != 0`.
//! * [`spd`] — symmetric positive definite test-matrix generators.
//! * [`solve`] — forward/backward substitution and batched solves (the ALS
//!   use case that motivated the paper).
//! * [`host_batch`] — a rayon-parallel, layout-aware batch factorization
//!   used both as a CPU baseline and as the oracle for the GPU-simulator
//!   kernels.
//! * [`lane_batch`] — the lane-vectorized in-place batch factorization:
//!   the host-side analogue of the paper's warp-coalesced interleaved
//!   kernels, several times faster than the gather/scatter baseline.
//! * [`lane_simd`] — explicit AVX2/AVX-512 implementations of the lane
//!   block primitives with runtime ISA dispatch (autovectorized fallback),
//!   bitwise-identical to the scalar oracle.
//! * [`tiled`] — task-graph blocked Cholesky for *one large* matrix: a
//!   dependency-counted POTRF/TRSM/SYRK/GEMM DAG over 128-byte-aligned
//!   tile slots, executed sequentially (per-Looking reference replays) or
//!   by a parallel ready-queue executor, bitwise identical to the
//!   unblocked oracle either way.
//! * [`verify`] — residual and reconstruction checks.

#![warn(missing_docs)]

pub mod blocked;
pub mod cond;
pub mod error;
pub mod flops;
pub mod host_batch;
pub mod lane_batch;
pub mod lane_simd;
pub mod matrix;
pub mod reference;
pub mod scalar;
pub mod solve;
pub mod spd;
pub mod sync_slice;
pub mod tile;
pub mod tiled;
pub mod uplo;
pub mod verify;

pub use blocked::{potrf_blocked, Looking};
pub use cond::{batch_cond_estimate, cond_estimate};
pub use error::CholeskyError;
pub use lane_batch::{
    factorize_batch_auto, factorize_batch_auto_backend, factorize_batch_lanes,
    factorize_batch_lanes_backend, factorize_batch_lanes_with, lane_compatible, preferred_lanes,
    LaneOrder, LaneWidth,
};
pub use lane_simd::{detect_isa, LaneBackend, SimdIsa};
pub use matrix::ColMatrix;
pub use reference::potrf_unblocked;
pub use scalar::Real;
pub use tiled::{potrf_tiled, potrf_tiled_seq, potrf_tiled_threads, TaskGraph, TileStore};
pub use uplo::{potrf_uplo, solve_cholesky_uplo, Uplo};
