//! Tile microkernels — the building blocks of Figure 9 in the paper.
//!
//! The factorizations operate on `nb × nb` tiles held in small contiguous
//! buffers ("register tiles"). Four operations suffice:
//!
//! * [`potrf_tile`] — Cholesky factorization of a diagonal tile,
//! * [`trsm_tile`] — triangular solve `B := B · L⁻ᵀ` against a factored
//!   diagonal tile,
//! * [`syrk_tile`] — symmetric rank-k update `C := C − A·Aᵀ` (lower part),
//! * [`gemm_tile`] — general update `C := C − A·Bᵀ`.
//!
//! All are provided in two forms: runtime-size (`ops`), taking explicit
//! dimensions so ragged last tiles (`n % nb != 0`) use the same code, and
//! const-generic (`unrolled`), where the loop bounds are compile-time
//! constants so the compiler fully unrolls them — the Rust analogue of the
//! paper's pyexpander-generated straight-line code. A third form
//! (`colvec`) interchanges the loops so every innermost loop is stride-1
//! down a tile column, bitwise-compatible with the others (see the
//! `colvec` module docs for the exact equivalences). A fourth form,
//! [`TileLeaves`], is the large-tile leaves of the task-graph runtime
//! ([`tiled`](crate::tiled)): register-blocked GEMM, SYRK and TRSM
//! micro-kernels that hold an `MR × NR` block of the output in vector
//! registers for the whole k loop, in one `#[target_feature]` shell per
//! (ISA, element type) behind the crate's ISA seam ([`crate::isa`]). They
//! give every element `colvec`'s exact operation sequence, and fall back
//! to `colvec` on [`SimdIsa::Fallback`](crate::SimdIsa::Fallback) and on
//! edges a block does not fill.
//!
//! Tiles are column-major with an explicit tile stride (`ts`), normally the
//! tile's allocated edge `nb`.

mod colvec;
mod loadstore;
mod ops;
mod regblock;
mod unrolled;

pub use colvec::{gemm_tile_colvec, syrk_tile_colvec, trsm_tile_colvec};
pub use loadstore::{load_full, load_lower, store_full, store_lower};
pub use ops::{gemm_tile, potrf_tile, syrk_tile, trsm_tile};
pub use regblock::TileLeaves;
pub use unrolled::{
    gemm_tile_unrolled, potrf_tile_unrolled, syrk_tile_unrolled, trsm_tile_unrolled, MAX_NB,
};
