//! Column-vectorized tile microkernels — the task-graph factorization's
//! (`core::tiled`) leaves on the fallback ISA, the ragged-edge path of the
//! register-blocked leaves ([`TileLeaves`](super::TileLeaves)), and the
//! bitwise reference those are tested against.
//!
//! The runtime-size kernels in [`ops`](super::ops) mirror the paper's
//! generated device code: their innermost loops walk tile *rows*, which in
//! a column-major tile means stride-`ts` accesses the autovectorizer cannot
//! turn into SIMD. That is fine for the `nb ≤ 8` tiles the batched paths
//! use (the `unrolled` forms dominate there), but the task-graph runtime
//! works on `nb ∈ {8..32}` tiles where the update kernels are the hot path.
//!
//! These variants compute the same operations with the loops interchanged
//! so every innermost loop runs down one tile *column* with stride 1 — the
//! shape the autovectorizer reliably turns into packed multiplies and
//! subtracts (Rust never contracts them into FMAs). Loop
//! interchange only reorders *independent* element updates; the per-element
//! sequence of operations is unchanged, so:
//!
//! * [`syrk_tile_colvec`] and [`gemm_tile_colvec`] are **bitwise
//!   identical** to [`syrk_tile`](super::syrk_tile) /
//!   [`gemm_tile`](super::gemm_tile) (pinned by tests below);
//! * [`trsm_tile_colvec`] additionally scales by the *reciprocal* of the
//!   pivot (one `recip` per column, then multiplies) instead of dividing
//!   every element — exactly how [`potrf_unblocked`]
//!   (crate::reference::potrf_unblocked) and
//!   [`potrf_tile`](super::potrf_tile) scale their pivot columns. It is
//!   therefore bitwise identical to the *unblocked oracle's* panel
//!   updates, and differs from [`trsm_tile`](super::trsm_tile) (which
//!   divides) by ≤ 1 ulp per element.
//!
//! The combination of `potrf_tile`, `trsm_tile_colvec`, `syrk_tile_colvec`
//! and `gemm_tile_colvec`, applied in any topological order of the tiled
//! dependency DAG with ascending-`k` accumulation, reproduces
//! `potrf_unblocked` bit for bit — the property `core::tiled` builds on,
//! and the one its register-blocked leaves keep by matching these kernels
//! element for element.

// BLAS-shaped signatures: explicit dims and strides per operand.
#![allow(clippy::too_many_arguments)]

use crate::scalar::Real;

/// Triangular solve of an `m × d` panel tile against a factored `d × d`
/// diagonal tile: `B := B · L⁻ᵀ`, column-vectorized.
///
/// Scales by `recip(l[k][k])` like the unblocked oracle (see module docs);
/// innermost loops are stride-1 over panel columns.
pub fn trsm_tile_colvec<T: Real>(
    m: usize,
    d: usize,
    l: &[T],
    ts_l: usize,
    b: &mut [T],
    ts_b: usize,
) {
    debug_assert!(ts_l >= d && ts_b >= m);
    for k in 0..d {
        let inv = l[k + k * ts_l].recip();
        let rest = &mut b[k * ts_b..];
        let head_len = ts_b.min(rest.len());
        let (head, tail) = rest.split_at_mut(head_len);
        let col_k = &mut head[..m];
        for x in col_k.iter_mut() {
            *x *= inv;
        }
        let col_k = &head[..m];
        for j in k + 1..d {
            let ljk = l[j + k * ts_l];
            let col_j = &mut tail[(j - k - 1) * ts_b..(j - k - 1) * ts_b + m];
            for (x, &xk) in col_j.iter_mut().zip(col_k) {
                *x -= xk * ljk;
            }
        }
    }
}

/// Symmetric rank-k update of a `d × d` diagonal tile's lower triangle:
/// `C := C − A·Aᵀ` where `A` is `d × k`, column-vectorized.
///
/// Bitwise identical to [`syrk_tile`](super::syrk_tile).
pub fn syrk_tile_colvec<T: Real>(
    d: usize,
    k: usize,
    a: &[T],
    ts_a: usize,
    c: &mut [T],
    ts_c: usize,
) {
    debug_assert!(ts_a >= d && ts_c >= d);
    for col in 0..d {
        let c_col = &mut c[col + col * ts_c..col * ts_c + d];
        for p in 0..k {
            let acp = a[col + p * ts_a];
            let a_col = &a[col + p * ts_a..p * ts_a + d];
            for (x, &arp) in c_col.iter_mut().zip(a_col) {
                *x -= arp * acp;
            }
        }
    }
}

/// General update `C := C − A·Bᵀ` where `A` is `m × k`, `B` is `n × k`,
/// and `C` is `m × n`, column-vectorized.
///
/// Bitwise identical to [`gemm_tile`](super::gemm_tile).
pub fn gemm_tile_colvec<T: Real>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    ts_a: usize,
    b: &[T],
    ts_b: usize,
    c: &mut [T],
    ts_c: usize,
) {
    debug_assert!(ts_a >= m && ts_b >= n && ts_c >= m);
    for col in 0..n {
        let c_col = &mut c[col * ts_c..col * ts_c + m];
        for p in 0..k {
            let bcp = b[col + p * ts_b];
            let a_col = &a[p * ts_a..p * ts_a + m];
            for (x, &arp) in c_col.iter_mut().zip(a_col) {
                *x -= arp * bcp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{gemm_tile, syrk_tile, trsm_tile};

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn syrk_colvec_bitwise_matches_naive() {
        for (d, k, ts) in [(3, 2, 3), (8, 8, 8), (16, 8, 16), (5, 7, 8)] {
            let a = pseudo(1, ts * k);
            let c0 = pseudo(2, ts * d);
            let mut c_naive = c0.clone();
            let mut c_vec = c0;
            syrk_tile(d, k, &a, ts, &mut c_naive, ts);
            syrk_tile_colvec(d, k, &a, ts, &mut c_vec, ts);
            assert_eq!(
                c_naive.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                c_vec.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "d={d} k={k}"
            );
        }
    }

    #[test]
    fn gemm_colvec_bitwise_matches_naive() {
        for (m, n, k, ts) in [(3, 4, 2, 4), (8, 8, 8, 8), (16, 16, 16, 16), (7, 3, 5, 8)] {
            let a = pseudo(3, ts * k);
            let b = pseudo(4, ts * k);
            let c0 = pseudo(5, ts * n);
            let mut c_naive = c0.clone();
            let mut c_vec = c0;
            gemm_tile(m, n, k, &a, ts, &b, ts, &mut c_naive, ts);
            gemm_tile_colvec(m, n, k, &a, ts, &b, ts, &mut c_vec, ts);
            assert_eq!(
                c_naive.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                c_vec.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "m={m} n={n} k={k}"
            );
        }
    }

    #[test]
    fn trsm_colvec_matches_naive_to_a_ulp() {
        // The colvec variant multiplies by recip(pivot) (oracle style); the
        // naive variant divides: ≤ 1 ulp per scale, accumulating over the
        // d back-substitution steps — bound the drift generously.
        for (m, d, ts) in [(3, 3, 3), (8, 8, 8), (16, 16, 16), (5, 7, 8)] {
            // A well-conditioned lower-triangular L: diag-dominant.
            let mut l = pseudo(6, ts * d);
            for i in 0..d {
                l[i + i * ts] = 2.0 + i as f32 * 0.25;
            }
            let b0 = pseudo(7, ts * d);
            let mut b_naive = b0.clone();
            let mut b_vec = b0;
            trsm_tile(m, d, &l, ts, &mut b_naive, ts);
            trsm_tile_colvec(m, d, &l, ts, &mut b_vec, ts);
            for col in 0..d {
                for row in 0..m {
                    let x = b_naive[row + col * ts];
                    let y = b_vec[row + col * ts];
                    let scale = x.abs().max(y.abs()).max(f32::MIN_POSITIVE);
                    assert!(
                        (x - y).abs() <= 64.0 * f32::EPSILON * scale,
                        "({row},{col}): {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn trsm_colvec_matches_oracle_panel_bitwise() {
        // Scaling a panel column by recip(pivot) then applying ascending-k
        // updates is exactly what potrf_unblocked does to rows below the
        // diagonal block. Reproduce its op sequence by hand and compare
        // bitwise.
        let d = 4usize;
        let m = 3usize;
        let mut l = pseudo(8, d * d);
        for i in 0..d {
            l[i + i * d] = 1.5 + i as f32;
        }
        let b0 = pseudo(9, m * d);
        let mut b = b0.clone();
        trsm_tile_colvec(m, d, &l, d, &mut b, m);
        // Oracle-order replay: for k ascending, scale col k by recip, then
        // subtract x_k * l[j][k] from cols j > k.
        let mut want = b0;
        for k in 0..d {
            let inv = l[k + k * d].recip();
            for r in 0..m {
                want[r + k * m] *= inv;
            }
            for j in k + 1..d {
                let ljk = l[j + k * d];
                for r in 0..m {
                    let t = want[r + k * m] * ljk;
                    want[r + j * m] -= t;
                }
            }
        }
        assert_eq!(
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
