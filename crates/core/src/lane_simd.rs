//! Explicit-SIMD lane arithmetic with runtime ISA dispatch.
//!
//! The lane engine in [`crate::lane_batch`] expresses every arithmetic
//! step as an elementwise operation over contiguous `[T; LANES]` blocks
//! and *hopes* the compiler autovectorizes them. On a default `x86_64`
//! build the compiler may only assume SSE2 (4 × f32 per instruction), so
//! the generated code leaves most of an AVX2 or AVX-512 machine idle —
//! exactly the "last mile" gap between a correct kernel and the vector
//! ISA (Veras et al., arXiv 1611.08035). This module closes it: the
//! three hot block primitives (column scale, rank-1 update, pivot
//! sqrt/reciprocal) are implemented with explicit AVX2 and AVX-512
//! intrinsics, selected **at runtime** with
//! [`is_x86_feature_detected!`](std::arch::is_x86_feature_detected), so
//! one portable binary uses the widest vectors the machine has.
//!
//! Bitwise identity is non-negotiable: the SIMD paths must produce the
//! same bits as the autovectorized path and the scalar oracle
//! (`potrf_unblocked`). Three rules enforce it:
//!
//! * multiply-then-subtract is never contracted into an FMA (the scalar
//!   code performs two roundings, so the vector code issues `mul` + `sub`
//!   intrinsics, never `fmsub`);
//! * square roots use the correctly-rounded `sqrt` instructions, which
//!   match scalar `sqrt` bit for bit (IEEE 754 requires it);
//! * reciprocals are an exact division `1.0 / x`, never the approximate
//!   `rcp` instructions.
//!
//! The ISA comes from the crate's one seam, [`crate::isa`]: the
//! [`LaneBackend`] resolves to [`detect_isa`] (or forces the fallback),
//! and `lane_batch` reaches its `#[target_feature]` shells through the
//! seam's one generic-to-monomorphic bridge.

use crate::isa::{detect_isa, SimdIsa};
use crate::scalar::Real;

/// Which engine a lane factorization runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneBackend {
    /// Use the widest ISA the machine (and the `IBCF_SIMD` override)
    /// allows; fall back to the autovectorized path when none applies.
    #[default]
    Auto,
    /// Same resolution as [`LaneBackend::Auto`] — an explicit request for
    /// the SIMD path where the call site wants to document the intent
    /// (benches, the `host-bench` table).
    Simd,
    /// Force the autovectorized `[T; LANES]` path, ignoring detection.
    Autovec,
}

impl LaneBackend {
    /// The ISA this backend resolves to on this machine, right now.
    pub fn resolve(self) -> SimdIsa {
        match self {
            LaneBackend::Auto | LaneBackend::Simd => detect_isa(),
            LaneBackend::Autovec => SimdIsa::Fallback,
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LaneBackend::Auto => "auto",
            LaneBackend::Simd => "simd",
            LaneBackend::Autovec => "autovec",
        }
    }
}

/// The three elementwise block primitives of the lane-vectorized
/// Cholesky, over `[T; LANES]` blocks passed as slices. Every implementor
/// must produce bits identical to the [`Autovec`] reference.
///
/// # Safety
/// Implementations backed by intrinsics require their ISA to be present;
/// calling them on a machine without it is immediate undefined behavior.
/// Callers must only reach them through [`detect_isa`]-guarded dispatch.
pub(crate) trait LaneOps<T: Real> {
    /// `dst[l] *= scale[l]` for every lane of the block.
    ///
    /// # Safety
    /// See the trait-level contract. `dst.len() == scale.len()` and the
    /// length is a multiple of the widest vector the implementor splits
    /// the block into.
    unsafe fn scale(dst: &mut [T], scale: &[T]);

    /// `dst[l] -= a[l] * b[l]` — multiply then subtract, two roundings,
    /// never fused.
    ///
    /// # Safety
    /// See [`LaneOps::scale`].
    unsafe fn mulsub(dst: &mut [T], a: &[T], b: &[T]);

    /// `root[l] = sqrt(piv[l])` and `inv[l] = 1 / root[l]` (exact
    /// division).
    ///
    /// # Safety
    /// See [`LaneOps::scale`].
    unsafe fn sqrt_recip(piv: &[T], root: &mut [T], inv: &mut [T]);
}

/// The reference implementation: plain elementwise loops over the block,
/// compiled with whatever vector ISA the build's baseline target allows.
/// This is exactly the arithmetic the lane engine shipped with before the
/// explicit-SIMD backend existed.
pub(crate) struct Autovec;

impl<T: Real> LaneOps<T> for Autovec {
    #[inline(always)]
    unsafe fn scale(dst: &mut [T], scale: &[T]) {
        for l in 0..dst.len() {
            dst[l] *= scale[l];
        }
    }

    #[inline(always)]
    unsafe fn mulsub(dst: &mut [T], a: &[T], b: &[T]) {
        for l in 0..dst.len() {
            dst[l] -= a[l] * b[l];
        }
    }

    #[inline(always)]
    unsafe fn sqrt_recip(piv: &[T], root: &mut [T], inv: &mut [T]) {
        for l in 0..piv.len() {
            root[l] = piv[l].sqrt();
        }
        for l in 0..piv.len() {
            inv[l] = root[l].recip();
        }
    }
}

/// AVX2 / AVX-512 implementations of the block primitives.
///
/// Blocks are `LANES ∈ {8, 16, 32}` elements, so f32 blocks split evenly
/// into 256-bit registers and f64 blocks into 128-bit halves of them; the
/// AVX-512 kernels consume 512-bit chunks first and finish any 8-element
/// f32 (or 4-element f64) remainder with 256-bit instructions (AVX-512F
/// implies AVX2, so mixing widths is always legal once dispatched).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod x86 {
    use super::LaneOps;
    use std::arch::x86_64::*;

    /// 256-bit kernels. Safety: requires the `avx2` CPU feature.
    pub(crate) struct Avx2;
    /// 512-bit kernels. Safety: requires `avx512f` + `avx512vl`.
    pub(crate) struct Avx512;

    impl LaneOps<f32> for Avx2 {
        #[inline(always)]
        unsafe fn scale(dst: &mut [f32], scale: &[f32]) {
            debug_assert!(dst.len() == scale.len() && dst.len().is_multiple_of(8));
            unsafe {
                for l in (0..dst.len()).step_by(8) {
                    let d = _mm256_loadu_ps(dst.as_ptr().add(l));
                    let s = _mm256_loadu_ps(scale.as_ptr().add(l));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(l), _mm256_mul_ps(d, s));
                }
            }
        }

        #[inline(always)]
        unsafe fn mulsub(dst: &mut [f32], a: &[f32], b: &[f32]) {
            debug_assert!(dst.len().is_multiple_of(8));
            unsafe {
                for l in (0..dst.len()).step_by(8) {
                    let d = _mm256_loadu_ps(dst.as_ptr().add(l));
                    let x = _mm256_loadu_ps(a.as_ptr().add(l));
                    let y = _mm256_loadu_ps(b.as_ptr().add(l));
                    // mul + sub, two roundings: bitwise-identical to the
                    // scalar `d -= x * y`, never contracted to an FMA.
                    let prod = _mm256_mul_ps(x, y);
                    _mm256_storeu_ps(dst.as_mut_ptr().add(l), _mm256_sub_ps(d, prod));
                }
            }
        }

        #[inline(always)]
        unsafe fn sqrt_recip(piv: &[f32], root: &mut [f32], inv: &mut [f32]) {
            debug_assert!(piv.len().is_multiple_of(8));
            unsafe {
                let one = _mm256_set1_ps(1.0);
                for l in (0..piv.len()).step_by(8) {
                    let r = _mm256_sqrt_ps(_mm256_loadu_ps(piv.as_ptr().add(l)));
                    _mm256_storeu_ps(root.as_mut_ptr().add(l), r);
                    // Exact division, not the approximate `rcp` lane op.
                    _mm256_storeu_ps(inv.as_mut_ptr().add(l), _mm256_div_ps(one, r));
                }
            }
        }
    }

    impl LaneOps<f64> for Avx2 {
        #[inline(always)]
        unsafe fn scale(dst: &mut [f64], scale: &[f64]) {
            debug_assert!(dst.len() == scale.len() && dst.len().is_multiple_of(4));
            unsafe {
                for l in (0..dst.len()).step_by(4) {
                    let d = _mm256_loadu_pd(dst.as_ptr().add(l));
                    let s = _mm256_loadu_pd(scale.as_ptr().add(l));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(l), _mm256_mul_pd(d, s));
                }
            }
        }

        #[inline(always)]
        unsafe fn mulsub(dst: &mut [f64], a: &[f64], b: &[f64]) {
            debug_assert!(dst.len().is_multiple_of(4));
            unsafe {
                for l in (0..dst.len()).step_by(4) {
                    let d = _mm256_loadu_pd(dst.as_ptr().add(l));
                    let x = _mm256_loadu_pd(a.as_ptr().add(l));
                    let y = _mm256_loadu_pd(b.as_ptr().add(l));
                    let prod = _mm256_mul_pd(x, y);
                    _mm256_storeu_pd(dst.as_mut_ptr().add(l), _mm256_sub_pd(d, prod));
                }
            }
        }

        #[inline(always)]
        unsafe fn sqrt_recip(piv: &[f64], root: &mut [f64], inv: &mut [f64]) {
            debug_assert!(piv.len().is_multiple_of(4));
            unsafe {
                let one = _mm256_set1_pd(1.0);
                for l in (0..piv.len()).step_by(4) {
                    let r = _mm256_sqrt_pd(_mm256_loadu_pd(piv.as_ptr().add(l)));
                    _mm256_storeu_pd(root.as_mut_ptr().add(l), r);
                    _mm256_storeu_pd(inv.as_mut_ptr().add(l), _mm256_div_pd(one, r));
                }
            }
        }
    }

    impl LaneOps<f32> for Avx512 {
        #[inline(always)]
        unsafe fn scale(dst: &mut [f32], scale: &[f32]) {
            debug_assert!(dst.len() == scale.len() && dst.len().is_multiple_of(8));
            unsafe {
                let mut l = 0;
                while l + 16 <= dst.len() {
                    let d = _mm512_loadu_ps(dst.as_ptr().add(l));
                    let s = _mm512_loadu_ps(scale.as_ptr().add(l));
                    _mm512_storeu_ps(dst.as_mut_ptr().add(l), _mm512_mul_ps(d, s));
                    l += 16;
                }
                while l < dst.len() {
                    let d = _mm256_loadu_ps(dst.as_ptr().add(l));
                    let s = _mm256_loadu_ps(scale.as_ptr().add(l));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(l), _mm256_mul_ps(d, s));
                    l += 8;
                }
            }
        }

        #[inline(always)]
        unsafe fn mulsub(dst: &mut [f32], a: &[f32], b: &[f32]) {
            debug_assert!(dst.len().is_multiple_of(8));
            unsafe {
                let mut l = 0;
                while l + 16 <= dst.len() {
                    let d = _mm512_loadu_ps(dst.as_ptr().add(l));
                    let x = _mm512_loadu_ps(a.as_ptr().add(l));
                    let y = _mm512_loadu_ps(b.as_ptr().add(l));
                    let prod = _mm512_mul_ps(x, y);
                    _mm512_storeu_ps(dst.as_mut_ptr().add(l), _mm512_sub_ps(d, prod));
                    l += 16;
                }
                while l < dst.len() {
                    let d = _mm256_loadu_ps(dst.as_ptr().add(l));
                    let x = _mm256_loadu_ps(a.as_ptr().add(l));
                    let y = _mm256_loadu_ps(b.as_ptr().add(l));
                    let prod = _mm256_mul_ps(x, y);
                    _mm256_storeu_ps(dst.as_mut_ptr().add(l), _mm256_sub_ps(d, prod));
                    l += 8;
                }
            }
        }

        #[inline(always)]
        unsafe fn sqrt_recip(piv: &[f32], root: &mut [f32], inv: &mut [f32]) {
            debug_assert!(piv.len().is_multiple_of(8));
            unsafe {
                let mut l = 0;
                while l + 16 <= piv.len() {
                    let r = _mm512_sqrt_ps(_mm512_loadu_ps(piv.as_ptr().add(l)));
                    _mm512_storeu_ps(root.as_mut_ptr().add(l), r);
                    _mm512_storeu_ps(
                        inv.as_mut_ptr().add(l),
                        _mm512_div_ps(_mm512_set1_ps(1.0), r),
                    );
                    l += 16;
                }
                while l < piv.len() {
                    let r = _mm256_sqrt_ps(_mm256_loadu_ps(piv.as_ptr().add(l)));
                    _mm256_storeu_ps(root.as_mut_ptr().add(l), r);
                    _mm256_storeu_ps(
                        inv.as_mut_ptr().add(l),
                        _mm256_div_ps(_mm256_set1_ps(1.0), r),
                    );
                    l += 8;
                }
            }
        }
    }

    impl LaneOps<f64> for Avx512 {
        #[inline(always)]
        unsafe fn scale(dst: &mut [f64], scale: &[f64]) {
            debug_assert!(dst.len() == scale.len() && dst.len().is_multiple_of(4));
            unsafe {
                let mut l = 0;
                while l + 8 <= dst.len() {
                    let d = _mm512_loadu_pd(dst.as_ptr().add(l));
                    let s = _mm512_loadu_pd(scale.as_ptr().add(l));
                    _mm512_storeu_pd(dst.as_mut_ptr().add(l), _mm512_mul_pd(d, s));
                    l += 8;
                }
                while l < dst.len() {
                    let d = _mm256_loadu_pd(dst.as_ptr().add(l));
                    let s = _mm256_loadu_pd(scale.as_ptr().add(l));
                    _mm256_storeu_pd(dst.as_mut_ptr().add(l), _mm256_mul_pd(d, s));
                    l += 4;
                }
            }
        }

        #[inline(always)]
        unsafe fn mulsub(dst: &mut [f64], a: &[f64], b: &[f64]) {
            debug_assert!(dst.len().is_multiple_of(4));
            unsafe {
                let mut l = 0;
                while l + 8 <= dst.len() {
                    let d = _mm512_loadu_pd(dst.as_ptr().add(l));
                    let x = _mm512_loadu_pd(a.as_ptr().add(l));
                    let y = _mm512_loadu_pd(b.as_ptr().add(l));
                    let prod = _mm512_mul_pd(x, y);
                    _mm512_storeu_pd(dst.as_mut_ptr().add(l), _mm512_sub_pd(d, prod));
                    l += 8;
                }
                while l < dst.len() {
                    let d = _mm256_loadu_pd(dst.as_ptr().add(l));
                    let x = _mm256_loadu_pd(a.as_ptr().add(l));
                    let y = _mm256_loadu_pd(b.as_ptr().add(l));
                    let prod = _mm256_mul_pd(x, y);
                    _mm256_storeu_pd(dst.as_mut_ptr().add(l), _mm256_sub_pd(d, prod));
                    l += 4;
                }
            }
        }

        #[inline(always)]
        unsafe fn sqrt_recip(piv: &[f64], root: &mut [f64], inv: &mut [f64]) {
            debug_assert!(piv.len().is_multiple_of(4));
            unsafe {
                let mut l = 0;
                while l + 8 <= piv.len() {
                    let r = _mm512_sqrt_pd(_mm512_loadu_pd(piv.as_ptr().add(l)));
                    _mm512_storeu_pd(root.as_mut_ptr().add(l), r);
                    _mm512_storeu_pd(
                        inv.as_mut_ptr().add(l),
                        _mm512_div_pd(_mm512_set1_pd(1.0), r),
                    );
                    l += 8;
                }
                while l < piv.len() {
                    let r = _mm256_sqrt_pd(_mm256_loadu_pd(piv.as_ptr().add(l)));
                    _mm256_storeu_pd(root.as_mut_ptr().add(l), r);
                    _mm256_storeu_pd(
                        inv.as_mut_ptr().add(l),
                        _mm256_div_pd(_mm256_set1_pd(1.0), r),
                    );
                    l += 4;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_resolution_is_consistent() {
        // Detection is cached: two resolutions agree, and Autovec always
        // forces the fallback regardless of hardware.
        assert_eq!(LaneBackend::Auto.resolve(), LaneBackend::Simd.resolve());
        assert_eq!(LaneBackend::Autovec.resolve(), SimdIsa::Fallback);
        assert_eq!(detect_isa(), detect_isa());
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(SimdIsa::Avx512.name(), "avx512");
        assert_eq!(SimdIsa::Avx2.name(), "avx2");
        assert_eq!(SimdIsa::Fallback.name(), "autovec");
        assert_eq!(LaneBackend::Auto.name(), "auto");
        assert_eq!(LaneBackend::Autovec.name(), "autovec");
        assert_eq!(format!("{}", SimdIsa::Fallback), "autovec");
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn intrinsic_ops_match_autovec_bitwise() {
        // Direct unit check of the three primitives against the reference
        // on this machine's detected ISA (skips quietly on pre-AVX2 CPUs).
        fn check<O: LaneOps<f32>>() {
            for lanes in [8usize, 16, 32] {
                let a: Vec<f32> = (0..lanes).map(|i| 0.5 + i as f32 * 1.25).collect();
                let b: Vec<f32> = (0..lanes).map(|i| 1.0 / (1.0 + i as f32)).collect();
                let mut d_ref: Vec<f32> = (0..lanes).map(|i| (i as f32).sin()).collect();
                let mut d_simd = d_ref.clone();
                unsafe {
                    Autovec::scale(&mut d_ref, &a);
                    O::scale(&mut d_simd, &a);
                }
                assert_eq!(d_ref, d_simd, "scale lanes={lanes}");
                unsafe {
                    Autovec::mulsub(&mut d_ref, &a, &b);
                    O::mulsub(&mut d_simd, &a, &b);
                }
                assert_eq!(d_ref, d_simd, "mulsub lanes={lanes}");
                let mut root_ref = vec![0.0f32; lanes];
                let mut inv_ref = vec![0.0f32; lanes];
                let mut root_simd = vec![0.0f32; lanes];
                let mut inv_simd = vec![0.0f32; lanes];
                unsafe {
                    Autovec::sqrt_recip(&a, &mut root_ref, &mut inv_ref);
                    O::sqrt_recip(&a, &mut root_simd, &mut inv_simd);
                }
                assert_eq!(root_ref, root_simd, "sqrt lanes={lanes}");
                assert_eq!(inv_ref, inv_simd, "recip lanes={lanes}");
            }
        }
        match detect_isa() {
            SimdIsa::Avx512 => check::<x86::Avx512>(),
            SimdIsa::Avx2 => check::<x86::Avx2>(),
            SimdIsa::Fallback => {}
        }
    }
}
