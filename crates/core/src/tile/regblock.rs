//! Register-blocked tile micro-kernels — the GEMM, SYRK and TRSM leaves
//! of the task-graph DAG (`core::tiled`) on AVX2 and AVX-512 hosts.
//!
//! [`gemm_tile_colvec`] streams one column of C through memory for every
//! k. These kernels instead hold an `MR × NR` block of the output in
//! vector registers for the whole k loop: each step loads MR elements of
//! A, broadcasts NR of B, and issues `2·MR·NR` flops with no traffic to
//! C. Veras et al. (arXiv 1611.08035) place the last mile of dense linear
//! algebra in exactly this per-target block.
//!
//! The block shape comes in closed form from the register file, not from
//! a search (as tritonBLAS, arXiv 2512.04226, picks its GEMM tiles): MR
//! is two vector registers of the ISA and NR = 4, so the accumulators
//! take eight registers.
//!
//! | | AVX-512 | AVX2 |
//! |---|---|---|
//! | f32 | 32 × 4 | 16 × 4 |
//! | f64 | 16 × 4 | 8 × 4 |
//!
//! Every MR and NR divides the served tile edge, 32. One generic
//! `#[inline(always)]` body per operation is instantiated inside a
//! `#[target_feature]` shell per (ISA, element type), reached through the
//! crate's ISA seam ([`crate::isa`]). [`SimdIsa::Fallback`], and every
//! edge that does not fill a block, run the `colvec` kernels.
//!
//! **Bitwise contract.** Register blocking only regroups independent
//! element updates. Each element still sees `colvec`'s exact sequence of
//! operations: `x -= a·b` for ascending k, as a multiply followed by a
//! subtract (Rust never contracts the two into an FMA, and no fused
//! intrinsic is used here), and TRSM's scaling by `recip(l[k][k])` at the
//! same step. So the DAG's factor stays bitwise equal to
//! [`potrf_unblocked`](crate::reference::potrf_unblocked) on every ISA.

// BLAS-shaped signatures: explicit dims and strides per operand.
#![allow(clippy::too_many_arguments)]

use super::colvec::{gemm_tile_colvec, syrk_tile_colvec, trsm_tile_colvec};
use crate::isa::{detect_isa, dispatch, IsaCall, SimdIsa};
use crate::scalar::Real;
use std::marker::PhantomData;

/// The GEMM, SYRK and TRSM tile leaves of one ISA: register-blocked on
/// AVX2 and AVX-512, the `colvec` kernels on [`SimdIsa::Fallback`]. All
/// forms are bitwise equal to `colvec` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLeaves {
    /// Never wider than [`detect_isa`]: the invariant that makes the leaf
    /// methods safe to call.
    isa: SimdIsa,
}

impl TileLeaves {
    /// The leaves [`detect_isa`] selects — the ones the DAG runs.
    pub fn detect() -> Self {
        TileLeaves { isa: detect_isa() }
    }

    /// The leaves of `isa`, lowered to [`detect_isa`] where this machine
    /// (or the `IBCF_SIMD` override) does not allow it.
    pub fn new(isa: SimdIsa) -> Self {
        TileLeaves {
            isa: isa.at_most(detect_isa()),
        }
    }

    /// The ISA these leaves run on.
    pub fn isa(self) -> SimdIsa {
        self.isa
    }

    /// `(MR, NR)` of the register block for element type `T`, or `None`
    /// where the leaves are the `colvec` kernels.
    pub fn register_block<T: Real>(self) -> Option<(usize, usize)> {
        // SAFETY: `self.isa` is at most `detect_isa()` (the type's
        // invariant); the query touches no memory.
        unsafe { dispatch::<BlockShape, T>(self.isa, PhantomData) }
    }

    /// General update `C := C − A·Bᵀ` where `A` is `m × k`, `B` is
    /// `n × k`, and `C` is `m × n`, as [`gemm_tile_colvec`].
    pub fn gemm<T: Real>(
        self,
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
        let leaf = Leaf::Gemm(m, n, k, a, ts_a, b, ts_b, c, ts_c);
        // SAFETY: `self.isa` is at most `detect_isa()`, so its shells'
        // target features are present; the leaf indexes with bounds
        // checks.
        unsafe { dispatch::<LeafCall, T>(self.isa, leaf) }
    }

    /// Symmetric rank-k update of a `d × d` diagonal tile's lower
    /// triangle, `C := C − A·Aᵀ` where `A` is `d × k`, as
    /// [`syrk_tile_colvec`]. The strict upper triangle of C is never
    /// written.
    pub fn syrk<T: Real>(self, d: usize, k: usize, a: &[T], ts_a: usize, c: &mut [T], ts_c: usize) {
        let leaf = Leaf::Syrk(d, k, a, ts_a, c, ts_c);
        // SAFETY: as in `gemm`.
        unsafe { dispatch::<LeafCall, T>(self.isa, leaf) }
    }

    /// Triangular solve `B := B · L⁻ᵀ` of an `m × d` panel tile against a
    /// factored `d × d` diagonal tile, as [`trsm_tile_colvec`].
    pub fn trsm<T: Real>(self, m: usize, d: usize, l: &[T], ts_l: usize, b: &mut [T], ts_b: usize) {
        let leaf = Leaf::Trsm(m, d, l, ts_l, b, ts_b);
        // SAFETY: as in `gemm`.
        unsafe { dispatch::<LeafCall, T>(self.isa, leaf) }
    }
}

/// One leaf call over element type `T`, as the ISA seam carries it: each
/// variant holds its `colvec` kernel's arguments, in order.
enum Leaf<'a, T> {
    /// `(m, n, k, a, ts_a, b, ts_b, c, ts_c)` of [`gemm_tile_colvec`].
    Gemm(
        usize,
        usize,
        usize,
        &'a [T],
        usize,
        &'a [T],
        usize,
        &'a mut [T],
        usize,
    ),
    /// `(d, k, a, ts_a, c, ts_c)` of [`syrk_tile_colvec`].
    Syrk(usize, usize, &'a [T], usize, &'a mut [T], usize),
    /// `(m, d, l, ts_l, b, ts_b)` of [`trsm_tile_colvec`].
    Trsm(usize, usize, &'a [T], usize, &'a mut [T], usize),
}

impl<T: Real> Leaf<'_, T> {
    /// Runs the `colvec` leaf.
    fn colvec(self) {
        match self {
            Leaf::Gemm(m, n, k, a, ts_a, b, ts_b, c, ts_c) => {
                gemm_tile_colvec(m, n, k, a, ts_a, b, ts_b, c, ts_c)
            }
            Leaf::Syrk(d, k, a, ts_a, c, ts_c) => syrk_tile_colvec(d, k, a, ts_a, c, ts_c),
            Leaf::Trsm(m, d, l, ts_l, b, ts_b) => trsm_tile_colvec(m, d, l, ts_l, b, ts_b),
        }
    }
}

/// Routes a [`Leaf`] through the ISA seam.
struct LeafCall;

impl IsaCall for LeafCall {
    type Of<'a, E: Real> = Leaf<'a, E>;
    type Out = ();

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f32(isa: SimdIsa, leaf: Leaf<'_, f32>) {
        // SAFETY: `isa` is present (the caller's contract).
        unsafe {
            match isa {
                SimdIsa::Avx512 => blocked::avx512_f32(leaf),
                _ => blocked::avx2_f32(leaf),
            }
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f64(isa: SimdIsa, leaf: Leaf<'_, f64>) {
        // SAFETY: as in `f32`.
        unsafe {
            match isa {
                SimdIsa::Avx512 => blocked::avx512_f64(leaf),
                _ => blocked::avx2_f64(leaf),
            }
        }
    }

    unsafe fn fallback<E: Real>(leaf: Leaf<'_, E>) {
        leaf.colvec();
    }
}

/// Routes [`TileLeaves::register_block`] through the same seam, so the
/// answer is the shape the leaves actually run.
struct BlockShape;

impl IsaCall for BlockShape {
    type Of<'a, E: Real> = PhantomData<E>;
    type Out = Option<(usize, usize)>;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f32(isa: SimdIsa, _: PhantomData<f32>) -> Self::Out {
        Some((blocked::mr::<f32>(isa), blocked::NR))
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f64(isa: SimdIsa, _: PhantomData<f64>) -> Self::Out {
        Some((blocked::mr::<f64>(isa), blocked::NR))
    }

    unsafe fn fallback<E: Real>(_: PhantomData<E>) -> Self::Out {
        None
    }
}

/// The register-blocked bodies and their `#[target_feature]` shells, one
/// per (ISA, element type): each generic `#[inline(always)]` body compiles
/// inside a shell with the ISA's full vector width.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod blocked {
    use super::*;
    use std::arch::x86_64::*;

    /// Vector registers per block column: MR = `MV · W`.
    const MV: usize = 2;
    /// Columns per register block: with two registers per column, four
    /// columns fill eight accumulators.
    pub(super) const NR: usize = 4;
    /// The tallest block any shell runs (f32 on AVX-512).
    const MAX_MR: usize = 32;

    /// Rows of `E` per register block on `isa`: two vector registers.
    pub(super) const fn mr<E>(isa: SimdIsa) -> usize {
        let vector_bytes = match isa {
            SimdIsa::Avx512 => 64,
            _ => 32,
        };
        MV * vector_bytes / std::mem::size_of::<E>()
    }

    /// One vector register of `W` lanes of `T`: the only operations the
    /// bodies use. `sub(mul(..))` stays two roundings — never an FMA.
    ///
    /// Every method requires the implementor's ISA: calling one on a CPU
    /// without it is undefined behavior, so all are `unsafe`.
    trait Vector<T>: Copy {
        /// Lanes per register.
        const W: usize;
        /// Loads `src[..W]`.
        ///
        /// # Safety
        /// The implementor's ISA must be present.
        unsafe fn load(src: &[T]) -> Self;
        /// Stores into `dst[..W]`.
        ///
        /// # Safety
        /// As for [`Vector::load`].
        unsafe fn store(self, dst: &mut [T]);
        /// Broadcasts `x` to every lane.
        ///
        /// # Safety
        /// As for [`Vector::load`].
        unsafe fn splat(x: T) -> Self;
        /// Lanewise `self · o`.
        ///
        /// # Safety
        /// As for [`Vector::load`].
        unsafe fn mul(self, o: Self) -> Self;
        /// Lanewise `self − o`.
        ///
        /// # Safety
        /// As for [`Vector::load`].
        unsafe fn sub(self, o: Self) -> Self;
    }

    macro_rules! vector {
        ($v:ty, $t:ty, $w:literal, $load:ident, $store:ident, $set1:ident, $mul:ident, $sub:ident) => {
            impl Vector<$t> for $v {
                const W: usize = $w;

                #[inline(always)]
                unsafe fn load(src: &[$t]) -> Self {
                    let src = &src[..$w];
                    // SAFETY: `src` holds `W` elements; the ISA is the
                    // caller's contract.
                    unsafe { $load(src.as_ptr()) }
                }

                #[inline(always)]
                unsafe fn store(self, dst: &mut [$t]) {
                    let dst = &mut dst[..$w];
                    // SAFETY: as in `load`.
                    unsafe { $store(dst.as_mut_ptr(), self) }
                }

                #[inline(always)]
                unsafe fn splat(x: $t) -> Self {
                    // SAFETY: the ISA is the caller's contract.
                    unsafe { $set1(x) }
                }

                #[inline(always)]
                unsafe fn mul(self, o: Self) -> Self {
                    // SAFETY: as in `splat`.
                    unsafe { $mul(self, o) }
                }

                #[inline(always)]
                unsafe fn sub(self, o: Self) -> Self {
                    // SAFETY: as in `splat`.
                    unsafe { $sub(self, o) }
                }
            }
        };
    }

    vector! { __m512, f32, 16,
    _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_mul_ps, _mm512_sub_ps }
    vector! { __m512d, f64, 8,
    _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_mul_pd, _mm512_sub_pd }
    vector! { __m256, f32, 8,
    _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_mul_ps, _mm256_sub_ps }
    vector! { __m256d, f64, 4,
    _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_mul_pd, _mm256_sub_pd }

    impl<T: Real> Leaf<'_, T> {
        /// Runs the leaf with register blocks of `MV` registers `V` by
        /// `NR` columns.
        ///
        /// # Safety
        /// `V`'s ISA must be present.
        #[inline(always)]
        unsafe fn blocked<V: Vector<T>>(self) {
            // SAFETY: the ISA is the caller's contract.
            unsafe {
                match self {
                    Leaf::Gemm(m, n, k, a, ts_a, b, ts_b, c, ts_c) => {
                        gemm_blocked::<T, V>(m, n, k, a, ts_a, b, ts_b, c, ts_c)
                    }
                    Leaf::Syrk(d, k, a, ts_a, c, ts_c) => {
                        syrk_blocked::<T, V>(d, k, a, ts_a, c, ts_c)
                    }
                    Leaf::Trsm(m, d, l, ts_l, b, ts_b) => {
                        trsm_blocked::<T, V>(m, d, l, ts_l, b, ts_b)
                    }
                }
            }
        }
    }

    macro_rules! shell {
        ($name:ident, $ty:ty, $v:ty, $isa:expr, $feat:literal) => {
            /// # Safety
            /// The CPU must support the shell's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(leaf: Leaf<'_, $ty>) {
                const { assert!(MV * <$v as Vector<$ty>>::W == mr::<$ty>($isa)) };
                // SAFETY: `$v` needs exactly this shell's target features.
                unsafe { leaf.blocked::<$v>() }
            }
        };
    }

    shell! { avx2_f32, f32, __m256, SimdIsa::Avx2, "avx2" }
    shell! { avx2_f64, f64, __m256d, SimdIsa::Avx2, "avx2" }
    shell! { avx512_f32, f32, __m512, SimdIsa::Avx512, "avx512f,avx512vl" }
    shell! { avx512_f64, f64, __m512d, SimdIsa::Avx512, "avx512f,avx512vl" }

    /// An `MR × NR` register block: `NR` columns of `MV` registers.
    type Block<V> = [[V; MV]; NR];

    /// Loads the block of a column-major tile whose top-left element is
    /// `x[at]`.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn load_block<T: Real, V: Vector<T>>(x: &[T], at: usize, ts: usize) -> Block<V> {
        // SAFETY: the ISA is the caller's contract.
        unsafe {
            std::array::from_fn(|j| std::array::from_fn(|v| V::load(&x[at + j * ts + v * V::W..])))
        }
    }

    /// Stores `acc` back where [`load_block`] read it.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn store_block<T: Real, V: Vector<T>>(
        acc: &Block<V>,
        x: &mut [T],
        at: usize,
        ts: usize,
    ) {
        for (j, col) in acc.iter().enumerate() {
            for (v, &reg) in col.iter().enumerate() {
                // SAFETY: the ISA is the caller's contract.
                unsafe { reg.store(&mut x[at + j * ts + v * V::W..]) };
            }
        }
    }

    /// Stores a block that straddles the diagonal, `diag` rows below its
    /// top-left element: column `j` stores only its rows from `diag + j`
    /// down, so the strict upper triangle is never written.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn store_lower_block<T: Real, V: Vector<T>>(
        acc: &Block<V>,
        x: &mut [T],
        at: usize,
        ts: usize,
        diag: usize,
    ) {
        const { assert!(MV * V::W <= MAX_MR) };
        let mr = MV * V::W;
        let mut buf = [T::ZERO; MAX_MR];
        for (j, col) in acc.iter().enumerate() {
            for (v, &reg) in col.iter().enumerate() {
                // SAFETY: the ISA is the caller's contract.
                unsafe { reg.store(&mut buf[v * V::W..]) };
            }
            let from = (diag + j).min(mr);
            x[at + j * ts + from..at + j * ts + mr].copy_from_slice(&buf[from..mr]);
        }
    }

    /// The k loop every kernel shares: `acc[j][r] -= a[r + p·ts_a] ·
    /// b[j + p·ts_b]` for `p = 0..k` ascending, the block held in
    /// registers throughout. `a` starts at the block's first row, `b` at
    /// its first column.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn update_block<T: Real, V: Vector<T>>(
        acc: &mut Block<V>,
        k: usize,
        a: &[T],
        ts_a: usize,
        b: &[T],
        ts_b: usize,
    ) {
        let mr = MV * V::W;
        for p in 0..k {
            let ap = &a[p * ts_a..][..mr];
            let bp = b[p * ts_b..].first_chunk::<NR>().expect("B holds NR rows");
            // SAFETY: the ISA is the caller's contract.
            unsafe {
                let av: [V; MV] = std::array::from_fn(|v| V::load(&ap[v * V::W..]));
                for (col, &bj) in acc.iter_mut().zip(bp) {
                    let bj = V::splat(bj);
                    for (x, &ar) in col.iter_mut().zip(&av) {
                        *x = x.sub(ar.mul(bj));
                    }
                }
            }
        }
    }

    /// [`gemm_tile_colvec`] with every full block of C in registers;
    /// leftover rows and columns run `colvec`.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn gemm_blocked<T: Real, V: Vector<T>>(
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
        if k == 0 {
            return;
        }
        let mr = MV * V::W;
        let (m_full, n_full) = (m - m % mr, n - n % NR);
        for c0 in (0..n_full).step_by(NR) {
            for r0 in (0..m_full).step_by(mr) {
                let at = r0 + c0 * ts_c;
                // SAFETY: the ISA is the caller's contract.
                unsafe {
                    let mut acc = load_block::<T, V>(c, at, ts_c);
                    update_block(&mut acc, k, &a[r0..], ts_a, &b[c0..], ts_b);
                    store_block(&acc, c, at, ts_c);
                }
            }
        }
        if m_full < m {
            let c_rows = &mut c[m_full..];
            gemm_tile_colvec(m - m_full, n, k, &a[m_full..], ts_a, b, ts_b, c_rows, ts_c);
        }
        if n_full < n {
            let c_cols = &mut c[n_full * ts_c..];
            gemm_tile_colvec(
                m_full,
                n - n_full,
                k,
                a,
                ts_a,
                &b[n_full..],
                ts_b,
                c_cols,
                ts_c,
            );
        }
    }

    /// [`syrk_tile_colvec`] with register blocks. Each column block runs
    /// over the row blocks from the one holding its diagonal down; the
    /// diagonal block stores only its lower part. A tile edge that is not
    /// a multiple of MR (and so of NR) runs `colvec`.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn syrk_blocked<T: Real, V: Vector<T>>(
        d: usize,
        k: usize,
        a: &[T],
        ts_a: usize,
        c: &mut [T],
        ts_c: usize,
    ) {
        let mr = MV * V::W;
        debug_assert!(mr.is_multiple_of(NR));
        if !d.is_multiple_of(mr) {
            return syrk_tile_colvec(d, k, a, ts_a, c, ts_c);
        }
        if k == 0 {
            return;
        }
        for c0 in (0..d).step_by(NR) {
            let diag_r0 = c0 - c0 % mr;
            for r0 in (diag_r0..d).step_by(mr) {
                let at = r0 + c0 * ts_c;
                // SAFETY: the ISA is the caller's contract.
                unsafe {
                    let mut acc = load_block::<T, V>(c, at, ts_c);
                    update_block(&mut acc, k, &a[r0..], ts_a, &a[c0..], ts_a);
                    if r0 == diag_r0 {
                        store_lower_block(&acc, c, at, ts_c, c0 - r0);
                    } else {
                        store_block(&acc, c, at, ts_c);
                    }
                }
            }
        }
    }

    /// [`trsm_tile_colvec`], left-looking by `NR`-column blocks of MR
    /// rows: first subtract the finished columns in ascending order, then
    /// inside the block scale each column by `recip(l[k][k])` and update
    /// the block's later columns — each element's `colvec` order.
    /// Leftover rows run `colvec`; so does a `d` that is not a multiple of
    /// NR.
    ///
    /// # Safety
    /// `V`'s ISA must be present.
    #[inline(always)]
    unsafe fn trsm_blocked<T: Real, V: Vector<T>>(
        m: usize,
        d: usize,
        l: &[T],
        ts_l: usize,
        b: &mut [T],
        ts_b: usize,
    ) {
        if !d.is_multiple_of(NR) {
            return trsm_tile_colvec(m, d, l, ts_l, b, ts_b);
        }
        let mr = MV * V::W;
        let m_full = m - m % mr;
        for r0 in (0..m_full).step_by(mr) {
            for j0 in (0..d).step_by(NR) {
                let at = r0 + j0 * ts_b;
                // SAFETY: the ISA is the caller's contract.
                unsafe {
                    let mut acc = load_block::<T, V>(b, at, ts_b);
                    update_block(&mut acc, j0, &b[r0..], ts_b, &l[j0..], ts_l);
                    for j in 0..NR {
                        let k = j0 + j;
                        let inv = V::splat(l[k + k * ts_l].recip());
                        for x in acc[j].iter_mut() {
                            *x = x.mul(inv);
                        }
                        let xk = acc[j];
                        for (j2, col) in acc.iter_mut().enumerate().skip(j + 1) {
                            let ljk = V::splat(l[j0 + j2 + k * ts_l]);
                            for (x, &xr) in col.iter_mut().zip(&xk) {
                                *x = x.sub(xr.mul(ljk));
                            }
                        }
                    }
                    store_block(&acc, b, at, ts_b);
                }
            }
        }
        if m_full < m {
            trsm_tile_colvec(m - m_full, d, l, ts_l, &mut b[m_full..], ts_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tile edges around every MR and NR: below, at and past a block.
    const DIMS: [usize; 8] = [1, 3, 15, 16, 17, 31, 32, 33];
    /// A tile stride larger than every dimension above.
    const TS: usize = 40;

    /// The distinct leaves this machine can run, widest first.
    fn every_leaves() -> Vec<TileLeaves> {
        let mut all: Vec<TileLeaves> = [SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Fallback]
            .into_iter()
            .map(TileLeaves::new)
            .collect();
        all.dedup();
        all
    }

    fn pseudo<T: Real>(seed: u64, len: usize) -> Vec<T> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                T::from_f64(((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5)
            })
            .collect()
    }

    /// A factored-looking lower triangle: diagonally dominant, so the
    /// solve stays well scaled.
    fn lower<T: Real>(seed: u64, d: usize, ts: usize) -> Vec<T> {
        let mut l = pseudo::<T>(seed, ts * d.max(1));
        for i in 0..d {
            l[i + i * ts] = T::from_f64(1.5 + 0.25 * i as f64);
        }
        l
    }

    fn bits<T: Real>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn gemm_case<T: Real>(leaves: TileLeaves, m: usize, n: usize, k: usize, ts: usize) {
        let a = pseudo::<T>(1, ts * k.max(1));
        let b = pseudo::<T>(2, ts * k.max(1));
        let c0 = pseudo::<T>(3, ts * n);
        let mut want = c0.clone();
        gemm_tile_colvec(m, n, k, &a, ts, &b, ts, &mut want, ts);
        let mut got = c0;
        leaves.gemm(m, n, k, &a, ts, &b, ts, &mut got, ts);
        assert_eq!(bits(&got), bits(&want), "{leaves:?} m={m} n={n} k={k}");
    }

    fn syrk_case<T: Real>(leaves: TileLeaves, d: usize, k: usize, ts: usize) {
        let a = pseudo::<T>(4, ts * k.max(1));
        let c0 = pseudo::<T>(5, ts * d);
        let mut want = c0.clone();
        syrk_tile_colvec(d, k, &a, ts, &mut want, ts);
        let mut got = c0;
        leaves.syrk(d, k, &a, ts, &mut got, ts);
        assert_eq!(bits(&got), bits(&want), "{leaves:?} d={d} k={k}");
    }

    fn trsm_case<T: Real>(leaves: TileLeaves, m: usize, d: usize, ts: usize) {
        let l = lower::<T>(6, d, ts);
        let b0 = pseudo::<T>(7, ts * d);
        let mut want = b0.clone();
        trsm_tile_colvec(m, d, &l, ts, &mut want, ts);
        let mut got = b0;
        leaves.trsm(m, d, &l, ts, &mut got, ts);
        assert_eq!(bits(&got), bits(&want), "{leaves:?} m={m} d={d}");
    }

    #[test]
    fn full_tiles_match_colvec_bitwise() {
        for leaves in every_leaves() {
            gemm_case::<f32>(leaves, 32, 32, 32, 32);
            gemm_case::<f64>(leaves, 32, 32, 32, 32);
            syrk_case::<f32>(leaves, 32, 32, 32);
            syrk_case::<f64>(leaves, 32, 32, 32);
            trsm_case::<f32>(leaves, 32, 32, 32);
            trsm_case::<f64>(leaves, 32, 32, 32);
        }
    }

    #[test]
    fn ragged_gemm_matches_colvec_bitwise() {
        for leaves in every_leaves() {
            for m in DIMS {
                for n in DIMS {
                    for k in DIMS {
                        gemm_case::<f32>(leaves, m, n, k, TS);
                        gemm_case::<f64>(leaves, m, n, k, TS);
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_syrk_and_trsm_match_colvec_bitwise() {
        for leaves in every_leaves() {
            for x in DIMS {
                for y in DIMS {
                    syrk_case::<f32>(leaves, x, y, TS);
                    syrk_case::<f64>(leaves, x, y, TS);
                    trsm_case::<f32>(leaves, x, y, TS);
                    trsm_case::<f64>(leaves, x, y, TS);
                }
            }
        }
    }

    #[test]
    fn syrk_never_writes_the_strict_upper_triangle() {
        const SENTINEL: f32 = -777.0;
        for leaves in every_leaves() {
            for d in [16usize, 32] {
                let a = pseudo::<f32>(8, d * d);
                let mut c = pseudo::<f32>(9, d * d);
                for col in 1..d {
                    for row in 0..col {
                        c[row + col * d] = SENTINEL;
                    }
                }
                leaves.syrk(d, d, &a, d, &mut c, d);
                for col in 1..d {
                    for row in 0..col {
                        assert_eq!(
                            c[row + col * d].to_bits(),
                            SENTINEL.to_bits(),
                            "{leaves:?} d={d} ({row},{col})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fallback_leaves_are_colvec() {
        let fallback = TileLeaves::new(SimdIsa::Fallback);
        assert_eq!(fallback.isa(), SimdIsa::Fallback);
        assert_eq!(fallback.register_block::<f32>(), None);
        assert_eq!(fallback.register_block::<f64>(), None);
        // The detected leaves block by two vector registers × 4 columns.
        let detected = TileLeaves::detect();
        assert_eq!(detected.isa(), detect_isa());
        let want = |f32_rows: usize| match detect_isa() {
            SimdIsa::Fallback => None,
            _ => Some((f32_rows, 4)),
        };
        let f32_rows = if detect_isa() == SimdIsa::Avx512 {
            32
        } else {
            16
        };
        assert_eq!(detected.register_block::<f32>(), want(f32_rows));
        assert_eq!(detected.register_block::<f64>(), want(f32_rows / 2));
    }
}
