//! Lane-vectorized batch Cholesky: the host-side analogue of the paper's
//! warp-coalesced interleaved kernels.
//!
//! On the GPU, the interleaved layouts make 32 consecutive matrices
//! occupy 32 consecutive addresses for any fixed element, so one warp
//! factorizes 32 matrices in lockstep with perfectly coalesced accesses.
//! The exact same property serves SIMD units on the host: a group of
//! `LANES` consecutive matrices forms contiguous `[T; LANES]` blocks per
//! element, so the unblocked Cholesky recurrence — run once per *group*
//! with every arithmetic operation lifted to a block — autovectorizes
//! into full-width SIMD with unit-stride loads. No gather, no scatter,
//! no per-matrix scratch: the factorization happens **in place** in the
//! batch buffer, which is why this engine is several times faster than
//! the gather/factor/scatter baseline in [`crate::host_batch`].
//!
//! Failure handling mirrors the SIMT model too: a non-SPD matrix cannot
//! branch out of the lockstep loop, so its lane is *masked* — the pivot
//! is substituted with `1` (branch-free select) and the lane keeps
//! computing garbage that never escapes. On completion, masked lanes are
//! restored bitwise from a pre-factorization snapshot of their lower
//! triangle, and reported exactly like [`factorize_batch`] reports
//! failures.
//!
//! Lane groups are independent, so groups are distributed over rayon
//! workers; each worker owns a disjoint set of `[T; LANES]` blocks of the
//! shared buffer (the layout address map is injective, property-tested in
//! `ibcf-layout`).

use crate::error::CholeskyError;
use crate::host_batch::{factorize_batch, BatchReport};
use crate::isa::{dispatch, IsaCall, SimdIsa};
use crate::lane_simd::{Autovec, LaneBackend, LaneOps};
use crate::scalar::Real;
use crate::sync_slice::SyncSlice;
use ibcf_layout::{alloc_batch, transcode_into, tri, BatchLayout, Chunked};
use rayon::prelude::*;

/// Loop order of the lane-vectorized unblocked factorization — the
/// unblocked counterparts of [`crate::blocked::Looking`]'s right- and
/// left-looking tile orders. Both produce bitwise-identical factors (each
/// element sees the same operations in the same order); they differ in
/// how the group's working set moves through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneOrder {
    /// Aggressive: after each pivot column, update the whole trailing
    /// submatrix (the order of [`crate::reference::potrf_unblocked`]).
    #[default]
    Right,
    /// Lazy: bring each column up to date with all previous columns just
    /// before factoring it (the LAPACK order).
    Left,
}

impl LaneOrder {
    /// Both orders, for sweeps.
    pub const ALL: [LaneOrder; 2] = [LaneOrder::Right, LaneOrder::Left];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LaneOrder::Right => "right",
            LaneOrder::Left => "left",
        }
    }
}

/// Number of matrices factorized in lockstep per lane group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneWidth {
    /// [`preferred_lanes`] for the element type: 16 for `f32`, 8 for
    /// `f64` (one 64-byte cache line per block either way).
    #[default]
    Auto,
    /// 8 matrices per group.
    W8,
    /// 16 matrices per group.
    W16,
    /// 32 matrices per group (a full warp, the GPU's granularity).
    W32,
}

impl LaneWidth {
    /// All concrete widths, for sweeps.
    pub const ALL: [LaneWidth; 3] = [LaneWidth::W8, LaneWidth::W16, LaneWidth::W32];

    /// The concrete lane count for element type `T`.
    pub fn lanes<T: Real>(self) -> usize {
        match self {
            LaneWidth::Auto => preferred_lanes::<T>(),
            LaneWidth::W8 => 8,
            LaneWidth::W16 => 16,
            LaneWidth::W32 => 32,
        }
    }
}

/// The default lane count for element type `T`: one 64-byte cache line
/// per `[T; LANES]` block (16 × f32 or 8 × f64), which benches fastest on
/// both AVX2 and AVX-512 class hardware.
pub fn preferred_lanes<T: Real>() -> usize {
    if std::mem::size_of::<T>() <= 4 {
        16
    } else {
        8
    }
}

/// The affine address structure of a lane-group-friendly layout:
/// `addr(m0 + l, i, j) = bases[m0 / lanes] + i·rs + j·cs + l` over the
/// lower triangle. Validated against the layout's `addr` map at build
/// time, then trusted by the hot loop.
struct LanePlan {
    rs: usize,
    cs: usize,
    bases: Vec<usize>,
}

/// Probes `layout` for the affine lane-group structure at `lanes`
/// matrices per group. Returns `None` when the layout cannot host
/// in-place lane vectorization (e.g. `Canonical`, whose lanes are a full
/// matrix apart).
fn lane_plan<L: BatchLayout>(layout: &L, lanes: usize) -> Option<LanePlan> {
    let n = layout.n();
    let padded = layout.padded_batch();
    if n == 0 || padded == 0 || !matches!(lanes, 8 | 16 | 32) {
        return None;
    }
    if layout.lane_stride() != 1 || !padded.is_multiple_of(lanes) {
        return None;
    }
    let base0 = layout.addr(0, 0, 0);
    let (rs, cs) = if n > 1 {
        (
            layout.addr(0, 1, 0).checked_sub(base0)?,
            layout.addr(0, 0, 1).checked_sub(base0)?,
        )
    } else {
        (0, 0)
    };
    let groups = padded / lanes;
    // Full lower-triangle validation on the first and last groups...
    for g in [0, groups - 1] {
        let m0 = g * lanes;
        let b = layout.addr(m0, 0, 0);
        for j in 0..n {
            for i in j..n {
                let expect = b + i * rs + j * cs;
                if layout.addr(m0, i, j) != expect
                    || layout.addr(m0 + lanes - 1, i, j) != expect + lanes - 1
                {
                    return None;
                }
            }
        }
    }
    // ...and corner probes on every group in between.
    let mut bases = Vec::with_capacity(groups);
    for g in 0..groups {
        let m0 = g * lanes;
        let b = layout.addr(m0, 0, 0);
        let far = b + (n - 1) * (rs + cs);
        if layout.addr(m0 + lanes - 1, 0, 0) != b + lanes - 1
            || layout.addr(m0, n - 1, n - 1) != far
            || layout.addr(m0 + lanes - 1, n - 1, n - 1) != far + lanes - 1
            || far + lanes > layout.len()
        {
            return None;
        }
        bases.push(b);
    }
    Some(LanePlan { rs, cs, bases })
}

/// `true` if `layout` supports in-place lane vectorization at `width`
/// for element type `T` — both interleaved families qualify; `Canonical`
/// does not (use [`factorize_batch_auto`], which packs it first).
pub fn lane_compatible<T: Real, L: BatchLayout>(layout: &L, width: LaneWidth) -> bool {
    lane_plan(layout, width.lanes::<T>()).is_some()
}

/// Reads the `[T; LANES]` block at `off` into a register-friendly array.
///
/// # Safety
/// See [`SyncSlice::block`].
#[inline(always)]
unsafe fn read_block<T: Real, const LANES: usize>(shared: &SyncSlice<T>, off: usize) -> [T; LANES] {
    let mut out = [T::ZERO; LANES];
    out.copy_from_slice(unsafe { shared.block(off, LANES) });
    out
}

/// The masked pivot step shared by both loop orders: classify each live
/// lane's diagonal element, fold failures into the mask, substitute a
/// harmless pivot of `1` for dead lanes (branch-free select), store the
/// square root, and return the reciprocal block for the column scale.
///
/// The classification and select stay scalar (cheap, once per column);
/// the sqrt/reciprocal block goes through the [`LaneOps`] backend, which
/// is required to be bitwise-identical to the scalar `sqrt`/`recip`.
///
/// # Safety
/// The caller must own the group's blocks (see [`factor_group_ops`]) and, if
/// `O` is an intrinsic backend, guarantee its ISA is present (see
/// [`LaneOps`]).
#[inline(always)]
unsafe fn pivot_step<T: Real, O: LaneOps<T>, const LANES: usize>(
    shared: &SyncSlice<T>,
    off_kk: usize,
    k: usize,
    alive: &mut [bool; LANES],
    fail: &mut [Option<CholeskyError>; LANES],
) -> [T; LANES] {
    let akk: [T; LANES] = unsafe { read_block(shared, off_kk) };
    let mut ok = [false; LANES];
    for l in 0..LANES {
        ok[l] = alive[l] && akk[l] > T::ZERO && akk[l].is_finite();
    }
    if ok != *alive {
        // Rare slow path: a lane just died — record the failing column.
        for l in 0..LANES {
            if alive[l] && !ok[l] {
                fail[l] = Some(if akk[l].is_finite() {
                    CholeskyError::NotPositiveDefinite { column: k }
                } else {
                    CholeskyError::NonFinite { column: k }
                });
            }
        }
        *alive = ok;
    }
    let mut piv = [T::ONE; LANES];
    for l in 0..LANES {
        if alive[l] {
            piv[l] = akk[l];
        }
    }
    let mut root = [T::ZERO; LANES];
    let mut inv = [T::ZERO; LANES];
    unsafe { O::sqrt_recip(&piv, &mut root, &mut inv) };
    unsafe { shared.block_mut(off_kk, LANES) }.copy_from_slice(&root);
    inv
}

/// Factorizes one lane group of `LANES` matrices in place. Lane `l` owns
/// matrix `first_mat + l`; lanes `>= live` are padding slots, seeded with
/// identity matrices (which factorize exactly to themselves, so the tail
/// group runs at full width with no dead-lane masking and no arithmetic
/// on garbage data — NaN or denormal residue in padding slots would
/// otherwise drag the whole group through slow FP paths), restored
/// bitwise on completion, and never reported. Returns the failures of
/// live lanes, in lane order.
///
/// The per-element operation sequence (and therefore the rounding) is
/// identical to [`crate::reference::potrf_unblocked`] for both orders, so
/// results match the scalar oracle **bitwise**.
///
/// # Safety
/// The group's blocks (`base + i·rs + j·cs .. + LANES` for every lower
/// `(i, j)`) must be in bounds and not concurrently accessed by any other
/// thread. If `O` is an intrinsic backend its ISA must be present (see
/// [`LaneOps`]).
#[inline(always)]
unsafe fn factor_group_ops<T: Real, O: LaneOps<T>, const LANES: usize>(
    group: Group<'_, T>,
) -> Vec<(usize, CholeskyError)> {
    let Group {
        n,
        shared,
        base,
        rs,
        cs,
        order,
        first_mat,
        live,
        snap,
    } = group;
    let off = |i: usize, j: usize| base + i * rs + j * cs;
    // Snapshot the lower triangle so masked lanes can be restored bitwise.
    debug_assert!(snap.len() >= tri(n) * LANES);
    let mut idx = 0;
    for j in 0..n {
        for i in j..n {
            let block = unsafe { shared.block_mut(off(i, j), LANES) };
            snap[idx..idx + LANES].copy_from_slice(block);
            // Identity-pad the tail: padding lanes factor I = I·Iᵀ.
            if live < LANES {
                let fill = if i == j { T::ONE } else { T::ZERO };
                for x in &mut block[live..] {
                    *x = fill;
                }
            }
            idx += LANES;
        }
    }
    let mut alive = [true; LANES];
    let mut fail: [Option<CholeskyError>; LANES] = [None; LANES];
    match order {
        LaneOrder::Right => {
            for k in 0..n {
                let inv = unsafe {
                    pivot_step::<T, O, LANES>(shared, off(k, k), k, &mut alive, &mut fail)
                };
                for m in k + 1..n {
                    let amk = unsafe { shared.block_mut(off(m, k), LANES) };
                    unsafe { O::scale(amk, &inv) };
                }
                for j in k + 1..n {
                    let ajk: [T; LANES] = unsafe { read_block(shared, off(j, k)) };
                    for m in j..n {
                        let amk: [T; LANES] = unsafe { read_block(shared, off(m, k)) };
                        let amj = unsafe { shared.block_mut(off(m, j), LANES) };
                        unsafe { O::mulsub(amj, &amk, &ajk) };
                    }
                }
            }
        }
        LaneOrder::Left => {
            for j in 0..n {
                for k in 0..j {
                    let ajk: [T; LANES] = unsafe { read_block(shared, off(j, k)) };
                    for i in j..n {
                        let aik: [T; LANES] = unsafe { read_block(shared, off(i, k)) };
                        let aij = unsafe { shared.block_mut(off(i, j), LANES) };
                        unsafe { O::mulsub(aij, &aik, &ajk) };
                    }
                }
                let inv = unsafe {
                    pivot_step::<T, O, LANES>(shared, off(j, j), j, &mut alive, &mut fail)
                };
                for i in j + 1..n {
                    let aij = unsafe { shared.block_mut(off(i, j), LANES) };
                    unsafe { O::scale(aij, &inv) };
                }
            }
        }
    }
    let mut out = Vec::new();
    if alive.iter().any(|&a| !a) || live < LANES {
        // Restore every failed lane and every padding slot bitwise from
        // the snapshot — padding never escapes, failures report untouched.
        let mut idx = 0;
        for j in 0..n {
            for i in j..n {
                let block = unsafe { shared.block_mut(off(i, j), LANES) };
                for l in 0..LANES {
                    if !alive[l] || l >= live {
                        block[l] = snap[idx + l];
                    }
                }
                idx += LANES;
            }
        }
        for (l, f) in fail.iter().enumerate().take(live) {
            if let Some(e) = f {
                out.push((first_mat + l, *e));
            }
        }
    }
    out
}

/// One lane group's operands: matrix `first_mat + l` in lane `l` of the
/// blocks `base + i·rs + j·cs`, `live` of them real, with `snap` holding
/// the pre-factorization lower triangle (see [`factor_group_ops`]).
struct Group<'a, T> {
    n: usize,
    shared: &'a SyncSlice<'a, T>,
    base: usize,
    rs: usize,
    cs: usize,
    order: LaneOrder,
    first_mat: usize,
    live: usize,
    snap: &'a mut [T],
}

/// Routes a [`Group`] through the ISA seam: one `#[target_feature]`
/// shell per (ISA, element type), the autovectorized body otherwise.
struct GroupCall<const LANES: usize>;

impl<const LANES: usize> IsaCall for GroupCall<LANES> {
    type Of<'a, E: Real> = Group<'a, E>;
    type Out = Vec<(usize, CholeskyError)>;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f32(isa: SimdIsa, group: Group<'_, f32>) -> Self::Out {
        // SAFETY: the ISA is present and the group is owned (the
        // caller's contract).
        unsafe {
            match isa {
                SimdIsa::Avx512 => isa_kernels::avx512_f32::<LANES>(group),
                _ => isa_kernels::avx2_f32::<LANES>(group),
            }
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f64(isa: SimdIsa, group: Group<'_, f64>) -> Self::Out {
        // SAFETY: as in `f32`.
        unsafe {
            match isa {
                SimdIsa::Avx512 => isa_kernels::avx512_f64::<LANES>(group),
                _ => isa_kernels::avx2_f64::<LANES>(group),
            }
        }
    }

    unsafe fn fallback<E: Real>(group: Group<'_, E>) -> Self::Out {
        // SAFETY: the group is owned (the caller's contract); `Autovec`
        // needs no ISA.
        unsafe { factor_group_ops::<E, Autovec, LANES>(group) }
    }
}

/// Monomorphic `#[target_feature]` shells around [`factor_group_ops`].
///
/// Intrinsics only inline into callers whose target-feature set is a
/// superset of their own, so the generic `#[inline(always)]` kernel body
/// is instantiated *inside* one wrapper per (ISA, element type); the
/// whole group factorization then compiles as a single AVX2/AVX-512
/// function with every block primitive inlined.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod isa_kernels {
    use super::*;
    use crate::lane_simd::x86::{Avx2, Avx512};

    macro_rules! isa_wrapper {
        ($name:ident, $ty:ty, $ops:ty, $feat:literal) => {
            /// # Safety
            /// Same contract as [`factor_group_ops`]; additionally the
            /// CPU must support the wrapper's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name<const LANES: usize>(
                group: Group<'_, $ty>,
            ) -> Vec<(usize, CholeskyError)> {
                // SAFETY: the caller's contract, and the ISA `$ops` needs
                // is this shell's target feature.
                unsafe { factor_group_ops::<$ty, $ops, LANES>(group) }
            }
        };
    }

    isa_wrapper!(avx2_f32, f32, Avx2, "avx2");
    isa_wrapper!(avx2_f64, f64, Avx2, "avx2");
    isa_wrapper!(avx512_f32, f32, Avx512, "avx512f,avx512vl");
    isa_wrapper!(avx512_f64, f64, Avx512, "avx512f,avx512vl");
}

fn run_groups<T: Real, L: BatchLayout + Sync, const LANES: usize>(
    layout: &L,
    data: &mut [T],
    plan: &LanePlan,
    order: LaneOrder,
    isa: SimdIsa,
) -> BatchReport {
    let n = layout.n();
    let batch = layout.batch();
    assert!(data.len() >= layout.len(), "batch buffer too short");
    // Groups made only of padding slots need no work at all.
    let live_groups = batch.div_ceil(LANES);
    let tri_len = tri(n) * LANES;
    let shared = SyncSlice::new(data);
    let nested: Vec<Vec<(usize, CholeskyError)>> = (0..live_groups)
        .into_par_iter()
        .filter_map(|g| {
            let first = g * LANES;
            let live = LANES.min(batch - first);
            let mut snap = vec![T::ZERO; tri_len];
            let group = Group {
                n,
                shared: &shared,
                base: plan.bases[g],
                rs: plan.rs,
                cs: plan.cs,
                order,
                first_mat: first,
                live,
                snap: &mut snap,
            };
            // SAFETY: the plan validated that group `g` owns the blocks
            // `bases[g] + i·rs + j·cs .. + LANES` in bounds; the layout
            // address map is injective, so groups are pairwise disjoint,
            // and each group is processed by exactly one worker. `isa`
            // comes from detect_isa-guarded resolution.
            let fails = unsafe { dispatch::<GroupCall<LANES>, T>(isa, group) };
            if fails.is_empty() {
                None
            } else {
                Some(fails)
            }
        })
        .collect();
    let mut failures: Vec<(usize, CholeskyError)> = nested.into_iter().flatten().collect();
    failures.sort_by_key(|&(mat, _)| mat);
    BatchReport { failures }
}

/// Factorizes every live matrix of the batch **in place** with the
/// lane-vectorized engine (right-looking order, [`preferred_lanes`]
/// width), in parallel over lane groups.
///
/// Requires an interleaved-family layout; on layouts without the lane
/// property (e.g. `Canonical`) it falls back to the gather/scatter
/// [`factorize_batch`] so the call always succeeds. Use
/// [`factorize_batch_auto`] to route canonical batches through the pack
/// path instead.
///
/// Failed (non-SPD / non-finite) matrices are reported with their
/// original data restored, exactly like [`factorize_batch`].
pub fn factorize_batch_lanes<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
) -> BatchReport {
    factorize_batch_lanes_with(layout, data, LaneOrder::default(), LaneWidth::Auto)
}

/// [`factorize_batch_lanes`] with an explicit loop order and lane width.
/// Uses the [`LaneBackend::Auto`] engine (SIMD where detected).
pub fn factorize_batch_lanes_with<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
    order: LaneOrder,
    width: LaneWidth,
) -> BatchReport {
    factorize_batch_lanes_backend(layout, data, order, width, LaneBackend::Auto)
}

/// [`factorize_batch_lanes_with`] with an explicit [`LaneBackend`]: force
/// the autovectorized path, force SIMD resolution, or let detection pick.
/// Every backend produces bitwise-identical results — the choice only
/// affects speed.
pub fn factorize_batch_lanes_backend<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
    order: LaneOrder,
    width: LaneWidth,
    backend: LaneBackend,
) -> BatchReport {
    let lanes = width.lanes::<T>();
    let Some(plan) = lane_plan(layout, lanes) else {
        return factorize_batch(layout, data);
    };
    let isa = backend.resolve();
    match lanes {
        8 => run_groups::<T, L, 8>(layout, data, &plan, order, isa),
        16 => run_groups::<T, L, 16>(layout, data, &plan, order, isa),
        32 => run_groups::<T, L, 32>(layout, data, &plan, order, isa),
        _ => unreachable!("lane_plan only accepts 8/16/32"),
    }
}

/// Factorizes any layout through the fastest available host path:
/// interleaved-family layouts run the lane engine in place; other layouts
/// (canonical) are **packed** into an aligned chunk-interleaved scratch
/// (the host mirror of the device pack kernel in `ibcf-kernels`),
/// lane-factorized there, and unpacked back. Failure semantics are
/// unchanged: failed matrices come back bitwise-untouched.
pub fn factorize_batch_auto<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
) -> BatchReport {
    factorize_batch_auto_with(layout, data, LaneOrder::default(), LaneWidth::Auto)
}

/// [`factorize_batch_auto`] with an explicit loop order and lane width.
/// Uses the [`LaneBackend::Auto`] engine (SIMD where detected).
pub fn factorize_batch_auto_with<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
    order: LaneOrder,
    width: LaneWidth,
) -> BatchReport {
    factorize_batch_auto_backend(layout, data, order, width, LaneBackend::Auto)
}

/// [`factorize_batch_auto_with`] with an explicit [`LaneBackend`].
pub fn factorize_batch_auto_backend<T: Real, L: BatchLayout + Sync>(
    layout: &L,
    data: &mut [T],
    order: LaneOrder,
    width: LaneWidth,
    backend: LaneBackend,
) -> BatchReport {
    let lanes = width.lanes::<T>();
    if lane_plan(layout, lanes).is_some() {
        return factorize_batch_lanes_backend(layout, data, order, width, backend);
    }
    // Pack path: chunk 64 is a multiple of every lane width and keeps a
    // group's working set within one contiguous chunk window.
    let scratch_layout = Chunked::new(layout.n(), layout.batch(), 64);
    let mut scratch = alloc_batch::<T, _>(&scratch_layout);
    transcode_into(layout, data, &scratch_layout, &mut scratch);
    let report =
        factorize_batch_lanes_backend(&scratch_layout, &mut scratch, order, width, backend);
    transcode_into(&scratch_layout, &scratch, layout, data);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_batch::factorize_batch_seq;
    use crate::spd::{fill_batch_spd, SpdKind};
    use ibcf_layout::{scatter_matrix, Canonical, Interleaved, Layout};

    fn lane_layouts(n: usize, batch: usize) -> Vec<Layout> {
        vec![
            Layout::Interleaved(Interleaved::new(n, batch)),
            Layout::Chunked(Chunked::new(n, batch, 32)),
            Layout::Chunked(Chunked::new(n, batch, 64)),
        ]
    }

    fn check_matches_seq<T: Real>(n: usize, batch: usize, order: LaneOrder, width: LaneWidth) {
        for layout in lane_layouts(n, batch) {
            let mut a: Vec<T> = vec![T::ZERO; layout.len()];
            fill_batch_spd(&layout, &mut a, SpdKind::Wishart, 11);
            let mut b = a.clone();
            let r_seq = factorize_batch_seq(&layout, &mut a);
            let r_lane = factorize_batch_lanes_with(&layout, &mut b, order, width);
            assert!(r_seq.all_ok() && r_lane.all_ok());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    x.to_f64() == y.to_f64() || (x.to_f64().is_nan() && y.to_f64().is_nan()),
                    "{:?} {order:?} {width:?} elem {i}: {x} vs {y}",
                    layout.kind()
                );
            }
        }
    }

    #[test]
    fn lane_engine_matches_sequential_oracle_bitwise_f32() {
        for order in LaneOrder::ALL {
            for width in LaneWidth::ALL {
                check_matches_seq::<f32>(9, 100, order, width);
            }
        }
        check_matches_seq::<f32>(1, 40, LaneOrder::Right, LaneWidth::Auto);
        check_matches_seq::<f32>(16, 64, LaneOrder::Left, LaneWidth::Auto);
    }

    #[test]
    fn lane_engine_matches_sequential_oracle_bitwise_f64() {
        for order in LaneOrder::ALL {
            check_matches_seq::<f64>(12, 70, order, LaneWidth::Auto);
        }
        check_matches_seq::<f64>(5, 33, LaneOrder::Right, LaneWidth::W32);
    }

    #[test]
    fn failed_matrix_is_isolated_restored_and_reported() {
        let n = 6;
        let batch = 100;
        for layout in lane_layouts(n, batch) {
            for bad in [0usize, 17, 31, 32, 63, 99] {
                let mut data = vec![0.0f32; layout.len()];
                fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 3);
                // Plant an indefinite matrix: -I fails at column 0.
                let neg_eye: Vec<f32> = (0..n * n)
                    .map(|i| if i % (n + 1) == 0 { -1.0 } else { 0.0 })
                    .collect();
                scatter_matrix(&layout, &mut data, bad, &neg_eye, n);
                let mut expect = data.clone();
                let r_seq = factorize_batch_seq(&layout, &mut expect);
                let report = factorize_batch_lanes(&layout, &mut data);
                assert_eq!(report.failures, r_seq.failures, "bad={bad}");
                assert_eq!(report.failures.len(), 1);
                assert_eq!(
                    report.failures[0],
                    (bad, CholeskyError::NotPositiveDefinite { column: 0 })
                );
                // Whole buffer identical to the oracle: neighbors factored,
                // the failed matrix restored bitwise.
                assert_eq!(data, expect, "{:?} bad={bad}", layout.kind());
            }
        }
    }

    #[test]
    fn non_finite_matrix_reports_nonfinite() {
        let n = 4;
        let layout = Interleaved::new(n, 40);
        let mut data = vec![0.0f32; layout.len()];
        fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 5);
        let mut bad = vec![0.0f32; n * n];
        bad[0] = f32::NAN;
        scatter_matrix(&layout, &mut data, 7, &bad, n);
        let report = factorize_batch_lanes(&layout, &mut data);
        assert_eq!(
            report.failures,
            vec![(7, CholeskyError::NonFinite { column: 0 })]
        );
    }

    #[test]
    fn canonical_falls_back_and_auto_packs() {
        let n = 8;
        let batch = 50;
        let layout = Canonical::new(n, batch);
        assert!(!lane_compatible::<f32, _>(&layout, LaneWidth::Auto));
        let mut a = vec![0.0f32; layout.len()];
        fill_batch_spd(&layout, &mut a, SpdKind::Wishart, 2);
        let mut b = a.clone();
        let mut c = a.clone();
        let r1 = factorize_batch_seq(&layout, &mut a);
        let r2 = factorize_batch_lanes(&layout, &mut b); // gather fallback
        let r3 = factorize_batch_auto(&layout, &mut c); // pack path
        assert!(r1.all_ok() && r2.all_ok() && r3.all_ok());
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn auto_pack_path_preserves_failed_matrices() {
        let n = 5;
        let batch = 20;
        let layout = Canonical::new(n, batch);
        let mut data = vec![0.0f32; layout.len()];
        fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 8);
        let neg_eye: Vec<f32> = (0..n * n)
            .map(|i| if i % (n + 1) == 0 { -2.0 } else { 0.0 })
            .collect();
        scatter_matrix(&layout, &mut data, 13, &neg_eye, n);
        let before = data.clone();
        let report = factorize_batch_auto(&layout, &mut data);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, 13);
        let mut got = vec![0.0f32; n * n];
        let mut want = vec![0.0f32; n * n];
        ibcf_layout::gather_matrix(&layout, &data, 13, &mut got, n);
        ibcf_layout::gather_matrix(&layout, &before, 13, &mut want, n);
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_and_chunked_are_lane_compatible() {
        for layout in lane_layouts(7, 200) {
            for width in LaneWidth::ALL {
                assert!(
                    lane_compatible::<f32, _>(&layout, width),
                    "{:?} {width:?}",
                    layout.kind()
                );
            }
        }
    }

    #[test]
    fn preferred_lane_widths_per_type() {
        assert_eq!(preferred_lanes::<f32>(), 16);
        assert_eq!(preferred_lanes::<f64>(), 8);
        assert_eq!(LaneWidth::Auto.lanes::<f32>(), 16);
        assert_eq!(LaneWidth::W32.lanes::<f64>(), 32);
    }

    #[test]
    fn tail_group_pads_with_identity_at_lanes_plus_one() {
        // batch = LANES + 1: the final group holds exactly one live matrix
        // and LANES - 1 padding slots. The tail must still run the lane
        // engine (no scalar fallback), stay bitwise-exact, report a
        // planted failure on the lone tail matrix (and never a padding
        // index), and leave padding slots bitwise untouched — even when
        // they hold NaN garbage, which must not poison the live lane.
        let n = 7;
        for width in LaneWidth::ALL {
            let lanes = width.lanes::<f32>();
            let batch = lanes + 1;
            for layout in lane_layouts(n, batch) {
                assert!(lane_compatible::<f32, _>(&layout, width));
                let mut data = vec![0.0f32; layout.len()];
                fill_batch_spd(&layout, &mut data, SpdKind::Wishart, 21);
                // Poison every padding slot with NaN garbage.
                let nan = vec![f32::NAN; n * n];
                for pad in batch..layout.padded_batch() {
                    scatter_matrix(&layout, &mut data, pad, &nan, n);
                }
                // Plant a failure on the tail group's only live matrix.
                let neg_eye: Vec<f32> = (0..n * n)
                    .map(|i| if i % (n + 1) == 0 { -1.0 } else { 0.0 })
                    .collect();
                scatter_matrix(&layout, &mut data, lanes, &neg_eye, n);
                let mut expect = data.clone();
                let r_seq = factorize_batch_seq(&layout, &mut expect);
                let report =
                    factorize_batch_lanes_with(&layout, &mut data, LaneOrder::Right, width);
                assert_eq!(
                    report.failures,
                    r_seq.failures,
                    "{:?} lanes={lanes}",
                    layout.kind()
                );
                assert_eq!(
                    report.failures,
                    vec![(lanes, CholeskyError::NotPositiveDefinite { column: 0 })]
                );
                assert!(report.failures.iter().all(|&(m, _)| m < batch));
                // Bitwise comparison (NaN-safe): live matrices match the
                // oracle, padding slots keep their exact NaN payloads.
                for (i, (x, y)) in data.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{:?} lanes={lanes} elem {i}: {x} vs {y}",
                        layout.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn simd_backend_matches_autovec_and_oracle_bitwise() {
        // Whatever ISA detection resolves to on this machine, the forced
        // autovec path, the auto path, and the scalar oracle must agree
        // bitwise — including a planted non-SPD matrix that must be
        // restored identically by all three.
        let n = 10;
        for width in LaneWidth::ALL {
            let lanes = width.lanes::<f32>();
            let batch = 3 * lanes + 5;
            for layout in lane_layouts(n, batch) {
                for order in LaneOrder::ALL {
                    let mut seq = vec![0.0f32; layout.len()];
                    fill_batch_spd(&layout, &mut seq, SpdKind::Wishart, 77);
                    let neg_eye: Vec<f32> = (0..n * n)
                        .map(|i| if i % (n + 1) == 0 { -1.0 } else { 0.0 })
                        .collect();
                    scatter_matrix(&layout, &mut seq, lanes + 1, &neg_eye, n);
                    let mut autovec = seq.clone();
                    let mut simd = seq.clone();
                    let r_seq = factorize_batch_seq(&layout, &mut seq);
                    let r_autovec = factorize_batch_lanes_backend(
                        &layout,
                        &mut autovec,
                        order,
                        width,
                        LaneBackend::Autovec,
                    );
                    let r_simd = factorize_batch_lanes_backend(
                        &layout,
                        &mut simd,
                        order,
                        width,
                        LaneBackend::Simd,
                    );
                    assert_eq!(r_seq.failures, r_autovec.failures);
                    assert_eq!(r_seq.failures, r_simd.failures);
                    for (i, ((x, y), z)) in seq.iter().zip(&autovec).zip(&simd).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "autovec {:?} {order:?} lanes={lanes} elem {i}",
                            layout.kind()
                        );
                        assert_eq!(
                            x.to_bits(),
                            z.to_bits(),
                            "simd {:?} {order:?} lanes={lanes} elem {i}",
                            layout.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_backend_matches_oracle_bitwise_f64() {
        let n = 9;
        let layout = Interleaved::new(n, 45);
        let mut seq = vec![0.0f64; layout.len()];
        fill_batch_spd(&layout, &mut seq, SpdKind::Wishart, 13);
        let mut simd = seq.clone();
        let r_seq = factorize_batch_seq(&layout, &mut seq);
        let r_simd = factorize_batch_lanes_backend(
            &layout,
            &mut simd,
            LaneOrder::Right,
            LaneWidth::Auto,
            LaneBackend::Simd,
        );
        assert!(r_seq.all_ok() && r_simd.all_ok());
        for (x, y) in seq.iter().zip(&simd) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tiny_batches_pad_and_work() {
        // batch 1 pads to a full warp of padding lanes; the engine must
        // factor matrix 0 and leave every padding slot bitwise intact.
        let n = 3;
        let layout = Interleaved::new(n, 1);
        let mut data = vec![0.0f32; layout.len()];
        fill_batch_spd(&layout, &mut data, SpdKind::DiagDominant, 4);
        let mut expect = data.clone();
        let r1 = factorize_batch_seq(&layout, &mut expect);
        let r2 = factorize_batch_lanes(&layout, &mut data);
        assert!(r1.all_ok() && r2.all_ok());
        assert_eq!(data, expect);
    }
}
