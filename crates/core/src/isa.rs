//! The core crate's one ISA seam: which vector instruction set the
//! explicit-SIMD kernels run on, and the bridge from the generic
//! `T: Real` API to their monomorphic `#[target_feature]` shells.
//!
//! Two kernel families sit behind it: the lane block primitives of
//! [`crate::lane_simd`] (one element across 8–32 *matrices*) and the
//! register-blocked tile micro-kernels of [`crate::tile`] (the leaves of
//! the task-graph DAG in [`crate::tiled`]). Both resolve the ISA with
//! [`detect_isa`] and reach their shells through one crate-private
//! bridge, `dispatch`.
//!
//! Resolution order: the `simd` cargo feature gates whether the
//! intrinsic shells are compiled at all; the `IBCF_SIMD` environment
//! variable (`off`/`autovec`, `avx2`, `avx512`, `auto`) can force a lower
//! tier at runtime (CI uses it to keep the fallbacks from rotting); and
//! feature detection picks the widest available ISA otherwise. On
//! non-x86 targets (and with the feature disabled) everything runs the
//! portable fallbacks — on `aarch64` those already emit NEON, because
//! NEON is part of the baseline ISA the compiler may always assume.

use crate::scalar::Real;
use std::sync::OnceLock;

/// The instruction set an explicit-SIMD kernel was dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdIsa {
    /// 512-bit AVX-512F/VL kernels (16 × f32 / 8 × f64 per instruction).
    Avx512,
    /// 256-bit AVX2 kernels (8 × f32 / 4 × f64 per instruction).
    Avx2,
    /// The portable kernels (whatever the compiler's baseline target
    /// allows — SSE2 on default x86-64, NEON on aarch64).
    Fallback,
}

impl SimdIsa {
    /// Short lowercase name used in reports (`avx512`, `avx2`, `autovec`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Avx512 => "avx512",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Fallback => "autovec",
        }
    }

    /// The narrower of `self` and `ceiling`.
    pub(crate) fn at_most(self, ceiling: SimdIsa) -> SimdIsa {
        match (self, ceiling) {
            (SimdIsa::Fallback, _) | (_, SimdIsa::Fallback) => SimdIsa::Fallback,
            (SimdIsa::Avx512, SimdIsa::Avx512) => SimdIsa::Avx512,
            _ => SimdIsa::Avx2,
        }
    }
}

impl std::fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest ISA the explicit-SIMD kernels may use on this machine:
/// feature detection, clipped by the `IBCF_SIMD` environment override and
/// the `simd` cargo feature. Detection runs once per process.
pub fn detect_isa() -> SimdIsa {
    static ISA: OnceLock<SimdIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if !cfg!(feature = "simd") {
            return SimdIsa::Fallback;
        }
        let ceiling = match std::env::var("IBCF_SIMD").as_deref() {
            Ok("off") | Ok("autovec") | Ok("scalar") => return SimdIsa::Fallback,
            Ok("avx2") => SimdIsa::Avx2,
            _ => SimdIsa::Avx512, // `avx512`, `auto`, unset, or unknown
        };
        detect_hardware(ceiling)
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_hardware(ceiling: SimdIsa) -> SimdIsa {
    if ceiling == SimdIsa::Avx512
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        return SimdIsa::Avx512;
    }
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdIsa::Avx2;
    }
    SimdIsa::Fallback
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hardware(_ceiling: SimdIsa) -> SimdIsa {
    SimdIsa::Fallback
}

/// A kernel call with one arm per element type, routed by [`dispatch`].
///
/// `Of<'a, E>` is the call's operands over element type `E`. Because it
/// is one type constructor, the operands `Of<'a, T>` *are* `Of<'a, f32>`
/// whenever `T` is `f32` — which is what lets [`dispatch`] hand them to
/// the monomorphic arm.
pub(crate) trait IsaCall {
    /// The call's operands over element type `E`.
    type Of<'a, E: Real>;
    /// What the call returns.
    type Out;

    /// The f32 shell for `isa` (never [`SimdIsa::Fallback`]).
    ///
    /// # Safety
    /// `isa` must be present on this CPU, and `call` must meet the
    /// implementor's own operand contract.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f32(isa: SimdIsa, call: Self::Of<'_, f32>) -> Self::Out;

    /// The f64 shell for `isa` (never [`SimdIsa::Fallback`]).
    ///
    /// # Safety
    /// As for [`IsaCall::f32`].
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    unsafe fn f64(isa: SimdIsa, call: Self::Of<'_, f64>) -> Self::Out;

    /// The portable arm: [`SimdIsa::Fallback`], and any element type
    /// without a shell.
    ///
    /// # Safety
    /// `call` must meet the implementor's own operand contract.
    unsafe fn fallback<E: Real>(call: Self::Of<'_, E>) -> Self::Out;
}

/// Routes `call` to `C`'s shell for `isa` and `T`.
///
/// The public APIs are generic over `T: Real` but the intrinsic shells
/// are monomorphic, so the bridge is a `TypeId` check plus a same-type
/// re-typing of the operands — sound because each branch runs only when
/// `T` *is* the concrete type, and `Real: 'static` makes the check exact.
/// This is the crate's only such cast; the checks fold away at compile
/// time.
///
/// # Safety
/// `isa` must be present on this CPU: obtained from [`detect_isa`], or
/// lowered to it with [`SimdIsa::at_most`]. `call` must meet `C`'s own
/// operand contract.
pub(crate) unsafe fn dispatch<C: IsaCall, T: Real>(isa: SimdIsa, call: C::Of<'_, T>) -> C::Out {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if isa != SimdIsa::Fallback {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f32>() {
            // SAFETY: `T` is `f32`, so `Of<T>` is `Of<f32>`; the ISA and
            // operand contracts are the caller's.
            return unsafe { C::f32(isa, retype(call)) };
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // SAFETY: as above, with `T` = `f64`.
            return unsafe { C::f64(isa, retype(call)) };
        }
    }
    let _ = isa;
    // SAFETY: the operand contract is the caller's; the fallback needs no
    // ISA.
    unsafe { C::fallback(call) }
}

/// Moves `a` into the type `B`.
///
/// # Safety
/// `A` and `B` must be the same type.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
unsafe fn retype<A, B>(a: A) -> B {
    debug_assert_eq!(std::mem::size_of::<A>(), std::mem::size_of::<B>());
    let a = std::mem::ManuallyDrop::new(a);
    // SAFETY: `A` is `B` (the caller's contract), and `a` is never
    // dropped, so the value moves exactly once.
    unsafe { std::mem::transmute_copy::<A, B>(&a) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_takes_the_narrower_isa() {
        use SimdIsa::*;
        for (isa, ceiling, want) in [
            (Avx512, Avx512, Avx512),
            (Avx512, Avx2, Avx2),
            (Avx512, Fallback, Fallback),
            (Avx2, Avx512, Avx2),
            (Avx2, Avx2, Avx2),
            (Avx2, Fallback, Fallback),
            (Fallback, Avx512, Fallback),
        ] {
            assert_eq!(isa.at_most(ceiling), want, "{isa} at most {ceiling}");
        }
    }
}
