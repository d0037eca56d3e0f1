//! The zero-measurement kernel choice: what serving falls back to when
//! neither a tuned dispatch table nor the analytic model answers a size.

use ibcf_kernels::KernelConfig;

/// A configuration chosen without any sweep data — the zero-measurement
/// fallback the serving layer uses when no dispatch table exists yet.
///
/// Encodes the paper's qualitative findings: chunked interleaving wins at
/// every size (spatial locality), full unrolling pays off only while the
/// generated kernel still fits the instruction cache (small `n`), and a
/// moderate tile keeps register pressure in check as `n` grows.
pub fn heuristic_config(n: usize) -> KernelConfig {
    use ibcf_kernels::Unroll;
    KernelConfig {
        unroll: if n <= 16 {
            Unroll::Full
        } else {
            Unroll::Partial
        },
        nb: if n <= 8 { n } else { 4 },
        ..KernelConfig::baseline(n)
    }
}
