//! A SIMT GPU simulator: the hardware substrate for reproducing the
//! IPPS'17 interleaved batch Cholesky study without a physical GPU.
//!
//! The simulator has two coupled halves sharing one kernel programming
//! model:
//!
//! * **Functional execution** ([`exec`], [`block::launch_block_functional`])
//!   runs kernels with real IEEE (or emulated fast-math) arithmetic against
//!   a flat global-memory buffer, so every kernel's numerics are validated
//!   against a host oracle.
//! * **Timing simulation** ([`timing`], [`block::time_block_kernel`])
//!   traces one representative warp — legal because the kernels have no
//!   data-dependent control flow — and prices the stream through explicit
//!   architectural models: memory coalescing ([`coalesce`]), a set-
//!   associative L2 ([`cache`]), a DRAM row-buffer model ([`dram`]), an
//!   occupancy calculator ([`mod@occupancy`]), register-reuse/spill and
//!   instruction-cache models, and per-op issue costs including the
//!   IEEE-vs-`--use_fast_math` distinction ([`spec::OpCosts`]).
//!
//! Hardware constants live in [`spec::GpuSpec`]; the default preset is the
//! paper's NVIDIA P100.

#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod coalesce;
pub mod dram;
pub mod exec;
pub mod kernel;
mod mem;
pub mod occupancy;
pub mod plan;
pub mod report;
pub mod spec;
pub mod timing;
pub mod trace;

pub use block::{
    launch_block_functional, launch_block_functional_opts, plan_block_kernel, time_block_kernel,
    trace_block_kernel, BlockCtx, BlockKernel, LaneCtx,
};
pub use exec::{launch_functional, launch_functional_seq, ExecOptions};
pub use kernel::{KernelCtx, KernelStatics, LaunchConfig, ThreadId, ThreadKernel};
pub use occupancy::{occupancy, OccLimiter, Occupancy};
pub use plan::{
    build_plan, plan_thread_kernel, price, CacheStats, PlanParams, PlannedAccess, PricingCtx,
    TraceCache, TracePlan,
};
pub use report::{Bottleneck, KernelTiming};
pub use spec::{GpuSpec, OpCosts};
pub use timing::{time_from_trace, time_thread_kernel, TimingOptions};
pub use trace::{apply_register_reuse, trace_warp, OpCounts, WarpAccess, WarpTrace};
