//! Per-batch engine selection: the serving-time consumer of the
//! autotuning corpus.
//!
//! The sweep's winning [`KernelConfig`] per
//! size describes a *device* kernel, but its structural axes — chunked vs
//! plain interleave, chunk size, looking order — are exactly the knobs of
//! the host lane engine too (the host mirror the paper's layouts were
//! built to serve; see `ibcf_core::lane_batch`). An [`EngineSelector`]
//! maps the dispatch table's winner for `n` onto an [`EnginePlan`] the
//! workers execute, and falls back to the zero-measurement heuristic when
//! no sweep has ever been run.

use ibcf_autotune::heuristics::heuristic_config;
use ibcf_autotune::{best_config, DispatchTable, ParamSpace};
use ibcf_core::lane_batch::{LaneOrder, LaneWidth};
use ibcf_core::{LaneBackend, Looking, Real};
use ibcf_gpu_sim::GpuSpec;
use ibcf_kernels::KernelConfig;
use ibcf_layout::{Layout, LayoutKind};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The host engine parameters one formed batch runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePlan {
    /// Interleave family for the packed buffer.
    pub kind: LayoutKind,
    /// Chunk size when `kind` is `Chunked` (a multiple of 32).
    pub chunk: usize,
    /// Loop order of the lane-vectorized factorization.
    pub order: LaneOrder,
    /// Matrices per lockstep group.
    pub width: LaneWidth,
    /// Lane arithmetic backend: runtime-dispatched SIMD (default) or the
    /// forced autovectorized path. Bitwise-identical either way.
    pub backend: LaneBackend,
}

impl EnginePlan {
    /// Concrete lane count for element type `T`.
    pub fn lanes<T: Real>(&self) -> usize {
        self.width.lanes::<T>()
    }

    /// The packed layout for `batch` matrices of dimension `n`.
    pub fn layout(&self, n: usize, batch: usize) -> Layout {
        Layout::build(self.kind, n, batch, self.chunk)
    }
}

/// Maps a tuned kernel configuration onto the host engine's knobs.
fn plan_of(config: &KernelConfig) -> EnginePlan {
    EnginePlan {
        kind: if config.chunked {
            LayoutKind::Chunked
        } else {
            LayoutKind::Interleaved
        },
        chunk: config.chunk_size.max(32),
        // Top-looking has no unblocked counterpart; its lazy-column
        // character matches the left-looking lane order.
        order: match config.looking {
            Looking::Right => LaneOrder::Right,
            Looking::Left | Looking::Top => LaneOrder::Left,
        },
        width: LaneWidth::Auto,
        backend: LaneBackend::Auto,
    }
}

/// The model-guided middle tier of the fallback chain: picks the analytic
/// model's top-ranked configuration for a size, memoized per `n` (the
/// ranking walks the whole parameter space, so a hot serving path must
/// not recompute it per request).
#[derive(Debug, Clone)]
struct AnalyticTier {
    spec: GpuSpec,
    batch: usize,
    memo: Arc<Mutex<BTreeMap<usize, KernelConfig>>>,
}

impl AnalyticTier {
    fn config_for(&self, n: usize) -> KernelConfig {
        let mut memo = self.memo.lock().expect("analytic memo lock");
        *memo
            .entry(n)
            .or_insert_with(|| best_config(&ParamSpace::paper(), n, self.batch, &self.spec))
    }
}

/// Chooses an [`EnginePlan`] per matrix dimension through a fallback
/// chain: the tuned dispatch table when one exists, else the analytic
/// model's pick when a GPU spec was given, else the zero-measurement
/// §11 heuristic.
#[derive(Debug, Clone, Default)]
pub struct EngineSelector {
    table: Option<DispatchTable>,
    analytic: Option<AnalyticTier>,
    backend: LaneBackend,
}

impl EngineSelector {
    /// A selector answering purely from the no-sweep heuristic.
    pub fn heuristic() -> Self {
        EngineSelector::default()
    }

    /// A selector backed by a tuned dispatch table.
    pub fn from_table(table: DispatchTable) -> Self {
        let table = if table.is_empty() { None } else { Some(table) };
        EngineSelector {
            table,
            ..EngineSelector::default()
        }
    }

    /// Loads a dispatch table saved by `ibcf tune`. A corrupt file is an
    /// error (never a silent fallback); a missing *optional* table should
    /// be handled by the caller calling [`EngineSelector::heuristic`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(Self::from_table(DispatchTable::load(path)?))
    }

    /// Adds the analytic middle tier: sizes the dispatch table cannot
    /// answer are resolved by the analytic model for `spec` at `batch`
    /// instead of dropping straight to the heuristic.
    pub fn with_analytic(mut self, spec: GpuSpec, batch: usize) -> Self {
        self.analytic = Some(AnalyticTier {
            spec,
            batch,
            memo: Arc::new(Mutex::new(BTreeMap::new())),
        });
        self
    }

    /// Forces every plan this selector produces onto `backend` (the
    /// service benches pin [`LaneBackend::Simd`]). The default is
    /// [`LaneBackend::Auto`]: SIMD where the machine has it, unless
    /// `IBCF_SIMD` lowers the ceiling.
    pub fn with_backend(mut self, backend: LaneBackend) -> Self {
        self.backend = backend;
        self
    }

    /// `true` if a sweep backs this selector.
    pub fn is_tuned(&self) -> bool {
        self.table.is_some()
    }

    /// `true` if the analytic middle tier is configured.
    pub fn has_analytic(&self) -> bool {
        self.analytic.is_some()
    }

    /// The engine plan for dimension `n`, through the fallback chain.
    pub fn plan(&self, n: usize) -> EnginePlan {
        let config = self
            .table
            .as_ref()
            .and_then(|t| t.config_for(n))
            .or_else(|| self.analytic.as_ref().map(|a| a.config_for(n)))
            .unwrap_or_else(|| heuristic_config(n));
        EnginePlan {
            backend: self.backend,
            ..plan_of(&config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_selector_yields_lane_compatible_plans() {
        let sel = EngineSelector::heuristic();
        assert!(!sel.is_tuned());
        for n in 1..=40 {
            let plan = sel.plan(n);
            let lanes = plan.lanes::<f32>();
            let layout = plan.layout(n, 3 * lanes + 1);
            assert!(
                ibcf_core::lane_batch::lane_compatible::<f32, _>(&layout, plan.width),
                "n={n} {plan:?}"
            );
        }
    }

    #[test]
    fn tuned_table_overrides_the_heuristic() {
        let mut table = DispatchTable::default();
        table.table.insert(
            16,
            KernelConfig {
                chunked: false,
                looking: Looking::Right,
                ..KernelConfig::baseline(16)
            },
        );
        let sel = EngineSelector::from_table(table);
        assert!(sel.is_tuned());
        let plan = sel.plan(16);
        assert_eq!(plan.kind, LayoutKind::Interleaved);
        assert_eq!(plan.order, LaneOrder::Right);
        // Nearby sizes interpolate through the table, not the heuristic.
        assert_eq!(sel.plan(17).kind, LayoutKind::Interleaved);
    }

    #[test]
    fn empty_table_falls_back_to_heuristic() {
        let sel = EngineSelector::from_table(DispatchTable::default());
        assert!(!sel.is_tuned());
        assert_eq!(sel.plan(16).kind, LayoutKind::Chunked);
    }

    #[test]
    fn analytic_tier_sits_between_table_and_heuristic() {
        let sel = EngineSelector::heuristic().with_analytic(GpuSpec::p100(), 4096);
        assert!(!sel.is_tuned());
        assert!(sel.has_analytic());
        // The analytic pick must produce a lane-compatible plan, and the
        // memo must make repeated queries answer identically.
        for n in [8usize, 24, 40] {
            let plan = sel.plan(n);
            assert_eq!(plan, sel.plan(n), "n={n}");
            let lanes = plan.lanes::<f32>();
            let layout = plan.layout(n, 2 * lanes + 1);
            assert!(
                ibcf_core::lane_batch::lane_compatible::<f32, _>(&layout, plan.width),
                "n={n} {plan:?}"
            );
        }
        // A tuned table still wins over the analytic tier.
        let mut table = DispatchTable::default();
        table.table.insert(
            16,
            KernelConfig {
                chunked: false,
                looking: Looking::Right,
                ..KernelConfig::baseline(16)
            },
        );
        let sel = EngineSelector::from_table(table).with_analytic(GpuSpec::p100(), 4096);
        assert_eq!(sel.plan(16).kind, LayoutKind::Interleaved);
    }

    #[test]
    fn with_backend_threads_into_every_plan() {
        let sel = EngineSelector::heuristic();
        assert_eq!(sel.plan(16).backend, LaneBackend::Auto);
        let sel = sel.with_backend(LaneBackend::Autovec);
        for n in [4usize, 16, 48] {
            assert_eq!(sel.plan(n).backend, LaneBackend::Autovec, "n={n}");
        }
    }
}
