//! # graffix-sim
//!
//! A deterministic software SIMT ("GPU") simulator. This crate is the
//! substitution for the paper's NVIDIA K40C testbed (see DESIGN.md): the
//! paper's speedups stem from *countable* micro-architectural quantities —
//! memory-coalescing transactions, global- vs shared-memory latency, and
//! divergent warp-lockstep slots — and this simulator meters exactly those
//! while executing graph kernels *functionally*, so every run yields both a
//! cycle cost and a real (accuracy-measurable) result.
//!
//! ## Execution model
//!
//! A kernel launch is a **superstep**: an ordered list of vertices is
//! partitioned into warps of [`GpuConfig::warp_size`] consecutive entries
//! (so vertex numbering controls warp composition — the lever the Graffix
//! coalescing transform pulls). Each lane runs the vertex program while
//! recording a trace of memory/compute events; the warp then replays all
//! lane traces in lockstep, one step per trace position:
//!
//! * Global accesses of a step are grouped into aligned segments of
//!   [`GpuConfig::segment_words`] words; each distinct segment is one
//!   memory **transaction** costing [`GpuConfig::lat_global`].
//! * Shared-memory accesses cost [`GpuConfig::lat_shared`] with a bank-
//!   conflict multiplier.
//! * Atomics serialize per address ([`GpuConfig::lat_atomic`] × the largest
//!   same-address collision group).
//! * Lanes whose trace already ended idle; their slots are counted as
//!   **divergence waste** while the warp keeps paying issue cycles.
//!
//! Total elapsed cycles divide the summed warp cycles by an SM-parallelism
//! and latency-hiding factor — a deterministic stand-in for occupancy.

#![forbid(unsafe_code)]

pub mod attrs;
pub mod config;
pub mod event;
pub mod executor;
pub mod json;
pub mod lane;
pub mod memo;
pub mod profile;
pub mod report;
pub mod stats;
pub mod trace;
pub mod warp;

pub use attrs::{
    AtomicF64Array, AtomicU32Array, AtomicU64Array, DoubleBuffered, FixedPoint, FixedPointF64Array,
};
pub use config::GpuConfig;
pub use event::{AccessKind, ArrayId, MemEvent, Space};
pub use executor::{run_blocks, run_superstep, Block, Superstep, SuperstepOutcome};
pub use json::Json;
pub use lane::{Lane, Residency};
pub use memo::{MemoCounts, ReplayMemo};
pub use profile::CostBreakdown;
pub use report::{
    AccuracyReport, AttributionEntry, GraphMeta, ProvenanceReport, RunReport, StageProvenance,
    ValueSummary, SCHEMA_NAME, SCHEMA_VERSION, SCHEMA_VERSION_V1,
};
pub use stats::KernelStats;
pub use trace::{MetricsRegistry, Phase, Span, SuperstepSnapshot, TraceData, TraceHandle};

/// Convenience prelude.
pub mod prelude {
    pub use crate::attrs::{
        AtomicF64Array, AtomicU32Array, AtomicU64Array, DoubleBuffered, FixedPointF64Array,
    };
    pub use crate::config::GpuConfig;
    pub use crate::event::{AccessKind, ArrayId, Space};
    pub use crate::executor::{run_blocks, run_superstep, Block, Superstep, SuperstepOutcome};
    pub use crate::json::Json;
    pub use crate::lane::{Lane, Residency};
    pub use crate::profile::CostBreakdown;
    pub use crate::report::{
        AccuracyReport, AttributionEntry, GraphMeta, ProvenanceReport, RunReport, StageProvenance,
        ValueSummary,
    };
    pub use crate::stats::KernelStats;
    pub use crate::trace::{Phase, TraceData, TraceHandle};
}
