//! # Graffix
//!
//! A reproduction of **"Graffix: Efficient Graph Processing with a Tinge of
//! GPU-Specific Approximations"** (Singh & Nasre, ICPP 2020) as a pure-Rust
//! library: three approximate graph transforms that trade a controlled
//! amount of result accuracy for better memory coalescing, lower memory
//! latency, and less thread divergence on a (simulated) GPU.
//!
//! ## Quick start
//!
//! ```
//! use graffix::prelude::*;
//!
//! // A power-law graph like the paper's rmat input, at toy scale.
//! let graph = GraphSpec::new(GraphKind::Rmat, 2_000, 42).generate();
//! let gpu = GpuConfig::k40c();
//!
//! // Exact baseline execution (LonestarGPU-style, topology-driven).
//! let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
//! let source = sssp::default_source(&graph);
//! let exact_run = sssp::run_sim(&exact_plan, source);
//!
//! // Approximate execution after the coalescing transform (§2): a pipeline
//! // with one stage. `with_latency`/`with_divergence` compose the others.
//! let prepared = Pipeline::default()
//!     .with_coalesce(CoalesceKnobs::for_kind(GraphKind::Rmat))
//!     .apply(&graph, &gpu);
//! let approx_plan = Baseline::Lonestar.plan(&prepared, &gpu);
//! let approx_run = sssp::run_sim(&approx_plan, source);
//!
//! // Speedup and inaccuracy — the two axes of every table in the paper.
//! let speedup = exact_run.elapsed_cycles(&gpu) as f64
//!     / approx_run.elapsed_cycles(&gpu).max(1) as f64;
//! let reference = sssp::exact_cpu(&graph, source);
//! let inaccuracy = relative_l1(&approx_run.values, &reference);
//! assert!(speedup > 0.0 && inaccuracy < 1.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graph`] (`graffix-graph`) | CSR with holes, generators, I/O, properties |
//! | [`sim`] (`graffix-sim`) | deterministic SIMT GPU simulator |
//! | [`core`] (`graffix-core`) | the three transforms, knobs, confluence, pipeline |
//! | [`algos`] (`graffix-algos`) | SSSP/PR/BC/SCC/MST, exact references, metrics |
//! | [`baselines`] (`graffix-baselines`) | LonestarGPU / Tigr / Gunrock execution styles |

#![forbid(unsafe_code)]

pub mod logging;
pub mod observe;

pub use graffix_algos as algos;
pub use graffix_baselines as baselines;
pub use graffix_core as core;
pub use graffix_graph as graph;
pub use graffix_sim as sim;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::observe::{
        assemble_report, instrument_plan, observed_run, provenance_from, traced_run, Algo,
        AlgoOutcome, RunSpec, TracedRun, ALL_ALGOS,
    };
    pub use graffix_algos::accuracy::{geomean, max_abs_error, relative_l1, scalar_inaccuracy};
    pub use graffix_algos::{
        bc, bfs, mst, pagerank, scc, sssp, wcc, Direction, Plan, Runner, Scalar, SimRun, Strategy,
        VertexProgram,
    };
    pub use graffix_baselines::{gunrock, lonestar, tigr, Baseline, ALL_BASELINES};
    pub use graffix_core::{
        auto_tune, coalesce, divergence, latency, prepare_with_cache, technique_pipeline,
        CacheConfig, CacheOutcome, CacheStatus, CoalesceKnobs, ConfluenceOp, DivergenceKnobs,
        GraphProfile, IncrementalOutcome, IncrementalPrepare, LatencyKnobs, PhaseTiming, Pipeline,
        PrepareMode, Prepared, QueryCtx, SegmentKnobs, StageRecord, StageStatus, StreamError,
        StreamKnobs, Technique, Tile, TransformReport, TunedKnobs, TUNING_SEED,
    };
    pub use graffix_graph::generators::paper_suite;
    pub use graffix_graph::{
        Csr, GraphBuilder, GraphKind, GraphSpec, NodeId, Segment, Segmentation, INVALID_NODE,
    };
    pub use graffix_sim::attrs::{
        AtomicF64Array, AtomicU32Array, AtomicU64Array, DoubleBuffered, FixedPointF64Array,
    };
    pub use graffix_sim::{
        AccuracyReport, ArrayId, AttributionEntry, CostBreakdown, GpuConfig, GraphMeta, Json,
        KernelStats, Lane, Phase, ProvenanceReport, RunReport, StageProvenance, TraceData,
        TraceHandle, ValueSummary,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable_end_to_end() {
        let g = GraphSpec::new(GraphKind::Random, 200, 1).generate();
        let gpu = GpuConfig::test_tiny();
        let plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
        let run = pagerank::run_sim(&plan);
        let exact = pagerank::exact_cpu(&g);
        assert!(relative_l1(&run.values, &exact) < 1e-4);
    }
}
