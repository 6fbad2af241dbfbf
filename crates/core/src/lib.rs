//! # graffix-core
//!
//! The paper's primary contribution: three approximate, GPU-oriented graph
//! transformations, each with a tunable knob trading accuracy for speed.
//!
//! * [`coalesce`] — §2: BFS-forest renumbering with chunk-aligned levels
//!   (creating *holes*), plus connectedness-driven node replication into the
//!   holes, with per-iteration replica confluence.
//! * [`latency`] — §3: clustering-coefficient-driven shared-memory tiles,
//!   densified by 2-hop edge insertion under a global budget, processed for
//!   `t ≈ 2 × tile-diameter` iterations inside shared memory.
//! * [`divergence`] — §4: degree bucket-sort warp assignment plus degreeSim-
//!   thresholded 2-hop edge-filling (sum-rule weights) to normalize
//!   intra-warp degrees.
//!
//! Those modules hold the transforms' stages; a [`Pipeline`] with any
//! subset of the three enabled runs them and produces the [`Prepared`]
//! graph: the transformed CSR, the warp assignment order, old↔new id
//! mappings, replica groups (for confluence), shared-memory tiles, and a
//! [`TransformReport`] with the preprocessing cost and space overhead that
//! Table 5 reports.

#![forbid(unsafe_code)]

pub mod cache;
pub mod coalesce;
pub mod confluence;
pub mod divergence;
pub mod incremental;
pub mod knobs;
pub mod latency;
pub mod pipeline;
pub mod prepared;
pub mod query;
pub(crate) mod stages;
pub mod tuning;

pub use cache::{prepare_with_cache, CacheConfig, CacheOutcome, CacheStatus};
pub use confluence::ConfluenceOp;
pub use incremental::{IncrementalOutcome, IncrementalPrepare, PrepareMode, StreamError};
pub use knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs, SegmentKnobs, StreamKnobs};
pub use pipeline::{Pipeline, PipelineError};
pub use prepared::{PhaseTiming, Prepared, StageReport, Technique, Tile, TransformReport};
pub use query::{Fingerprint, QueryCtx, StageRecord, StageStatus};
pub use tuning::{auto_tune, technique_pipeline, GraphProfile, TunedKnobs, TUNING_SEED};

/// Convenience prelude.
pub mod prelude {
    pub use crate::cache::{self, prepare_with_cache, CacheConfig, CacheOutcome, CacheStatus};
    pub use crate::coalesce;
    pub use crate::confluence::ConfluenceOp;
    pub use crate::divergence;
    pub use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs, SegmentKnobs};
    pub use crate::latency;
    pub use crate::pipeline::{Pipeline, PipelineError};
    pub use crate::prepared::{
        PhaseTiming, Prepared, StageReport, Technique, Tile, TransformReport,
    };
    pub use crate::query::{QueryCtx, StageRecord, StageStatus};
    pub use crate::tuning::{auto_tune, GraphProfile, TunedKnobs};
}
