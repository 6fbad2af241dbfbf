//! # graffix-algos
//!
//! The paper's five evaluation algorithms — SSSP, PageRank, betweenness
//! centrality, strongly connected components, and minimum spanning tree —
//! each in two forms:
//!
//! * a **simulated GPU implementation** (vertex-centric, metered by
//!   `graffix-sim`, aware of Graffix preparations: warp assignment order,
//!   replica confluence, shared-memory tiles), and
//! * an **exact CPU reference** (Dijkstra, power iteration, Brandes,
//!   Tarjan, Kruskal) used to quantify the inaccuracy each approximate
//!   transform injects — the paper's accuracy metric (§5).
//!
//! Algorithms execute against a [`Plan`], which abstracts over the three
//! baselines' processing styles (topology-driven, frontier-driven, and
//! Tigr-style virtual splitting via a non-identity attribute mapping).

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod algo;
pub mod bc;
pub mod bfs;
pub mod mst;
pub mod pagerank;
pub mod plan;
pub mod runner;
pub mod scc;
pub mod sssp;
pub mod wcc;

#[cfg(test)]
mod memo_tests;

pub use accuracy::{geomean, max_abs_error, relative_l1, scalar_inaccuracy};
pub use algo::{Algo, AlgoOutcome, NoSource, Scalar, ALL_ALGOS};
pub use plan::{Direction, Plan, PlanDerived, SimRun, Strategy};
pub use runner::{HybridFrontier, Runner, VertexProgram};

/// Convenience prelude.
pub mod prelude {
    pub use crate::accuracy::{max_abs_error, relative_l1, scalar_inaccuracy};
    pub use crate::algo::{Algo, AlgoOutcome, NoSource, Scalar, ALL_ALGOS};
    pub use crate::plan::{Direction, Plan, PlanDerived, SimRun, Strategy};
    pub use crate::runner::{HybridFrontier, Runner, VertexProgram};
    pub use crate::{bc, bfs, mst, pagerank, scc, sssp, wcc};
}
