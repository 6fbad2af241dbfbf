//! # graffix-graph
//!
//! Graph substrate for the Graffix reproduction: a CSR representation with
//! explicit *hole* support (as produced by the Graffix renumbering scheme),
//! an edge-list builder, synthetic graph generators mirroring the paper's
//! input suite (Table 1), text/DIMACS I/O, structural property analyses
//! (degree distribution, clustering coefficient, diameter estimation), and
//! BFS/DFS traversal utilities used by the transforms.
//!
//! All node ids are dense `u32` indices. Edges are directed; undirected
//! graphs are represented by storing both arcs.

#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod error;
pub mod generators;
pub mod io;
pub mod mutation;
pub mod properties;
pub mod segment;
pub mod serialize;
pub mod traversal;
pub mod triangles;

pub use builder::GraphBuilder;
pub use csr::{undirected_build_count, Csr, EdgeId, NodeId, INVALID_NODE};
pub use error::GraphError;
pub use generators::{GraphKind, GraphSpec};
pub use mutation::{parse_stream, BatchOutcome, EdgeBatch};
pub use segment::{Segment, Segmentation};
pub use triangles::TriangleIndex;

/// Convenience prelude bringing the most common items into scope.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::csr::{Csr, EdgeId, NodeId, INVALID_NODE};
    pub use crate::error::GraphError;
    pub use crate::generators::{GraphKind, GraphSpec};
    pub use crate::properties;
    pub use crate::segment::{Segment, Segmentation};
    pub use crate::traversal;
}
