//! Typed structural errors for CSR accessors and constructors.
//!
//! A corrupt serialized graph (or a buggy transform) used to surface as an
//! out-of-bounds panic deep inside an index cast. Every bounds decision now
//! flows through these variants so callers can report a diagnostic instead
//! of aborting.

use crate::csr::{EdgeId, NodeId};
use std::fmt;

/// Structural invariant violation in a [`crate::Csr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node id at or beyond the slot count.
    NodeOutOfRange { node: NodeId, nodes: usize },
    /// A flat edge index at or beyond the edge count.
    EdgeOutOfRange { edge: EdgeId, edges: usize },
    /// The offsets array was empty (it must have `n + 1` entries).
    EmptyOffsets,
    /// `offsets[at] > offsets[at + 1]`.
    NonMonotoneOffsets { at: usize },
    /// `offsets[n]` disagrees with the edge array length.
    OffsetEdgeMismatch { last: usize, edges: usize },
    /// An edge destination at or beyond the slot count.
    EdgeTargetOutOfRange { dest: NodeId, nodes: usize },
    /// Weight array present but not parallel to the edge array.
    WeightShapeMismatch { weights: usize, edges: usize },
    /// Hole mask present but not covering every node slot.
    HoleMaskShapeMismatch { mask: usize, nodes: usize },
    /// A slot marked as a hole still spans edges in the offsets array.
    HoleWithEdges { node: NodeId, degree: usize },
    /// An edge points at a hole slot (stale arc into a renumbering hole).
    EdgeIntoHole { dest: NodeId },
    /// A weighted accessor was called on an unweighted graph.
    Unweighted,
    /// The slot count would include node id `u32::MAX`, which is reserved
    /// as the `INVALID_NODE` sentinel used by traversals and transforms.
    TooManyNodes { nodes: usize },
    /// An untrusted scalar (header field, stream token, knob) does not fit
    /// the range its destination type can represent.
    ValueOutOfRange {
        what: &'static str,
        value: u64,
        max: u64,
    },
    /// A mutation tried to attach an edge to a hole slot (holes are not
    /// logical vertices and must stay edge-free).
    MutationIntoHole { node: NodeId },
    /// A serialized graph's byte payload is shorter than its header
    /// claims (`need` bytes required, `have` present).
    Truncated {
        what: &'static str,
        need: u64,
        have: u64,
    },
    /// A serialized graph's fixed header is malformed (bad magic, unknown
    /// flags, or a misaligned array start).
    BadHeader { what: &'static str },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(f, "node id {node} out of range (n = {nodes})")
            }
            GraphError::EdgeOutOfRange { edge, edges } => {
                write!(f, "edge index {edge} out of range (m = {edges})")
            }
            GraphError::EmptyOffsets => write!(f, "offsets must have at least one entry"),
            GraphError::NonMonotoneOffsets { at } => {
                write!(f, "offsets not monotone (at index {at})")
            }
            GraphError::OffsetEdgeMismatch { last, edges } => {
                write!(f, "last offset {last} does not match edge count {edges}")
            }
            GraphError::EdgeTargetOutOfRange { dest, nodes } => {
                write!(f, "edge destination {dest} out of range (n = {nodes})")
            }
            GraphError::WeightShapeMismatch { weights, edges } => {
                write!(f, "weights not parallel to edges ({weights} vs {edges})")
            }
            GraphError::HoleMaskShapeMismatch { mask, nodes } => {
                write!(
                    f,
                    "hole mask length {mask} does not cover {nodes} node slots"
                )
            }
            GraphError::HoleWithEdges { node, degree } => {
                write!(f, "hole {node} has nonzero degree {degree}")
            }
            GraphError::EdgeIntoHole { dest } => {
                write!(f, "edge destination {dest} is a hole slot")
            }
            GraphError::Unweighted => write!(f, "graph is unweighted"),
            GraphError::TooManyNodes { nodes } => {
                write!(
                    f,
                    "{nodes} node slots would include id {}, reserved as INVALID_NODE",
                    u32::MAX
                )
            }
            GraphError::ValueOutOfRange { what, value, max } => {
                write!(f, "{what} {value} out of range (max {max})")
            }
            GraphError::MutationIntoHole { node } => {
                write!(f, "mutation attaches an edge to hole slot {node}")
            }
            GraphError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            GraphError::BadHeader { what } => write!(f, "bad GFX1 header: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<GraphError> for std::io::Error {
    fn from(e: GraphError) -> Self {
        // Wrap the typed value (not its string) so callers can downcast
        // via `io::Error::get_ref` and match on the variant; the Display
        // text is unchanged because io::Error displays its source.
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl GraphError {
    /// Recovers the typed error from an [`std::io::Error`] produced by the
    /// `From<GraphError>` conversion above (the GFX1 reader routes every
    /// structural failure through it).
    pub fn from_io(e: &std::io::Error) -> Option<&GraphError> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }
}
