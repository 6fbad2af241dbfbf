//! The unified output of every transform: a graph *prepared* for simulated
//! GPU execution, carrying everything the algorithm runners need — warp
//! assignment order, id mappings, replica groups, shared-memory tiles, and
//! the preprocessing report (Table 5).

use crate::confluence::ConfluenceOp;
use graffix_graph::{Csr, NodeId, INVALID_NODE};

/// Which transform produced a [`Prepared`] graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Technique {
    /// No transform (exact baseline execution).
    Exact,
    /// §2 coalescing transform.
    Coalescing,
    /// §3 shared-memory latency transform.
    Latency,
    /// §4 divergence transform.
    Divergence,
    /// Composition of several transforms.
    Combined,
}

impl Technique {
    /// Every technique; a variant's position is its stored ordinal.
    pub const ALL: [Technique; 5] = [
        Technique::Exact,
        Technique::Coalescing,
        Technique::Latency,
        Technique::Divergence,
        Technique::Combined,
    ];

    /// Human-readable label used in table output.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Exact => "exact",
            Technique::Coalescing => "improving coalescing",
            Technique::Latency => "reducing latency",
            Technique::Divergence => "reducing thread divergence",
            Technique::Combined => "combined",
        }
    }

    /// Short machine-readable key used in JSON schemas, CLI flags, and
    /// bench-baseline cell identifiers.
    pub fn key(self) -> &'static str {
        match self {
            Technique::Exact => "exact",
            Technique::Coalescing => "coalescing",
            Technique::Latency => "latency",
            Technique::Divergence => "divergence",
            Technique::Combined => "combined",
        }
    }

    /// Parses a [`Technique::key`] string.
    pub fn from_key(key: &str) -> Option<Technique> {
        Technique::ALL.into_iter().find(|t| t.key() == key)
    }

    /// Judges a threshold override (the CLI's `--threshold`, a request's
    /// `threshold`) before any work: it lands on the technique's primary
    /// knob — the connectedness, CC or degreeSim threshold, each a fraction
    /// in `[0, 1]` — and `exact` and `combined` have none to take it.
    pub fn check_threshold(self, threshold: f64) -> Result<(), String> {
        match self {
            Technique::Exact | Technique::Combined => Err(format!(
                "technique {} has no primary knob to set",
                self.key()
            )),
            _ if !(0.0..=1.0).contains(&threshold) => Err(format!("{threshold} is outside [0, 1]")),
            _ => Ok(()),
        }
    }
}

/// Structural delta of one pipeline stage — the per-transform provenance
/// the run-report schema (v2) attributes approximation sources with. One
/// entry per transform that actually ran, in application order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageReport {
    /// [`Technique::key`] of the stage (`coalescing`, `latency`,
    /// `divergence`).
    pub transform: String,
    /// Replica nodes this stage inserted (coalescing only).
    pub replicas: usize,
    /// Directed arcs this stage added beyond its input edge set.
    pub edges_added: usize,
    /// Absolute arc budget the stage ran under (0 = unbudgeted; the
    /// coalescing stage is bounded by hole scarcity, not an edge budget).
    pub edge_budget_arcs: usize,
}

/// Wall-clock duration of one host-side preprocessing phase. These are
/// diagnostics, not payload: phase timings never enter run reports (which
/// must be byte-identical across thread counts and cache temperature) —
/// they surface on the CLI and in the bench-baseline preprocess cells.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTiming {
    /// Phase key: `cc`, `renumber`, `replicate`, `boost`, `tile-select`,
    /// `bucket`, `normalize`, `relabel`, `cache-load`, or `cache-store`.
    pub phase: String,
    pub seconds: f64,
}

impl PhaseTiming {
    pub fn new(phase: &str, seconds: f64) -> PhaseTiming {
        PhaseTiming {
            phase: phase.to_string(),
            seconds,
        }
    }
}

/// Preprocessing cost and structural delta of a transform (Table 5 rows).
#[derive(Clone, Debug, Default)]
pub struct TransformReport {
    pub technique_label: String,
    /// Wall-clock host preprocessing time.
    pub preprocess_seconds: f64,
    /// Per-phase breakdown of `preprocess_seconds`, in execution order.
    /// On a cache hit this collapses to a single `cache-load` entry.
    pub phase_seconds: Vec<PhaseTiming>,
    pub original_nodes: usize,
    pub original_edges: usize,
    pub new_nodes: usize,
    pub new_edges: usize,
    /// Hole slots created by renumbering.
    pub holes_created: usize,
    /// Holes occupied by replicas.
    pub holes_filled: usize,
    /// Replica nodes inserted.
    pub replicas: usize,
    /// Edges added beyond the original edge set (the approximation source).
    pub edges_added: usize,
    /// Extra memory of the transformed CSR relative to the original
    /// (`new_footprint / old_footprint − 1`).
    pub space_overhead: f64,
    /// Per-transform provenance, one entry per stage that ran, in
    /// application order. The stage sums must match the aggregate
    /// `replicas` / `edges_added` fields (checked by
    /// `RunReport::verify` on v2 reports).
    pub stages: Vec<StageReport>,
}

/// One shared-memory tile: a high-CC center with its 1-hop neighborhood
/// (§3). `iterations` is the precomputed `t ≈ 2 × diameter`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tile {
    pub center: NodeId,
    /// All nodes resident in shared memory for this tile (center included).
    pub nodes: Vec<NodeId>,
    /// Inner iterations to run inside shared memory.
    pub iterations: usize,
}

/// A graph prepared for simulated execution.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The (possibly transformed) graph. May contain holes.
    pub graph: Csr,
    /// Warp-order slot assignment: consecutive entries share a warp.
    /// `INVALID_NODE` marks unfilled holes (idle lanes).
    pub assignment: Vec<NodeId>,
    /// new id → original id (`INVALID_NODE` for holes).
    pub to_original: Vec<NodeId>,
    /// original id → primary new id.
    pub primary: Vec<NodeId>,
    /// Copies of the same logical node: `(original, members)` where
    /// `members` are new ids (primary first). Only nodes with ≥ 2 copies
    /// appear.
    pub replica_groups: Vec<(NodeId, Vec<NodeId>)>,
    /// Shared-memory tiles (empty unless the latency transform ran).
    pub tiles: Vec<Tile>,
    /// Confluence operator for replica merging.
    pub confluence: ConfluenceOp,
    /// Which technique produced this.
    pub technique: Technique,
    /// Preprocessing report.
    pub report: TransformReport,
}

impl Prepared {
    /// Identity preparation: the exact graph, natural assignment order,
    /// no replicas, no tiles. This is what every baseline executes.
    pub fn exact(graph: Csr) -> Prepared {
        let n = graph.num_nodes();
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let report = TransformReport {
            technique_label: Technique::Exact.label().to_string(),
            original_nodes: n,
            original_edges: graph.num_edges(),
            new_nodes: n,
            new_edges: graph.num_edges(),
            ..Default::default()
        };
        Prepared {
            graph,
            assignment: ids.clone(),
            to_original: ids.clone(),
            primary: ids,
            replica_groups: Vec::new(),
            tiles: Vec::new(),
            confluence: ConfluenceOp::Mean,
            technique: Technique::Exact,
            report,
        }
    }

    /// Number of logical (original) vertices.
    pub fn num_original_nodes(&self) -> usize {
        self.primary.len()
    }

    /// Maps a per-new-node attribute vector back to original id space,
    /// reading each logical node's value from its primary copy.
    pub fn map_back<T: Copy>(&self, attrs: &[T]) -> Vec<T> {
        self.primary
            .iter()
            .map(|&p| {
                debug_assert_ne!(p, INVALID_NODE);
                attrs[p as usize]
            })
            .collect()
    }

    /// Overrides the confluence operator (the paper's "one can easily
    /// redefine the merging").
    pub fn with_confluence(mut self, op: ConfluenceOp) -> Prepared {
        self.confluence = op;
        self
    }

    /// Validates the internal consistency of the mappings (tests use this).
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        let n_new = self.graph.num_nodes();
        if self.to_original.len() != n_new {
            return Err("to_original length mismatch".into());
        }
        if self.assignment.len() != n_new {
            return Err(format!(
                "assignment must cover all slots: {} vs {}",
                self.assignment.len(),
                n_new
            ));
        }
        for (orig, &p) in self.primary.iter().enumerate() {
            if p == INVALID_NODE || p as usize >= n_new {
                return Err(format!("primary of {orig} out of range"));
            }
            if self.to_original[p as usize] as usize != orig {
                return Err(format!("primary mapping of {orig} not inverse"));
            }
        }
        for (orig, members) in &self.replica_groups {
            if members.len() < 2 {
                return Err("replica group with < 2 members".into());
            }
            for &m in members {
                if self.to_original[m as usize] != *orig {
                    return Err(format!("replica {m} does not map to {orig}"));
                }
            }
        }
        for tile in &self.tiles {
            for &v in &tile.nodes {
                if v as usize >= n_new {
                    return Err("tile node out of range".into());
                }
            }
        }
        let mut seen = vec![false; n_new];
        for &slot in &self.assignment {
            if slot != INVALID_NODE {
                if seen[slot as usize] {
                    return Err(format!("slot {slot} assigned twice"));
                }
                seen[slot as usize] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::GraphBuilder;

    fn small() -> Csr {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn exact_is_identity() {
        let p = Prepared::exact(small());
        p.validate().unwrap();
        assert_eq!(p.assignment, vec![0, 1, 2]);
        assert_eq!(p.map_back(&[10, 20, 30]), vec![10, 20, 30]);
        assert_eq!(p.technique, Technique::Exact);
    }

    #[test]
    fn map_back_follows_primary() {
        let mut p = Prepared::exact(small());
        // Pretend original node 0's primary moved to slot 2 and vice versa.
        p.primary = vec![2, 1, 0];
        p.to_original = vec![2, 1, 0];
        p.assignment = vec![0, 1, 2];
        p.validate().unwrap();
        assert_eq!(p.map_back(&[10, 20, 30]), vec![30, 20, 10]);
    }

    #[test]
    fn validate_catches_double_assignment() {
        let mut p = Prepared::exact(small());
        p.assignment = vec![0, 0, 1];
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_replica_group() {
        let mut p = Prepared::exact(small());
        p.replica_groups = vec![(0, vec![0])];
        assert!(p.validate().is_err());
    }

    #[test]
    fn technique_keys_roundtrip() {
        for t in [
            Technique::Exact,
            Technique::Coalescing,
            Technique::Latency,
            Technique::Divergence,
            Technique::Combined,
        ] {
            assert_eq!(Technique::from_key(t.key()), Some(t));
        }
        assert_eq!(Technique::from_key("nope"), None);
    }

    #[test]
    fn technique_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            Technique::Exact,
            Technique::Coalescing,
            Technique::Latency,
            Technique::Divergence,
            Technique::Combined,
        ]
        .iter()
        .map(|t| t.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
