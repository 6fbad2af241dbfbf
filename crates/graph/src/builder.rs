//! Edge-list graph builder.
//!
//! Collects `(src, dst[, weight])` arcs in any order, then produces a
//! deduplicated, neighbor-sorted [`Csr`]. Counting sort over sources keeps
//! construction `O(V + E)`; neighbor lists are sorted afterwards so that
//! `has_edge` can binary-search and so the representation is canonical
//! (important for test determinism and for the simulator's address model).

use crate::csr::{Csr, NodeId};

/// Accumulates edges and builds a [`Csr`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    srcs: Vec<NodeId>,
    dsts: Vec<NodeId>,
    weights: Vec<u32>,
    weighted: bool,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` vertices. Panics when
    /// the slot count would include id `u32::MAX` (the `INVALID_NODE`
    /// sentinel); callers with untrusted counts must range-check first.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= crate::csr::INVALID_NODE as usize,
            "{num_nodes} node slots would include id {}, reserved as INVALID_NODE",
            u32::MAX
        );
        GraphBuilder {
            num_nodes,
            ..Default::default()
        }
    }

    /// Permits self-loops (dropped by default, as none of the paper's
    /// algorithms profit from them and GTgraph-style generators emit a few).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Adds an unweighted arc. Panics when mixing with weighted arcs.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        assert!(
            !self.weighted || self.srcs.is_empty(),
            "builder is weighted"
        );
        self.push(src, dst, 0);
    }

    /// Adds a weighted arc. Panics when mixing with unweighted arcs.
    pub fn add_weighted_edge(&mut self, src: NodeId, dst: NodeId, weight: u32) {
        assert!(
            self.weighted || self.srcs.is_empty(),
            "builder is unweighted"
        );
        self.weighted = true;
        self.push(src, dst, weight);
    }

    fn push(&mut self, src: NodeId, dst: NodeId, weight: u32) {
        assert!(
            (src as usize) < self.num_nodes && (dst as usize) < self.num_nodes,
            "edge ({src}, {dst}) out of range for {} nodes",
            self.num_nodes
        );
        if src == dst && !self.allow_self_loops {
            return;
        }
        self.srcs.push(src);
        self.dsts.push(dst);
        if self.weighted {
            self.weights.push(weight);
        }
    }

    /// Adds both arcs of an undirected unweighted edge.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b);
        if a != b {
            self.add_edge(b, a);
        }
    }

    /// Adds both arcs of an undirected weighted edge.
    pub fn add_undirected_weighted_edge(&mut self, a: NodeId, b: NodeId, weight: u32) {
        self.add_weighted_edge(a, b, weight);
        if a != b {
            self.add_weighted_edge(b, a, weight);
        }
    }

    /// Builds the CSR: counting-sorts arcs by source, sorts each neighbor
    /// list, and removes parallel duplicates (keeping the *minimum* weight
    /// of a duplicate group, the conventional choice for shortest-path and
    /// spanning-tree inputs).
    pub fn build(self) -> Csr {
        let n = self.num_nodes;
        let m = self.srcs.len();
        let mut deg = vec![0usize; n];
        for &s in &self.srcs {
            deg[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + deg[v]);
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0 as NodeId; m];
        let mut weights = if self.weighted {
            vec![0u32; m]
        } else {
            Vec::new()
        };
        for i in 0..m {
            let s = self.srcs[i] as usize;
            let slot = cursor[s];
            cursor[s] += 1;
            edges[slot] = self.dsts[i];
            if self.weighted {
                weights[slot] = self.weights[i];
            }
        }

        // Sort each neighbor list and deduplicate, compacting in place.
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0usize);
        let mut out_edges: Vec<NodeId> = Vec::with_capacity(m);
        let mut out_weights: Vec<u32> = if self.weighted {
            Vec::with_capacity(m)
        } else {
            Vec::new()
        };
        let mut scratch: Vec<(NodeId, u32)> = Vec::new();
        for v in 0..n {
            scratch.clear();
            for e in offsets[v]..offsets[v + 1] {
                let w = if self.weighted { weights[e] } else { 0 };
                scratch.push((edges[e], w));
            }
            // Sort by destination then weight so dedup keeps the min weight.
            scratch.sort_unstable();
            let mut last: Option<NodeId> = None;
            for &(d, w) in scratch.iter() {
                if last == Some(d) {
                    continue;
                }
                last = Some(d);
                out_edges.push(d);
                if self.weighted {
                    out_weights.push(w);
                }
            }
            new_offsets.push(out_edges.len());
        }
        Csr::from_parts(new_offsets, out_edges, out_weights, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        b.add_edge(0, 2); // duplicate
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_kept_when_allowed() {
        let mut b = GraphBuilder::new(2).allow_self_loops(true);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn duplicate_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 9);
        b.add_weighted_edge(0, 1, 4);
        b.add_weighted_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.edge_weights(0), &[4]);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 2);
        let g = b.build();
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "builder is weighted")]
    fn rejects_mixed_weightedness() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1);
        b.add_edge(1, 0);
    }

    #[test]
    fn empty_graph_ok() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_lists() {
        let g = GraphBuilder::new(4).build();
        for v in 0..4 {
            assert!(g.neighbors(v).is_empty());
        }
    }
}
