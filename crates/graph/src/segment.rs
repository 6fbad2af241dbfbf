//! Cache-sized contiguous vertex-range partitions of a [`Csr`].
//!
//! The segmented execution path (DESIGN.md §12) splits the node range
//! into contiguous segments sized to a byte budget; each segment's
//! offset/edge/weight data is a contiguous window of the parent arrays,
//! so a segment is described by its node range and its edge range.
//! Because segments are contiguous vertex ranges, a sorted frontier
//! splits into per-segment subslices with one binary search per segment
//! — [`Segmentation::route`] hands those subslices (or, for unsorted
//! input, stable buckets) to the runner as the per-segment routing
//! buffers of one launch.
//!
//! The byte model per node mirrors what a superstep actually touches:
//! one `u64` offset entry, one `u64` of node attribute, and 4 bytes per
//! out-edge (8 when weighted). Segments sized under the L2 budget keep
//! their working set resident across the superstep — the cache-reuse
//! win GraphCage reports. The segments partition the *simulated* L2; the
//! host holds the whole graph.

use crate::csr::{Csr, EdgeId, NodeId, INVALID_NODE};
use std::borrow::Cow;

/// Bytes charged per node slot beyond its edges: a `u64` offset entry
/// plus a `u64` of per-node attribute state.
pub const BYTES_PER_NODE: usize = 16;

/// Bytes charged per out-edge: the `u32` destination, plus a `u32`
/// weight when the graph is weighted.
pub const fn bytes_per_edge(weighted: bool) -> usize {
    if weighted {
        8
    } else {
        4
    }
}

/// One contiguous vertex-range partition of a CSR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First node slot (inclusive).
    pub start: NodeId,
    /// One past the last node slot (exclusive).
    pub end: NodeId,
    /// First edge index (`offsets[start]`).
    pub edge_start: EdgeId,
    /// One past the last edge index (`offsets[end]`).
    pub edge_end: EdgeId,
}

impl Segment {
    /// Node slots covered by this segment.
    #[inline]
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        self.start..self.end
    }

    /// Number of node slots.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of out-edges sourced in this segment.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_end - self.edge_start
    }

    /// Estimated resident bytes while this segment is being processed.
    pub fn bytes(&self, weighted: bool) -> usize {
        self.num_nodes() * BYTES_PER_NODE + self.num_edges() * bytes_per_edge(weighted)
    }
}

/// A complete partition of a CSR's node range into contiguous segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segmentation {
    segments: Vec<Segment>,
    /// `starts[i] == segments[i].start`, for binary-search routing.
    starts: Vec<NodeId>,
    /// Arcs whose destination lies outside their source's segment.
    boundary_edges: u64,
}

impl Segmentation {
    /// Greedily splits `g` into contiguous segments of at most
    /// `segment_bytes` estimated bytes each (a single node whose edge
    /// list alone exceeds the budget still gets its own segment — the
    /// partition always covers every slot).
    pub fn build(g: &Csr, segment_bytes: usize) -> Segmentation {
        let offsets = g.offsets();
        let edges = g.edges_raw();
        let mut boundary_edges = 0u64;
        let segments: Vec<Segment> = Segmentation::split_ranges(g, segment_bytes)
            .into_iter()
            .map(|r| {
                let seg = Segment {
                    start: r.start,
                    end: r.end,
                    edge_start: offsets[r.start as usize],
                    edge_end: offsets[r.end as usize],
                };
                boundary_edges += edges[seg.edge_start..seg.edge_end]
                    .iter()
                    .filter(|&d| !r.contains(d))
                    .count() as u64;
                seg
            })
            .collect();
        let starts = segments.iter().map(|s| s.start).collect();
        Segmentation {
            segments,
            starts,
            boundary_edges,
        }
    }

    /// The greedy boundary pass alone: contiguous node ranges of at most
    /// `segment_bytes` estimated bytes, covering every slot. O(|V|);
    /// counting boundary arcs in [`Segmentation::build`] is the O(|E|) part.
    fn split_ranges(g: &Csr, segment_bytes: usize) -> Vec<std::ops::Range<NodeId>> {
        let n = g.num_nodes();
        let per_edge = bytes_per_edge(g.is_weighted());
        let offsets = g.offsets();
        let mut ranges = Vec::new();
        let mut start = 0usize;
        let mut acc = 0usize;
        for v in 0..n {
            let cost = BYTES_PER_NODE + (offsets[v + 1] - offsets[v]) * per_edge;
            if acc > 0 && acc + cost > segment_bytes {
                ranges.push(start as NodeId..v as NodeId);
                start = v;
                acc = 0;
            }
            acc += cost;
        }
        if n > 0 {
            ranges.push(start as NodeId..n as NodeId);
        }
        ranges
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True for the empty graph (no segments).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segments, in ascending vertex order.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Index of the segment containing slot `v` (which must be in range).
    #[inline]
    pub fn segment_of(&self, v: NodeId) -> u32 {
        match self.starts.binary_search(&v) {
            Ok(j) => j as u32,
            Err(j) => (j - 1) as u32,
        }
    }

    /// Routes the nodes of one launch to their segments: `out[i]` holds
    /// segment `i`'s nodes in input order, and is empty for a segment the
    /// launch skips. Ascending input (frontiers come sorted out of
    /// compaction) splits into zero-copy subslices; anything else
    /// (topology assignments with holes in them) takes one stable
    /// bucketing pass. Idle slots (`INVALID_NODE`) issue nothing and are
    /// dropped either way.
    pub fn route<'a>(&self, nodes: &'a [NodeId]) -> Vec<Cow<'a, [NodeId]>> {
        if nodes.windows(2).all(|w| w[0] <= w[1]) {
            return self
                .split_sorted(nodes)
                .into_iter()
                .map(|r| Cow::Borrowed(&nodes[r]))
                .collect();
        }
        let mut buckets = vec![Vec::new(); self.segments.len()];
        for &v in nodes {
            if v != INVALID_NODE {
                buckets[self.segment_of(v) as usize].push(v);
            }
        }
        buckets.into_iter().map(Cow::Owned).collect()
    }

    /// Splits an ascending-sorted node list into one contiguous subrange
    /// per segment. `out[i]` indexes into `nodes`; trailing idle slots fall
    /// outside every range.
    fn split_sorted(&self, nodes: &[NodeId]) -> Vec<std::ops::Range<usize>> {
        debug_assert!(nodes.windows(2).all(|w| w[0] <= w[1]));
        let mut out = Vec::with_capacity(self.segments.len());
        let mut lo = 0usize;
        for seg in &self.segments {
            let hi = lo + nodes[lo..].partition_point(|&v| v < seg.end);
            out.push(lo..hi);
            lo = hi;
        }
        out
    }

    /// Largest estimated per-segment resident size: the most any one
    /// segment asks of the simulated L2.
    pub fn max_segment_bytes(&self, weighted: bool) -> usize {
        self.segments
            .iter()
            .map(|s| s.bytes(weighted))
            .max()
            .unwrap_or(0)
    }

    /// Total cross-segment arcs (size of the routing workload).
    pub fn boundary_edges(&self) -> u64 {
        self.boundary_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::adversarial_graph;
    use crate::generators::{GraphKind, GraphSpec};
    use proptest::prelude::*;

    fn line(n: usize) -> Csr {
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|v| {
                if v + 1 < n {
                    vec![(v + 1) as NodeId]
                } else {
                    vec![]
                }
            })
            .collect();
        Csr::from_adjacency(adj, None)
    }

    #[test]
    fn covers_every_slot_in_order() {
        let g = GraphSpec::new(GraphKind::Rmat, 500, 4).generate();
        for budget in [512usize, 4096, usize::MAX / 2] {
            let s = Segmentation::build(&g, budget);
            assert!(!s.is_empty());
            assert_eq!(s.segments()[0].start, 0);
            assert_eq!(s.segments().last().unwrap().end as usize, g.num_nodes());
            for w in s.segments().windows(2) {
                assert_eq!(w[0].end, w[1].start, "segments must tile the range");
                assert_eq!(w[0].edge_end, w[1].edge_start);
            }
            let m: usize = s.segments().iter().map(|x| x.num_edges()).sum();
            assert_eq!(m, g.num_edges());
        }
    }

    #[test]
    fn budget_bounds_every_multi_node_segment() {
        let g = GraphSpec::new(GraphKind::SocialTwitter, 400, 8).generate();
        let budget = 2048;
        let s = Segmentation::build(&g, budget);
        assert!(s.len() > 1, "budget should force multiple segments");
        for seg in s.segments() {
            assert!(
                seg.bytes(g.is_weighted()) <= budget || seg.num_nodes() == 1,
                "segment [{}, {}) holds {} bytes over budget {budget}",
                seg.start,
                seg.end,
                seg.bytes(g.is_weighted()),
            );
        }
    }

    #[test]
    fn degenerate_single_segment() {
        let g = line(10);
        let s = Segmentation::build(&g, usize::MAX / 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.boundary_edges(), 0);
        assert_eq!(s.segment_of(9), 0);
        assert_eq!(s.split_sorted(&[0, 3, 9]), vec![0..3]);
    }

    #[test]
    fn routes_count_cross_segment_arcs() {
        // Line graph, 2 nodes per segment (cost 2*16 + edges*4):
        // every odd node's arc crosses into the next segment.
        let g = line(8);
        let s = Segmentation::build(&g, 40);
        assert_eq!(s.len(), 4);
        for seg in s.segments() {
            assert_eq!(seg.num_nodes(), 2);
        }
        assert_eq!(s.boundary_edges(), 3);
    }

    // The total `build` counts equals a brute-force count that looks up
    // both ends' segments of every arc, at budgets from one node per
    // segment to one segment.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn boundary_edges_equal_a_brute_force_count(
            g in adversarial_graph(),
            pick in 0usize..5,
        ) {
            let budget = [16, 40, 100, 512, usize::MAX / 2][pick];
            let s = Segmentation::build(&g, budget);
            let want = (0..g.num_nodes() as NodeId)
                .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
                .filter(|&(u, v)| s.segment_of(u) != s.segment_of(v))
                .count() as u64;
            prop_assert_eq!(s.boundary_edges(), want);
        }
    }

    #[test]
    fn segment_of_and_split_sorted_agree() {
        let g = GraphSpec::new(GraphKind::Road, 300, 2).generate();
        let s = Segmentation::build(&g, 1024);
        let frontier: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(7).collect();
        let ranges = s.split_sorted(&frontier);
        assert_eq!(ranges.len(), s.len());
        let mut covered = 0;
        for (i, r) in ranges.iter().enumerate() {
            for &v in &frontier[r.clone()] {
                assert_eq!(s.segment_of(v), i as u32);
            }
            covered += r.len();
        }
        assert_eq!(covered, frontier.len());
    }

    #[test]
    fn route_borrows_ascending_input_and_buckets_the_rest() {
        let g = GraphSpec::new(GraphKind::Road, 300, 2).generate();
        let s = Segmentation::build(&g, 1024);
        assert!(s.len() > 3);
        // Every third node of the upper half, then two idle slots: the
        // leading segments stay empty.
        let half = g.num_nodes() as NodeId / 2;
        let mut sorted: Vec<NodeId> = (half..g.num_nodes() as NodeId).step_by(3).collect();
        sorted.extend([INVALID_NODE, INVALID_NODE]);
        let routed = s.route(&sorted);
        assert_eq!(routed.len(), s.len());
        assert!(routed.iter().all(|r| matches!(r, Cow::Borrowed(_))));
        assert!(
            routed[0].is_empty(),
            "no node of the first segment is active"
        );
        for (i, r) in routed.iter().enumerate() {
            assert!(r.iter().all(|&v| s.segment_of(v) == i as u32));
        }
        let total: usize = routed.iter().map(|r| r.len()).sum();
        assert_eq!(total, sorted.len() - 2, "idle slots are dropped");

        // The same list back to front: owned buckets holding each
        // segment's nodes in (reversed) input order.
        let mut unsorted = sorted.clone();
        unsorted.reverse();
        let bucketed = s.route(&unsorted);
        assert!(bucketed.iter().all(|r| matches!(r, Cow::Owned(_))));
        for (b, r) in bucketed.iter().zip(&routed) {
            let mut want = r.to_vec();
            want.reverse();
            assert_eq!(b.as_ref(), &want[..]);
        }
    }

    #[test]
    fn segment_windows_match_parent_arrays() {
        let g = GraphSpec::new(GraphKind::Rmat, 200, 4).generate();
        let s = Segmentation::build(&g, 1500);
        for seg in s.segments() {
            assert_eq!(seg.edge_start, g.offsets()[seg.start as usize]);
            assert_eq!(seg.edge_end, g.offsets()[seg.end as usize]);
            let degrees: usize = seg.nodes().map(|v| g.degree(v)).sum();
            assert_eq!(seg.num_edges(), degrees);
        }
    }

    #[test]
    fn empty_graph_has_no_segments() {
        let g = Csr::from_adjacency(vec![], None);
        let s = Segmentation::build(&g, 4096);
        assert!(s.is_empty());
        assert_eq!(s.split_sorted(&[]), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(s.max_segment_bytes(false), 0);
    }
}
