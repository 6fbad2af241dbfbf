//! Compressed Sparse Row graph representation.
//!
//! The CSR used throughout Graffix differs from a textbook CSR in one way:
//! the node array may contain **holes** — node slots that carry no edges and
//! no logical vertex. Holes arise from the Graffix renumbering scheme, where
//! every BFS level begins at a multiple of the chunk size `k` (paper §2.2),
//! and are later filled by node replicas (paper §2.3). A hole is encoded as
//! a zero-degree node whose bit is set in [`Csr::hole_mask`].

/// Dense node identifier. The paper's graphs use numeric vertex ids; `u32`
/// covers every graph the harness generates while halving index memory
/// compared to `usize` (a deliberate HPC choice: smaller indices mean fewer
/// memory transactions in the simulator and the host alike).
pub type NodeId = u32;

/// Index into the edge array.
pub type EdgeId = usize;

/// Sentinel for "no node" (used by traversals and transforms).
pub const INVALID_NODE: NodeId = u32::MAX;

use crate::error::GraphError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide count of undirected-view constructions, exposed so tests can
/// assert the memoization actually shares work (see
/// [`undirected_build_count`]).
static UNDIRECTED_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// Number of times any [`Csr::undirected`] view has been *built* (cache
/// misses) since process start. Cache hits do not increment this.
pub fn undirected_build_count() -> usize {
    UNDIRECTED_BUILDS.load(Ordering::Relaxed)
}

/// Panics when `n` node slots would put the `INVALID_NODE` sentinel into the
/// live id space.
fn assert_slot_count(n: usize) {
    assert!(
        n <= INVALID_NODE as usize,
        "{n} node slots would include id {}, reserved as INVALID_NODE",
        u32::MAX
    );
}

/// A directed graph in CSR form with optional edge weights and hole support.
///
/// The four arrays are immutable once built and shared behind `Arc`s, so a
/// clone allocates nothing; every change (a new hole mask, a mutation
/// batch) swaps in a whole new array and leaves other clones as they were.
/// The `Vec` inside the `Arc` lets a builder's vector become an array
/// without a copy.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` spans `v`'s out-edges. Length `n + 1`.
    offsets: Arc<Vec<EdgeId>>,
    /// Flat destination array.
    edges: Arc<Vec<NodeId>>,
    /// Parallel weight array; empty for unweighted graphs.
    weights: Arc<Vec<u32>>,
    /// `hole_mask[v]` is true when slot `v` is a renumbering hole rather
    /// than a logical vertex. Empty when the graph has no holes.
    hole_mask: Arc<Vec<bool>>,
    /// Lazily built, shared undirected view (see [`Csr::undirected`]).
    /// Cloning a `Csr` clones the `Arc`, so clones share the built view;
    /// the mask setters reset it because the view depends on the mask.
    undirected: OnceLock<Arc<Csr>>,
    /// Lazily built, shared transpose (CSC mirror), memoized like the
    /// undirected view so every plan over the same graph shares one CSC.
    transposed: OnceLock<Arc<Csr>>,
}

impl Csr {
    /// Builds a CSR from per-node adjacency lists. Weighted lists must have
    /// the same shape as `adj`.
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>, weights: Option<Vec<Vec<u32>>>) -> Self {
        let n = adj.len();
        assert_slot_count(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut edges = Vec::with_capacity(total);
        let mut flat_weights = Vec::new();
        if weights.is_some() {
            flat_weights.reserve(total);
        }
        offsets.push(0);
        for (v, nbrs) in adj.iter().enumerate() {
            edges.extend_from_slice(nbrs);
            if let Some(w) = &weights {
                assert_eq!(
                    w[v].len(),
                    nbrs.len(),
                    "weight list shape must match adjacency shape"
                );
                flat_weights.extend_from_slice(&w[v]);
            }
            offsets.push(edges.len());
        }
        Csr {
            offsets: offsets.into(),
            edges: edges.into(),
            weights: flat_weights.into(),
            hole_mask: Arc::default(),
            undirected: OnceLock::new(),
            transposed: OnceLock::new(),
        }
    }

    /// Builds a CSR from per-node `(destination, weight)` rows, kept in the
    /// order given. The weights are dropped when `weighted` is false.
    pub fn from_rows(rows: &[Vec<(NodeId, u32)>], weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for row in rows {
            offsets.push(offsets[offsets.len() - 1] + row.len());
        }
        Csr::from_flat_pairs(offsets, rows.iter().flatten().copied(), weighted)
    }

    /// Relabels the graph through `new_of_old` into `total` node slots:
    /// arc `u -> v` becomes `new_of_old[u] -> new_of_old[v]`, every row is
    /// sorted by `(destination, weight)`, and a slot no node maps to gets an
    /// empty row. The map is expected to be injective (nodes sharing a slot
    /// would share its row) with every entry below `total`. The result
    /// carries no hole mask: which slots are holes is the caller's call.
    ///
    /// One counting sort over flat arrays — count, prefix sum, scatter, sort
    /// each row in place.
    pub fn relabeled(&self, new_of_old: &[NodeId], total: usize) -> Csr {
        let slot = |old: NodeId| new_of_old[old as usize] as usize;
        let mut offsets = vec![0usize; total + 1];
        for u in self.node_ids() {
            offsets[slot(u) + 1] += self.degree(u);
        }
        for v in 0..total {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut pairs: Vec<(NodeId, u32)> = vec![(0, 0); offsets[total]];
        for u in self.node_ids() {
            let at = &mut cursor[slot(u)];
            for e in self.edge_range(u) {
                pairs[*at] = (new_of_old[self.edges[e] as usize], self.weight_at(e));
                *at += 1;
            }
        }
        for v in 0..total {
            pairs[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Csr::from_flat_pairs(offsets, pairs.into_iter(), self.is_weighted())
    }

    /// Splits flat `(destination, weight)` pairs, already laid out row by
    /// row under `offsets`, into the edge and weight arrays.
    fn from_flat_pairs(
        offsets: Vec<EdgeId>,
        pairs: impl Iterator<Item = (NodeId, u32)>,
        weighted: bool,
    ) -> Csr {
        let n = offsets.len() - 1;
        assert_slot_count(n);
        let m = offsets[n];
        let mut edges = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(if weighted { m } else { 0 });
        for (dst, w) in pairs {
            edges.push(dst);
            if weighted {
                weights.push(w);
            }
        }
        Csr {
            offsets: offsets.into(),
            edges: edges.into(),
            weights: weights.into(),
            hole_mask: Arc::default(),
            undirected: OnceLock::new(),
            transposed: OnceLock::new(),
        }
    }

    /// Builds a CSR directly from raw parts, reporting any violated
    /// invariant (monotone offsets, edge targets in range, weight shape,
    /// hole degrees) as a typed [`GraphError`]. This is the entry point for
    /// untrusted input such as deserialized graphs.
    pub fn try_from_parts(
        offsets: Vec<EdgeId>,
        edges: Vec<NodeId>,
        weights: Vec<u32>,
        hole_mask: Vec<bool>,
    ) -> Result<Self, GraphError> {
        let g = Csr {
            offsets: offsets.into(),
            edges: edges.into(),
            weights: weights.into(),
            hole_mask: hole_mask.into(),
            undirected: OnceLock::new(),
            transposed: OnceLock::new(),
        };
        g.check()?;
        Ok(g)
    }

    /// Builds a CSR directly from raw parts. Panics when the invariants do
    /// not hold; use [`Csr::try_from_parts`] for untrusted input.
    pub fn from_parts(
        offsets: Vec<EdgeId>,
        edges: Vec<NodeId>,
        weights: Vec<u32>,
        hole_mask: Vec<bool>,
    ) -> Self {
        match Csr::try_from_parts(offsets, edges, weights, hole_mask) {
            Ok(g) => g,
            Err(e) => panic!("invalid CSR parts: {e}"),
        }
    }

    /// Number of node slots, including holes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical (non-hole) vertices.
    pub fn num_real_nodes(&self) -> usize {
        if self.hole_mask.is_empty() {
            self.num_nodes()
        } else {
            self.hole_mask.iter().filter(|&&h| !h).count()
        }
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Central checked cast from a node id to an array index. Every public
    /// accessor funnels through here, so an id ≥ `n` from a corrupt graph
    /// surfaces as a typed [`GraphError`] instead of a slice panic.
    #[inline]
    pub fn node_index(&self, v: NodeId) -> Result<usize, GraphError> {
        let idx = v as usize;
        if idx < self.num_nodes() {
            Ok(idx)
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v,
                nodes: self.num_nodes(),
            })
        }
    }

    /// Raw offsets span for slot `idx`, ignoring the hole mask. Used by
    /// validation, which must see stale edges that [`Csr::edge_range`]
    /// deliberately hides for holes.
    #[inline]
    fn raw_span(&self, idx: usize) -> std::ops::Range<EdgeId> {
        self.offsets[idx]..self.offsets[idx + 1]
    }

    /// Out-degree of `v` as a checked lookup. Hole slots report degree 0
    /// even when the offsets array spans stale edges, so degree and
    /// [`Csr::is_hole`] always agree (pull-mode traversal over a transpose
    /// relies on this to never walk a hole's stale arcs).
    #[inline]
    pub fn try_degree(&self, v: NodeId) -> Result<usize, GraphError> {
        let idx = self.node_index(v)?;
        if self.is_hole(v) {
            return Ok(0);
        }
        Ok(self.offsets[idx + 1] - self.offsets[idx])
    }

    /// Out-degree of `v`. Panics with a diagnostic on an out-of-range id;
    /// use [`Csr::try_degree`] for untrusted ids.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        match self.try_degree(v) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Edge-array range for `v`'s out-edges (empty for hole slots, matching
    /// [`Csr::degree`]).
    #[inline]
    pub fn try_edge_range(&self, v: NodeId) -> Result<std::ops::Range<EdgeId>, GraphError> {
        let idx = self.node_index(v)?;
        if self.is_hole(v) {
            return Ok(self.offsets[idx]..self.offsets[idx]);
        }
        Ok(self.raw_span(idx))
    }

    /// Edge-array range for `v`'s out-edges. Panics with a diagnostic on an
    /// out-of-range id; use [`Csr::try_edge_range`] for untrusted ids.
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<EdgeId> {
        match self.try_edge_range(v) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Out-neighbors of `v` as a checked lookup.
    #[inline]
    pub fn try_neighbors(&self, v: NodeId) -> Result<&[NodeId], GraphError> {
        Ok(&self.edges[self.try_edge_range(v)?])
    }

    /// Out-neighbors of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.edges[self.edge_range(v)]
    }

    /// Weights parallel to [`Csr::neighbors`] as a checked lookup.
    #[inline]
    pub fn try_edge_weights(&self, v: NodeId) -> Result<&[u32], GraphError> {
        if !self.is_weighted() {
            return Err(GraphError::Unweighted);
        }
        Ok(&self.weights[self.try_edge_range(v)?])
    }

    /// Weights parallel to [`Csr::neighbors`]. Panics on unweighted graphs.
    #[inline]
    pub fn edge_weights(&self, v: NodeId) -> &[u32] {
        match self.try_edge_weights(v) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Weight of the edge at flat index `e` as a checked lookup (1 for
    /// unweighted graphs).
    #[inline]
    pub fn try_weight_at(&self, e: EdgeId) -> Result<u32, GraphError> {
        if e >= self.edges.len() {
            return Err(GraphError::EdgeOutOfRange {
                edge: e,
                edges: self.edges.len(),
            });
        }
        Ok(if self.weights.is_empty() {
            1
        } else {
            self.weights[e]
        })
    }

    /// Weight of the edge at flat index `e` (1 for unweighted graphs, so
    /// unweighted algorithms can treat every arc as unit length).
    #[inline]
    pub fn weight_at(&self, e: EdgeId) -> u32 {
        if self.weights.is_empty() {
            1
        } else {
            self.weights[e]
        }
    }

    /// Raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[EdgeId] {
        &self.offsets
    }

    /// Raw edge array.
    #[inline]
    pub fn edges_raw(&self) -> &[NodeId] {
        &self.edges
    }

    /// Raw weights array (empty when unweighted).
    #[inline]
    pub fn weights_raw(&self) -> &[u32] {
        &self.weights
    }

    /// True when slot `v` is a hole. Out-of-range ids and mask shapes are
    /// treated as "not a hole" so the guard never panics on corrupt input.
    #[inline]
    pub fn is_hole(&self, v: NodeId) -> bool {
        !self.hole_mask.is_empty() && self.hole_mask.get(v as usize).copied().unwrap_or(false)
    }

    /// Whether the CSR contains any holes.
    pub fn has_holes(&self) -> bool {
        self.hole_mask.iter().any(|&h| h)
    }

    /// Number of hole slots.
    pub fn num_holes(&self) -> usize {
        self.hole_mask.iter().filter(|&&h| h).count()
    }

    /// Iterator over logical (non-hole) node ids.
    pub fn real_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as NodeId).filter(move |&v| !self.is_hole(v))
    }

    /// Iterator over every node slot id (including holes).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all `(src, dst, weight)` triples.
    pub fn edge_triples(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.node_ids().flat_map(move |v| {
            self.edge_range(v).map(move |e| {
                let w = self.weight_at(e);
                (v, self.edges[e], w)
            })
        })
    }

    /// Push-side in-degree accumulation: one pass over the destination
    /// array. This is the reference the CSC mirror's per-slot degrees are
    /// property-tested against.
    pub fn in_degrees(&self) -> Vec<usize> {
        let n = self.num_nodes();
        let mut in_deg = vec![0usize; n];
        for &d in self.edges.iter() {
            in_deg[d as usize] += 1;
        }
        in_deg
    }

    /// Builds the transpose (reverse) graph. Holes are carried over so slot
    /// numbering is preserved.
    pub fn transpose(&self) -> Csr {
        let n = self.num_nodes();
        let in_deg = self.in_degrees();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + in_deg[v]);
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0 as NodeId; self.edges.len()];
        let mut weights = if self.is_weighted() {
            vec![0u32; self.edges.len()]
        } else {
            Vec::new()
        };
        for v in 0..n as NodeId {
            for e in self.edge_range(v) {
                let d = self.edges[e] as usize;
                let slot = cursor[d];
                cursor[d] += 1;
                edges[slot] = v;
                if !weights.is_empty() {
                    weights[slot] = self.weights[e];
                }
            }
        }
        Csr {
            offsets: offsets.into(),
            edges: edges.into(),
            weights: weights.into(),
            hole_mask: self.hole_mask.clone(),
            undirected: OnceLock::new(),
            transposed: OnceLock::new(),
        }
    }

    /// Memoized, shared transpose view. The first call builds the CSC
    /// mirror via [`Csr::transpose`] and caches it behind an `Arc`; later
    /// calls — including calls on clones of this graph — return the shared
    /// instance. Pull-direction plans all need the CSC, so sharing it here
    /// means one transpose per distinct graph instead of one per plan.
    pub fn transposed(&self) -> Arc<Csr> {
        self.transposed
            .get_or_init(|| Arc::new(self.transpose()))
            .clone()
    }

    /// Memoized, shared undirected view. The first call builds the closure
    /// (see [`Csr::to_undirected`]) and caches it behind an `Arc`; later
    /// calls — including calls on clones of this graph — return the shared
    /// instance. Preprocessing passes that all need the undirected view
    /// (clustering coefficients, tile selection, diameter estimation) go
    /// through here so a full transform builds it once per distinct graph.
    pub fn undirected(&self) -> Arc<Csr> {
        self.undirected
            .get_or_init(|| {
                UNDIRECTED_BUILDS.fetch_add(1, Ordering::Relaxed);
                Arc::new(self.build_undirected())
            })
            .clone()
    }

    /// Builds the undirected closure: for every arc `u -> v` the result also
    /// contains `v -> u` (duplicates removed). Used by clustering-coefficient
    /// analysis, which the paper computes on the undirected view (§3).
    /// The result shares the memoized view's arrays (see [`Csr::undirected`]).
    pub fn to_undirected(&self) -> Csr {
        (*self.undirected()).clone()
    }

    /// The undirected view, merge-built: one counting scatter lays out every
    /// node's in-row (sources ascending, self-loops dropped), then each
    /// out-row is merged with its in-row, keeping the minimum weight per
    /// neighbor. An out-row not sorted by destination is merged from a
    /// sorted scratch copy. The result is sorted, loop-free and
    /// duplicate-free: each neighbor once, at its lightest arc in either
    /// direction.
    fn build_undirected(&self) -> Csr {
        let n = self.num_nodes();
        let weighted = self.is_weighted();
        let weight = |ws: &[u32], i: usize| if weighted { ws[i] } else { 1 };
        let mut in_bounds = vec![0usize; n + 1];
        for u in self.node_ids() {
            for &v in self.neighbors(u) {
                if v != u {
                    in_bounds[v as usize + 1] += 1;
                }
            }
        }
        for v in 0..n {
            in_bounds[v + 1] += in_bounds[v];
        }
        let mut cursor = in_bounds.clone();
        let mut in_src = vec![0 as NodeId; in_bounds[n]];
        let mut in_w = vec![0u32; if weighted { in_bounds[n] } else { 0 }];
        for u in self.node_ids() {
            for e in self.edge_range(u) {
                let v = self.edges[e] as usize;
                if v != u as usize {
                    in_src[cursor[v]] = u;
                    if weighted {
                        in_w[cursor[v]] = self.weights[e];
                    }
                    cursor[v] += 1;
                }
            }
        }
        let bound = self.num_edges() + in_src.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut edges = Vec::with_capacity(bound);
        let mut weights = Vec::with_capacity(if weighted { bound } else { 0 });
        for v in self.node_ids() {
            let arcs = self.edge_range(v);
            let mut out = &self.edges[arcs.clone()];
            let mut out_w = if weighted {
                &self.weights[arcs.clone()]
            } else {
                &[][..]
            };
            let (sorted_dst, sorted_w): (Vec<NodeId>, Vec<u32>);
            if !out.is_sorted() {
                let mut pairs: Vec<_> = arcs.map(|e| (self.edges[e], self.weight_at(e))).collect();
                pairs.sort_unstable();
                (sorted_dst, sorted_w) = pairs.into_iter().unzip();
                (out, out_w) = (&sorted_dst, &sorted_w);
            }
            let ins = in_bounds[v as usize]..in_bounds[v as usize + 1];
            let inn = &in_src[ins.clone()];
            let inn_w = if weighted { &in_w[ins] } else { &[][..] };
            let (mut i, mut j) = (0, 0);
            loop {
                let nbr = match (out.get(i), inn.get(j)) {
                    (Some(&a), Some(&b)) => a.min(b),
                    (Some(&a), None) => a,
                    (None, Some(&b)) => b,
                    (None, None) => break,
                };
                let mut lightest = u32::MAX;
                while out.get(i) == Some(&nbr) {
                    lightest = lightest.min(weight(out_w, i));
                    i += 1;
                }
                while inn.get(j) == Some(&nbr) {
                    lightest = lightest.min(weight(inn_w, j));
                    j += 1;
                }
                if nbr != v {
                    edges.push(nbr);
                    if weighted {
                        weights.push(lightest);
                    }
                }
            }
            offsets.push(edges.len());
        }
        Csr {
            offsets: offsets.into(),
            edges: edges.into(),
            weights: weights.into(),
            hole_mask: self.hole_mask.clone(),
            undirected: OnceLock::new(),
            transposed: OnceLock::new(),
        }
    }

    /// Checks structural invariants, reporting the first violation as a
    /// typed [`GraphError`]. Hole checks look at the *raw* offsets spans so
    /// a hole hiding stale edges behind the degree unification still fails.
    pub fn check(&self) -> Result<(), GraphError> {
        if self.offsets.is_empty() {
            return Err(GraphError::EmptyOffsets);
        }
        let n = self.num_nodes();
        // Slot count n means ids 0..n-1; n > u32::MAX would put the
        // INVALID_NODE sentinel into the live id space.
        if n > INVALID_NODE as usize {
            return Err(GraphError::TooManyNodes { nodes: n });
        }
        if let Some(at) = self.offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::NonMonotoneOffsets { at });
        }
        let last = *self.offsets.last().unwrap();
        if last != self.edges.len() {
            return Err(GraphError::OffsetEdgeMismatch {
                last,
                edges: self.edges.len(),
            });
        }
        if let Some(&bad) = self.edges.iter().find(|&&d| d as usize >= n) {
            return Err(GraphError::EdgeTargetOutOfRange {
                dest: bad,
                nodes: n,
            });
        }
        if !self.weights.is_empty() && self.weights.len() != self.edges.len() {
            return Err(GraphError::WeightShapeMismatch {
                weights: self.weights.len(),
                edges: self.edges.len(),
            });
        }
        if !self.hole_mask.is_empty() {
            if self.hole_mask.len() != n {
                return Err(GraphError::HoleMaskShapeMismatch {
                    mask: self.hole_mask.len(),
                    nodes: n,
                });
            }
            for v in 0..n {
                if self.hole_mask[v] {
                    let span = self.raw_span(v);
                    if !span.is_empty() {
                        return Err(GraphError::HoleWithEdges {
                            node: v as NodeId,
                            degree: span.len(),
                        });
                    }
                }
            }
            if let Some(&bad) = self.edges.iter().find(|&&d| self.is_hole(d)) {
                return Err(GraphError::EdgeIntoHole { dest: bad });
            }
        }
        Ok(())
    }

    /// Checks structural invariants; used by tests and debug assertions.
    /// String-typed variant of [`Csr::check`] kept for existing callers.
    pub fn validate(&self) -> Result<(), String> {
        self.check().map_err(|e| e.to_string())
    }

    /// Sets the hole mask, reporting a typed error when the mask shape is
    /// wrong or a marked hole carries edges.
    pub fn try_set_hole_mask(&mut self, mask: Vec<bool>) -> Result<(), GraphError> {
        if mask.len() != self.num_nodes() {
            return Err(GraphError::HoleMaskShapeMismatch {
                mask: mask.len(),
                nodes: self.num_nodes(),
            });
        }
        for (v, &hole) in mask.iter().enumerate() {
            let span = self.raw_span(v);
            if hole && !span.is_empty() {
                return Err(GraphError::HoleWithEdges {
                    node: v as NodeId,
                    degree: span.len(),
                });
            }
        }
        if let Some(&bad) = self
            .edges
            .iter()
            .find(|&&d| mask.get(d as usize).copied().unwrap_or(false))
        {
            return Err(GraphError::EdgeIntoHole { dest: bad });
        }
        self.hole_mask = mask.into();
        // The undirected and transpose views carry the hole mask, so a
        // mask change invalidates any cached copy of either.
        self.undirected = OnceLock::new();
        self.transposed = OnceLock::new();
        Ok(())
    }

    /// Sets the hole mask. Panics when a marked hole carries edges.
    pub fn set_hole_mask(&mut self, mask: Vec<bool>) {
        if let Err(e) = self.try_set_hole_mask(mask) {
            panic!("invalid hole mask: {e} (holes must not carry edges)");
        }
    }

    /// Memory footprint of the CSR arrays in bytes (offsets + edges +
    /// weights + mask). Used to report the paper's "additional space"
    /// preprocessing overhead (Table 5).
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<EdgeId>()
            + self.edges.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<u32>()
            + self.hole_mask.len()
    }

    /// True when `u -> v` exists (binary search when the list is sorted,
    /// falls back to linear scan otherwise).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let nbrs = self.neighbors(u);
        if nbrs.windows(2).all(|w| w[0] <= w[1]) {
            nbrs.binary_search(&v).is_ok()
        } else {
            nbrs.contains(&v)
        }
    }

    /// Maximum out-degree over non-hole nodes (0 for empty graphs).
    pub fn max_degree(&self) -> usize {
        self.real_nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Mean out-degree over non-hole nodes.
    pub fn mean_degree(&self) -> f64 {
        let n = self.num_real_nodes();
        if n == 0 {
            0.0
        } else {
            self.num_edges() as f64 / n as f64
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Graphs no builder makes: rows in arbitrary order, parallel arcs of
    /// unequal weights, self-loops, holes, dangling nodes — weighted or
    /// not, with 0, 1 and 2 nodes drawn more often than the rest.
    pub(crate) fn adversarial_graph() -> impl Strategy<Value = Csr> {
        (0usize..30, 0u8..2)
            .prop_flat_map(|(n, weighted)| {
                let n = if n < 24 { n } else { n % 3 };
                let node = (0u8..5, prop::collection::vec((0u32..1_000, 1u32..6), 0..7));
                (Just(weighted == 1), prop::collection::vec(node, n..n + 1))
            })
            .prop_map(|(weighted, nodes)| {
                let hole: Vec<bool> = nodes.iter().map(|(h, _)| *h == 0).collect();
                let real: Vec<NodeId> = (0..nodes.len() as NodeId)
                    .filter(|&v| !hole[v as usize])
                    .collect();
                let (mut offsets, mut edges, mut weights) = (vec![0], Vec::new(), Vec::new());
                for (v, (_, arcs)) in nodes.iter().enumerate() {
                    if !hole[v] {
                        for &(pick, w) in arcs {
                            edges.push(real[pick as usize % real.len()]);
                            if weighted {
                                weights.push(w);
                            }
                        }
                    }
                    offsets.push(edges.len());
                }
                let mask = if hole.contains(&true) {
                    hole
                } else {
                    Vec::new()
                };
                Csr::from_parts(offsets, edges, weights, mask)
            })
    }

    /// The undirected view as it was built before the merge: every arc
    /// scattered both ways, each row sorted by (neighbor, weight), the first
    /// copy of each neighbor kept.
    fn sorted_undirected(g: &Csr) -> Csr {
        let n = g.num_nodes();
        let weighted = g.is_weighted();
        let mut bounds = vec![0usize; n + 1];
        for (u, v, _) in g.edge_triples() {
            if u != v {
                bounds[u as usize + 1] += 1;
                bounds[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            bounds[v + 1] += bounds[v];
        }
        let mut cursor = bounds.clone();
        let mut pairs: Vec<(NodeId, u32)> = vec![(0, 0); bounds[n]];
        for (u, v, w) in g.edge_triples() {
            if u != v {
                pairs[cursor[u as usize]] = (v, w);
                cursor[u as usize] += 1;
                pairs[cursor[v as usize]] = (u, w);
                cursor[v as usize] += 1;
            }
        }
        let (mut offsets, mut edges, mut weights) = (vec![0usize], Vec::new(), Vec::new());
        for v in 0..n {
            let range = &mut pairs[bounds[v]..bounds[v + 1]];
            range.sort_unstable();
            let mut last = INVALID_NODE;
            for &(nbr, w) in range.iter() {
                if nbr != last {
                    edges.push(nbr);
                    if weighted {
                        weights.push(w);
                    }
                    last = nbr;
                }
            }
            offsets.push(edges.len());
        }
        Csr::from_parts(offsets, edges, weights, g.hole_mask.to_vec())
    }

    fn assert_same_view(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
        assert_eq!(got.edges_raw(), want.edges_raw(), "{what}: edges");
        assert_eq!(got.weights_raw(), want.weights_raw(), "{what}: weights");
        assert_eq!(got.hole_mask, want.hole_mask, "{what}: hole mask");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merged_undirected_view_equals_the_sorted_build(g in adversarial_graph()) {
            let got = g.build_undirected();
            let want = sorted_undirected(&g);
            prop_assert_eq!(got.offsets(), want.offsets());
            prop_assert_eq!(got.edges_raw(), want.edges_raw());
            prop_assert_eq!(got.weights_raw(), want.weights_raw());
            prop_assert_eq!(&got.hole_mask, &want.hole_mask);
        }
    }

    #[test]
    fn merged_undirected_view_equals_the_sorted_build_at_2_14() {
        use crate::generators::{GraphKind, GraphSpec};
        for kind in [
            GraphKind::Rmat,
            GraphKind::Road,
            GraphKind::SocialLiveJournal,
        ] {
            let g = GraphSpec::new(kind, 1 << 14, 7).generate();
            assert_same_view(&g.build_undirected(), &sorted_undirected(&g), kind.key());
        }
    }

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_adjacency(vec![vec![1, 2], vec![3], vec![3], vec![]], None)
    }

    #[test]
    fn adjacency_roundtrip() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.degree(0), 2);
        g.validate().unwrap();
    }

    #[test]
    fn weighted_construction() {
        let g = Csr::from_adjacency(vec![vec![1], vec![0]], Some(vec![vec![7], vec![9]]));
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0), &[7]);
        assert_eq!(g.weight_at(1), 9);
    }

    #[test]
    fn unweighted_weight_is_unit() {
        let g = diamond();
        assert_eq!(g.weight_at(0), 1);
    }

    #[test]
    fn transpose_inverts_arcs() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[NodeId]);
        assert_eq!(t.num_edges(), g.num_edges());
        t.validate().unwrap();
    }

    #[test]
    fn transpose_preserves_weights() {
        let g = Csr::from_adjacency(
            vec![vec![1, 2], vec![], vec![]],
            Some(vec![vec![5, 6], vec![], vec![]]),
        );
        let t = g.transpose();
        assert_eq!(t.edge_weights(1), &[5]);
        assert_eq!(t.edge_weights(2), &[6]);
    }

    #[test]
    fn undirected_closure_symmetric() {
        let g = diamond();
        let u = g.to_undirected();
        for (a, b, _) in u.edge_triples().collect::<Vec<_>>() {
            assert!(u.has_edge(b, a), "missing reverse arc {b}->{a}");
        }
        assert_eq!(u.neighbors(3), &[1, 2]);
    }

    #[test]
    fn hole_mask_tracks_holes() {
        let mut g = Csr::from_adjacency(vec![vec![1], vec![], vec![]], None);
        g.set_hole_mask(vec![false, false, true]);
        assert!(g.is_hole(2));
        assert!(!g.is_hole(0));
        assert_eq!(g.num_real_nodes(), 2);
        assert_eq!(g.num_holes(), 1);
        assert_eq!(g.real_nodes().collect::<Vec<_>>(), vec![0, 1]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "must not carry edges")]
    fn hole_with_edges_rejected() {
        let mut g = diamond();
        g.set_hole_mask(vec![true, false, false, false]);
    }

    #[test]
    fn from_parts_validates() {
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0], vec![], vec![]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_bad_destination() {
        Csr::from_parts(vec![0, 1], vec![5], vec![], vec![]);
    }

    #[test]
    fn edge_triples_cover_all_edges() {
        let g = diamond();
        let triples: Vec<_> = g.edge_triples().collect();
        assert_eq!(triples, vec![(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
    }

    #[test]
    fn degree_statistics() {
        let g = diamond();
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_view_is_memoized_and_shared() {
        let g = diamond();
        let a = g.undirected();
        let b = g.undirected();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        // Clones share the already-built view.
        let c = g.clone().undirected();
        assert!(Arc::ptr_eq(&a, &c), "clones must share the cached view");
        assert_eq!(a.neighbors(3), &[1, 2]);
    }

    #[test]
    fn transposed_view_is_memoized_and_shared() {
        let g = diamond();
        let a = g.transposed();
        let b = g.transposed();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        let c = g.clone().transposed();
        assert!(Arc::ptr_eq(&a, &c), "clones must share the cached view");
        assert_eq!(a.neighbors(3), &[1, 2]);
        assert_eq!(a.neighbors(0), &[] as &[NodeId]);
    }

    /// Cloning copies no array, and mutating a clone swaps its own arrays
    /// in, leaving the graph it was cloned from as it was.
    #[test]
    fn a_clone_shares_every_array_and_a_mutated_clone_detaches() {
        use crate::generators::{GraphKind, GraphSpec};
        let mut generated = GraphSpec::new(GraphKind::Rmat, 512, 3).generate();
        let isolated: Vec<bool> = generated
            .node_ids()
            .map(|v| generated.degree(v) == 0 && !generated.edges_raw().contains(&v))
            .collect();
        assert!(isolated.contains(&true), "fixture needs an isolated slot");
        generated.set_hole_mask(isolated);
        let path =
            std::env::temp_dir().join(format!("graffix-csr-share-{}.gfx", std::process::id()));
        crate::serialize::save_binary(&generated, &path).unwrap();
        let loaded = crate::serialize::load_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for (name, g) in [("generated", &generated), ("loaded", &loaded)] {
            assert!(g.is_weighted() && g.has_holes(), "{name}");
            let mut c = g.clone();
            assert_eq!(c.offsets.as_ptr(), g.offsets.as_ptr(), "{name}: offsets");
            assert_eq!(c.edges.as_ptr(), g.edges.as_ptr(), "{name}: edges");
            assert_eq!(c.weights.as_ptr(), g.weights.as_ptr(), "{name}: weights");
            assert_eq!(c.hole_mask.as_ptr(), g.hole_mask.as_ptr(), "{name}: holes");
            let before = (g.offsets().to_vec(), g.edges_raw().to_vec());
            let before_weights = g.weights_raw().to_vec();
            let mut batch = crate::mutation::EdgeBatch::new();
            batch.insert(0, 1, 9);
            batch.delete(g.real_nodes().next().unwrap(), g.edges_raw()[0]);
            c.apply_batch(&batch).unwrap();
            assert_ne!(c.edges_raw(), &before.1[..], "{name}: the clone changed");
            assert_eq!(
                (g.offsets().to_vec(), g.edges_raw().to_vec()),
                before,
                "{name}"
            );
            assert_eq!(g.weights_raw(), &before_weights[..], "{name}: weights");
        }
    }

    #[test]
    fn hole_mask_change_invalidates_transposed_view() {
        let mut g = Csr::from_adjacency(vec![vec![1], vec![], vec![]], None);
        let before = g.transposed();
        g.set_hole_mask(vec![false, false, true]);
        let after = g.transposed();
        assert!(!Arc::ptr_eq(&before, &after), "mask change must rebuild");
        assert!(after.is_hole(2));
    }

    #[test]
    fn undirected_counting_build_matches_reference() {
        // Duplicate arcs with different weights plus a self-loop: the
        // canonical view keeps the minimum weight and drops the loop.
        let g = Csr::from_adjacency(
            vec![vec![1, 1, 0], vec![2], vec![0]],
            Some(vec![vec![9, 4, 7], vec![5], vec![3]]),
        );
        let u = g.to_undirected();
        assert_eq!(u.neighbors(0), &[1, 2]);
        assert_eq!(u.edge_weights(0), &[4, 3]);
        assert_eq!(u.neighbors(1), &[0, 2]);
        assert_eq!(u.edge_weights(1), &[4, 5]);
        assert_eq!(u.neighbors(2), &[0, 1]);
        assert_eq!(u.edge_weights(2), &[3, 5]);
        u.validate().unwrap();
    }

    #[test]
    fn hole_mask_change_invalidates_undirected_view() {
        let mut g = Csr::from_adjacency(vec![vec![1], vec![], vec![]], None);
        let before = g.undirected();
        assert!(!before.is_hole(2));
        g.set_hole_mask(vec![false, false, true]);
        let after = g.undirected();
        assert!(!Arc::ptr_eq(&before, &after), "mask change must rebuild");
        assert!(after.is_hole(2));
    }

    /// The relabeling written the slow way: one `Vec` per new slot, pushed
    /// arc by arc and sorted.
    fn relabeled_rows(g: &Csr, new_of_old: &[NodeId], total: usize) -> Vec<Vec<(NodeId, u32)>> {
        let mut rows = vec![Vec::new(); total];
        for (u, v, w) in g.edge_triples() {
            rows[new_of_old[u as usize] as usize].push((new_of_old[v as usize], w));
        }
        rows.iter_mut().for_each(|row| row.sort_unstable());
        rows
    }

    fn assert_same_arrays(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
        assert_eq!(got.edges_raw(), want.edges_raw(), "{what}: edges");
        assert_eq!(got.weights_raw(), want.weights_raw(), "{what}: weights");
        assert!(!got.has_holes(), "{what}: no mask is set");
        got.validate().unwrap();
    }

    #[test]
    fn flat_relabel_equals_the_row_by_row_rebuild() {
        use crate::generators::{GraphKind, GraphSpec};
        let weighted = GraphSpec::new(GraphKind::Rmat, 400, 3).generate();
        let unweighted = GraphSpec::new(GraphKind::SocialTwitter, 300, 5)
            .with_max_weight(0)
            .generate();
        // Parallel arcs of different weights, a self loop, an empty row: a
        // row is ordered by (destination, weight), not by arrival.
        let parallel = Csr::from_adjacency(
            vec![vec![2, 1, 2, 2, 0], vec![], vec![0, 0]],
            Some(vec![vec![9, 5, 3, 7, 1], vec![], vec![8, 2]]),
        );
        assert!(weighted.is_weighted() && !unweighted.is_weighted());
        for (name, g) in [
            ("weighted", &weighted),
            ("unweighted", &unweighted),
            ("parallel", &parallel),
        ] {
            let n = g.num_nodes();
            let identity: Vec<NodeId> = (0..n as NodeId).collect();
            let reversed: Vec<NodeId> = identity.iter().rev().copied().collect();
            // Every third slot of a wider id space stays unused.
            let spread: Vec<NodeId> = identity.iter().map(|&v| v + v / 2 + 1).collect();
            let total = n + n / 2 + 1;
            for (map_name, map, total) in [
                ("identity", &identity, n),
                ("reversed", &reversed, n),
                ("spread", &spread, total),
            ] {
                let what = format!("{name}/{map_name}");
                let got = g.relabeled(map, total);
                let want = Csr::from_rows(&relabeled_rows(g, map, total), g.is_weighted());
                assert_eq!(got.num_nodes(), total, "{what}");
                assert_same_arrays(&got, &want, &what);
            }
            // A graph whose rows are sorted is its own identity relabeling.
            if name != "parallel" {
                assert_same_arrays(&g.relabeled(&identity, n), g, name);
            }
            let used: Vec<bool> = (0..total as NodeId).map(|s| spread.contains(&s)).collect();
            let wide = g.relabeled(&spread, total);
            for slot in (0..total).filter(|&s| !used[s]) {
                assert_eq!(wide.degree(slot as NodeId), 0, "{name}: unused slot {slot}");
            }
        }
        assert_eq!(
            parallel.relabeled(&[0, 1, 2], 3).neighbors(0),
            &[0, 1, 2, 2, 2]
        );
        assert_eq!(
            parallel.relabeled(&[0, 1, 2], 3).edge_weights(0),
            &[1, 5, 3, 7, 9]
        );
    }

    #[test]
    fn relabel_reads_no_arc_of_a_hole_and_sets_no_mask() {
        let mut g = Csr::from_adjacency(vec![vec![1], vec![0], vec![]], None);
        g.set_hole_mask(vec![false, false, true]);
        let h = g.relabeled(&[2, 0, 1], 3);
        assert_eq!(h.neighbors(2), &[0]);
        assert_eq!(h.neighbors(0), &[2]);
        assert!(!h.has_holes());
    }

    #[test]
    fn rows_are_kept_in_the_order_given() {
        let rows = vec![vec![(2, 7), (0, 9), (2, 1)], vec![], vec![(1, 4)]];
        let g = Csr::from_rows(&rows, true);
        assert_eq!(g.offsets(), &[0, 3, 3, 4]);
        assert_eq!(g.neighbors(0), &[2, 0, 2]);
        assert_eq!(g.edge_weights(0), &[7, 9, 1]);
        let bare = Csr::from_rows(&rows, false);
        assert_eq!(bare.edges_raw(), g.edges_raw());
        assert!(!bare.is_weighted());
        assert_eq!(Csr::from_rows(&[], true).num_nodes(), 0);
    }
}
