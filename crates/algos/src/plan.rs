//! Execution plans: everything an algorithm needs to run on the simulator.

use graffix_core::{ConfluenceOp, Prepared, Tile};
use graffix_graph::{Csr, NodeId, Segmentation, INVALID_NODE};
use graffix_sim::{GpuConfig, KernelStats, Lane, TraceHandle};
use std::sync::{Arc, OnceLock};

/// Processing style of the executing framework.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Every (non-hole) vertex is processed each superstep until fixpoint —
    /// LonestarGPU's topology-driven style (Baseline-I).
    Topology,
    /// Only active vertices are processed; a metered filter pass compacts
    /// the next frontier — Gunrock's style (Baseline-III).
    Frontier,
}

/// Traversal direction policy for frontier-driven supersteps.
///
/// `Push` scatters updates along out-edges of frontier vertices (the
/// classic data-driven kernel). `Pull` gathers along in-edges of *every*
/// vertex using the plan's memoized CSC mirror, trading wasted gathers for
/// atomic-free, coalesced reads. `Auto` decides per superstep from frontier
/// density (see `Runner::choose_pull`). Programs that implement no pull kernel
/// silently run push regardless of the policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Always scatter along out-edges (CSR).
    #[default]
    Push,
    /// Always gather along in-edges (CSC mirror).
    Pull,
    /// Per-superstep choice from frontier edge mass.
    Auto,
}

impl Direction {
    /// Stable string key (CLI flags, bench cell ids, JSON reports).
    pub fn key(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
            Direction::Auto => "auto",
        }
    }

    /// Inverse of [`Direction::key`].
    pub fn from_key(s: &str) -> Option<Direction> {
        match s {
            "push" => Some(Direction::Push),
            "pull" => Some(Direction::Pull),
            "auto" => Some(Direction::Auto),
            _ => None,
        }
    }
}

/// A fully-resolved execution plan. Owns its data so baseline conversions
/// (e.g. Tigr's virtual split) can synthesize processing graphs that differ
/// from the attribute space.
#[derive(Clone, Debug)]
pub struct Plan {
    /// GPU configuration.
    pub cfg: GpuConfig,
    /// Processing topology (may contain holes or virtual nodes).
    pub graph: Csr,
    /// Warp-order processing slots (`INVALID_NODE` = idle lane).
    pub assignment: Vec<NodeId>,
    /// processing node → attribute slot. Identity except under virtual
    /// splitting, where all virtual copies of a real node share its slot.
    pub attr_of: Vec<NodeId>,
    /// Number of attribute slots.
    pub attr_len: usize,
    /// attribute slot → original vertex (`INVALID_NODE` for holes).
    pub to_original: Vec<NodeId>,
    /// original vertex → primary attribute slot.
    pub primary: Vec<NodeId>,
    /// Replica groups over attribute slots (confluence targets).
    pub replica_groups: Vec<(NodeId, Vec<NodeId>)>,
    /// Shared-memory tiles over attribute slots.
    pub tiles: Vec<Tile>,
    /// Replica merge operator.
    pub confluence: ConfluenceOp,
    /// Processing style.
    pub strategy: Strategy,
    /// Traversal direction policy for frontier-driven supersteps.
    pub direction: Direction,
    /// Observability sink shared by the runner, vertex programs, and the
    /// caller (see `graffix_sim::trace`). Disabled by default — every
    /// recording call is then a single no-op branch. Clones share the sink.
    pub trace: TraceHandle,
    /// Cache-sized vertex-range segmentation (DESIGN.md §12). `Some` makes
    /// the runner execute supersteps segment-major: one block per active
    /// segment, each carrying its attribute window as an L2 residency span.
    /// Only valid for identity-attribute plans — a segment's node range
    /// must coincide with an attribute range for the span pricing to hold.
    pub segments: Option<Arc<Segmentation>>,
    /// Lazily-derived execution maps (see [`PlanDerived`]).
    pub derived: PlanDerived,
}

/// Slot/logical → processing-copy inversions, shared by every algorithm
/// (hoisted out of the per-algorithm files). Computed once on first use —
/// after any test-side tweaking of `attr_of` — and reset when the plan is
/// cloned.
#[derive(Debug, Default)]
pub struct PlanDerived {
    /// attribute slot → processing copies (`None` for identity plans).
    procs_of_slot: OnceLock<Option<Vec<Vec<NodeId>>>>,
    /// logical (original) vertex → processing copies.
    procs_of_logical: OnceLock<Vec<Vec<NodeId>>>,
    /// CSC mirror of the processing graph (pull-mode gather topology),
    /// shared with the graph's memoized transpose view.
    csc: OnceLock<Arc<Csr>>,
    /// Each CSR arc's destination as an attribute slot, in arc order
    /// (`None` for identity plans).
    arc_slots: OnceLock<Option<Vec<NodeId>>>,
    /// Each CSC arc's source as an attribute slot, in CSC arc order
    /// (`None` for identity plans).
    csc_source_slots: OnceLock<Option<Vec<NodeId>>>,
    /// Whether `attr_of` is the identity (an O(n) scan, asked per tile).
    identity_attrs: OnceLock<bool>,
}

impl Clone for PlanDerived {
    fn clone(&self) -> Self {
        // Caches are plan-shape-dependent; a clone may be mutated before
        // use, so it starts cold.
        PlanDerived::default()
    }
}

impl Plan {
    /// Builds a plan straight from a [`Prepared`] graph (identity attribute
    /// mapping).
    pub fn from_prepared(prepared: &Prepared, cfg: &GpuConfig, strategy: Strategy) -> Plan {
        let n = prepared.graph.num_nodes();
        Plan {
            cfg: cfg.clone(),
            graph: prepared.graph.clone(),
            assignment: prepared.assignment.clone(),
            attr_of: (0..n as NodeId).collect(),
            attr_len: n,
            to_original: prepared.to_original.clone(),
            primary: prepared.primary.clone(),
            replica_groups: prepared.replica_groups.clone(),
            tiles: prepared.tiles.clone(),
            confluence: prepared.confluence,
            strategy,
            direction: Direction::Push,
            trace: TraceHandle::default(),
            segments: None,
            derived: PlanDerived::default(),
        }
    }

    /// Sets the traversal direction policy (builder style).
    pub fn with_direction(mut self, direction: Direction) -> Plan {
        self.direction = direction;
        self
    }

    /// Installs a vertex-range segmentation, switching the runner into
    /// segment-major execution (builder style). Panics on non-identity
    /// attribute plans — segment spans price attribute windows, which only
    /// line up with node ranges when `attr_of` is the identity.
    pub fn with_segments(mut self, segments: Arc<Segmentation>) -> Plan {
        assert!(
            self.identity_attrs(),
            "segment-major execution requires an identity-attribute plan"
        );
        self.segments = Some(segments);
        self
    }

    /// Exact execution of an untransformed graph under the given strategy.
    pub fn exact(graph: &Csr, cfg: &GpuConfig, strategy: Strategy) -> Plan {
        Plan::from_prepared(&Prepared::exact(graph.clone()), cfg, strategy)
    }

    /// Attribute slot of processing node `v`.
    #[inline]
    pub fn slot(&self, v: NodeId) -> NodeId {
        self.attr_of[v as usize]
    }

    /// CSC mirror of the processing graph, built on first use and reused by
    /// every subsequent pull superstep. Hole/replica structure carries over
    /// unchanged: the transpose preserves node count and ids, so plan slot
    /// and logical mappings apply to it directly.
    pub fn csc(&self) -> &Csr {
        self.derived.csc.get_or_init(|| self.graph.transposed())
    }

    /// The attribute slot of each CSR arc's destination, in arc order: a
    /// push reads it as one sequential stream instead of a lookup per arc.
    /// Identity plans return the graph's own edge array, copying nothing.
    pub(crate) fn arc_slots(&self) -> &[NodeId] {
        let edges = self.graph.edges_raw();
        self.derived
            .arc_slots
            .get_or_init(|| self.slots_of(edges))
            .as_deref()
            .unwrap_or(edges)
    }

    /// The attribute slot of each CSC arc's source, in CSC arc order: the
    /// pull-mode counterpart of [`Plan::arc_slots`]. Identity plans return
    /// the CSC's own edge array, copying nothing.
    pub(crate) fn csc_source_slots(&self) -> &[NodeId] {
        let sources = self.csc().edges_raw();
        self.derived
            .csc_source_slots
            .get_or_init(|| self.slots_of(sources))
            .as_deref()
            .unwrap_or(sources)
    }

    /// `nodes` mapped to their attribute slots, or `None` for identity
    /// plans (where the mapping is the identity).
    fn slots_of(&self, nodes: &[NodeId]) -> Option<Vec<NodeId>> {
        if self.identity_attrs() {
            return None;
        }
        Some(nodes.iter().map(|&u| self.slot(u)).collect())
    }

    /// Number of logical (original) vertices.
    pub fn num_original(&self) -> usize {
        self.primary.len()
    }

    /// True when `attr_of` is the identity (no virtual splitting).
    pub fn identity_attrs(&self) -> bool {
        *self.derived.identity_attrs.get_or_init(|| {
            self.attr_of.len() == self.attr_len
                && self
                    .attr_of
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| i as NodeId == a)
        })
    }

    /// Maps an attribute vector (attr-slot space) back to original space
    /// via each logical node's primary slot.
    pub fn map_back(&self, attrs: &[f64]) -> Vec<f64> {
        self.primary.iter().map(|&p| attrs[p as usize]).collect()
    }

    /// Processing nodes of each tile: identity plans use the tile's node
    /// list; virtual-split plans expand each attribute slot to its virtual
    /// copies.
    pub fn tile_processing_nodes(&self, tile: &Tile) -> Vec<NodeId> {
        if self.identity_attrs() {
            return tile.nodes.clone();
        }
        let mut members = vec![false; self.attr_len];
        for &a in &tile.nodes {
            members[a as usize] = true;
        }
        (0..self.graph.num_nodes() as NodeId)
            .filter(|&v| members[self.attr_of[v as usize] as usize])
            .collect()
    }

    /// Processing copies of each attribute slot, or `None` for identity
    /// plans (where slot == processing node and no expansion is needed).
    pub fn procs_of_slot(&self) -> Option<&[Vec<NodeId>]> {
        self.derived
            .procs_of_slot
            .get_or_init(|| {
                if self.identity_attrs() {
                    return None;
                }
                let mut procs: Vec<Vec<NodeId>> = vec![Vec::new(); self.attr_len];
                for (v, &a) in self.attr_of.iter().enumerate() {
                    procs[a as usize].push(v as NodeId);
                }
                Some(procs)
            })
            .as_deref()
    }

    /// Processing copies of each logical (original) vertex.
    pub fn procs_of_logical(&self) -> &[Vec<NodeId>] {
        self.derived.procs_of_logical.get_or_init(|| {
            let mut procs: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_original()];
            for (v, &a) in self.attr_of.iter().enumerate() {
                let orig = self.to_original[a as usize];
                if orig != INVALID_NODE {
                    procs[orig as usize].push(v as NodeId);
                }
            }
            procs
        })
    }

    /// True when pull-mode gathers into `slot` have a single writer: the
    /// slot has at most one processing copy, so the gather's self-update
    /// needs a plain store, not an atomic — the defining memory-traffic win
    /// of gather kernels. Virtual-split plans keep the atomic for shared
    /// slots, where sibling copies commit concurrently.
    #[inline]
    pub fn sole_gatherer(&self, slot: NodeId) -> bool {
        match self.procs_of_slot() {
            None => true,
            Some(procs) => procs[slot as usize].len() <= 1,
        }
    }

    /// Logical (original) vertex of processing node `v` (`INVALID_NODE` for
    /// holes).
    #[inline]
    pub fn logical_of(&self, v: NodeId) -> NodeId {
        self.to_original[self.attr_of[v as usize] as usize]
    }

    /// Activates every processing copy of attribute slot `slot` on `lane`.
    #[inline]
    pub fn activate_slot(&self, slot: NodeId, lane: &mut Lane) {
        match self.procs_of_slot() {
            None => lane.activate(slot),
            Some(procs) => {
                for &c in &procs[slot as usize] {
                    lane.activate(c);
                }
            }
        }
    }

    /// Activates every processing copy of logical vertex `l` on `lane`.
    #[inline]
    pub fn activate_logical(&self, l: NodeId, lane: &mut Lane) {
        for &c in &self.procs_of_logical()[l as usize] {
            lane.activate(c);
        }
    }

    /// Pushes every processing copy of attribute slot `slot` into `out`
    /// (host-side variant of [`Plan::activate_slot`]).
    pub fn push_slot_copies(&self, slot: NodeId, out: &mut Vec<NodeId>) {
        match self.procs_of_slot() {
            None => out.push(slot),
            Some(procs) => out.extend_from_slice(&procs[slot as usize]),
        }
    }

    /// Consistency checks used by tests.
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        if self.attr_of.len() != self.graph.num_nodes() {
            return Err("attr_of must cover processing nodes".into());
        }
        if self.to_original.len() != self.attr_len {
            return Err("to_original must cover attribute slots".into());
        }
        for &a in &self.attr_of {
            if a as usize >= self.attr_len {
                return Err("attr slot out of range".into());
            }
        }
        for &p in &self.primary {
            if p == INVALID_NODE || p as usize >= self.attr_len {
                return Err("primary out of range".into());
            }
        }
        Ok(())
    }
}

/// Outcome of one simulated algorithm run.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Per-original-vertex result values (distances, ranks, centralities,
    /// component labels — algorithm-specific).
    pub values: Vec<f64>,
    /// Accumulated kernel statistics.
    pub stats: KernelStats,
    /// Fixpoint iterations (outermost loop count).
    pub iterations: usize,
}

impl SimRun {
    /// Elapsed simulated cycles under the plan's occupancy model.
    pub fn elapsed_cycles(&self, cfg: &GpuConfig) -> u64 {
        self.stats.elapsed_cycles(cfg)
    }

    /// Elapsed simulated seconds.
    pub fn seconds(&self, cfg: &GpuConfig) -> f64 {
        self.stats.elapsed_seconds(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::GraphBuilder;

    fn graph() -> Csr {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn exact_plan_identity() {
        let p = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Topology);
        p.validate().unwrap();
        assert!(p.identity_attrs());
        assert_eq!(p.num_original(), 4);
        assert_eq!(p.slot(2), 2);
    }

    #[test]
    fn map_back_identity() {
        let p = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Frontier);
        assert_eq!(p.map_back(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tile_processing_nodes_identity() {
        let p = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Topology);
        let tile = Tile {
            center: 1,
            nodes: vec![1, 2],
            iterations: 2,
        };
        assert_eq!(p.tile_processing_nodes(&tile), vec![1, 2]);
    }

    #[test]
    fn derived_maps_invert_attr_of() {
        let p = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Topology);
        assert!(p.procs_of_slot().is_none());
        assert_eq!(p.procs_of_logical()[2], vec![2]);
        assert_eq!(p.logical_of(3), 3);

        let mut split = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Topology);
        // Pretend node 1 was split into processing nodes 1 and 3.
        split.attr_of = vec![0, 1, 2, 1];
        assert_eq!(split.procs_of_slot().unwrap()[1], vec![1, 3]);
        assert_eq!(split.procs_of_logical()[1], vec![1, 3]);
        assert_eq!(split.logical_of(3), 1);
        let mut out = Vec::new();
        split.push_slot_copies(1, &mut out);
        assert_eq!(out, vec![1, 3]);
        // Clones reset the caches, so they may be mutated before use.
        let clone = split.clone();
        assert_eq!(clone.procs_of_slot().unwrap()[1], vec![1, 3]);
    }

    /// Both slot streams against the per-arc [`Plan::slot`] lookups they
    /// replace, on an identity plan (which must borrow the graphs' own edge
    /// arrays) and on a Tigr-shaped split, whose virtual copies appear as
    /// CSC sources under ids that are not their slots.
    #[test]
    fn slot_streams_equal_the_per_arc_lookups() {
        use crate::memo_tests::virtually_split;
        use graffix_graph::generators::{GraphKind, GraphSpec};
        let cfg = GpuConfig::k40c();
        let g = GraphSpec::new(GraphKind::Rmat, 1_024, 5).generate();
        let exact = Plan::exact(&g, &cfg, Strategy::Frontier);
        assert!(std::ptr::eq(exact.arc_slots(), exact.graph.edges_raw()));
        assert!(std::ptr::eq(
            exact.csc_source_slots(),
            exact.csc().edges_raw()
        ));
        let split = virtually_split(&Prepared::exact(g), &cfg, 8);
        assert_ne!(split.csc_source_slots(), split.csc().edges_raw());
        for plan in [&exact, &split] {
            let slots =
                |nodes: &[NodeId]| -> Vec<NodeId> { nodes.iter().map(|&u| plan.slot(u)).collect() };
            assert_eq!(plan.arc_slots(), slots(plan.graph.edges_raw()));
            assert_eq!(plan.csc_source_slots(), slots(plan.csc().edges_raw()));
        }
    }

    /// Pull and auto supersteps on a Tigr-shaped frontier plan, where a
    /// gathered arc's source may be a virtual copy: bfs, sssp and pr give
    /// push's values and iteration counts, bit for bit, at 1, 2 and 8
    /// threads.
    #[test]
    fn split_plan_pulls_equal_push() {
        use crate::algo::Algo;
        use crate::memo_tests::{virtually_split, with_threads};
        use graffix_graph::generators::{GraphKind, GraphSpec};
        let cfg = GpuConfig::k40c();
        let g = GraphSpec::new(GraphKind::Rmat, 1_024, 5).generate();
        let split = Plan {
            strategy: Strategy::Frontier,
            ..virtually_split(&Prepared::exact(g.clone()), &cfg, 8)
        };
        let bits = |run: &SimRun| -> Vec<u64> { run.values.iter().map(|v| v.to_bits()).collect() };
        for algo in [Algo::Bfs, Algo::Sssp, Algo::Pr] {
            let push = algo.run(&split, &g, None, 0).0;
            for threads in [1, 2, 8] {
                for dir in [Direction::Pull, Direction::Auto] {
                    let plan = split.clone().with_direction(dir);
                    let run = with_threads(threads, || algo.run(&plan, &g, None, 0).0);
                    let id = format!("{}/{dir:?}/{threads}t", algo.name());
                    assert_eq!(bits(&run), bits(&push), "{id}: values");
                    assert_eq!(run.iterations, push.iterations, "{id}: iterations");
                }
            }
        }
    }

    #[test]
    fn tile_processing_nodes_virtual() {
        let mut p = Plan::exact(&graph(), &GpuConfig::test_tiny(), Strategy::Topology);
        // Pretend node 1 was split into processing nodes 1 and 3.
        p.attr_of = vec![0, 1, 2, 1];
        let tile = Tile {
            center: 1,
            nodes: vec![1],
            iterations: 1,
        };
        assert_eq!(p.tile_processing_nodes(&tile), vec![1, 3]);
    }
}
