//! Single-source shortest paths.
//!
//! Simulated GPU version: vertex-centric push-style Bellman–Ford with
//! atomic-min relaxation (the structure of the LonestarGPU/Gunrock SSSP
//! kernels), in topology-driven and frontier-driven variants, with replica
//! confluence after every iteration and tile phases when the latency
//! transform installed them. Exact CPU reference: Dijkstra.

use crate::plan::{Plan, SimRun, Strategy};
use crate::runner::{Runner, VertexProgram};
use graffix_graph::{Csr, NodeId, INVALID_NODE};
use graffix_sim::{ArrayId, DoubleBuffered, KernelStats, Lane, Phase};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Oscillation guard for mean confluence: with replicas, a merged value is
/// re-relaxed and re-merged every iteration, so the raw `changed` flag
/// never settles. Convergence is declared when the finite value mass moves
/// by less than 0.1 % — the residual wobble is part of the injected
/// approximation. Exact plans (no replicas) keep this guard inert.
pub(crate) struct Stability {
    enabled: bool,
    last_sig: f64,
    stable_runs: usize,
}

impl Stability {
    pub(crate) fn new(plan: &Plan) -> Self {
        Stability {
            enabled: !plan.replica_groups.is_empty(),
            last_sig: f64::NAN,
            stable_runs: 0,
        }
    }

    pub(crate) fn check(&mut self, values: &[f64]) -> bool {
        if !self.enabled {
            return false;
        }
        let sig: f64 = values.iter().filter(|x| x.is_finite()).sum();
        if (sig - self.last_sig).abs() <= 1e-3 * sig.abs().max(1.0) {
            self.stable_runs += 1;
        } else {
            self.stable_runs = 0;
        }
        self.last_sig = sig;
        self.stable_runs >= 1
    }
}

/// Push-style relaxation as a [`VertexProgram`]. Distances are
/// double-buffered (Jacobi): a superstep reads the previous iteration's
/// distances and atomically min-combines into the next buffer. In-place
/// relaxation would let one superstep cascade through arbitrarily many BFS
/// levels depending on warp schedule — an artifact no parallel execution
/// guarantees; level-synchronous semantics are the standard conservative
/// model (and keep results and traces deterministic under the parallel
/// executor). The *tile phase* iterates rounds with a commit in between,
/// so intra-tile cascading happens round-by-round — the reuse §3's
/// `t ≈ 2 × diameter` iterations buy.
struct SsspProgram<'p> {
    plan: &'p Plan,
    dist: DoubleBuffered,
    stability: Stability,
    weighted: bool,
    /// Frontier mode activates improved slots' processing copies.
    frontier_mode: bool,
}

impl VertexProgram for SsspProgram<'_> {
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::OFFSETS, v as usize);
        lane.read(ArrayId::NODE_ATTR, slot);
        let d = self.dist.read(slot);
        if !d.is_finite() {
            return false;
        }
        let mut changed = false;
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = graph.edges_raw()[e];
            let w = if self.weighted {
                lane.read(ArrayId::EDGE_WEIGHTS, e);
                graph.weight_at(e) as f64
            } else {
                1.0
            };
            let slot_u = plan.slot(u) as usize;
            // Unconditional atomicMin, as real push-SSSP kernels issue it:
            // every lane's edge iteration has the same event shape, keeping
            // the warp's lockstep trace aligned (and the j-th-neighbor
            // attribute accesses coalescible after renumbering).
            lane.atomic(ArrayId::NODE_ATTR, slot_u);
            let nd = d + w;
            // The "did this lane improve the slot" flag is deterministic
            // under concurrency: OR-ing `nd < previous` over all lanes
            // equals `min(nd) < initial`, whatever the interleaving.
            if nd < self.dist.fetch_min_next(slot_u, nd) {
                if self.frontier_mode {
                    plan.activate_slot(slot_u as NodeId, lane);
                }
                changed = true;
            }
        }
        changed
    }

    fn supports_pull(&self) -> bool {
        self.frontier_mode
    }

    /// Full-gather relaxation over the CSC mirror: `v` reads every
    /// in-neighbor's previous distance and min-combines once into its own
    /// slot. Each in-arc costs one packed `(weight, source)` word from
    /// `T_EDGES` plus one source-attribute read — and the per-arc atomic
    /// the push kernel issues collapses into at most one per vertex.
    /// Against the previous-buffer snapshot this computes the same Jacobi
    /// relaxation as push: on exact plans every improving in-arc originates
    /// at a frontier vertex (non-frontier sources already propagated), so
    /// the committed buffer is bit-identical to the push superstep's.
    fn process_pull(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let csc = plan.csc();
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::T_OFFSETS, v as usize);
        lane.read(ArrayId::NODE_ATTR, slot);
        let dv = self.dist.read(slot);
        let mut best = f64::INFINITY;
        let sources = plan.csc_source_slots();
        for e in csc.edge_range(v) {
            lane.read(ArrayId::T_EDGES, e);
            let w = if self.weighted {
                csc.weight_at(e) as f64
            } else {
                1.0
            };
            let slot_u = sources[e] as usize;
            lane.read(ArrayId::NODE_ATTR, slot_u);
            let du = self.dist.read(slot_u);
            if du + w < best {
                best = du + w;
            }
        }
        if best < dv {
            // Gathers have a single writer per slot on identity plans, so
            // the commit is a plain store; shared (split) slots keep the
            // atomic. Either way: at most one per vertex vs one per arc
            // when pushing.
            if plan.sole_gatherer(slot as NodeId) {
                lane.write(ArrayId::NODE_ATTR, slot);
            } else {
                lane.atomic(ArrayId::NODE_ATTR, slot);
            }
            if best < self.dist.fetch_min_next(slot, best) && self.frontier_mode {
                plan.activate_slot(slot as NodeId, lane);
            }
            true
        } else {
            false
        }
    }

    fn end_tile_round(&mut self) {
        self.dist.commit();
    }

    fn after_iteration(
        &mut self,
        runner: &Runner<'_>,
        next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        self.dist.commit();
        let mut d = self.dist.prev().to_vec();
        let (stats, changed_slots) = runner.confluence(&mut d);
        // Convergence residual: the finite distance mass the stability
        // guard watches, recorded per iteration for run reports.
        let mass: f64 = d.iter().copied().filter(|x| x.is_finite()).sum();
        runner
            .plan
            .trace
            .push_series(Phase::Iteration, "sssp-distance-mass", mass);
        let stop = self.stability.check(&d);
        if self.frontier_mode {
            // Merged replicas re-enter the frontier until values stabilize.
            if !stop {
                for slot in changed_slots {
                    runner.plan.push_slot_copies(slot, next);
                }
            }
            self.dist.reset(&d);
            (stats, false)
        } else {
            self.dist.reset(&d);
            (stats, stop)
        }
    }
}

/// Runs simulated SSSP from `source` (an *original* vertex id) and returns
/// per-original-vertex distances plus the metered cost.
pub fn run_sim(plan: &Plan, source: NodeId) -> SimRun {
    assert!(
        (source as usize) < plan.num_original(),
        "source out of range"
    );
    let runner = Runner::new(plan);
    let mut dist = vec![f64::INFINITY; plan.attr_len];
    // Every copy of the source starts at distance 0.
    let mut source_slots: Vec<NodeId> = Vec::new();
    for (slot, &orig) in plan.to_original.iter().enumerate() {
        if orig == source {
            dist[slot] = 0.0;
            source_slots.push(slot as NodeId);
        }
    }

    let max_iters = plan.attr_len + 16;
    let mut prog = SsspProgram {
        plan,
        dist: DoubleBuffered::new(dist),
        stability: Stability::new(plan),
        weighted: plan.graph.is_weighted(),
        frontier_mode: plan.strategy == Strategy::Frontier,
    };

    let (stats, iterations) = match plan.strategy {
        Strategy::Topology => runner.fixpoint(max_iters, &mut prog),
        Strategy::Frontier => {
            let mut init: Vec<NodeId> = Vec::new();
            for &s in &source_slots {
                plan.push_slot_copies(s, &mut init);
            }
            runner.frontier_loop(init, max_iters, &mut prog)
        }
    };

    SimRun {
        values: plan.map_back(prog.dist.prev()),
        stats,
        iterations,
    }
}

/// Exact CPU reference: Dijkstra with a binary heap. Unreachable vertices
/// get `f64::INFINITY`.
pub fn exact_cpu(g: &Csr, source: NodeId) -> Vec<f64> {
    let n = g.num_nodes();
    let mut dist = vec![u64::MAX; n];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for e in g.edge_range(v) {
            let u = g.edges_raw()[e];
            let nd = d + g.weight_at(e) as u64;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist.into_iter()
        .map(|d| {
            if d == u64::MAX {
                f64::INFINITY
            } else {
                d as f64
            }
        })
        .collect()
}

/// Picks a deterministic, well-connected source: the max-out-degree vertex
/// (ties broken by id). The paper runs SSSP from a fixed source per graph.
/// `INVALID_NODE` when the graph has no real node; [`crate::Algo::source`]
/// turns that into a typed error.
pub fn default_source(g: &Csr) -> NodeId {
    g.real_nodes()
        .max_by_key(|&v| (g.degree(v), Reverse(v)))
        .unwrap_or(INVALID_NODE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::relative_l1;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use graffix_sim::GpuConfig;

    fn weighted_diamond() -> Csr {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1);
        b.add_weighted_edge(0, 2, 4);
        b.add_weighted_edge(1, 2, 1);
        b.add_weighted_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn dijkstra_correct() {
        let g = weighted_diamond();
        assert_eq!(exact_cpu(&g, 0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sim_matches_dijkstra_on_exact_plan_topology() {
        let g = GraphSpec::new(GraphKind::Random, 300, 3).generate();
        let src = default_source(&g);
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan, src);
        let exact = exact_cpu(&g, src);
        assert!(relative_l1(&run.values, &exact) < 1e-12);
        assert!(run.stats.warp_cycles > 0);
    }

    #[test]
    fn sim_matches_dijkstra_on_exact_plan_frontier() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 300, 5).generate();
        let src = default_source(&g);
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Frontier);
        let run = run_sim(&plan, src);
        let exact = exact_cpu(&g, src);
        assert!(relative_l1(&run.values, &exact) < 1e-12);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2);
        let g = b.build();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan, 0);
        assert_eq!(run.values[1], 2.0);
        assert!(run.values[2].is_infinite());
    }

    #[test]
    fn frontier_does_less_work_than_topology_on_sparse_reach() {
        // A long chain: topology processes all nodes every iteration,
        // frontier only the wavefront.
        let mut b = GraphBuilder::new(64);
        for v in 0..63u32 {
            b.add_weighted_edge(v, v + 1, 1);
        }
        let g = b.build();
        let cfg = GpuConfig::test_tiny();
        let topo = run_sim(&Plan::exact(&g, &cfg, Strategy::Topology), 0);
        let front = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), 0);
        assert_eq!(topo.values, front.values);
        assert!(
            front.stats.global_accesses < topo.stats.global_accesses,
            "frontier {} vs topology {}",
            front.stats.global_accesses,
            topo.stats.global_accesses
        );
    }

    #[test]
    fn pull_matches_push_bit_for_bit_on_exact_plan() {
        use crate::plan::Direction;
        let g = GraphSpec::new(GraphKind::Rmat, 300, 9).generate();
        let src = default_source(&g);
        let cfg = GpuConfig::test_tiny();
        let push = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), src);
        let pull = run_sim(
            &Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(Direction::Pull),
            src,
        );
        let auto = run_sim(
            &Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(Direction::Auto),
            src,
        );
        for (a, b) in push.values.iter().zip(&pull.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in push.values.iter().zip(&auto.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(relative_l1(&pull.values, &exact_cpu(&g, src)) < 1e-12);
    }

    #[test]
    fn default_source_is_max_degree() {
        let g = weighted_diamond();
        assert_eq!(default_source(&g), 0);
    }

    #[test]
    fn transformed_plan_terminates_and_is_close() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 400, 7).generate();
        let src = default_source(&g);
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        let plan = Plan::from_prepared(&prepared, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan, src);
        let exact = exact_cpu(&g, src);
        let err = relative_l1(&run.values, &exact);
        assert!(err < 1.0, "approximation error unreasonably large: {err}");
        assert!(run.iterations < plan.attr_len + 16, "must not hit the cap");
    }
}
