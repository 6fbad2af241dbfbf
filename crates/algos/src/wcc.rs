//! Weakly connected components by min-label propagation (HashMin) — an
//! extension algorithm beyond the paper's five, exercising the transforms
//! on a pure fixpoint workload whose convergence is bounded by component
//! diameter (exactly what §3's shared-memory iterations and §4's 2-hop
//! shortcuts accelerate).

use crate::plan::{Plan, SimRun, Strategy};
use crate::runner::{Runner, VertexProgram};
use graffix_graph::{properties, Csr, NodeId};
use graffix_sim::{ArrayId, AtomicU32Array, KernelStats, Lane};

/// Result of a simulated WCC run.
#[derive(Clone, Debug)]
pub struct WccResult {
    /// Per-original-vertex component labels (the minimum original id in
    /// the component).
    pub run: SimRun,
    /// Number of weakly connected components.
    pub components: usize,
}

/// HashMin label propagation, Jacobi style: a superstep reads the previous
/// iteration's committed labels and atomically min-folds improvements into
/// the next buffer, so traces branch only on the snapshot and stay
/// deterministic under parallel warp execution.
struct WccProgram<'p> {
    plan: &'p Plan,
    prev: Vec<u32>,
    next: AtomicU32Array,
    /// Frontier mode activates lowered nodes' processing copies.
    frontier_mode: bool,
}

impl WccProgram<'_> {
    fn commit(&mut self) {
        self.prev.copy_from_slice(&self.next.to_vec());
    }
}

impl VertexProgram for WccProgram<'_> {
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        let l = plan.logical_of(v) as usize;
        lane.read(ArrayId::NODE_ATTR, plan.slot(v) as usize);
        let mine = self.prev[l];
        let mut best = mine;
        let mut changed = false;
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = graph.edges_raw()[e];
            let lu = plan.logical_of(u) as usize;
            lane.read(ArrayId::NODE_ATTR, plan.slot(u) as usize);
            // Push-pull: settle both endpoints toward the minimum.
            let theirs = self.prev[lu];
            if theirs < best {
                best = theirs;
            }
            if best < theirs {
                lane.atomic(ArrayId::NODE_ATTR, plan.slot(u) as usize);
                self.next.fetch_min(lu, best);
                if self.frontier_mode {
                    plan.activate_logical(lu as NodeId, lane);
                }
                changed = true;
            } else {
                lane.compute(1);
            }
        }
        if best < mine {
            lane.write(ArrayId::NODE_ATTR, plan.slot(v) as usize);
            self.next.fetch_min(l, best);
            if self.frontier_mode {
                plan.activate_logical(l as NodeId, lane);
            }
            changed = true;
        }
        changed
    }

    fn end_tile_round(&mut self) {
        self.commit();
    }

    fn after_iteration(
        &mut self,
        _runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        self.commit();
        (KernelStats::default(), false)
    }
}

/// Runs simulated HashMin label propagation. Labels propagate along both
/// edge directions (weak connectivity); replica copies share their logical
/// node's label.
pub fn run_sim(plan: &Plan) -> WccResult {
    let runner = Runner::new(plan);
    let n_logical = plan.num_original();
    let init_labels: Vec<u32> = (0..n_logical as u32).collect();
    let max_iters = n_logical + 8;

    let mut prog = WccProgram {
        plan,
        next: AtomicU32Array::from_slice(&init_labels),
        prev: init_labels,
        frontier_mode: plan.strategy == Strategy::Frontier,
    };

    let (stats, iterations) = match plan.strategy {
        Strategy::Topology => runner.fixpoint(max_iters, &mut prog),
        Strategy::Frontier => {
            // HashMin with a frontier of recently-lowered nodes.
            let init = runner.active_nodes();
            runner.frontier_loop(init, max_iters, &mut prog)
        }
    };

    let labels = prog.prev;
    let mut distinct: Vec<u32> = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    WccResult {
        run: SimRun {
            values: labels.into_iter().map(|l| l as f64).collect(),
            stats,
            iterations,
        },
        components: distinct.len(),
    }
}

/// Exact CPU reference: union-find over the undirected view.
pub fn exact_cpu_count(g: &Csr) -> usize {
    properties::connected_components(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::classic;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use graffix_sim::GpuConfig;

    #[test]
    fn grid_is_one_component() {
        let g = classic::grid(6, 6);
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let r = run_sim(&plan);
        assert_eq!(r.components, 1);
        assert!(r.run.values.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn counts_match_union_find() {
        for seed in [2u64, 9] {
            let g = GraphSpec::new(GraphKind::Random, 250, seed).generate();
            let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
            assert_eq!(
                run_sim(&plan).components,
                exact_cpu_count(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn directed_arcs_count_weakly() {
        // 0 -> 1, 2 -> 1: weakly one component despite no directed path
        // between 0 and 2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        let g = b.build();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        assert_eq!(run_sim(&plan).components, 1);
    }

    #[test]
    fn frontier_matches_topology() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 250, 5).generate();
        let cfg = GpuConfig::test_tiny();
        let t = run_sim(&Plan::exact(&g, &cfg, Strategy::Topology));
        let f = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier));
        assert_eq!(t.components, f.components);
        assert_eq!(t.run.values, f.run.values);
    }

    #[test]
    fn transformed_graph_components_never_increase() {
        // Transforms only add edges or replicas, so weak components can
        // only merge.
        use graffix_core::{DivergenceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 300, 8).generate();
        let cfg = GpuConfig::test_tiny();
        let exact = exact_cpu_count(&g);
        let prepared = Pipeline::default()
            .with_divergence(DivergenceKnobs::default())
            .apply(&g, &cfg);
        let r = run_sim(&Plan::from_prepared(&prepared, &cfg, Strategy::Topology));
        assert!(r.components <= exact, "{} > {}", r.components, exact);
    }
}
