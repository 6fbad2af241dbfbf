//! Strongly connected components via FW–BW–Trim (the Baseline-I exact SCC
//! of Devshatwar et al., itself a GPU adaptation of the Hong et al.
//! algorithm the paper cites).
//!
//! Simulated GPU version: iterative rounds of (1) **trim** supersteps that
//! peel vertices with no live in- or out-neighbors as singleton SCCs,
//! (2) pivot selection (max live degree), (3) metered **forward** and
//! **backward** reachability from the pivot, whose intersection is one SCC.
//! Rounds repeat until every vertex is assigned.
//!
//! All SCC state lives in *logical* space: a replica or virtual copy shares
//! its logical node's liveness/marks (the per-iteration confluence of
//! §2.4), and every copy's edge slice participates in propagation — so the
//! measured inaccuracy (the paper's metric: difference in component count)
//! reflects the transform's structural changes (added shortcut edges
//! merging or bridging components), not bookkeeping artifacts.

use crate::plan::{Plan, SimRun};
use crate::runner::{Runner, VertexProgram};
use graffix_graph::{Csr, NodeId};
use graffix_sim::{ArrayId, AtomicU32Array, KernelStats, Lane};

/// Result of a simulated SCC run.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// Per-original-vertex component labels.
    pub run: SimRun,
    /// Number of strongly connected components found.
    pub components: usize,
}

/// One trim superstep: every copy scans its out- and in-slices for live
/// neighbors and flags liveness evidence for its logical node. Branches
/// only on the host-fixed `alive` snapshot, so traces are deterministic;
/// the evidence flags fold through idempotent atomic stores.
struct TrimProgram<'a> {
    plan: &'a Plan,
    transpose: &'a Csr,
    alive: &'a [bool],
    out_any: AtomicU32Array,
    in_any: AtomicU32Array,
}

impl VertexProgram for TrimProgram<'_> {
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        let l = plan.logical_of(v) as usize;
        lane.read(ArrayId::NODE_ATTR, plan.slot(v) as usize);
        if !self.alive[l] {
            return false;
        }
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = graph.edges_raw()[e];
            let lu = plan.logical_of(u) as usize;
            lane.read(ArrayId::NODE_ATTR, plan.slot(u) as usize);
            if lu != l && self.alive[lu] {
                self.out_any.store(l, 1);
                break;
            }
        }
        for e in self.transpose.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = self.transpose.edges_raw()[e];
            let lu = plan.logical_of(u) as usize;
            lane.read(ArrayId::NODE_ATTR, plan.slot(u) as usize);
            if lu != l && self.alive[lu] {
                self.in_any.store(l, 1);
                break;
            }
        }
        false
    }
}

/// Frontier reachability over live logical nodes. Discovery branches on the
/// previous wave's committed `prev_mark` snapshot (never this wave's
/// concurrent stores); duplicate same-wave discoveries fold through the
/// idempotent store and dedup in the frontier filter.
struct ReachProgram<'a> {
    plan: &'a Plan,
    /// The traversal topology: the processing graph or its transpose.
    graph: &'a Csr,
    alive: &'a [bool],
    prev_mark: Vec<bool>,
    next_mark: AtomicU32Array,
}

impl VertexProgram for ReachProgram<'_> {
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        lane.read(ArrayId::OFFSETS, v as usize);
        let mut changed = false;
        for e in self.graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = self.graph.edges_raw()[e];
            let lu = plan.logical_of(u) as usize;
            lane.read(ArrayId::NODE_ATTR, plan.slot(u) as usize);
            if self.alive[lu] && !self.prev_mark[lu] {
                lane.write(ArrayId::NODE_ATTR, plan.slot(u) as usize);
                self.next_mark.store(lu, 1);
                plan.activate_logical(lu as NodeId, lane);
                changed = true;
            } else {
                lane.compute(1);
            }
        }
        changed
    }

    fn after_iteration(
        &mut self,
        _runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        for (l, m) in self.prev_mark.iter_mut().enumerate() {
            *m = self.next_mark.load(l) != 0;
        }
        (KernelStats::default(), false)
    }
}

/// Runs simulated FW–BW–Trim SCC.
pub fn run_sim(plan: &Plan) -> SccResult {
    let runner = Runner::new(plan);
    let graph = &plan.graph;
    let transpose = graph.transpose();
    let n_logical = plan.num_original();

    let mut alive = vec![true; n_logical];
    let mut comp = vec![f64::NAN; n_logical];
    let mut components = 0usize;
    let mut stats = KernelStats::default();
    let mut iterations = 0usize;
    let mut live_remaining = n_logical;

    let all_nodes: Vec<NodeId> = runner.active_nodes();

    while live_remaining > 0 {
        // --- Trim: peel logical nodes with no live out- or in-neighbor.
        loop {
            iterations += 1;
            let prog = TrimProgram {
                plan,
                transpose: &transpose,
                alive: &alive,
                out_any: AtomicU32Array::new(n_logical, 0),
                in_any: AtomicU32Array::new(n_logical, 0),
            };
            let outcome = runner.run_program(&all_nodes, &prog);
            stats += outcome.stats;
            let TrimProgram {
                out_any, in_any, ..
            } = prog;
            let mut trimmed = 0usize;
            for l in 0..n_logical {
                if alive[l] && (out_any.load(l) == 0 || in_any.load(l) == 0) {
                    alive[l] = false;
                    comp[l] = l as f64;
                    components += 1;
                    trimmed += 1;
                }
            }
            live_remaining -= trimmed;
            if trimmed == 0 {
                break;
            }
        }
        if live_remaining == 0 {
            break;
        }

        // --- Pivot: live logical node with the largest combined degree
        // over its copies.
        let pivot = (0..n_logical)
            .filter(|&l| alive[l])
            .max_by_key(|&l| {
                let deg: usize = plan.procs_of_logical()[l]
                    .iter()
                    .map(|&v| graph.degree(v) + transpose.degree(v))
                    .sum();
                (deg, std::cmp::Reverse(l))
            })
            .unwrap();

        // --- Forward and backward reachability from the pivot.
        let fwd = reach(&runner, graph, &alive, pivot, &mut stats, &mut iterations);
        let bwd = reach(
            &runner,
            &transpose,
            &alive,
            pivot,
            &mut stats,
            &mut iterations,
        );

        // --- The intersection is one SCC.
        let mut scc_size = 0usize;
        for l in 0..n_logical {
            if alive[l] && fwd[l] && bwd[l] {
                alive[l] = false;
                comp[l] = pivot as f64;
                scc_size += 1;
            }
        }
        debug_assert!(scc_size >= 1, "pivot must reach itself");
        live_remaining -= scc_size;
        components += 1;
    }

    SccResult {
        run: SimRun {
            values: comp,
            stats,
            iterations,
        },
        components,
    }
}

/// Metered frontier reachability over live logical nodes from `pivot`.
fn reach(
    runner: &Runner<'_>,
    graph: &Csr,
    alive: &[bool],
    pivot: usize,
    stats: &mut KernelStats,
    iterations: &mut usize,
) -> Vec<bool> {
    let plan = runner.plan;
    let n_logical = plan.num_original();
    let mut prev_mark = vec![false; n_logical];
    prev_mark[pivot] = true;
    let next_mark = AtomicU32Array::new(n_logical, 0);
    next_mark.store(pivot, 1);
    let mut prog = ReachProgram {
        plan,
        graph,
        alive,
        prev_mark,
        next_mark,
    };
    let init = plan.procs_of_logical()[pivot].clone();
    let (reach_stats, iters) = runner.frontier_loop(init, usize::MAX, &mut prog);
    *stats += reach_stats;
    *iterations += iters;
    prog.prev_mark
}

/// Exact CPU reference: Tarjan's algorithm (iterative), returning the
/// number of SCCs over non-hole vertices.
pub fn exact_cpu_count(g: &Csr) -> usize {
    let n = g.num_nodes();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0usize;

    // Iterative Tarjan with an explicit call stack: (node, edge cursor).
    let mut call: Vec<(NodeId, usize)> = Vec::new();
    for root in g.real_nodes() {
        if index[root as usize] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor == 0 {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            let nbrs = g.neighbors(v);
            let mut descended = false;
            while *cursor < nbrs.len() {
                let u = nbrs[*cursor];
                *cursor += 1;
                if index[u as usize] == u32::MAX {
                    call.push((u, 0));
                    descended = true;
                    break;
                } else if on_stack[u as usize] {
                    low[v as usize] = low[v as usize].min(index[u as usize]);
                }
            }
            if descended {
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
            if low[v as usize] == index[v as usize] {
                count += 1;
                while let Some(w) = stack.pop() {
                    on_stack[w as usize] = false;
                    if w == v {
                        break;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Strategy;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use graffix_sim::GpuConfig;

    fn two_cycles() -> Csr {
        // Cycle {0,1,2}, cycle {3,4}, bridge 2 -> 3, isolated 5.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(3, 4);
        b.add_edge(4, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn tarjan_counts_components() {
        let g = two_cycles();
        assert_eq!(exact_cpu_count(&g), 3); // {0,1,2}, {3,4}, {5}
    }

    #[test]
    fn sim_matches_tarjan_on_exact_plan() {
        let g = two_cycles();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        assert_eq!(result.components, 3);
    }

    #[test]
    fn sim_matches_tarjan_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = GraphSpec::new(GraphKind::Random, 200, seed).generate();
            let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
            let result = run_sim(&plan);
            assert_eq!(
                result.components,
                exact_cpu_count(&g),
                "seed {seed} mismatch"
            );
        }
    }

    #[test]
    fn symmetric_graph_has_wcc_equal_scc() {
        let g = GraphSpec::new(GraphKind::Road, 400, 5).generate();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        assert_eq!(result.components, exact_cpu_count(&g));
    }

    #[test]
    fn component_labels_partition_members() {
        let g = two_cycles();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        let v = &result.run.values;
        assert_eq!(v[0], v[1]);
        assert_eq!(v[1], v[2]);
        assert_eq!(v[3], v[4]);
        assert_ne!(v[0], v[3]);
        assert_ne!(v[5], v[0]);
    }

    #[test]
    fn transformed_count_close() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 300, 4).generate();
        let exact = exact_cpu_count(&g) as f64;
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        let plan = Plan::from_prepared(&prepared, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        let err = crate::accuracy::scalar_inaccuracy(result.components as f64, exact);
        assert!(err < 0.25, "SCC count error {err}");
    }
}
