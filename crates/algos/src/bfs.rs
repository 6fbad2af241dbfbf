//! Breadth-first search as a standalone metered algorithm.
//!
//! BFS is the inner engine of both Brandes' forward pass and the
//! renumbering scheme; exposing it directly gives a sixth, divergence-
//! sensitive workload (the classic GPU-traversal benchmark, cf. Merrill et
//! al., which the paper cites) and the simplest possible lens on each
//! transform's effect: hop counts shrink exactly when shortcut edges were
//! added.

use crate::plan::{Plan, SimRun};
use crate::runner::{Runner, VertexProgram};
use graffix_graph::{Csr, NodeId, INVALID_NODE};
use graffix_sim::{ArrayId, AtomicU32Array, KernelStats, Lane};

/// Level-synchronous BFS expansion. Discovery branches on the previous
/// wave's committed levels (`prev`), never on this wave's concurrent
/// writes, so every lane's trace — and therefore the warp cost — is
/// schedule-independent; concurrent discoveries of the same node fold
/// through an atomic min and dedup in the frontier filter.
struct BfsProgram<'p> {
    plan: &'p Plan,
    /// Committed per-logical-vertex levels (previous waves).
    prev: Vec<u32>,
    /// This wave's discoveries (atomic min over concurrent finders).
    next: AtomicU32Array,
    cur: u32,
}

impl VertexProgram for BfsProgram<'_> {
    fn begin_iteration(&mut self, iter: usize) {
        self.cur = iter as u32;
    }

    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        lane.read(ArrayId::OFFSETS, v as usize);
        let mut changed = false;
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let u = graph.edges_raw()[e];
            let lu = plan.logical_of(u) as usize;
            lane.read(ArrayId::NODE_ATTR, plan.slot(u) as usize);
            if self.prev[lu] == u32::MAX {
                lane.write(ArrayId::NODE_ATTR, plan.slot(u) as usize);
                self.next.fetch_min(lu, self.cur + 1);
                plan.activate_logical(lu as NodeId, lane);
                changed = true;
            } else {
                lane.compute(1);
            }
        }
        changed
    }

    fn supports_pull(&self) -> bool {
        true
    }

    /// Bottom-up step (Beamer): an *undiscovered* `v` scans its in-edges on
    /// the CSC mirror and adopts level `cur + 1` at the first discovered
    /// parent — the early exit that makes pull BFS cheap on dense waves.
    /// Level-identical to push: if some in-neighbor of an undiscovered `v`
    /// held a committed level below `cur`, it would have discovered `v` in
    /// an earlier wave, so every discovered parent sits at exactly `cur`
    /// and the adopted level matches what push would write. The early exit
    /// branches only on host-committed `prev`, keeping the trace
    /// schedule-independent.
    fn process_pull(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let csc = plan.csc();
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::NODE_ATTR, slot);
        let lv = plan.logical_of(v);
        if lv == INVALID_NODE || self.prev[lv as usize] != u32::MAX {
            return false;
        }
        lane.read(ArrayId::T_OFFSETS, v as usize);
        let sources = plan.csc_source_slots();
        for e in csc.edge_range(v) {
            lane.read(ArrayId::T_EDGES, e);
            let slot_u = sources[e] as usize;
            lane.read(ArrayId::NODE_ATTR, slot_u);
            if self.prev[plan.to_original[slot_u] as usize] != u32::MAX {
                lane.write(ArrayId::NODE_ATTR, slot);
                self.next.fetch_min(lv as usize, self.cur + 1);
                plan.activate_logical(lv, lane);
                return true;
            }
            lane.compute(1);
        }
        false
    }

    fn after_iteration(
        &mut self,
        _runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        self.prev.copy_from_slice(&self.next.to_vec());
        (KernelStats::default(), false)
    }
}

/// Runs simulated BFS from `source` (original id); returns per-original
/// hop counts (`f64::INFINITY` for unreachable vertices).
pub fn run_sim(plan: &Plan, source: NodeId) -> SimRun {
    assert!(
        (source as usize) < plan.num_original(),
        "source out of range"
    );
    let runner = Runner::new(plan);
    let n_logical = plan.num_original();

    let mut level = vec![u32::MAX; n_logical];
    level[source as usize] = 0;
    let init = plan.procs_of_logical()[source as usize].clone();
    let mut prog = BfsProgram {
        plan,
        next: AtomicU32Array::from_slice(&level),
        prev: level,
        cur: 0,
    };
    let (stats, iterations) = runner.frontier_loop(init, usize::MAX, &mut prog);

    SimRun {
        values: prog
            .prev
            .into_iter()
            .map(|l| {
                if l == u32::MAX {
                    f64::INFINITY
                } else {
                    l as f64
                }
            })
            .collect(),
        stats,
        iterations,
    }
}

/// Exact CPU reference: hop counts from `source`.
pub fn exact_cpu(g: &Csr, source: NodeId) -> Vec<f64> {
    graffix_graph::traversal::bfs_levels(g, source)
        .into_iter()
        .map(|l| l.map_or(f64::INFINITY, |l| l as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::relative_l1;
    use crate::plan::Strategy;
    use graffix_graph::generators::classic;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_sim::GpuConfig;

    #[test]
    fn sim_matches_reference_on_path() {
        let g = classic::path(8);
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan, 0);
        assert_eq!(run.values[7], 7.0);
        assert_eq!(run.iterations, 8); // 7 expanding levels + drain
        assert!(relative_l1(&run.values, &exact_cpu(&g, 0)) < 1e-12);
    }

    #[test]
    fn sim_matches_reference_on_random_graphs() {
        for seed in [1u64, 5] {
            let g = GraphSpec::new(GraphKind::Random, 300, seed).generate();
            let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Frontier);
            let run = run_sim(&plan, 0);
            assert!(
                relative_l1(&run.values, &exact_cpu(&g, 0)) < 1e-12,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn shortcut_edges_shrink_hop_counts() {
        use graffix_core::{LatencyKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 600, 7).generate();
        let gpu = GpuConfig::k40c();
        let prepared = Pipeline::default()
            .with_latency(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal))
            .apply(&g, &gpu);
        let src = crate::sssp::default_source(&g);
        let plan = Plan::from_prepared(&prepared, &gpu, Strategy::Topology);
        let run = run_sim(&plan, src);
        let reference = exact_cpu(&g, src);
        for (v, (&a, &e)) in run.values.iter().zip(&reference).enumerate() {
            if e.is_finite() {
                assert!(a <= e + 1e-9, "node {v}: hops grew {a} > {e}");
            }
        }
    }

    #[test]
    fn pull_matches_push_exactly() {
        use crate::plan::Direction;
        let g = GraphSpec::new(GraphKind::SocialTwitter, 300, 3).generate();
        let src = crate::sssp::default_source(&g);
        let cfg = GpuConfig::test_tiny();
        let push = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), src);
        for dir in [Direction::Pull, Direction::Auto] {
            let run = run_sim(
                &Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(dir),
                src,
            );
            assert_eq!(run.values, push.values, "direction {dir:?}");
        }
    }

    #[test]
    fn unreachable_stay_infinite() {
        let g = classic::directed_chain(3, 1);
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan, 2);
        assert!(run.values[0].is_infinite());
        assert_eq!(run.values[2], 0.0);
    }
}
