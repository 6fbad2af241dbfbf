//! Minimum spanning tree/forest via Borůvka's algorithm (the structure of
//! the LonestarGPU MST and of Nobari et al.'s parallel MSF the paper
//! cites). Every arc is treated as an undirected candidate edge.
//!
//! Simulated GPU version per round: a metered **propose** superstep in
//! which every vertex scans its edges and atomic-mins the lightest edge
//! leaving its component; a metered **merge** superstep contracting the
//! proposed edges (host union-find mirrors the device pointer array); and
//! a metered **pointer-jumping** superstep compressing component labels.
//! Rounds repeat until no component proposes — `O(log V)` rounds.
//!
//! The propose kernel branches only on the component roots snapshotted
//! host-side before the launch, and folds candidates through an atomic min
//! over `(weight, edge id)` keys — so both results and traces are
//! deterministic under parallel warp execution.
//!
//! Replica copies are *not* pre-unioned: a transformed graph's forest must
//! connect each replica through real edges, which is exactly the
//! approximation cost the paper's MST inaccuracy measures. The accuracy
//! metric is the relative difference in forest weight (paper §5).

use crate::plan::{Plan, SimRun};
use crate::runner::Runner;
use graffix_graph::{Csr, NodeId};
use graffix_sim::{ArrayId, AtomicU64Array, KernelStats, Lane};

/// Result of a simulated MST run.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// Per-original-vertex component labels of the final forest.
    pub run: SimRun,
    /// Total forest weight.
    pub weight: f64,
    /// Edges selected into the forest.
    pub edges: usize,
}

/// Union-find with path halving over attribute slots.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra as usize] = rb;
            true
        }
    }
}

/// Runs simulated Borůvka MST and returns component labels plus the forest
/// weight.
pub fn run_sim(plan: &Plan) -> MstResult {
    let runner = Runner::new(plan);
    let graph = &plan.graph;
    let mut dsu = Dsu::new(plan.attr_len);
    let mut weight = 0.0f64;
    let mut tree_edges = 0usize;
    let mut stats = KernelStats::default();
    let mut iterations = 0usize;
    let active = runner.active_nodes();

    // Source processing node of each edge id (decodes winning proposals).
    let mut src_of_edge = vec![0 as NodeId; graph.edges_raw().len()];
    for &v in &active {
        for e in graph.edge_range(v) {
            src_of_edge[e] = v;
        }
    }

    loop {
        iterations += 1;
        // --- Propose: per component, the minimum-weight outgoing edge.
        // Candidates fold through an atomic min over `(weight, edge id)`
        // keys, keyed by the host-snapshotted component root of each slot —
        // lower edge id breaks weight ties, so the winner is unique and
        // schedule-independent.
        let root_of: Vec<u32> = {
            let mut r = vec![0u32; plan.attr_len];
            for (s, slot_root) in r.iter_mut().enumerate() {
                *slot_root = dsu.find(s as u32);
            }
            r
        };
        let best = AtomicU64Array::new(plan.attr_len, u64::MAX);
        let outcome = runner.launch(&active, |v, lane: &mut Lane| {
            let slot = plan.slot(v);
            lane.read(ArrayId::NODE_ATTR, slot as usize);
            let root_v = root_of[slot as usize];
            let mut proposed = false;
            for e in graph.edge_range(v) {
                lane.read(ArrayId::EDGES, e);
                let u = graph.edges_raw()[e];
                let su = plan.slot(u);
                lane.read(ArrayId::NODE_ATTR, su as usize);
                let root_u = root_of[su as usize];
                if root_u == root_v {
                    continue;
                }
                let key = ((graph.weight_at(e) as u64) << 32) | e as u64;
                for root in [root_v, root_u] {
                    lane.atomic(ArrayId::NODE_ATTR_AUX, root as usize);
                    best.fetch_min(root as usize, key);
                }
                proposed = true;
            }
            proposed
        });
        stats += outcome.stats;
        if !outcome.changed {
            break;
        }

        // --- Merge: contract proposed edges (metered one read + one write
        // per proposing component, mirroring the device's component-merge
        // kernel).
        let mut proposals: Vec<(u32, usize, u32, u32)> = Vec::new();
        let mut roots: Vec<NodeId> = Vec::new();
        for r in 0..plan.attr_len {
            let key = best.load(r);
            if key == u64::MAX {
                continue;
            }
            roots.push(r as NodeId);
            let e = (key & u32::MAX as u64) as usize;
            let w = (key >> 32) as u32;
            let slot = plan.slot(src_of_edge[e]);
            let su = plan.slot(graph.edges_raw()[e]);
            proposals.push((w, e, slot, su));
        }
        let merge = runner.launch(&roots, |r, lane: &mut Lane| {
            lane.read(ArrayId::NODE_ATTR_AUX, r as usize);
            lane.write(ArrayId::NODE_ATTR, r as usize);
            true
        });
        stats += merge.stats;
        let mut merged_any = false;
        // Deterministic application order: by (weight, edge id).
        let mut ordered = proposals;
        ordered.sort_unstable();
        ordered.dedup();
        for (w, _e, a, b) in ordered {
            if dsu.union(a, b) {
                weight += w as f64;
                tree_edges += 1;
                merged_any = true;
            }
        }
        if !merged_any {
            break;
        }

        // --- Pointer jumping: compress labels (metered read+write per
        // slot; the union-find paths compress host-side after the launch).
        let compress = runner.launch(&active, |v, lane: &mut Lane| {
            let slot = plan.slot(v);
            lane.read(ArrayId::NODE_ATTR, slot as usize);
            lane.write(ArrayId::NODE_ATTR, slot as usize);
            false
        });
        stats += compress.stats;
        for s in 0..plan.attr_len as u32 {
            dsu.find(s);
        }
    }

    let labels: Vec<f64> = (0..plan.attr_len as u32)
        .map(|s| dsu.find(s) as f64)
        .collect();
    MstResult {
        run: SimRun {
            values: plan.map_back(&labels),
            stats,
            iterations,
        },
        weight,
        edges: tree_edges,
    }
}

/// Exact CPU reference: Kruskal over the arcs-as-undirected-edges view.
/// Returns `(forest weight, edges used)`.
pub fn exact_cpu(g: &Csr) -> (f64, usize) {
    let mut edges: Vec<(u32, NodeId, NodeId)> = g
        .edge_triples()
        .map(|(u, v, w)| if u <= v { (w, u, v) } else { (w, v, u) })
        .collect();
    edges.sort_unstable();
    edges.dedup_by_key(|e| (e.1, e.2));
    // After sorting by weight first, dedup on endpoints keeps the lightest
    // parallel edge only if adjacent — dedup fully via a set instead.
    edges.sort_unstable_by_key(|&(w, u, v)| (u, v, w));
    edges.dedup_by_key(|e| (e.1, e.2));
    edges.sort_unstable();

    let mut dsu = Dsu::new(g.num_nodes());
    let mut weight = 0.0f64;
    let mut used = 0usize;
    for (w, u, v) in edges {
        if dsu.union(u, v) {
            weight += w as f64;
            used += 1;
        }
    }
    (weight, used)
}

/// Convenience: forest weight difference metric used by the tables.
pub fn inaccuracy(result: &MstResult, exact_weight: f64) -> f64 {
    crate::accuracy::scalar_inaccuracy(result.weight, exact_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Strategy;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use graffix_sim::GpuConfig;

    fn weighted_square() -> Csr {
        // Square 0-1-2-3 with one heavy diagonal; MST weight = 1+2+3 = 6.
        let mut b = GraphBuilder::new(4);
        b.add_undirected_weighted_edge(0, 1, 1);
        b.add_undirected_weighted_edge(1, 2, 2);
        b.add_undirected_weighted_edge(2, 3, 3);
        b.add_undirected_weighted_edge(3, 0, 9);
        b.add_undirected_weighted_edge(0, 2, 8);
        b.build()
    }

    #[test]
    fn kruskal_on_square() {
        let (w, used) = exact_cpu(&weighted_square());
        assert_eq!(w, 6.0);
        assert_eq!(used, 3);
    }

    #[test]
    fn boruvka_matches_kruskal_weight() {
        let g = weighted_square();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        assert_eq!(result.weight, 6.0);
        assert_eq!(result.edges, 3);
    }

    #[test]
    fn boruvka_matches_kruskal_on_random_graphs() {
        for seed in [3u64, 8, 21] {
            let g = GraphSpec::new(GraphKind::Random, 150, seed).generate();
            let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
            let result = run_sim(&plan);
            let (w, _) = exact_cpu(&g);
            assert!(
                (result.weight - w).abs() < 1e-9,
                "seed {seed}: boruvka {} vs kruskal {w}",
                result.weight
            );
        }
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected_weighted_edge(0, 1, 5);
        b.add_undirected_weighted_edge(2, 3, 7);
        let g = b.build();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        assert_eq!(result.weight, 12.0);
        assert_eq!(result.edges, 2);
        // Labels: components {0,1} and {2,3} distinct.
        assert_eq!(result.run.values[0], result.run.values[1]);
        assert_ne!(result.run.values[0], result.run.values[2]);
    }

    #[test]
    fn rounds_are_logarithmic() {
        let g = GraphSpec::new(GraphKind::Random, 500, 4).generate();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        assert!(
            result.run.iterations <= 16,
            "Borůvka took {} rounds",
            result.run.iterations
        );
    }

    #[test]
    fn transformed_weight_close_to_exact() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 300, 9).generate();
        let (exact_w, _) = exact_cpu(&g);
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        let plan = Plan::from_prepared(&prepared, &GpuConfig::test_tiny(), Strategy::Topology);
        let result = run_sim(&plan);
        let err = inaccuracy(&result, exact_w);
        assert!(err < 0.6, "MST inaccuracy too large: {err}");
    }
}
