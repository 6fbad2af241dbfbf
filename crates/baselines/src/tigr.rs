//! Baseline-II: Tigr-style virtual splitting (Nodehi Sabet et al.,
//! ASPLOS 2018).
//!
//! Tigr transforms an irregular graph into a more regular *virtual* graph:
//! every node whose degree exceeds a bound is split into several virtual
//! nodes, each owning a slice of the edge list, while all virtual copies
//! share the real node's attribute data. Bounded virtual degrees shrink
//! thread divergence; the contiguous per-virtual-node edge slices realize
//! Tigr's "edge-array coalescing". This module reproduces that shape on
//! the simulator: the processing graph gains split nodes, and `attr_of`
//! maps every split back to its real attribute slot — so atomic updates
//! still contend on the shared real-node data, exactly Tigr's behaviour.

use graffix_algos::{Direction, Plan, PlanDerived, Strategy};
use graffix_core::Prepared;
use graffix_graph::{Csr, NodeId, INVALID_NODE};
use graffix_sim::GpuConfig;

/// Default bound on a virtual node's degree (Tigr evaluates small bounds;
/// one warp-quarter keeps warps busy without exploding the node count).
pub const DEFAULT_MAX_VIRTUAL_DEGREE: usize = 8;

/// Builds the Baseline-II plan: virtual-split `prepared.graph` with the
/// given degree bound.
pub fn plan(prepared: &Prepared, cfg: &GpuConfig, max_virtual_degree: usize) -> Plan {
    assert!(max_virtual_degree >= 1);
    let g = &prepared.graph;
    let n = g.num_nodes();

    // Pass 1: virtual node count.
    let mut total = n;
    for v in 0..n as NodeId {
        let deg = g.degree(v);
        if deg > max_virtual_degree {
            total += deg.div_ceil(max_virtual_degree) - 1;
        }
    }

    // Pass 2: build the virtual CSR. Node v keeps its first
    // `max_virtual_degree` edges; extra slices go to appended virtual
    // nodes. Edge *targets* stay original processing ids (their attr slots
    // are resolved through `attr_of`).
    let weighted = g.is_weighted();
    let mut offsets = Vec::with_capacity(total + 1);
    let mut edges: Vec<NodeId> = Vec::with_capacity(g.num_edges());
    let mut weights: Vec<u32> = if weighted {
        Vec::with_capacity(g.num_edges())
    } else {
        Vec::new()
    };
    let mut attr_of: Vec<NodeId> = Vec::with_capacity(total);
    let mut extra_slices: Vec<(NodeId, usize, usize)> = Vec::new(); // (real, start, end)

    offsets.push(0usize);
    for v in 0..n as NodeId {
        let range = g.edge_range(v);
        let deg = range.len();
        let first_end = range.start + deg.min(max_virtual_degree);
        for e in range.start..first_end {
            edges.push(g.edges_raw()[e]);
            if weighted {
                weights.push(g.weight_at(e));
            }
        }
        offsets.push(edges.len());
        attr_of.push(v);
        let mut cursor = first_end;
        while cursor < range.end {
            let end = (cursor + max_virtual_degree).min(range.end);
            extra_slices.push((v, cursor, end));
            cursor = end;
        }
    }
    for &(v, start, end) in &extra_slices {
        for e in start..end {
            edges.push(g.edges_raw()[e]);
            if weighted {
                weights.push(g.weight_at(e));
            }
        }
        offsets.push(edges.len());
        attr_of.push(v);
    }
    let graph = Csr::from_parts(offsets, edges, weights, Vec::new());

    // Assignment covers every virtual node; real holes stay idle slots.
    let assignment: Vec<NodeId> = (0..total as NodeId)
        .map(|v| {
            let real = attr_of[v as usize];
            if prepared.graph.is_hole(real) {
                INVALID_NODE
            } else {
                v
            }
        })
        .collect();

    let plan = Plan {
        cfg: cfg.clone(),
        graph,
        assignment,
        attr_of,
        attr_len: n,
        to_original: prepared.to_original.clone(),
        primary: prepared.primary.clone(),
        replica_groups: prepared.replica_groups.clone(),
        tiles: prepared.tiles.clone(),
        confluence: prepared.confluence,
        strategy: Strategy::Topology,
        direction: Direction::Push,
        trace: Default::default(),
        segments: None,
        derived: PlanDerived::default(),
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_algos::accuracy::relative_l1;
    use graffix_algos::{pagerank, sssp};
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;

    #[test]
    fn splits_bound_degrees() {
        let mut b = GraphBuilder::new(10);
        for d in 1..10u32 {
            b.add_edge(0, d);
        }
        let g = b.build();
        let p = plan(&Prepared::exact(g), &GpuConfig::k40c(), 4);
        // Node 0 (degree 9) splits into ceil(9/4) = 3 virtual nodes.
        assert_eq!(p.graph.num_nodes(), 12);
        for v in 0..12u32 {
            assert!(p.graph.degree(v) <= 4);
        }
        // All splits map to slot 0.
        assert_eq!(p.attr_of[0], 0);
        assert_eq!(p.attr_of[10], 0);
        assert_eq!(p.attr_of[11], 0);
        assert!(!p.identity_attrs());
    }

    #[test]
    fn edge_multiset_preserved() {
        let g = GraphSpec::new(GraphKind::Rmat, 300, 6).generate();
        let p = plan(&Prepared::exact(g.clone()), &GpuConfig::k40c(), 8);
        assert_eq!(p.graph.num_edges(), g.num_edges());
        // Every original arc appears from some virtual copy of its source.
        let mut orig: Vec<(NodeId, NodeId)> = g.edge_triples().map(|(u, v, _)| (u, v)).collect();
        let mut virt: Vec<(NodeId, NodeId)> = p
            .graph
            .edge_triples()
            .map(|(u, v, _)| (p.attr_of[u as usize], v))
            .collect();
        orig.sort_unstable();
        virt.sort_unstable();
        assert_eq!(orig, virt);
    }

    #[test]
    fn sssp_results_identical_to_unsplit() {
        let g = GraphSpec::new(GraphKind::SocialTwitter, 250, 8).generate();
        let src = sssp::default_source(&g);
        let cfg = GpuConfig::k40c();
        let prepared = Prepared::exact(g.clone());
        let tigr_run = sssp::run_sim(&plan(&prepared, &cfg, 8), src);
        let exact = sssp::exact_cpu(&g, src);
        assert!(relative_l1(&tigr_run.values, &exact) < 1e-12);
    }

    #[test]
    fn pagerank_matches_reference_under_split() {
        let g = GraphSpec::new(GraphKind::Random, 250, 2).generate();
        let cfg = GpuConfig::k40c();
        let run = pagerank::run_sim(&plan(&Prepared::exact(g.clone()), &cfg, 8));
        let exact = pagerank::exact_cpu(&g);
        assert!(relative_l1(&run.values, &exact) < 1e-4);
    }

    #[test]
    fn smaller_bound_means_more_virtual_nodes() {
        let g = GraphSpec::new(GraphKind::Rmat, 400, 3).generate();
        let prepared = Prepared::exact(g);
        let cfg = GpuConfig::k40c();
        let coarse = plan(&prepared, &cfg, 32);
        let fine = plan(&prepared, &cfg, 4);
        assert!(fine.graph.num_nodes() > coarse.graph.num_nodes());
        assert_eq!(fine.attr_len, coarse.attr_len, "attribute space unchanged");
    }

    #[test]
    fn split_of_transformed_graph_keeps_replica_groups() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::SocialTwitter, 300, 4).generate();
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default().with_threshold(0.3))
            .apply(&g, &GpuConfig::k40c());
        let p = plan(&prepared, &GpuConfig::k40c(), 8);
        p.validate().unwrap();
        assert_eq!(p.replica_groups.len(), prepared.replica_groups.len());
        // Holes stay idle lanes even through splitting.
        let idle = p.assignment.iter().filter(|&&v| v == INVALID_NODE).count();
        assert_eq!(idle, prepared.graph.num_holes());
    }

    #[test]
    fn degree_bound_one_is_edge_centric() {
        // bound 1 = one virtual node per edge: the extreme Tigr splitting,
        // equivalent to edge-centric processing.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let p = plan(&Prepared::exact(g.clone()), &GpuConfig::k40c(), 1);
        assert_eq!(p.graph.num_edges(), g.num_edges());
        for v in 0..p.graph.num_nodes() as NodeId {
            assert!(p.graph.degree(v) <= 1);
        }
    }

    #[test]
    fn divergence_lower_than_lonestar_on_skewed_graphs() {
        let g = GraphSpec::new(GraphKind::Rmat, 400, 4).generate();
        let src = sssp::default_source(&g);
        let cfg = GpuConfig::k40c();
        let prepared = Prepared::exact(g);
        let tigr_run = sssp::run_sim(&plan(&prepared, &cfg, 8), src);
        let lone_run = sssp::run_sim(&crate::lonestar::plan(&prepared, &cfg), src);
        assert!(
            tigr_run.stats.divergence_waste() < lone_run.stats.divergence_waste(),
            "tigr {} vs lonestar {}",
            tigr_run.stats.divergence_waste(),
            lone_run.stats.divergence_waste()
        );
    }
}
