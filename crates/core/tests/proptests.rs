//! Property-based tests of the three transforms: invariants that must hold
//! for arbitrary graphs and knob settings.

use graffix_core::coalesce::renumber;
use graffix_core::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs, Pipeline};
use graffix_graph::{Csr, GraphBuilder, NodeId, INVALID_NODE};
use graffix_sim::GpuConfig;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..36).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 1..140);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        b.add_weighted_edge(u, v, (i % 13 + 1) as u32);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn renumbering_is_bijective_with_aligned_levels(
        (n, edges) in arb_graph(),
        k in 1usize..12,
    ) {
        let g = build(n, &edges);
        let ren = renumber(&g, k);
        // Bijection old -> new.
        let mut seen = vec![false; ren.old_of_new.len()];
        for &new in &ren.new_of_old {
            prop_assert!(!seen[new as usize]);
            seen[new as usize] = true;
        }
        // Level ranges start at multiples of k and tile the slot space.
        let mut cursor = 0usize;
        for r in &ren.level_ranges {
            prop_assert_eq!(r.start % k, 0);
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, ren.old_of_new.len());
    }

    #[test]
    fn coalescing_conserves_every_original_arc(
        (n, edges) in arb_graph(),
        threshold in 0.05f64..1.0,
    ) {
        let g = build(n, &edges);
        let knobs = CoalesceKnobs { chunk_size: 4, threshold, max_replicas_per_node: 3 };
        let p = Pipeline::default().with_coalesce(knobs).apply(&g, &GpuConfig::k40c());
        p.validate().unwrap();
        // copies-of map.
        let mut copies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (new_id, &orig) in p.to_original.iter().enumerate() {
            if orig != INVALID_NODE {
                copies[orig as usize].push(new_id as NodeId);
            }
        }
        for (u, v, _) in g.edge_triples() {
            let found = copies[u as usize].iter().any(|&cu| {
                p.graph.neighbors(cu).iter().any(|&d| p.to_original[d as usize] == v)
            });
            prop_assert!(found, "arc {}->{} lost", u, v);
        }
    }

    #[test]
    fn coalescing_node_budget(
        (n, edges) in arb_graph(),
        threshold in 0.1f64..1.0,
    ) {
        let g = build(n, &edges);
        let knobs = CoalesceKnobs { chunk_size: 4, threshold, max_replicas_per_node: 2 };
        let p = Pipeline::default().with_coalesce(knobs).apply(&g, &GpuConfig::k40c());
        // New slot count = old nodes + holes; replicas only fill holes.
        prop_assert_eq!(
            p.report.new_nodes,
            p.report.original_nodes + p.report.holes_created
        );
        prop_assert!(p.report.holes_filled <= p.report.holes_created);
        prop_assert_eq!(p.report.replicas, p.report.holes_filled);
    }

    #[test]
    fn divergence_physical_renumber_is_isomorphism_without_fills(
        (n, edges) in arb_graph(),
    ) {
        let g = build(n, &edges);
        let knobs = DivergenceKnobs { degree_sim_threshold: 0.0, ..Default::default() };
        let p = Pipeline::default().with_divergence(knobs).apply(&g, &GpuConfig::test_tiny());
        prop_assert_eq!(p.graph.num_edges(), g.num_edges());
        for (u, v, w) in g.edge_triples() {
            let (nu, nv) = (p.primary[u as usize], p.primary[v as usize]);
            prop_assert!(p.graph.has_edge(nu, nv));
            let pos = p.graph.neighbors(nu).binary_search(&nv).unwrap();
            prop_assert_eq!(p.graph.edge_weights(nu)[pos], w);
        }
    }

    #[test]
    fn divergence_never_removes_edges(
        (n, edges) in arb_graph(),
        thr in 0.0f64..1.0,
    ) {
        let g = build(n, &edges);
        let knobs = DivergenceKnobs {
            degree_sim_threshold: thr,
            edge_budget_frac: 0.5,
            ..Default::default()
        };
        let p = Pipeline::default().with_divergence(knobs).apply(&g, &GpuConfig::test_tiny());
        prop_assert!(p.graph.num_edges() >= g.num_edges());
        prop_assert_eq!(p.report.edges_added, p.graph.num_edges() - g.num_edges());
    }

    #[test]
    fn latency_tiles_are_disjoint_and_bounded(
        (n, edges) in arb_graph(),
        thr in 0.0f64..1.0,
    ) {
        let g = build(n, &edges);
        let cfg = GpuConfig::k40c();
        let knobs = LatencyKnobs { cc_threshold: thr, ..Default::default() };
        let p = Pipeline::default().with_latency(knobs).apply(&g, &cfg);
        p.validate().unwrap();
        let mut seen = vec![false; p.graph.num_nodes()];
        for tile in &p.tiles {
            prop_assert!(tile.nodes.len() >= 3);
            prop_assert!(tile.iterations >= 1);
            for &v in &tile.nodes {
                prop_assert!(!seen[v as usize], "node {} in two tiles", v);
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn latency_keeps_original_edges(
        (n, edges) in arb_graph(),
    ) {
        let g = build(n, &edges);
        let cfg = GpuConfig::k40c();
        let p = Pipeline::default().with_latency(LatencyKnobs::default()).apply(&g, &cfg);
        for (u, v, _) in g.edge_triples() {
            prop_assert!(p.graph.has_edge(u, v));
        }
    }

    #[test]
    fn preprocessing_reports_are_sane(
        (n, edges) in arb_graph(),
    ) {
        let g = build(n, &edges);
        let cfg = GpuConfig::k40c();
        for p in [
            Pipeline::default().with_coalesce(CoalesceKnobs::default()).apply(&g, &cfg),
            Pipeline::default().with_latency(LatencyKnobs::default()).apply(&g, &cfg),
            Pipeline::default().with_divergence(DivergenceKnobs::default()).apply(&g, &cfg),
        ] {
            prop_assert!(p.report.preprocess_seconds >= 0.0);
            prop_assert!(p.report.space_overhead >= -1e-9);
            prop_assert_eq!(p.report.original_nodes, n);
            prop_assert_eq!(p.report.original_edges, g.num_edges());
        }
    }
}
