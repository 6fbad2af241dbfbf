//! Property-based tests of the graph substrate: structural invariants that
//! must hold for *any* input, not just the curated unit-test cases.

use graffix_graph::{io, properties, traversal, Csr, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Strategy: an arbitrary small directed graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..120);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

fn build_weighted(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        b.add_weighted_edge(u, v, (i % 17 + 1) as u32);
    }
    b.build()
}

proptest! {
    #[test]
    fn builder_output_always_validates((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_nodes(), n);
    }

    #[test]
    fn neighbor_lists_sorted_and_deduped((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for v in 0..n as NodeId {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1], "node {}: {:?}", v, nbrs);
            }
        }
    }

    #[test]
    fn transpose_is_an_involution((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let tt = g.transpose().transpose();
        prop_assert_eq!(g.offsets(), tt.offsets());
        prop_assert_eq!(g.edges_raw(), tt.edges_raw());
    }

    #[test]
    fn transpose_preserves_edge_count((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn undirected_closure_is_symmetric((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let u = g.to_undirected();
        for (a, b, _) in u.edge_triples().collect::<Vec<_>>() {
            prop_assert!(u.has_edge(b, a));
        }
    }

    #[test]
    fn edge_list_roundtrip((n, edges) in arb_graph()) {
        let g = build_weighted(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..], Some(n)).unwrap();
        prop_assert_eq!(g.offsets(), g2.offsets());
        prop_assert_eq!(g.edges_raw(), g2.edges_raw());
        prop_assert_eq!(g.weights_raw(), g2.weights_raw());
    }

    #[test]
    fn dimacs_roundtrip((n, edges) in arb_graph()) {
        let g = build_weighted(n, &edges);
        let mut buf = Vec::new();
        io::write_dimacs(&g, &mut buf).unwrap();
        let g2 = io::read_dimacs(&buf[..]).unwrap();
        prop_assert_eq!(g.edges_raw(), g2.edges_raw());
        prop_assert_eq!(g.weights_raw(), g2.weights_raw());
    }

    #[test]
    fn bfs_levels_increase_by_at_most_one_along_edges((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let levels = traversal::bfs_levels(&g, 0);
        for (u, v, _) in g.edge_triples() {
            if let Some(lu) = levels[u as usize] {
                let lv = levels[v as usize].expect("reachable successor must be visited");
                prop_assert!(lv <= lu + 1, "edge {}->{} levels {} -> {}", u, v, lu, lv);
            }
        }
    }

    #[test]
    fn bfs_forest_levels_are_a_fixpoint((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let f = traversal::bfs_forest(&g);
        // Every non-root node has some in-neighbor exactly one level above.
        for (u, v, _) in g.edge_triples() {
            prop_assert!(
                f.level[v as usize] <= f.level[u as usize].saturating_add(1),
                "edge {}->{} violates level fixpoint", u, v
            );
        }
    }

    #[test]
    fn connected_components_bounds((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let c = properties::connected_components(&g);
        prop_assert!(c >= 1 && c <= n);
        // Adding edges can only merge components.
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        b.add_undirected_edge(0, (n - 1) as u32);
        let c2 = properties::connected_components(&b.build());
        prop_assert!(c2 <= c);
    }

    #[test]
    fn clustering_coefficients_in_unit_interval((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for cc in properties::clustering_coefficients(&g) {
            prop_assert!((0.0..=1.0).contains(&cc), "cc = {}", cc);
        }
    }

    #[test]
    fn clustering_coefficients_equal_the_per_node_oracle((n, edges) in arb_graph()) {
        // On top of what `arb_graph` draws: every arc twice, every other one
        // with its antiparallel twin, every fifth with a self-loop at its
        // source, and two more slots that stay isolated, one of them a hole.
        let mut b = GraphBuilder::new(n + 2);
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.add_edge(u, v);
            b.add_edge(u, v);
            if i % 2 == 0 {
                b.add_edge(v, u);
            }
            if i % 5 == 0 {
                b.add_edge(u, u);
            }
        }
        let mut g = b.build();
        let mut mask = vec![false; n + 2];
        mask[n + 1] = true;
        g.set_hole_mask(mask);
        let und = g.undirected();
        let fast = properties::clustering_coefficients(&g);
        prop_assert_eq!(fast.len(), n + 2);
        for v in 0..(n + 2) as NodeId {
            let oracle = properties::local_clustering_coefficient(&und, v);
            prop_assert_eq!(fast[v as usize].to_bits(), oracle.to_bits(), "node {}", v);
        }
        // Each triangle has three corners.
        let counts = properties::triangle_counts(&und);
        prop_assert_eq!(counts.iter().sum::<u64>() % 3, 0);
        prop_assert_eq!(counts[n], 0);
        prop_assert_eq!(counts[n + 1], 0);
    }

    #[test]
    fn degree_histogram_consistent((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let hist = properties::degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), n);
        let weighted_sum: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        prop_assert_eq!(weighted_sum, g.num_edges());
    }
}
