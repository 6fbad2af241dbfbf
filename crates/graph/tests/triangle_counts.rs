//! `properties::triangle_counts` on fixtures with known answers, and the
//! same integers at any host thread count. CI re-runs this file under
//! `GRAFFIX_THREADS=1` and `=8`.

use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::properties::{
    clustering_coefficients, local_clustering_coefficient, triangle_counts,
};
use graffix_graph::{Csr, GraphBuilder, NodeId};

/// Star ∪ clique ∪ tail. Node 0 is a hub joined to 1..=40; 1..=5 form a
/// 5-clique; 41-42-43 is a path hanging off node 40; 44 is isolated.
fn hub_fixture() -> Csr {
    let mut b = GraphBuilder::new(45);
    for leaf in 1..=40 {
        b.add_undirected_edge(0, leaf);
    }
    for u in 1..=5 {
        for v in (u + 1)..=5 {
            b.add_undirected_edge(u, v);
        }
    }
    for (u, v) in [(40, 41), (41, 42), (42, 43)] {
        b.add_undirected_edge(u, v);
    }
    b.build()
}

#[test]
fn hub_fixture_matches_hand_count() {
    let g = hub_fixture();
    let counts = triangle_counts(&g.undirected());
    // The clique has C(5,3) = 10 triangles, C(4,2) = 6 through each member;
    // the hub closes one more with every clique edge: C(5,2) = 10 at the
    // hub, 4 more at each clique member. Leaves, tail and the isolated
    // node see none.
    let mut expected = vec![0u64; 45];
    expected[0] = 10;
    expected[1..=5].fill(6 + 4);
    assert_eq!(counts, expected);
    assert_eq!(counts.iter().sum::<u64>(), 3 * (10 + 10));

    let cc = clustering_coefficients(&g);
    assert_eq!(cc[0], 2.0 * 10.0 / (40.0 * 39.0));
    assert_eq!(cc[1], 1.0, "a clique member's 5 neighbors are all linked");
    assert_eq!(cc[6], 0.0, "degree 1");
    assert_eq!(cc[41], 0.0, "path interior: degree 2, no link");
    assert_eq!(cc[44], 0.0, "isolated");
}

#[test]
fn counts_are_identical_at_1_2_and_8_threads() {
    // Enough vertices that each of the count's strided tasks gets dozens,
    // hubs included.
    let g = GraphSpec::new(GraphKind::Rmat, 5000, 3).generate();
    let und = g.undirected();
    let at = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| (triangle_counts(&und), clustering_coefficients(&g)))
    };
    let (counts, cc) = at(1);
    assert!(counts.iter().sum::<u64>() > 0, "fixture has triangles");
    for threads in [2, 8] {
        let (c, f) = at(threads);
        assert_eq!(c, counts, "{threads} threads");
        assert!(
            f.iter().zip(&cc).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{threads} threads"
        );
    }
    // And whatever GRAFFIX_THREADS the process runs under, the oracle agrees.
    for (v, c) in clustering_coefficients(&g).iter().enumerate() {
        let oracle = local_clustering_coefficient(&und, v as NodeId);
        assert_eq!(c.to_bits(), oracle.to_bits(), "node {v}");
    }
}
