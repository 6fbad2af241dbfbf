//! Property-style tests: CSR structural invariants must survive each of
//! the three Graffix transforms for *any* (graph, knobs) combination, not
//! just the paper presets. A seeded RNG drives ~50 random generator
//! configurations per transform; every prepared plan is checked for
//!
//! 1. sorted neighbor lists (binary-searchable adjacency),
//! 2. in/out edge-count symmetry (the transpose is an exact mirror of the
//!    edge multiset),
//! 3. hole/replica bookkeeping that matches the published
//!    `TransformReport` numbers.
//!
//! Dev-dependency cycle note: this test pulls in `graffix-core`, which
//! depends on `graffix-graph` — cargo permits the cycle for dev-deps.

use graffix_core::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs, Pipeline, Prepared};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{Csr, NodeId};
use graffix_sim::GpuConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CONFIGS: usize = 50;

const KINDS: [GraphKind; 5] = [
    GraphKind::Rmat,
    GraphKind::Random,
    GraphKind::SocialLiveJournal,
    GraphKind::SocialTwitter,
    GraphKind::Road,
];

fn random_graph(rng: &mut ChaCha8Rng) -> Csr {
    let kind = KINDS[rng.random_range(0..KINDS.len())];
    let nodes = rng.random_range(50..600usize);
    let seed = rng.random_range(0..u64::MAX / 2);
    GraphSpec::new(kind, nodes, seed).generate()
}

/// Invariant 1: every neighbor list is sorted (strictly required by
/// `Csr::has_edge`'s binary search and the coalescing chunk layout).
fn assert_sorted_adjacency(g: &Csr, ctx: &str) {
    for v in g.node_ids() {
        let n = g.neighbors(v);
        assert!(
            n.windows(2).all(|w| w[0] <= w[1]),
            "{ctx}: neighbors of {v} not sorted: {n:?}"
        );
    }
}

/// Invariant 2: the transpose mirrors the edge multiset exactly — same
/// total count, and reversing its triples reproduces the original edges
/// (so Σ in-degree == Σ out-degree == |E|, weight-for-weight).
fn assert_transpose_symmetry(g: &Csr, ctx: &str) {
    let t = g.transpose();
    assert_eq!(t.num_edges(), g.num_edges(), "{ctx}: transpose lost edges");
    let mut fwd: Vec<(NodeId, NodeId, u32)> = g.edge_triples().collect();
    let mut rev: Vec<(NodeId, NodeId, u32)> = t.edge_triples().map(|(u, v, w)| (v, u, w)).collect();
    fwd.sort_unstable();
    rev.sort_unstable();
    assert_eq!(fwd, rev, "{ctx}: transpose is not an exact mirror");
    let in_sum: usize = g.node_ids().map(|v| t.degree(v)).sum();
    let out_sum: usize = g.node_ids().map(|v| g.degree(v)).sum();
    assert_eq!(in_sum, out_sum, "{ctx}: in/out degree sums diverge");
}

/// Invariant 3: the `TransformReport` is an honest ledger — node/edge
/// totals, remaining holes, and replica-group arithmetic all reconcile
/// with the prepared graph.
fn assert_bookkeeping(original: &Csr, p: &Prepared, ctx: &str) {
    p.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let r = &p.report;
    assert_eq!(r.original_nodes, original.num_nodes(), "{ctx}");
    assert_eq!(r.original_edges, original.num_edges(), "{ctx}");
    assert_eq!(r.new_nodes, p.graph.num_nodes(), "{ctx}");
    assert_eq!(r.new_edges, p.graph.num_edges(), "{ctx}");
    assert_eq!(
        r.new_edges,
        r.original_edges + r.edges_added,
        "{ctx}: edge ledger does not balance"
    );
    assert!(r.holes_filled <= r.holes_created, "{ctx}");
    assert_eq!(
        p.graph.num_holes(),
        r.holes_created - r.holes_filled,
        "{ctx}: hole ledger does not balance"
    );
    // Every filled hole hosts exactly one replica, so the groups' extra
    // members must add up to the reported replica count.
    let group_replicas: usize = p
        .replica_groups
        .iter()
        .map(|(_, members)| members.len() - 1)
        .sum();
    assert_eq!(group_replicas, r.replicas, "{ctx}: replica ledger");
    assert_eq!(r.replicas, r.holes_filled, "{ctx}: replicas fill holes 1:1");
    // Slot mapping covers every original node and only original nodes.
    assert_eq!(p.primary.len(), original.num_nodes(), "{ctx}");
    assert_eq!(p.to_original.len(), p.graph.num_nodes(), "{ctx}");
    assert_eq!(
        p.graph.num_nodes(),
        original.num_nodes() + r.holes_created,
        "{ctx}: slots = originals + created holes"
    );
}

fn check_all(original: &Csr, p: &Prepared, ctx: &str) {
    assert_sorted_adjacency(&p.graph, ctx);
    assert_transpose_symmetry(&p.graph, ctx);
    assert_bookkeeping(original, p, ctx);
}

#[test]
fn coalescing_preserves_csr_invariants_across_random_configs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0A1);
    for i in 0..CONFIGS {
        let g = random_graph(&mut rng);
        let knobs = CoalesceKnobs {
            chunk_size: rng.random_range(2..=32usize),
            threshold: rng.random_range(0.0..1.0f64),
            max_replicas_per_node: rng.random_range(1..=8usize),
        };
        let ctx = format!("coalesce config {i} ({knobs:?})");
        let p = Pipeline::default()
            .with_coalesce(knobs)
            .apply(&g, &GpuConfig::k40c());
        check_all(&g, &p, &ctx);
    }
}

#[test]
fn latency_preserves_csr_invariants_across_random_configs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1A7E);
    let gpu = GpuConfig::test_tiny();
    for i in 0..CONFIGS {
        let g = random_graph(&mut rng);
        let knobs = LatencyKnobs {
            cc_threshold: rng.random_range(0.0..1.0f64),
            margin: rng.random_range(0.0..0.3f64),
            edge_budget_frac: rng.random_range(0.0..0.15f64),
            t_diameter_factor: rng.random_range(1..=4usize),
        };
        let ctx = format!("latency config {i} ({knobs:?})");
        let p = Pipeline::default().with_latency(knobs).apply(&g, &gpu);
        check_all(&g, &p, &ctx);
        // The edge budget is a hard cap (§3: "a global limit for the
        // number of edges added"), with slack for per-center rounding.
        let cap = (g.num_edges() as f64 * knobs.edge_budget_frac) as usize;
        assert!(
            p.report.edges_added <= cap + 2,
            "{ctx}: budget exceeded ({} > {cap} + 2)",
            p.report.edges_added
        );
    }
}

#[test]
fn divergence_preserves_csr_invariants_across_random_configs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FE);
    for i in 0..CONFIGS {
        let g = random_graph(&mut rng);
        let knobs = DivergenceKnobs {
            degree_sim_threshold: rng.random_range(0.0..1.0f64),
            fill_fraction: rng.random_range(0.1..1.0f64),
            edge_budget_frac: rng.random_range(0.0..0.15f64),
        };
        let warp_size = [4usize, 8, 16, 32][rng.random_range(0..4usize)];
        let ctx = format!("divergence config {i} (warp {warp_size}, {knobs:?})");
        let gpu = GpuConfig {
            warp_size,
            ..GpuConfig::k40c()
        };
        let p = Pipeline::default().with_divergence(knobs).apply(&g, &gpu);
        check_all(&g, &p, &ctx);
    }
}

#[test]
fn exact_preparation_is_the_identity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0);
    for _ in 0..10 {
        let g = random_graph(&mut rng);
        let p = Prepared::exact(g.clone());
        check_all(&g, &p, "exact");
        assert_eq!(p.graph.num_nodes(), g.num_nodes());
        assert_eq!(p.graph.num_edges(), g.num_edges());
        assert!(p.replica_groups.is_empty() && p.tiles.is_empty());
    }
}
