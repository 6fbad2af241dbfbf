//! Regression test for the memoized undirected view: a full latency
//! pipeline must build the sorted undirected neighbor arrays exactly once
//! per distinct CSR, instead of the historical five rebuilds spread over
//! the triangle-count pass, `boost_with_counts`, and `select_tiles`.
//!
//! This lives in its own integration binary on purpose: the build counter
//! is process-global, so no other test may run concurrently in this
//! process (both cases below run inside the single #[test]).

use graffix_core::{LatencyKnobs, Pipeline};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::undirected_build_count;
use graffix_sim::GpuConfig;

#[test]
fn latency_transform_builds_undirected_view_once_per_graph() {
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 600, 3).generate();
    let cfg = GpuConfig::k40c();

    // No boost additions: the boosted graph is a clone of `g` and clones
    // share the memoized view, so the whole transform needs ONE build.
    let before = undirected_build_count();
    let p = Pipeline::default()
        .with_latency(LatencyKnobs {
            edge_budget_frac: 0.0,
            ..Default::default()
        })
        .apply(&g, &cfg);
    assert_eq!(p.report.edges_added, 0, "budget 0 must add nothing");
    assert_eq!(
        undirected_build_count() - before,
        1,
        "latency transform without additions must build the undirected view exactly once"
    );

    // With boost additions a second CSR exists (the boosted graph), and
    // each distinct graph still builds its view exactly once: one for `g`
    // (initial cc pass), one for the boosted graph (dirty-set recompute,
    // reused by tile selection).
    let g2 = GraphSpec::new(GraphKind::SocialLiveJournal, 600, 3).generate();
    let before = undirected_build_count();
    let p = Pipeline::default()
        .with_latency(LatencyKnobs::default().with_threshold(0.4))
        .apply(&g2, &cfg);
    assert!(p.report.edges_added > 0, "this config must add edges");
    assert_eq!(
        undirected_build_count() - before,
        2,
        "boosting transform must build one view per distinct graph, never more"
    );
}
