//! End-to-end tests of the coalescing transform (§2) across the whole
//! stack: transform → plan → simulated execution → accuracy measurement.

use graffix::prelude::*;

fn suite_graph(kind: GraphKind) -> Csr {
    GraphSpec::new(kind, 1200, 99).generate()
}

#[test]
fn coalescing_reduces_transactions_per_access_on_skewed_graphs() {
    let g = suite_graph(GraphKind::Rmat);
    let gpu = GpuConfig::k40c();
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::Rmat))
        .apply(&g, &gpu);
    let approx_plan = Baseline::Lonestar.plan(&prepared, &gpu);

    let exact = pagerank::run_sim(&exact_plan);
    let approx = pagerank::run_sim(&approx_plan);
    // Transactions *per iteration* must drop (total iteration counts can
    // differ because of confluence).
    let per_iter_exact = exact.stats.global_transactions as f64 / exact.iterations as f64;
    let per_iter_approx = approx.stats.global_transactions as f64 / approx.iterations as f64;
    assert!(
        per_iter_approx < per_iter_exact,
        "transactions/iter should drop: {per_iter_approx:.0} vs {per_iter_exact:.0}"
    );
}

#[test]
fn renumbering_is_semantically_transparent_without_replication() {
    // The renumber stage alone, laid out by hand: no valid threshold turns
    // replication off (a node linked to every real node of a chunk reaches
    // connectedness 1). Without replicas the transform is a pure graph
    // isomorphism with idle hole slots, and every algorithm must return
    // bit-equal results.
    let g = suite_graph(GraphKind::SocialLiveJournal);
    let gpu = GpuConfig::k40c();
    let ren = coalesce::renumber(&g, CoalesceKnobs::default().chunk_size);
    let mut prepared = Prepared::exact(coalesce::apply_renumbering(&g, &ren));
    assert!(ren.holes_created > 0 && prepared.graph.has_holes());
    for (slot, v) in prepared.assignment.iter_mut().enumerate() {
        if prepared.graph.is_hole(slot as NodeId) {
            *v = INVALID_NODE;
        }
    }
    prepared.to_original = ren.old_of_new;
    prepared.primary = ren.new_of_old;
    prepared.validate().unwrap();

    let plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let src = sssp::default_source(&g);
    let run = sssp::run_sim(&plan, src);
    let reference = sssp::exact_cpu(&g, src);
    assert!(
        relative_l1(&run.values, &reference) < 1e-12,
        "isomorphism must be exact"
    );
}

#[test]
fn all_five_algorithms_run_on_transformed_graphs() {
    let g = suite_graph(GraphKind::SocialTwitter);
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::SocialTwitter))
        .apply(&g, &gpu);
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);

    let src = sssp::default_source(&g);
    let s = sssp::run_sim(&plan, src);
    assert!(relative_l1(&s.values, &sssp::exact_cpu(&g, src)) < 0.5);

    let p = pagerank::run_sim(&plan);
    assert!(relative_l1(&p.values, &pagerank::exact_cpu(&g)) < 0.5);

    let sources = bc::sample_sources(&g, 3);
    let b = bc::run_sim(&plan, &sources);
    assert!(relative_l1(&b.values, &bc::exact_cpu(&g, &sources)) < 1.0);

    let c = scc::run_sim(&plan);
    let exact_c = scc::exact_cpu_count(&g) as f64;
    assert!(scalar_inaccuracy(c.components as f64, exact_c) < 0.3);

    let m = mst::run_sim(&plan);
    let (exact_w, _) = mst::exact_cpu(&g);
    assert!(scalar_inaccuracy(m.weight, exact_w) < 0.3);
}

#[test]
fn confluence_operator_changes_results() {
    let g = suite_graph(GraphKind::Rmat);
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::default().with_threshold(0.3))
        .apply(&g, &gpu);
    if prepared.replica_groups.is_empty() {
        return; // nothing to merge at this scale
    }
    let src = sssp::default_source(&g);
    let mean_run = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), src);
    let min_prepared = prepared.clone().with_confluence(ConfluenceOp::Min);
    let min_run = sssp::run_sim(&Baseline::Lonestar.plan(&min_prepared, &gpu), src);
    let reference = sssp::exact_cpu(&g, src);
    let mean_err = relative_l1(&mean_run.values, &reference);
    let min_err = relative_l1(&min_run.values, &reference);
    // Min-confluence is the algorithm-aware choice for distances and must
    // not be less accurate than the agnostic mean.
    assert!(
        min_err <= mean_err + 1e-12,
        "min {min_err} should beat mean {mean_err}"
    );
}

#[test]
fn transform_report_matches_structure() {
    let g = suite_graph(GraphKind::Random);
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::Random))
        .apply(&g, &GpuConfig::k40c());
    let r = &prepared.report;
    assert_eq!(r.original_nodes, g.num_nodes());
    assert_eq!(r.original_edges, g.num_edges());
    assert_eq!(r.new_nodes, prepared.graph.num_nodes());
    assert_eq!(r.new_edges, prepared.graph.num_edges());
    assert_eq!(r.holes_created - r.holes_filled, prepared.graph.num_holes());
    assert!(r.space_overhead >= 0.0);
    assert!(r.preprocess_seconds >= 0.0);
}

#[test]
fn chunk_size_one_still_works() {
    let g = suite_graph(GraphKind::Road);
    let knobs = CoalesceKnobs {
        chunk_size: 1,
        threshold: 0.6,
        max_replicas_per_node: 2,
    };
    let prepared = Pipeline::default()
        .with_coalesce(knobs)
        .apply(&g, &GpuConfig::k40c());
    prepared.validate().unwrap();
    assert_eq!(prepared.report.holes_created, 0, "k=1 creates no holes");
}
