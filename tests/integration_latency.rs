//! End-to-end tests of the latency transform (§3): tile selection,
//! shared-memory pricing, and the accuracy cost of CC-boost edges.

use graffix::prelude::*;

fn social() -> Csr {
    GraphSpec::new(GraphKind::SocialLiveJournal, 1200, 5).generate()
}

#[test]
fn tiles_move_traffic_into_shared_memory() {
    let g = social();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_latency(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal))
        .apply(&g, &gpu);
    assert!(!prepared.tiles.is_empty());
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let run = pagerank::run_sim(&plan);
    assert!(
        run.stats.shared_accesses > 0,
        "tile execution must produce shared-memory traffic"
    );

    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
    let exact = pagerank::run_sim(&exact_plan);
    assert_eq!(exact.stats.shared_accesses, 0, "exact runs stay global");
}

#[test]
fn latency_speeds_up_clustered_graphs() {
    let g = social();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_latency(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal))
        .apply(&g, &gpu);
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
    let approx_plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let exact = pagerank::run_sim(&exact_plan);
    let approx = pagerank::run_sim(&approx_plan);
    let speedup = exact.elapsed_cycles(&gpu) as f64 / approx.elapsed_cycles(&gpu).max(1) as f64;
    assert!(
        speedup > 1.0,
        "latency transform should win on social graphs: {speedup:.2}"
    );
}

#[test]
fn accuracy_cost_is_bounded_by_edge_budget() {
    let g = social();
    let gpu = GpuConfig::k40c();
    let tight = LatencyKnobs {
        edge_budget_frac: 0.005,
        ..LatencyKnobs::for_kind(GraphKind::SocialLiveJournal)
    };
    let loose = LatencyKnobs {
        edge_budget_frac: 0.08,
        ..LatencyKnobs::for_kind(GraphKind::SocialLiveJournal)
    };
    let p_tight = Pipeline::default().with_latency(tight).apply(&g, &gpu);
    let p_loose = Pipeline::default().with_latency(loose).apply(&g, &gpu);
    assert!(p_tight.report.edges_added <= p_loose.report.edges_added);

    let reference = pagerank::exact_cpu(&g);
    let run_tight = pagerank::run_sim(&Baseline::Lonestar.plan(&p_tight, &gpu));
    let run_loose = pagerank::run_sim(&Baseline::Lonestar.plan(&p_loose, &gpu));
    let err_tight = relative_l1(&run_tight.values, &reference);
    let err_loose = relative_l1(&run_loose.values, &reference);
    assert!(
        err_tight <= err_loose + 0.02,
        "tighter budget should not be much less accurate: {err_tight} vs {err_loose}"
    );
}

#[test]
fn sssp_distances_shorten_never_lengthen() {
    // The transform only adds edges, so simulated distances can only be
    // less than or equal to exact distances (mean-of-hops chords shorten).
    let g = social();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_latency(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal))
        .apply(&g, &gpu);
    let src = sssp::default_source(&g);
    let run = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), src);
    let reference = sssp::exact_cpu(&g, src);
    for (v, (&a, &e)) in run.values.iter().zip(&reference).enumerate() {
        if e.is_finite() {
            assert!(
                a <= e + 1e-9,
                "node {v}: approx distance {a} exceeds exact {e}"
            );
        }
    }
}

#[test]
fn road_networks_barely_tile() {
    let g = GraphSpec::new(GraphKind::Road, 1600, 3).generate();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_latency(LatencyKnobs::for_kind(GraphKind::Road))
        .apply(&g, &gpu);
    let covered: usize = prepared.tiles.iter().map(|t| t.nodes.len()).sum();
    assert!(
        covered < g.num_nodes() / 2,
        "grids have little clustering; {covered} tiled nodes is too many"
    );
}

#[test]
fn tile_iterations_track_diameter_knob() {
    let g = social();
    let gpu = GpuConfig::k40c();
    let base = LatencyKnobs::for_kind(GraphKind::SocialLiveJournal);
    let doubled = LatencyKnobs {
        t_diameter_factor: 4,
        ..base
    };
    let p1 = Pipeline::default().with_latency(base).apply(&g, &gpu);
    let p2 = Pipeline::default().with_latency(doubled).apply(&g, &gpu);
    let max1 = p1.tiles.iter().map(|t| t.iterations).max().unwrap_or(0);
    let max2 = p2.tiles.iter().map(|t| t.iterations).max().unwrap_or(0);
    assert!(
        max2 >= max1,
        "larger factor must not shrink t ({max2} vs {max1})"
    );
}
