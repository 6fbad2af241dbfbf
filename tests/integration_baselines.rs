//! Cross-baseline integration: all three execution styles must agree on
//! exact results while exhibiting the micro-architectural differences the
//! paper leans on (Tigr's divergence reduction, Gunrock's work efficiency).

use graffix::prelude::*;

fn graph() -> Csr {
    GraphSpec::new(GraphKind::Rmat, 1200, 31).generate()
}

#[test]
fn baselines_agree_on_exact_results() {
    let g = graph();
    let gpu = GpuConfig::k40c();
    let prepared = Prepared::exact(g.clone());
    let src = sssp::default_source(&g);
    let dijkstra = sssp::exact_cpu(&g, src);
    let pr_ref = pagerank::exact_cpu(&g);
    let sources = bc::sample_sources(&g, 3);
    let bc_ref = bc::exact_cpu(&g, &sources);
    for baseline in ALL_BASELINES {
        let plan = baseline.plan(&prepared, &gpu);
        assert!(
            relative_l1(&sssp::run_sim(&plan, src).values, &dijkstra) < 1e-12,
            "{baseline:?} SSSP"
        );
        assert!(
            relative_l1(&pagerank::run_sim(&plan).values, &pr_ref) < 1e-3,
            "{baseline:?} PR"
        );
        assert!(
            relative_l1(&bc::run_sim(&plan, &sources).values, &bc_ref) < 1e-9,
            "{baseline:?} BC"
        );
    }
}

#[test]
fn tigr_has_less_divergence_waste_than_lonestar() {
    let g = graph();
    let gpu = GpuConfig::k40c();
    let prepared = Prepared::exact(g.clone());
    let src = sssp::default_source(&g);
    let lone = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), src);
    let tigr = sssp::run_sim(&Baseline::Tigr.plan(&prepared, &gpu), src);
    assert!(
        tigr.stats.divergence_waste() < lone.stats.divergence_waste(),
        "virtual splitting must reduce divergence: {} vs {}",
        tigr.stats.divergence_waste(),
        lone.stats.divergence_waste()
    );
}

#[test]
fn gunrock_does_less_work_on_narrow_reachability() {
    // A long chain with a giant unreachable side mass: the frontier
    // strategy touches only the wavefront while topology scans everything.
    let mut b = GraphBuilder::new(2000);
    for v in 0..199u32 {
        b.add_weighted_edge(v, v + 1, 1);
    }
    let g = b.build();
    let gpu = GpuConfig::k40c();
    let prepared = Prepared::exact(g.clone());
    let lone = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), 0);
    let gun = sssp::run_sim(&Baseline::Gunrock.plan(&prepared, &gpu), 0);
    assert_eq!(lone.values, gun.values);
    assert!(
        gun.stats.global_accesses < lone.stats.global_accesses / 2,
        "frontier should skip the unreachable mass: {} vs {}",
        gun.stats.global_accesses,
        lone.stats.global_accesses
    );
}

#[test]
fn graffix_speedups_lower_against_tigr_for_divergence() {
    // §5.4: "Tigr already implements node splitting transformations for
    // reducing thread divergence. Therefore, speedups achieved over Tigr
    // are lower."
    let g = graph();
    let gpu = GpuConfig::k40c();
    let exact = Prepared::exact(g.clone());
    let transformed = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&g, &gpu);
    let src = sssp::default_source(&g);

    let speedup_vs = |baseline: Baseline| {
        let e = sssp::run_sim(&baseline.plan(&exact, &gpu), src).elapsed_cycles(&gpu);
        let a = sssp::run_sim(&baseline.plan(&transformed, &gpu), src).elapsed_cycles(&gpu);
        e as f64 / a.max(1) as f64
    };
    let vs_lonestar = speedup_vs(Baseline::Lonestar);
    let vs_tigr = speedup_vs(Baseline::Tigr);
    assert!(
        vs_tigr <= vs_lonestar + 0.05,
        "divergence gains vs Tigr ({vs_tigr:.2}) should not exceed vs Lonestar ({vs_lonestar:.2})"
    );
}

#[test]
fn scc_and_mst_run_under_lonestar_baseline() {
    // Baseline-I is the only one the paper evaluates for SCC and MST.
    let g = graph();
    let gpu = GpuConfig::k40c();
    let plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
    let c = scc::run_sim(&plan);
    assert_eq!(c.components, scc::exact_cpu_count(&g));
    let m = mst::run_sim(&plan);
    let (w, _) = mst::exact_cpu(&g);
    assert!((m.weight - w).abs() < 1e-9);
}
