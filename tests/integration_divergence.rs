//! End-to-end tests of the divergence transform (§4): bucket renumbering,
//! degree filling, and divergence-waste reduction.

use graffix::prelude::*;

fn skewed() -> Csr {
    GraphSpec::new(GraphKind::Rmat, 1500, 77).generate()
}

#[test]
fn divergent_slots_drop_substantially() {
    let g = skewed();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&g, &gpu);
    let exact = pagerank::run_sim(&Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu));
    let approx = pagerank::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu));
    assert!(
        (approx.stats.divergent_slots as f64) < 0.6 * exact.stats.divergent_slots as f64,
        "bucket sort should cut idle lane slots: {} vs {}",
        approx.stats.divergent_slots,
        exact.stats.divergent_slots
    );
}

#[test]
fn lockstep_steps_shrink_on_skewed_degrees() {
    let g = skewed();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&g, &gpu);
    let exact = pagerank::run_sim(&Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu));
    let approx = pagerank::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu));
    let steps_exact = exact.stats.steps as f64 / exact.iterations as f64;
    let steps_approx = approx.stats.steps as f64 / approx.iterations as f64;
    assert!(
        steps_approx < steps_exact,
        "warp steps per iteration should shrink: {steps_approx:.0} vs {steps_exact:.0}"
    );
}

#[test]
fn results_exact_when_no_edges_added() {
    let g = skewed();
    let gpu = GpuConfig::k40c();
    // Threshold 0 disables filling: the transform is a pure renumbering.
    let prepared = Pipeline::default()
        .with_divergence(DivergenceKnobs::default().with_threshold(0.0))
        .apply(&g, &gpu);
    assert_eq!(prepared.report.edges_added, 0);
    let src = sssp::default_source(&g);
    let run = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), src);
    let reference = sssp::exact_cpu(&g, src);
    assert!(relative_l1(&run.values, &reference) < 1e-12);
}

#[test]
fn sum_rule_weights_preserve_sssp_distances() {
    // §4's sum rule: a filled edge weighs exactly the 2-hop path it
    // parallels, so shortest-path distances are invariant even with fills.
    let g = skewed();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&g, &gpu);
    assert!(prepared.report.edges_added > 0, "expect fills on rmat");
    let src = sssp::default_source(&g);
    let run = sssp::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu), src);
    let reference = sssp::exact_cpu(&g, src);
    assert!(
        relative_l1(&run.values, &reference) < 1e-9,
        "sum-rule fills must not change distances"
    );
}

#[test]
fn pagerank_error_scales_with_threshold() {
    let g = skewed();
    let gpu = GpuConfig::k40c();
    let reference = pagerank::exact_cpu(&g);
    let mut last_edges = 0usize;
    for thr in [0.1, 0.4, 0.7] {
        let knobs = DivergenceKnobs {
            degree_sim_threshold: thr,
            edge_budget_frac: 1.0,
            ..Default::default()
        };
        let prepared = Pipeline::default().with_divergence(knobs).apply(&g, &gpu);
        assert!(
            prepared.report.edges_added >= last_edges,
            "higher threshold admits more fills"
        );
        last_edges = prepared.report.edges_added;
        let run = pagerank::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu));
        let err = relative_l1(&run.values, &reference);
        assert!(err < 0.5, "thr {thr}: inaccuracy {err} out of hand");
    }
}

#[test]
fn works_under_all_baselines() {
    let g = skewed();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&g, &gpu);
    let src = sssp::default_source(&g);
    let reference = sssp::exact_cpu(&g, src);
    for baseline in ALL_BASELINES {
        let run = sssp::run_sim(&baseline.plan(&prepared, &gpu), src);
        assert!(
            relative_l1(&run.values, &reference) < 1e-9,
            "{:?} mangled distances",
            baseline
        );
    }
}
