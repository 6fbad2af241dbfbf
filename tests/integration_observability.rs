//! Run-report observability: schema-valid JSON, correctly nested spans,
//! and the snapshot-sum invariant (per-superstep stats must add up to the
//! final `KernelStats` exactly — every launch is snapshotted once).

use graffix::prelude::*;

fn graph() -> Csr {
    GraphSpec::new(GraphKind::Rmat, 600, 21).generate()
}

/// The golden-file test: a profile-style traced run on a small generated
/// graph must produce a JSON document with the versioned schema header,
/// all required top-level keys in order, and internally consistent trace
/// data.
#[test]
fn profile_report_is_schema_valid_json() {
    let g = graph();
    let prepared = Prepared::exact(g.clone());
    let gpu = GpuConfig::test_tiny();
    let t = traced_run(
        "profile",
        Algo::Sssp,
        &g,
        &prepared,
        Baseline::Lonestar,
        &gpu,
        2,
    );
    let text = t.report.to_pretty_string();

    // Round-trips through the parser.
    let doc = Json::parse(&text).expect("report must be valid JSON");
    assert_eq!(
        doc.path(&["schema"]).unwrap().as_str(),
        Some("graffix.run-report")
    );
    assert_eq!(doc.path(&["version"]).unwrap().as_u64(), Some(2));

    // Every top-level key the schema promises, in stable order.
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "schema",
            "version",
            "command",
            "algo",
            "technique",
            "baseline",
            "graph",
            "gpu",
            "iterations",
            "totals",
            "elapsed_cycles",
            "cost_breakdown",
            "trace",
            "values",
            "provenance",
        ]
    );

    assert_eq!(doc.path(&["algo"]).unwrap().as_str(), Some("sssp"));
    assert_eq!(
        doc.path(&["graph", "nodes"]).unwrap().as_u64(),
        Some(g.num_nodes() as u64)
    );
    assert!(
        doc.path(&["trace", "spans"])
            .unwrap()
            .as_arr()
            .unwrap()
            .len()
            > 1
    );
    assert!(!doc
        .path(&["trace", "supersteps"])
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
}

/// Spans must obey stack discipline: children strictly inside parents,
/// depth exactly parent + 1, and the traced run's top-level algorithm span
/// at depth 0.
#[test]
fn spans_nest_correctly() {
    let g = graph();
    let prepared = Prepared::exact(g.clone());
    let gpu = GpuConfig::test_tiny();
    let t = traced_run(
        "profile",
        Algo::Pr,
        &g,
        &prepared,
        Baseline::Lonestar,
        &gpu,
        2,
    );
    t.report.trace.spans_nest_correctly().unwrap();

    let spans = &t.report.trace.spans;
    let root = &spans[0];
    assert_eq!(root.depth, 0);
    assert_eq!(root.name, "pr");
    // Every other span lives inside the root.
    for s in &spans[1..] {
        assert!(s.depth >= 1, "span {} escaped the root", s.name);
        assert!(root.start <= s.start && s.end <= root.end);
    }
    // Per-iteration spans exist under the fixpoint loop.
    assert!(spans.iter().any(|s| s.name == "fixpoint"));
    assert!(spans.iter().any(|s| s.name.starts_with("iteration-")));
}

/// The tentpole invariant: summing every per-superstep snapshot field by
/// field must reproduce the final KernelStats exactly, for every
/// algorithm, on both an exact and a fully transformed plan.
#[test]
fn superstep_snapshots_sum_to_final_stats_for_all_algos() {
    let g = graph();
    let gpu = GpuConfig::test_tiny();
    let exact = Prepared::exact(g.clone());
    let transformed = Pipeline {
        // The tiny config has 4-lane warps; the paper-default chunk size of
        // 16 would be rejected by knob validation.
        coalesce: Some(CoalesceKnobs {
            chunk_size: gpu.warp_size,
            ..CoalesceKnobs::for_kind(GraphKind::Rmat)
        }),
        latency: Some(LatencyKnobs::for_kind(GraphKind::Rmat)),
        divergence: Some(DivergenceKnobs::default()),
    }
    .apply(&g, &gpu);

    for prepared in [&exact, &transformed] {
        for algo in ALL_ALGOS {
            let t = traced_run("profile", algo, &g, prepared, Baseline::Lonestar, &gpu, 2);
            // verify() checks span nesting, the field-by-field snapshot
            // sum, and that the cost components partition warp_cycles.
            t.report.verify().unwrap_or_else(|e| {
                panic!(
                    "{} on {}: {e}",
                    algo.name(),
                    prepared.report.technique_label
                )
            });
            assert_eq!(t.report.totals, t.run.stats);
            let sum = t.report.trace.superstep_sum();
            assert_eq!(sum, t.run.stats, "{}: snapshot sum drifted", algo.name());
        }
    }
}

/// Tracing must not perturb the simulation: a traced run and an untraced
/// run of the same plan produce identical values, stats, and iterations.
#[test]
fn tracing_is_observationally_transparent() {
    let g = graph();
    let prepared = Prepared::exact(g.clone());
    let gpu = GpuConfig::test_tiny();
    let src = sssp::default_source(&g);

    let plain_plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let plain = sssp::run_sim(&plain_plan, src);
    let traced = traced_run(
        "profile",
        Algo::Sssp,
        &g,
        &prepared,
        Baseline::Lonestar,
        &gpu,
        2,
    );

    assert_eq!(plain.values, traced.run.values);
    assert_eq!(plain.stats, traced.run.stats);
    assert_eq!(plain.iterations, traced.run.iterations);
}

/// The disabled handle is a true no-op: a default plan records nothing and
/// `finish()` yields no data.
#[test]
fn disabled_trace_records_nothing() {
    let g = graph();
    let gpu = GpuConfig::test_tiny();
    let plan = Baseline::Lonestar.plan(&Prepared::exact(g.clone()), &gpu);
    assert!(!plan.trace.is_enabled());
    let _ = pagerank::run_sim(&plan);
    assert!(plan.trace.finish().is_none());
}

/// The v2 sections end to end: an observed run on a fully transformed plan
/// attributes inaccuracy to the three stages, records transform
/// provenance, and the whole document survives a byte-lossless round trip
/// through the typed parser.
#[test]
fn observed_run_report_carries_v2_sections() {
    let g = graph();
    let gpu = GpuConfig::test_tiny();
    let pipeline = Pipeline {
        // 4-lane warps: clamp the chunk size (see above).
        coalesce: Some(CoalesceKnobs {
            chunk_size: gpu.warp_size,
            ..CoalesceKnobs::for_kind(GraphKind::Rmat)
        }),
        latency: Some(LatencyKnobs::for_kind(GraphKind::Rmat)),
        divergence: Some(DivergenceKnobs::default()),
    };
    let prepared = pipeline.apply(&g, &gpu);
    let t = observed_run(
        RunSpec {
            command: "profile",
            algo: Algo::Sssp,
            baseline: Baseline::Lonestar,
            bc_sources: 2,
            direction: Direction::Push,
            accuracy: true,
            pipeline: Some(&pipeline),
        },
        &g,
        &prepared,
        &gpu,
    );
    t.report.verify().unwrap();

    let acc = t.report.accuracy.as_ref().expect("accuracy section");
    assert_eq!(acc.metric, "relative-l1");
    assert!(acc.inaccuracy.is_finite() && acc.inaccuracy >= 0.0);
    let transforms: Vec<&str> = acc
        .attribution
        .iter()
        .map(|e| e.transform.as_str())
        .collect();
    assert_eq!(transforms, ["coalescing", "latency", "divergence"]);
    let charged: f64 = acc.attribution.iter().map(|e| e.charged).sum();
    assert_eq!(charged + acc.residual, acc.inaccuracy);

    let prov = t.report.provenance.as_ref().expect("provenance section");
    assert_eq!(prov.technique, "combined");
    assert_eq!(prov.stages.len(), 3);
    assert_eq!(
        prov.stages.iter().map(|s| s.edges_added).sum::<u64>(),
        prov.edges_added
    );

    // Byte-lossless round trip: serialize -> parse -> typed -> serialize.
    let text = t.report.to_pretty_string();
    let reparsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(reparsed.to_pretty_string(), text);
}

/// Baseline choice is reflected in the report and all baselines keep the
/// snapshot-sum invariant (Tigr builds its plan differently).
#[test]
fn all_baselines_produce_verifiable_reports() {
    let g = graph();
    let prepared = Prepared::exact(g.clone());
    let gpu = GpuConfig::test_tiny();
    for baseline in ALL_BASELINES {
        let t = traced_run("profile", Algo::Sssp, &g, &prepared, baseline, &gpu, 2);
        t.report.verify().unwrap();
        assert_eq!(t.report.baseline, baseline.label());
    }
}
