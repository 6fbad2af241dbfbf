//! Integration tests of transform composition (the paper's "they can be
//! combined for improved benefits").

use graffix::prelude::*;

mod golden;

fn graph() -> Csr {
    GraphSpec::new(GraphKind::SocialTwitter, 1200, 3).generate()
}

#[test]
fn combined_pipeline_runs_every_algorithm() {
    let g = graph();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::all_defaults().apply(&g, &gpu);
    prepared.validate().unwrap();
    assert_eq!(prepared.technique, Technique::Combined);
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);

    let src = sssp::default_source(&g);
    let s = sssp::run_sim(&plan, src);
    assert!(relative_l1(&s.values, &sssp::exact_cpu(&g, src)) < 0.5);
    let p = pagerank::run_sim(&plan);
    assert!(relative_l1(&p.values, &pagerank::exact_cpu(&g)) < 0.5);
    let c = scc::run_sim(&plan);
    assert!(scalar_inaccuracy(c.components as f64, scc::exact_cpu_count(&g) as f64) < 0.3);
}

#[test]
fn combined_edges_added_at_least_each_stage_alone() {
    let g = graph();
    let gpu = GpuConfig::k40c();
    let kind = GraphKind::SocialTwitter;
    let combined = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(kind))
        .with_latency(LatencyKnobs::for_kind(kind))
        .apply(&g, &gpu);
    let coalesce_only = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(kind))
        .apply(&g, &gpu);
    assert!(combined.report.edges_added >= coalesce_only.report.edges_added);
    assert!(!combined.tiles.is_empty() || combined.report.edges_added > 0);
}

#[test]
fn pipeline_preserves_logical_node_count() {
    let g = graph();
    let gpu = GpuConfig::k40c();
    for pipeline in [
        Pipeline::default().with_coalesce(CoalesceKnobs::default()),
        Pipeline::default().with_latency(LatencyKnobs::default()),
        Pipeline::default().with_divergence(DivergenceKnobs::default()),
        Pipeline::all_defaults(),
    ] {
        let prepared = pipeline.apply(&g, &gpu);
        assert_eq!(
            prepared.num_original_nodes(),
            g.num_nodes(),
            "logical nodes must survive every composition"
        );
    }
}

#[test]
fn pipeline_amortizes_across_multiple_queries() {
    // The intended usage pattern: transform once, query many times.
    let g = graph();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::SocialTwitter))
        .apply(&g, &gpu);
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let sources: Vec<NodeId> = bc::sample_sources(&g, 3);
    let mut total = 0u64;
    for &s in &sources {
        total += sssp::run_sim(&plan, s).elapsed_cycles(&gpu);
    }
    assert!(total > 0);
    // The prepared graph is reusable (no interior mutability surprises):
    // identical queries give identical costs.
    let again = sssp::run_sim(&plan, sources[0]).elapsed_cycles(&gpu);
    let first = sssp::run_sim(&plan, sources[0]).elapsed_cycles(&gpu);
    assert_eq!(again, first, "simulation must be deterministic");
}

/// One golden row: every file the fresh cache directory `dir` holds after
/// `pipe` was prepared into it, by name (which carries the stage or
/// terminal key) with the cache's own fingerprint of its bytes (envelope +
/// payload — content only).
fn prepared_matrix_row(
    id: &str,
    g: &Csr,
    pipe: &Pipeline,
    gpu: &GpuConfig,
    dir: &std::path::Path,
) -> String {
    use graffix::core::query::fingerprint_bytes;
    let (_, outcome) = prepare_with_cache(g, pipe, gpu, &CacheConfig::at(dir)).unwrap();
    assert_eq!(outcome.status, CacheStatus::MissStored, "{id}");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            format!(
                "{}={:016x}",
                entry.file_name().to_string_lossy(),
                fingerprint_bytes(&bytes)
            )
        })
        .collect();
    files.sort();
    format!("{id} {}", files.join(" "))
}

/// Every stage key, the terminal key and every stored byte of every
/// pipeline shape, against rows recorded from the code *before* the three
/// standalone `transform()` functions were deleted and `Pipeline` became
/// the only producer of a `Prepared` (`tests/golden/prepared_matrix.txt`).
/// It was regenerated once since, when `PIPELINE_VERSION` 3 gave keys and
/// checksums the word-at-a-time hash; every entry's payload was shown
/// byte-identical to the one it replaced. The matrix is
/// `paper_suite(512, 2020)` and `paper_suite(2048, 7)` × the seven
/// non-empty stage subsets under the per-family knobs plus
/// `Pipeline::all_defaults()` (the gate's `combined` cell). On a mismatch the rows this build produces are left in
/// `prepared_matrix.actual.txt` under the test tmpdir.
#[test]
fn prepared_matrix_equals_the_recorded_rows() {
    let gpu = GpuConfig::k40c();
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("prepared-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut rows: Vec<String> = Vec::new();
    for (nodes, seed) in [(512, 2020), (2048, 7)] {
        for (kind, g) in paper_suite(nodes, seed) {
            let (c, l, d) = (
                CoalesceKnobs::for_kind(kind),
                LatencyKnobs::for_kind(kind),
                DivergenceKnobs::default(),
            );
            let mut shapes: Vec<(String, Pipeline)> = (1..8u8)
                .map(|bits| {
                    let pipe = Pipeline {
                        coalesce: (bits & 1 != 0).then_some(c),
                        latency: (bits & 2 != 0).then_some(l),
                        divergence: (bits & 4 != 0).then_some(d),
                    };
                    let name: Vec<&str> = [(1, "coalescing"), (2, "latency"), (4, "divergence")]
                        .iter()
                        .filter(|(bit, _)| bits & bit != 0)
                        .map(|&(_, name)| name)
                        .collect();
                    (name.join("+"), pipe)
                })
                .collect();
            shapes.push(("all_defaults".to_string(), Pipeline::all_defaults()));
            for (shape, pipe) in shapes {
                let id = format!("{nodes}-{seed}/{}/{shape}", kind.paper_name());
                let dir = scratch.join(rows.len().to_string());
                rows.push(prepared_matrix_row(&id, &g, &pipe, &gpu, &dir));
            }
        }
    }
    assert_eq!(rows.len(), 80);
    let _ = std::fs::remove_dir_all(&scratch);

    golden::assert_rows_equal(
        "prepared_matrix",
        &rows,
        include_str!("golden/prepared_matrix.txt"),
    );
}
