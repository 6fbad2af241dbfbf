//! Engine determinism: per-vertex results AND metered kernel statistics
//! must be identical at any host thread count.
//!
//! The parallel executor guarantees this by construction — order-independent
//! stat reduction, assignment-ordered activation merges, and kernels that
//! fold shared state through commutative atomics while branching only on
//! host-owned snapshots. These tests pin the guarantee end-to-end for a
//! frontier algorithm (SSSP), an accumulation algorithm (PageRank), and a
//! transformed plan with replica confluence and shared-memory tiles.

use graffix::prelude::*;

/// Runs `f` inside a scoped rayon pool of `n` threads (the same mechanism
/// the CLI's `--threads` flag uses).
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn sssp_results_and_stats_identical_at_any_thread_count() {
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 2_000, 11).generate();
    let src = sssp::default_source(&g);
    let cfg = GpuConfig::k40c();
    for strategy in [Strategy::Topology, Strategy::Frontier] {
        let plan = Plan::exact(&g, &cfg, strategy);
        let runs: Vec<SimRun> = THREAD_COUNTS
            .iter()
            .map(|&n| with_threads(n, || sssp::run_sim(&plan, src)))
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                r.values, runs[0].values,
                "{strategy:?}: values differ at {} threads",
                THREAD_COUNTS[i]
            );
            assert_eq!(
                r.stats, runs[0].stats,
                "{strategy:?}: stats differ at {} threads",
                THREAD_COUNTS[i]
            );
            assert_eq!(r.iterations, runs[0].iterations);
        }
    }
}

#[test]
fn pagerank_results_and_stats_identical_at_any_thread_count() {
    let g = GraphSpec::new(GraphKind::SocialTwitter, 2_000, 7).generate();
    let cfg = GpuConfig::k40c();
    for strategy in [Strategy::Topology, Strategy::Frontier] {
        let plan = Plan::exact(&g, &cfg, strategy);
        let runs: Vec<SimRun> = THREAD_COUNTS
            .iter()
            .map(|&n| with_threads(n, || pagerank::run_sim(&plan)))
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                r.values, runs[0].values,
                "{strategy:?}: values differ at {} threads",
                THREAD_COUNTS[i]
            );
            assert_eq!(
                r.stats, runs[0].stats,
                "{strategy:?}: stats differ at {} threads",
                THREAD_COUNTS[i]
            );
        }
    }
}

/// The observability tentpole's determinism clause: the *entire* serialized
/// run report — spans, superstep snapshots, metric series, value summary —
/// must be byte-identical at any thread count. Trace recordings only happen
/// in sequential driver code at chunk-merge barriers, and the monotonic
/// clock counts snapshots rather than wall time, so this holds by
/// construction; the test pins it end-to-end for an exact plan and for a
/// fully transformed plan (replicas + tiles + shortcut edges).
///
/// The exact-plan report is also written to
/// `target/determinism-report.json` so CI can upload it as a build
/// artifact.
#[test]
fn json_report_byte_identical_at_any_thread_count() {
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 1_500, 3).generate();
    let gpu = GpuConfig::k40c();
    let exact = Prepared::exact(g.clone());
    let transformed = Pipeline {
        coalesce: Some(CoalesceKnobs::for_kind(GraphKind::SocialLiveJournal)),
        latency: Some(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal)),
        divergence: Some(DivergenceKnobs::default()),
    }
    .apply(&g, &gpu);

    for (prepared, label) in [(&exact, "exact"), (&transformed, "transformed")] {
        for algo in [Algo::Sssp, Algo::Pr] {
            let reports: Vec<String> = THREAD_COUNTS
                .iter()
                .map(|&n| {
                    with_threads(n, || {
                        traced_run("profile", algo, &g, prepared, Baseline::Lonestar, &gpu, 2)
                            .report
                            .to_pretty_string()
                    })
                })
                .collect();
            for (i, r) in reports.iter().enumerate().skip(1) {
                assert_eq!(
                    r,
                    &reports[0],
                    "{label}/{}: report bytes differ at {} threads",
                    algo.name(),
                    THREAD_COUNTS[i]
                );
            }
            if label == "exact" && algo == Algo::Sssp {
                // Best-effort artifact for CI upload; the assertion above is
                // the actual test.
                let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../../target/determinism-report.json");
                let _ = std::fs::write(path, &reports[0]);
            }
        }
    }
}

/// Direction-optimizing execution: pull and auto runs must be value- and
/// stat-identical at any thread count, and their per-vertex results must
/// match push bit for bit (the pull kernels are gather re-formulations of
/// the same fixed-point arithmetic, so this holds exactly, not just within
/// tolerance).
#[test]
fn direction_modes_deterministic_and_bit_identical_to_push() {
    let g = GraphSpec::new(GraphKind::Rmat, 2_000, 5).generate();
    let src = sssp::default_source(&g);
    let cfg = GpuConfig::k40c();
    let push = sssp::run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), src);
    for direction in [Direction::Pull, Direction::Auto] {
        let plan = Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(direction);
        let runs: Vec<SimRun> = THREAD_COUNTS
            .iter()
            .map(|&n| with_threads(n, || sssp::run_sim(&plan, src)))
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                r.values, runs[0].values,
                "{direction:?}: values differ at {} threads",
                THREAD_COUNTS[i]
            );
            assert_eq!(
                r.stats, runs[0].stats,
                "{direction:?}: stats differ at {} threads",
                THREAD_COUNTS[i]
            );
            assert_eq!(r.iterations, runs[0].iterations);
        }
        for (a, b) in push.values.iter().zip(&runs[0].values) {
            assert_eq!(a.to_bits(), b.to_bits(), "{direction:?} deviates from push");
        }
    }
}

/// Residual-driven PageRank on a frontier baseline activates a node when a
/// lane's atomic add carries its residual over the threshold; several lanes
/// can see the crossing in one superstep, and how many do depends on how
/// their adds interleave. The trace must therefore record nothing that
/// counts activations before deduplication: the report of `profile --algo
/// pr --technique combined --baseline gunrock --direction auto` is
/// byte-identical at any thread count.
#[test]
fn residual_pagerank_report_byte_identical_at_any_thread_count() {
    let g = GraphSpec::new(GraphKind::Rmat, 4_096, 7).generate();
    let gpu = GpuConfig::k40c();
    let prepared = auto_tune(&g, 7)
        .pipeline(Technique::Combined, None)
        .apply(&g, &gpu);
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&n| {
            with_threads(n, || {
                observed_run(
                    RunSpec {
                        command: "profile",
                        algo: Algo::Pr,
                        baseline: Baseline::Gunrock,
                        bc_sources: 2,
                        direction: Direction::Auto,
                        accuracy: false,
                        pipeline: None,
                    },
                    &g,
                    &prepared,
                    &gpu,
                )
                .report
                .to_pretty_string()
            })
        })
        .collect();
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert!(
            r == &reports[0],
            "report bytes differ at {} threads",
            THREAD_COUNTS[i]
        );
    }
}

/// The perf claim the bench gate locks in, pinned at test scale: on a
/// dense-frontier power-law graph, auto direction selection strictly beats
/// always-push in simulated cycles while producing bit-identical ranks.
#[test]
fn auto_direction_beats_push_on_dense_frontiers() {
    let g = GraphSpec::new(GraphKind::Rmat, 512, 2020).generate();
    let cfg = GpuConfig::k40c();
    let push = pagerank::run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier));
    let auto = pagerank::run_sim(
        &Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(Direction::Auto),
    );
    for (a, b) in push.values.iter().zip(&auto.values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(
        auto.elapsed_cycles(&cfg) < push.elapsed_cycles(&cfg),
        "auto ({}) should beat push ({})",
        auto.elapsed_cycles(&cfg),
        push.elapsed_cycles(&cfg)
    );
}

/// The parallel preprocessing engine's determinism clause: the transformed
/// CSR (and everything the simulator consumes from a `Prepared`) must be
/// byte-identical at any thread count. Selection/scoring passes fan out
/// over the deterministic rayon shim, but commits happen in serial order,
/// so the output cannot depend on scheduling.
#[test]
fn transformed_csr_byte_identical_at_any_thread_count() {
    use graffix::graph::serialize;

    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 1_500, 9).generate();
    let gpu = GpuConfig::k40c();
    let kind = GraphKind::SocialLiveJournal;
    let pipelines: Vec<(&str, Pipeline)> = vec![
        (
            "coalescing",
            Pipeline::default().with_coalesce(CoalesceKnobs::for_kind(kind)),
        ),
        (
            "latency",
            Pipeline::default().with_latency(LatencyKnobs::for_kind(kind).with_threshold(0.4)),
        ),
        (
            "divergence",
            Pipeline::default().with_divergence(DivergenceKnobs::default()),
        ),
        (
            "combined",
            Pipeline {
                coalesce: Some(CoalesceKnobs::for_kind(kind)),
                latency: Some(LatencyKnobs::for_kind(kind)),
                divergence: Some(DivergenceKnobs::default()),
            },
        ),
    ];
    for (label, pipeline) in &pipelines {
        let prepared: Vec<Prepared> = THREAD_COUNTS
            .iter()
            .map(|&n| with_threads(n, || pipeline.apply(&g, &gpu)))
            .collect();
        for (i, p) in prepared.iter().enumerate().skip(1) {
            let at = THREAD_COUNTS[i];
            assert_eq!(
                &serialize::to_bytes(&p.graph)[..],
                &serialize::to_bytes(&prepared[0].graph)[..],
                "{label}: transformed CSR bytes differ at {at} threads"
            );
            assert_eq!(
                p.assignment, prepared[0].assignment,
                "{label}: assignment differs at {at} threads"
            );
            assert_eq!(
                p.tiles, prepared[0].tiles,
                "{label}: tiles differ at {at} threads"
            );
            assert_eq!(
                p.replica_groups, prepared[0].replica_groups,
                "{label}: replica groups differ at {at} threads"
            );
        }
    }
}

/// The prepared-graph cache's determinism clause: a cold-cache run
/// (transform + store) and a warm-cache run (load) must produce
/// byte-identical run reports. Phase timings live only in the transform
/// report diagnostics, never in run reports, so this holds even though the
/// warm path skips preprocessing entirely.
#[test]
fn cold_and_warm_cache_runs_byte_identical() {
    let dir = std::env::temp_dir().join(format!("graffix-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheConfig::at(&dir);

    let g = GraphSpec::new(GraphKind::Rmat, 1_500, 13).generate();
    let gpu = GpuConfig::k40c();
    let pipeline = Pipeline {
        coalesce: Some(CoalesceKnobs::for_kind(GraphKind::Rmat)),
        latency: Some(LatencyKnobs::for_kind(GraphKind::Rmat)),
        divergence: Some(DivergenceKnobs::default()),
    };

    let (cold, cold_outcome) = prepare_with_cache(&g, &pipeline, &gpu, &cache).unwrap();
    assert_eq!(cold_outcome.status, CacheStatus::MissStored);
    let (warm, warm_outcome) = prepare_with_cache(&g, &pipeline, &gpu, &cache).unwrap();
    assert_eq!(warm_outcome.status, CacheStatus::Hit);

    for algo in [Algo::Sssp, Algo::Pr] {
        let report_of = |p: &Prepared| {
            traced_run("profile", algo, &g, p, Baseline::Lonestar, &gpu, 2)
                .report
                .to_pretty_string()
        };
        assert_eq!(
            report_of(&cold),
            report_of(&warm),
            "{}: cold vs warm cache run reports differ",
            algo.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transformed_plan_with_confluence_and_tiles_is_deterministic() {
    // The combined pipeline injects replicas (confluence), shortcut edges,
    // and shared-memory tiles — the full surface of the engine.
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 1_500, 3).generate();
    let gpu = GpuConfig::k40c();
    let prepared = Pipeline {
        coalesce: Some(CoalesceKnobs::for_kind(GraphKind::SocialLiveJournal)),
        latency: Some(LatencyKnobs::for_kind(GraphKind::SocialLiveJournal)),
        divergence: Some(DivergenceKnobs::default()),
    }
    .apply(&g, &gpu);
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let src = sssp::default_source(&g);
    let runs: Vec<SimRun> = THREAD_COUNTS
        .iter()
        .map(|&n| with_threads(n, || sssp::run_sim(&plan, src)))
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.values, runs[0].values);
        assert_eq!(r.stats, runs[0].stats);
        assert_eq!(r.iterations, runs[0].iterations);
    }
}
