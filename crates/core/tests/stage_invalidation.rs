//! Fine-grained invalidation of the staged preparation pipeline: flipping
//! one knob must recompute only the stages that declare it (and their
//! downstream), every upstream stage must come back from the per-stage
//! cache, and the warm staged result must stay byte-identical to a cold
//! uncached `try_apply` at any host thread count.

use graffix_core::query::stage_entry_path;
use graffix_core::{
    CoalesceKnobs, DivergenceKnobs, LatencyKnobs, Pipeline, Prepared, QueryCtx, StageRecord,
    StageStatus,
};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{serialize, Csr};
use graffix_sim::GpuConfig;
use std::path::{Path, PathBuf};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graffix-stage-invalidation-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn graph() -> Csr {
    GraphSpec::new(GraphKind::Rmat, 400, 99).generate()
}

/// Combined pipeline with every knob that has a flip case spelled out.
fn base_pipeline() -> Pipeline {
    Pipeline::default()
        .with_coalesce(CoalesceKnobs::default().with_threshold(0.6))
        .with_latency(LatencyKnobs::default())
        .with_divergence(DivergenceKnobs::default())
}

/// Runs `pipe` against the per-stage disk cache with a *fresh* context, so
/// every reuse goes through the GFXS entries rather than the in-process
/// memo, and returns the result plus the per-stage records.
fn staged_run(pipe: &Pipeline, g: &Csr, dir: &Path) -> (Prepared, Vec<StageRecord>) {
    let cfg = GpuConfig::k40c();
    let mut ctx = QueryCtx::at(dir);
    let p = pipe.try_apply_with(g, &cfg, &mut ctx).expect("valid knobs");
    (p, ctx.records().to_vec())
}

fn status_of(records: &[StageRecord], stage: &str) -> StageStatus {
    records
        .iter()
        .find(|r| r.stage == stage)
        .unwrap_or_else(|| panic!("no record for stage {stage}"))
        .status
}

/// One knob-flip scenario: which stages must come from the cache, which
/// must re-run, and which merely may (downstream of a changed output).
struct Flip {
    name: &'static str,
    pipeline: Pipeline,
    /// Stages whose keys are untouched by the flip — must be `Hit`.
    must_hit: &'static [&'static str],
    /// Stages that declare the flipped knob — must be `Recomputed`.
    must_recompute: &'static [&'static str],
}

#[test]
fn one_knob_flip_recomputes_only_downstream_stages() {
    let g = graph();
    let cfg = GpuConfig::k40c();
    let dir = tmp_dir("flips");
    let base = base_pipeline();

    // Warm every stage of the base configuration.
    let (_, records) = staged_run(&base, &g, &dir);
    assert!(
        records.iter().all(|r| r.status == StageStatus::Recomputed),
        "cold run must recompute everything"
    );

    let flips = [
        Flip {
            name: "coalesce.threshold 0.6 -> 0.3",
            pipeline: base
                .clone()
                .with_coalesce(CoalesceKnobs::default().with_threshold(0.3)),
            must_hit: &["renumber"],
            must_recompute: &["replicate"],
        },
        Flip {
            name: "latency.cc_threshold 0.7 -> 0.4",
            pipeline: base
                .clone()
                .with_latency(LatencyKnobs::default().with_threshold(0.4)),
            must_hit: &["renumber", "replicate", "cc"],
            must_recompute: &["boost", "tile-select"],
        },
        Flip {
            name: "latency.t_diameter_factor 2 -> 3",
            pipeline: base.clone().with_latency(LatencyKnobs {
                t_diameter_factor: 3,
                ..LatencyKnobs::default()
            }),
            must_hit: &["renumber", "replicate", "cc", "boost"],
            must_recompute: &["tile-select"],
        },
        Flip {
            name: "divergence.degree_sim_threshold 0.3 -> 0.7",
            pipeline: base
                .clone()
                .with_divergence(DivergenceKnobs::default().with_threshold(0.7)),
            must_hit: &["renumber", "replicate", "cc", "boost", "tile-select"],
            must_recompute: &["normalize"],
        },
    ];

    for flip in &flips {
        let (warm, records) = staged_run(&flip.pipeline, &g, &dir);
        for stage in flip.must_hit {
            assert_eq!(
                status_of(&records, stage),
                StageStatus::Hit,
                "{}: {stage} must hit the stage cache",
                flip.name
            );
        }
        for stage in flip.must_recompute {
            assert_eq!(
                status_of(&records, stage),
                StageStatus::Recomputed,
                "{}: {stage} declares the flipped knob and must re-run",
                flip.name
            );
        }
        // Nothing *upstream* of the declaring stages may re-run: the only
        // recomputed stages are the declared ones plus (possibly) their
        // downstream, never a must-hit stage.
        for r in &records {
            if r.status == StageStatus::Recomputed {
                assert!(
                    !flip.must_hit.contains(&r.stage),
                    "{}: upstream stage {} recomputed",
                    flip.name,
                    r.stage
                );
            }
        }

        // The warm staged result must equal a cold uncached run at every
        // thread count — the cache must not leak scheduling or staleness.
        for &n in &THREAD_COUNTS {
            let cold = with_threads(n, || flip.pipeline.try_apply(&g, &cfg).unwrap());
            assert_eq!(
                warm.first_difference(&cold),
                None,
                "{} vs cold at {n} threads",
                flip.name
            );
            let warm_n = with_threads(n, || staged_run(&flip.pipeline, &g, &dir).0);
            assert_eq!(
                warm_n.first_difference(&cold),
                None,
                "{} warm at {n} threads",
                flip.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The divergence-only pipeline has its own fast path (bucket → normalize
/// → relabel); a degreeSim flip there must reuse the bucket order.
#[test]
fn divergence_only_flip_reuses_bucket_order() {
    let g = graph();
    let dir = tmp_dir("div-only");
    let pipe =
        |t: f64| Pipeline::default().with_divergence(DivergenceKnobs::default().with_threshold(t));

    let (_, records) = staged_run(&pipe(0.3), &g, &dir);
    assert!(records.iter().all(|r| r.status == StageStatus::Recomputed));

    let (warm, records) = staged_run(&pipe(0.6), &g, &dir);
    assert_eq!(status_of(&records, "bucket"), StageStatus::Hit);
    assert_eq!(status_of(&records, "normalize"), StageStatus::Recomputed);
    let cold = pipe(0.6).try_apply(&g, &GpuConfig::k40c()).unwrap();
    assert_eq!(
        warm.first_difference(&cold),
        None,
        "divergence-only warm vs cold"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutating the graph between runs must invalidate every stage (all keys
/// derive from the input fingerprint), and reverting the mutation must
/// bring every stage back from the cache byte-identically — the staged
/// cache keys on content, not on identity or time.
#[test]
fn mutation_invalidates_all_stages_and_revert_restores_hits() {
    use graffix_graph::mutation::EdgeBatch;

    let g = graph();
    let dir = tmp_dir("mutate");
    let pipe = base_pipeline();

    let (reference, records) = staged_run(&pipe, &g, &dir);
    assert!(records.iter().all(|r| r.status == StageStatus::Recomputed));

    // Insert a couple of fresh arcs between non-hole nodes.
    let mut mutated = g.clone();
    let mut batch = EdgeBatch::new();
    let picks = [(0u32, 7u32), (3, 11), (5, 2)];
    for &(u, v) in &picks {
        assert!(
            !mutated.is_hole(u) && !mutated.is_hole(v),
            "pick hit a hole"
        );
        batch.insert(u, v, 1);
    }
    let outcome = mutated.apply_batch(&batch).expect("valid batch");
    assert!(
        !outcome.inserted.is_empty(),
        "batch must actually change the graph"
    );

    let (warm, records) = staged_run(&pipe, &mutated, &dir);
    assert!(
        records.iter().all(|r| r.status == StageStatus::Recomputed),
        "a mutated graph must invalidate every stage key: {records:?}"
    );
    let cold = pipe.try_apply(&mutated, &GpuConfig::k40c()).unwrap();
    assert_eq!(
        warm.first_difference(&cold),
        None,
        "mutate-then-prepare warm vs cold"
    );

    // Revert: delete exactly the arcs the batch inserted. The graph bytes
    // return to the original, so every stage must come back as a Hit.
    let mut revert = EdgeBatch::new();
    for &(u, v) in &outcome.inserted {
        revert.delete(u, v);
    }
    mutated.apply_batch(&revert).expect("valid revert");
    assert_eq!(
        &serialize::to_bytes(&mutated)[..],
        &serialize::to_bytes(&g)[..],
        "revert must restore the original bytes"
    );
    let (restored, records) = staged_run(&pipe, &mutated, &dir);
    assert!(
        records.iter().all(|r| r.status == StageStatus::Hit),
        "reverted graph must hit every stage: {records:?}"
    );
    assert_eq!(
        restored.first_difference(&reference),
        None,
        "reverted warm vs original"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Early cutoff: force one mid-graph stage to re-run (by deleting its disk
/// entry) with unchanged knobs. Its recomputed bytes are identical, so
/// every downstream stage must reuse its cache and report `Cutoff`, and
/// upstream stages plain `Hit`.
#[test]
fn identical_recompute_cuts_off_downstream_invalidation() {
    let g = graph();
    let dir = tmp_dir("cutoff");
    let pipe = base_pipeline();

    let (reference, records) = staged_run(&pipe, &g, &dir);
    let cc_key = records
        .iter()
        .find(|r| r.stage == "cc")
        .expect("cc stage record")
        .key;
    std::fs::remove_file(stage_entry_path(&dir, "cc", cc_key)).expect("cc entry exists");

    let (rerun, records) = staged_run(&pipe, &g, &dir);
    assert_eq!(status_of(&records, "renumber"), StageStatus::Hit);
    assert_eq!(status_of(&records, "replicate"), StageStatus::Hit);
    assert_eq!(
        status_of(&records, "cc"),
        StageStatus::Recomputed,
        "deleted entry must force the cc pass to re-run"
    );
    for stage in ["boost", "tile-select", "normalize"] {
        assert_eq!(
            status_of(&records, stage),
            StageStatus::Cutoff,
            "{stage} must reuse its cache via early cutoff"
        );
    }
    assert_eq!(rerun.first_difference(&reference), None, "cutoff rerun");
    let _ = std::fs::remove_dir_all(&dir);
}
