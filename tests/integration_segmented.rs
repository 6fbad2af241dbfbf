//! Segment-major execution determinism: for BFS, SSSP, and PageRank, the
//! segmented path must produce per-vertex values byte-identical to the
//! flat path — at any host thread count and any segment budget, including
//! the 1-segment degenerate case.
//!
//! This holds by construction: a segment-major superstep issues the same
//! atomic folds over the same snapshot as the flat superstep, just grouped
//! by destination segment, and commutative folds make the grouping
//! unobservable in the values. Only the *pricing* changes (resident
//! accesses move from the global tier to L2), so cycles differ while
//! values cannot. These tests pin that guarantee end-to-end.

use graffix::prelude::*;
use std::sync::Arc;

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

/// Byte budgets spanning the interesting regimes for a ~1500-node graph:
/// many tiny segments, a few medium segments, and one segment holding the
/// whole graph (the degenerate case that must match flat trivially but
/// still runs through the segment-major loop).
const BUDGETS: [usize; 3] = [4 * 1024, 64 * 1024, usize::MAX / 2];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn segmented_plan(g: &Csr, cfg: &GpuConfig, budget: usize) -> (Plan, usize) {
    let segs = Segmentation::build(g, budget);
    let n = segs.len();
    let plan = Plan::exact(g, cfg, Strategy::Frontier).with_segments(Arc::new(segs));
    (plan, n)
}

#[test]
fn bfs_sssp_pr_byte_identical_flat_vs_segmented() {
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 1_500, 21).generate();
    let cfg = GpuConfig::k40c();
    let src = sssp::default_source(&g);
    let flat = Plan::exact(&g, &cfg, Strategy::Frontier);
    let flat_runs = [
        (Algo::Bfs, bfs::run_sim(&flat, src)),
        (Algo::Sssp, sssp::run_sim(&flat, src)),
        (Algo::Pr, pagerank::run_sim(&flat)),
    ];
    for (bi, &budget) in BUDGETS.iter().enumerate() {
        let (plan, n_segments) = segmented_plan(&g, &cfg, budget);
        // The budget triple must actually cover the three regimes.
        if bi == BUDGETS.len() - 1 {
            assert_eq!(n_segments, 1, "largest budget should be degenerate");
        } else {
            assert!(n_segments > 1, "budget {budget} produced one segment");
        }
        for (algo, flat_run) in &flat_runs {
            let name = algo.name();
            let (seg_run, _) = algo.run(&plan, &g, None, 0);
            assert_eq!(
                bits(&seg_run.values),
                bits(&flat_run.values),
                "{name}: segmented values diverge from flat at budget {budget}"
            );
            assert_eq!(
                seg_run.iterations, flat_run.iterations,
                "{name}: superstep count changed at budget {budget}"
            );
            assert!(
                seg_run.stats.segments_processed > 0,
                "{name}: segment-major path did not run at budget {budget}"
            );
        }
    }
}

/// The full matrix: algorithms × thread counts × budgets. Within one
/// budget, values and *stats* must be identical at every thread count
/// (segment routing buffers merge in deterministic chunk order); across
/// budgets, values must match the flat reference bit for bit.
#[test]
fn segmented_matrix_deterministic_across_threads_and_budgets() {
    let g = GraphSpec::new(GraphKind::Rmat, 1_500, 5).generate();
    let cfg = GpuConfig::k40c();
    let src = sssp::default_source(&g);
    let flat = Plan::exact(&g, &cfg, Strategy::Frontier);
    let reference = [
        (Algo::Bfs, bfs::run_sim(&flat, src)),
        (Algo::Sssp, sssp::run_sim(&flat, src)),
        (Algo::Pr, pagerank::run_sim(&flat)),
    ];
    for &budget in &BUDGETS {
        let (plan, _) = segmented_plan(&g, &cfg, budget);
        for (algo, flat_run) in &reference {
            let name = algo.name();
            let runs: Vec<SimRun> = THREAD_COUNTS
                .iter()
                .map(|&n| with_threads(n, || algo.run(&plan, &g, None, 0).0))
                .collect();
            for (i, r) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    r.values, runs[0].values,
                    "{name}: segmented values differ at {} threads (budget {budget})",
                    THREAD_COUNTS[i]
                );
                assert_eq!(
                    r.stats, runs[0].stats,
                    "{name}: segmented stats differ at {} threads (budget {budget})",
                    THREAD_COUNTS[i]
                );
            }
            assert_eq!(
                bits(&runs[0].values),
                bits(&flat_run.values),
                "{name}: segmented values diverge from flat at budget {budget}"
            );
        }
    }
}

/// Weighted SSSP exercises the weight windows of each segment; the
/// boundary-edge table must route weighted relaxations across segments
/// without touching the values.
#[test]
fn weighted_sssp_segmented_matches_flat_on_road_graph() {
    let g = GraphSpec::new(GraphKind::Road, 2_000, 13).generate();
    assert!(g.is_weighted(), "road generator should attach weights");
    let cfg = GpuConfig::k40c();
    let src = sssp::default_source(&g);
    let flat_run = sssp::run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), src);
    for &budget in &BUDGETS {
        let (plan, _) = segmented_plan(&g, &cfg, budget);
        let seg_run = sssp::run_sim(&plan, src);
        assert_eq!(bits(&seg_run.values), bits(&flat_run.values));
    }
}

/// Empty-frontier segment skipping is an optimization, not a semantic
/// change: a BFS from a single source must skip far-away segments in
/// early supersteps yet finish with the exact flat result.
#[test]
fn frontier_skipping_does_not_change_results() {
    let g = GraphSpec::new(GraphKind::Road, 2_000, 3).generate();
    let cfg = GpuConfig::k40c();
    let src = sssp::default_source(&g);
    let flat_run = bfs::run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier), src);
    let (plan, n_segments) = segmented_plan(&g, &cfg, 4 * 1024);
    assert!(n_segments > 4, "want enough segments for skips to happen");
    let seg_run = bfs::run_sim(&plan, src);
    assert!(
        seg_run.stats.segments_skipped > 0,
        "a road BFS wavefront should leave some segments inactive"
    );
    assert_eq!(bits(&seg_run.values), bits(&flat_run.values));
}
