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

mod golden;

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
/// (routing is a pure function of the assignment); across
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

/// Weighted SSSP exercises each segment's weights; relaxations across
/// segment boundaries must leave the values untouched.
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

/// Segment budget of the launch matrix: small enough that every test graph
/// splits into several segments, so routing, skipping and L2 spans all run.
const MATRIX_BUDGET: usize = 8 * 1024;

/// The two graphs of the launch matrix.
fn matrix_graphs() -> [(&'static str, Csr); 2] {
    [
        ("rmat", GraphSpec::new(GraphKind::Rmat, 1_200, 5).generate()),
        (
            "road",
            GraphSpec::new(GraphKind::Road, 1_600, 13).generate(),
        ),
    ]
}

fn with_matrix_segments(plan: &Plan) -> Plan {
    let segs = Segmentation::build(&plan.graph, MATRIX_BUDGET);
    assert!(segs.len() > 2, "matrix budget should split the graph");
    plan.clone().with_segments(Arc::new(segs))
}

fn ascending(nodes: &[NodeId]) -> bool {
    nodes.windows(2).all(|w| w[0] <= w[1])
}

/// One golden row: the cell id, the iteration count, an FNV-1a digest of
/// the value bits and every `KernelStats` field by name.
fn golden_row(id: &str, run: &SimRun) -> String {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in run.values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut row = format!("{id} iterations={} values={digest:016x}", run.iterations);
    for (name, value) in run.stats.field_pairs() {
        row.push_str(&format!(" {name}={value}"));
    }
    row
}

/// Every simulated number of every launch shape, against rows recorded
/// from the code *before* the runner's launch paths were merged into one
/// seam (`tests/golden/launch_matrix.txt`; not regenerated since, apart
/// from the cells CHANGES.md lists as deliberately moved). The matrix is
/// {exact, coalescing, latency, combined} × {lonestar, tigr, gunrock} ×
/// {push, auto} × {flat, segmented where the plan has identity attributes}
/// × {bfs, sssp, pr}, plus mst and bc on lonestar — flat, sorted-segmented,
/// unsorted-segmented (hole-bearing assignments), tiled and
/// tiled+segmented launches, pull supersteps, tile rounds and the frontier
/// filter all price into these rows. Every segmented cell must also agree
/// bit for bit with its flat cell, which no other test checks for the
/// bucketed and the tiled routing. On a mismatch the rows this build
/// produces are left in `launch_matrix.actual.txt` under the test tmpdir.
#[test]
fn launch_matrix_equals_the_recorded_rows() {
    let gpu = GpuConfig::k40c();
    let mut rows: Vec<String> = Vec::new();
    // Shapes the matrix must reach for the pin to mean anything.
    let (mut unsorted_routed, mut tiled_routed) = (false, false);
    for (graph_name, g) in matrix_graphs() {
        let tuned = auto_tune(&g, 7);
        for technique in [
            Technique::Exact,
            Technique::Coalescing,
            Technique::Latency,
            Technique::Combined,
        ] {
            let prepared = tuned.pipeline(technique, None).apply(&g, &gpu);
            for baseline in ALL_BASELINES {
                for direction in [Direction::Push, Direction::Auto] {
                    let flat = baseline.plan(&prepared, &gpu).with_direction(direction);
                    let mut plans = vec![("flat", flat.clone())];
                    if flat.identity_attrs() {
                        plans.push(("seg", with_matrix_segments(&flat)));
                        unsorted_routed |= !ascending(&flat.assignment);
                        tiled_routed |= !flat.tiles.is_empty();
                    }
                    let mut algos = vec![Algo::Bfs, Algo::Sssp, Algo::Pr];
                    if baseline == Baseline::Lonestar && direction == Direction::Push {
                        algos.extend([Algo::Mst, Algo::Bc]);
                    }
                    let mut flat_runs: Vec<SimRun> = Vec::new();
                    for (shape, plan) in &plans {
                        for (i, &algo) in algos.iter().enumerate() {
                            let id = format!(
                                "{graph_name}/{}/{}/{}/{shape}/{}",
                                technique.key(),
                                baseline.key(),
                                direction.key(),
                                algo.name()
                            );
                            let (run, _) = algo.run(plan, &g, None, 2);
                            rows.push(golden_row(&id, &run));
                            if *shape == "flat" {
                                flat_runs.push(run);
                                continue;
                            }
                            // Routing only moves prices: bucketed (hole-
                            // bearing) and tiled launches included.
                            let flat = &flat_runs[i];
                            assert_eq!(bits(&run.values), bits(&flat.values), "{id}");
                            assert_eq!(run.iterations, flat.iterations, "{id}");
                            assert!(run.stats.segments_processed > 0, "{id}");
                            assert_eq!(flat.stats.segments_processed, 0, "{id}");
                        }
                    }
                }
            }
        }
    }
    assert!(unsorted_routed, "no hole-bearing assignment was segmented");
    assert!(tiled_routed, "no tiled plan was segmented");

    golden::assert_rows_equal(
        "launch_matrix",
        &rows,
        include_str!("golden/launch_matrix.txt"),
    );
}
