//! The runner's replay memo seen from whole algorithm runs: it may not
//! change a value, a counter or an iteration count whatever its size, and
//! on the two launch patterns the baselines produce — the same full
//! assignment every iteration, and a frontier that never repeats — its hit
//! counts are facts.

use crate::algo::{Algo, Scalar, ALL_ALGOS};
use crate::plan::{Direction, Plan, PlanDerived, SimRun, Strategy};
use crate::runner::memo_probe::{self, MemoShape};
use graffix_core::{CoalesceKnobs, LatencyKnobs, Pipeline, Prepared};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{Csr, NodeId, Segmentation, INVALID_NODE};
use graffix_sim::{GpuConfig, MemoCounts};
use std::sync::Arc;

pub(crate) fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

/// A Tigr-shaped plan (Baseline-II itself lives in `graffix-baselines`,
/// which depends on this crate): a node of degree above `bound` hands the
/// rest of its arcs to one appended virtual node that shares its attribute
/// slot.
pub(crate) fn virtually_split(prepared: &Prepared, cfg: &GpuConfig, bound: usize) -> Plan {
    let base = Plan::from_prepared(prepared, cfg, Strategy::Topology);
    let g = &base.graph;
    let mut offsets = vec![0];
    let (mut edges, mut weights) = (Vec::new(), Vec::new());
    let mut attr_of = base.attr_of.clone();
    let mut spilled = Vec::new();
    let mut push_arcs = |arcs: std::ops::Range<usize>| {
        for e in arcs {
            edges.push(g.edges_raw()[e]);
            if g.is_weighted() {
                weights.push(g.weight_at(e));
            }
        }
        offsets.push(edges.len());
    };
    for v in 0..g.num_nodes() as NodeId {
        let arcs = g.edge_range(v);
        let kept = arcs.start + arcs.len().min(bound);
        push_arcs(arcs.start..kept);
        if kept < arcs.end {
            spilled.push((v, kept..arcs.end));
        }
    }
    for (v, arcs) in spilled {
        push_arcs(arcs);
        attr_of.push(v);
    }
    let assignment = attr_of
        .iter()
        .enumerate()
        .map(|(v, &real)| match g.is_hole(real) {
            true => INVALID_NODE,
            false => v as NodeId,
        })
        .collect();
    let plan = Plan {
        graph: Csr::from_parts(offsets, edges, weights, Vec::new()),
        assignment,
        attr_of,
        derived: PlanDerived::default(),
        ..base
    };
    assert_eq!(plan.validate(), Ok(()));
    assert!(!plan.identity_attrs(), "nothing was split");
    plan
}

/// {flat, segmented, latency-tiled, coalesced with replicas} × {Lonestar,
/// Tigr-shaped, Gunrock push, Gunrock auto} on `g`; a segmentation needs
/// identity attributes, so there is no segmented split plan.
fn plans(g: &Csr, cfg: &GpuConfig, split_bound: usize) -> Vec<(String, Plan)> {
    let exact = Prepared::exact(g.clone());
    let tiled = Pipeline::default()
        .with_latency(LatencyKnobs::default())
        .apply(g, cfg);
    let coalesced = Pipeline::default()
        .with_coalesce(CoalesceKnobs::default())
        .apply(g, cfg);
    assert!(!tiled.tiles.is_empty(), "the latency plan has no tile");
    assert!(
        !coalesced.replica_groups.is_empty(),
        "no node was replicated"
    );
    let mut out = Vec::new();
    for (layout, prepared) in [
        ("flat", &exact),
        ("tiled", &tiled),
        ("coalesced", &coalesced),
    ] {
        let frontier = Plan::from_prepared(prepared, cfg, Strategy::Frontier);
        let baselines = [
            (
                "lonestar",
                Plan::from_prepared(prepared, cfg, Strategy::Topology),
            ),
            ("split", virtually_split(prepared, cfg, split_bound)),
            (
                "gunrock-push",
                frontier.clone().with_direction(Direction::Push),
            ),
            ("gunrock-auto", frontier.with_direction(Direction::Auto)),
        ];
        for (baseline, plan) in baselines {
            if layout == "flat" && plan.identity_attrs() {
                // Several segments at this size, so blocks carry L2 windows.
                let segments = Segmentation::build(&plan.graph, 4 * 1024);
                assert!(segments.len() > 1);
                let segmented = plan.clone().with_segments(Arc::new(segments));
                out.push((format!("segmented/{baseline}"), segmented));
            }
            out.push((format!("{layout}/{baseline}"), plan));
        }
    }
    out
}

type Outcome = (SimRun, Option<Scalar>);

fn assert_same(id: &str, got: &Outcome, want: &Outcome) {
    let bits = |run: &SimRun| run.values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&got.0), bits(&want.0), "{id}: values");
    for (got, want) in got
        .0
        .stats
        .field_pairs()
        .iter()
        .zip(want.0.stats.field_pairs())
    {
        assert_eq!(*got, want, "{id}: stats");
    }
    assert_eq!(got.0.iterations, want.0.iterations, "{id}: iterations");
    assert_eq!(got.1, want.1, "{id}: scalar");
}

/// Every algorithm on every plan shape of one graph: the run with every
/// warp replayed (the bypass, on one thread) is the reference, and the memo
/// at its plan size and at one probe window — where nearly every insert
/// evicts — must reproduce it bit for bit. Each cell runs at 1, 2 or 8
/// threads, rotating so that every algorithm and every plan shape meets
/// every count (the full product of shapes and counts per cell is 75 s of
/// debug build for the same verdict).
fn no_memo_shape_changes_a_run(kind: GraphKind, seed: u64, split_bound: usize) {
    let cfg = GpuConfig::k40c();
    let g = GraphSpec::new(kind, 1_024, seed).generate();
    let (mut hits, mut evictions) = (0, 0);
    for (p, (shape_of_plan, plan)) in plans(&g, &cfg, split_bound).iter().enumerate() {
        for (a, algo) in ALL_ALGOS.into_iter().enumerate() {
            let run = || algo.run(plan, &g, None, 2);
            let (reference, counts) = memo_probe::with(MemoShape::Bypass, || with_threads(1, run));
            assert_eq!(counts, [MemoCounts::default()], "the bypass counted");
            let threads = [1, 2, 8][(p + a) % 3];
            for shape in [MemoShape::Plan, MemoShape::OneWindow] {
                let id = format!("{shape_of_plan}/{}/{shape:?}/{threads}t", algo.name());
                let (got, counts) = memo_probe::with(shape, || with_threads(threads, run));
                assert_same(&id, &got, &reference);
                let [counts] = counts[..] else {
                    panic!("{id}: one run, one runner: {counts:?}");
                };
                // The confluence launch is priced outside the runner.
                if plan.replica_groups.is_empty() {
                    assert_eq!(counts.hits + counts.misses, got.0.stats.warps, "{id}");
                }
                match shape {
                    MemoShape::Plan => hits += counts.hits,
                    _ => evictions += counts.evictions,
                }
            }
        }
    }
    // The matrix means nothing if the memo never answered or never evicted.
    assert!(hits > 10_000, "{hits} hits");
    assert!(evictions > 10_000, "{evictions} evictions");
}

#[test]
fn no_memo_shape_changes_a_run_on_rmat() {
    no_memo_shape_changes_a_run(GraphKind::Rmat, 5, 8);
}

/// Road degrees stop at 4, so the split plan splits above 2.
#[test]
fn no_memo_shape_changes_a_run_on_road() {
    no_memo_shape_changes_a_run(GraphKind::Road, 9, 2);
}

fn lonestar_2k() -> (Csr, Plan) {
    let g = GraphSpec::new(GraphKind::Rmat, 2_048, 7).generate();
    let plan = Plan::exact(&g, &GpuConfig::k40c(), Strategy::Topology);
    (g, plan)
}

/// Topology PageRank launches its push and its apply kernel over the full
/// assignment every iteration and neither records a value-dependent trace:
/// every warp of the first iteration is a miss, every later warp a hit,
/// and the table (4 slots per warp, half of them needed) evicts nothing.
#[test]
fn topology_pagerank_misses_two_launches_of_warps_and_hits_the_rest() {
    let (g, plan) = lonestar_2k();
    let warps = plan.assignment.len().div_ceil(plan.cfg.warp_size) as u64;
    assert_eq!(warps, 64);
    for threads in [1, 8] {
        let (run, counts) = memo_probe::with(MemoShape::Plan, || {
            with_threads(threads, || Algo::Pr.run(&plan, &g, None, 0).0)
        });
        let [counts] = counts[..] else {
            panic!("one run, one runner: {counts:?}");
        };
        assert_eq!(run.iterations, 30);
        assert_eq!(counts.misses, 2 * warps, "{threads} threads");
        assert_eq!(counts.hits, (run.iterations as u64 - 1) * 2 * warps);
        assert_eq!(counts.hits + counts.misses, run.stats.warps);
        assert_eq!(counts.evictions, 0);
        assert_eq!(counts.entries as u64, 2 * warps);
        assert_eq!(counts.capacity as u64, 4 * warps);
    }
}

/// A frontier BFS visits every node once, so no warp repeats: the memo
/// answers nothing, and what it stores stays inside its table.
#[test]
fn frontier_bfs_hits_nothing_and_stays_inside_its_table() {
    let (g, topology) = lonestar_2k();
    let plan = Plan {
        strategy: Strategy::Frontier,
        ..topology
    };
    for shape in [MemoShape::Plan, MemoShape::OneWindow] {
        let (run, counts) = memo_probe::with(shape, || Algo::Bfs.run(&plan, &g, None, 0).0);
        let [counts] = counts[..] else {
            panic!("one run, one runner: {counts:?}");
        };
        assert_eq!(counts.hits, 0, "{shape:?}");
        assert_eq!(counts.misses, run.stats.warps, "{shape:?}");
        assert!(counts.entries <= counts.capacity, "{shape:?}: {counts:?}");
        assert_eq!(
            counts.entries as u64 + counts.evictions,
            counts.misses,
            "{shape:?}: every miss is stored, in a free slot or over another warp"
        );
    }
}
