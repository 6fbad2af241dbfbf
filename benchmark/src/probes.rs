//! Measurements of the traced pass that are not part of an iteration: each
//! calls one layer alone, so that its share of an end-to-end number can be
//! read off.

use crate::harness::{median, Cx};
use crate::workloads::events;
use graffix::graph::properties::clustering_coefficients;
use graffix::graph::serialize;
use graffix::prelude::*;
use graffix::sim::warp::replay_warp;
use graffix::sim::{run_superstep, AccessKind, MemEvent, Space, Superstep};
use std::path::Path;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The reads of one PageRank gather over `v`'s arcs, as the kernel mirrors
/// them: both offsets, then per arc the arc word and the neighbour's rank,
/// then the write of the new rank.
fn gather_accesses(g: &Csr, v: NodeId, mut access: impl FnMut(ArrayId, usize, AccessKind)) {
    access(ArrayId::OFFSETS, v as usize, AccessKind::Read);
    access(ArrayId::OFFSETS, v as usize + 1, AccessKind::Read);
    for (e, &u) in g.edge_range(v).zip(g.neighbors(v)) {
        access(ArrayId::EDGES, e, AccessKind::Read);
        access(ArrayId::NODE_ATTR, u as usize, AccessKind::Read);
    }
    access(ArrayId::NODE_ATTR_AUX, v as usize, AccessKind::Write);
}

/// `sim.*` and `graffix.*` probes on the exact graph of `run_flat`.
pub fn sim_and_report(cx: &mut Cx, g: &Csr) {
    let gpu = cx.gpu.clone();
    let nodes: Vec<NodeId> = g.real_nodes().collect();

    // Pricing replay alone: fixed traces of the first 1024 warps, replayed
    // three times.
    let warps: Vec<Vec<Vec<MemEvent>>> = nodes
        .chunks(gpu.warp_size)
        .take(1024)
        .map(|warp| {
            warp.iter()
                .map(|&v| {
                    let mut trace = Vec::new();
                    gather_accesses(g, v, |array, index, kind| {
                        trace.push(MemEvent {
                            array,
                            index: index as u64,
                            kind,
                            space: Space::Global,
                        })
                    });
                    trace
                })
                .collect()
        })
        .collect();
    let replays: Vec<f64> = (0..3)
        .map(|_| {
            let mut stats = KernelStats::default();
            let ((), seconds) = timed(|| {
                for lanes in &warps {
                    let traces: Vec<&[MemEvent]> = lanes.iter().map(Vec::as_slice).collect();
                    replay_warp(&gpu, &traces, &mut stats);
                }
            });
            seconds * 1e9 / events(&stats).max(1) as f64
        })
        .collect();
    cx.layer
        .insert("sim.replay_ns_per_event".into(), median(&replays));
    drop(warps);

    // Recording plus replay: a kernel that mirrors the same reads over the
    // whole graph and computes nothing.
    let (outcome, seconds) = timed(|| {
        run_superstep(
            &gpu,
            Superstep {
                assignment: &nodes,
                resident: None,
            },
            |v, lane| {
                gather_accesses(g, v, |array, index, kind| match kind {
                    AccessKind::Write => lane.write(array, index),
                    _ => lane.read(array, index),
                });
                false
            },
        )
    });
    cx.layer.insert(
        "sim.record_replay_ns_per_event".into(),
        seconds * 1e9 / events(&outcome.stats).max(1) as f64,
    );

    // Thread scaling of the heaviest kernel, and what a run report costs.
    let prepared = Prepared::exact(g.clone());
    let plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let (_, wide) = timed(|| pagerank::run_sim(&plan));
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    let (_, narrow) = single.install(|| timed(|| pagerank::run_sim(&plan)));
    cx.layer.insert("algos.scaling_2t".into(), narrow / wide);

    let source = sssp::default_source(g);
    let (_, plain) = timed(|| sssp::run_sim(&plan, source));
    let (text, reported) = timed(|| {
        let traced = traced_run(
            "bench",
            Algo::Sssp,
            g,
            &prepared,
            Baseline::Lonestar,
            &gpu,
            4,
        );
        traced.report.verify().expect("a fresh report verifies");
        traced.report.to_pretty_string()
    });
    cx.check(!text.is_empty(), || "the run report is empty".into());
    cx.layer
        .insert("graffix.report_ms".into(), (reported - plain) * 1e3);
}

/// `graph.*` probes behind `prepare_cold`: the undirected view and the
/// clustering coefficients that the `cc` stage calls.
pub fn graph_views(cx: &mut Cx, path: &Path) {
    let g = serialize::open_mapped(path).expect("graph file reads back");
    let (_, undirected) = timed(|| g.undirected());
    // The view is memoized on the graph, so this is the triangle pass alone.
    let (cc, triangles) = timed(|| clustering_coefficients(&g));
    cx.check(cc.len() == g.num_nodes(), || {
        "clustering_coefficients returned another length".into()
    });
    cx.layer
        .insert("graph.undirected_ms".into(), undirected * 1e3);
    cx.layer.insert("graph.cc_ms".into(), triangles * 1e3);
}
