//! The launch rows of the bench record: every simulated number of every
//! launch shape. The matrix is {exact, coalescing, latency, combined} ×
//! {lonestar, tigr, gunrock} × {push, auto} × {flat, segmented where the
//! plan has identity attributes} × {bfs, sssp, pr}, plus mst and bc on
//! lonestar push — flat, sorted-segmented, unsorted-segmented
//! (hole-bearing assignments), tiled and tiled+segmented launches, pull
//! supersteps, tile rounds and the frontier filter all price into these
//! rows. Each row holds the run's iteration count, an FNV-1a digest of its
//! value bits and every `KernelStats` field by name.

use crate::gate::Cell;
use graffix_algos::{Algo, Direction, SimRun};
use graffix_baselines::{Baseline, ALL_BASELINES};
use graffix_core::{auto_tune, Technique};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{Csr, Segmentation};
use graffix_sim::GpuConfig;
use std::sync::Arc;

/// Segment budget of the matrix: small enough that both graphs split into
/// several segments, so routing, skipping and L2 spans all run.
const BUDGET: usize = 8 * 1024;

/// The two graphs of the matrix.
fn graphs() -> [(&'static str, Csr); 2] {
    [
        ("rmat", GraphSpec::new(GraphKind::Rmat, 1_200, 5).generate()),
        (
            "road",
            GraphSpec::new(GraphKind::Road, 1_600, 13).generate(),
        ),
    ]
}

/// The cells of one row: iterations, value digest, every stats field.
fn row(id: &str, run: &SimRun) -> Vec<Cell> {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in run.values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut cells = vec![
        Cell::new(id, "iterations", run.iterations),
        Cell::new(id, "values", format!("{digest:016x}")),
    ];
    let stats = run.stats.field_pairs();
    cells.extend(stats.map(|(name, value)| Cell::new(id, name, value)));
    cells
}

/// Measures the launch rows. Panics unless every segmented run agrees with
/// its flat run bit for bit in values and iterations and really ran
/// segment-major — no other check covers the bucketed and the tiled
/// routing — and unless the matrix segmented both a hole-bearing
/// assignment and a tiled plan.
pub fn launch_rows() -> Vec<Cell> {
    let gpu = GpuConfig::k40c();
    let mut cells = Vec::new();
    let (mut unsorted_routed, mut tiled_routed) = (false, false);
    for (graph_name, g) in graphs() {
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
                        let segs = Segmentation::build(&flat.graph, BUDGET);
                        assert!(segs.len() > 2, "the budget should split {graph_name}");
                        plans.push(("seg", flat.clone().with_segments(Arc::new(segs))));
                        unsorted_routed |= !flat.assignment.windows(2).all(|w| w[0] <= w[1]);
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
                                "launch/{graph_name}/{}/{}/{}/{shape}/{}",
                                technique.key(),
                                baseline.key(),
                                direction.key(),
                                algo.name()
                            );
                            let (run, _) = algo.run(plan, &g, None, 2);
                            cells.extend(row(&id, &run));
                            if *shape == "flat" {
                                flat_runs.push(run);
                                continue;
                            }
                            same_but_segmented(&id, &run, &flat_runs[i]);
                        }
                    }
                }
            }
        }
    }
    assert!(unsorted_routed, "no hole-bearing assignment was segmented");
    assert!(tiled_routed, "no tiled plan was segmented");
    cells
}

/// Routing only moves prices: bucketed (hole-bearing) and tiled launches
/// included.
fn same_but_segmented(id: &str, run: &SimRun, flat: &SimRun) {
    let bits = |r: &SimRun| r.values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(run), bits(flat), "{id}");
    assert_eq!(run.iterations, flat.iterations, "{id}");
    assert!(run.stats.segments_processed > 0, "{id}");
    assert_eq!(flat.stats.segments_processed, 0, "{id}");
}
