//! The segment rows of the bench record: each (graph, gate algorithm) cell
//! of the paper suite run once on the flat plan and once segment-major
//! under an L2-sized byte budget, on the exact technique's Baseline-I plan.
//!
//! A row `segment/<graph>:<nodes>/<algo>` records both runs' simulated
//! cycles (`flat_cycles`, `cycles`), the segments the budget produced and
//! the segment visits skipped because the routed frontier was empty; the
//! gate holds each exactly. Two claims come from the same runs as floor
//! cells, judged but never recorded. **Identity** (`identical`): the
//! segmented run's per-vertex values must be bit-identical to the flat
//! run's — the segment-major superstep is a scheduling change, not an
//! approximation. **Win** (`win`): with segments sized to fit L2,
//! intra-segment traffic is priced at the L2 tier instead of global, so
//! the segmented run must be at least 5 % cheaper in simulated cycles
//! (both floors live in [`crate::gate::FLOORS`]).

use crate::baseline::{GATE_ALGOS, SEGMENT};
use crate::gate::Cell;
use crate::suite::Suite;
use graffix_baselines::Baseline;
use graffix_core::Technique;
use graffix_graph::Segmentation;
use std::sync::Arc;

/// Measures every (graph, gate algorithm) cell of `suite` flat and
/// segmented under `segment_bytes`: the segment rows, then their
/// `identical` and `win` floor cells.
pub fn measure_segmented(suite: &Suite, segment_bytes: usize) -> (Vec<Cell>, Vec<Cell>) {
    let (mut rows, mut floors) = (Vec::new(), Vec::new());
    for gi in 0..suite.len() {
        let prepared = suite.prepared(gi, Technique::Exact);
        let segments = Arc::new(Segmentation::build(&prepared.graph, segment_bytes));
        for algo in GATE_ALGOS {
            let flat_plan = Baseline::Lonestar.plan(&prepared, &suite.cfg);
            let seg_plan = flat_plan.clone().with_segments(Arc::clone(&segments));
            let run = |plan| algo.run(plan, suite.graph(gi), None, suite.options.bc_sources);
            let (flat, flat_scalar) = run(&flat_plan);
            let (seg, seg_scalar) = run(&seg_plan);
            let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            let identical = flat.values.len() == seg.values.len()
                && flat.values.iter().zip(&seg.values).all(same_bits)
                && flat_scalar == seg_scalar;
            let (flat_cycles, cycles) = (
                flat.elapsed_cycles(&suite.cfg),
                seg.elapsed_cycles(&suite.cfg),
            );
            let id = format!(
                "{SEGMENT}{}:{}/{}",
                suite.kind(gi).paper_name(),
                suite.options.nodes,
                algo.name()
            );
            rows.push(Cell::new(&id, "flat_cycles", flat_cycles));
            rows.push(Cell::new(&id, "cycles", cycles));
            rows.push(Cell::new(&id, "segments", segments.len()));
            rows.push(Cell::new(&id, "skipped", seg.stats.segments_skipped));
            floors.push(Cell::flag(&id, "identical", identical));
            let win = 1.0 - cycles as f64 / flat_cycles.max(1) as f64;
            floors.push(Cell::new(id, "win", win));
        }
    }
    (rows, floors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateReport;
    use crate::suite::SuiteOptions;

    fn tiny_suite() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 300,
            seed: 7,
            bc_sources: 2,
        })
    }

    /// The values of `key` in `cells`, in order.
    fn values<'a>(cells: &'a [Cell], key: &'a str) -> impl Iterator<Item = &'a Cell> {
        cells.iter().filter(move |c| c.metric == key)
    }

    /// Identity is the hard guarantee: at any budget, every cell's
    /// segmented values must match the flat run bit for bit.
    #[test]
    fn segmented_values_identical_at_multi_segment_budget() {
        let s = tiny_suite();
        let (rows, floors) = measure_segmented(&s, 2048);
        assert_eq!(rows.len(), 4 * s.len() * GATE_ALGOS.len());
        assert_eq!(floors.len(), 2 * s.len() * GATE_ALGOS.len());
        for c in values(&floors, "identical") {
            assert_eq!(c.value, "1", "{} diverged", c.id);
        }
        for c in values(&rows, "segments") {
            assert!(
                c.value.parse::<usize>().unwrap() > 1,
                "{} ran in one segment",
                c.id
            );
        }
    }

    /// The 1-segment degenerate budget must also be value-identical (it
    /// exercises the segment-major loop with everything resident).
    #[test]
    fn segmented_values_identical_at_one_segment_budget() {
        let (rows, floors) = measure_segmented(&tiny_suite(), usize::MAX / 2);
        for c in values(&floors, "identical") {
            assert_eq!(c.value, "1", "{} diverged", c.id);
        }
        for c in values(&rows, "segments") {
            assert_eq!(c.value, "1", "{} should be one segment", c.id);
        }
    }

    /// Each row names its graph, scale and algorithm and holds both runs'
    /// cycles; its floor cells come from exactly those runs, and a
    /// diverged cell is named by the gate.
    #[test]
    fn gate_report_counts_winners_and_divergence() {
        let s = tiny_suite();
        let (rows, floors) = measure_segmented(&s, 4096);
        let first = &rows[0].id;
        assert_eq!(
            first,
            &format!("segment/rmat26:300/{}", GATE_ALGOS[0].name())
        );
        let keys: Vec<&str> = rows[..4].iter().map(|c| c.metric.as_str()).collect();
        assert_eq!(keys, ["flat_cycles", "cycles", "segments", "skipped"]);
        let cycles = |key| {
            values(&rows, key)
                .next()
                .unwrap()
                .value
                .parse::<f64>()
                .unwrap()
        };
        let win = values(&floors, "win").next().unwrap();
        assert_eq!(&win.id, first);
        assert_eq!(
            win.value,
            (1.0 - cycles("cycles") / cycles("flat_cycles")).to_string()
        );
        // Identity holds at any scale; the win is only claimed from 2048
        // nodes up, so at 300 nodes only `win` verdicts may fail.
        let report = GateReport::judge("test", &[], &[], &floors);
        assert_eq!(report.verdicts.len(), floors.len());
        assert!(report.failures().iter().all(|v| v.metric == "win"));
        // Synthetic failure: flip one cell to divergent and it is named.
        let mut bad = floors.clone();
        bad[0].value = "0".to_string();
        let report = GateReport::judge("test", &[], &[], &bad);
        let diverged: Vec<_> = report
            .failures()
            .into_iter()
            .filter(|v| v.metric == "identical")
            .collect();
        assert_eq!(diverged.len(), 1);
        assert_eq!(
            (&diverged[0].id, diverged[0].status.label()),
            (first, "diverged")
        );
    }
}
