//! Segmented-vs-flat comparison cells: the same corpus cell run once on
//! the flat plan and once segment-major under an L2-sized byte budget.
//!
//! Two claims are checked per cell. **Identity**: the segmented run's
//! per-vertex values must be bit-identical to the flat run's — the
//! segment-major superstep is a scheduling change, not an approximation.
//! **Win**: with segments sized to fit L2, intra-segment traffic is priced
//! at the L2 tier instead of global, so the segmented run should be
//! cheaper in simulated cycles wherever boundary traffic doesn't dominate.
//! The gate holds every cell to both (the `identical` and `win` policies
//! in [`crate::gate`]): all ten suite cells clear the win floor at the
//! scales in use (8192 nodes in CI, 2^17 by default).

use crate::baseline::GATE_ALGOS;
use crate::gate::{Cell, GateReport};
use crate::suite::Suite;
use graffix_baselines::Baseline;
use graffix_core::Technique;
use graffix_graph::Segmentation;
use std::sync::Arc;

/// One flat-vs-segmented comparison row.
#[derive(Clone, Debug)]
pub struct SegmentCompareRow {
    pub graph: String,
    pub algo: String,
    /// Simulated elapsed cycles of the flat run.
    pub flat_cycles: u64,
    /// Simulated elapsed cycles of the segmented run.
    pub segmented_cycles: u64,
    /// Segments the budget produced for this graph.
    pub segments: usize,
    /// Segment visits skipped because the routed frontier was empty.
    pub segments_skipped: u64,
    /// True when the segmented values are bit-identical to the flat ones.
    pub identical: bool,
}

impl SegmentCompareRow {
    /// Fractional cycle win of the segmented run (0.05 = 5% faster;
    /// negative when segmentation lost).
    pub fn win(&self) -> f64 {
        1.0 - self.segmented_cycles as f64 / self.flat_cycles.max(1) as f64
    }

    /// What the gate judges: `identical` and `win`.
    pub fn gate_cells(&self) -> [Cell; 2] {
        let id = format!("{}/{}/segmented", self.graph, self.algo);
        let note = format!(
            "{} -> {} cycles, {} segments, {} skipped",
            self.flat_cycles, self.segmented_cycles, self.segments, self.segments_skipped
        );
        [
            Cell::flag(id.as_str(), "identical", self.identical),
            Cell {
                note,
                ..Cell::new(id, "win", self.win())
            },
        ]
    }
}

/// Runs every (graph, gate algorithm) cell of `suite` flat and segmented
/// under `segment_bytes`, on the exact technique's Baseline-I plan (the
/// same cells the regression gate measures).
pub fn compare_segmented(suite: &Suite, segment_bytes: usize) -> Vec<SegmentCompareRow> {
    let mut rows = Vec::new();
    for gi in 0..suite.len() {
        let prepared = suite.prepared(gi, Technique::Exact);
        let segments = Arc::new(Segmentation::build(&prepared.graph, segment_bytes));
        for algo in GATE_ALGOS {
            let flat_plan = Baseline::Lonestar.plan(&prepared, &suite.cfg);
            let seg_plan = Baseline::Lonestar
                .plan(&prepared, &suite.cfg)
                .with_segments(Arc::clone(&segments));
            let run = |plan| algo.run(plan, suite.graph(gi), None, suite.options.bc_sources);
            let (flat, flat_scalar) = run(&flat_plan);
            let (seg, seg_scalar) = run(&seg_plan);
            let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            let identical = flat.values.len() == seg.values.len()
                && flat.values.iter().zip(&seg.values).all(same_bits)
                && flat_scalar == seg_scalar;
            rows.push(SegmentCompareRow {
                graph: suite.kind(gi).paper_name().to_string(),
                algo: algo.name().to_string(),
                flat_cycles: flat.elapsed_cycles(&suite.cfg),
                segmented_cycles: seg.elapsed_cycles(&suite.cfg),
                segments: segments.len(),
                segments_skipped: seg.stats.segments_skipped,
                identical,
            });
        }
    }
    rows
}

/// Measures and judges the segmented-execution gate on `suite`.
pub fn run_segment_gate(suite: &Suite, segment_bytes: usize) -> GateReport {
    gate_rows(&compare_segmented(suite, segment_bytes))
}

/// Judges comparison rows; baseline-free, so there is nothing to compare to.
fn gate_rows(rows: &[SegmentCompareRow]) -> GateReport {
    let cells: Vec<Cell> = rows.iter().flat_map(|r| r.gate_cells()).collect();
    GateReport::floors("segment", &cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOptions;

    fn tiny_suite() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 300,
            seed: 7,
            bc_sources: 2,
        })
    }

    /// Identity is the hard guarantee: at any budget, every cell's
    /// segmented values must match the flat run bit for bit.
    #[test]
    fn segmented_values_identical_at_multi_segment_budget() {
        let s = tiny_suite();
        let rows = compare_segmented(&s, 2048);
        assert_eq!(rows.len(), s.len() * GATE_ALGOS.len());
        for r in &rows {
            assert!(r.identical, "{}/{} diverged", r.graph, r.algo);
            assert!(r.segments > 1, "{}/{} ran in one segment", r.graph, r.algo);
        }
    }

    /// The 1-segment degenerate budget must also be value-identical (it
    /// exercises the segment-major loop with everything resident).
    #[test]
    fn segmented_values_identical_at_one_segment_budget() {
        let s = tiny_suite();
        for r in compare_segmented(&s, usize::MAX / 2) {
            assert!(r.identical, "{}/{} diverged", r.graph, r.algo);
            assert_eq!(
                r.segments, 1,
                "{}/{} should be one segment",
                r.graph, r.algo
            );
        }
    }

    #[test]
    fn gate_report_counts_winners_and_divergence() {
        let s = tiny_suite();
        let rows = compare_segmented(&s, 4096);
        let report = gate_rows(&rows);
        assert_eq!(report.verdicts.len(), 2 * rows.len());
        // Identity holds at any scale; the win is only claimed from 8192
        // nodes up, so at 300 nodes only `win` verdicts may fail.
        assert!(report.failures().iter().all(|v| v.metric == "win"));
        assert!(report.table().render().contains("segment gate"));
        // Synthetic failure: flip one row to divergent and it is named.
        let mut bad = rows.clone();
        bad[0].identical = false;
        let report = gate_rows(&bad);
        let diverged: Vec<_> = report
            .failures()
            .into_iter()
            .filter(|v| v.metric == "identical")
            .collect();
        assert_eq!(diverged.len(), 1);
        assert_eq!(
            diverged[0].id,
            format!("{}/{}/segmented", rows[0].graph, rows[0].algo)
        );
    }
}
