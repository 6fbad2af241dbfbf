//! The streaming bench cell: incremental re-preparation versus full
//! re-preparation under low-churn edge batches, gated **without a
//! baseline**. What makes a stale batch cheap is that the whole re-prepare
//! collapses into reuses of the memoized query layer, so that is what the
//! gate asserts — from the stage records, which no change to the cost of a
//! full re-prepare can move. Both wall times are still measured back to
//! back and shown beside the verdict.
//!
//! Two properties are pinned, matching the streaming acceptance criteria:
//!
//! 1. At ≤1% per-batch churn every stale-regime batch serves the stage
//!    `IncrementalPrepare` seeded as `Stale` and recomputes no stage
//!    (`stale_reuse`).
//! 2. With debt threshold 0 (exact regime) the incrementally maintained
//!    output is semantically identical to a from-scratch prepare.

use crate::gate::{Cell, GateReport};
use graffix_core::{
    IncrementalPrepare, Pipeline, PrepareMode, StageRecord, StageStatus, StreamKnobs,
};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::mutation::EdgeBatch;
use graffix_graph::{Csr, NodeId};
use graffix_sim::GpuConfig;
use std::time::Instant;

/// One measured streaming scenario.
#[derive(Clone, Debug)]
pub struct StreamCell {
    /// Stable scenario id.
    pub id: String,
    /// Nodes in the streamed graph.
    pub nodes: usize,
    /// Stale-regime batches measured.
    pub batches: u64,
    /// Per-batch churn as a fraction of the edge count.
    pub churn_frac: f64,
    /// Mean full re-prepare wall milliseconds (pipeline on mutated graph).
    pub full_ms: f64,
    /// Mean stale-regime incremental re-prepare wall milliseconds.
    pub incremental_ms: f64,
    /// Whether every stale batch served its seeded head stage `Stale` and
    /// recomputed nothing.
    pub stale_reuse: bool,
    /// Whether the exact-regime (debt threshold 0) output matched a
    /// from-scratch prepare semantically.
    pub exact_identical: bool,
}

impl StreamCell {
    /// What the gate judges: `stale_reuse` and `exact_identical` (an
    /// exactness failure is a correctness bug, not a perf regression). The
    /// wall times ride along as the note.
    pub fn gate_cells(&self) -> [Cell; 2] {
        let note = format!(
            "full {:.2}ms, incremental {:.3}ms ({:.1}x) over {} batches at {:.1}% churn",
            self.full_ms,
            self.incremental_ms,
            self.full_ms / self.incremental_ms.max(1e-9),
            self.batches,
            self.churn_frac * 100.0
        );
        [
            Cell {
                note,
                ..Cell::flag(self.id.as_str(), "stale_reuse", self.stale_reuse)
            },
            Cell::flag(self.id.as_str(), "exact_identical", self.exact_identical),
        ]
    }
}

/// Deterministic xorshift so the bench does not depend on ambient
/// randomness (same idiom as the serving determinism suite).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Builds a batch of roughly `arcs` mutations against `g`: two thirds
/// inserts of fresh arcs, one third deletes of existing arcs.
fn churn_batch(g: &Csr, rng: &mut Rng, arcs: usize) -> EdgeBatch {
    let n = g.num_nodes();
    let mut batch = EdgeBatch::new();
    let pick = |rng: &mut Rng| -> NodeId {
        loop {
            let c = rng.below(n) as NodeId;
            if !g.is_hole(c) {
                return c;
            }
        }
    };
    for _ in 0..arcs {
        let u = pick(rng);
        if rng.below(3) == 0 && g.degree(u) > 0 {
            let nbrs = g.neighbors(u);
            batch.delete(u, nbrs[rng.below(nbrs.len())]);
        } else {
            batch.insert(u, pick(rng), 1 + rng.below(9) as u32);
        }
    }
    batch
}

/// True when a stale batch's records show the seeded `head` stage served
/// `Stale` and nothing recomputed.
fn all_reused(stages: &[StageRecord], head: &str) -> bool {
    stages
        .iter()
        .any(|r| r.stage == head && r.status == StageStatus::Stale)
        && stages.iter().all(|r| r.status.reused())
}

/// Measures the streaming scenario: a 20k-node rmat graph under 1%-churn
/// batches through the full combined pipeline.
pub fn measure_streaming() -> Vec<StreamCell> {
    const NODES: usize = 20_000;
    const BATCHES: usize = 3;
    let gpu = GpuConfig::k40c();
    let pipeline = Pipeline::all_defaults();
    let base = GraphSpec::new(GraphKind::Rmat, NODES, 2020).generate();
    let churn_arcs = base.num_edges() / 100; // 1% per batch
    let churn_frac = churn_arcs as f64 / base.num_edges() as f64;
    let mut rng = Rng(0x9E3779B97F4A7C15);

    // Pre-generate the batch script against the evolving graph so both
    // regimes replay the identical mutation sequence.
    let mut scripted = Vec::with_capacity(BATCHES + 1);
    {
        let mut g = base.clone();
        for _ in 0..=BATCHES {
            let b = churn_batch(&g, &mut rng, churn_arcs);
            g.apply_batch(&b).expect("bench batch applies");
            scripted.push(b);
        }
    }

    // Exactness: one batch in the exact regime (debt threshold 0) must
    // match a from-scratch prepare on the mutated graph.
    let exact_identical = {
        let mut inc = IncrementalPrepare::new(
            base.clone(),
            pipeline.clone(),
            gpu.clone(),
            StreamKnobs::default().with_debt_threshold(0.0),
        )
        .expect("bench initial prepare");
        let out = inc.apply_batch(&scripted[0]).expect("bench exact batch");
        assert_eq!(out.mode, PrepareMode::Exact);
        let cold = pipeline
            .try_apply(inc.graph(), &gpu)
            .expect("bench cold oracle");
        inc.prepared().first_difference(&cold).is_none()
    };

    // Reuse: replay the script in the stale regime, reading each batch's
    // stage records (the combined pipeline's head stage is `renumber`) and
    // timing it against a full pipeline run on the same graph.
    let threshold = churn_frac * (BATCHES + 2) as f64; // every batch stays stale
    let mut inc = IncrementalPrepare::new(
        base,
        pipeline.clone(),
        gpu.clone(),
        StreamKnobs::default().with_debt_threshold(threshold),
    )
    .expect("bench initial prepare");
    let (mut inc_secs, mut full_secs) = (0.0f64, 0.0f64);
    let mut stale_reuse = true;
    for batch in scripted.iter().skip(1).take(BATCHES) {
        let out = inc.apply_batch(batch).expect("bench stale batch");
        assert_eq!(out.mode, PrepareMode::Stale, "batch left the stale regime");
        stale_reuse &= all_reused(&out.stages, "renumber");
        inc_secs += out.prepare_seconds;
        let t = Instant::now();
        let _ = pipeline
            .try_apply(inc.graph(), &gpu)
            .expect("bench full re-prepare");
        full_secs += t.elapsed().as_secs_f64();
    }
    let full_ms = full_secs * 1e3 / BATCHES as f64;
    let incremental_ms = inc_secs * 1e3 / BATCHES as f64;

    vec![StreamCell {
        id: "stream/rmat-20k-1pct".to_string(),
        nodes: NODES,
        batches: BATCHES as u64,
        churn_frac,
        full_ms,
        incremental_ms,
        stale_reuse,
        exact_identical,
    }]
}

/// Measures the streaming scenario and gates its two identities.
pub fn run_stream_gate() -> GateReport {
    let cells: Vec<Cell> = measure_streaming()
        .iter()
        .flat_map(StreamCell::gate_cells)
        .collect();
    GateReport::floors("stream", &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The policies themselves are pinned in `gate::tests`; this pins the
    /// cells the suite hands over, judged with no baseline at all.
    #[test]
    fn gate_judges_reuse_and_identity_not_wall_time() {
        let cell = StreamCell {
            id: "stream/fake".to_string(),
            nodes: 1000,
            batches: 3,
            churn_frac: 0.01,
            full_ms: 500.0,
            incremental_ms: 10.0,
            stale_reuse: true,
            exact_identical: true,
        };
        let gate = |c: &StreamCell| GateReport::floors("stream", &c.gate_cells());
        let report = gate(&cell);
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.passed());
        let table = report.table().render();
        assert!(table.contains("incremental 10.000ms (50.0x)"), "{table}");

        // A full re-prepare that got cheaper moves the note, not the verdict.
        let mut cheap_full = cell.clone();
        cheap_full.full_ms = 40.0;
        assert!(gate(&cheap_full).passed());

        // A stale batch that recomputed a stage fails.
        let mut recomputed = cell.clone();
        recomputed.stale_reuse = false;
        let report = gate(&recomputed);
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].metric, "stale_reuse");

        // An exactness failure always fails.
        let mut diverged = cell;
        diverged.exact_identical = false;
        let report = gate(&diverged);
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].status.label(), "diverged");
    }

    #[test]
    fn all_reused_needs_a_stale_head_and_no_recompute() {
        let rec = |stage, status| StageRecord {
            stage,
            status,
            seconds: 0.0,
            key: 0,
            store_error: None,
        };
        let stale = [
            rec("renumber", StageStatus::Stale),
            rec("replicate", StageStatus::Hit),
        ];
        assert!(all_reused(&stale, "renumber"));
        let keyed = [
            rec("renumber", StageStatus::Hit),
            rec("replicate", StageStatus::Hit),
        ];
        assert!(!all_reused(&keyed, "renumber"), "head was not served stale");
        let redone = [
            rec("renumber", StageStatus::Stale),
            rec("replicate", StageStatus::Recomputed),
        ];
        assert!(!all_reused(&redone, "renumber"));
    }
}
