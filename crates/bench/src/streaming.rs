//! The stream row of the bench record: incremental re-preparation under
//! low-churn edge batches. What makes a stale batch cheap is that the
//! whole re-prepare collapses into reuses of the memoized query layer, so
//! the row records the stage records, which no change to the cost of a
//! full re-prepare can move: how many stages of the stale batches and of
//! the exact batch each status served, and the arcs the batches churned.
//! Host time is measured by `benchmark/`'s `stream_churn` workload.
//!
//! Two floor cells come from the same batches, judged but never recorded:
//!
//! 1. At ≤1% per-batch churn every stale-regime batch serves the stage
//!    `IncrementalPrepare` seeded as `Stale` and recomputes no stage
//!    (`stale_reuse`).
//! 2. With debt threshold 0 (exact regime) the incrementally maintained
//!    output is semantically identical to a from-scratch prepare
//!    (`exact_identical`).

use crate::gate::Cell;
use graffix_core::{
    IncrementalPrepare, Pipeline, PrepareMode, StageRecord, StageStatus, StreamKnobs,
};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::mutation::EdgeBatch;
use graffix_graph::{Csr, NodeId};
use graffix_sim::GpuConfig;

/// Id of the one stream row.
const STREAM_ROW: &str = "stream/rmat-20k-1pct";

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

/// One cell per stage status: how many of `stages` it served, under
/// `prefix` + its label.
fn status_counts<'a>(
    stages: impl Iterator<Item = &'a StageRecord> + Clone,
    prefix: &str,
) -> Vec<Cell> {
    let statuses = [
        StageStatus::Hit,
        StageStatus::Cutoff,
        StageStatus::Recomputed,
        StageStatus::Stale,
    ];
    statuses
        .map(|status| {
            let served = stages.clone().filter(|r| r.status == status).count();
            Cell::new(STREAM_ROW, format!("{prefix}{}", status.label()), served)
        })
        .to_vec()
}

/// Measures the streaming scenario — a 20k-node rmat graph under 1%-churn
/// batches through the full combined pipeline — into the stream row and
/// its `stale_reuse` and `exact_identical` floor cells.
pub fn measure_streaming() -> (Vec<Cell>, Vec<Cell>) {
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
    let (exact_identical, exact_stages) = {
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
        (inc.prepared().first_difference(&cold).is_none(), out.stages)
    };

    // Reuse: replay the script in the stale regime and read each batch's
    // stage records (the combined pipeline's head stage is `renumber`).
    let threshold = churn_frac * (BATCHES + 2) as f64; // every batch stays stale
    let mut inc = IncrementalPrepare::new(
        base,
        pipeline,
        gpu,
        StreamKnobs::default().with_debt_threshold(threshold),
    )
    .expect("bench initial prepare");
    let (mut stale_stages, mut churned) = (Vec::new(), 0);
    for batch in scripted.iter().skip(1).take(BATCHES) {
        let out = inc.apply_batch(batch).expect("bench stale batch");
        assert_eq!(out.mode, PrepareMode::Stale, "batch left the stale regime");
        churned += out.churn_arcs;
        stale_stages.push(out.stages);
    }
    let stale_reuse = stale_stages.iter().all(|s| all_reused(s, "renumber"));

    let mut row = vec![
        Cell::new(STREAM_ROW, "nodes", NODES),
        Cell::new(STREAM_ROW, "batches", BATCHES),
        Cell::new(STREAM_ROW, "churn_arcs", churned),
    ];
    row.extend(status_counts(stale_stages.iter().flatten(), ""));
    row.extend(status_counts(exact_stages.iter(), "exact_"));
    let floors = vec![
        Cell::flag(STREAM_ROW, "stale_reuse", stale_reuse),
        Cell::flag(STREAM_ROW, "exact_identical", exact_identical),
    ];
    (row, floors)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Every status gets a key, served or not, so a status that starts
        // or stops serving moves a recorded value.
        let counts = status_counts(stale.iter().chain(&redone), "exact_");
        let text: Vec<String> = counts
            .iter()
            .map(|c| format!("{}={}", c.metric, c.value))
            .collect();
        assert_eq!(
            text,
            [
                "exact_hit=1",
                "exact_cutoff=0",
                "exact_recomputed=1",
                "exact_stale=2"
            ]
        );
    }
}
