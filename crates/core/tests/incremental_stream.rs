//! Streaming acceptance suite: a 20k-node graph under 1%-churn edge
//! batches through the full combined pipeline.
//!
//! Pins the two halves of the streaming contract at acceptance scale:
//!
//! * **Exactness** — with debt threshold 0 every batch re-prepares
//!   exactly, and the maintained output is semantically identical to a
//!   from-scratch [`Pipeline::try_apply`] on the mutated graph.
//! * **Reuse** — in the stale regime a 1%-churn batch re-prepares without
//!   running a stage: the seeded head stage is served stale and every
//!   other one collapses into a reuse of the memoized query layer. (That
//!   is what makes such a batch cheap; the wall-clock ratio against a full
//!   re-prepare moves whenever the full side does, so it is reported by
//!   `graffix bench --stream-gate`, not asserted.)
//!
//! The release-mode counterpart (CI-gated) is `graffix bench --stream-gate`.

use graffix_core::{IncrementalPrepare, Pipeline, PrepareMode, StageStatus, StreamKnobs};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::mutation::EdgeBatch;
use graffix_graph::{Csr, NodeId};
use graffix_sim::GpuConfig;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const NODES: usize = 20_000;

fn acceptance_graph() -> Csr {
    GraphSpec::new(GraphKind::Rmat, NODES, 2020).generate()
}

/// A batch mutating ~1% of the graph's arcs: two thirds inserts of fresh
/// arcs, one third deletes of existing ones.
fn one_percent_batch(g: &Csr, rng: &mut ChaCha8Rng) -> EdgeBatch {
    let arcs = g.num_edges() / 100;
    let n = g.num_nodes() as NodeId;
    let mut batch = EdgeBatch::new();
    let pick = |rng: &mut ChaCha8Rng| loop {
        let c = rng.random_range(0..n);
        if !g.is_hole(c) {
            break c;
        }
    };
    for _ in 0..arcs {
        let u = pick(rng);
        if rng.random_range(0..3usize) == 0 && g.degree(u) > 0 {
            let nbrs = g.neighbors(u);
            batch.delete(u, nbrs[rng.random_range(0..nbrs.len())]);
        } else {
            let v = pick(rng);
            batch.insert(u, v, 1);
        }
    }
    batch
}

#[test]
fn exact_regime_matches_cold_prepare_at_acceptance_scale() {
    let g = acceptance_graph();
    let pipe = Pipeline::all_defaults();
    let cfg = GpuConfig::k40c();
    let mut inc = IncrementalPrepare::new(
        g,
        pipe.clone(),
        cfg.clone(),
        StreamKnobs::default().with_debt_threshold(0.0),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    for round in 0..2 {
        let batch = one_percent_batch(inc.graph(), &mut rng);
        let out = inc.apply_batch(&batch).unwrap();
        assert_eq!(out.mode, PrepareMode::Exact, "round {round}");
        assert_eq!(out.debt, 0.0, "round {round}");
        let cold = pipe.try_apply(inc.graph(), &cfg).unwrap();
        assert_eq!(inc.prepared().first_difference(&cold), None);
    }
    assert_eq!(inc.stale_prepares(), 0);
}

#[test]
fn stale_regime_reuses_every_stage_at_one_percent_churn() {
    const BATCHES: usize = 3;
    let g = acceptance_graph();
    // Threshold sized so every measured batch stays in the stale regime.
    let threshold = 0.011 * (BATCHES + 1) as f64;
    let mut inc = IncrementalPrepare::new(
        g,
        Pipeline::all_defaults(),
        GpuConfig::k40c(),
        StreamKnobs::default().with_debt_threshold(threshold),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for round in 0..BATCHES {
        let batch = one_percent_batch(inc.graph(), &mut rng);
        let out = inc.apply_batch(&batch).unwrap();
        assert_eq!(
            out.mode,
            PrepareMode::Stale,
            "round {round} left stale regime"
        );
        // The combined pipeline's head stage is `renumber`.
        for r in &out.stages {
            let want_stale = r.stage == "renumber";
            assert_eq!(
                r.status == StageStatus::Stale,
                want_stale,
                "round {round}: stage {} was {}",
                r.stage,
                r.status.label()
            );
            assert!(
                r.status.reused(),
                "round {round}: stage {} recomputed in a stale batch",
                r.stage
            );
        }
        assert!(out.stages.iter().any(|r| r.stage == "renumber"));
    }
}
