//! Incremental preparation over a stream of edge mutations.
//!
//! [`IncrementalPrepare`] owns a graph, a [`Pipeline`], and a warm
//! [`QueryCtx`], and keeps the prepared output up to date as edge batches
//! arrive. Each batch is applied through [`Csr::apply_batch`] and then the
//! pipeline is re-run through the memoized stage-query layer; the only new
//! machinery here decides *how much* of that re-run is real work:
//!
//! * **Exact mode** — every stage whose inputs changed recomputes. When the
//!   pipeline shape allows it (latency without coalescing, where the `cc`
//!   stage is computed on the input graph itself), its per-node triangle
//!   counts are maintained incrementally on the side and seeded into the
//!   context as a bit-exact payload, so that stage becomes a hit while the
//!   output stays byte-identical to a from-scratch prepare.
//! * **Stale mode** — the head stage of the pipeline is served from its
//!   previous output ([`QueryCtx::seed_stale`]), which makes every
//!   downstream key match and the whole prepare collapse into cache hits.
//!   The prepared graph then lags the true graph; the accumulated lag is
//!   tracked as *staleness debt* (churned arcs / arcs at the last exact
//!   prepare) and once it would exceed [`StreamKnobs::debt_threshold`] the
//!   next prepare is forced exact and the debt resets. A threshold of `0`
//!   disables stale mode entirely: every batch re-prepares exactly.
//!
//! What is maintained is the per-node integer triangle count, in a
//! [`TriangleIndex`] (the structure edge boosting edits through): each
//! undirected edge `{u, v}` a batch makes or unmakes moves the counts of
//! `u`, `v` and their common neighbors by one short intersection, and the
//! seeded `cc` payload is those integers — what a fresh
//! [`graffix_graph::properties::triangle_counts`] pass would store.
//!
//! The context's memo would otherwise keep every superseded stage payload
//! for the life of the stream (a boosted graph per exact batch), so after
//! each batch the entries of the stages that just ran under other keys are
//! dropped ([`QueryCtx::drop_superseded`]).

use crate::knobs::StreamKnobs;
use crate::pipeline::{Pipeline, PipelineError};
use crate::prepared::Prepared;
use crate::query::{QueryCtx, StageRecord};
use crate::stages;
use graffix_graph::mutation::{BatchOutcome, EdgeBatch};
use graffix_graph::{Csr, GraphError, NodeId, TriangleIndex};
use graffix_sim::GpuConfig;
use std::time::Instant;

/// Error from streaming preparation: either the mutation was invalid or the
/// pipeline rejected its inputs.
#[derive(Debug)]
pub enum StreamError {
    /// The edge batch could not be applied to the graph.
    Graph(GraphError),
    /// The pipeline rejected the (mutated) graph or its knobs.
    Pipeline(PipelineError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "mutation failed: {e}"),
            StreamError::Pipeline(e) => write!(f, "prepare failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

impl From<PipelineError> for StreamError {
    fn from(e: PipelineError) -> Self {
        StreamError::Pipeline(e)
    }
}

/// How a batch's re-prepare was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrepareMode {
    /// Every changed stage recomputed (possibly accelerated by a bit-exact
    /// incremental `cc` seed); output byte-identical to a cold prepare.
    Exact,
    /// Head stage served stale; the prepared output lags the true graph.
    Stale,
}

impl PrepareMode {
    /// Lower-case label for logs.
    pub fn label(self) -> &'static str {
        match self {
            PrepareMode::Exact => "exact",
            PrepareMode::Stale => "stale",
        }
    }
}

/// Per-batch result of [`IncrementalPrepare::apply_batch`].
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// How the re-prepare was satisfied.
    pub mode: PrepareMode,
    /// Wall seconds spent inside the pipeline re-run (mutation excluded).
    pub prepare_seconds: f64,
    /// Wall seconds of everything `prepare_seconds` excludes:
    /// [`Csr::apply_batch`] plus triangle-count maintenance.
    pub maintenance_seconds: f64,
    /// Staleness debt after this batch (0 after an exact prepare).
    pub debt: f64,
    /// Arcs actually inserted or deleted by the batch.
    pub churn_arcs: usize,
    /// Nodes whose clustering coefficient the batch can have changed: the
    /// endpoints of every touched undirected pair and their common
    /// neighbors before and after the batch (0 when the pipeline shape does
    /// not use the `cc` seed).
    pub cc_dirty: usize,
    /// The raw mutation outcome from [`Csr::apply_batch`].
    pub batch: BatchOutcome,
    /// Stage-by-stage records of the re-prepare, in execution order.
    pub stages: Vec<StageRecord>,
}

/// A graph + pipeline pair that stays prepared across edge-batch mutations.
/// See the module docs for the exact/stale split and the debt model.
pub struct IncrementalPrepare {
    pipeline: Pipeline,
    cfg: GpuConfig,
    knobs: StreamKnobs,
    ctx: QueryCtx,
    graph: Csr,
    prepared: Prepared,
    /// Incrementally maintained triangle counts of the *true* graph,
    /// present iff the pipeline computes `cc` on the input graph itself
    /// (latency without coalescing).
    tri: Option<TriangleIndex>,
    debt: f64,
    /// Edge count at the last exact prepare; the denominator of debt.
    base_arcs: usize,
    exact_prepares: usize,
    stale_prepares: usize,
}

impl IncrementalPrepare {
    /// Runs the initial full prepare and captures the state needed for
    /// incremental maintenance.
    pub fn new(
        graph: Csr,
        pipeline: Pipeline,
        cfg: GpuConfig,
        knobs: StreamKnobs,
    ) -> Result<IncrementalPrepare, StreamError> {
        knobs
            .validate()
            .map_err(|e| StreamError::Pipeline(PipelineError::InvalidKnobs(e)))?;
        let mut ctx = QueryCtx::memory();
        let prepared = pipeline.try_apply_with(&graph, &cfg, &mut ctx)?;
        // The `cc` stage runs on the input graph itself only when latency
        // is enabled without coalescing (otherwise it sees the replicated
        // graph, whose id space the incremental view does not track).
        let cc_seedable = pipeline.coalesce.is_none() && pipeline.latency.is_some();
        let tri = cc_seedable.then(|| {
            // The pipeline just counted; take the exact payload it
            // produced rather than counting again.
            let counts = ctx
                .last_payload("cc")
                .and_then(|p| stages::decode_counts(p).ok())
                .expect("the latency run above served a cc payload");
            TriangleIndex::with_counts(&graph.undirected(), counts)
        });
        let base_arcs = graph.num_edges().max(1);
        Ok(IncrementalPrepare {
            pipeline,
            cfg,
            knobs,
            ctx,
            graph,
            prepared,
            tri,
            debt: 0.0,
            base_arcs,
            exact_prepares: 1,
            stale_prepares: 0,
        })
    }

    /// The current true graph (always reflects every applied batch, even
    /// when the prepared output is stale).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The most recent prepared output.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// Current staleness debt (0 right after an exact prepare).
    pub fn debt(&self) -> f64 {
        self.debt
    }

    /// Number of exact prepares so far (the initial one included).
    pub fn exact_prepares(&self) -> usize {
        self.exact_prepares
    }

    /// Number of stale prepares so far.
    pub fn stale_prepares(&self) -> usize {
        self.stale_prepares
    }

    /// The head stage that a stale prepare reuses, per pipeline shape.
    fn stale_stage(&self) -> Option<&'static str> {
        if self.pipeline.coalesce.is_some() {
            Some("renumber")
        } else if self.pipeline.latency.is_some() {
            Some("boost")
        } else if self.pipeline.divergence.is_some() {
            Some("bucket")
        } else {
            None
        }
    }

    /// Applies one edge batch to the graph and brings the prepared output
    /// up to date (exactly or stale, per the debt model).
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<IncrementalOutcome, StreamError> {
        let entered = Instant::now();
        let outcome = self.graph.apply_batch(batch)?;
        let cc_dirty = self.refresh_counts(&outcome);
        let churn = outcome.churn_arcs();
        let churn_frac = churn as f64 / self.base_arcs as f64;
        let threshold = self.knobs.debt_threshold;
        let mode = if threshold > 0.0
            && self.debt + churn_frac <= threshold
            && self.stale_stage().is_some()
        {
            PrepareMode::Stale
        } else {
            PrepareMode::Exact
        };
        match mode {
            PrepareMode::Stale => {
                self.debt += churn_frac;
                self.stale_prepares += 1;
                self.ctx.seed_stale(self.stale_stage().unwrap());
            }
            PrepareMode::Exact => {
                self.debt = 0.0;
                self.base_arcs = self.graph.num_edges().max(1);
                self.exact_prepares += 1;
            }
        }
        // The cc seed is maintained on the true graph, so it is correct to
        // inject in *both* modes (in stale mode the stage keys upstream of
        // it are already satisfied, so the seed simply goes unqueried).
        if let Some(tri) = &self.tri {
            self.ctx
                .seed_payload("cc", stages::encode_counts(tri.counts()));
        }
        let started = Instant::now();
        let maintenance_seconds = (started - entered).as_secs_f64();
        let prepared = self
            .pipeline
            .try_apply_with(&self.graph, &self.cfg, &mut self.ctx);
        self.ctx.clear_seeds();
        self.ctx.drop_superseded();
        let prepared = prepared?;
        let prepare_seconds = started.elapsed().as_secs_f64();
        self.prepared = prepared;
        Ok(IncrementalOutcome {
            mode,
            prepare_seconds,
            maintenance_seconds,
            debt: self.debt,
            churn_arcs: churn,
            cc_dirty,
            batch: outcome,
            stages: self.ctx.records().to_vec(),
        })
    }

    /// Applies the batch's undirected edge changes to the triangle index,
    /// one toggle per changed pair. Returns the dirty count (see
    /// [`IncrementalOutcome::cc_dirty`]); 0 when no counts are maintained.
    fn refresh_counts(&mut self, out: &BatchOutcome) -> usize {
        let Some(tri) = self.tri.as_mut() else {
            return 0;
        };
        let mut pairs: Vec<(NodeId, NodeId)> = out
            .inserted
            .iter()
            .chain(out.deleted.iter())
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut dirty = vec![false; self.graph.num_nodes()];
        let mut common: Vec<NodeId> = Vec::new();
        let mut mark = |tri: &TriangleIndex, u: NodeId, v: NodeId| {
            common.clear();
            common.extend([u, v]);
            tri.common_into(u, v, &mut common);
            for &w in &common {
                dirty[w as usize] = true;
            }
        };
        // Common neighbors in the OLD adjacency (triangles a removed edge
        // destroys), plus the endpoints themselves.
        for &(u, v) in &pairs {
            mark(tri, u, v);
        }
        // Undirected membership of {u, v} is decided against the final
        // directed graph: present iff either arc survives the batch. The
        // toggles are sequential, each against the lists the previous ones
        // left, so two changed edges of one triangle move it once.
        for &(u, v) in &pairs {
            let present = self.graph.has_edge(u, v) || self.graph.has_edge(v, u);
            tri.set_edge(u, v, present);
        }
        // Common neighbors in the NEW adjacency (triangles an added edge
        // creates).
        for &(u, v) in &pairs {
            mark(tri, u, v);
        }
        dirty.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{DivergenceKnobs, LatencyKnobs};
    use crate::query::StageStatus;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::properties::local_clustering_coefficient;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_graph(seed: u64) -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 300, seed).generate()
    }

    fn random_batch(g: &Csr, rng: &mut ChaCha8Rng, arcs: usize) -> EdgeBatch {
        let n = g.num_nodes() as NodeId;
        let mut b = EdgeBatch::new();
        for _ in 0..arcs {
            let u = loop {
                let c = rng.random_range(0..n);
                if !g.is_hole(c) {
                    break c;
                }
            };
            let v = loop {
                let c = rng.random_range(0..n);
                if !g.is_hole(c) {
                    break c;
                }
            };
            if rng.random_range(0..3usize) == 0 && g.degree(u) > 0 {
                let nbrs = g.neighbors(u);
                b.delete(u, nbrs[rng.random_range(0..nbrs.len())]);
            } else {
                b.insert(u, v, 1);
            }
        }
        b
    }

    /// The maintained counts, read as coefficients, against the per-node
    /// oracle on the current true graph.
    fn assert_counts_match_oracle(inc: &IncrementalPrepare, what: &str) {
        let und = inc.graph().undirected();
        let kept = inc.tri.as_ref().unwrap().coefficients();
        assert_eq!(kept.len(), und.num_nodes());
        for (v, a) in kept.iter().enumerate() {
            let b = local_clustering_coefficient(&und, v as NodeId);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cc[{v}] diverged, {what}: {a} vs {b}"
            );
        }
    }

    fn latency_pipeline() -> Pipeline {
        Pipeline::default()
            .with_latency(LatencyKnobs::default())
            .with_divergence(DivergenceKnobs::default())
    }

    #[test]
    fn zero_threshold_stays_byte_identical_to_cold_prepare() {
        let g = test_graph(7);
        let pipe = latency_pipeline();
        let cfg = GpuConfig::k40c();
        let mut inc = IncrementalPrepare::new(
            g.clone(),
            pipe.clone(),
            cfg.clone(),
            StreamKnobs::default().with_debt_threshold(0.0),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for round in 0..6 {
            let batch = random_batch(inc.graph(), &mut rng, 8);
            let out = inc.apply_batch(&batch).unwrap();
            assert_eq!(out.mode, PrepareMode::Exact, "round {round}");
            assert_eq!(out.debt, 0.0);
            let cold = pipe.try_apply(inc.graph(), &cfg).unwrap();
            assert_eq!(inc.prepared().first_difference(&cold), None);
        }
        assert_eq!(inc.stale_prepares(), 0);
    }

    #[test]
    fn exact_mode_serves_cc_as_a_seeded_hit() {
        let g = test_graph(11);
        let mut inc = IncrementalPrepare::new(
            g,
            latency_pipeline(),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.0),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let batch = random_batch(inc.graph(), &mut rng, 5);
        let out = inc.apply_batch(&batch).unwrap();
        let cc_rec = out.stages.iter().find(|r| r.stage == "cc").unwrap();
        assert_eq!(
            cc_rec.status,
            StageStatus::Hit,
            "cc should come from the seed"
        );
    }

    #[test]
    fn incremental_cc_matches_fresh_computation_bitwise() {
        let g = test_graph(3);
        let mut inc = IncrementalPrepare::new(
            g,
            latency_pipeline(),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.0),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for round in 0..10 {
            let batch = random_batch(inc.graph(), &mut rng, 12);
            inc.apply_batch(&batch).unwrap();
            assert_counts_match_oracle(&inc, &format!("round {round}"));
        }
    }

    #[test]
    fn one_batch_touching_a_triangle_twice_counts_it_once() {
        // 0-1-2 is a triangle hanging off a path; every arc is stored in
        // both directions so deleting one arc leaves the undirected edge.
        let mut b = graffix_graph::GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)] {
            b.add_undirected_edge(u, v);
        }
        let mut inc = IncrementalPrepare::new(
            b.build(),
            latency_pipeline(),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.0),
        )
        .unwrap();
        assert_eq!(inc.tri.as_ref().unwrap().counts(), [1, 1, 1, 0, 0, 0]);

        // Two edges of the triangle go in one batch, and {3, 4} is deleted
        // and re-inserted (net: still there).
        let mut batch = EdgeBatch::new();
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            batch.delete(u, v);
            batch.delete(v, u);
        }
        batch.insert(3, 4, 1);
        batch.insert(4, 3, 1);
        let out = inc.apply_batch(&batch).unwrap();
        assert_eq!(inc.tri.as_ref().unwrap().counts(), [0; 6]);
        assert_counts_match_oracle(&inc, "after breaking the triangle");
        // Endpoints of the three touched pairs; 2 and 0 are also the old
        // common neighbors of {0, 1} and {1, 2}.
        assert_eq!(out.cc_dirty, 5);

        // Both edges come back, together with a chord closing 2-3-4.
        let mut batch = EdgeBatch::new();
        for (u, v) in [(0, 1), (1, 2), (2, 4)] {
            batch.insert(u, v, 1);
        }
        inc.apply_batch(&batch).unwrap();
        assert_eq!(inc.tri.as_ref().unwrap().counts(), [1, 1, 2, 1, 1, 0]);
        assert_counts_match_oracle(&inc, "after restoring it");
    }

    #[test]
    fn memo_stays_flat_over_many_batches() {
        let mut inc = IncrementalPrepare::new(
            test_graph(19),
            latency_pipeline(),
            GpuConfig::k40c(),
            // Three batches of debt, then an exact one.
            StreamKnobs::default().with_debt_threshold(0.02),
        )
        .unwrap();
        let after_new = inc.ctx.memo_entries();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for round in 0..20 {
            let batch = random_batch(inc.graph(), &mut rng, 12);
            let out = inc.apply_batch(&batch).unwrap();
            // A stale batch leaves no boost entry (a stale serve is not
            // memoized); an exact one leaves exactly the first prepare's set.
            let entries = inc.ctx.memo_entries();
            match out.mode {
                PrepareMode::Exact => assert_eq!(entries, after_new, "round {round}"),
                PrepareMode::Stale => assert!(entries < after_new, "round {round}"),
            }
        }
        assert!(inc.exact_prepares() > 2 && inc.stale_prepares() > 2);
    }

    #[test]
    fn stale_mode_reuses_head_stage_and_accrues_debt() {
        let g = test_graph(13);
        let mut inc = IncrementalPrepare::new(
            g,
            Pipeline::all_defaults(),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.5),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let batch = random_batch(inc.graph(), &mut rng, 4);
        let out = inc.apply_batch(&batch).unwrap();
        assert_eq!(out.mode, PrepareMode::Stale);
        assert!(out.debt > 0.0);
        let head = out.stages.iter().find(|r| r.stage == "renumber").unwrap();
        assert_eq!(head.status, StageStatus::Stale);
        // Every stage downstream of the stale head should be a cache hit —
        // nothing recomputes.
        for r in &out.stages {
            assert!(
                r.status.reused(),
                "stage {} recomputed in stale mode",
                r.stage
            );
        }
        assert_eq!(inc.stale_prepares(), 1);
    }

    #[test]
    fn debt_over_threshold_forces_exact_refresh() {
        let g = test_graph(17);
        let pipe = Pipeline::all_defaults();
        let cfg = GpuConfig::k40c();
        let mut inc = IncrementalPrepare::new(
            g,
            pipe.clone(),
            cfg.clone(),
            StreamKnobs::default().with_debt_threshold(0.002),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // A churn-heavy batch: the per-batch fraction alone exceeds the
        // threshold, so the prepare must go exact and reset the debt.
        let batch = random_batch(inc.graph(), &mut rng, 200);
        let out = inc.apply_batch(&batch).unwrap();
        assert_eq!(out.mode, PrepareMode::Exact);
        assert_eq!(out.debt, 0.0);
        let cold = pipe.try_apply(inc.graph(), &cfg).unwrap();
        assert_eq!(inc.prepared().first_difference(&cold), None);
    }

    #[test]
    fn divergence_only_pipeline_supports_stale_mode() {
        let g = test_graph(23);
        let mut inc = IncrementalPrepare::new(
            g,
            Pipeline::default().with_divergence(DivergenceKnobs::default()),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.5),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let out = inc
            .apply_batch(&random_batch(inc.graph(), &mut rng, 4))
            .unwrap();
        assert_eq!(out.mode, PrepareMode::Stale);
        let head = out.stages.iter().find(|r| r.stage == "bucket").unwrap();
        assert_eq!(head.status, StageStatus::Stale);
    }

    #[test]
    fn empty_pipeline_always_prepares_exactly() {
        let g = test_graph(29);
        let mut inc = IncrementalPrepare::new(
            g,
            Pipeline::default(),
            GpuConfig::k40c(),
            StreamKnobs::default().with_debt_threshold(0.5),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let out = inc
            .apply_batch(&random_batch(inc.graph(), &mut rng, 4))
            .unwrap();
        assert_eq!(out.mode, PrepareMode::Exact);
    }
}
