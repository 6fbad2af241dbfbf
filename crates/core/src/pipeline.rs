//! Transform composition — the paper's "they can be combined for improved
//! benefits" (§1, contributions) — and the only producer of a
//! [`Prepared`]: a single transform is a pipeline with one stage enabled,
//! the empty pipeline is the exact preparation.
//!
//! The composition order is fixed to coalescing → latency → divergence:
//! renumbering must run first (it owns the id space), tile selection runs on
//! the renumbered graph, and degree normalization runs last so it sees the
//! final edge set.

use crate::coalesce::{apply_renumbering, renumber, replicate_renumbered};
use crate::divergence::{bucket_order, normalize_degrees, relabel_by_order};
use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs};
use crate::latency::{boost_with_counts, select_tiles};
use crate::prepared::{PhaseTiming, Prepared, StageReport, Technique, TransformReport};
use crate::query::{fingerprint_bytes, Fingerprint, QueryCtx, PIPELINE_VERSION};
use crate::stages::{self, RenumberOut};
use graffix_graph::properties::triangle_counts;
use graffix_graph::{serialize, Csr, NodeId, INVALID_NODE};
use graffix_sim::GpuConfig;
use std::borrow::Cow;
use std::time::Instant;

/// Name of the terminal entry: the assembled [`Prepared`].
pub(crate) const PREPARED_STAGE: &str = "prepared";

/// Every stage a pipeline can query, in execution order.
const STAGES: [&str; 8] = [
    "renumber",
    "replicate",
    "cc",
    "boost",
    "tile-select",
    "bucket",
    "normalize",
    "relabel",
];

/// Key of a query: the pipeline version, the tag, every upstream output
/// fingerprint, and the declared inputs (written by `inputs`, which only
/// ever calls [`Pipeline::write_inputs`]). Anything else — other stages'
/// knobs, wall-clock, thread count — must not leak in, or warm reuse breaks.
fn stage_key(tag: &str, upstream: &[u64], inputs: impl FnOnce(&mut Fingerprint)) -> u64 {
    let mut h = Fingerprint::new();
    h.write(&PIPELINE_VERSION.to_le_bytes());
    h.write(tag.as_bytes());
    h.write_u64(upstream.len() as u64);
    for &fp in upstream {
        h.write_u64(fp);
    }
    inputs(&mut h);
    h.finish()
}

/// Content fingerprint of an input graph: the hash of its GFX1
/// serialization, taken section by section without building the image.
pub(crate) fn graph_fingerprint(g: &Csr) -> u64 {
    let mut h = Fingerprint::new();
    serialize::write_sections(g, |piece| h.write(piece));
    h.finish()
}

/// Why a pipeline could not produce a [`Prepared`] graph. Surfaced to the
/// CLI as a diagnostic instead of the `validate().unwrap()` abort the knob
/// path used to hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// A knob combination the transforms cannot honor (e.g. a zero chunk
    /// size or a threshold outside `[0, 1]`).
    InvalidKnobs(String),
    /// An input graph an enabled transform cannot take (coalescing owns the
    /// id space, so it needs a graph without hole slots).
    InvalidInput(String),
    /// The composed transforms produced a structurally invalid preparation.
    InvalidPrepared(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidKnobs(msg) => write!(f, "invalid pipeline knobs: {msg}"),
            PipelineError::InvalidInput(msg) => write!(f, "invalid pipeline input: {msg}"),
            PipelineError::InvalidPrepared(msg) => {
                write!(f, "pipeline produced an invalid preparation: {msg}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A configurable composition of the three transforms.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    pub coalesce: Option<CoalesceKnobs>,
    pub latency: Option<LatencyKnobs>,
    pub divergence: Option<DivergenceKnobs>,
}

impl Pipeline {
    /// All three transforms with paper-default knobs.
    pub fn all_defaults() -> Self {
        Pipeline {
            coalesce: Some(CoalesceKnobs::default()),
            latency: Some(LatencyKnobs::default()),
            divergence: Some(DivergenceKnobs::default()),
        }
    }

    /// Enables the coalescing stage.
    pub fn with_coalesce(mut self, k: CoalesceKnobs) -> Self {
        self.coalesce = Some(k);
        self
    }

    /// Enables the latency stage.
    pub fn with_latency(mut self, k: LatencyKnobs) -> Self {
        self.latency = Some(k);
        self
    }

    /// Enables the divergence stage.
    pub fn with_divergence(mut self, k: DivergenceKnobs) -> Self {
        self.divergence = Some(k);
        self
    }

    /// Writes the knob and `GpuConfig` fields `stage` reads — nothing for a
    /// stage whose transform is off. The one place that decides which
    /// fields enter a key: each stage key hashes its own stage's, the
    /// terminal key every stage's, so a field cannot be in one and missing
    /// from the other. Each knob set is destructured whole, with no `..`:
    /// a new knob field left out of a pattern is a compile error, and one
    /// bound but never hashed is an unused variable.
    fn write_inputs(&self, stage: &str, cfg: &GpuConfig, h: &mut Fingerprint) {
        debug_assert!(STAGES.contains(&stage), "undeclared stage {stage}");
        if let Some(CoalesceKnobs {
            chunk_size,
            threshold,
            max_replicas_per_node,
        }) = self.coalesce
        {
            match stage {
                "renumber" => h.write_u64(chunk_size as u64),
                "replicate" => {
                    h.write_f64(threshold);
                    h.write_u64(max_replicas_per_node as u64);
                }
                _ => {}
            }
        }
        if let Some(LatencyKnobs {
            cc_threshold,
            margin,
            edge_budget_frac,
            t_diameter_factor,
        }) = self.latency
        {
            match stage {
                "boost" => {
                    h.write_f64(cc_threshold);
                    h.write_f64(margin);
                    h.write_f64(edge_budget_frac);
                }
                "tile-select" => {
                    h.write_u64(t_diameter_factor as u64);
                    h.write_u64(cfg.shared_mem_words as u64);
                }
                _ => {}
            }
        }
        if let Some(DivergenceKnobs {
            degree_sim_threshold,
            fill_fraction,
            edge_budget_frac,
        }) = self.divergence
        {
            if stage == "normalize" {
                h.write_f64(degree_sim_threshold);
                h.write_f64(fill_fraction);
                h.write_f64(edge_budget_frac);
                h.write_u64(cfg.warp_size as u64);
            }
        }
        // cc, bucket and relabel read their upstream outputs only.
    }

    /// Fingerprint of the boost stage's knob inputs. tile-select reads
    /// `cc_threshold` (a boost knob) when filtering centers, so its key
    /// carries this whole set on top of the boosted graph's content —
    /// over-invalidating on margin/budget changes whose output happened to
    /// be identical is the price of never reusing tiles across a
    /// cc_threshold change.
    fn boost_inputs_fp(&self, cfg: &GpuConfig) -> u64 {
        let mut h = Fingerprint::new();
        self.write_inputs("boost", cfg, &mut h);
        h.finish()
    }

    /// Key of the terminal entry for input graph `graph_fp`: which
    /// transforms are on, then every stage's declared inputs.
    pub(crate) fn prepared_key(&self, graph_fp: u64, cfg: &GpuConfig) -> u64 {
        stage_key(PREPARED_STAGE, &[graph_fp], |h| {
            h.write(&[
                self.coalesce.is_some() as u8,
                self.latency.is_some() as u8,
                self.divergence.is_some() as u8,
            ]);
            for stage in STAGES {
                self.write_inputs(stage, cfg, h);
            }
        })
    }

    /// Applies the enabled stages in order and returns the combined
    /// preparation, panicking on an invalid knob combination. Prefer
    /// [`Pipeline::try_apply`] anywhere knobs come from user input.
    pub fn apply(&self, g: &Csr, cfg: &GpuConfig) -> Prepared {
        self.try_apply(g, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates the enabled knob sets against `cfg`, then applies the
    /// stages in order. A bad knob combination (e.g. from CLI flags) comes
    /// back as a [`PipelineError`] diagnostic instead of aborting.
    ///
    /// This is [`Pipeline::try_apply_with`] on a null [`QueryCtx`]: the
    /// cold uncached run and the memoized query graph are one code path,
    /// which is what guarantees their outputs are byte-identical.
    pub fn try_apply(&self, g: &Csr, cfg: &GpuConfig) -> Result<Prepared, PipelineError> {
        self.try_apply_with(g, cfg, &mut QueryCtx::null())
    }

    /// Applies the pipeline as a dependency graph of memoized stage
    /// queries. Each stage's key is (pipeline version, stage tag, upstream
    /// output fingerprints, declared knob fields — see
    /// `Pipeline::write_inputs`); its output is
    /// content-fingerprinted via the bit-exact codecs in `stages`. A warm
    /// `ctx` therefore recomputes only the stages downstream of a changed
    /// input, and a recomputed stage whose bytes come out identical lets
    /// every downstream stage reuse its cache (early cutoff — reported as
    /// [`crate::query::StageStatus::Cutoff`]). Per-stage hit/cutoff/
    /// recomputed records are left in `ctx` for the caller to surface.
    pub fn try_apply_with(
        &self,
        g: &Csr,
        cfg: &GpuConfig,
        ctx: &mut QueryCtx,
    ) -> Result<Prepared, PipelineError> {
        // Fingerprinting serializes the input graph; skip it on the null
        // (cold, uncached) path where no key is ever looked up.
        let graph_fp = if ctx.is_null() {
            0
        } else {
            graph_fingerprint(g)
        };
        self.try_apply_keyed(g, graph_fp, cfg, ctx)
    }

    /// [`Pipeline::try_apply_with`] for a caller that already holds
    /// [`graph_fingerprint`] of `g`, so the graph is hashed once per call.
    ///
    /// The one body that builds a [`Prepared`]: the identity preparation of
    /// `g` is the running value, each enabled transform's arm edits it, and
    /// the tail finishes the report and validates once.
    pub(crate) fn try_apply_keyed(
        &self,
        g: &Csr,
        graph_fp: u64,
        cfg: &GpuConfig,
        ctx: &mut QueryCtx,
    ) -> Result<Prepared, PipelineError> {
        if let Some(k) = &self.coalesce {
            k.validate(cfg.warp_size)
                .map_err(PipelineError::InvalidKnobs)?;
            // Renumbering hands every slot a place in the BFS forest, and
            // the forest skips holes: the output of an earlier coalescing
            // cannot be coalesced again.
            if g.has_holes() {
                return Err(PipelineError::InvalidInput(format!(
                    "coalescing needs a graph without holes, and {} of the {} node slots \
                     are holes (is this the output of an earlier coalescing transform?)",
                    g.num_holes(),
                    g.num_nodes()
                )));
            }
        }
        if let Some(k) = &self.latency {
            k.validate().map_err(PipelineError::InvalidKnobs)?;
        }
        if let Some(k) = &self.divergence {
            k.validate().map_err(PipelineError::InvalidKnobs)?;
        }
        ctx.begin_run();
        let start = Instant::now();

        // The running value. `graph` borrows the input until a transform
        // replaces it, so no arm copies `g`; `cur_fp` tracks the identity
        // of the current graph for downstream stage keys.
        let ids: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let mut graph = Cow::Borrowed(g);
        let mut cur_fp = graph_fp;
        let mut assignment = ids.clone();
        let mut to_original = ids.clone();
        let mut primary = ids;
        let mut replica_groups = Vec::new();
        let mut tiles = Vec::new();
        let mut report = TransformReport {
            original_nodes: g.num_nodes(),
            original_edges: g.num_edges(),
            ..Default::default()
        };

        // Coalescing: renumber into chunk-aligned levels, then replicate
        // into the holes. The assignment follows the new numbering, so each
        // warp covers one aligned run of chunks and skips only holes.
        if let Some(k) = &self.coalesce {
            let rkey = stage_key("renumber", &[graph_fp], |h| {
                self.write_inputs("renumber", cfg, h)
            });
            let (ren_out, ren_fp) = ctx.query(
                "renumber",
                rkey,
                || {
                    let ren = renumber(g, k.chunk_size);
                    let graph = apply_renumbering(g, &ren);
                    RenumberOut { ren, graph }
                },
                stages::encode_renumber,
                stages::decode_renumber,
            );
            let pkey = stage_key("replicate", &[ren_fp], |h| {
                self.write_inputs("replicate", cfg, h)
            });
            let (rep, rep_fp) = ctx.query(
                "replicate",
                pkey,
                || replicate_renumbered(&ren_out.graph, &ren_out.ren, k),
                stages::encode_replication,
                stages::decode_replication,
            );
            assignment = (0..rep.graph.num_nodes() as NodeId)
                .map(|v| {
                    if rep.graph.is_hole(v) {
                        INVALID_NODE
                    } else {
                        v
                    }
                })
                .collect();
            to_original = rep.to_original;
            primary = ren_out.ren.new_of_old;
            replica_groups = rep.replica_groups;
            report.holes_created = ren_out.ren.holes_created;
            report.holes_filled = rep.holes_filled;
            report.replicas = rep.replicas;
            report.edges_added = rep.edges_added;
            report.stages.push(StageReport {
                transform: Technique::Coalescing.key().to_string(),
                replicas: rep.replicas,
                edges_added: rep.edges_added,
                edge_budget_arcs: 0,
            });
            graph = Cow::Owned(rep.graph);
            cur_fp = rep_fp;
        }

        // Latency: boost edges and select tiles on the current graph (ids
        // unchanged). The cc pass is its own query (it reads no knobs), so
        // boost-knob changes reuse it. Its output is the integer triangle
        // count per node; boost derives coefficients from it.
        if let Some(k) = &self.latency {
            let budget = (graph.num_edges() as f64 * k.edge_budget_frac) as usize;
            let cckey = stage_key("cc", &[cur_fp], |_| {});
            let (counts, cc_fp) = ctx.query(
                "cc",
                cckey,
                || triangle_counts(&graph.undirected()),
                |c| stages::encode_counts(c),
                stages::decode_counts,
            );
            let boost_input_fp = self.boost_inputs_fp(cfg);
            let bkey = stage_key("boost", &[cur_fp, cc_fp], |h| {
                h.write_u64(boost_input_fp);
            });
            let (boost, boost_fp) = ctx.query(
                "boost",
                bkey,
                || boost_with_counts(&graph, counts, k),
                stages::encode_boost,
                stages::decode_boost,
            );
            let tkey = stage_key("tile-select", &[boost_fp, boost_input_fp], |h| {
                self.write_inputs("tile-select", cfg, h)
            });
            let (selection, _) = ctx.query(
                "tile-select",
                tkey,
                || select_tiles(&boost.graph, &boost.clustering, k, cfg),
                stages::encode_tiles,
                stages::decode_tiles,
            );
            report.edges_added += boost.edges_added;
            report.stages.push(StageReport {
                transform: Technique::Latency.key().to_string(),
                replicas: 0,
                edges_added: boost.edges_added,
                edge_budget_arcs: budget,
            });
            tiles = selection.tiles;
            // Without a coalescing stage the assignment is free to be
            // tile-major (tile by tile, so a block's warps cover one tile,
            // then the rest in id order); with one, chunk alignment wins
            // and tiles are used only for residency.
            if self.coalesce.is_none() {
                let n = boost.graph.num_nodes();
                let mut assigned = vec![false; n];
                let tiled = tiles.iter().flat_map(|tile| &tile.nodes).copied();
                assignment = tiled
                    .chain(0..n as NodeId)
                    .filter(|&v| !std::mem::replace(&mut assigned[v as usize], true))
                    .collect();
            }
            graph = Cow::Owned(boost.graph);
            cur_fp = boost_fp;
        }

        // Divergence: normalize warp degrees along an order, last so it
        // sees the final edge set. When no earlier transform owns the id
        // space the order is the degree bucket sort and it is applied
        // *physically* — the paper sorts "the nodes array", which keeps
        // per-warp self accesses (offsets, own attributes) coalesced where
        // a logical warp reassignment would scatter them. Otherwise the
        // order is the current assignment: derived state, so it joins the
        // key as its own fingerprint next to the graph identity.
        if let Some(k) = &self.divergence {
            let physical = self.coalesce.is_none() && self.latency.is_none();
            let (order, order_fp) = if physical {
                let bkey = stage_key("bucket", &[cur_fp], |_| {});
                ctx.query(
                    "bucket",
                    bkey,
                    || bucket_order(&graph),
                    |v| stages::encode_ids(v),
                    stages::decode_ids,
                )
            } else {
                let order: Vec<NodeId> = assignment
                    .iter()
                    .copied()
                    .filter(|&v| v != INVALID_NODE)
                    .collect();
                let order_fp = if ctx.is_null() {
                    0
                } else {
                    fingerprint_bytes(&stages::encode_ids(&order))
                };
                (order, order_fp)
            };
            let budget = (graph.num_edges() as f64 * k.edge_budget_frac) as usize;
            let nkey = stage_key("normalize", &[cur_fp, order_fp], |h| {
                self.write_inputs("normalize", cfg, h)
            });
            let (norm, norm_fp) = ctx.query(
                "normalize",
                nkey,
                || normalize_degrees(&graph, &order, k, cfg.warp_size),
                stages::encode_normalize,
                stages::decode_normalize,
            );
            report.edges_added += norm.edges_added;
            report.stages.push(StageReport {
                transform: Technique::Divergence.key().to_string(),
                replicas: 0,
                edges_added: norm.edges_added,
                edge_budget_arcs: budget,
            });
            graph = Cow::Owned(if physical {
                let rkey = stage_key("relabel", &[norm_fp, order_fp], |_| {});
                let (relabeled, _) = ctx.query(
                    "relabel",
                    rkey,
                    || relabel_by_order(&norm.graph, &order),
                    stages::encode_csr,
                    stages::decode_csr,
                );
                // A node's new id is its bucket position; the assignment
                // stays the natural order of the new ids.
                for (pos, &old) in order.iter().enumerate() {
                    primary[old as usize] = pos as NodeId;
                }
                to_original = order;
                relabeled
            } else {
                norm.graph
            });
        }

        let technique = match (&self.coalesce, &self.latency, &self.divergence) {
            (None, None, None) => Technique::Exact,
            (Some(_), None, None) => Technique::Coalescing,
            (None, Some(_), None) => Technique::Latency,
            (None, None, Some(_)) => Technique::Divergence,
            _ => Technique::Combined,
        };
        let graph = graph.into_owned();
        report.technique_label = technique.label().to_string();
        report.new_nodes = graph.num_nodes();
        report.new_edges = graph.num_edges();
        report.space_overhead =
            graph.footprint_bytes() as f64 / g.footprint_bytes().max(1) as f64 - 1.0;
        report.phase_seconds = ctx
            .records()
            .iter()
            .map(|r| PhaseTiming::new(r.stage, r.seconds))
            .collect();
        report.preprocess_seconds = start.elapsed().as_secs_f64();
        let prepared = Prepared {
            graph,
            assignment,
            to_original,
            primary,
            replica_groups,
            tiles,
            confluence: Default::default(),
            technique,
            report,
        };
        prepared
            .validate()
            .map_err(PipelineError::InvalidPrepared)?;
        Ok(prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};

    fn graph() -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 500, 17).generate()
    }

    /// The output graph of a coalescing transform of [`graph`]: it has holes.
    fn coalesced() -> Csr {
        let coalesce = Pipeline::default().with_coalesce(CoalesceKnobs::default());
        let holey = coalesce.apply(&graph(), &GpuConfig::k40c()).graph;
        assert!(holey.has_holes(), "fixture must carry holes");
        holey
    }

    #[test]
    fn empty_pipeline_is_exact() {
        let g = graph();
        let p = Pipeline::default().apply(&g, &GpuConfig::k40c());
        assert_eq!(p.first_difference(&Prepared::exact(g)), None);
    }

    #[test]
    fn single_stage_labels() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let c = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(c.technique, Technique::Coalescing);
        let l = Pipeline::default()
            .with_latency(LatencyKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(l.technique, Technique::Latency);
        let d = Pipeline::default()
            .with_divergence(DivergenceKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(d.technique, Technique::Divergence);
    }

    #[test]
    fn combined_pipeline_validates_and_accumulates() {
        let g = graph();
        let p = Pipeline::all_defaults().apply(&g, &GpuConfig::k40c());
        assert_eq!(p.technique, Technique::Combined);
        p.validate().unwrap();
        assert!(p.report.new_edges >= g.num_edges());
        // Coalescing ran, so mappings are non-trivial.
        assert_eq!(p.primary.len(), g.num_nodes());
    }

    #[test]
    fn combined_keeps_chunk_assignment() {
        let g = graph();
        let p = Pipeline::all_defaults().apply(&g, &GpuConfig::k40c());
        // Chunk-aligned assignment: slot i is i or INVALID.
        for (i, &a) in p.assignment.iter().enumerate() {
            assert!(a == INVALID_NODE || a as usize == i);
        }
    }

    #[test]
    fn stage_reports_sum_to_aggregate_counters() {
        let g = graph();
        let p = Pipeline::all_defaults().apply(&g, &GpuConfig::k40c());
        assert_eq!(p.report.stages.len(), 3);
        let names: Vec<&str> = p
            .report
            .stages
            .iter()
            .map(|s| s.transform.as_str())
            .collect();
        assert_eq!(names, vec!["coalescing", "latency", "divergence"]);
        let edges: usize = p.report.stages.iter().map(|s| s.edges_added).sum();
        assert_eq!(edges, p.report.edges_added);
        let replicas: usize = p.report.stages.iter().map(|s| s.replicas).sum();
        assert_eq!(replicas, p.report.replicas);
    }

    #[test]
    fn single_transforms_record_one_stage() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let c = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(c.report.stages.len(), 1);
        assert_eq!(c.report.stages[0].transform, "coalescing");
        let l = Pipeline::default()
            .with_latency(LatencyKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(l.report.stages[0].transform, "latency");
        assert!(l.report.stages[0].edge_budget_arcs > 0);
        let d = Pipeline::default()
            .with_divergence(DivergenceKnobs::default())
            .apply(&g, &cfg);
        assert_eq!(d.report.stages[0].transform, "divergence");
        assert_eq!(d.report.stages[0].edges_added, d.report.edges_added);
    }

    #[test]
    fn invalid_knobs_are_a_diagnostic_not_a_panic() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        // chunk_size 0 cannot be honored — must come back as Err, not abort.
        let bad = Pipeline::default().with_coalesce(CoalesceKnobs {
            chunk_size: 0,
            ..Default::default()
        });
        let err = bad.try_apply(&g, &cfg).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidKnobs(_)));
        assert!(err.to_string().contains("chunk_size"), "{err}");

        // A threshold outside [0, 1] from the CLI, same story.
        let bad =
            Pipeline::default().with_divergence(DivergenceKnobs::default().with_threshold(-3.0));
        let err = bad.try_apply(&g, &cfg).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidKnobs(_)));

        // What the deleted standalone doors let through: a chunk wider than
        // the warp (silently run) and a latency knob out of range.
        let bad = Pipeline::default().with_coalesce(CoalesceKnobs {
            chunk_size: cfg.warp_size + 1,
            ..Default::default()
        });
        let err = bad.try_apply(&g, &cfg).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidKnobs(_)), "{err}");
        let bad = Pipeline::default().with_latency(LatencyKnobs::default().with_threshold(7.0));
        let err = bad.try_apply(&g, &cfg).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidKnobs(_)), "{err}");
        let bad = Pipeline::default().with_latency(LatencyKnobs {
            t_diameter_factor: 0,
            ..Default::default()
        });
        assert!(bad.try_apply(&g, &cfg).is_err());

        // Valid knobs still succeed through the fallible path.
        let p = Pipeline::all_defaults().try_apply(&g, &cfg).unwrap();
        assert_eq!(p.technique, Technique::Combined);
    }

    /// The output of a coalescing transform has holes, and `bfs_forest`
    /// gives a hole no level: coalescing it again used to index with
    /// `INVALID_NODE`. It is refused before any stage runs; the transforms
    /// that keep the id space take such a graph as before.
    #[test]
    fn hole_bearing_input_to_coalescing_is_a_typed_error() {
        let cfg = GpuConfig::k40c();
        let holey = coalesced();
        let holes = holey.num_holes();
        for pipe in [
            Pipeline::default().with_coalesce(CoalesceKnobs::default()),
            Pipeline::all_defaults(),
        ] {
            let mut ctx = QueryCtx::memory();
            let err = pipe.try_apply_with(&holey, &cfg, &mut ctx).unwrap_err();
            assert!(matches!(err, PipelineError::InvalidInput(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("{holes} of the")),
                "{err}"
            );
            assert!(ctx.records().is_empty(), "refused before any stage ran");
        }
        for pipe in [
            Pipeline::default().with_latency(LatencyKnobs::default()),
            Pipeline::default().with_divergence(DivergenceKnobs::default()),
        ] {
            pipe.try_apply(&holey, &cfg).unwrap().validate().unwrap();
        }
    }

    /// The fingerprint is the hash of the GFX1 image, whether or not the
    /// image is ever built: every stage key and cache file name hangs off it.
    #[test]
    fn streamed_graph_fingerprint_is_the_hash_of_the_serialized_image() {
        let weighted = graph();
        let unweighted = GraphSpec::new(GraphKind::Road, 300, 3)
            .with_max_weight(0)
            .generate();
        let holey = coalesced();
        // 4 096 bytes is the walker's block: sizes on either side of it.
        let tiny = GraphSpec::new(GraphKind::Random, 40, 1).generate();
        let empty = Csr::from_adjacency(Vec::new(), None);
        assert!(weighted.is_weighted() && !unweighted.is_weighted());
        for (name, g) in [
            ("weighted", &weighted),
            ("unweighted", &unweighted),
            ("hole-bearing", &holey),
            ("tiny", &tiny),
            ("empty", &empty),
        ] {
            assert_eq!(
                graph_fingerprint(g),
                fingerprint_bytes(&serialize::to_bytes(g)),
                "{name}"
            );
        }
    }

    #[test]
    fn latency_then_divergence_without_coalesce() {
        let g = graph();
        let p = Pipeline::default()
            .with_latency(LatencyKnobs::default().with_threshold(0.4))
            .with_divergence(DivergenceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        assert_eq!(p.technique, Technique::Combined);
        p.validate().unwrap();
    }

    /// Every stage key over a fixed upstream fingerprint, in [`STAGES`]
    /// order, then the terminal key: what each key reads of the knobs and
    /// the GPU, apart from upstream content. tile-select carries the boost
    /// inputs as an upstream, as in [`Pipeline::try_apply_keyed`].
    fn input_keys(p: &Pipeline, cfg: &GpuConfig) -> Vec<u64> {
        let mut keys: Vec<u64> = STAGES
            .iter()
            .map(|&stage| {
                let upstream = match stage {
                    "tile-select" => vec![1, p.boost_inputs_fp(cfg)],
                    _ => vec![1],
                };
                stage_key(stage, &upstream, |h| p.write_inputs(stage, cfg, h))
            })
            .collect();
        keys.push(p.prepared_key(1, cfg));
        keys
    }

    /// Flipping each knob field, `shared_mem_words` or `warp_size` moves
    /// exactly the stage keys that read it, plus the terminal key. (The
    /// whole destructuring in `write_inputs` makes *forgetting* a new
    /// field a compile error; this pins where each field goes.)
    #[test]
    fn every_knob_field_moves_exactly_the_keys_that_read_it() {
        type Edit = fn(&mut Pipeline, &mut GpuConfig);
        let cases: [(&str, Edit, &[&str]); 12] = [
            (
                "chunk_size",
                |p, _| p.coalesce.as_mut().unwrap().chunk_size = 8,
                &["renumber"],
            ),
            (
                "threshold",
                |p, _| p.coalesce.as_mut().unwrap().threshold = 0.3,
                &["replicate"],
            ),
            (
                "max_replicas_per_node",
                |p, _| p.coalesce.as_mut().unwrap().max_replicas_per_node = 9,
                &["replicate"],
            ),
            (
                "cc_threshold",
                |p, _| p.latency.as_mut().unwrap().cc_threshold = 0.2,
                &["boost", "tile-select"],
            ),
            (
                "margin",
                |p, _| p.latency.as_mut().unwrap().margin = 0.05,
                &["boost", "tile-select"],
            ),
            (
                "latency edge_budget_frac",
                |p, _| p.latency.as_mut().unwrap().edge_budget_frac = 0.5,
                &["boost", "tile-select"],
            ),
            (
                "t_diameter_factor",
                |p, _| p.latency.as_mut().unwrap().t_diameter_factor = 5,
                &["tile-select"],
            ),
            (
                "degree_sim_threshold",
                |p, _| p.divergence.as_mut().unwrap().degree_sim_threshold = 0.9,
                &["normalize"],
            ),
            (
                "fill_fraction",
                |p, _| p.divergence.as_mut().unwrap().fill_fraction = 0.5,
                &["normalize"],
            ),
            (
                "divergence edge_budget_frac",
                |p, _| p.divergence.as_mut().unwrap().edge_budget_frac = 0.5,
                &["normalize"],
            ),
            (
                "shared_mem_words",
                |_, cfg| cfg.shared_mem_words += 1,
                &["tile-select"],
            ),
            ("warp_size", |_, cfg| cfg.warp_size /= 2, &["normalize"]),
        ];
        let base = Pipeline::all_defaults();
        let base_cfg = GpuConfig::k40c();
        let before = input_keys(&base, &base_cfg);
        for (field, edit, readers) in cases {
            let (mut p, mut cfg) = (base.clone(), base_cfg.clone());
            edit(&mut p, &mut cfg);
            let after = input_keys(&p, &cfg);
            for (i, stage) in STAGES.iter().chain([&PREPARED_STAGE]).enumerate() {
                let reads = readers.contains(stage) || *stage == PREPARED_STAGE;
                assert_eq!(
                    before[i] != after[i],
                    reads,
                    "{field} {} the {stage} key",
                    if reads { "must move" } else { "moved" }
                );
            }
        }
    }
}
