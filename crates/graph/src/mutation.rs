//! Batched edge mutations for streaming graphs.
//!
//! A [`Csr`] is immutable-by-convention everywhere else in Graffix; this
//! module is the one seam through which a graph changes. Mutations arrive
//! as an [`EdgeBatch`] (inserts + deletes) and land through
//! [`Csr::apply_batch`]:
//!
//! 1. **Tombstone pass** — every deleted arc is overwritten with
//!    `INVALID_NODE` in a working copy of the edge array. The sentinel is
//!    unambiguous because a validated CSR can never contain it as a real
//!    destination (`check()` bounds destinations below the slot count,
//!    which is itself bounded below `u32::MAX`).
//! 2. **Compaction pass** — one sweep rebuilds offsets, squeezing
//!    tombstones out and merging the sorted insert run for each source.
//!    Sources untouched by the batch have their spans copied verbatim, so
//!    their byte layout — and therefore any content fingerprint over those
//!    spans — is exactly preserved. Touched neighbor lists come out in
//!    canonical form: sorted, deduplicated, minimum weight per arc (the
//!    same convention as [`crate::GraphBuilder`]).
//!
//! The rebuilt parts go back through [`Csr::try_from_parts`], which
//! re-validates every structural invariant (monotone offsets, in-range
//! destinations, hole/degree agreement) and drops the memoized undirected
//! view, so no stale derived state can survive a mutation.
//!
//! Batch semantics: deletes apply before inserts, so a delete+insert of
//! the same arc is a reweight; inserting an arc that already exists
//! updates its weight (counted separately from true insertions); deleting
//! an absent arc is a no-op. Weights on inserts into an unweighted graph
//! are ignored. Edges may not be attached to hole slots.

use crate::csr::{Csr, NodeId, INVALID_NODE};
use crate::error::GraphError;
use std::io::{self, BufRead, BufReader, Read};

/// One batch of edge mutations: arcs to delete and arcs to insert.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    inserts: Vec<(NodeId, NodeId, u32)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Queues insertion of arc `u -> v` with weight `w` (ignored when the
    /// target graph is unweighted; pass 1 for unweighted streams).
    pub fn insert(&mut self, u: NodeId, v: NodeId, w: u32) {
        self.inserts.push((u, v, w));
    }

    /// Queues deletion of arc `u -> v`.
    pub fn delete(&mut self, u: NodeId, v: NodeId) {
        self.deletes.push((u, v));
    }

    /// Queued insertions.
    pub fn inserts(&self) -> &[(NodeId, NodeId, u32)] {
        &self.inserts
    }

    /// Queued deletions.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// True when the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of queued operations (before dedup/no-op elimination).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// What a batch actually changed, plus the dirty node set seeding
/// incremental re-preparation.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Arcs that were absent and are now present.
    pub inserted: Vec<(NodeId, NodeId)>,
    /// Arcs that were present and are now absent.
    pub deleted: Vec<(NodeId, NodeId)>,
    /// Arcs that stayed present but changed weight.
    pub reweighted: usize,
    /// Endpoints of every inserted/deleted arc, sorted and deduplicated.
    /// Structure-dependent stages must treat at least these nodes as dirty;
    /// neighborhood-dependent analyses (clustering) additionally dirty the
    /// common neighbors of each changed arc — see the incremental layer.
    pub dirty: Vec<NodeId>,
}

impl BatchOutcome {
    /// Number of arcs whose presence changed (the churn the staleness-debt
    /// model accounts in).
    pub fn churn_arcs(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// True when the batch left the graph byte-identical.
    pub fn is_noop(&self) -> bool {
        self.churn_arcs() == 0 && self.reweighted == 0
    }
}

impl Csr {
    /// Applies one mutation batch, preserving every structural invariant.
    /// See the module docs for semantics. On error the graph is unchanged.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<BatchOutcome, GraphError> {
        let n = self.num_nodes();

        // Normalize: deletes sorted+deduped; inserts sorted by (src, dst,
        // weight) and deduped per arc, so the first survivor carries the
        // minimum weight (GraphBuilder's duplicate convention).
        let mut dels: Vec<(NodeId, NodeId)> = batch.deletes().to_vec();
        dels.sort_unstable();
        dels.dedup();
        let mut ins: Vec<(NodeId, NodeId, u32)> = batch.inserts().to_vec();
        ins.sort_unstable();
        ins.dedup_by_key(|e| (e.0, e.1));

        // Validate before touching anything so failure leaves `self` intact.
        for &(u, v) in &dels {
            self.node_index(u)?;
            self.node_index(v)?;
        }
        for &(u, v, _) in &ins {
            self.node_index(u)?;
            self.node_index(v)?;
            if self.is_hole(u) {
                return Err(GraphError::MutationIntoHole { node: u });
            }
            if self.is_hole(v) {
                return Err(GraphError::MutationIntoHole { node: v });
            }
        }

        let weighted = self.is_weighted();
        let old_offsets = self.offsets();
        let old_edges = self.edges_raw();

        // Pass 1: tombstone deleted arcs in a working copy.
        let mut work: Vec<NodeId> = old_edges.to_vec();
        let mut deleted: Vec<(NodeId, NodeId)> = Vec::new();
        let mut del_count = vec![0u32; n];
        {
            let mut i = 0;
            while i < dels.len() {
                let u = dels[i].0;
                let uidx = u as usize;
                // Holes have empty logical spans, so deletes on them no-op.
                let span = if self.is_hole(u) {
                    0..0
                } else {
                    old_offsets[uidx]..old_offsets[uidx + 1]
                };
                while i < dels.len() && dels[i].0 == u {
                    let v = dels[i].1;
                    // Linear probe: correct whether or not the list is
                    // sorted, and tombstones can never match a real id.
                    if let Some(e) = span.clone().find(|&e| work[e] == v) {
                        work[e] = INVALID_NODE;
                        deleted.push((u, v));
                        del_count[uidx] += 1;
                    }
                    i += 1;
                }
            }
        }

        // Pass 2: compact tombstones out and merge inserts per source.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut out_edges: Vec<NodeId> = Vec::with_capacity(old_edges.len() + ins.len());
        let mut out_weights: Vec<u32> = if weighted {
            Vec::with_capacity(old_edges.len() + ins.len())
        } else {
            Vec::new()
        };
        let mut inserted: Vec<(NodeId, NodeId)> = Vec::new();
        let mut reweighted = 0usize;
        let mut ins_i = 0;
        let mut scratch: Vec<(NodeId, u32)> = Vec::new();
        let old_weights = self.weights_raw();
        for uidx in 0..n {
            let u = uidx as NodeId;
            let ins_start = ins_i;
            while ins_i < ins.len() && ins[ins_i].0 == u {
                ins_i += 1;
            }
            let my_ins = &ins[ins_start..ins_i];
            let span = old_offsets[uidx]..old_offsets[uidx + 1];
            if my_ins.is_empty() && del_count[uidx] == 0 {
                // Untouched source: copy the span verbatim.
                out_edges.extend_from_slice(&old_edges[span.clone()]);
                if weighted {
                    out_weights.extend_from_slice(&old_weights[span]);
                }
            } else {
                scratch.clear();
                for e in span {
                    if work[e] != INVALID_NODE {
                        scratch.push((work[e], if weighted { old_weights[e] } else { 1 }));
                    }
                }
                for &(_, v, w) in my_ins {
                    let w = if weighted { w } else { 1 };
                    match scratch.iter_mut().find(|p| p.0 == v) {
                        Some(p) => {
                            if p.1 != w {
                                p.1 = w;
                                reweighted += 1;
                            }
                        }
                        None => {
                            scratch.push((v, w));
                            inserted.push((u, v));
                        }
                    }
                }
                // Canonical form: sorted, deduped keeping the min weight.
                scratch.sort_unstable();
                scratch.dedup_by_key(|p| p.0);
                out_edges.extend(scratch.iter().map(|p| p.0));
                if weighted {
                    out_weights.extend(scratch.iter().map(|p| p.1));
                }
            }
            offsets.push(out_edges.len());
        }

        let hole_mask: Vec<bool> = if self.has_holes() {
            (0..n).map(|v| self.is_hole(v as NodeId)).collect()
        } else {
            Vec::new()
        };
        // try_from_parts re-validates every invariant and starts with a
        // fresh (empty) undirected-view cache.
        *self = Csr::try_from_parts(offsets, out_edges, out_weights, hole_mask)?;

        let mut dirty: Vec<NodeId> = inserted
            .iter()
            .chain(deleted.iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        Ok(BatchOutcome {
            inserted,
            deleted,
            reweighted,
            dirty,
        })
    }
}

/// Parses a textual edge stream into mutation batches.
///
/// Format: one operation per line — `+ u v [w]` inserts, `- u v` deletes;
/// `#`/`%` comment lines are skipped; a blank line closes the current
/// batch. Node ids must stay below `u32::MAX` (the `INVALID_NODE`
/// sentinel).
pub fn parse_stream<R: Read>(input: R) -> io::Result<Vec<EdgeBatch>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let reader = BufReader::new(input);
    let mut batches = Vec::new();
    let mut current = EdgeBatch::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        if t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let op = parts.next().unwrap_or_default();
        let mut num = |what: &str, max: u64| -> io::Result<u64> {
            let tok = parts
                .next()
                .ok_or_else(|| bad(format!("line {}: missing {what}", lineno + 1)))?;
            let x: u64 = tok
                .parse()
                .map_err(|e| bad(format!("line {}: bad {what}: {e}", lineno + 1)))?;
            if x > max {
                return Err(bad(format!(
                    "line {}: {what} {x} out of range (max {max})",
                    lineno + 1
                )));
            }
            Ok(x)
        };
        let id_max = u32::MAX as u64 - 1;
        match op {
            "+" => {
                let u = num("src", id_max)? as NodeId;
                let v = num("dst", id_max)? as NodeId;
                let w = match parts.next() {
                    Some(tok) => tok
                        .parse::<u32>()
                        .map_err(|e| bad(format!("line {}: bad weight: {e}", lineno + 1)))?,
                    None => 1,
                };
                current.insert(u, v, w);
            }
            "-" => {
                let u = num("src", id_max)? as NodeId;
                let v = num("dst", id_max)? as NodeId;
                current.delete(u, v);
            }
            other => {
                return Err(bad(format!(
                    "line {}: expected `+` or `-`, got `{other}`",
                    lineno + 1
                )));
            }
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{GraphKind, GraphSpec};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn diamond() -> Csr {
        Csr::from_adjacency(vec![vec![1, 2], vec![3], vec![3], vec![]], None)
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = diamond();
        let mut b = EdgeBatch::new();
        b.insert(3, 0, 1);
        b.delete(0, 2);
        let out = g.apply_batch(&b).unwrap();
        assert_eq!(out.inserted, vec![(3, 0)]);
        assert_eq!(out.deleted, vec![(0, 2)]);
        assert_eq!(out.dirty, vec![0, 2, 3]);
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 2));
        g.validate().unwrap();
    }

    #[test]
    fn untouched_spans_are_byte_identical() {
        let g0 = GraphSpec::new(GraphKind::Rmat, 400, 9).generate();
        let mut g = g0.clone();
        let mut b = EdgeBatch::new();
        let u = 5u32;
        let v = g0.neighbors(u)[0];
        b.delete(u, v);
        g.apply_batch(&b).unwrap();
        for x in g.node_ids() {
            if x == u {
                continue;
            }
            assert_eq!(g.neighbors(x), g0.neighbors(x), "node {x} span changed");
            if g0.is_weighted() {
                assert_eq!(g.edge_weights(x), g0.edge_weights(x));
            }
        }
    }

    #[test]
    fn delete_absent_arc_is_noop() {
        let mut g = diamond();
        let before = crate::serialize::to_bytes(&g);
        let mut b = EdgeBatch::new();
        b.delete(1, 2);
        let out = g.apply_batch(&b).unwrap();
        assert!(out.is_noop());
        assert_eq!(crate::serialize::to_bytes(&g).as_ref(), before.as_ref());
    }

    #[test]
    fn insert_existing_arc_reweights() {
        let mut b0 = GraphBuilder::new(2);
        b0.add_weighted_edge(0, 1, 5);
        let mut g = b0.build();
        let mut b = EdgeBatch::new();
        b.insert(0, 1, 9);
        let out = g.apply_batch(&b).unwrap();
        assert_eq!(out.reweighted, 1);
        assert!(out.inserted.is_empty());
        assert_eq!(g.edge_weights(0), &[9]);
    }

    #[test]
    fn delete_then_insert_same_arc_reweights_via_batch() {
        let mut b0 = GraphBuilder::new(2);
        b0.add_weighted_edge(0, 1, 5);
        let mut g = b0.build();
        let mut b = EdgeBatch::new();
        b.delete(0, 1);
        b.insert(0, 1, 7);
        let out = g.apply_batch(&b).unwrap();
        // Deletes apply first, so the arc flows through delete+insert.
        assert_eq!(out.deleted, vec![(0, 1)]);
        assert_eq!(out.inserted, vec![(0, 1)]);
        assert_eq!(g.edge_weights(0), &[7]);
    }

    #[test]
    fn duplicate_inserts_keep_min_weight() {
        let mut b0 = GraphBuilder::new(2);
        b0.add_weighted_edge(1, 0, 3);
        let mut g = b0.build();
        let mut b = EdgeBatch::new();
        b.insert(0, 1, 9);
        b.insert(0, 1, 4);
        g.apply_batch(&b).unwrap();
        assert_eq!(g.edge_weights(0), &[4]);
    }

    #[test]
    fn mutations_on_holes_are_rejected() {
        let mut g = Csr::from_adjacency(vec![vec![1], vec![], vec![]], None);
        g.set_hole_mask(vec![false, false, true]);
        let before = crate::serialize::to_bytes(&g);
        let mut b = EdgeBatch::new();
        b.insert(0, 2, 1);
        let err = g.apply_batch(&b).unwrap_err();
        assert_eq!(err, GraphError::MutationIntoHole { node: 2 });
        // Failure leaves the graph unchanged.
        assert_eq!(crate::serialize::to_bytes(&g).as_ref(), before.as_ref());
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let mut g = diamond();
        let mut b = EdgeBatch::new();
        b.insert(0, 99, 1);
        assert!(matches!(
            g.apply_batch(&b),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        let mut b = EdgeBatch::new();
        b.delete(99, 0);
        assert!(matches!(
            g.apply_batch(&b),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn parse_stream_splits_batches() {
        let text = "# header\n+ 0 1 5\n- 2 3\n\n+ 4 5\n% tail comment\n";
        let batches = parse_stream(text.as_bytes()).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].inserts(), &[(0, 1, 5)]);
        assert_eq!(batches[0].deletes(), &[(2, 3)]);
        assert_eq!(batches[1].inserts(), &[(4, 5, 1)]);
    }

    #[test]
    fn parse_stream_rejects_sentinel_id() {
        let text = format!("+ 0 {}\n", u32::MAX);
        assert!(parse_stream(text.as_bytes()).is_err());
        assert!(parse_stream("* 0 1\n".as_bytes()).is_err());
    }

    /// Randomized sweep: apply_batch must agree with a naive set-of-arcs
    /// model rebuilt through GraphBuilder, and the result must stay valid.
    #[test]
    fn randomized_batches_match_set_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0005_eed9);
        let n = 60u32;
        let mut g = GraphSpec::new(GraphKind::Random, n as usize, 3)
            .with_max_weight(0)
            .generate();
        let n = g.num_nodes() as u32;
        let mut model: BTreeSet<(NodeId, NodeId)> =
            g.edge_triples().map(|(u, v, _)| (u, v)).collect();
        for _ in 0..20 {
            let mut b = EdgeBatch::new();
            for _ in 0..rng.random_range(1..12usize) {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if rng.random_bool(0.5) {
                    b.insert(u, v, 1);
                } else {
                    b.delete(u, v);
                }
            }
            // Mirror apply semantics in the model: deletes then inserts,
            // self-loops allowed through apply_batch only if inserted
            // explicitly (model keeps them too).
            for &(u, v) in b.deletes() {
                model.remove(&(u, v));
            }
            for &(u, v, _) in b.inserts() {
                model.insert((u, v));
            }
            g.apply_batch(&b).unwrap();
            g.validate().unwrap();
            let got: BTreeSet<(NodeId, NodeId)> =
                g.edge_triples().map(|(u, v, _)| (u, v)).collect();
            assert_eq!(got, model);
            // Adjacency stays sorted (canonical form).
            for v in g.node_ids() {
                let nb = g.neighbors(v);
                assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            }
        }
    }

    #[test]
    fn apply_batch_resets_undirected_view() {
        let mut g = diamond();
        let before = g.undirected();
        let mut b = EdgeBatch::new();
        b.insert(3, 0, 1);
        g.apply_batch(&b).unwrap();
        let after = g.undirected();
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        assert!(after.has_edge(0, 3) && after.has_edge(3, 0));
    }
}
