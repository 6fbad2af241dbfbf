//! Clustering-coefficient boosting by 2-hop edge insertion (§3's two
//! scenarios), under a global edge budget.

use crate::knobs::LatencyKnobs;
use graffix_graph::{Csr, GraphBuilder, NodeId, TriangleIndex};
use rayon::prelude::*;

/// Pair-scoring work below this size is done serially; the deterministic
/// pool's chunk dispatch costs more than the intersections it would hide.
const PAR_PAIR_CUTOFF: usize = 64;

/// Result of the edge-boost phase.
#[derive(Clone, Debug)]
pub struct BoostOutcome {
    /// Graph with the inserted edges.
    pub graph: Csr,
    /// Post-boost clustering coefficients (used by tile selection).
    pub clustering: Vec<f64>,
    /// Directed arcs inserted.
    pub edges_added: usize,
}

/// Inserts CC-boosting edges per §3 and returns the new graph plus the
/// post-boost clustering coefficients. `counts` are `g`'s per-node triangle
/// counts (`triangle_counts(&g.undirected())`): the count pass is a stage
/// of its own (it reads no knobs, only the graph), so a boost-knob change
/// reuses it. Every inserted edge moves the counts by one short
/// intersection, so the coefficient the scenario-1 loop re-reads after each
/// insert and the post-boost clustering vector are read off the maintained
/// integers — bit-identical to a fresh pass over the boosted graph (asserted
/// by tests).
pub fn boost_with_counts(g: &Csr, counts: Vec<u64>, knobs: &LatencyKnobs) -> BoostOutcome {
    let mut tri = TriangleIndex::with_counts(&g.undirected(), counts);
    let cc0 = tri.coefficients();
    let budget_arcs = (g.num_edges() as f64 * knobs.edge_budget_frac) as usize;
    let mut added: Vec<(NodeId, NodeId, u32)> = Vec::new(); // directed arcs
    let weighted = g.is_weighted();

    // Weight of the undirected link (v, a) if present in either direction
    // in the original graph; fallback to the mean weight.
    let mean_w = if weighted && g.num_edges() > 0 {
        (g.weights_raw().iter().map(|&w| w as u64).sum::<u64>() / g.num_edges() as u64) as u32
    } else {
        1
    };
    let orig_weight = |a: NodeId, b: NodeId| -> u32 {
        if !weighted {
            return 1;
        }
        if let Ok(pos) = g.neighbors(a).binary_search(&b) {
            return g.edge_weights(a)[pos];
        }
        if let Ok(pos) = g.neighbors(b).binary_search(&a) {
            return g.edge_weights(b)[pos];
        }
        mean_w.max(1)
    };

    // Process centers in decreasing CC so the most promising tiles are
    // served before the budget runs out. Candidates: scenario 1 (close to
    // threshold) and scenario 2 (already above it).
    let mut centers: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&v| {
            !g.is_hole(v)
                && tri.neighbors(v).len() >= 2
                && cc0[v as usize] >= knobs.cc_threshold - knobs.margin
        })
        .collect();
    centers.sort_by(|&a, &b| {
        cc0[b as usize]
            .partial_cmp(&cc0[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });

    'outer: for &v in &centers {
        let nbrs: Vec<NodeId> = tri.neighbors(v).to_vec();
        if cc0[v as usize] < knobs.cc_threshold {
            // Scenario 1: raise CC over the bar. Prefer neighbor pairs that
            // already share a common neighbor ("preferentially between
            // those neighbors ... that have common neighbors"). Both
            // endpoints are 2-hop neighbors of each other through v.
            let mut unlinked: Vec<(NodeId, NodeId)> = Vec::new();
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if !tri.has_edge(a, b) {
                        unlinked.push((a, b));
                    }
                }
            }
            // Common-neighbor scoring is the hot part; it reads `tri`
            // immutably, so large centers score their pairs in parallel.
            // Counts are exact integers and the sort key (common, a, b) is
            // unique, so the commit order below is thread-count-invariant.
            let score = |&(a, b): &(NodeId, NodeId)| -> (usize, NodeId, NodeId) {
                (tri.common_count(a, b), a, b)
            };
            let mut pairs: Vec<(usize, NodeId, NodeId)> = if unlinked.len() >= PAR_PAIR_CUTOFF {
                unlinked
                    .clone()
                    .into_par_iter()
                    .map(|p| score(&p))
                    .collect()
            } else {
                unlinked.iter().map(score).collect()
            };
            pairs.sort_by_key(|&(common, a, b)| (std::cmp::Reverse(common), a, b));
            for (_, a, b) in pairs {
                if tri.coefficient(v) >= knobs.cc_threshold {
                    break;
                }
                if added.len() + 2 > budget_arcs {
                    break 'outer;
                }
                // Mean-of-hops weight: the inserted chord is cheaper than
                // the 2-hop path it parallels (paper section 3 leaves the
                // weight policy open; this choice injects the measurable
                // approximation the paper reports).
                let w = orig_weight(v, a)
                    .saturating_add(orig_weight(v, b))
                    .div_ceil(2);
                tri.set_edge(a, b, true);
                added.push((a, b, w));
                added.push((b, a, w));
            }
        } else {
            // Scenario 2: densify an already-qualifying neighborhood by
            // linking its least-connected members (fewest links into the
            // neighborhood, i.e. fewest neighbors shared with `v`).
            let mut ranked: Vec<(usize, NodeId)> =
                nbrs.iter().map(|&a| (tri.common_count(a, v), a)).collect();
            ranked.sort_unstable();
            // Link the bottom pair(s): up to two new undirected edges per
            // center keeps the additions "only a few" as the paper states.
            let mut linked = 0;
            for i in 0..ranked.len() {
                for j in (i + 1)..ranked.len() {
                    let (a, b) = (ranked[i].1, ranked[j].1);
                    if !tri.has_edge(a, b) {
                        if added.len() + 2 > budget_arcs {
                            break 'outer;
                        }
                        let w = orig_weight(v, a)
                            .saturating_add(orig_weight(v, b))
                            .div_ceil(2);
                        tri.set_edge(a, b, true);
                        added.push((a, b, w));
                        added.push((b, a, w));
                        linked += 1;
                        if linked >= 2 {
                            break;
                        }
                    }
                }
                if linked >= 2 {
                    break;
                }
            }
        }
    }

    // Rebuild the graph with the additions.
    let graph = if added.is_empty() {
        g.clone()
    } else {
        let mut b = GraphBuilder::new(g.num_nodes());
        for (u, v, w) in g.edge_triples() {
            if weighted {
                b.add_weighted_edge(u, v, w);
            } else {
                b.add_edge(u, v);
            }
        }
        for &(u, v, w) in &added {
            if weighted {
                b.add_weighted_edge(u, v, w);
            } else {
                b.add_edge(u, v);
            }
        }
        let mut out = b.build();
        if g.has_holes() {
            let mask: Vec<bool> = (0..g.num_nodes() as NodeId).map(|v| g.is_hole(v)).collect();
            out.set_hole_mask(mask);
        }
        out
    };
    let edges_added = graph.num_edges() - g.num_edges();
    BoostOutcome {
        graph,
        clustering: tri.coefficients(),
        edges_added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::properties::{
        clustering_coefficients, local_clustering_coefficient, triangle_counts,
    };
    use std::collections::HashSet;

    fn boost_edges(g: &Csr, knobs: &LatencyKnobs) -> BoostOutcome {
        boost_with_counts(g, triangle_counts(&g.undirected()), knobs)
    }

    fn social() -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 500, 7).generate()
    }

    /// The maintained post-boost vector against the per-node oracle on the
    /// boosted graph, bit for bit.
    fn assert_clustering_matches_oracle(out: &BoostOutcome, what: &str) {
        let und = out.graph.undirected();
        assert_eq!(
            out.clustering.len(),
            und.num_nodes(),
            "clustering vector length"
        );
        for (v, &kept) in out.clustering.iter().enumerate() {
            let full = local_clustering_coefficient(&und, v as NodeId);
            assert!(
                kept.to_bits() == full.to_bits(),
                "cc[{v}] maintained={kept} oracle={full} ({what})"
            );
        }
    }

    #[test]
    fn boosting_raises_near_threshold_nodes() {
        let g = social();
        let knobs = LatencyKnobs {
            cc_threshold: 0.5,
            margin: 0.25,
            edge_budget_frac: 0.2,
            t_diameter_factor: 2,
        };
        let before = clustering_coefficients(&g);
        let out = boost_edges(&g, &knobs);
        let qualified_before = before.iter().filter(|&&c| c >= 0.5).count();
        let qualified_after = out.clustering.iter().filter(|&&c| c >= 0.5).count();
        assert!(
            qualified_after >= qualified_before,
            "boost must not reduce qualifying nodes ({qualified_after} vs {qualified_before})"
        );
        assert!(out.edges_added > 0, "a social graph should gain edges");
    }

    #[test]
    fn budget_zero_adds_nothing() {
        let g = social();
        let knobs = LatencyKnobs {
            edge_budget_frac: 0.0,
            ..Default::default()
        };
        let out = boost_edges(&g, &knobs);
        assert_eq!(out.edges_added, 0);
        assert_eq!(out.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn budget_respected() {
        let g = social();
        let knobs = LatencyKnobs {
            cc_threshold: 0.5,
            margin: 0.5,
            edge_budget_frac: 0.02,
            t_diameter_factor: 2,
        };
        let out = boost_edges(&g, &knobs);
        let budget = (g.num_edges() as f64 * 0.02) as usize;
        assert!(
            out.edges_added <= budget + 2,
            "{} vs budget {budget}",
            out.edges_added
        );
    }

    #[test]
    fn dirty_set_recompute_equals_full_recompute() {
        // The post-boost clustering vector is read off counts maintained
        // one inserted edge at a time; it must be bit-exactly what the
        // per-node oracle computes on the boosted graph.
        for (threshold, margin) in [(0.5, 0.25), (0.4, 0.1), (0.3, 0.3)] {
            let g = social();
            let knobs = LatencyKnobs {
                cc_threshold: threshold,
                margin,
                edge_budget_frac: 0.2,
                t_diameter_factor: 2,
            };
            let out = boost_edges(&g, &knobs);
            assert!(
                out.edges_added > 0 || threshold > 0.45,
                "sweep should exercise non-trivial boosts"
            );
            assert_clustering_matches_oracle(&out, &format!("threshold {threshold}"));
        }
    }

    #[test]
    fn scenario_one_output_is_the_recorded_one() {
        // Scenario 1 fires here (nodes within `margin` below the bar are
        // lifted over it). The digest is FNV-1a over the boosted graph's
        // bytes, the clustering bits and the arc count as the boost codec
        // lays them out, recorded from the hash-set implementation this one
        // replaced. It pins the output bytes, so it keeps its own hash
        // rather than the cache's.
        let g = social();
        let knobs = LatencyKnobs {
            cc_threshold: 0.5,
            margin: 0.25,
            edge_budget_frac: 0.2,
            t_diameter_factor: 2,
        };
        let before = clustering_coefficients(&g);
        let out = boost_edges(&g, &knobs);
        let lifted = before
            .iter()
            .zip(&out.clustering)
            .filter(|&(&b, &a)| b < 0.5 && a >= 0.5)
            .count();
        assert_eq!((out.edges_added, lifted), (1768, 130));
        let digest = crate::stages::encode_boost(&out)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x4f6c_ef89_3423_7fcb, "boost output moved");
    }

    #[test]
    fn dirty_set_includes_common_neighbors_of_inserted_edges() {
        // Regression guard for the per-edge delta: when boost inserts
        // (a, b), any node adjacent to *both* endpoints gains a closed
        // triangle and its CC changes even though none of its own edges
        // did. Sweep random graphs and assert (1) at least one boosted
        // edge has a common neighbor that is not itself an endpoint — so
        // the common-neighbor clause is genuinely exercised — and (2) the
        // maintained vector still matches the per-node oracle bit for bit.
        let mut third_party_dirty = 0usize;
        for seed in [1u64, 7, 21, 33, 52] {
            let g = GraphSpec::new(GraphKind::SocialLiveJournal, 250, seed).generate();
            let knobs = LatencyKnobs {
                cc_threshold: 0.35,
                margin: 0.2,
                edge_budget_frac: 0.3,
                t_diameter_factor: 2,
            };
            let out = boost_edges(&g, &knobs);
            let endpoints: HashSet<NodeId> = out
                .graph
                .edge_triples()
                .filter(|&(u, v, _)| !g.has_edge(u, v))
                .flat_map(|(u, v, _)| [u, v])
                .collect();
            let und = out.graph.undirected();
            for (u, v, _) in out.graph.edge_triples() {
                if g.has_edge(u, v) {
                    continue;
                }
                let (nu, nv) = (und.neighbors(u), und.neighbors(v));
                third_party_dirty += nu
                    .iter()
                    .filter(|w| nv.binary_search(w).is_ok() && !endpoints.contains(w))
                    .count();
            }
            assert_clustering_matches_oracle(&out, &format!("seed {seed}"));
        }
        assert!(
            third_party_dirty > 0,
            "sweep never produced a common neighbor outside the inserted endpoints"
        );
    }

    #[test]
    fn added_arcs_are_symmetric() {
        let g = social();
        let out = boost_edges(&g, &LatencyKnobs::default().with_threshold(0.4));
        for (u, v, _) in out.graph.edge_triples() {
            if !g.has_edge(u, v) {
                assert!(
                    out.graph.has_edge(v, u),
                    "inserted arc {u}->{v} lacks its mirror"
                );
            }
        }
    }

    #[test]
    fn inserted_weights_are_mean_of_hops() {
        let g = social();
        let out = boost_edges(&g, &LatencyKnobs::default().with_threshold(0.4));
        if out.edges_added == 0 {
            return;
        }
        // Mean-of-hops weights stay within the original weight range.
        let max_w = g.weights_raw().iter().copied().max().unwrap_or(1);
        for u in 0..g.num_nodes() as NodeId {
            let nbrs = out.graph.neighbors(u);
            for (i, &v) in nbrs.iter().enumerate() {
                if !g.has_edge(u, v) {
                    let w = out.graph.edge_weights(u)[i];
                    assert!(w >= 1 && w <= max_w, "weight {w} out of range");
                }
            }
        }
    }
}
