//! §4 — the divergence transform: bucket-sorted warp assignment plus
//! degreeSim-thresholded 2-hop edge filling.
//!
//! Bucket-sorting by degree gives each warp nodes of similar degree
//! (an *exact* reordering, like degree-sorting but cheaper to reason
//! about); the approximation is the edge filling: a warp node whose
//! `degreeSim = 1 − degree / maxWarpDegree` deficit is within the threshold
//! gets new edges to 2-hop neighbors until its degree reaches
//! `fill_fraction × maxWarpDegree` (85 % by default, matching the paper's
//! example where node I of degree 4 is raised to 6 ≈ 85 % of 7). New edges
//! carry the sum of the two hop weights.
//!
//! The bucket, normalize and relabel stages live here; [`crate::pipeline`]
//! lays out the `Prepared` and picks the route (physical sort, or
//! normalization along an earlier transform's assignment).

pub mod bucket;
pub mod normalize;

use graffix_graph::{Csr, NodeId};

pub use bucket::bucket_order;
pub use normalize::{normalize_degrees, NormalizeOutcome};

/// Physically relabels `g` so a node's new id is its position in `order`
/// (the paper sorts "the nodes array"). Adjacency lists are rebuilt in the
/// new id space, sorted.
pub fn relabel_by_order(g: &Csr, order: &[NodeId]) -> Csr {
    let n = g.num_nodes();
    let mut new_of_old = vec![0 as NodeId; n];
    for (pos, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = pos as NodeId;
    }
    g.relabeled(&new_of_old, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::DivergenceKnobs;
    use crate::pipeline::Pipeline;
    use crate::prepared::Prepared;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_sim::GpuConfig;

    fn transform(g: &Csr, knobs: &DivergenceKnobs) -> Prepared {
        Pipeline::default()
            .with_divergence(*knobs)
            .apply(g, &GpuConfig::k40c())
    }

    #[test]
    fn transform_reduces_intra_warp_degree_spread() {
        let g = GraphSpec::new(GraphKind::Rmat, 800, 3).generate();
        let warp = 32;
        let p = transform(&g, &DivergenceKnobs::default());
        p.validate().unwrap();

        let spread = |graph: &Csr, order: &[NodeId]| -> f64 {
            let mut total = 0.0f64;
            let mut warps = 0.0f64;
            for chunk in order.chunks(warp) {
                let degs: Vec<usize> = chunk.iter().map(|&v| graph.degree(v)).collect();
                let max = *degs.iter().max().unwrap() as f64;
                if max > 0.0 {
                    let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
                    total += (max - mean) / max;
                    warps += 1.0;
                }
            }
            total / warps.max(1.0)
        };
        let natural: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let before = spread(&g, &natural);
        let after = spread(&p.graph, &p.assignment);
        assert!(
            after < before,
            "bucket+fill should tighten warp degrees: {after} vs {before}"
        );
    }

    #[test]
    fn zero_threshold_adds_no_edges() {
        let g = GraphSpec::new(GraphKind::Random, 500, 5).generate();
        let knobs = DivergenceKnobs::default().with_threshold(0.0);
        let p = transform(&g, &knobs);
        assert_eq!(p.report.edges_added, 0);
    }

    #[test]
    fn report_tracks_edge_delta() {
        let g = GraphSpec::new(GraphKind::Rmat, 500, 7).generate();
        let p = transform(&g, &DivergenceKnobs::default());
        assert_eq!(
            p.report.new_edges,
            p.report.original_edges + p.report.edges_added
        );
    }

    #[test]
    fn physical_renumbering_is_a_bijection() {
        let g = GraphSpec::new(GraphKind::Road, 400, 2).generate();
        let p = transform(&g, &DivergenceKnobs::default());
        // to_original is a permutation, primary its inverse.
        let mut sorted = p.to_original.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.num_nodes() as NodeId).collect::<Vec<_>>());
        for orig in 0..g.num_nodes() as NodeId {
            assert_eq!(p.to_original[p.primary[orig as usize] as usize], orig);
        }
        // Degrees are bucket-monotone along the new numbering (class-wise).
        let class = |d: usize| {
            if d == 0 {
                0
            } else {
                usize::BITS as usize - d.leading_zeros() as usize
            }
        };
        let base_class = |v: NodeId| class(g.degree(p.to_original[v as usize]));
        for v in 1..g.num_nodes() as NodeId {
            assert!(base_class(v - 1) >= base_class(v));
        }
    }

    #[test]
    fn renumbered_graph_preserves_edges() {
        let g = GraphSpec::new(GraphKind::Random, 300, 6).generate();
        let knobs = DivergenceKnobs::default().with_threshold(0.0); // no fills
        let p = transform(&g, &knobs);
        assert_eq!(p.graph.num_edges(), g.num_edges());
        for (u, v, w) in g.edge_triples() {
            let nu = p.primary[u as usize];
            let nv = p.primary[v as usize];
            assert!(p.graph.has_edge(nu, nv), "lost {u}->{v}");
            let pos = p.graph.neighbors(nu).binary_search(&nv).unwrap();
            assert_eq!(p.graph.edge_weights(nu)[pos], w);
        }
    }
}
