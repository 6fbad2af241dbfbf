//! §3 — the latency transform: clustering-coefficient-driven shared-memory
//! tiles.
//!
//! Nodes whose (undirected) clustering coefficient reaches the threshold
//! are pinned into shared memory together with their 1-hop neighborhood and
//! processed there for `t ≈ 2 × tile-diameter` iterations. Because few
//! nodes clear a high CC bar naturally (power-law graphs), the transform
//! *adds edges* — the controlled approximation — in two scenarios:
//!
//! 1. nodes with CC just below the threshold get edges between those of
//!    their neighbors that already share common neighbors, pushing the CC
//!    over the bar;
//! 2. qualifying nodes get edges between their least-connected neighbors,
//!    densifying the tile for better reuse.
//!
//! In both cases the inserted edges connect 2-hop neighbors (faster
//! convergence) and a global edge budget caps the total inaccuracy.
//!
//! The boost and tile-selection stages live here; [`crate::pipeline`] lays
//! out the `Prepared` (tile-major assignment, node numbering unchanged).

pub mod boost;
pub mod select;

pub use boost::{boost_with_counts, BoostOutcome};
pub use select::{select_tiles, TileSelection};

#[cfg(test)]
mod tests {
    use crate::knobs::LatencyKnobs;
    use crate::pipeline::Pipeline;
    use crate::prepared::Prepared;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::{Csr, NodeId};
    use graffix_sim::GpuConfig;

    fn transform(g: &Csr, knobs: &LatencyKnobs, cfg: &GpuConfig) -> Prepared {
        Pipeline::default().with_latency(*knobs).apply(g, cfg)
    }

    fn social() -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 600, 3).generate()
    }

    #[test]
    fn transform_produces_tiles_on_social_graphs() {
        let g = social();
        let cfg = GpuConfig::k40c();
        let p = transform(&g, &LatencyKnobs::default().with_threshold(0.4), &cfg);
        p.validate().unwrap();
        assert!(!p.tiles.is_empty(), "social graphs must yield tiles");
        for t in &p.tiles {
            assert!(t.nodes.contains(&t.center));
            assert!(t.iterations >= 1);
        }
    }

    #[test]
    fn edge_budget_caps_additions() {
        let g = social();
        let cfg = GpuConfig::k40c();
        let knobs = LatencyKnobs {
            edge_budget_frac: 0.01,
            cc_threshold: 0.4,
            ..Default::default()
        };
        let p = transform(&g, &knobs, &cfg);
        assert!(
            p.report.edges_added <= (g.num_edges() as f64 * 0.011) as usize + 2,
            "{} added vs budget",
            p.report.edges_added
        );
    }

    #[test]
    fn identity_mapping_preserved() {
        let g = social();
        let cfg = GpuConfig::k40c();
        let p = transform(&g, &LatencyKnobs::default(), &cfg);
        assert_eq!(p.to_original.len(), g.num_nodes());
        for (i, &o) in p.to_original.iter().enumerate() {
            assert_eq!(i as NodeId, o);
        }
        // Assignment is a permutation of all nodes.
        let mut sorted = p.assignment.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.num_nodes() as NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn tile_nodes_lead_the_assignment() {
        let g = social();
        let cfg = GpuConfig::k40c();
        let p = transform(&g, &LatencyKnobs::default().with_threshold(0.4), &cfg);
        if let Some(first_tile) = p.tiles.first() {
            let head: Vec<NodeId> = p.assignment[..first_tile.nodes.len()].to_vec();
            assert_eq!(head, first_tile.nodes);
        }
    }

    #[test]
    fn original_edges_kept() {
        let g = social();
        let cfg = GpuConfig::k40c();
        let p = transform(&g, &LatencyKnobs::default(), &cfg);
        for (u, v, _) in g.edge_triples() {
            assert!(p.graph.has_edge(u, v), "edge {u}->{v} lost");
        }
        assert!(p.graph.num_edges() >= g.num_edges());
    }
}
