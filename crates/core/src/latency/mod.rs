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

pub mod boost;
pub mod select;

use crate::knobs::LatencyKnobs;
use crate::prepared::{PhaseTiming, Prepared, StageReport, Technique, TransformReport};
use graffix_graph::{Csr, NodeId};
use graffix_sim::GpuConfig;
use std::time::Instant;

pub use boost::{boost_edges, boost_with_counts, BoostOutcome};
pub use select::{select_tiles, TileSelection};

/// Applies the latency transform. The prepared graph keeps the original
/// node numbering (the transform adds edges and tiles; it does not
/// renumber), and the assignment groups each tile's nodes into consecutive
/// warps followed by all remaining nodes.
pub fn transform(g: &Csr, knobs: &LatencyKnobs, cfg: &GpuConfig) -> Prepared {
    let start = Instant::now();
    let boost = boost_edges(g, knobs);
    let boost_seconds = start.elapsed().as_secs_f64() - boost.cc_seconds;
    let select_start = Instant::now();
    let selection = select_tiles(&boost.graph, &boost.clustering, knobs, cfg);
    let tile_select_seconds = select_start.elapsed().as_secs_f64();
    let preprocess_seconds = start.elapsed().as_secs_f64();
    let phase_seconds = vec![
        PhaseTiming::new("cc", boost.cc_seconds),
        PhaseTiming::new("boost", boost_seconds.max(0.0)),
        PhaseTiming::new("tile-select", tile_select_seconds),
    ];

    let n = boost.graph.num_nodes();
    // Assignment: tile nodes first (tile by tile, so a block's warps cover
    // one tile), then the rest in id order.
    let mut assigned = vec![false; n];
    let mut assignment: Vec<NodeId> = Vec::with_capacity(n);
    for tile in &selection.tiles {
        for &v in &tile.nodes {
            if !assigned[v as usize] {
                assigned[v as usize] = true;
                assignment.push(v);
            }
        }
    }
    for v in 0..n as NodeId {
        if !assigned[v as usize] {
            assignment.push(v);
        }
    }

    let ids: Vec<NodeId> = (0..n as NodeId).collect();
    let old_fp = g.footprint_bytes().max(1);
    let report = TransformReport {
        technique_label: Technique::Latency.label().to_string(),
        preprocess_seconds,
        phase_seconds,
        original_nodes: g.num_nodes(),
        original_edges: g.num_edges(),
        new_nodes: n,
        new_edges: boost.graph.num_edges(),
        edges_added: boost.edges_added,
        space_overhead: boost.graph.footprint_bytes() as f64 / old_fp as f64 - 1.0,
        stages: vec![StageReport {
            transform: Technique::Latency.key().to_string(),
            replicas: 0,
            edges_added: boost.edges_added,
            edge_budget_arcs: (g.num_edges() as f64 * knobs.edge_budget_frac) as usize,
        }],
        ..Default::default()
    };

    let prepared = Prepared {
        graph: boost.graph,
        assignment,
        to_original: ids.clone(),
        primary: ids,
        replica_groups: Vec::new(),
        tiles: selection.tiles,
        confluence: Default::default(),
        technique: Technique::Latency,
        report,
    };
    debug_assert_eq!(prepared.validate(), Ok(()));
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};

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
