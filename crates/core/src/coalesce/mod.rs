//! §2 — the coalescing transform: BFS-forest renumbering with chunk-aligned
//! levels (creating holes), followed by connectedness-driven node
//! replication into the holes (Algorithm 2 of the paper).
//!
//! The two stages live here; [`crate::pipeline`] lays out the `Prepared`.

pub mod renumber;
pub mod replicate;

pub use renumber::{apply_renumbering, renumber, Renumbering};
pub use replicate::{replicate_renumbered, ReplicationResult};

#[cfg(test)]
mod tests {
    use crate::knobs::CoalesceKnobs;
    use crate::pipeline::Pipeline;
    use crate::prepared::Prepared;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::{Csr, GraphBuilder, NodeId, INVALID_NODE};
    use graffix_sim::GpuConfig;

    fn transform(g: &Csr, knobs: &CoalesceKnobs) -> Prepared {
        Pipeline::default()
            .with_coalesce(*knobs)
            .apply(g, &GpuConfig::k40c())
    }

    /// The paper's Figure 1 example graph.
    pub(crate) fn figure1_graph() -> Csr {
        let mut b = GraphBuilder::new(20);
        for d in [4, 5, 6, 7, 8, 13, 14] {
            b.add_edge(0, d);
        }
        b.add_edge(4, 15);
        b.add_edge(5, 17);
        for d in [10, 12, 18, 15, 17] {
            b.add_edge(1, d);
        }
        for d in [11, 19] {
            b.add_edge(2, d);
        }
        b.build()
    }

    #[test]
    fn figure1_transform_is_consistent() {
        let g = figure1_graph();
        let p = transform(&g, &CoalesceKnobs::default().with_threshold(0.6));
        p.validate().unwrap();
        assert_eq!(p.num_original_nodes(), 20);
        assert!(p.report.holes_created > 0, "k-alignment must create holes");
    }

    #[test]
    fn every_original_edge_survives_possibly_via_replica() {
        // Each original arc u -> v must exist from *some* copy of u to
        // *some* copy of v in the transformed graph.
        let g = GraphSpec::new(GraphKind::Rmat, 300, 3).generate();
        let p = transform(&g, &CoalesceKnobs::default());
        p.validate().unwrap();
        // copies-of map.
        let mut copies: Vec<Vec<NodeId>> = vec![Vec::new(); g.num_nodes()];
        for (new_id, &orig) in p.to_original.iter().enumerate() {
            if orig != INVALID_NODE {
                copies[orig as usize].push(new_id as NodeId);
            }
        }
        for (u, v, _) in g.edge_triples() {
            let found = copies[u as usize].iter().any(|&cu| {
                p.graph
                    .neighbors(cu)
                    .iter()
                    .any(|&d| p.to_original[d as usize] == v)
            });
            assert!(found, "edge {u}->{v} lost by the transform");
        }
    }

    #[test]
    fn higher_threshold_adds_fewer_edges() {
        let g = GraphSpec::new(GraphKind::Rmat, 500, 5).generate();
        let low = transform(&g, &CoalesceKnobs::default().with_threshold(0.1));
        let high = transform(&g, &CoalesceKnobs::default().with_threshold(0.9));
        assert!(
            low.report.replicas >= high.report.replicas,
            "low threshold should replicate at least as much ({} vs {})",
            low.report.replicas,
            high.report.replicas
        );
        assert!(low.report.edges_added >= high.report.edges_added);
    }

    #[test]
    fn assignment_skips_only_holes() {
        let g = figure1_graph();
        let p = transform(&g, &CoalesceKnobs::default());
        for (slot, &a) in p.assignment.iter().enumerate() {
            if a == INVALID_NODE {
                assert!(p.graph.is_hole(slot as NodeId));
            } else {
                assert_eq!(a as usize, slot);
            }
        }
    }

    #[test]
    fn report_space_overhead_nonnegative() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 400, 9).generate();
        let p = transform(&g, &CoalesceKnobs::default());
        assert!(p.report.space_overhead >= 0.0);
        assert_eq!(p.report.original_nodes, 400);
    }
}
