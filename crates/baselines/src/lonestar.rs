//! Baseline-I: LonestarGPU-family topology-driven execution.
//!
//! LonestarGPU's SSSP/MST kernels (and the exact PR, Brandes BC, and
//! Devshatwar-et-al. SCC codes grouped into the paper's Baseline-I) are
//! topology-driven: every kernel launch processes every vertex, relying on
//! fast no-op detection for inactive ones. That maps directly onto
//! [`Strategy::Topology`] with the prepared graph's own warp assignment.

use graffix_algos::{Plan, Strategy};
use graffix_core::Prepared;
use graffix_sim::GpuConfig;

/// Builds the Baseline-I plan for a (possibly transformed) graph.
pub fn plan(prepared: &Prepared, cfg: &GpuConfig) -> Plan {
    Plan::from_prepared(prepared, cfg, Strategy::Topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};

    #[test]
    fn topology_strategy_selected() {
        let g = GraphSpec::new(GraphKind::Random, 200, 1).generate();
        let p = plan(&Prepared::exact(g), &GpuConfig::k40c());
        assert_eq!(p.strategy, Strategy::Topology);
        assert!(p.identity_attrs());
    }

    #[test]
    fn preserves_transform_artifacts() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 300, 2).generate();
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        let p = plan(&prepared, &GpuConfig::k40c());
        assert_eq!(p.replica_groups.len(), prepared.replica_groups.len());
        assert_eq!(p.assignment, prepared.assignment);
    }
}
