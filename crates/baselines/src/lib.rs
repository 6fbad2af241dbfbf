//! # graffix-baselines
//!
//! The three baseline execution styles the paper evaluates against, each
//! realized as a [`Plan`] constructor over any (exact or Graffix-prepared)
//! graph:
//!
//! * **Baseline-I — LonestarGPU family** ([`lonestar`]): topology-driven
//!   execution; every vertex is processed each superstep until fixpoint.
//! * **Baseline-II — Tigr** ([`tigr`]): virtual-node splitting bounds every
//!   processing node's degree (reducing divergence) and shares attribute
//!   slots across a real node's virtual copies; the paper notes Tigr's
//!   edge-array coalescing, which our CSR layout captures by construction.
//! * **Baseline-III — Gunrock** ([`gunrock`]): frontier-driven
//!   advance/filter execution.
//!
//! The paper runs Graffix-transformed graphs *through* each baseline to
//! produce Tables 6–14; these constructors accept any `Prepared` graph, so
//! `tigr::plan(&coalesced, …)` is "approximate Graffix on Tigr".

#![forbid(unsafe_code)]

pub mod gunrock;
pub mod lonestar;
pub mod tigr;

use graffix_algos::Plan;
use graffix_core::Prepared;
use graffix_sim::GpuConfig;

/// Which baseline framework executes the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Baseline-I: LonestarGPU-family exact codes (topology-driven).
    Lonestar,
    /// Baseline-II: Tigr (virtual splitting).
    Tigr,
    /// Baseline-III: Gunrock (frontiers).
    Gunrock,
}

impl Baseline {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::Lonestar => "Baseline-I (LonestarGPU)",
            Baseline::Tigr => "Baseline-II (Tigr)",
            Baseline::Gunrock => "Baseline-III (Gunrock)",
        }
    }

    /// Stable machine-readable key (bench baselines, gate reports).
    pub fn key(self) -> &'static str {
        match self {
            Baseline::Lonestar => "lonestar",
            Baseline::Tigr => "tigr",
            Baseline::Gunrock => "gunrock",
        }
    }

    /// Parses a [`Baseline::key`].
    pub fn from_key(key: &str) -> Option<Baseline> {
        ALL_BASELINES.into_iter().find(|b| b.key() == key)
    }

    /// Builds the execution plan for `prepared` under this baseline.
    pub fn plan(self, prepared: &Prepared, cfg: &GpuConfig) -> Plan {
        match self {
            Baseline::Lonestar => lonestar::plan(prepared, cfg),
            Baseline::Tigr => tigr::plan(prepared, cfg, tigr::DEFAULT_MAX_VIRTUAL_DEGREE),
            Baseline::Gunrock => gunrock::plan(prepared, cfg),
        }
    }
}

/// All three baselines, in paper order.
pub const ALL_BASELINES: [Baseline; 3] = [Baseline::Lonestar, Baseline::Tigr, Baseline::Gunrock];

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};

    #[test]
    fn all_baselines_produce_valid_plans() {
        let g = GraphSpec::new(GraphKind::Rmat, 300, 3).generate();
        let prepared = Prepared::exact(g);
        let cfg = GpuConfig::k40c();
        for b in ALL_BASELINES {
            let plan = b.plan(&prepared, &cfg);
            plan.validate().unwrap();
        }
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ALL_BASELINES.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn keys_round_trip() {
        for b in ALL_BASELINES {
            assert_eq!(Baseline::from_key(b.key()), Some(b));
        }
        assert_eq!(Baseline::from_key("cuda"), None);
    }
}
