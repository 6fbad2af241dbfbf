//! The algorithm vocabulary: one enum, one simulated-run dispatch, one
//! exact-reference dispatch. The CLI, the daemon, run reports and the
//! bench harness all go through [`Algo::run`] and [`Algo::exact`], so a
//! new algorithm is added here and nowhere else.

use crate::accuracy::{max_abs_error, relative_l1, scalar_inaccuracy};
use crate::{bc, bfs, mst, pagerank, scc, sssp, wcc, Plan, SimRun};
use graffix_graph::{Csr, NodeId, INVALID_NODE};

/// The algorithms the library can execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    Sssp,
    Bfs,
    Pr,
    Bc,
    Scc,
    Mst,
    Wcc,
}

/// All algorithms, in the CLI's usage order.
pub const ALL_ALGOS: [Algo; 7] = [
    Algo::Sssp,
    Algo::Bfs,
    Algo::Pr,
    Algo::Bc,
    Algo::Scc,
    Algo::Mst,
    Algo::Wcc,
];

/// The scalar some algorithms report beside their per-vertex values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar {
    /// SCC / WCC component count.
    Components(usize),
    /// MST spanning-forest weight.
    Weight(f64),
}

impl Scalar {
    /// Machine-readable name (`components`, `weight`).
    pub fn name(self) -> &'static str {
        match self {
            Scalar::Components(_) => "components",
            Scalar::Weight(_) => "weight",
        }
    }

    /// The value as the accuracy metric compares it.
    pub fn value(self) -> f64 {
        match self {
            Scalar::Components(c) => c as f64,
            Scalar::Weight(w) => w,
        }
    }
}

/// A traversal asked for with no explicit source on a graph that has no
/// real node to default to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoSource(pub Algo);

impl std::fmt::Display for NoSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} needs a source node and the graph has none",
            self.0.name()
        )
    }
}

impl std::error::Error for NoSource {}

impl Algo {
    /// Stable machine-readable name (`sssp`, `bfs`, …): CLI flags, wire
    /// requests, run reports, bench record row ids.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Sssp => "sssp",
            Algo::Bfs => "bfs",
            Algo::Pr => "pr",
            Algo::Bc => "bc",
            Algo::Scc => "scc",
            Algo::Mst => "mst",
            Algo::Wcc => "wcc",
        }
    }

    /// Parses an [`Algo::name`].
    pub fn parse(name: &str) -> Option<Algo> {
        ALL_ALGOS.into_iter().find(|a| a.name() == name)
    }

    /// The traversal source a run starts from: `explicit`, else the
    /// graph's deterministic default (see [`sssp::default_source`]).
    /// `Ok(None)` for algorithms without one; [`NoSource`] when the graph
    /// has no real node to default to.
    pub fn source(
        self,
        original: &Csr,
        explicit: Option<NodeId>,
    ) -> Result<Option<NodeId>, NoSource> {
        match self {
            Algo::Sssp | Algo::Bfs => {
                match explicit.unwrap_or_else(|| sssp::default_source(original)) {
                    INVALID_NODE => Err(NoSource(self)),
                    src => Ok(Some(src)),
                }
            }
            _ => Ok(None),
        }
    }

    /// The source of a traversal whose caller has checked [`Algo::source`].
    fn start(self, original: &Csr, explicit: Option<NodeId>) -> NodeId {
        match self.source(original, explicit) {
            Ok(Some(src)) => src,
            other => panic!(
                "no {} source ({other:?}): check Algo::source first",
                self.name()
            ),
        }
    }

    /// Runs the simulated implementation on `plan`. `original` is the
    /// untransformed graph, used only to pick the deterministic default
    /// source (when `source` is `None`) and the BC source sample (at most
    /// `bc_sources`), so exact and approximate runs use the same ones.
    /// Panics when a traversal has no source: resolve it first with
    /// [`Algo::source`], which reports that as a [`NoSource`].
    pub fn run(
        self,
        plan: &Plan,
        original: &Csr,
        source: Option<NodeId>,
        bc_sources: usize,
    ) -> (SimRun, Option<Scalar>) {
        let src = || self.start(original, source);
        match self {
            Algo::Sssp => (sssp::run_sim(plan, src()), None),
            Algo::Bfs => (bfs::run_sim(plan, src()), None),
            Algo::Pr => (pagerank::run_sim(plan), None),
            Algo::Bc => {
                let sources = bc::sample_sources(original, bc_sources);
                (bc::run_sim(plan, &sources), None)
            }
            Algo::Scc => {
                let r = scc::run_sim(plan);
                (r.run, Some(Scalar::Components(r.components)))
            }
            Algo::Mst => {
                let r = mst::run_sim(plan);
                (r.run, Some(Scalar::Weight(r.weight)))
            }
            Algo::Wcc => {
                let r = wcc::run_sim(plan);
                (r.run, Some(Scalar::Components(r.components)))
            }
        }
    }

    /// The exact CPU reference on the untransformed graph, with the same
    /// source and BC-sample rules as [`Algo::run`].
    pub fn exact(self, original: &Csr, source: Option<NodeId>, bc_sources: usize) -> AlgoOutcome {
        let src = || self.start(original, source);
        match self {
            Algo::Sssp => AlgoOutcome::Vector(sssp::exact_cpu(original, src())),
            Algo::Bfs => AlgoOutcome::Vector(bfs::exact_cpu(original, src())),
            Algo::Pr => AlgoOutcome::Vector(pagerank::exact_cpu(original)),
            Algo::Bc => AlgoOutcome::Vector(bc::exact_cpu(
                original,
                &bc::sample_sources(original, bc_sources),
            )),
            Algo::Scc => AlgoOutcome::Scalar(scc::exact_cpu_count(original) as f64),
            Algo::Mst => AlgoOutcome::Scalar(mst::exact_cpu(original).0),
            Algo::Wcc => AlgoOutcome::Scalar(wcc::exact_cpu_count(original) as f64),
        }
    }
}

/// What a run produced, in a form comparable against the exact reference.
#[derive(Clone, Debug)]
pub enum AlgoOutcome {
    /// Per-original-vertex attributes (distances, ranks, BC values, labels).
    Vector(Vec<f64>),
    /// Scalar outcome (SCC/WCC component count, MST forest weight).
    Scalar(f64),
}

impl AlgoOutcome {
    /// The comparable outcome of an [`Algo::run`] result.
    pub fn of(run: &SimRun, scalar: Option<Scalar>) -> AlgoOutcome {
        match scalar {
            Some(s) => AlgoOutcome::Scalar(s.value()),
            None => AlgoOutcome::Vector(run.values.clone()),
        }
    }

    /// The accuracy metric name this outcome kind is measured with.
    pub fn metric(&self) -> &'static str {
        match self {
            AlgoOutcome::Vector(_) => "relative-l1",
            AlgoOutcome::Scalar(_) => "scalar-relative",
        }
    }

    /// Inaccuracy vs `exact`, per the paper's per-algorithm metric.
    pub fn inaccuracy(&self, exact: &AlgoOutcome) -> f64 {
        match (self, exact) {
            (AlgoOutcome::Vector(a), AlgoOutcome::Vector(e)) => relative_l1(a, e),
            (AlgoOutcome::Scalar(a), AlgoOutcome::Scalar(e)) => scalar_inaccuracy(*a, *e),
            _ => panic!("mismatched outcome kinds"),
        }
    }

    /// Largest per-vertex error vs `exact` (0 for scalar outcomes).
    pub fn max_node_error(&self, exact: &AlgoOutcome) -> f64 {
        match (self, exact) {
            (AlgoOutcome::Vector(a), AlgoOutcome::Vector(e)) => max_abs_error(a, e),
            (AlgoOutcome::Scalar(_), AlgoOutcome::Scalar(_)) => 0.0,
            _ => panic!("mismatched outcome kinds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use graffix_core::{CoalesceKnobs, Pipeline};
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_sim::GpuConfig;

    #[test]
    fn names_round_trip() {
        for a in ALL_ALGOS {
            assert_eq!(Algo::parse(a.name()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The direct `*::run_sim` / `exact_cpu*` calls `Algo::run` and
    /// `Algo::exact` stand in for, spelled out once as the reference.
    fn direct(
        algo: Algo,
        plan: &Plan,
        g: &Csr,
        src: NodeId,
        bc_sources: usize,
    ) -> (SimRun, Option<Scalar>, AlgoOutcome) {
        let sampled = bc::sample_sources(g, bc_sources);
        match algo {
            Algo::Sssp => (
                sssp::run_sim(plan, src),
                None,
                AlgoOutcome::Vector(sssp::exact_cpu(g, src)),
            ),
            Algo::Bfs => (
                bfs::run_sim(plan, src),
                None,
                AlgoOutcome::Vector(bfs::exact_cpu(g, src)),
            ),
            Algo::Pr => (
                pagerank::run_sim(plan),
                None,
                AlgoOutcome::Vector(pagerank::exact_cpu(g)),
            ),
            Algo::Bc => (
                bc::run_sim(plan, &sampled),
                None,
                AlgoOutcome::Vector(bc::exact_cpu(g, &sampled)),
            ),
            Algo::Scc => {
                let r = scc::run_sim(plan);
                (
                    r.run,
                    Some(Scalar::Components(r.components)),
                    AlgoOutcome::Scalar(scc::exact_cpu_count(g) as f64),
                )
            }
            Algo::Mst => {
                let r = mst::run_sim(plan);
                (
                    r.run,
                    Some(Scalar::Weight(r.weight)),
                    AlgoOutcome::Scalar(mst::exact_cpu(g).0),
                )
            }
            Algo::Wcc => {
                let r = wcc::run_sim(plan);
                (
                    r.run,
                    Some(Scalar::Components(r.components)),
                    AlgoOutcome::Scalar(wcc::exact_cpu_count(g) as f64),
                )
            }
        }
    }

    fn outcome_bits(o: &AlgoOutcome) -> Vec<u64> {
        match o {
            AlgoOutcome::Vector(v) => bits(v),
            AlgoOutcome::Scalar(s) => vec![s.to_bits()],
        }
    }

    /// `Algo::run` / `Algo::exact` are the direct calls, bit for bit: the
    /// values, every `KernelStats` field (its `PartialEq` is derived over
    /// all of them), the iteration count and the scalar — on an exact plan
    /// and on a coalesced one, with the default and an explicit source.
    #[test]
    fn run_and_exact_equal_the_direct_calls() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 400, 17).generate();
        let cfg = GpuConfig::k40c();
        let exact_plan = Plan::exact(&g, &cfg, Strategy::Frontier);
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &cfg);
        let coalesced_plan = Plan::from_prepared(&prepared, &cfg, Strategy::Topology);
        let default = sssp::default_source(&g);
        for plan in [&exact_plan, &coalesced_plan] {
            for algo in ALL_ALGOS {
                for explicit in [None, Some(3)] {
                    let src = explicit.unwrap_or(default);
                    let (want, want_scalar, want_exact) = direct(algo, plan, &g, src, 3);
                    let (got, got_scalar) = algo.run(plan, &g, explicit, 3);
                    let name = algo.name();
                    assert_eq!(bits(&got.values), bits(&want.values), "{name} values");
                    assert_eq!(got.stats, want.stats, "{name} stats");
                    assert_eq!(got.iterations, want.iterations, "{name} iterations");
                    assert_eq!(got_scalar, want_scalar, "{name} scalar");
                    assert_eq!(
                        outcome_bits(&algo.exact(&g, explicit, 3)),
                        outcome_bits(&want_exact),
                        "{name} exact"
                    );
                    assert_eq!(algo.source(&g, explicit).unwrap().is_some(), {
                        matches!(algo, Algo::Sssp | Algo::Bfs)
                    });
                }
            }
        }
    }

    /// A graph with no real node — none at all, or holes only — has no
    /// default source: a traversal is a typed error, the rest need none.
    #[test]
    fn a_graph_without_a_real_node_has_no_default_source() {
        let mut holes = Csr::from_parts(vec![0, 0, 0], vec![], vec![], vec![]);
        holes.set_hole_mask(vec![true, true]);
        for g in [Csr::from_parts(vec![0], vec![], vec![], vec![]), holes] {
            for algo in ALL_ALGOS {
                let got = algo.source(&g, None);
                match algo {
                    Algo::Sssp | Algo::Bfs => {
                        assert_eq!(got, Err(NoSource(algo)));
                        assert_eq!(
                            NoSource(algo).to_string(),
                            format!("{} needs a source node and the graph has none", algo.name())
                        );
                    }
                    _ => assert_eq!(got, Ok(None)),
                }
            }
        }
    }

    #[test]
    fn outcome_metrics_follow_the_kind() {
        let v = AlgoOutcome::Vector(vec![11.0, 9.0]);
        let e = AlgoOutcome::Vector(vec![10.0, 10.0]);
        assert_eq!(v.metric(), "relative-l1");
        assert!((v.inaccuracy(&e) - 0.1).abs() < 1e-12);
        assert_eq!(v.max_node_error(&e), 1.0);
        let s = AlgoOutcome::Scalar(Scalar::Components(9).value());
        assert_eq!(s.metric(), "scalar-relative");
        assert_eq!(s.inaccuracy(&AlgoOutcome::Scalar(10.0)), 0.1);
        assert_eq!(s.max_node_error(&AlgoOutcome::Scalar(10.0)), 0.0);
        assert_eq!(Scalar::Weight(2.5).name(), "weight");
    }
}
