//! Experiment cells: run one algorithm on one plan and compare approximate
//! against exact — producing the (speedup, inaccuracy) pairs that fill
//! Tables 6–14 and the figure sweeps.

use crate::suite::Suite;
use graffix_algos::{Algo, AlgoOutcome};
use graffix_baselines::Baseline;
use graffix_core::{Prepared, Technique};

/// The paper's five evaluation algorithms, in the order of Tables 2 and
/// 6–8.
pub const ALL_ALGOS: [Algo; 5] = [Algo::Sssp, Algo::Mst, Algo::Scc, Algo::Pr, Algo::Bc];
/// The subset Tigr and Gunrock implement (Tables 3–4, 9–14).
pub const CORE_ALGOS: [Algo; 3] = [Algo::Sssp, Algo::Pr, Algo::Bc];

/// The algorithms `baseline`'s tables cover.
pub fn algos_of(baseline: Baseline) -> &'static [Algo] {
    match baseline {
        Baseline::Lonestar => &ALL_ALGOS,
        _ => &CORE_ALGOS,
    }
}

/// One cell of Tables 6–14: speedup of the approximate run over the exact
/// run under the same baseline, and inaccuracy against the CPU reference.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    pub speedup: f64,
    pub inaccuracy: f64,
    pub exact_seconds: f64,
    pub approx_seconds: f64,
}

/// Measures one (graph, technique, baseline, algorithm) cell.
pub fn measure(
    suite: &Suite,
    gi: usize,
    technique: Technique,
    baseline: Baseline,
    algo: Algo,
) -> Measurement {
    let exact_prepared = suite.prepared(gi, Technique::Exact);
    let approx_prepared = suite.prepared(gi, technique);
    measure_prepared(suite, gi, &exact_prepared, &approx_prepared, baseline, algo)
}

/// Measures with an explicit approximate preparation (figure sweeps).
pub fn measure_prepared(
    suite: &Suite,
    gi: usize,
    exact_prepared: &Prepared,
    approx_prepared: &Prepared,
    baseline: Baseline,
    algo: Algo,
) -> Measurement {
    let original = suite.graph(gi);
    let bc_sources = suite.options.bc_sources;
    let run = |prepared: &Prepared| {
        let plan = baseline.plan(prepared, &suite.cfg);
        let (run, scalar) = algo.run(&plan, original, None, bc_sources);
        let cycles = run.elapsed_cycles(&suite.cfg).max(1);
        (run, scalar, cycles)
    };
    let (_, _, exact_cycles) = run(exact_prepared);
    let (approx, scalar, approx_cycles) = run(approx_prepared);
    let approx = AlgoOutcome::of(&approx, scalar);
    Measurement {
        speedup: exact_cycles as f64 / approx_cycles as f64,
        inaccuracy: approx.inaccuracy(&algo.exact(original, None, bc_sources)),
        exact_seconds: suite.cfg.cycles_to_seconds(exact_cycles),
        approx_seconds: suite.cfg.cycles_to_seconds(approx_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOptions;

    fn tiny() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 250,
            seed: 3,
            bc_sources: 2,
        })
    }

    #[test]
    fn exact_runs_have_zero_inaccuracy() {
        let s = tiny();
        for algo in [Algo::Sssp, Algo::Pr, Algo::Scc, Algo::Mst] {
            let m = measure(&s, 0, Technique::Exact, Baseline::Lonestar, algo);
            // PR runs a fixed 30-iteration budget (the baseline GPU
            // convention) against a fully converged CPU reference, so a
            // small truncation residual remains even for exact plans.
            let tol = if algo == Algo::Pr { 2e-3 } else { 1e-4 };
            assert!(
                m.inaccuracy < tol,
                "{algo:?} exact inaccuracy {}",
                m.inaccuracy
            );
            assert!((m.speedup - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn measurement_fields_consistent() {
        let s = tiny();
        let m = measure(&s, 2, Technique::Coalescing, Baseline::Lonestar, Algo::Pr);
        assert!(m.speedup > 0.0);
        assert!(m.exact_seconds > 0.0 && m.approx_seconds > 0.0);
        assert!(
            (m.speedup - m.exact_seconds / m.approx_seconds).abs() < 1e-9,
            "speedup must equal the seconds ratio"
        );
    }

    #[test]
    fn scc_reference_is_tarjan() {
        let s = tiny();
        match Algo::Scc.exact(s.graph(1), None, s.options.bc_sources) {
            AlgoOutcome::Scalar(c) => assert!(c >= 1.0),
            AlgoOutcome::Vector(_) => panic!("SCC reference must be scalar"),
        }
    }

    /// The cost attribution must partition the warp-cycle total exactly
    /// for *every* bench scenario — each (graph, technique, algorithm)
    /// cell of the tables, under every baseline. This pins the fix for
    /// the earlier reconstruction, which over-counted shared-memory
    /// cycles (it charged every access + conflict instead of the replay's
    /// worst-bank-group figure) and therefore didn't sum.
    #[test]
    fn cost_breakdown_components_partition_total_in_every_scenario() {
        use graffix_sim::CostBreakdown;
        let s = tiny();
        let techniques = [
            Technique::Exact,
            Technique::Coalescing,
            Technique::Latency,
            Technique::Divergence,
            Technique::Combined,
        ];
        for gi in 0..s.len() {
            for technique in techniques {
                let prepared = s.prepared(gi, technique);
                for baseline in graffix_baselines::ALL_BASELINES {
                    let plan = baseline.plan(&prepared, &s.cfg);
                    for &algo in algos_of(baseline) {
                        let (run, _) = algo.run(&plan, s.graph(gi), None, s.options.bc_sources);
                        let b = CostBreakdown::attribute(&run.stats, &s.cfg);
                        assert_eq!(
                            b.modeled_total(),
                            b.total_warp_cycles,
                            "components must sum exactly: graph {gi}, \
                             {technique:?}, {baseline:?}, {algo:?}"
                        );
                        assert_eq!(b.total_warp_cycles, run.stats.warp_cycles);
                    }
                }
            }
        }
    }

    #[test]
    fn all_baselines_measurable() {
        let s = tiny();
        for b in graffix_baselines::ALL_BASELINES {
            let m = measure(&s, 0, Technique::Divergence, b, Algo::Sssp);
            assert!(m.speedup.is_finite() && m.inaccuracy.is_finite());
        }
    }
}
