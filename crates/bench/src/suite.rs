//! The input suite and transform cache shared by all experiments.

use graffix_core::{
    prepare_with_cache, CacheConfig, CoalesceKnobs, DivergenceKnobs, LatencyKnobs, Pipeline,
    Prepared, QueryCtx, Technique,
};
use graffix_graph::generators::{paper_suite, GraphKind};
use graffix_graph::Csr;
use graffix_sim::GpuConfig;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Suite construction options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteOptions {
    /// Vertices per generated graph (the paper's graphs are scaled down
    /// uniformly — see DESIGN.md).
    pub nodes: usize,
    /// Generator seed.
    pub seed: u64,
    /// BC source-sample size.
    pub bc_sources: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            nodes: 4096,
            seed: 2020,
            bc_sources: 4,
        }
    }
}

/// The five paper graphs plus caches for prepared (transformed) versions.
pub struct Suite {
    pub options: SuiteOptions,
    pub cfg: GpuConfig,
    /// On-disk prepared-graph cache. Disabled by default so library users
    /// and tests stay hermetic; the CLI opts in with [`Suite::with_cache`].
    pub cache: CacheConfig,
    pub graphs: Vec<(GraphKind, Csr)>,
    prepared: RefCell<HashMap<(usize, Technique), Rc<Prepared>>>,
    /// In-memory memoized stage queries shared by the knob sweeps
    /// ([`Suite::prepared_with`]): a sweep over one knob re-prepares only
    /// the stages downstream of it, the rest hit this context.
    stage_ctx: RefCell<QueryCtx>,
}

impl Suite {
    /// Generates the suite at the given options on the K40C configuration.
    pub fn new(options: SuiteOptions) -> Self {
        let graphs = paper_suite(options.nodes, options.seed);
        Suite {
            options,
            cfg: GpuConfig::k40c(),
            cache: CacheConfig::disabled(),
            graphs,
            prepared: RefCell::new(HashMap::new()),
            stage_ctx: RefCell::new(QueryCtx::memory()),
        }
    }

    /// Routes [`Suite::prepared`] through the on-disk prepared-graph cache.
    /// Cached loads are bit-identical to fresh transforms, so gated cycle
    /// and inaccuracy metrics are unaffected; only wall time changes.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Number of graphs (always 5).
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the suite is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Graph `gi`'s kind.
    pub fn kind(&self, gi: usize) -> GraphKind {
        self.graphs[gi].0
    }

    /// Graph `gi`'s CSR.
    pub fn graph(&self, gi: usize) -> &Csr {
        &self.graphs[gi].1
    }

    /// The pipeline that runs `technique` on a graph of `kind` under the
    /// paper's per-family knob guidelines. The empty pipeline *is*
    /// [`Technique::Exact`]; `combined` is the all-defaults composition.
    pub fn pipeline_for(kind: GraphKind, technique: Technique) -> Pipeline {
        match technique {
            Technique::Exact => Pipeline::default(),
            Technique::Coalescing => {
                Pipeline::default().with_coalesce(CoalesceKnobs::for_kind(kind))
            }
            Technique::Latency => Pipeline::default().with_latency(LatencyKnobs::for_kind(kind)),
            Technique::Divergence => {
                Pipeline::default().with_divergence(DivergenceKnobs::default())
            }
            Technique::Combined => Pipeline::all_defaults(),
        }
    }

    /// The prepared (possibly transformed) version of graph `gi` under
    /// `technique`, using the paper's per-family knob guidelines. Memoized
    /// in-process, and served from the on-disk cache when one is enabled
    /// (a disabled cache and the empty pipeline run on a null context).
    pub fn prepared(&self, gi: usize, technique: Technique) -> Rc<Prepared> {
        if let Some(p) = self.prepared.borrow().get(&(gi, technique)) {
            return Rc::clone(p);
        }
        let pipeline = Self::pipeline_for(self.kind(gi), technique);
        let (p, _) = prepare_with_cache(self.graph(gi), &pipeline, &self.cfg, &self.cache)
            .expect("paper-guideline knobs are always valid");
        let p = Rc::new(p);
        self.prepared
            .borrow_mut()
            .insert((gi, technique), Rc::clone(&p));
        p
    }

    /// Graph `gi` prepared by one transform with its primary knob at
    /// `threshold` (the Figure 7–9 sweeps). Sweep cells share every stage
    /// upstream of the knob — the renumbering, the triangle counts, the
    /// bucket order — through the suite's in-memory query context.
    pub fn prepared_with(&self, gi: usize, technique: Technique, threshold: f64) -> Prepared {
        let mut pipe = Self::pipeline_for(self.kind(gi), technique);
        pipe.coalesce = pipe.coalesce.map(|k| k.with_threshold(threshold));
        pipe.latency = pipe.latency.map(|k| k.with_threshold(threshold));
        pipe.divergence = pipe.divergence.map(|k| k.with_threshold(threshold));
        pipe.try_apply_with(self.graph(gi), &self.cfg, &mut self.stage_ctx.borrow_mut())
            .expect("sweep knobs are always valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 300,
            seed: 7,
            bc_sources: 2,
        })
    }

    #[test]
    fn suite_has_five_paper_graphs() {
        let s = tiny_suite();
        assert_eq!(s.len(), 5);
        let names: Vec<_> = s.graphs.iter().map(|(k, _)| k.paper_name()).collect();
        assert!(names.contains(&"rmat26"));
        assert!(names.contains(&"USA-road"));
    }

    #[test]
    fn prepared_is_cached() {
        let s = tiny_suite();
        let a = s.prepared(0, Technique::Coalescing);
        let b = s.prepared(0, Technique::Coalescing);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn all_techniques_prepare_all_graphs() {
        let s = tiny_suite();
        for gi in 0..s.len() {
            for t in [
                Technique::Exact,
                Technique::Coalescing,
                Technique::Latency,
                Technique::Divergence,
            ] {
                let p = s.prepared(gi, t);
                p.validate().unwrap();
            }
        }
    }

    /// The on-disk cache must be invisible to everything a preparation
    /// holds: a cold-cache suite (prepare + store) and a warm-cache one
    /// (load) must both equal the uncached suite, field for field.
    #[test]
    fn cached_suite_matches_the_uncached_suite() {
        let dir = std::env::temp_dir().join(format!("graffix-suite-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SuiteOptions {
            nodes: 250,
            seed: 11,
            bc_sources: 2,
        };
        let plain = Suite::new(opts.clone());
        for pass in ["cold", "warm"] {
            let cached = Suite::new(opts.clone()).with_cache(CacheConfig::at(&dir));
            for gi in 0..plain.len() {
                for t in Technique::ALL {
                    let (a, b) = (plain.prepared(gi, t), cached.prepared(gi, t));
                    let id = format!("{pass} {} {t:?}", plain.kind(gi).paper_name());
                    assert_eq!(a.first_difference(&b), None, "{id}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_default_to_the_paper_shape() {
        let o = SuiteOptions::default();
        assert_eq!(o.nodes, 4096);
        assert_eq!(o.bc_sources, 4);
    }
}
