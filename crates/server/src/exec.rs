//! Request execution: run one algorithm for one request and build the
//! deterministic `result` excerpt.
//!
//! Two entry points share [`graffix_algos::Algo::run`] and [`result_excerpt`]:
//!
//! * the server's worker loop, which goes through the prepared-graph pool
//!   and may batch compatible requests onto one shared `Plan`;
//! * [`run_direct`], a reference path that loads and prepares everything
//!   from scratch with **no** pool, cache, batching, or server threading.
//!
//! `tests/serve_determinism.rs` pins that both paths produce byte-
//! identical `result` documents — i.e. none of the serving machinery can
//! change an answer.

use crate::pool::pipeline_for_request;
use crate::protocol::{ErrorKind, RunRequest, ServeError};
use crate::registry::GraphRegistry;
use graffix_algos::{Scalar, SimRun};
use graffix_core::Prepared;
use graffix_graph::{Csr, NodeId};
use graffix_sim::{GpuConfig, Json};

/// The effective traversal source of a request: the explicit one, or the
/// graph's deterministic default. `None` for algorithms without a source;
/// `bad-source` for an explicit one out of range, or a traversal on a graph
/// with no node to default to.
pub fn effective_source(req: &RunRequest, original: &Csr) -> Result<Option<NodeId>, ServeError> {
    if let Some(s) = req.source {
        if (s as usize) >= original.num_nodes() {
            return Err(ServeError::new(
                ErrorKind::BadSource,
                format!(
                    "source {s} out of range (graph has {} nodes)",
                    original.num_nodes()
                ),
            ));
        }
    }
    req.algo
        .source(original, req.source)
        .map_err(|e| ServeError::new(ErrorKind::BadSource, format!("graph `{}`: {e}", req.graph)))
}

/// Builds the deterministic `result` excerpt for one executed request —
/// the schema-v2-compatible subset of a run report: identity fields,
/// iterations, simulated cycles, full kernel totals, and the value
/// summary. No wall clock anywhere.
pub fn result_excerpt(
    req: &RunRequest,
    prepared: &Prepared,
    gpu: &GpuConfig,
    source: Option<NodeId>,
    run: &SimRun,
    scalar: Option<Scalar>,
) -> Json {
    let mut root = Json::obj();
    root.set("algo", Json::Str(req.algo.name().to_string()));
    root.set("graph", Json::Str(req.graph.clone()));
    root.set(
        "technique",
        Json::Str(prepared.report.technique_label.clone()),
    );
    root.set("baseline", Json::Str(req.baseline.label().to_string()));
    root.set("direction", Json::Str(req.direction.key().to_string()));
    match source {
        Some(s) => root.set("source", Json::U64(s as u64)),
        None => root.set("source", Json::Null),
    };
    root.set("iterations", Json::U64(run.iterations as u64));
    root.set("elapsed_cycles", Json::U64(run.stats.elapsed_cycles(gpu)));
    let s = &run.stats;
    let mut totals = Json::obj();
    totals.set("warp_cycles", Json::U64(s.warp_cycles));
    totals.set("steps", Json::U64(s.steps));
    totals.set("launches", Json::U64(s.launches));
    totals.set("global_accesses", Json::U64(s.global_accesses));
    totals.set("global_transactions", Json::U64(s.global_transactions));
    totals.set("atomic_ops", Json::U64(s.atomic_ops));
    totals.set("divergent_slots", Json::U64(s.divergent_slots));
    root.set("totals", totals);
    let v = graffix_sim::ValueSummary::from_values(&run.values);
    let mut values = Json::obj();
    values.set("len", Json::U64(v.len));
    values.set("finite", Json::U64(v.finite));
    values.set("sum_finite", Json::F64(v.sum_finite));
    values.set("min_finite", Json::F64(v.min_finite));
    values.set("max_finite", Json::F64(v.max_finite));
    root.set("values", values);
    if let Some(scalar) = scalar {
        let value = match scalar {
            Scalar::Components(c) => Json::U64(c as u64),
            Scalar::Weight(w) => Json::F64(w),
        };
        let mut summary = Json::obj();
        summary.set(scalar.name(), value);
        root.set("summary", summary);
    }
    root
}

/// Reference execution: everything from scratch, nothing shared. Loads
/// the graph from the registry, prepares it **uncached** (plain
/// `Pipeline::try_apply`), builds a private plan, runs, and returns the
/// same excerpt the server would serve. This is the direct-`Runner` oracle
/// the serving determinism suite compares daemon responses against.
pub fn run_direct(
    req: &RunRequest,
    registry: &GraphRegistry,
    gpu: &GpuConfig,
) -> Result<Json, ServeError> {
    let source = registry.get(&req.graph).ok_or_else(|| {
        ServeError::new(
            ErrorKind::UnknownGraph,
            format!("graph `{}` is not registered", req.graph),
        )
    })?;
    let original = source.load().map_err(|e| {
        ServeError::new(
            ErrorKind::GraphLoad,
            format!("could not load graph `{}`: {e}", req.graph),
        )
    })?;
    let prepared = match pipeline_for_request(&original, &req.technique, req.threshold) {
        None => Prepared::exact(original.clone()),
        Some(pipeline) => pipeline.try_apply(&original, gpu).map_err(|e| {
            ServeError::new(
                ErrorKind::BadRequest,
                format!("invalid transform configuration: {e}"),
            )
        })?,
    };
    let src = effective_source(req, &original)?;
    let plan = req
        .baseline
        .plan(&prepared, gpu)
        .with_direction(req.direction);
    let (run, scalar) = req.algo.run(&plan, &original, src, req.bc_sources);
    Ok(result_excerpt(req, &prepared, gpu, src, &run, scalar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_algos::{Algo, Direction};
    use graffix_baselines::Baseline;

    fn reg() -> GraphRegistry {
        let mut r = GraphRegistry::new();
        r.insert_entry("g=rmat:300:5").unwrap();
        r
    }

    fn req(algo: Algo) -> RunRequest {
        RunRequest {
            id: 1,
            graph: "g".to_string(),
            algo,
            source: None,
            bc_sources: 2,
            technique: "exact".to_string(),
            threshold: None,
            direction: Direction::Push,
            baseline: Baseline::Lonestar,
            debug_sleep_ms: 0,
        }
    }

    #[test]
    fn direct_run_is_reproducible_bytes() {
        let gpu = GpuConfig::k40c();
        for algo in [Algo::Sssp, Algo::Pr, Algo::Wcc] {
            let a = run_direct(&req(algo), &reg(), &gpu).unwrap();
            let b = run_direct(&req(algo), &reg(), &gpu).unwrap();
            assert_eq!(a.to_compact_string(), b.to_compact_string());
        }
    }

    #[test]
    fn out_of_range_source_is_typed() {
        let gpu = GpuConfig::k40c();
        let mut r = req(Algo::Sssp);
        r.source = Some(1_000_000);
        let err = run_direct(&r, &reg(), &gpu).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadSource);
    }

    #[test]
    fn scalar_algos_carry_a_summary() {
        let gpu = GpuConfig::k40c();
        let out = run_direct(&req(Algo::Wcc), &reg(), &gpu).unwrap();
        assert!(out.path(&["summary", "components"]).is_some());
        let out = run_direct(&req(Algo::Sssp), &reg(), &gpu).unwrap();
        assert!(out.get("summary").is_none());
        assert!(out.get("source").unwrap().as_u64().is_some());
    }
}
