//! Observed (traced) runs: glue between the transform layer, the algorithm
//! runners, and `graffix_sim`'s run-report schema.
//!
//! [`traced_run`] executes one algorithm with tracing enabled and returns
//! the [`RunReport`] alongside the raw [`SimRun`]. The CLI (`graffix
//! profile`, `--report-json`), the bench crate, and the integration tests
//! all assemble their reports through this one path, so the schema stays
//! consistent everywhere.
//!
//! Determinism: the report excludes wall-clock readings (notably the
//! transform's `preprocess_seconds`) and any thread-count dependence, so
//! its serialized bytes are identical at every `--threads` value.

pub use graffix_algos::{Algo, AlgoOutcome, ALL_ALGOS};
use graffix_algos::{Direction, Plan, SimRun};
use graffix_baselines::Baseline;
use graffix_core::{Pipeline, Prepared};
use graffix_graph::Csr;
use graffix_sim::{
    AccuracyReport, GpuConfig, GraphMeta, Phase, ProvenanceReport, RunReport, StageProvenance,
    TraceHandle, ValueSummary,
};

/// One observed run: the serialized-ready report plus the raw outcome.
#[derive(Clone, Debug)]
pub struct TracedRun {
    pub report: RunReport,
    pub run: SimRun,
    /// The run's result in reference-comparable form.
    pub outcome: AlgoOutcome,
}

/// Enables tracing on `plan` and seeds the registry with the transform's
/// structural counters. Returns the live handle (a clone of `plan.trace`).
///
/// `preprocess_seconds` is deliberately NOT recorded: it is wall clock, and
/// reports must be byte-identical across runs and thread counts.
pub fn instrument_plan(plan: &mut Plan, prepared: &Prepared) -> TraceHandle {
    plan.trace = TraceHandle::enabled();
    let trace = plan.trace.clone();
    let tr = &prepared.report;
    trace.add_counter(Phase::Transform, "holes-created", tr.holes_created as u64);
    trace.add_counter(Phase::Transform, "holes-filled", tr.holes_filled as u64);
    trace.add_counter(Phase::Transform, "replicas", tr.replicas as u64);
    trace.add_counter(Phase::Transform, "edges-added", tr.edges_added as u64);
    trace.set_gauge(Phase::Transform, "space-overhead", tr.space_overhead);
    trace
}

/// Builds the v2 `provenance` section from a prepared plan's transform
/// report.
pub fn provenance_from(prepared: &Prepared) -> ProvenanceReport {
    let tr = &prepared.report;
    ProvenanceReport {
        technique: prepared.technique.key().to_string(),
        replicas: tr.replicas as u64,
        holes_created: tr.holes_created as u64,
        holes_filled: tr.holes_filled as u64,
        edges_added: tr.edges_added as u64,
        space_overhead: tr.space_overhead,
        stages: tr
            .stages
            .iter()
            .map(|s| StageProvenance {
                transform: s.transform.clone(),
                replicas: s.replicas as u64,
                edges_added: s.edges_added as u64,
                edge_budget_arcs: s.edge_budget_arcs as u64,
            })
            .collect(),
    }
}

/// Folds a finished run plus its trace into the schema-versioned report.
/// The `provenance` section is always attached (it is free — the prepared
/// plan already carries the counters); `accuracy` is attached separately
/// by [`observed_run`] because it needs reference and toggle-off re-runs.
pub fn assemble_report(
    command: &str,
    algo_name: &str,
    prepared: &Prepared,
    baseline: Baseline,
    plan: &Plan,
    run: &SimRun,
    trace: &TraceHandle,
) -> RunReport {
    RunReport {
        command: command.to_string(),
        algo: algo_name.to_string(),
        technique: prepared.report.technique_label.clone(),
        baseline: baseline.label().to_string(),
        graph: GraphMeta {
            nodes: plan.graph.num_nodes() as u64,
            edges: plan.graph.num_edges() as u64,
            holes: plan.graph.num_holes() as u64,
        },
        gpu: plan.cfg.clone(),
        iterations: run.iterations as u64,
        totals: run.stats,
        trace: trace.finish().unwrap_or_default(),
        values: ValueSummary::from_values(&run.values),
        accuracy: None,
        provenance: Some(provenance_from(prepared)),
    }
}

/// Runs `algo` on `prepared` under `baseline` with tracing enabled and
/// assembles the run report. `original` is the untransformed graph (used
/// for deterministic source selection). `bc_sources` bounds the BC source
/// sample (ignored by other algorithms).
pub fn traced_run(
    command: &str,
    algo: Algo,
    original: &Csr,
    prepared: &Prepared,
    baseline: Baseline,
    gpu: &GpuConfig,
    bc_sources: usize,
) -> TracedRun {
    observed_run(
        RunSpec {
            command,
            algo,
            baseline,
            bc_sources,
            direction: Direction::Push,
            accuracy: false,
            pipeline: None,
        },
        original,
        prepared,
        gpu,
    )
}

/// Everything [`observed_run`] needs to know about one run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    /// CLI subcommand or caller label.
    pub command: &'a str,
    pub algo: Algo,
    pub baseline: Baseline,
    /// BC source-sample bound (ignored by other algorithms).
    pub bc_sources: usize,
    /// Traversal direction policy for frontier-driven supersteps.
    pub direction: Direction,
    /// Compute the v2 `accuracy` section (exact CPU reference + one
    /// toggle-off re-run per enabled pipeline stage). Costs one reference
    /// run plus up to three extra simulated runs.
    pub accuracy: bool,
    /// The pipeline that produced `prepared` — required for error
    /// attribution. With `None` (or an empty pipeline) the accuracy
    /// section carries no attribution entries.
    pub pipeline: Option<&'a Pipeline>,
}

/// The toggle-off variants of `pipeline`, in stage order: the same
/// pipeline with exactly one enabled stage removed, labeled by the removed
/// stage's key.
fn stage_off_variants(pipeline: &Pipeline) -> Vec<(String, Pipeline)> {
    let mut variants = Vec::new();
    if pipeline.coalesce.is_some() {
        let mut p = pipeline.clone();
        p.coalesce = None;
        variants.push(("coalescing".to_string(), p));
    }
    if pipeline.latency.is_some() {
        let mut p = pipeline.clone();
        p.latency = None;
        variants.push(("latency".to_string(), p));
    }
    if pipeline.divergence.is_some() {
        let mut p = pipeline.clone();
        p.divergence = None;
        variants.push(("divergence".to_string(), p));
    }
    variants
}

/// Runs `spec.algo` on `prepared` under `spec.baseline` and
/// `spec.direction` with tracing enabled and assembles the run report.
/// Under `Auto`/`Pull` the report's trace carries a per-superstep
/// `direction` series (1 = pull) and, under `Auto`, the `frontier-mass`
/// series the decision was made from.
///
/// With `spec.accuracy` set it also fills the v2 `accuracy` section: the
/// run's outcome is compared against the exact CPU reference, and — when
/// the producing pipeline is known — each enabled transform stage is
/// toggled off in turn and the run repeated, so
/// the inaccuracy each stage is responsible for can be charged to it
/// (`charged = max(0, total − without_stage)`).
///
/// All re-runs are deterministic, so the resulting section verifies
/// bit-exactly under [`RunReport::verify`].
pub fn observed_run(
    spec: RunSpec<'_>,
    original: &Csr,
    prepared: &Prepared,
    gpu: &GpuConfig,
) -> TracedRun {
    let mut plan = spec
        .baseline
        .plan(prepared, gpu)
        .with_direction(spec.direction);
    let trace = instrument_plan(&mut plan, prepared);

    trace.span_enter(Phase::Run, spec.algo.name());
    let (run, scalar) = spec.algo.run(&plan, original, None, spec.bc_sources);
    trace.span_exit();
    let outcome = AlgoOutcome::of(&run, scalar);

    let report = assemble_report(
        spec.command,
        spec.algo.name(),
        prepared,
        spec.baseline,
        &plan,
        &run,
        &trace,
    );
    let mut traced = TracedRun {
        report,
        run,
        outcome,
    };
    if !spec.accuracy {
        return traced;
    }
    let reference = spec.algo.exact(original, None, spec.bc_sources);
    let mut reruns = Vec::new();
    if let Some(pipeline) = spec.pipeline {
        for (stage, variant) in stage_off_variants(pipeline) {
            let without = variant.apply(original, gpu);
            let plan = spec
                .baseline
                .plan(&without, gpu)
                .with_direction(spec.direction);
            let (run, scalar) = spec.algo.run(&plan, original, None, spec.bc_sources);
            reruns.push((stage, AlgoOutcome::of(&run, scalar).inaccuracy(&reference)));
        }
    }
    traced.report.accuracy = Some(AccuracyReport::from_reruns(
        traced.outcome.metric(),
        traced.outcome.inaccuracy(&reference),
        traced.outcome.max_node_error(&reference),
        reruns,
    ));
    traced
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_core::CoalesceKnobs;
    use graffix_graph::generators::{GraphKind, GraphSpec};

    #[test]
    fn algo_names_roundtrip() {
        for a in ALL_ALGOS {
            assert_eq!(Algo::parse(a.name()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
    }

    #[test]
    fn traced_run_produces_verifiable_report() {
        let g = GraphSpec::new(GraphKind::Random, 200, 9).generate();
        let prepared = Prepared::exact(g.clone());
        let gpu = GpuConfig::test_tiny();
        let t = traced_run(
            "test",
            Algo::Sssp,
            &g,
            &prepared,
            Baseline::Lonestar,
            &gpu,
            2,
        );
        t.report.verify().unwrap();
        assert_eq!(t.report.totals, t.run.stats);
        assert!(!t.report.trace.snapshots.is_empty());
        // Provenance is attached even for exact plans (empty stage list).
        let prov = t.report.provenance.as_ref().unwrap();
        assert_eq!(prov.technique, "exact");
        assert!(prov.stages.is_empty());
    }

    #[test]
    fn observed_run_attributes_error_per_stage() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 300, 11).generate();
        let gpu = GpuConfig::test_tiny();
        // The tiny config has 4-lane warps, so the paper-default chunk size
        // of 16 is invalid here; shrink it to the warp size.
        let pipeline = graffix_core::Pipeline::all_defaults().with_coalesce(CoalesceKnobs {
            chunk_size: gpu.warp_size,
            ..Default::default()
        });
        let prepared = pipeline.apply(&g, &gpu);
        let t = observed_run(
            RunSpec {
                command: "test",
                algo: Algo::Sssp,
                baseline: Baseline::Lonestar,
                bc_sources: 2,
                direction: Direction::Push,
                accuracy: true,
                pipeline: Some(&pipeline),
            },
            &g,
            &prepared,
            &gpu,
        );
        t.report.verify().unwrap();
        let acc = t.report.accuracy.as_ref().unwrap();
        assert_eq!(acc.metric, "relative-l1");
        let stages: Vec<&str> = acc
            .attribution
            .iter()
            .map(|e| e.transform.as_str())
            .collect();
        assert_eq!(stages, vec!["coalescing", "latency", "divergence"]);
        assert!(acc.inaccuracy.is_finite() && acc.inaccuracy >= 0.0);
        let prov = t.report.provenance.as_ref().unwrap();
        assert_eq!(prov.technique, "combined");
        assert_eq!(prov.stages.len(), 3);
        // The report round-trips through JSON with both sections intact.
        let text = t.report.to_pretty_string();
        let back = RunReport::from_json(&graffix_sim::Json::parse(&text).unwrap()).unwrap();
        back.verify().unwrap();
        assert_eq!(back.to_pretty_string(), text);
    }

    #[test]
    fn observed_run_scalar_algo_accuracy() {
        let g = GraphSpec::new(GraphKind::Random, 200, 5).generate();
        let gpu = GpuConfig::test_tiny();
        let pipeline = graffix_core::Pipeline::default().with_divergence(Default::default());
        let prepared = pipeline.apply(&g, &gpu);
        let t = observed_run(
            RunSpec {
                command: "test",
                algo: Algo::Wcc,
                baseline: Baseline::Lonestar,
                bc_sources: 2,
                direction: Direction::Push,
                accuracy: true,
                pipeline: Some(&pipeline),
            },
            &g,
            &prepared,
            &gpu,
        );
        t.report.verify().unwrap();
        let acc = t.report.accuracy.as_ref().unwrap();
        assert_eq!(acc.metric, "scalar-relative");
        assert_eq!(acc.max_node_error, 0.0);
        assert_eq!(acc.attribution.len(), 1);
        assert_eq!(acc.attribution[0].transform, "divergence");
    }
}
