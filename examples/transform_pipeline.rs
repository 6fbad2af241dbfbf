//! Combining the three transforms — the paper's "they can be combined for
//! improved benefits" (§1). Applies each single transform and the full
//! pipeline to a twitter-like graph and compares SSSP and PageRank against
//! the exact baseline, also demonstrating the algorithm-aware confluence
//! extension (§2.4: "one can easily redefine the merging").
//!
//! ```text
//! cargo run --release --example transform_pipeline [nodes]
//! ```

use graffix::prelude::*;

fn measure(
    label: &str,
    prepared: &Prepared,
    graph: &Csr,
    gpu: &GpuConfig,
    exact_sssp: u64,
    exact_pr: u64,
) {
    let plan = Baseline::Lonestar.plan(prepared, gpu);
    let src = sssp::default_source(graph);
    let s = sssp::run_sim(&plan, src);
    let p = pagerank::run_sim(&plan);
    let sssp_ref = sssp::exact_cpu(graph, src);
    let pr_ref = pagerank::exact_cpu(graph);
    println!(
        "{:<42} sssp {:>5.2}x / {:>5.2}%   pr {:>5.2}x / {:>5.2}%   (+{} edges)",
        label,
        exact_sssp as f64 / s.elapsed_cycles(gpu).max(1) as f64,
        relative_l1(&s.values, &sssp_ref) * 100.0,
        exact_pr as f64 / p.elapsed_cycles(gpu).max(1) as f64,
        relative_l1(&p.values, &pr_ref) * 100.0,
        prepared.report.edges_added,
    );
}

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    println!("generating a twitter-like graph with {nodes} nodes ...");
    let graph = GraphSpec::new(GraphKind::SocialTwitter, nodes, 23).generate();
    let gpu = GpuConfig::k40c();
    let kind = GraphKind::SocialTwitter;

    // Exact timing anchors.
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
    let src = sssp::default_source(&graph);
    let exact_sssp = sssp::run_sim(&exact_plan, src).elapsed_cycles(&gpu);
    let exact_pr = pagerank::run_sim(&exact_plan).elapsed_cycles(&gpu);
    println!("exact: sssp {exact_sssp} cycles, pr {exact_pr} cycles\n");

    let single = [
        (
            "coalescing only",
            Pipeline::default().with_coalesce(CoalesceKnobs::for_kind(kind)),
        ),
        (
            "latency only",
            Pipeline::default().with_latency(LatencyKnobs::for_kind(kind)),
        ),
        (
            "divergence only",
            Pipeline::default().with_divergence(DivergenceKnobs::default()),
        ),
        (
            "combined (coalesce -> latency -> divergence)",
            Pipeline::default()
                .with_coalesce(CoalesceKnobs::for_kind(kind))
                .with_latency(LatencyKnobs::for_kind(kind))
                .with_divergence(DivergenceKnobs::default()),
        ),
    ];
    for (label, pipeline) in single {
        let prepared = pipeline.apply(&graph, &gpu);
        measure(label, &prepared, &graph, &gpu, exact_sssp, exact_pr);
    }

    // Extension: algorithm-aware confluence (min merge suits distances).
    let aware = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(kind))
        .apply(&graph, &gpu)
        .with_confluence(ConfluenceOp::Min);
    measure(
        "coalescing + min-confluence (algorithm-aware)",
        &aware,
        &graph,
        &gpu,
        exact_sssp,
        exact_pr,
    );
}
