//! Quickstart: transform a graph with each Graffix technique, run PageRank
//! on the simulated GPU, and print the speedup/inaccuracy trade-off — the
//! two axes of every table in the paper.
//!
//! ```text
//! cargo run --release --example quickstart [nodes]
//! ```

use graffix::prelude::*;

fn main() {
    // A scaled-down version of the paper's rmat26 input (Table 1).
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    println!("generating an R-MAT graph with {nodes} nodes ...");
    let graph = GraphSpec::new(GraphKind::Rmat, nodes, 42).generate();
    println!(
        "  |V| = {}, |E| = {}, max degree = {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );

    let gpu = GpuConfig::k40c();
    let reference = pagerank::exact_cpu(&graph);

    // Exact execution under Baseline-I (LonestarGPU-style topology-driven).
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
    let exact_run = pagerank::run_sim(&exact_plan);
    let exact_cycles = exact_run.elapsed_cycles(&gpu);
    println!(
        "\nexact PageRank: {} simulated cycles ({} iterations), inaccuracy {:.3}%",
        exact_cycles,
        exact_run.iterations,
        relative_l1(&exact_run.values, &reference) * 100.0
    );

    // Each Graffix transform with the paper's per-family knob guidance.
    let prepared: Vec<(&str, Prepared)> = vec![
        (
            "coalescing (renumber + replicate, thr 0.6, k 16)",
            Pipeline::default()
                .with_coalesce(CoalesceKnobs::for_kind(GraphKind::Rmat))
                .apply(&graph, &gpu),
        ),
        (
            "latency (shared-memory tiles by clustering coefficient)",
            Pipeline::default()
                .with_latency(LatencyKnobs::for_kind(GraphKind::Rmat))
                .apply(&graph, &gpu),
        ),
        (
            "divergence (degree buckets + 2-hop fill)",
            Pipeline::default()
                .with_divergence(DivergenceKnobs::default())
                .apply(&graph, &gpu),
        ),
    ];

    println!(
        "\n{:<55} {:>9} {:>12} {:>12}",
        "technique", "speedup", "inaccuracy", "extra edges"
    );
    for (name, p) in prepared {
        let plan = Baseline::Lonestar.plan(&p, &gpu);
        let run = pagerank::run_sim(&plan);
        let speedup = exact_cycles as f64 / run.elapsed_cycles(&gpu).max(1) as f64;
        let err = relative_l1(&run.values, &reference);
        println!(
            "{:<55} {:>8.2}x {:>11.2}% {:>12}",
            name,
            speedup,
            err * 100.0,
            p.report.edges_added
        );
    }

    println!("\n(preprocessing is a one-time cost amortized over repeated runs — paper §1)");
}
