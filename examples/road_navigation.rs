//! Repeated shortest-path queries on a road network — the workload that
//! justifies preprocessing in navigation services. Runs a batch of SSSP
//! queries under all three baselines (LonestarGPU-, Tigr-, and
//! Gunrock-style execution) on the exact and the divergence-transformed
//! graph, reporting per-baseline speedups — the structure of the paper's
//! Tables 8, 11, and 14.
//!
//! ```text
//! cargo run --release --example road_navigation [nodes] [queries]
//! ```

use graffix::prelude::*;

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    let queries: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("generating a USA-road-like network with ~{nodes} nodes ...");
    let graph = GraphSpec::new(GraphKind::Road, nodes, 3).generate();
    let gpu = GpuConfig::k40c();
    let n = graph.num_nodes();
    let sources: Vec<NodeId> = (0..queries)
        .map(|i| ((i * n) / queries) as NodeId)
        .collect();

    let exact = Prepared::exact(graph.clone());
    let transformed = Pipeline::default()
        .with_divergence(DivergenceKnobs::default())
        .apply(&graph, &gpu);

    println!(
        "\n{:<28} {:>14} {:>14} {:>9} {:>12}",
        "baseline", "exact cycles", "approx cycles", "speedup", "inaccuracy"
    );
    for baseline in ALL_BASELINES {
        let exact_plan = baseline.plan(&exact, &gpu);
        let approx_plan = baseline.plan(&transformed, &gpu);
        let mut exact_cycles = 0u64;
        let mut approx_cycles = 0u64;
        let mut worst_err: f64 = 0.0;
        for &s in &sources {
            let e = sssp::run_sim(&exact_plan, s);
            let a = sssp::run_sim(&approx_plan, s);
            exact_cycles += e.elapsed_cycles(&gpu);
            approx_cycles += a.elapsed_cycles(&gpu);
            let reference = sssp::exact_cpu(&graph, s);
            worst_err = worst_err.max(relative_l1(&a.values, &reference));
        }
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}x {:>11.2}%",
            baseline.label(),
            exact_cycles,
            approx_cycles,
            exact_cycles as f64 / approx_cycles.max(1) as f64,
            worst_err * 100.0
        );
    }

    println!(
        "\n({} queries; divergence transform added {} edges, {:.1}% extra space)",
        queries,
        transformed.report.edges_added,
        transformed.report.space_overhead * 100.0
    );
}
