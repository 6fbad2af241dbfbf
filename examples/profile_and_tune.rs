//! Auto-tuning and profiling: measure a graph's structure, apply the
//! paper's §5 threshold guidelines automatically, and break down where the
//! simulated GPU cycles go before and after each transform.
//!
//! ```text
//! cargo run --release --example profile_and_tune [nodes]
//! ```

use graffix::prelude::*;

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let gpu = GpuConfig::k40c();

    for kind in [GraphKind::Rmat, GraphKind::Road] {
        let graph = GraphSpec::new(kind, nodes, 13).generate();
        let tuned = auto_tune(&graph, 13);
        let p = tuned.profile;
        println!("=== {} ===", kind.paper_name());
        println!(
            "  |V| {} |E| {}  max-deg {}  skew {:.1} ({})  avg-CC {:.4}",
            p.nodes,
            p.edges,
            p.max_degree,
            p.skew,
            if p.power_law_like {
                "power-law"
            } else {
                "uniform"
            },
            p.avg_clustering
        );
        println!(
            "  auto-tuned knobs: connectedness {:.2} | CC {:.2} | degreeSim {:.2}",
            tuned.coalesce.threshold,
            tuned.latency.cc_threshold,
            tuned.divergence.degree_sim_threshold
        );

        // Exact run with cost attribution.
        let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
        let exact = pagerank::run_sim(&exact_plan);
        println!("\n  exact PageRank:");
        for line in CostBreakdown::attribute(&exact.stats, &gpu)
            .to_string()
            .lines()
        {
            println!("  {line}");
        }

        // Auto-tuned transforms, same attribution.
        for technique in [
            Technique::Coalescing,
            Technique::Latency,
            Technique::Divergence,
        ] {
            let name = technique.key();
            let prepared = tuned.pipeline(technique, None).apply(&graph, &gpu);
            let run = pagerank::run_sim(&Baseline::Lonestar.plan(&prepared, &gpu));
            let b = CostBreakdown::attribute(&run.stats, &gpu);
            println!(
                "  {name:<11} speedup {:.2}x  mem-bound {:.0}%  elapsed {}",
                exact.elapsed_cycles(&gpu) as f64 / run.elapsed_cycles(&gpu).max(1) as f64,
                b.memory_bound_fraction() * 100.0,
                b.elapsed_cycles
            );
        }
        println!();
    }
}
