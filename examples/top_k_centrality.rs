//! §1's betweenness-centrality use case: "estimate a set of k nodes with
//! the largest betweenness centrality in a network faster without computing
//! the exact BC values". Exact parallel BC "may take days for a
//! billion-scale network" — Graffix trades a little rank fidelity for
//! faster execution, and what the application consumes is the top-k *set*,
//! which is far more robust than the raw values.
//!
//! ```text
//! cargo run --release --example top_k_centrality [nodes] [k]
//! ```

use graffix::prelude::*;
use std::collections::HashSet;

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let k: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    println!("generating a LiveJournal-like social network with {nodes} nodes ...");
    let graph = GraphSpec::new(GraphKind::SocialLiveJournal, nodes, 11).generate();
    let gpu = GpuConfig::k40c();
    let sources = bc::sample_sources(&graph, 8);

    // Exact simulated run and CPU reference.
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
    let exact_run = bc::run_sim(&exact_plan, &sources);
    let reference = bc::exact_cpu(&graph, &sources);

    // Approximate run on the coalescing-transformed graph.
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::SocialLiveJournal))
        .apply(&graph, &gpu);
    let approx_plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let approx_run = bc::run_sim(&approx_plan, &sources);

    let speedup =
        exact_run.elapsed_cycles(&gpu) as f64 / approx_run.elapsed_cycles(&gpu).max(1) as f64;
    let value_err = relative_l1(&approx_run.values, &reference);

    // What the application consumes: the top-k set.
    let exact_top: HashSet<NodeId> = bc::top_k(&reference, k).into_iter().collect();
    let approx_top: HashSet<NodeId> = bc::top_k(&approx_run.values, k).into_iter().collect();
    let overlap = exact_top.intersection(&approx_top).count();

    println!(
        "\nbetweenness centrality over {} sampled sources:",
        sources.len()
    );
    println!("  speedup:             {speedup:.2}x");
    println!("  raw value inaccuracy: {:.1}%", value_err * 100.0);
    println!(
        "  top-{k} set overlap:   {overlap}/{k} ({:.0}%)",
        100.0 * overlap as f64 / k as f64
    );
    println!("\ntop-{k} (approximate): {:?}", {
        let mut v: Vec<_> = approx_top.iter().copied().collect();
        v.sort_unstable();
        v
    });
}
