//! The paper's motivating amortization scenario (§1): a 2-approximate
//! Steiner tree (Kou–Markowsky–Berman) needs SSSP from *every* terminal, so
//! the one-time Graffix preprocessing is amortized over many runs on the
//! same transformed graph.
//!
//! We compute the KMB approximation on the exact graph and on the
//! coalescing-transformed graph, comparing total simulated GPU time
//! (including a per-run share of preprocessing) and the resulting tree
//! weights.
//!
//! ```text
//! cargo run --release --example steiner_tree [nodes] [terminals]
//! ```

use graffix::prelude::*;

/// KMB step 1-2: run SSSP from every terminal, build the terminal distance
/// closure, and take its MST (host-side Prim over the terminal set).
/// Returns (simulated cycles spent in SSSP, Steiner tree weight estimate).
fn kmb(plan: &Plan, terminals: &[NodeId], gpu: &GpuConfig) -> (u64, f64) {
    let mut cycles = 0u64;
    let mut dist_rows: Vec<Vec<f64>> = Vec::with_capacity(terminals.len());
    for &t in terminals {
        let run = sssp::run_sim(plan, t);
        cycles += run.elapsed_cycles(gpu);
        dist_rows.push(run.values);
    }
    // MST over the terminal closure (Prim, host side).
    let k = terminals.len();
    let mut in_tree = vec![false; k];
    let mut best = vec![f64::INFINITY; k];
    in_tree[0] = true;
    for j in 1..k {
        best[j] = dist_rows[0][terminals[j] as usize];
    }
    let mut weight = 0.0;
    for _ in 1..k {
        let (next, w) = best
            .iter()
            .enumerate()
            .filter(|(j, _)| !in_tree[*j])
            .map(|(j, &w)| (j, w))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("disconnected terminal set");
        in_tree[next] = true;
        if w.is_finite() {
            weight += w;
        }
        for j in 0..k {
            if !in_tree[j] {
                best[j] = best[j].min(dist_rows[next][terminals[j] as usize]);
            }
        }
    }
    (cycles, weight)
}

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    let num_terminals: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    // A road network — the classic Steiner setting (wiring layout, network
    // design).
    println!("generating a road network with ~{nodes} nodes ...");
    let graph = GraphSpec::new(GraphKind::Road, nodes, 7).generate();
    let gpu = GpuConfig::k40c();

    // Deterministic, spread-out terminals: every (n/k)-th node by id.
    let n = graph.num_nodes();
    let terminals: Vec<NodeId> = (0..num_terminals)
        .map(|i| ((i * n) / num_terminals) as NodeId)
        .collect();
    println!("terminals: {terminals:?}");

    // Exact runs.
    let exact_plan = Baseline::Lonestar.plan(&Prepared::exact(graph.clone()), &gpu);
    let (exact_cycles, exact_weight) = kmb(&exact_plan, &terminals, &gpu);

    // Transformed runs: one preprocessing, many SSSP executions.
    let prepared = Pipeline::default()
        .with_coalesce(CoalesceKnobs::for_kind(GraphKind::Road))
        .apply(&graph, &gpu);
    let approx_plan = Baseline::Lonestar.plan(&prepared, &gpu);
    let (approx_cycles, approx_weight) = kmb(&approx_plan, &terminals, &gpu);

    println!("\nKMB 2-approximate Steiner tree over {num_terminals} terminals:");
    println!("  exact:      {exact_cycles:>12} simulated cycles, tree weight {exact_weight:.0}");
    println!("  graffix:    {approx_cycles:>12} simulated cycles, tree weight {approx_weight:.0}");
    println!(
        "  speedup over the whole workload: {:.2}x",
        exact_cycles as f64 / approx_cycles.max(1) as f64
    );
    println!(
        "  tree-weight deviation: {:.2}%",
        scalar_inaccuracy(approx_weight, exact_weight) * 100.0
    );
    println!(
        "  one-time preprocessing: {:.3}s host time, amortized over {} SSSP runs",
        prepared.report.preprocess_seconds, num_terminals
    );
}
