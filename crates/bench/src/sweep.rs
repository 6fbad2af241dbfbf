//! Measures what the memoized query graph buys a knob sweep: the combined
//! pipeline is applied across several degreeSim thresholds through one
//! shared in-memory [`QueryCtx`], so the coalescing and latency stages run
//! once and every later sweep cell recomputes only the normalize stage
//! (`graffix bench --stage-sweep`).

use graffix_core::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs, Pipeline, QueryCtx, StageStatus};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_sim::GpuConfig;
use std::time::Instant;

const THRESHOLDS: [f64; 4] = [0.2, 0.3, 0.4, 0.5];

/// Runs the sweep on an rmat graph, printing one row per config (wall
/// seconds, per-stage statuses, ratio vs the cold first config). Returns
/// false if any warm config recomputes a stage upstream of normalize or
/// fails to come in under 50% of the cold one — the regression bar
/// recorded in EXPERIMENTS.md.
pub fn stage_sweep(nodes: usize, seed: u64) -> bool {
    let g = GraphSpec::new(GraphKind::Rmat, nodes, seed).generate();
    let cfg = GpuConfig::k40c();
    let mut ctx = QueryCtx::memory();

    println!(
        "stage_sweep: combined pipeline on rmat n={} (|E|={}), degreeSim sweep {:?}",
        g.num_nodes(),
        g.num_edges(),
        THRESHOLDS
    );
    println!("{:<6} {:>9} {:>7}  stages", "thr", "seconds", "vs-cold");

    let mut cold_seconds = 0.0f64;
    let mut ok = true;
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        let pipe = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .with_latency(LatencyKnobs::default())
            .with_divergence(DivergenceKnobs::default().with_threshold(t));
        let start = Instant::now();
        let p = pipe
            .try_apply_with(&g, &cfg, &mut ctx)
            .expect("valid knobs");
        let seconds = start.elapsed().as_secs_f64();
        p.validate().expect("valid preparation");

        let statuses: Vec<String> = ctx
            .records()
            .iter()
            .map(|r| format!("{}:{}", r.stage, r.status.label()))
            .collect();
        if i == 0 {
            cold_seconds = seconds;
            println!(
                "{t:<6} {seconds:>9.3} {:>7}  {}",
                "cold",
                statuses.join(" ")
            );
            continue;
        }

        let ratio = seconds / cold_seconds.max(1e-9);
        println!(
            "{t:<6} {seconds:>9.3} {:>6.0}%  {}",
            ratio * 100.0,
            statuses.join(" ")
        );
        // Warm cells must reuse every stage upstream of normalize…
        for r in ctx.records() {
            if r.stage != "normalize" && r.status == StageStatus::Recomputed {
                eprintln!("FAIL: warm cell recomputed upstream stage {}", r.stage);
                ok = false;
            }
        }
        // …and come in well under the cold preprocess time.
        if ratio >= 0.5 {
            eprintln!(
                "FAIL: warm config thr={t} took {:.0}% of cold (bar: <50%)",
                ratio * 100.0
            );
            ok = false;
        }
    }
    if ok {
        println!("ok: every warm config under 50% of cold preprocess time");
    }
    ok
}
