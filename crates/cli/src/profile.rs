//! `graffix profile` — print the graph's structural profile and the knobs
//! tuned from it, then execute one algorithm with the observability layer
//! on and emit the `graffix.run-report` v2 JSON document.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{self, emit_report, load, prepare};
use graffix::log_info;
use graffix::prelude::*;
use std::path::PathBuf;

pub const SUB: Sub = Sub {
    name: "profile",
    usage: "\
--in FILE [--seed S] [--algo A] [--technique T] [--threshold X] [--baseline B]
[--bc-sources N] [--accuracy on|off] [--direction push|pull|auto]
[--report-json FILE]
traced run -> JSON report (v2: accuracy attribution + provenance), to
FILE or stdout; the knobs printed are the knobs the run prepares with",
    parse: |bag| parse(bag).map(Command::Profile),
};

pub struct Args {
    pub input: PathBuf,
    pub seed: u64,
    pub algo: Algo,
    pub technique: Technique,
    pub threshold: Option<f64>,
    pub baseline: Baseline,
    pub bc_sources: usize,
    pub accuracy: bool,
    pub direction: Direction,
    pub report_json: Option<PathBuf>,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let on_off = |raw: &str| match raw {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    };
    let (technique, threshold) = common::technique(bag, false)?;
    Ok(Args {
        input: bag.req("in")?,
        seed: bag.opt("seed")?.unwrap_or(TUNING_SEED),
        algo: bag.opt_with("algo", Algo::parse)?.unwrap_or(Algo::Sssp),
        technique,
        threshold,
        baseline: common::baseline(bag)?,
        bc_sources: bag.opt("bc-sources")?.unwrap_or(4),
        accuracy: bag.opt_with("accuracy", on_off)?.unwrap_or(true),
        direction: common::direction(bag)?,
        report_json: bag.opt("report-json")?,
    })
}

pub fn run(args: Args, gpu: &GpuConfig, cache: &CacheConfig) {
    let g = load(&args.input);
    // The traced run resolves the same source; a graph without one is
    // refused here, before any profiling.
    common::source(args.algo, &g, &args.input);
    let tuned = auto_tune(&g, args.seed);
    let p = tuned.profile;
    // Structural/knob diagnostics go to stderr so stdout can stay a pure
    // JSON document when no --report-json path is given.
    log_info!("nodes           {}", p.nodes);
    log_info!("edges           {}", p.edges);
    log_info!("max degree      {}", p.max_degree);
    log_info!("mean degree     {:.2}", p.mean_degree);
    log_info!(
        "degree skew     {:.1} ({})",
        p.skew,
        if p.power_law_like {
            "power-law-like"
        } else {
            "near-uniform"
        }
    );
    log_info!("avg clustering  {:.4}", p.avg_clustering);
    log_info!("");
    log_info!("recommended knobs (paper section 5 guidelines):");
    log_info!(
        "  coalescing  connectedness threshold {:.2}, k {}",
        tuned.coalesce.threshold,
        tuned.coalesce.chunk_size
    );
    log_info!(
        "  latency     CC threshold {:.2}, edge budget {:.0}%",
        tuned.latency.cc_threshold,
        tuned.latency.edge_budget_frac * 100.0
    );
    log_info!(
        "  divergence  degreeSim threshold {:.2}, fill {:.0}%",
        tuned.divergence.degree_sim_threshold,
        tuned.divergence.fill_fraction * 100.0
    );

    let pipeline = tuned.pipeline(args.technique, args.threshold);
    let prepared = prepare(&g, &pipeline, gpu, cache);
    let traced = observed_run(
        RunSpec {
            command: "profile",
            algo: args.algo,
            baseline: args.baseline,
            bc_sources: args.bc_sources,
            direction: args.direction,
            accuracy: args.accuracy,
            pipeline: Some(&pipeline),
        },
        &g,
        &prepared,
        gpu,
    );
    emit_report(&traced.report, args.report_json.as_deref(), true);
}
