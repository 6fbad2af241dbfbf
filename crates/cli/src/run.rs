//! `graffix run` — one algorithm on one (optionally transformed) graph:
//! simulated cost, inaccuracy against the exact CPU reference, cost
//! breakdown.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{self, build_pipeline, emit_report, load, prepare, value_bytes, write_file};
use graffix::log_info;
use graffix::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

pub const SUB: Sub = Sub {
    name: "run",
    usage: "\
--in FILE --algo sssp|bfs|pr|bc|scc|mst|wcc
[--technique coalescing|latency|divergence|combined] [--threshold T]
[--baseline lonestar|tigr|gunrock] [--direction push|pull|auto]
[--segment-bytes N] [--report-json FILE] [--values-out FILE]
--threshold sets the technique's primary knob (connectedness, CC or
degreeSim threshold, in [0, 1]); exact and combined have none and
reject it
--direction steers frontier supersteps: push scatters over the CSR,
pull gathers over a cached CSC mirror, auto picks per superstep from
frontier density
--segment-bytes runs supersteps segment-major over cache-sized CSR
partitions (byte-identical results; empty-frontier segments are
skipped, and resident segments price at L2)
--values-out writes the raw little-endian f64 result vector, for
byte-level comparison across execution modes",
    parse: |bag| parse(bag).map(Command::Run),
};

pub struct Args {
    pub input: PathBuf,
    pub algo: Algo,
    pub technique: Technique,
    pub threshold: Option<f64>,
    pub baseline: Baseline,
    pub direction: Direction,
    pub segment_bytes: Option<usize>,
    pub report_json: Option<PathBuf>,
    pub values_out: Option<PathBuf>,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let (technique, threshold) = common::technique(bag, false)?;
    Ok(Args {
        input: bag.req("in")?,
        algo: bag.req_with("algo", Algo::parse)?,
        technique,
        threshold,
        baseline: common::baseline(bag)?,
        direction: common::direction(bag)?,
        segment_bytes: common::segment_bytes(bag)?,
        report_json: bag.opt("report-json")?,
        values_out: bag.opt("values-out")?,
    })
}

pub fn run(args: Args, gpu: &GpuConfig, cache: &CacheConfig) {
    let algo = args.algo;
    let g = load(&args.input);
    let source = common::source(algo, &g, &args.input);
    let pipeline = build_pipeline(&g, args.technique, args.threshold);
    let prepared = prepare(&g, &pipeline, gpu, cache);
    let mut plan = args
        .baseline
        .plan(&prepared, gpu)
        .with_direction(args.direction);
    let segmented = match args.segment_bytes {
        Some(bytes) if plan.identity_attrs() => {
            let segs = Segmentation::build(&plan.graph, bytes);
            log_info!(
                "segments: {} at budget {} bytes (max resident {} bytes, {} boundary arcs)",
                segs.len(),
                bytes,
                segs.max_segment_bytes(plan.graph.is_weighted()),
                segs.boundary_edges()
            );
            plan = plan.with_segments(Arc::new(segs));
            true
        }
        Some(_) => {
            eprintln!("--segment-bytes needs an identity-attribute plan; this baseline remaps attributes, running flat");
            false
        }
        None => false,
    };
    let trace = match args.report_json {
        Some(_) => instrument_plan(&mut plan, &prepared),
        None => plan.trace.clone(), // disabled: zero-cost no-op sink
    };

    let (run, scalar) = algo.run(&plan, &g, source, common::BC_SOURCES);
    let exact = algo.exact(&g, source, common::BC_SOURCES);
    let summary = match (scalar, &exact) {
        (Some(Scalar::Components(c)), AlgoOutcome::Scalar(e)) => {
            format!("{c} components (exact {e})")
        }
        (Some(Scalar::Weight(w)), AlgoOutcome::Scalar(e)) => {
            format!("forest weight {w} (exact {e})")
        }
        _ => {
            let from = match source {
                Some(src) => format!("source {src}, "),
                None if algo == Algo::Bc => {
                    let sources = bc::sample_sources(&g, common::BC_SOURCES);
                    format!("{} sources, ", sources.len())
                }
                None => String::new(),
            };
            let err = AlgoOutcome::of(&run, scalar).inaccuracy(&exact);
            format!("{from}inaccuracy {:.2}%", err * 100.0)
        }
    };
    println!("{summary}");
    println!(
        "elapsed {} simulated cycles ({:.6} simulated s)",
        run.stats.elapsed_cycles(gpu),
        run.stats.elapsed_seconds(gpu)
    );
    if segmented {
        println!(
            "segments {} processed, {} skipped (empty frontier)",
            run.stats.segments_processed, run.stats.segments_skipped
        );
    }
    print!("{}", CostBreakdown::attribute(&run.stats, gpu));
    if let Some(out) = &args.values_out {
        write_file(out, value_bytes(&run.values));
        log_info!(
            "wrote {} result values to {}",
            run.values.len(),
            out.display()
        );
    }
    if args.report_json.is_some() {
        let name = algo.name();
        let report = assemble_report("run", name, &prepared, args.baseline, &plan, &run, &trace);
        emit_report(&report, args.report_json.as_deref(), false);
    }
}
