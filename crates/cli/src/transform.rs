//! `graffix transform` — apply one technique and save the prepared graph.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{self, load, prepare, save};
use graffix::log_info;
use graffix::prelude::*;
use std::path::PathBuf;

pub const SUB: Sub = Sub {
    name: "transform",
    usage: "\
--in FILE --technique coalescing|latency|divergence|combined [--threshold T] --out FILE
prints the preprocess phases, node/edge deltas and space overhead
--threshold sets the technique's primary knob, in [0, 1]; combined has
none and rejects it",
    parse: |bag| parse(bag).map(Command::Transform),
};

pub struct Args {
    pub input: PathBuf,
    pub technique: Technique,
    pub threshold: Option<f64>,
    pub out: PathBuf,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let (technique, threshold) = common::technique(bag, true)?;
    Ok(Args {
        input: bag.req("in")?,
        technique,
        threshold,
        out: bag.req("out")?,
    })
}

pub fn run(args: Args, gpu: &GpuConfig, cache: &CacheConfig) {
    let g = load(&args.input);
    let pipeline = technique_pipeline(&g, args.technique, args.threshold).unwrap_or_default();
    let prepared = prepare(&g, &pipeline, gpu, cache);
    save(&prepared.graph, &args.out);
    let r = &prepared.report;
    println!("technique        {}", r.technique_label);
    println!("preprocess       {:.3}s", r.preprocess_seconds);
    for p in &r.phase_seconds {
        println!("  {:<14} {:.3}s", p.phase, p.seconds);
    }
    println!("nodes            {} -> {}", r.original_nodes, r.new_nodes);
    println!(
        "edges            {} -> {} (+{})",
        r.original_edges, r.new_edges, r.edges_added
    );
    println!(
        "replicas         {} (holes {}/{})",
        r.replicas, r.holes_filled, r.holes_created
    );
    println!("space overhead   {:.1}%", r.space_overhead * 100.0);
    log_info!("wrote {}", args.out.display());
}
