//! `graffix info FILE` — structural summary plus the flat vs segmented
//! peak-resident-bytes estimate at the given `--segment-bytes` budget.
//! Everything prints to stdout; no simulation runs.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{load, segment_bytes};
use graffix::graph::segment::{bytes_per_edge, BYTES_PER_NODE};
use graffix::prelude::*;
use std::path::PathBuf;

pub const SUB: Sub = Sub {
    name: "info",
    usage: "\
FILE [--segment-bytes N]
node/edge counts, degree stats, and the flat vs segmented
peak-resident estimate (segment count at the given budget;
default 1572864 bytes = a K40c's 1.5 MiB L2)",
    parse: |bag| parse(bag).map(Command::Info),
};

pub struct Args {
    pub path: PathBuf,
    pub budget: usize,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let path = match bag.positional() {
        Some(p) => PathBuf::from(p),
        None => bag.req("in")?,
    };
    let budget = segment_bytes(bag)?.unwrap_or(SegmentKnobs::default().segment_bytes);
    Ok(Args { path, budget })
}

pub fn run(args: Args) {
    let Args { path, budget } = args;
    let g = load(&path);
    let n = g.num_nodes();
    let m = g.num_edges();
    let holes = g.num_holes();
    let occupied = (n - holes).max(1);
    let mut max_deg = 0usize;
    for v in 0..n as NodeId {
        max_deg = max_deg.max(g.degree(v));
    }
    let mean_deg = m as f64 / occupied as f64;
    let weighted = g.is_weighted();
    let flat_bytes = n * BYTES_PER_NODE + m * bytes_per_edge(weighted);

    let segs = Segmentation::build(&g, budget);
    let seg_bytes = segs.max_segment_bytes(weighted);
    let boundary = segs.boundary_edges();

    println!("graph            {}", path.display());
    println!(
        "nodes            {n} ({holes} holes), {}",
        if weighted { "weighted" } else { "unweighted" }
    );
    println!("edges            {m}");
    println!("degree           max {max_deg}, mean {mean_deg:.2}");
    println!("flat resident    {flat_bytes} bytes (whole CSR + node attrs)");
    println!("segment budget   {budget} bytes");
    println!(
        "segments         {} (largest {seg_bytes} bytes resident)",
        segs.len()
    );
    println!(
        "boundary arcs    {boundary} of {m} ({:.1}%)",
        100.0 * boundary as f64 / m.max(1) as f64
    );
    println!(
        "segmented peak   {} bytes ({:.1}% of flat)",
        seg_bytes,
        100.0 * seg_bytes as f64 / flat_bytes.max(1) as f64
    );
}
