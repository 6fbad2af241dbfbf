//! `graffix generate` — one synthetic graph of the paper's input suite.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::save;
use graffix::log_info;
use graffix::prelude::*;
use std::path::PathBuf;

pub const SUB: Sub = Sub {
    name: "generate",
    usage: "\
--kind rmat|random|livejournal|twitter|road [--nodes N] [--seed S] --out FILE",
    parse: |bag| parse(bag).map(Command::Generate),
};

pub struct Args {
    pub spec: GraphSpec,
    pub out: PathBuf,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let kind = bag.req_with("kind", GraphKind::from_key)?;
    let nodes = bag.opt("nodes")?.unwrap_or(4096);
    let seed = bag.opt("seed")?.unwrap_or(1);
    Ok(Args {
        spec: GraphSpec::new(kind, nodes, seed),
        out: bag.req("out")?,
    })
}

pub fn run(args: Args) {
    let g = args.spec.generate();
    save(&g, &args.out);
    log_info!(
        "wrote {} ({} nodes, {} edges)",
        args.out.display(),
        g.num_nodes(),
        g.num_edges()
    );
}
