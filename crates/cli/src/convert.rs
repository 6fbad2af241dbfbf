//! `graffix convert` — re-encode a graph file by extension.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{load, save};
use graffix::log_info;
use std::path::PathBuf;

pub const SUB: Sub = Sub {
    name: "convert",
    usage: "\
--in FILE --out FILE
edge list / DIMACS .gr / binary .gfx, picked by each file's extension",
    parse: |bag| parse(bag).map(Command::Convert),
};

pub struct Args {
    pub input: PathBuf,
    pub out: PathBuf,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    Ok(Args {
        input: bag.req("in")?,
        out: bag.req("out")?,
    })
}

pub fn run(args: Args) {
    save(&load(&args.input), &args.out);
    log_info!(
        "converted {} -> {}",
        args.input.display(),
        args.out.display()
    );
}
