//! `graffix report verify FILE` — schema-verify a run report from disk.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use graffix::prelude::*;
use std::path::PathBuf;
use std::process::exit;

pub const SUB: Sub = Sub {
    name: "report",
    usage: "\
verify FILE
schema-verify a run report (v1 or v2) from disk",
    parse: |bag| parse(bag).map(Command::Report),
};

pub struct Args {
    pub path: PathBuf,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    match (bag.positional().as_deref(), bag.positional()) {
        (Some("verify"), Some(path)) => Ok(Args { path: path.into() }),
        (Some("verify") | None, _) => Err("report needs: verify FILE".to_string()),
        (Some(action), _) => Err(format!("unknown report action: {action}")),
    }
}

pub fn run(args: Args) {
    let path = args.path.display();
    let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("{path}: {what}: {e}");
        exit(1);
    };
    let text = std::fs::read_to_string(&args.path).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| fail("invalid JSON", &e));
    let report = RunReport::from_json(&doc).unwrap_or_else(|e| fail("not a valid run report", &e));
    if let Err(e) = report.verify() {
        fail("verification FAILED", &e);
    }
    let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "ok: {path} (schema v{version}, algo {}, technique {}, {} spans, {} supersteps{}{})",
        report.algo,
        report.technique,
        report.trace.spans.len(),
        report.trace.snapshots.len(),
        if report.accuracy.is_some() {
            ", accuracy"
        } else {
            ""
        },
        if report.provenance.is_some() {
            ", provenance"
        } else {
            ""
        },
    );
}
