//! `graffix` — command-line front end for the library.
//!
//! ```text
//! graffix generate  --kind rmat|random|livejournal|twitter|road [--nodes N] [--seed S] --out FILE
//! graffix convert   --in FILE --out FILE
//! graffix info      FILE [--segment-bytes N]
//! graffix profile   --in FILE [--seed S] [--algo A] [--technique T] [--threshold X] [--baseline B]
//! graffix transform --in FILE --technique coalescing|latency|divergence|combined [--threshold T] --out FILE
//! graffix run       --in FILE --algo sssp|bfs|pr|bc|scc|mst|wcc
//! graffix stream    --in FILE --stream FILE [--algo A] [--technique T] [--threshold T]
//! graffix bench     exactly one mode, with only the flags listed beside it:
//! graffix report    verify FILE
//! graffix serve     --graphs "name=kind:nodes:seed|path,..." [--listen HOST:PORT | --unix PATH]
//! graffix client    [--connect HOST:PORT | --unix PATH] and exactly one of:
//! ```
//!
//! (That block is the first line of every subcommand's declared usage —
//! `command::tests::header_lists_every_subcommand_synopsis` regenerates it
//! and fails when it drifts. `graffix` with no arguments prints the full
//! text, global flags included.)
//!
//! argv is parsed exactly once ([`command::parse`]) into a [`Command`] of
//! per-subcommand argument structs that already hold the library's types;
//! an unknown flag, a repeated flag, a malformed or unknown value, or a
//! flag that does not belong to the chosen `bench` mode is a usage error
//! (exit 2) naming the reason above that subcommand's usage block, before
//! any file is opened. Each subcommand lives in its own module.
//!
//! `profile`, `transform`, and `run` route their transform through the
//! content-addressed prepared-graph cache (`target/graffix-cache/` by
//! default, override with `--cache-dir`, bypass with `--no-cache`) and log
//! a `cache: hit|miss (stored)|...` line to stderr. Human diagnostics go
//! to stderr and can be silenced with `--quiet` (or `GRAFFIX_LOG=quiet`);
//! machine-readable output on stdout stays pure. Run reports are
//! byte-identical at any `--threads` value.
//!
//! Graph files: `.gfx` (binary GFX1), `.gr` (DIMACS), anything else is read
//! as a whitespace edge list.

#![forbid(unsafe_code)]

mod args;
mod bench;
mod client;
mod command;
mod common;
mod convert;
mod generate;
mod info;
mod profile;
mod report;
mod run;
mod serve;
mod stream;
mod transform;

use command::{Command, UsageError};
use graffix::logging;

fn usage(err: &UsageError) -> ! {
    eprintln!("{}\n\n{}", err.reason, err.usage);
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = command::parse(&argv).unwrap_or_else(|e| usage(&e));
    logging::init_from_env();
    if cli.globals.quiet {
        logging::set_level(logging::LogLevel::Quiet);
    }
    // Scoped rayon pool: every parallel superstep inside this command runs
    // on exactly N host threads (the engine is deterministic regardless).
    let command: Command = cli.command;
    match cli.globals.threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool")
            .install(|| command.run(cli.globals)),
        None => command.run(cli.globals),
    }
}
