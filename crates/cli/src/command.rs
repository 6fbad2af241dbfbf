//! The typed command line: argv is parsed exactly once, here, into a
//! [`Command`] whose argument structs already hold the library's types.
//! Every name (algorithm, technique, baseline, direction, generator kind)
//! and every number is checked before any file is opened, so a subcommand
//! is a `fn(Args)` that cannot fail on its arguments.

use crate::args::{Bag, Parsed};
use crate::{
    bench, client, convert, generate, info, profile, report, run, serve, stream, transform,
};
use graffix::prelude::{CacheConfig, GpuConfig};
use std::path::PathBuf;

pub enum Command {
    Generate(generate::Args),
    Convert(convert::Args),
    Info(info::Args),
    Profile(profile::Args),
    Transform(transform::Args),
    Run(run::Args),
    Stream(stream::Args),
    Bench(bench::BenchMode),
    Report(report::Args),
    Serve(serve::Args),
    Client(client::Args),
}

/// One subcommand's declaration, made in its module: its name, its usage
/// block (synopsis first, continuation and description lines after), and
/// its parser. The usage text, `main.rs`'s header and the dispatch all
/// derive from [`SUBCOMMANDS`].
pub struct Sub {
    pub name: &'static str,
    pub usage: &'static str,
    pub parse: fn(&mut Bag) -> Parsed<Command>,
}

pub const SUBCOMMANDS: [Sub; 11] = [
    generate::SUB,
    convert::SUB,
    info::SUB,
    profile::SUB,
    transform::SUB,
    run::SUB,
    stream::SUB,
    bench::SUB,
    report::SUB,
    serve::SUB,
    client::SUB,
];

const GLOBAL_USAGE: &str = "\
every subcommand also takes:
--threads N      host threads for the parallel engine (default:
                 GRAFFIX_THREADS env var, else all cores); results are
                 identical at any thread count
--quiet          silence stderr diagnostics (also: GRAFFIX_LOG=quiet|info|debug)
--cache-dir DIR  prepared-graph cache location (default: target/graffix-cache);
                 transforms are keyed by graph content + knobs + pipeline
                 version, so a warm cache skips preprocessing entirely
--no-cache       bypass the prepared-graph cache (always re-transform)";

/// The flags every subcommand accepts.
pub struct Globals {
    pub threads: Option<usize>,
    pub quiet: bool,
    pub cache: CacheConfig,
}

fn globals(bag: &mut Bag) -> Parsed<Globals> {
    let dir = bag.opt::<PathBuf>("cache-dir")?;
    let cache = match (bag.switch("no-cache")?, dir) {
        (true, _) => CacheConfig::disabled(),
        (false, Some(dir)) => CacheConfig::at(dir),
        (false, None) => CacheConfig::default(),
    };
    Ok(Globals {
        threads: bag.opt("threads")?,
        quiet: bag.switch("quiet")?,
        cache,
    })
}

impl Sub {
    /// The usage block: the name in a 10-column gutter, every further
    /// line indented past it.
    pub fn usage_block(&self) -> String {
        let mut lines = self.usage.lines();
        let mut out = format!("{:<10}{}", self.name, lines.next().unwrap_or(""));
        for line in lines {
            out.push_str(&format!("\n{:<10}{line}", ""));
        }
        out
    }
}

/// The whole usage text: every subcommand's block, then the global flags.
pub fn usage_text() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
    let blocks: Vec<String> = SUBCOMMANDS.iter().map(Sub::usage_block).collect();
    format!(
        "usage: graffix <{}> [--flag [value]]...\n\n{}\n\n{GLOBAL_USAGE}",
        names.join("|"),
        blocks.join("\n")
    )
}

/// A rejected command line: the one-line reason, and the usage text that
/// applies (one subcommand's block, or all of it).
#[derive(Debug)]
pub struct UsageError {
    pub reason: String,
    pub usage: String,
}

pub struct Cli {
    pub globals: Globals,
    pub command: Command,
}

/// Parses everything after the program name.
pub fn parse(argv: &[String]) -> Result<Cli, UsageError> {
    let global = |reason: String| UsageError {
        reason,
        usage: usage_text(),
    };
    let (name, rest) = argv
        .split_first()
        .ok_or_else(|| global("no subcommand given".to_string()))?;
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| global(format!("unknown subcommand: {name}")))?;
    let parsed = || {
        let mut bag = Bag::lex(name, rest)?;
        let globals = globals(&mut bag)?;
        let command = (sub.parse)(&mut bag)?;
        bag.finish()?;
        Ok(Cli { globals, command })
    };
    parsed().map_err(|reason| UsageError {
        reason,
        usage: format!(
            "usage: graffix {}\n(`graffix` alone lists every subcommand and the global flags)",
            sub.usage_block()
        ),
    })
}

impl Command {
    pub fn run(self, globals: Globals) {
        let gpu = GpuConfig::k40c();
        let cache = globals.cache;
        match self {
            Command::Generate(a) => generate::run(a),
            Command::Convert(a) => convert::run(a),
            Command::Info(a) => info::run(a),
            Command::Profile(a) => profile::run(a, &gpu, &cache),
            Command::Transform(a) => transform::run(a, &gpu, &cache),
            Command::Run(a) => run::run(a, &gpu, &cache),
            Command::Stream(a) => stream::run(a, &gpu),
            Command::Bench(mode) => bench::run(mode, &cache),
            Command::Report(a) => report::run(a),
            Command::Serve(a) => serve::run(a, cache),
            Command::Client(a) => client::run(a),
        }
    }
}

#[cfg(test)]
mod tests;
