//! `graffix client` — one-shot protocol front end. Responses go to stdout
//! verbatim (one JSON document per line).

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::endpoint;
use graffix_server::{Bind, Client};
use std::path::PathBuf;
use std::process::exit;

pub const SUB: Sub = Sub {
    name: "client",
    usage: "\
[--connect HOST:PORT | --unix PATH] and exactly one of:
--request JSON | --file FILE | --raw LINE | --ping | --stats | --shutdown
one-shot protocol client; responses print to stdout, exit 1 if any is an
error response",
    parse: |bag| parse(bag).map(Command::Client),
};

pub enum Action {
    /// One line sent verbatim. `--raw` and `--request` both land here;
    /// `--raw` exists so scripts (and the CI smoke job) can send
    /// deliberately malformed frames without the flag name implying they
    /// are well-formed.
    Line(String),
    /// Every non-blank line of a file, in order.
    File(PathBuf),
    Ping,
    Stats,
    Shutdown,
}

pub struct Args {
    pub endpoint: Bind,
    pub action: Action,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let endpoint = endpoint(bag, "connect")?;
    let mut actions = Vec::new();
    actions.extend(bag.opt("request")?.map(Action::Line));
    actions.extend(bag.opt("raw")?.map(Action::Line));
    actions.extend(bag.opt("file")?.map(Action::File));
    actions.extend(bag.switch("ping")?.then_some(Action::Ping));
    actions.extend(bag.switch("stats")?.then_some(Action::Stats));
    actions.extend(bag.switch("shutdown")?.then_some(Action::Shutdown));
    match (actions.pop(), actions.is_empty()) {
        (Some(action), true) => Ok(Args { endpoint, action }),
        _ => Err(
            "client needs exactly one of --request/--file/--raw/--ping/--stats/--shutdown"
                .to_string(),
        ),
    }
}

pub fn run(args: Args) {
    let mut client = match &args.endpoint {
        Bind::Tcp(addr) => Client::connect_tcp(addr),
        #[cfg(unix)]
        Bind::Unix(path) => Client::connect_unix(path),
    }
    .unwrap_or_else(|e| {
        eprintln!("client: could not connect: {e}");
        exit(1);
    });

    let fail = |e: std::io::Error| -> ! {
        eprintln!("client: {e}");
        exit(1);
    };
    let admin = |doc: std::io::Result<graffix::prelude::Json>| {
        vec![doc.unwrap_or_else(|e| fail(e)).to_compact_string()]
    };
    let responses = match args.action {
        Action::Line(line) => vec![client.call_line(&line).unwrap_or_else(|e| fail(e))],
        Action::File(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("client: could not read {}: {e}", path.display());
                exit(1);
            });
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(|line| client.call_line(line).unwrap_or_else(|e| fail(e)))
                .collect()
        }
        Action::Ping => admin(client.ping()),
        Action::Stats => admin(client.stats()),
        Action::Shutdown => admin(client.shutdown()),
    };
    let mut ok = true;
    for line in responses {
        ok &= !line.contains("\"ok\":false");
        println!("{line}");
    }
    // Error responses are still *answered* requests — exit 1 so scripts
    // can assert on outcomes, after printing everything.
    if !ok {
        exit(1);
    }
}
