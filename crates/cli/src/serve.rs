//! `graffix serve` — the long-running daemon. Blocks until a `shutdown`
//! admin op drains it.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{endpoint, segment_bytes};
use graffix::log_info;
use graffix::prelude::CacheConfig;
use graffix_server::{Bind, GraphRegistry, ServeConfig, Server};
use std::process::exit;

pub const SUB: Sub = Sub {
    name: "serve",
    usage: "\
--graphs \"name=kind:nodes:seed|path,...\" [--listen HOST:PORT | --unix PATH]
[--workers N] [--engine-threads N] [--pool-capacity N] [--queue-depth N]
[--segment-bytes N]
long-running daemon: newline-delimited JSON requests, LRU prepared-graph
pool over the disk cache, typed overload rejection, graceful shutdown via
the shutdown op
--segment-bytes runs segment-major over the pool's shared segmentations
(byte-identical results)",
    parse: |bag| parse(bag).map(Command::Serve),
};

pub struct Args {
    /// Everything but the cache, which is a global flag.
    pub config: ServeConfig,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let list: String = bag.opt("graphs")?.unwrap_or_default();
    let graphs = GraphRegistry::parse_list(&list)
        .map_err(|e| format!("bad --graphs: {e} (want \"name=kind:nodes:seed|path,...\")"))?;
    let mut config = ServeConfig::local(graphs);
    config.bind = endpoint(bag, "listen")?;
    config.workers = bag.opt("workers")?.unwrap_or(2);
    config.engine_threads = bag.opt("engine-threads")?.unwrap_or(1);
    config.pool_capacity = bag.opt("pool-capacity")?.unwrap_or(8);
    config.queue_depth = bag.opt("queue-depth")?.unwrap_or(256);
    config.segment_bytes = segment_bytes(bag)?;
    Ok(Args { config })
}

pub fn run(args: Args, cache: CacheConfig) {
    let mut config = args.config;
    config.cache = cache;
    let names: Vec<&str> = config.graphs.names().collect();
    log_info!(
        "serve: {} graphs [{}], {} workers, pool capacity {}, queue depth {}",
        names.len(),
        names.join(", "),
        config.workers,
        config.pool_capacity,
        config.queue_depth
    );
    let bind = config.bind.clone();
    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("serve: could not start: {e}");
        exit(1);
    });
    match (server.local_addr(), bind) {
        (Some(addr), _) => log_info!("serve: listening on {addr}"),
        #[cfg(unix)]
        (None, Bind::Unix(path)) => {
            log_info!("serve: listening on unix socket {}", path.display())
        }
        (None, Bind::Tcp(addr)) => log_info!("serve: listening on {addr}"),
    }
    // Blocks until a `shutdown` op drains the queue and stops the workers.
    server.join();
    log_info!("serve: drained and stopped");
}
