//! What several subcommands share: graph file I/O by extension, the
//! cached prepare with its stderr log, report emission, and the flag
//! parsers for values more than one subcommand takes.

use crate::args::{Bag, Parsed};
use graffix::log_info;
use graffix::prelude::*;
use graffix_graph::io as gio;
use graffix_server::Bind;
use std::path::{Path, PathBuf};
use std::process::exit;

/// BC source-sample size of `run` and `stream` (`profile` has a flag).
pub const BC_SOURCES: usize = 4;

/// Reads a graph file by extension ([`gio::load_graph_file`]). Exits 1
/// with the reason on failure.
pub fn load(path: &Path) -> Csr {
    gio::load_graph_file(path).unwrap_or_else(|e| {
        eprintln!("could not read {}: {e}", path.display());
        exit(1);
    })
}

/// Writes a graph file by extension ([`gio::save_graph_file`]). Exits 1
/// with the reason on failure.
pub fn save(g: &Csr, path: &Path) {
    if let Err(e) = gio::save_graph_file(g, path) {
        eprintln!("could not write {}: {e}", path.display());
        exit(1);
    }
}

/// Exits 1 with the reason when `path` cannot be written.
pub fn write_file(path: &Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {}: {e}", path.display());
        exit(1);
    }
}

/// A result vector as raw little-endian f64 bits.
pub fn value_bytes(values: &[f64]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

/// The source `algo` starts from on the graph read from `path` (`None`
/// for algorithms without one). Exits 1 naming the graph when a traversal
/// has none.
pub fn source(algo: Algo, g: &Csr, path: &Path) -> Option<NodeId> {
    algo.source(g, None).unwrap_or_else(|e| {
        eprintln!("cannot run on {}: {e}", path.display());
        exit(1);
    })
}

/// Applies `pipeline` through the prepared-graph cache, logging the cache
/// and per-stage outcome to stderr.
pub fn prepare(g: &Csr, pipeline: &Pipeline, gpu: &GpuConfig, cache: &CacheConfig) -> Prepared {
    // Diagnose invalid knob combinations instead of panicking: transform
    // configuration errors are user errors, not internal bugs.
    let (prepared, outcome) = prepare_with_cache(g, pipeline, gpu, cache).unwrap_or_else(|e| {
        eprintln!("invalid transform configuration: {e}");
        exit(2);
    });
    log_info!("cache: {}", outcome.status.label());
    if let CacheStatus::MissStoreFailed(detail) = &outcome.status {
        log_info!("cache store failed: {detail}");
    }
    for rec in &outcome.stages {
        log_stage(rec);
        if let Some(err) = &rec.store_error {
            log_info!("stage {} store failed: {err}", rec.stage);
        }
    }
    prepared
}

/// One `stage <name> <status> <seconds>` stderr line.
pub fn log_stage(rec: &StageRecord) {
    log_info!(
        "stage {:<12} {:<10} {:.3}s",
        rec.stage,
        rec.status.label(),
        rec.seconds
    );
}

/// Writes a run report to `path`, or stdout when `path` is `None` and
/// `stdout_fallback` is set.
pub fn emit_report(report: &RunReport, path: Option<&Path>, stdout_fallback: bool) {
    if let Err(e) = report.verify() {
        eprintln!("internal error: run report failed verification: {e}");
        exit(1);
    }
    let text = report.to_pretty_string();
    match path {
        Some(p) => {
            write_file(p, &text);
            log_info!("wrote report {}", p.display());
        }
        None if stdout_fallback => print!("{text}"),
        None => {}
    }
}

/// `--segment-bytes N` as a validated byte budget, `None` when absent.
pub fn segment_bytes(bag: &mut Bag) -> Parsed<Option<usize>> {
    let Some(bytes) = bag.opt::<usize>("segment-bytes")? else {
        return Ok(None);
    };
    match SegmentKnobs::default().with_segment_bytes(bytes).validate() {
        Ok(()) => Ok(Some(bytes)),
        Err(e) => Err(format!("bad --segment-bytes value: {e}")),
    }
}

/// `--technique T` (`exact` when absent and not `required`) with
/// `--threshold X`, the override of its primary knob — judged here, before
/// any file is opened: a usage error where the technique has no primary
/// knob or the value is outside [0, 1].
pub fn technique(bag: &mut Bag, required: bool) -> Parsed<(Technique, Option<f64>)> {
    let technique = if required {
        bag.req_with("technique", Technique::from_key)?
    } else {
        bag.opt_with("technique", Technique::from_key)?
            .unwrap_or(Technique::Exact)
    };
    let threshold = bag.opt::<f64>("threshold")?;
    if let Some(x) = threshold {
        technique
            .check_threshold(x)
            .map_err(|e| format!("bad --threshold value: {e}"))?;
    }
    Ok((technique, threshold))
}

/// `--baseline B`, LonestarGPU when absent.
pub fn baseline(bag: &mut Bag) -> Parsed<Baseline> {
    Ok(bag
        .opt_with("baseline", Baseline::from_key)?
        .unwrap_or(Baseline::Lonestar))
}

/// `--direction D`, push when absent.
pub fn direction(bag: &mut Bag) -> Parsed<Direction> {
    Ok(bag
        .opt_with("direction", Direction::from_key)?
        .unwrap_or(Direction::Push))
}

/// Where `serve` listens or `client` connects: `--unix PATH`, else
/// `--<tcp_flag> HOST:PORT`, else the default loopback port.
pub fn endpoint(bag: &mut Bag, tcp_flag: &str) -> Parsed<Bind> {
    let unix = bag.opt::<PathBuf>("unix")?;
    let tcp = bag.opt::<String>(tcp_flag)?;
    match (unix, tcp) {
        (Some(_), Some(_)) => Err(format!("--unix and --{tcp_flag} are mutually exclusive")),
        #[cfg(unix)]
        (Some(path), None) => Ok(Bind::Unix(path)),
        #[cfg(not(unix))]
        (Some(_), None) => Err("--unix is not supported on this platform".to_string()),
        (None, addr) => Ok(Bind::Tcp(
            addr.unwrap_or_else(|| "127.0.0.1:7411".to_string()),
        )),
    }
}
