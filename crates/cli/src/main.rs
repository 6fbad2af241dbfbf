//! `graffix` — command-line front end for the library.
//!
//! ```text
//! graffix generate --kind rmat --nodes 4096 --seed 1 --out g.gfx
//! graffix convert  --in graph.txt --out graph.gfx          # edge list/DIMACS -> binary
//! graffix profile  --in g.gfx                              # traced run -> JSON report
//! graffix transform --in g.gfx --technique coalescing --out t.gfx
//! graffix run      --in g.gfx --algo sssp [--technique coalescing] [--baseline lonestar]
//! graffix bench    --save-baseline BENCH_ci.json | --gate BENCH_ci.json
//! graffix bench    --save-serve-baseline SERVE_ci.json | --serve-gate SERVE_ci.json
//! graffix bench    --stream-gate | --segment-gate          [--gate-report FILE]
//! graffix report   verify report.json
//! graffix serve    --graphs "web=rmat:4096:1" [--listen 127.0.0.1:7411]
//! graffix client   --request '{"graph":"web","algo":"bfs"}' [--connect ADDR]
//! ```
//!
//! `profile` executes one algorithm (default `sssp`) with the observability
//! layer enabled and emits a `graffix.run-report` v2 JSON document — spans,
//! per-superstep stats, metrics, cost breakdown, accuracy attribution, and
//! transform provenance — to `--report-json PATH` or stdout. `run` accepts
//! the same `--report-json PATH` to save a report alongside its
//! human-readable output. Reports are byte-identical at any `--threads`
//! value.
//!
//! `bench --save-baseline` measures the deterministic gate corpus and
//! writes a `graffix.bench-baseline` file; `bench --gate` re-measures and
//! fails (exit 1) on perf regressions or accuracy drift. The serve, stream
//! and segment gates share its tail: one verdict table, `FAIL id [label]`
//! lines, an optional `--gate-report FILE`, and thresholds fixed in
//! `graffix_bench::gate::POLICIES` rather than flags.
//!
//! Each subcommand accepts only the flags it reads (an unknown flag or a
//! malformed value is a usage error, exit 2).
//!
//! `profile`, `transform`, and `run` route their transform through the
//! content-addressed prepared-graph cache (`target/graffix-cache/` by
//! default, override with `--cache-dir`, bypass with `--no-cache`) and log
//! a `cache: hit|miss (stored)|...` line to stderr. A warm cache loads the
//! prepared graph bit-identically instead of re-running preprocessing.
//!
//! Human diagnostics go to stderr and can be silenced with `--quiet` (or
//! `GRAFFIX_LOG=quiet`); machine-readable output on stdout stays pure.
//!
//! Graph files: `.gfx` (binary GFX1), `.gr` (DIMACS), anything else is read
//! as a whitespace edge list.
//!
//! `serve` runs the long-lived daemon from `graffix-server`: a newline-
//! delimited JSON protocol over TCP (`--listen`) or a Unix socket
//! (`--unix`), a capacity-bounded LRU pool of prepared graphs backed by
//! the same disk cache, request batching, bounded-queue admission control,
//! and graceful drain on the `shutdown` op. `client` is the matching
//! one-shot front end; `bench --save-serve-baseline`/`--serve-gate` save
//! and gate the serving throughput/latency cells (coarse tolerances — see
//! `graffix_bench::serving`).

use graffix::prelude::*;
use graffix::{log_info, logging};
use graffix_bench::gate::{GateReport, GATE_SCHEMA};
use graffix_bench::serving::SERVE_SCHEMA;
use graffix_bench::{BenchBaseline, ServeBaseline, Suite, SuiteOptions};
use graffix_graph::{io as gio, serialize};
use std::collections::HashMap;
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: graffix <generate|convert|info|profile|transform|run|stream|bench|report|serve|client> [--key value]...\n\
         \n\
         generate  --kind rmat|random|livejournal|twitter|road [--nodes N] [--seed S] --out FILE\n\
         convert   --in FILE --out FILE\n\
         info      FILE [--segment-bytes N]\n\
                   node/edge counts, degree stats, and the flat vs segmented\n\
                   peak-resident estimate (segment count at the given budget;\n\
                   default 1572864 bytes = a K40c's 1.5 MiB L2)\n\
         profile   --in FILE [--seed S] [--algo A] [--technique T] [--baseline B]\n\
                   [--bc-sources N] [--accuracy on|off] [--direction push|pull|auto]\n\
                   [--report-json FILE]\n\
                   traced run -> JSON report (v2: accuracy attribution + provenance)\n\
         transform --in FILE --technique coalescing|latency|divergence|combined [--threshold T] --out FILE\n\
         run       --in FILE --algo sssp|bfs|pr|bc|scc|mst|wcc [--technique ...] [--baseline lonestar|tigr|gunrock]\n\
                   [--direction push|pull|auto] [--segment-bytes N] [--report-json FILE]\n\
                   [--values-out FILE]  raw little-endian f64 result vector, for\n\
                   byte-level comparison across execution modes\n\
                   --direction steers frontier supersteps: push scatters over\n\
                   the CSR, pull gathers over a cached CSC mirror, auto picks\n\
                   per superstep from frontier density\n\
                   --segment-bytes runs supersteps segment-major over cache-\n\
                   sized CSR partitions (byte-identical results; empty-frontier\n\
                   segments are skipped, and resident segments price at L2)\n\
         stream    --in FILE --stream FILE [--algo A] [--technique T] [--threshold T]\n\
                   [--debt-threshold X] [--checkpoint-every N] [--oracle] [--out FILE]\n\
                   ingest batched edge mutations (`+ u v [w]` / `- u v` lines,\n\
                   blank line = batch boundary) and keep the prepared graph up\n\
                   to date incrementally; stale reuse is bounded by the\n\
                   staleness-debt threshold (0 = always exact). Checkpoints run\n\
                   the chosen algorithm every N batches (and at end) and print\n\
                   a result digest; --oracle re-prepares from scratch at each\n\
                   checkpoint and fails on any digest mismatch\n\
         bench     --save-baseline FILE [--nodes N] [--seed S] [--bc-sources N] [--repeats N]\n\
                   [--large-nodes N]  measure the gate corpus and save a bench\n\
                   baseline; --large-nodes adds segmented 2^20-scale bfs/pr\n\
                   cells (default 1048576, 0 to skip)\n\
         bench     --gate FILE\n\
                   re-measure and compare; exit 1 on regression or drift\n\
         bench     --segment-gate [--nodes N] [--seed S] [--segment-bytes N]\n\
                   flat vs segmented on the gate cells: every cell must be\n\
                   byte-identical and at least 5% faster segmented\n\
         bench     --save-serve-baseline FILE [--serve-iterations N]\n\
                   measure the serving scenarios and save a serve baseline\n\
         bench     --serve-gate FILE\n\
                   re-measure serving rps/p99 and compare (coarse 3x bands);\n\
                   exit 1 on collapse\n\
         bench     --stream-gate\n\
                   measure incremental vs full re-prepare under 1% churn and\n\
                   gate on all-reuse stale batches + exact-mode identity\n\
                   every gate prints one verdict table, names failures as\n\
                   `FAIL id [label]`, and takes --gate-report FILE (JSON,\n\
                   graffix.gate-report v2); thresholds are fixed, one policy\n\
                   per metric (see EXPERIMENTS.md)\n\
         report    verify FILE   schema-verify a run report (v1 or v2) from disk\n\
         serve     --graphs \"name=kind:nodes:seed|path,...\" [--listen HOST:PORT | --unix PATH]\n\
                   [--workers N] [--pool-capacity N] [--queue-depth N] [--batch-max N]\n\
                   [--segment-bytes N]  segment-major execution over the pool's\n\
                   shared segmentations (byte-identical results)\n\
                   long-running daemon: newline-delimited JSON requests, LRU\n\
                   prepared-graph pool over the disk cache, request batching,\n\
                   typed overload rejection, graceful shutdown via the\n\
                   shutdown op\n\
         client    [--connect HOST:PORT | --unix PATH] one of:\n\
                   --request JSON | --file FILE | --raw LINE | --ping | --stats | --shutdown\n\
                   one-shot protocol client; responses print to stdout\n\
         \n\
         global    --threads N  host threads for the parallel engine (default:\n\
                   GRAFFIX_THREADS env var, else all cores); results are\n\
                   identical at any thread count\n\
         global    --quiet      silence stderr diagnostics (also: GRAFFIX_LOG=quiet|info|debug)\n\
         global    --cache-dir DIR  prepared-graph cache location (default: target/graffix-cache);\n\
                   transforms are keyed by graph content + knobs + pipeline\n\
                   version, so a warm cache skips preprocessing entirely\n\
         global    --no-cache   bypass the prepared-graph cache (always re-transform)"
    );
    exit(2);
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "quiet",
    "no-cache",
    "ping",
    "stats",
    "shutdown",
    "oracle",
    "stream-gate",
    "segment-gate",
];

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: &[&str] = &["threads", "quiet", "cache-dir", "no-cache"];

/// The flags each subcommand reads (space-separated), beyond
/// [`GLOBAL_FLAGS`]. Anything else is a typo, and is rejected rather than
/// silently ignored.
const SUBCOMMAND_FLAGS: &[(&str, &str)] = &[
    ("generate", "kind nodes seed out"),
    ("convert", "in out"),
    ("info", "in segment-bytes"),
    (
        "profile",
        "in seed algo technique threshold baseline bc-sources accuracy direction report-json",
    ),
    ("transform", "in technique threshold out"),
    (
        "run",
        "in algo technique threshold baseline direction segment-bytes report-json values-out",
    ),
    (
        "stream",
        "in stream algo technique threshold debt-threshold checkpoint-every oracle out",
    ),
    (
        "bench",
        "save-baseline gate save-serve-baseline serve-gate stream-gate segment-gate gate-report \
         nodes seed bc-sources repeats large-nodes serve-iterations segment-bytes",
    ),
    ("report", ""),
    (
        "serve",
        "graphs listen unix workers engine-threads pool-capacity queue-depth batch-max \
         segment-bytes",
    ),
    (
        "client",
        "connect unix request file raw ping stats shutdown",
    ),
];

fn parse_flags(cmd: &str, args: &[String]) -> HashMap<String, String> {
    let Some((_, allowed)) = SUBCOMMAND_FLAGS.iter().find(|(c, _)| *c == cmd) else {
        usage();
    };
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument: {a}");
            usage();
        };
        if !GLOBAL_FLAGS.contains(&key) && !allowed.split(' ').any(|f| f == key) {
            eprintln!("unknown flag --{key} for '{cmd}'");
            exit(2);
        }
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "1".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("--{key} needs a value");
            usage();
        };
        flags.insert(key.to_string(), value.clone());
    }
    flags
}

/// `--name VALUE` parsed as `T`, `None` when absent. A malformed value is
/// a usage error (exit 2), never a panic.
fn parsed<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T> {
    let raw = flags.get(name)?;
    Some(raw.parse().unwrap_or_else(|_| {
        eprintln!("bad --{name} value: {raw}");
        usage();
    }))
}

fn load(path: &str) -> Csr {
    let p = Path::new(path);
    // `.gfx` opens through the mmap-backed loader: the offset/edge/weight
    // arrays stay file-backed, so only the segments a run actually touches
    // page in (falls back to a copying read off POSIX/64-bit LE).
    let result = match p.extension().and_then(|e| e.to_str()) {
        Some("gfx") => serialize::open_mapped(p),
        Some("gr") => std::fs::File::open(p).and_then(gio::read_dimacs),
        _ => gio::load_edge_list(p),
    };
    match result {
        Ok(g) => g,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            exit(1);
        }
    }
}

fn save(g: &Csr, path: &str) {
    let p = Path::new(path);
    let result = match p.extension().and_then(|e| e.to_str()) {
        Some("gfx") => serialize::save_binary(g, p),
        Some("gr") => std::fs::File::create(p).and_then(|f| gio::write_dimacs(g, f)),
        _ => gio::save_edge_list(g, p),
    };
    if let Err(e) = result {
        eprintln!("could not write {path}: {e}");
        exit(1);
    }
}

fn kind_of(name: &str) -> GraphKind {
    match name {
        "rmat" => GraphKind::Rmat,
        "random" => GraphKind::Random,
        "livejournal" => GraphKind::SocialLiveJournal,
        "twitter" => GraphKind::SocialTwitter,
        "road" => GraphKind::Road,
        other => {
            eprintln!("unknown kind: {other}");
            usage();
        }
    }
}

/// `--segment-bytes N` -> a validated byte budget, `None` when absent.
fn segment_bytes_flag(flags: &HashMap<String, String>) -> Option<usize> {
    let bytes: usize = parsed(flags, "segment-bytes")?;
    if let Err(e) = SegmentKnobs::default().with_segment_bytes(bytes).validate() {
        eprintln!("bad --segment-bytes value: {e}");
        usage();
    }
    Some(bytes)
}

/// `--cache-dir` / `--no-cache` -> a [`CacheConfig`] for `prepare`.
fn cache_config(flags: &HashMap<String, String>) -> CacheConfig {
    if flags.contains_key("no-cache") {
        return CacheConfig::disabled();
    }
    match flags.get("cache-dir") {
        Some(dir) => CacheConfig::at(dir.as_str()),
        None => CacheConfig::default(),
    }
}

/// Builds the pipeline for a technique name, auto-tuning the knobs against
/// `g` (a `--threshold` override lands on the technique's primary knob).
fn build_pipeline(g: &Csr, technique: Option<&str>, threshold: Option<f64>) -> Pipeline {
    let tuned = auto_tune(g, 7);
    match technique {
        None | Some("exact") => Pipeline::default(),
        Some("coalescing") => {
            let mut k = tuned.coalesce;
            if let Some(t) = threshold {
                k.threshold = t;
            }
            Pipeline::default().with_coalesce(k)
        }
        Some("latency") => {
            let mut k = tuned.latency;
            if let Some(t) = threshold {
                k.cc_threshold = t;
            }
            Pipeline::default().with_latency(k)
        }
        Some("divergence") => {
            let mut k = tuned.divergence;
            if let Some(t) = threshold {
                k.degree_sim_threshold = t;
            }
            Pipeline::default().with_divergence(k)
        }
        Some("combined") => Pipeline {
            coalesce: Some(tuned.coalesce),
            latency: Some(tuned.latency),
            divergence: Some(tuned.divergence),
        },
        Some(other) => {
            eprintln!("unknown technique: {other}");
            usage();
        }
    }
}

/// Builds the pipeline for a technique name and applies it through the
/// prepared-graph cache. The pipeline is returned alongside the prepared
/// graph so callers can toggle stages off for error attribution (the v2
/// `accuracy` section).
fn prepare(
    g: &Csr,
    technique: Option<&str>,
    threshold: Option<f64>,
    gpu: &GpuConfig,
    cache: &CacheConfig,
) -> (Prepared, Pipeline) {
    let pipeline = build_pipeline(g, technique, threshold);
    // Diagnose invalid knob combinations instead of panicking: transform
    // configuration errors are user errors, not internal bugs.
    match prepare_with_cache(g, &pipeline, gpu, cache) {
        Ok((prepared, outcome)) => {
            log_info!("cache: {}", outcome.status.label());
            if let CacheStatus::MissStoreFailed(detail) = &outcome.status {
                log_info!("cache store failed: {detail}");
            }
            for rec in &outcome.stages {
                log_info!(
                    "stage {:<12} {:<10} {:.3}s",
                    rec.stage,
                    rec.status.label(),
                    rec.seconds
                );
                if let Some(err) = &rec.store_error {
                    log_info!("stage {} store failed: {err}", rec.stage);
                }
            }
            (prepared, pipeline)
        }
        Err(e) => {
            eprintln!("invalid transform configuration: {e}");
            exit(2);
        }
    }
}

fn parse_direction(name: Option<&str>) -> Direction {
    match name {
        None => Direction::Push,
        Some(s) => Direction::from_key(s).unwrap_or_else(|| {
            eprintln!("unknown direction: {s} (want push|pull|auto)");
            usage();
        }),
    }
}

fn parse_baseline(name: Option<&str>) -> Baseline {
    match name {
        None | Some("lonestar") => Baseline::Lonestar,
        Some("tigr") => Baseline::Tigr,
        Some("gunrock") => Baseline::Gunrock,
        Some(other) => {
            eprintln!("unknown baseline: {other}");
            usage();
        }
    }
}

/// Writes a run report to `--report-json PATH`, or stdout when `path` is
/// `None` and `stdout_fallback` is set.
fn emit_report(report: &RunReport, path: Option<&str>, stdout_fallback: bool) {
    if let Err(e) = report.verify() {
        eprintln!("internal error: run report failed verification: {e}");
        exit(1);
    }
    let text = report.to_pretty_string();
    match path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &text) {
                eprintln!("could not write {p}: {e}");
                exit(1);
            }
            log_info!("wrote report {p}");
        }
        None if stdout_fallback => print!("{text}"),
        None => {}
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    // `report verify FILE` and `info FILE` take positionals; peel them off
    // before flag parsing.
    let (positionals, rest) = if cmd == "report" || cmd == "info" {
        let n = rest.iter().take_while(|a| !a.starts_with("--")).count();
        (rest[..n].to_vec(), &rest[n..])
    } else {
        (Vec::new(), rest)
    };
    let mut flags = parse_flags(cmd, rest);
    logging::init_from_env();
    if flags.remove("quiet").is_some() {
        logging::set_level(logging::LogLevel::Quiet);
    }
    // Scoped rayon pool: every parallel superstep inside this command runs
    // on exactly N host threads (the engine is deterministic regardless).
    match parsed::<usize>(&flags, "threads") {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool")
            .install(|| dispatch(cmd, &positionals, &flags)),
        None => dispatch(cmd, &positionals, &flags),
    }
}

fn dispatch(cmd: &str, positionals: &[String], flags: &HashMap<String, String>) {
    let get = |key: &str| -> &str {
        flags.get(key).map(String::as_str).unwrap_or_else(|| {
            eprintln!("missing --{key}");
            usage();
        })
    };
    let gpu = GpuConfig::k40c();
    let cache = cache_config(flags);

    match cmd {
        "generate" => {
            let kind = kind_of(get("kind"));
            let nodes = parsed(flags, "nodes").unwrap_or(4096);
            let seed = parsed(flags, "seed").unwrap_or(1);
            let g = GraphSpec::new(kind, nodes, seed).generate();
            save(&g, get("out"));
            log_info!(
                "wrote {} ({} nodes, {} edges)",
                get("out"),
                g.num_nodes(),
                g.num_edges()
            );
        }
        "convert" => {
            let g = load(get("in"));
            save(&g, get("out"));
            log_info!("converted {} -> {}", get("in"), get("out"));
        }
        "profile" => {
            let g = load(get("in"));
            let seed = parsed(flags, "seed").unwrap_or(7);
            let tuned = auto_tune(&g, seed);
            let p = tuned.profile;
            // Structural/knob diagnostics go to stderr so stdout can stay a
            // pure JSON document when no --report-json path is given.
            log_info!("nodes           {}", p.nodes);
            log_info!("edges           {}", p.edges);
            log_info!("max degree      {}", p.max_degree);
            log_info!("mean degree     {:.2}", p.mean_degree);
            log_info!(
                "degree skew     {:.1} ({})",
                p.skew,
                if p.power_law_like {
                    "power-law-like"
                } else {
                    "near-uniform"
                }
            );
            log_info!("avg clustering  {:.4}", p.avg_clustering);
            log_info!("");
            log_info!("recommended knobs (paper section 5 guidelines):");
            log_info!(
                "  coalescing  connectedness threshold {:.2}, k {}",
                tuned.coalesce.threshold,
                tuned.coalesce.chunk_size
            );
            log_info!(
                "  latency     CC threshold {:.2}, edge budget {:.0}%",
                tuned.latency.cc_threshold,
                tuned.latency.edge_budget_frac * 100.0
            );
            log_info!(
                "  divergence  degreeSim threshold {:.2}, fill {:.0}%",
                tuned.divergence.degree_sim_threshold,
                tuned.divergence.fill_fraction * 100.0
            );

            // Traced run: execute one algorithm with the observability
            // layer on and emit the schema-versioned JSON report.
            let algo_name = flags.get("algo").map_or("sssp", String::as_str);
            let Some(algo) = Algo::parse(algo_name) else {
                eprintln!("unknown algo: {algo_name}");
                usage();
            };
            let threshold = parsed(flags, "threshold");
            let (prepared, pipeline) = prepare(
                &g,
                flags.get("technique").map(String::as_str),
                threshold,
                &gpu,
                &cache,
            );
            let baseline = parse_baseline(flags.get("baseline").map(String::as_str));
            let bc_sources = parsed(flags, "bc-sources").unwrap_or(4);
            let accuracy = match flags.get("accuracy").map(String::as_str) {
                None | Some("on") => true,
                Some("off") => false,
                Some(other) => {
                    eprintln!("bad --accuracy value: {other} (want on|off)");
                    usage();
                }
            };
            let traced = observed_run(
                RunSpec {
                    command: "profile",
                    algo,
                    baseline,
                    bc_sources,
                    direction: parse_direction(flags.get("direction").map(String::as_str)),
                    accuracy,
                    pipeline: Some(&pipeline),
                },
                &g,
                &prepared,
                &gpu,
            );
            emit_report(
                &traced.report,
                flags.get("report-json").map(String::as_str),
                true,
            );
        }
        "transform" => {
            let g = load(get("in"));
            let threshold = parsed(flags, "threshold");
            let (prepared, _) = prepare(&g, Some(get("technique")), threshold, &gpu, &cache);
            save(&prepared.graph, get("out"));
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
            log_info!("wrote {}", get("out"));
        }
        "run" => {
            let g = load(get("in"));
            let threshold = parsed(flags, "threshold");
            let (prepared, _) = prepare(
                &g,
                flags.get("technique").map(String::as_str),
                threshold,
                &gpu,
                &cache,
            );
            let baseline = parse_baseline(flags.get("baseline").map(String::as_str));
            let report_json = flags.get("report-json").map(String::as_str);
            let direction = parse_direction(flags.get("direction").map(String::as_str));
            let mut plan = baseline.plan(&prepared, &gpu).with_direction(direction);
            let segmented = match segment_bytes_flag(flags) {
                Some(bytes) if plan.identity_attrs() => {
                    let segs = Segmentation::build(&plan.graph, bytes);
                    log_info!(
                        "segments: {} at budget {} bytes (max resident {} bytes, {} boundary arcs)",
                        segs.len(),
                        bytes,
                        segs.max_segment_bytes(plan.graph.is_weighted()),
                        segs.boundary_edges()
                    );
                    plan = plan.with_segments(std::sync::Arc::new(segs));
                    true
                }
                Some(_) => {
                    eprintln!("--segment-bytes needs an identity-attribute plan; this baseline remaps attributes, running flat");
                    false
                }
                None => false,
            };
            let trace = match report_json {
                Some(_) => instrument_plan(&mut plan, &prepared),
                None => plan.trace.clone(), // disabled: zero-cost no-op sink
            };
            let (run, summary) = match get("algo") {
                "sssp" => {
                    let src = sssp::default_source(&g);
                    let run = sssp::run_sim(&plan, src);
                    let err = relative_l1(&run.values, &sssp::exact_cpu(&g, src));
                    let summary = format!("source {src}, inaccuracy {:.2}%", err * 100.0);
                    (run, summary)
                }
                "bfs" => {
                    let src = sssp::default_source(&g);
                    let run = bfs::run_sim(&plan, src);
                    let err = relative_l1(&run.values, &bfs::exact_cpu(&g, src));
                    let summary = format!("source {src}, inaccuracy {:.2}%", err * 100.0);
                    (run, summary)
                }
                "pr" => {
                    let run = pagerank::run_sim(&plan);
                    let err = relative_l1(&run.values, &pagerank::exact_cpu(&g));
                    let summary = format!("inaccuracy {:.2}%", err * 100.0);
                    (run, summary)
                }
                "bc" => {
                    let sources = bc::sample_sources(&g, 4);
                    let run = bc::run_sim(&plan, &sources);
                    let err = relative_l1(&run.values, &bc::exact_cpu(&g, &sources));
                    let summary =
                        format!("{} sources, inaccuracy {:.2}%", sources.len(), err * 100.0);
                    (run, summary)
                }
                "scc" => {
                    let r = scc::run_sim(&plan);
                    let exact = scc::exact_cpu_count(&g);
                    let summary = format!("{} components (exact {exact})", r.components);
                    (r.run, summary)
                }
                "mst" => {
                    let r = mst::run_sim(&plan);
                    let (w, _) = mst::exact_cpu(&g);
                    let summary = format!("forest weight {} (exact {w})", r.weight);
                    (r.run, summary)
                }
                "wcc" => {
                    let r = wcc::run_sim(&plan);
                    let exact = wcc::exact_cpu_count(&g);
                    let summary = format!("{} components (exact {exact})", r.components);
                    (r.run, summary)
                }
                other => {
                    eprintln!("unknown algo: {other}");
                    usage();
                }
            };
            println!("{summary}");
            println!(
                "elapsed {} simulated cycles ({:.6} simulated s)",
                run.stats.elapsed_cycles(&gpu),
                run.stats.elapsed_seconds(&gpu)
            );
            if segmented {
                println!(
                    "segments {} processed, {} skipped (empty frontier)",
                    run.stats.segments_processed, run.stats.segments_skipped
                );
            }
            print!("{}", CostBreakdown::attribute(&run.stats, &gpu));
            if let Some(out) = flags.get("values-out") {
                let mut bytes = Vec::with_capacity(run.values.len() * 8);
                for v in &run.values {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                if let Err(e) = std::fs::write(out, &bytes) {
                    eprintln!("could not write {out}: {e}");
                    exit(1);
                }
                log_info!("wrote {} result values to {out}", run.values.len());
            }
            if report_json.is_some() {
                let report =
                    assemble_report("run", get("algo"), &prepared, baseline, &plan, &run, &trace);
                emit_report(&report, report_json, false);
            }
        }
        "stream" => stream_cmd(flags, &gpu),
        "info" => info_cmd(positionals, flags),
        "bench" => bench(flags, &cache),
        "report" => report_cmd(positionals),
        "serve" => serve_cmd(flags, cache),
        "client" => client_cmd(flags),
        _ => usage(),
    }
}

/// `graffix info FILE` — structural summary plus the flat vs segmented
/// peak-resident-bytes estimate at the given `--segment-bytes` budget.
/// Everything prints to stdout; no simulation runs.
fn info_cmd(positionals: &[String], flags: &HashMap<String, String>) {
    use graffix::graph::segment::{bytes_per_edge, BYTES_PER_NODE};

    let path = positionals
        .first()
        .map(String::as_str)
        .or_else(|| flags.get("in").map(String::as_str))
        .unwrap_or_else(|| {
            eprintln!("usage: graffix info FILE [--segment-bytes N]");
            usage();
        });
    let g = load(path);
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

    let budget = segment_bytes_flag(flags).unwrap_or(SegmentKnobs::default().segment_bytes);
    let segs = Segmentation::build(&g, budget);
    let seg_bytes = segs.max_segment_bytes(weighted);
    let boundary = segs.boundary_edges();

    println!("graph            {path}");
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

/// `graffix stream` — ingest a batched edge-mutation stream and keep the
/// prepared graph up to date through [`IncrementalPrepare`], checkpointing
/// the chosen algorithm every N batches. Per-batch mode/debt and per-stage
/// hit/stale/recomputed lines go to stderr; checkpoint digests to stdout.
fn stream_cmd(flags: &HashMap<String, String>, gpu: &GpuConfig) {
    use graffix_graph::mutation;

    let get = |key: &str| -> &str {
        flags.get(key).map(String::as_str).unwrap_or_else(|| {
            eprintln!("missing --{key}");
            usage();
        })
    };
    let g = load(get("in"));
    let stream_path = get("stream");
    let batches = match std::fs::File::open(stream_path).and_then(mutation::parse_stream) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {stream_path}: {e}");
            exit(1);
        }
    };
    let threshold = parsed(flags, "threshold");
    let pipeline = build_pipeline(&g, flags.get("technique").map(String::as_str), threshold);
    let debt_threshold =
        parsed(flags, "debt-threshold").unwrap_or(StreamKnobs::default().debt_threshold);
    let every: usize = parsed(flags, "checkpoint-every").unwrap_or(0);
    let algo = flags.get("algo").map_or("pr", String::as_str);
    let oracle = flags.contains_key("oracle");

    let knobs = StreamKnobs::default().with_debt_threshold(debt_threshold);
    let mut inc = match IncrementalPrepare::new(g, pipeline.clone(), gpu.clone(), knobs) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("invalid stream configuration: {e}");
            exit(2);
        }
    };
    log_info!(
        "initial prepare: {} nodes, {} edges, {} batches queued (debt threshold {})",
        inc.graph().num_nodes(),
        inc.graph().num_edges(),
        batches.len(),
        debt_threshold
    );
    let total = batches.len();
    for (i, batch) in batches.iter().enumerate() {
        let out = match inc.apply_batch(batch) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("batch {}/{total} failed: {e}", i + 1);
                exit(1);
            }
        };
        log_info!(
            "batch {}/{total}: +{} -{} ~{} mode={} debt={:.4} apply+maintain {:.4}s prepare {:.4}s",
            i + 1,
            out.batch.inserted.len(),
            out.batch.deleted.len(),
            out.batch.reweighted,
            out.mode.label(),
            out.debt,
            out.maintenance_seconds,
            out.prepare_seconds
        );
        for rec in &out.stages {
            log_info!(
                "stage {:<12} {:<10} {:.3}s",
                rec.stage,
                rec.status.label(),
                rec.seconds
            );
        }
        if (every > 0 && (i + 1) % every == 0) || i + 1 == total {
            stream_checkpoint(i + 1, algo, &inc, &pipeline, gpu, oracle);
        }
    }
    log_info!(
        "stream done: {} exact / {} stale prepares",
        inc.exact_prepares(),
        inc.stale_prepares()
    );
    if let Some(out_path) = flags.get("out") {
        save(inc.graph(), out_path);
        log_info!("wrote {out_path}");
    }
}

/// One stream checkpoint: run the algorithm on the incrementally prepared
/// graph and print a deterministic result digest. With `--oracle`, also
/// prepare the current true graph from scratch and require an identical
/// digest (exit 1 on divergence).
fn stream_checkpoint(
    batch_no: usize,
    algo: &str,
    inc: &IncrementalPrepare,
    pipeline: &Pipeline,
    gpu: &GpuConfig,
    oracle: bool,
) {
    let digest = run_digest(algo, inc.prepared(), inc.graph(), gpu);
    println!("checkpoint {batch_no} {algo} {digest}");
    if oracle {
        let cold = match pipeline.try_apply(inc.graph(), gpu) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("oracle prepare failed at batch {batch_no}: {e}");
                exit(1);
            }
        };
        let cold_digest = run_digest(algo, &cold, inc.graph(), gpu);
        if digest != cold_digest {
            eprintln!(
                "oracle mismatch at batch {batch_no}: incremental {digest} vs from-scratch {cold_digest}"
            );
            exit(1);
        }
        log_info!("oracle ok at batch {batch_no}");
    }
}

/// Runs `algo` on a prepared graph and condenses the result vector (and the
/// simulated cost) into a short deterministic digest string.
fn run_digest(algo: &str, prepared: &Prepared, g: &Csr, gpu: &GpuConfig) -> String {
    let plan = Baseline::Lonestar.plan(prepared, gpu);
    let run = match algo {
        "sssp" => sssp::run_sim(&plan, sssp::default_source(g)),
        "bfs" => bfs::run_sim(&plan, sssp::default_source(g)),
        "pr" => pagerank::run_sim(&plan),
        "bc" => bc::run_sim(&plan, &bc::sample_sources(g, 4)),
        "scc" => scc::run_sim(&plan).run,
        "mst" => mst::run_sim(&plan).run,
        "wcc" => wcc::run_sim(&plan).run,
        other => {
            eprintln!("unknown algo: {other}");
            usage();
        }
    };
    let mut bytes = Vec::with_capacity(run.values.len() * 8);
    for v in &run.values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    format!(
        "fp={:016x} cycles={}",
        graffix::core::query::fingerprint_bytes(&bytes),
        run.stats.elapsed_cycles(gpu)
    )
}

/// `graffix serve` — the long-running daemon. Blocks until a `shutdown`
/// admin op drains it.
fn serve_cmd(flags: &HashMap<String, String>, cache: CacheConfig) {
    use graffix_server::{Bind, GraphRegistry, ServeConfig, Server};

    let graphs =
        match GraphRegistry::parse_list(flags.get("graphs").map(String::as_str).unwrap_or("")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bad --graphs: {e} (want \"name=kind:nodes:seed|path,...\")");
                usage();
            }
        };
    let num = |key: &str, default: usize| parsed(flags, key).unwrap_or(default);
    let bind = match (flags.get("unix"), flags.get("listen")) {
        (Some(_), Some(_)) => {
            eprintln!("--unix and --listen are mutually exclusive");
            usage();
        }
        #[cfg(unix)]
        (Some(path), None) => Bind::Unix(path.into()),
        #[cfg(not(unix))]
        (Some(_), None) => {
            eprintln!("--unix is not supported on this platform");
            usage();
        }
        (None, addr) => Bind::Tcp(addr.map_or_else(|| "127.0.0.1:7411".to_string(), Clone::clone)),
    };

    let mut config = ServeConfig::local(graphs);
    config.bind = bind;
    config.workers = num("workers", 2);
    config.engine_threads = num("engine-threads", 1);
    config.pool_capacity = num("pool-capacity", 8);
    config.queue_depth = num("queue-depth", 256);
    config.batch_max = num("batch-max", 16);
    config.segment_bytes = segment_bytes_flag(flags);
    config.cache = cache;

    let names: Vec<&str> = config.graphs.names().collect();
    log_info!(
        "serve: {} graphs [{}], {} workers, pool capacity {}, queue depth {}, batch max {}",
        names.len(),
        names.join(", "),
        config.workers,
        config.pool_capacity,
        config.queue_depth,
        config.batch_max
    );
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: could not start: {e}");
            exit(1);
        }
    };
    match server.local_addr() {
        Some(addr) => log_info!("serve: listening on {addr}"),
        None => log_info!("serve: listening on unix socket {}", flags["unix"]),
    }
    // Blocks until a `shutdown` op drains the queue and stops the workers.
    server.join();
    log_info!("serve: drained and stopped");
}

/// `graffix client` — one-shot protocol front end. Responses go to stdout
/// verbatim (one JSON document per line).
fn client_cmd(flags: &HashMap<String, String>) {
    use graffix_server::Client;

    let mut client = match (flags.get("unix"), flags.get("connect")) {
        (Some(_), Some(_)) => {
            eprintln!("--unix and --connect are mutually exclusive");
            usage();
        }
        #[cfg(unix)]
        (Some(path), None) => Client::connect_unix(Path::new(path)),
        #[cfg(not(unix))]
        (Some(_), None) => {
            eprintln!("--unix is not supported on this platform");
            usage();
        }
        (None, addr) => Client::connect_tcp(addr.map_or("127.0.0.1:7411", String::as_str)),
    }
    .unwrap_or_else(|e| {
        eprintln!("client: could not connect: {e}");
        exit(1);
    });

    let fail = |e: std::io::Error| -> ! {
        eprintln!("client: {e}");
        exit(1);
    };
    let mut responses = Vec::new();
    if let Some(line) = flags.get("request").or_else(|| flags.get("raw")) {
        // --raw and --request both send one line verbatim; --raw exists so
        // scripts (and the CI smoke job) can send deliberately malformed
        // frames without the flag name implying they are well-formed.
        responses.push(client.call_line(line).unwrap_or_else(|e| fail(e)));
    } else if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("client: could not read {path}: {e}");
            exit(1);
        });
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            responses.push(client.call_line(line).unwrap_or_else(|e| fail(e)));
        }
    } else if flags.contains_key("ping") {
        responses.push(
            client
                .ping()
                .unwrap_or_else(|e| fail(e))
                .to_compact_string(),
        );
    } else if flags.contains_key("stats") {
        responses.push(
            client
                .stats()
                .unwrap_or_else(|e| fail(e))
                .to_compact_string(),
        );
    } else if flags.contains_key("shutdown") {
        responses.push(
            client
                .shutdown()
                .unwrap_or_else(|e| fail(e))
                .to_compact_string(),
        );
    } else {
        eprintln!("client needs one of --request/--file/--raw/--ping/--stats/--shutdown");
        usage();
    }
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

/// Exits 1 with the reason when `path` cannot be written.
fn write_file(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {path}: {e}");
        exit(1);
    }
}

/// Reads the `what` baseline a gate compares against; exits 1 with the
/// reason when the file is unreadable or not that kind of baseline.
fn read_baseline<T>(path: &str, what: &str, parse: fn(&str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        exit(1);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a {what} baseline: {e}");
        exit(1);
    })
}

/// The tail every gate shares: print the verdict table, write
/// `--gate-report`, name each failure on stderr, exit 1 unless it passed.
fn finish_gate(report: &GateReport, flags: &HashMap<String, String>) {
    print!("{}", report.table().render());
    if let Some(out) = flags.get("gate-report") {
        write_file(out, report.to_json().to_pretty_string());
        log_info!("wrote gate report {out} (schema {GATE_SCHEMA})");
    }
    let failures = report.failures();
    for f in &failures {
        eprintln!("FAIL {} [{}] {}", f.id, f.status.label(), f.metric);
    }
    if !failures.is_empty() {
        exit(1);
    }
    log_info!(
        "{} gate passed: {} cells",
        report.gate,
        report.verdicts.len()
    );
}

/// `graffix bench`: save a baseline, or run one of the four gates. Every
/// gate is measure → cells → [`finish_gate`]; thresholds are fixed in
/// `graffix_bench::gate::POLICIES`.
fn bench(flags: &HashMap<String, String>, cache: &CacheConfig) {
    const MODES: [&str; 6] = [
        "save-baseline",
        "gate",
        "save-serve-baseline",
        "serve-gate",
        "stream-gate",
        "segment-gate",
    ];
    let chosen: Vec<&str> = MODES
        .into_iter()
        .filter(|m| flags.contains_key(*m))
        .collect();
    let [mode] = chosen[..] else {
        eprintln!("bench needs exactly one of --{}", MODES.join(", --"));
        usage();
    };
    let path = flags[mode].as_str();
    // Corpus shape: the suite defaults, overridden flag by flag.
    let mut options = SuiteOptions::from_env();
    if mode == "segment-gate" {
        // The scale the segmented-win claim is made at.
        options.nodes = 1 << 17;
    }
    options.nodes = parsed(flags, "nodes").unwrap_or(options.nodes);
    options.seed = parsed(flags, "seed").unwrap_or(options.seed);
    options.bc_sources = parsed(flags, "bc-sources").unwrap_or(options.bc_sources);
    match mode {
        // The suite's algorithm cells reuse the prepared-graph cache
        // (bit-identical loads, so gated metrics are unaffected);
        // preprocess-time cells always transform from scratch.
        "save-baseline" => {
            let repeats = parsed(flags, "repeats").unwrap_or(3);
            let large_nodes: usize = parsed(flags, "large-nodes").unwrap_or(1 << 20);
            log_info!(
                "measuring gate corpus: nodes {}, seed {}, {} repeats",
                options.nodes,
                options.seed,
                repeats
            );
            let seed = options.seed;
            let mut baseline =
                BenchBaseline::capture(&Suite::new(options).with_cache(cache.clone()), repeats);
            if large_nodes > 0 {
                let budget = SegmentKnobs::default().segment_bytes;
                log_info!("measuring large cells: {large_nodes} nodes segmented at {budget} bytes");
                baseline.large = graffix_bench::measure_large(large_nodes, seed, budget);
                for c in &baseline.large {
                    log_info!(
                        "  {} -> {} cycles across {} segments ({:.1}s wall)",
                        c.id(),
                        c.elapsed_cycles,
                        c.segments,
                        c.wall_seconds
                    );
                }
            }
            write_file(path, baseline.to_pretty_string());
            log_info!(
                "wrote baseline {path} ({} cells, {} large)",
                baseline.cells.len(),
                baseline.large.len()
            );
        }
        "gate" => {
            let baseline = read_baseline(path, "bench", BenchBaseline::parse);
            let fp = &baseline.fingerprint;
            log_info!(
                "gating against {path} (host {}, nodes {}, seed {})",
                fp.host,
                fp.nodes,
                fp.seed
            );
            if let Some(c) = baseline.large.first() {
                log_info!(
                    "re-measuring {} large cells at {} nodes (takes a minute or two)",
                    baseline.large.len(),
                    c.nodes
                );
            }
            let suite = Suite::new(fp.suite_options()).with_cache(cache.clone());
            finish_gate(&graffix_bench::run_gate(&baseline, &suite), flags);
        }
        // Serving cells are measured against a live in-process daemon.
        "save-serve-baseline" => {
            let iterations = parsed(flags, "serve-iterations").unwrap_or(1);
            log_info!("measuring serving scenarios ({iterations} iterations)");
            let baseline = ServeBaseline::capture(iterations);
            write_file(path, baseline.to_pretty_string());
            for c in &baseline.cells {
                log_info!(
                    "  {:<22} {:>8.1} req/s, p50 {:>7.3}ms, p99 {:>7.3}ms",
                    c.id,
                    c.rps,
                    c.p50_ms,
                    c.p99_ms
                );
            }
            log_info!(
                "wrote serve baseline {path} ({} cells, schema {SERVE_SCHEMA})",
                baseline.cells.len()
            );
        }
        "serve-gate" => {
            let baseline = read_baseline(path, "serve", ServeBaseline::parse);
            log_info!(
                "serve-gating against {path} ({} cells)",
                baseline.cells.len()
            );
            finish_gate(&graffix_bench::run_serve_gate(&baseline), flags);
        }
        // No baseline file: both sides of the ratio are measured back to
        // back on this machine, so the floor is host-independent.
        "stream-gate" => {
            log_info!("measuring streaming cell: incremental vs full re-prepare at 1% churn");
            finish_gate(&graffix_bench::run_stream_gate(), flags);
        }
        // Both sides are deterministic simulated cycles, so this gate is
        // machine-independent too.
        _ => {
            let segment_bytes =
                segment_bytes_flag(flags).unwrap_or(SegmentKnobs::default().segment_bytes);
            log_info!(
                "measuring flat vs segmented at {} nodes, {} byte budget",
                options.nodes,
                segment_bytes
            );
            let report = graffix_bench::run_segment_gate(&Suite::new(options), segment_bytes);
            finish_gate(&report, flags);
        }
    }
}

/// `report verify FILE` — schema-verify a run report from disk.
fn report_cmd(positionals: &[String]) {
    let [action, path] = positionals else {
        eprintln!("usage: graffix report verify FILE");
        usage();
    };
    if action != "verify" {
        eprintln!("unknown report action: {action}");
        usage();
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            exit(1);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            exit(1);
        }
    };
    let report = match RunReport::from_json(&doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: not a valid run report: {e}");
            exit(1);
        }
    };
    if let Err(e) = report.verify() {
        eprintln!("{path}: verification FAILED: {e}");
        exit(1);
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
