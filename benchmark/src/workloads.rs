//! The seven workloads. Each one only calls public functions of the layers
//! and reads the timings they return; every call into a layer is wrapped in
//! a span named after the per-layer metric it feeds.

use crate::harness::{dir_bytes, median, percentile, Cx};
use crate::probes;
use graffix::graph::mutation::EdgeBatch;
use graffix::graph::serialize;
use graffix::prelude::*;
use graffix_server::{
    pipeline_for_request, Bind, Client, GraphRegistry, GraphSource, ServeConfig, Server,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// log2 of the node counts. `cargo test` runs every workload end to end at
/// 2^10 through the same code.
mod size {
    const fn log2(measured: u32) -> u32 {
        if cfg!(test) {
            10
        } else {
            measured
        }
    }
    pub const RUN: u32 = log2(17);
    pub const TRANSFORMED: u32 = log2(16);
    pub const PREPARE_COLD: u32 = log2(17);
    pub const PREPARE_WARM: u32 = log2(16);
    pub const SERVE: u32 = log2(14);
    pub const STREAM: u32 = log2(16);
}

pub fn run(cx: &mut Cx) {
    match cx.workload {
        "run_flat" => run_exact(cx, false),
        "run_segmented" => run_exact(cx, true),
        "run_transformed" => run_transformed(cx),
        "prepare_cold" => prepare_cold(cx),
        "prepare_warm" => prepare_warm(cx),
        "serve_mixed" => serve_mixed(cx),
        "stream_churn" => stream_churn(cx),
        other => unreachable!("workload {other} is validated by main"),
    }
}

// ---------------------------------------------------------------- helpers

/// Deterministic xorshift, the idiom of `crates/bench`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 step so that small seeds do not start near zero.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Generator seed of every base graph.
const BASE_SEED: u64 = 7;

/// The run's input graph: the base graph of `kind` with a seeded 1 % of its
/// arcs deleted. A fresh generator draw per seed moves superstep counts, and
/// with them most timings, by 10–15 % from seed to seed — more than any
/// bound here could resolve; a deletion keeps the graph in its family and
/// the work level, while every seed still has its own bytes (and so its own
/// cache keys).
fn generate(cx: &mut Cx, kind: GraphKind, log2: u32) -> Csr {
    let mut rng = Rng::new(cx.seed, 0);
    cx.span("graph.generate", |_| {
        let mut g = GraphSpec::new(kind, 1usize << log2, BASE_SEED).generate();
        let mut batch = EdgeBatch::new();
        for _ in 0..g.num_edges() / 100 {
            let e = rng.below(g.num_edges());
            let u = g.offsets().partition_point(|&o| o <= e) - 1;
            batch.delete(u as NodeId, g.edges_raw()[e]);
        }
        g.apply_batch(&batch)
            .expect("deletes of present arcs apply");
        g
    })
}

fn save(cx: &mut Cx, g: &Csr, file: &str) -> PathBuf {
    let path = cx.dir.join(file);
    cx.span("graph.save_binary", |_| {
        serialize::save_binary(g, &path).expect("graph file is writable")
    });
    path
}

fn open(cx: &mut Cx, path: &Path) -> Csr {
    cx.span("graph.open_mapped", |_| {
        serialize::open_mapped(path).expect("graph file written by set-up reads back")
    })
}

/// `auto_tune` with the CLI's fixed profiling seed.
fn tune(cx: &mut Cx, g: &Csr) -> TunedKnobs {
    cx.span("core.auto_tune", |_| auto_tune(g, 7))
}

fn pipeline_for(tuned: &TunedKnobs, technique: &str) -> Pipeline {
    match technique {
        "coalescing" => Pipeline::default().with_coalesce(tuned.coalesce),
        "latency" => Pipeline::default().with_latency(tuned.latency),
        "divergence" => Pipeline::default().with_divergence(tuned.divergence),
        "combined" => Pipeline {
            coalesce: Some(tuned.coalesce),
            latency: Some(tuned.latency),
            divergence: Some(tuned.divergence),
        },
        other => unreachable!("no technique {other}"),
    }
}

/// One `prepare_with_cache` call as an operation. Stage seconds the call
/// returns become child spans; with `store_child` the rest of the call
/// (key hashing, blob store) becomes a `core.cache_store` child.
fn prepare(
    cx: &mut Cx,
    span: &str,
    g: &Csr,
    pipeline: &Pipeline,
    cache: &CacheConfig,
    store_child: bool,
) -> (Prepared, CacheOutcome) {
    let ((prepared, outcome), seconds) = cx.op(span, |cx| {
        prepare_with_cache(g, pipeline, &cx.gpu, cache).expect("tuned knobs are valid")
    });
    let mut children: Vec<(String, f64)> = outcome
        .stages
        .iter()
        .map(|r| (format!("core.stage.{}", r.stage), r.seconds))
        .collect();
    let staged: f64 = children.iter().map(|c| c.1).sum();
    if store_child {
        // 1 µs short so that rounding never pushes the children past the
        // parent. The span's self time is then nil, so the call's own
        // length is kept as a reading.
        children.push((
            "core.cache_store".into(),
            (seconds - staged - 1e-6).max(0.0),
        ));
        cx.sample(&format!("{span}_s"), seconds);
    }
    cx.returned_children(&children);
    cx.work(g.num_edges() as f64, seconds);
    for r in &outcome.stages {
        let key = match r.status {
            StageStatus::Hit => "core.stage_hits",
            StageStatus::Cutoff => "core.stage_cutoffs",
            _ => "core.stage_recomputed",
        };
        *cx.tally.entry(key.into()).or_default() += 1.0;
    }
    (prepared, outcome)
}

/// Semantic equality of two prepared outputs, wall timings excluded (the
/// `same_prepared` rule of `crates/bench/src/streaming.rs`).
fn same_prepared(a: &Prepared, b: &Prepared) -> bool {
    serialize::to_bytes(&a.graph).as_ref() == serialize::to_bytes(&b.graph).as_ref()
        && a.assignment == b.assignment
        && a.to_original == b.to_original
        && a.primary == b.primary
        && a.replica_groups == b.replica_groups
        && a.tiles == b.tiles
        && a.technique == b.technique
}

/// FNV-1a over the value bits.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Memory events the simulator priced for a run.
pub fn events(s: &KernelStats) -> u64 {
    s.global_accesses + s.l2_accesses + s.shared_accesses + s.atomic_ops
}

const ALGOS: [&str; 3] = ["bfs", "sssp", "pr"];

/// What one bfs + sssp + pr sequence produced.
struct AlgoRuns {
    digests: [u64; 3],
    inaccuracy: [f64; 3],
    cycles: [u64; 3],
    stats: [KernelStats; 3],
    supersteps: usize,
}

/// The tail of the `graffix run` sequence for bfs, sssp and pr on one plan:
/// the simulated runs, then the CPU oracles and `relative_l1`.
fn run_algos(cx: &mut Cx, plan: &Plan, original: &Csr) -> AlgoRuns {
    let source = sssp::default_source(original);
    let mut runs: Vec<SimRun> = Vec::with_capacity(3);
    for algo in ALGOS {
        let (run, seconds) = cx.op(&format!("algos.{algo}"), |_| match algo {
            "bfs" => bfs::run_sim(plan, source),
            "sssp" => sssp::run_sim(plan, source),
            _ => pagerank::run_sim(plan),
        });
        let n = events(&run.stats);
        cx.work(n as f64, seconds);
        cx.sample(
            &format!("algos.{algo}_ns_per_event"),
            seconds * 1e9 / n.max(1) as f64,
        );
        runs.push(run);
    }
    let inaccuracy = cx.span("algos.ref", |_| {
        [
            relative_l1(&runs[0].values, &bfs::exact_cpu(original, source)),
            relative_l1(&runs[1].values, &sssp::exact_cpu(original, source)),
            relative_l1(&runs[2].values, &pagerank::exact_cpu(original)),
        ]
    });
    let gpu = cx.gpu.clone();
    AlgoRuns {
        digests: [0, 1, 2].map(|i| digest(&runs[i].values)),
        inaccuracy,
        cycles: [0, 1, 2].map(|i| runs[i].stats.elapsed_cycles(&gpu)),
        supersteps: runs.iter().map(|r| r.iterations).sum(),
        stats: [0, 1, 2].map(|i| runs[i].stats),
    }
}

/// Checks and counts shared by the three `run_*` workloads. `limit` is the
/// inaccuracy each algorithm may show.
fn settle_runs(cx: &mut Cx, all: &[AlgoRuns], limit: [f64; 3]) {
    let first = &all[0];
    for (i, r) in all.iter().enumerate() {
        for (a, algo) in ALGOS.iter().enumerate() {
            cx.check(r.inaccuracy[a] <= limit[a], || {
                format!(
                    "iteration {i}: {algo} inaccuracy {} exceeds {}",
                    r.inaccuracy[a], limit[a]
                )
            });
        }
        cx.check(
            r.digests == first.digests && r.cycles == first.cycles,
            || format!("iteration {i}: values or cycles differ from iteration 0"),
        );
    }
    for (a, algo) in ALGOS.iter().enumerate() {
        cx.count(&format!("sim.cycles.{algo}"), first.cycles[a] as f64);
        cx.count(
            &format!("algos.inaccuracy_pct.{algo}"),
            first.inaccuracy[a] * 100.0,
        );
        // Digests travel as counts so the suite can compare workloads; 2^53
        // keeps them exact in an f64.
        cx.count(
            &format!("digest.{algo}"),
            (first.digests[a] % (1u64 << 53)) as f64,
        );
    }
    type Field = fn(&KernelStats) -> u64;
    let sums: [(&str, Field); 8] = [
        ("sim.events", events),
        ("sim.global_transactions", |s| s.global_transactions),
        ("sim.l2_accesses", |s| s.l2_accesses),
        ("sim.shared_accesses", |s| s.shared_accesses),
        ("sim.atomic_ops", |s| s.atomic_ops),
        ("sim.divergent_slots", |s| s.divergent_slots),
        ("algos.segments_processed", |s| s.segments_processed),
        ("algos.segments_skipped", |s| s.segments_skipped),
    ];
    for (name, field) in sums {
        cx.count(name, first.stats.iter().map(field).sum::<u64>() as f64);
    }
    cx.count("algos.supersteps", first.supersteps as f64);
}

fn graph_counts(cx: &mut Cx, g: &Csr) {
    cx.count("graph.nodes", g.num_nodes() as f64);
    cx.count("graph.arcs", g.num_edges() as f64);
}

// ------------------------------------------------- run_flat, run_segmented

/// The `graffix run` sequence on the exact graph: `open_mapped`,
/// `auto_tune`, the (stage-less) prepare, `Baseline::plan`, the three
/// simulated runs, the oracles. `segmented` switches from Lonestar/push/flat
/// to Gunrock/auto/segment-major.
fn run_exact(cx: &mut Cx, segmented: bool) {
    let mut path = cx.setup(
        true,
        |cx| {
            let g = generate(cx, GraphKind::Rmat, size::RUN);
            graph_counts(cx, &g);
            save(cx, &g, "g.gfx")
        },
        |_, path| drop(std::fs::remove_file(path)),
    );
    let mut all: Vec<AlgoRuns> = Vec::new();
    cx.measure(
        true,
        &mut path,
        |_, _| {},
        |cx, path| {
            let g = open(cx, path);
            tune(cx, &g);
            let prepared = cx.span("core.prepare_exact", |cx| {
                prepare_with_cache(&g, &Pipeline::default(), &cx.gpu, &CacheConfig::disabled())
                    .expect("the empty pipeline has no knobs to reject")
                    .0
            });
            let plan = if segmented {
                let plan = cx.span("baselines.plan_gunrock", |cx| {
                    Baseline::Gunrock
                        .plan(&prepared, &cx.gpu)
                        .with_direction(Direction::Auto)
                });
                let segments = cx.span("graph.segment_build", |_| {
                    Segmentation::build(&plan.graph, SegmentKnobs::default().segment_bytes)
                });
                let plan = plan.with_segments(Arc::new(segments));
                // The first pull superstep would build the mirror lazily,
                // inside a run; building it here gives it its own row.
                cx.span("algos.csc", |cx| {
                    cx.span("graph.transposed", |_| drop(plan.graph.transposed()));
                    plan.csc();
                });
                plan
            } else {
                cx.span("baselines.plan_lonestar", |cx| {
                    Baseline::Lonestar.plan(&prepared, &cx.gpu)
                })
            };
            let runs = run_algos(cx, &plan, &g);
            all.push(runs);
        },
    );
    // Exact graph: bfs and sssp equal the CPU oracle, pr is within 1e-3.
    settle_runs(cx, &all, [0.0, 0.0, 1e-3]);
    if cx.trace && !segmented {
        let g = serialize::open_mapped(&path).expect("graph file reads back");
        probes::sim_and_report(cx, &g);
    }
}

// -------------------------------------------------------- run_transformed

struct Transformed {
    path: PathBuf,
    cache: CacheConfig,
}

/// The paper's flow: the `combined` technique from a warm cache, then the
/// three algorithms over tiles, replicas and holes.
fn run_transformed(cx: &mut Cx) {
    let mut state = cx.setup(
        true,
        |cx| {
            let g = generate(cx, GraphKind::Rmat, size::TRANSFORMED);
            graph_counts(cx, &g);
            let path = save(cx, &g, "g.gfx");
            let cache = CacheConfig::at(cx.dir.join("cache"));
            let tuned = tune(cx, &g);
            let (_, outcome) = prepare(
                cx,
                "core.prepare_combined",
                &g,
                &pipeline_for(&tuned, "combined"),
                &cache,
                true,
            );
            cx.check(outcome.status == CacheStatus::MissStored, || {
                format!("set-up prepare was {}", outcome.status.label())
            });
            Transformed { path, cache }
        },
        |_, s| drop(std::fs::remove_dir_all(s.cache.dir)),
    );
    let mut all: Vec<AlgoRuns> = Vec::new();
    cx.measure(
        true,
        &mut state,
        |_, _| {},
        |cx, s| {
            let g = open(cx, &s.path);
            let tuned = tune(cx, &g);
            let (prepared, outcome) = cx.span("core.blob_hit", |cx| {
                prepare_with_cache(&g, &pipeline_for(&tuned, "combined"), &cx.gpu, &s.cache)
                    .expect("tuned knobs are valid")
            });
            cx.check(outcome.status == CacheStatus::Hit, || {
                format!("warm prepare was {}", outcome.status.label())
            });
            let plan = cx.span("baselines.plan_lonestar", |cx| {
                Baseline::Lonestar.plan(&prepared, &cx.gpu)
            });
            let runs = run_algos(cx, &plan, &g);
            all.push(runs);
        },
    );
    settle_runs(cx, &all, [0.25, 0.25, 0.25]);
    cx.count("core.cache_bytes", dir_bytes(&state.cache.dir) as f64);
}

// ----------------------------------------------------------- prepare_cold

const COLD_TECHNIQUES: [&str; 3] = ["coalescing", "latency", "divergence"];

/// A cold `graffix transform` per technique into an empty cache directory.
fn prepare_cold(cx: &mut Cx) {
    let mut path = cx.setup(
        true,
        |cx| {
            let g = generate(cx, GraphKind::Rmat, size::PREPARE_COLD);
            graph_counts(cx, &g);
            save(cx, &g, "g.gfx")
        },
        |_, path| drop(std::fs::remove_file(path)),
    );
    let mut round = 0usize;
    let mut last: Vec<(Pipeline, Prepared, CacheConfig)> = Vec::new();
    cx.measure(
        false,
        &mut path,
        |_, _| {},
        |cx, path| {
            round += 1;
            let cache = CacheConfig::at(cx.dir.join(format!("cold-{round}")));
            let g = open(cx, path);
            let tuned = tune(cx, &g);
            last.clear();
            for technique in COLD_TECHNIQUES {
                let pipeline = pipeline_for(&tuned, technique);
                let span = format!("core.prepare_{technique}");
                let (prepared, outcome) = prepare(cx, &span, &g, &pipeline, &cache, true);
                let all_ran = outcome
                    .stages
                    .iter()
                    .all(|r| r.status == StageStatus::Recomputed);
                cx.check(
                    outcome.status == CacheStatus::MissStored
                        && all_ran
                        && !outcome.stages.is_empty(),
                    || format!("cold {technique} prepare was {}", outcome.status.label()),
                );
                last.push((pipeline, prepared, cache.clone()));
            }
        },
    );
    cx.count(
        "core.cache_bytes",
        last.first().map_or(0, |(_, _, c)| dir_bytes(&c.dir)) as f64,
    );
    // What was stored reads back equal to what was computed.
    let g = serialize::open_mapped(&path).expect("graph file reads back");
    for (pipeline, cold, cache) in &last {
        cx.check(cold.validate().is_ok(), || {
            format!("cold {} output is inconsistent", cold.technique.key())
        });
        let (warm, outcome) =
            prepare_with_cache(&g, pipeline, &cx.gpu, cache).expect("tuned knobs are valid");
        cx.check(
            outcome.status == CacheStatus::Hit && same_prepared(&warm, cold),
            || {
                format!(
                    "stored {} entry differs from the cold output",
                    cold.technique.key()
                )
            },
        );
    }
    if cx.trace {
        probes::graph_views(cx, &path);
    }
}

// ----------------------------------------------------------- prepare_warm

const WARM_TECHNIQUES: [&str; 2] = ["coalescing", "divergence"];

struct Warm {
    g: Csr,
    tuned: TunedKnobs,
    cache: CacheConfig,
    cold: Vec<Prepared>,
    /// Cache files after set-up; everything else is removed between
    /// iterations so each one starts from the same cache.
    keep: Vec<PathBuf>,
    /// Outputs of the last iteration, verified outside the timed region:
    /// (technique index, path taken, result, provenance).
    outputs: Vec<(usize, &'static str, Prepared, CacheOutcome)>,
}

fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// The one-knob change of each technique: a downstream knob, so upstream
/// stages hit and downstream ones recompute.
fn knob_changed(tuned: &TunedKnobs, technique: &str) -> Pipeline {
    let mut t = *tuned;
    t.coalesce.threshold = (t.coalesce.threshold + 0.05).min(1.0);
    t.divergence.fill_fraction = (t.divergence.fill_fraction - 0.05).max(0.0);
    pipeline_for(&t, technique)
}

/// Each warm path took the cache route it is named after, and the blob hit
/// and the stage-level warm start return the cold result.
fn verify_warm(cx: &mut Cx, s: &mut Warm) {
    for (i, path, prepared, outcome) in std::mem::take(&mut s.outputs) {
        let reused = outcome.stages.iter().filter(|r| r.status.reused()).count();
        let ok = match path {
            "blob_hit" => {
                outcome.status == CacheStatus::Hit && same_prepared(&prepared, &s.cold[i])
            }
            "knob_change" => {
                outcome.status == CacheStatus::MissStored
                    && (1..outcome.stages.len()).contains(&reused)
                    && prepared.validate().is_ok()
            }
            _ => {
                outcome.status == CacheStatus::MissStored
                    && reused == outcome.stages.len()
                    && same_prepared(&prepared, &s.cold[i])
            }
        };
        cx.check(ok, || {
            format!(
                "{} {path}: cache {}, {reused}/{} stages reused, or another result than cold",
                WARM_TECHNIQUES[i],
                outcome.status.label(),
                outcome.stages.len()
            )
        });
    }
}

/// The cache read paths: whole-blob hit, one-knob change, and a stage-level
/// warm start (blob deleted, every stage hits, blob stored again).
fn prepare_warm(cx: &mut Cx) {
    let mut state = cx.setup(
        true,
        |cx| {
            let g = generate(cx, GraphKind::Rmat, size::PREPARE_WARM);
            graph_counts(cx, &g);
            let path = save(cx, &g, "g.gfx");
            let g = open(cx, &path);
            let tuned = tune(cx, &g);
            let cache = CacheConfig::at(cx.dir.join("cache"));
            let mut cold = Vec::new();
            for technique in WARM_TECHNIQUES {
                let span = format!("core.prepare_{technique}");
                let pipeline = pipeline_for(&tuned, technique);
                cold.push(prepare(cx, &span, &g, &pipeline, &cache, true).0);
            }
            let keep = cache_files(&cache.dir);
            Warm {
                g,
                tuned,
                cache,
                cold,
                keep,
                outputs: Vec::new(),
            }
        },
        |_, s| drop(std::fs::remove_dir_all(s.cache.dir)),
    );
    cx.count("core.cache_bytes", dir_bytes(&state.cache.dir) as f64);
    cx.measure(
        true,
        &mut state,
        |cx, s| {
            verify_warm(cx, s);
            for file in cache_files(&s.cache.dir) {
                if !s.keep.contains(&file) {
                    drop(std::fs::remove_file(file));
                }
            }
        },
        |cx, s| {
            for (i, technique) in WARM_TECHNIQUES.iter().enumerate() {
                let pipeline = pipeline_for(&s.tuned, technique);
                let changed = knob_changed(&s.tuned, technique);
                let mut blob = None;
                for path in ["blob_hit", "knob_change", "stage_warm"] {
                    if path == "stage_warm" {
                        // Deleting the blob is the benchmark's doing, not
                        // the system's; its own span keeps it out of both
                        // the layers and the unattributed share.
                        let blob: PathBuf = blob.take().expect("the blob hit named its entry");
                        cx.span("bench.delete_blob", |_| drop(std::fs::remove_file(blob)));
                    }
                    let request = if path == "knob_change" {
                        &changed
                    } else {
                        &pipeline
                    };
                    let span = format!("core.{path}");
                    let before = cx.op_ms.len();
                    let (prepared, outcome) = prepare(cx, &span, &s.g, request, &s.cache, false);
                    cx.sample(&format!("{span}_ms"), cx.op_ms[before]);
                    if path == "blob_hit" {
                        blob = outcome.path.clone();
                    }
                    s.outputs.push((i, path, prepared, outcome));
                }
            }
        },
    );
    verify_warm(cx, &mut state);
}

// ------------------------------------------------------------ serve_mixed

/// Requests per hot key and pass: 12 bfs, 5 sssp, 3 pr — 60/25/15 %.
const PER_KEY: [(&str, usize); 3] = [("bfs", 12), ("sssp", 5), ("pr", 3)];
/// Traversal sources per graph: its first nodes, in id order, that have two
/// out-arcs or more. Every (key, algorithm) cell walks them in turn from a
/// seeded start, so each pass spreads its requests evenly over them and
/// request lines repeat.
const SOURCES: usize = 10;

const HOT_KEYS: [(&str, &str); 4] = [
    ("rmat", "coalescing"),
    ("rmat", "divergence"),
    ("road", "coalescing"),
    ("road", "divergence"),
];
const COLD_KEY: (&str, &str) = ("road", "latency");

struct Serving {
    server: Option<Server>,
    client: Client,
    cache: CacheConfig,
    sources: BTreeMap<&'static str, Vec<NodeId>>,
    rng: Rng,
    /// The next pass's request lines with their algorithm.
    script: Vec<(String, &'static str)>,
    /// (request line, algorithm, round trip ms, response line) per request.
    log: Vec<(String, &'static str, f64, String)>,
    /// How many entries of `log` are the warm-up's.
    warm_up: usize,
}

fn request_line(graph: &str, technique: &str, algo: &str, source: Option<NodeId>) -> String {
    match source {
        Some(s) => format!(
            "{{\"graph\":\"{graph}\",\"algo\":\"{algo}\",\"technique\":\"{technique}\",\"source\":{s}}}"
        ),
        None => format!("{{\"graph\":\"{graph}\",\"algo\":\"{algo}\",\"technique\":\"{technique}\"}}"),
    }
}

/// The requests before the first pass, timed only as a whole (`cold_s`):
/// two bfs per key, the fifth key first, so the pool ends up holding the
/// four hot keys and every entry was loaded through the disk cache once.
fn script_warm_up(s: &Serving) -> Vec<(String, &'static str)> {
    std::iter::once(COLD_KEY)
        .chain(HOT_KEYS)
        .flat_map(|(graph, technique)| {
            s.sources[graph][..2]
                .iter()
                .map(move |&v| (request_line(graph, technique, "bfs", Some(v)), "bfs"))
        })
        .collect()
}

/// One pass, one iteration: the same number of requests of each (key,
/// algorithm) cell every time, in a seeded order, plus one bfs on the fifth
/// key. Its load evicts a hot entry, whose reload evicts the next: each pass
/// forces a few requests down the pool-miss, disk-hit path. Fixed cell counts
/// keep the median request inside the bfs class and the 95th percentile
/// inside the slowest class (sssp on the road graph) on every seed.
fn script_pass(s: &mut Serving) -> Vec<(String, &'static str)> {
    let mut cells: Vec<((&str, &str), &'static str, Option<NodeId>)> = Vec::new();
    for key in HOT_KEYS {
        let pool = &s.sources[key.0];
        for (algo, times) in PER_KEY {
            let start = s.rng.below(pool.len());
            for i in 0..times {
                let source = (algo != "pr").then(|| pool[(start + i) % pool.len()]);
                cells.push((key, algo, source));
            }
        }
    }
    for i in (1..cells.len()).rev() {
        cells.swap(i, s.rng.below(i + 1));
    }
    let cold = (COLD_KEY, "bfs", Some(s.sources[COLD_KEY.0][0]));
    cells.insert(s.rng.below(cells.len()), cold);
    cells
        .into_iter()
        .map(|((graph, technique), algo, source)| {
            (request_line(graph, technique, algo, source), algo)
        })
        .collect()
}

fn stop_server(s: &mut Serving) {
    s.client.shutdown().expect("daemon acknowledges shutdown");
    if let Some(server) = s.server.take() {
        server.join();
    }
}

/// An in-process daemon on a Unix socket, one worker, one closed-loop
/// client.
fn serve_mixed(cx: &mut Cx) {
    let mut state = cx.setup(
        // Once: every start and stop of the daemon's threads leaves allocator
        // arenas behind, and which of them the last daemon reuses moved peak
        // RSS between 43 and 52 MiB from run to run (49.8–50.0 with one).
        false,
        |cx| {
            let cache = CacheConfig::at(cx.dir.join("cache"));
            let mut registry = GraphRegistry::new();
            let mut sources = BTreeMap::new();
            let rng = Rng::new(cx.seed, 1);
            for (name, kind) in [("rmat", GraphKind::Rmat), ("road", GraphKind::Road)] {
                let g = generate(cx, kind, size::SERVE);
                if name == "rmat" {
                    graph_counts(cx, &g);
                }
                let path = save(cx, &g, &format!("{name}.gfx"));
                registry.insert(name, GraphSource::File(path));
                let picks: Vec<NodeId> = g
                    .real_nodes()
                    .filter(|&v| g.degree(v) >= 2)
                    .take(SOURCES)
                    .collect();
                sources.insert(name, picks);
                // Fill the disk cache with exactly the keys the pool asks for.
                for (graph, technique) in HOT_KEYS.iter().chain([&COLD_KEY]) {
                    if *graph == name {
                        let pipeline = pipeline_for_request(&g, technique, None)
                            .expect("a transforming technique");
                        let span = format!("core.prepare_{technique}");
                        prepare(cx, &span, &g, &pipeline, &cache, true);
                    }
                }
            }
            let socket = cx.dir.join("serve.sock");
            let (server, client) = cx.span("server.start", |cx| {
                let mut config = ServeConfig::local(registry);
                config.bind = Bind::Unix(socket.clone());
                config.workers = 1;
                config.engine_threads = 1;
                config.pool_capacity = 4;
                config.cache = cache.clone();
                config.gpu = cx.gpu.clone();
                let server = Server::start(config).expect("daemon binds its socket");
                let client = Client::connect_unix(&socket).expect("client reaches the daemon");
                (server, client)
            });
            Serving {
                server: Some(server),
                client,
                cache,
                sources,
                rng,
                script: Vec::new(),
                log: Vec::new(),
                warm_up: 0,
            }
        },
        |_, mut s| {
            stop_server(&mut s);
            drop(std::fs::remove_dir_all(&s.cache.dir));
        },
    );
    cx.count("core.cache_bytes", dir_bytes(&state.cache.dir) as f64);

    let mut pass_stats: Vec<String> = Vec::new();
    cx.measure(
        false,
        &mut state,
        |cx, s| {
            s.script = script_pass(s);
            if s.log.is_empty() {
                // Checked like every other response; timed only as a whole,
                // as the cold start of the pool.
                let start = std::time::Instant::now();
                for (line, algo) in script_warm_up(s) {
                    let response = s.client.call_line(&line).expect("warm-up round trip");
                    s.log.push((line, algo, 0.0, response));
                }
                s.warm_up = s.log.len();
                cx.cold_s = Some(start.elapsed().as_secs_f64());
            }
            pass_stats.push(
                s.client
                    .call_line("{\"op\":\"stats\"}")
                    .expect("stats round trip"),
            );
        },
        |cx, s| {
            for (line, algo) in &s.script {
                let (response, seconds) = cx.op("server.rt", |_| {
                    s.client
                        .call_line(line)
                        .expect("round trip on a live daemon")
                });
                s.log.push((line.clone(), *algo, seconds * 1e3, response));
            }
        },
    );
    let stats_after = state
        .client
        .call_line("{\"op\":\"stats\"}")
        .expect("stats round trip");
    // pass_stats[0] precedes the first timed pass and [1] follows it.
    pass_stats.push(stats_after);
    settle_serving(cx, &state.log, state.warm_up, &pass_stats);
    stop_server(&mut state);
}

fn json_f64(doc: &Json, path: &[&str]) -> f64 {
    doc.path(path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn settle_serving(
    cx: &mut Cx,
    log: &[(String, &'static str, f64, String)],
    warm_up: usize,
    pass_stats: &[String],
) {
    let pass = HOT_KEYS.len() * PER_KEY.iter().map(|c| c.1).sum::<usize>() + 1;
    let mut results: BTreeMap<&str, String> = BTreeMap::new();
    let mut rt: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut queue, mut exec, mut overhead, mut miss_rt) = (vec![], vec![], vec![], vec![]);
    let mut first_pass_result_bytes = 0usize;
    let mut errors = 0u64;
    let mut sim_events = 0.0;
    let mut rt_seconds = 0.0;
    for (i, (line, algo, ms, response)) in log.iter().enumerate() {
        let doc = Json::parse(response).unwrap_or(Json::Null);
        let ok = doc.get("ok") == Some(&Json::Bool(true));
        let result = doc
            .get("result")
            .map(Json::to_compact_string)
            .unwrap_or_default();
        // Identical request lines give byte-identical result sections.
        let same = results
            .entry(line.as_str())
            .or_insert_with(|| result.clone())
            == &result;
        cx.check(ok && same, || format!("request {i} {line}: {response}"));
        if !ok {
            errors += 1;
        }
        if i < warm_up {
            continue;
        }
        if i < warm_up + pass {
            first_pass_result_bytes += result.len();
        }
        rt.entry(algo).or_default().push(*ms);
        let q = json_f64(&doc, &["serving", "queue_ms"]);
        let e = json_f64(&doc, &["serving", "exec_ms"]);
        queue.push(q);
        exec.push(e);
        overhead.push(ms - q - e);
        if doc.path(&["serving", "pool"]).and_then(Json::as_str) == Some("miss") {
            miss_rt.push(*ms);
        }
        sim_events += json_f64(&doc, &["result", "totals", "global_accesses"])
            + json_f64(&doc, &["result", "totals", "atomic_ops"]);
        rt_seconds += ms / 1e3;
    }
    // Work: memory events the daemon simulated per second of round trip.
    cx.work(sim_events, rt_seconds);
    for (algo, ms) in &rt {
        cx.layer.insert(format!("server.rt_ms.{algo}"), median(ms));
    }
    cx.layer.insert("server.queue_ms".into(), median(&queue));
    cx.layer.insert("server.exec_ms".into(), median(&exec));
    cx.layer
        .insert("server.overhead_ms".into(), median(&overhead));
    cx.layer
        .insert("server.miss_rt_ms".into(), median(&miss_rt));
    let all: Vec<f64> = rt.values().flatten().copied().collect();
    cx.layer
        .insert("server.p50_ms".into(), percentile(&all, 0.50));
    cx.layer
        .insert("server.p95_ms".into(), percentile(&all, 0.95));
    if cx.trace {
        // Queue and exec time the daemon reported, as children of each
        // request's span (the warm-up requests have none).
        let spans: Vec<usize> = (0..cx.rec.spans.len())
            .filter(|&i| cx.rec.spans[i].name == "server.rt")
            .collect();
        for (span, (q, e)) in spans.into_iter().zip(queue.iter().zip(&exec)) {
            cx.rec.add_children(
                span,
                &[
                    ("server.queue".into(), q / 1e3),
                    ("server.exec".into(), e / 1e3),
                ],
            );
        }
    }
    // Pool and batch counts of the first timed pass: it always runs, and it
    // starts from the pool the warm-up left. `response_bytes` counts the
    // `result` sections; the `serving` sections hold wall-clock digits.
    let before = Json::parse(&pass_stats[0]).unwrap_or(Json::Null);
    let after = Json::parse(&pass_stats[1]).unwrap_or(Json::Null);
    let delta = |path: &[&str]| {
        let full: Vec<&str> = ["result"].iter().chain(path).copied().collect();
        json_f64(&after, &full) - json_f64(&before, &full)
    };
    cx.count("server.pool_hits", delta(&["pool", "hits"]));
    cx.count("server.pool_misses", delta(&["pool", "misses"]));
    cx.count("server.evictions", delta(&["pool", "evictions"]));
    cx.count("server.batches", delta(&["metrics", "batches"]));
    cx.count("server.response_bytes", first_pass_result_bytes as f64);
    cx.count("server.errors", errors as f64);
    cx.check(delta(&["pool", "misses"]) >= 1.0, || {
        "no request of the first pass took the pool-miss path".into()
    });
}

// ----------------------------------------------------------- stream_churn

/// Batches of roughly `arcs` mutations: two thirds inserts of fresh arcs,
/// one third deletes of existing ones (as `bench::streaming::churn_batch`).
fn churn_batch(g: &Csr, rng: &mut Rng, arcs: usize) -> EdgeBatch {
    let n = g.num_nodes();
    let mut batch = EdgeBatch::new();
    for _ in 0..arcs {
        let u = rng.below(n) as NodeId;
        if rng.below(3) == 0 && g.degree(u) > 0 {
            let nbrs = g.neighbors(u);
            batch.delete(u, nbrs[rng.below(nbrs.len())]);
        } else {
            batch.insert(u, rng.below(n) as NodeId, 1 + rng.below(9) as u32);
        }
    }
    batch
}

struct Stream {
    inc: IncrementalPrepare,
    pipeline: Pipeline,
    churn: usize,
    rng: Rng,
    /// The next cycle's three batches, made before the cycle is timed.
    cycle: Vec<EdgeBatch>,
}

/// A latency-only pipeline kept current under 1 % churn batches; the debt
/// threshold of 2.5 × churn makes every cycle stale, stale, exact.
fn stream_churn(cx: &mut Cx) {
    let mut state = cx.setup(
        true,
        |cx| {
            let g = generate(cx, GraphKind::Rmat, size::STREAM);
            graph_counts(cx, &g);
            let tuned = tune(cx, &g);
            let pipeline = pipeline_for(&tuned, "latency");
            let churn = (g.num_edges() / 100).max(1);
            let knobs = StreamKnobs::default()
                .with_debt_threshold(2.5 * churn as f64 / g.num_edges() as f64);
            let gpu = cx.gpu.clone();
            let inc = cx.span("core.incr_new", |_| {
                IncrementalPrepare::new(g, pipeline.clone(), gpu, knobs)
                    .expect("tuned knobs are valid")
            });
            Stream {
                inc,
                pipeline,
                churn,
                rng: Rng::new(cx.seed, 2),
                cycle: Vec::new(),
            }
        },
        |_, _| {},
    );
    let mut modes: Vec<PrepareMode> = Vec::new();
    cx.measure(
        false,
        &mut state,
        |cx, s| {
            // Each batch is drawn against the graph the previous one left.
            let mut scratch = s.inc.graph().clone();
            s.cycle.clear();
            for _ in 0..3 {
                let batch = churn_batch(&scratch, &mut s.rng, s.churn);
                let start = std::time::Instant::now();
                scratch.apply_batch(&batch).expect("batch names live nodes");
                cx.sample("graph.apply_batch_ms", start.elapsed().as_secs_f64() * 1e3);
                s.cycle.push(batch);
            }
        },
        |cx, s| {
            let apply_ms = cx.sampled("graph.apply_batch_ms");
            for i in 0..3 {
                // The mode is only known afterwards: the span is renamed.
                let (outcome, seconds) = cx.op("core.incr", |_| {
                    s.inc.apply_batch(&s.cycle[i]).expect("batch applies")
                });
                let name = format!("core.incr_{}", outcome.mode.label());
                cx.rename_last_span(&name);
                cx.returned_children(&[("core.incr_prepare".into(), outcome.prepare_seconds)]);
                cx.work(outcome.churn_arcs as f64, seconds);
                cx.sample(&format!("{name}_ms"), seconds * 1e3);
                cx.sample("core.incr_prepare_ms", outcome.prepare_seconds * 1e3);
                cx.sample(
                    "core.incr_maintenance_ms",
                    (seconds - outcome.prepare_seconds) * 1e3 - apply_ms,
                );
                *cx.tally.entry("core.cc_dirty".into()).or_default() += outcome.cc_dirty as f64;
                modes.push(outcome.mode);
            }
        },
    );
    for (i, cycle) in modes.chunks(3).enumerate() {
        cx.check(
            cycle == [PrepareMode::Stale, PrepareMode::Stale, PrepareMode::Exact],
            || format!("cycle {i} ran {cycle:?}, not stale, stale, exact"),
        );
    }
    // After the last exact batch the maintained output equals a cold one.
    let cold = state
        .pipeline
        .try_apply(state.inc.graph(), &cx.gpu)
        .expect("tuned knobs are valid");
    cx.check(same_prepared(state.inc.prepared(), &cold), || {
        "incrementally maintained output differs from a from-scratch prepare".into()
    });
}
