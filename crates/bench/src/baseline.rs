//! Bench baselines: a committed snapshot of the regression-gate corpus.
//!
//! A [`BenchBaseline`] records, for every cell of a small deterministic
//! corpus (paper suite × technique × gated algorithm under Baseline-I),
//! the two **gated** metrics — simulated `elapsed_cycles` and `inaccuracy`
//! vs the exact CPU reference — plus an **informational** wall-clock noise
//! envelope from N repeated runs. Because the gated metrics are pure
//! functions of the seeded suite (no wall clock, no thread count), a
//! baseline file saved on one machine is valid on any other: CI restores a
//! committed `BENCH_*.json` and compares bit-for-bit comparable numbers.
//!
//! Serialized as the `graffix.bench-baseline` v4 schema (v2 added the
//! per-cell `direction` key alongside the direction-optimization cells;
//! v3 added the `preprocess` array of per-(graph, technique) transform
//! wall-time cells, always measured on fresh uncached transforms; v4
//! added the `large` array of segmented 2^20-node bfs/pr cells gated
//! behind a coarse band).

use crate::gate::{Cell, GateReport};
use crate::suite::{Suite, SuiteOptions};
use graffix_algos::{Algo, AlgoOutcome, Direction, Plan};
use graffix_baselines::Baseline;
use graffix_core::{Prepared, Technique};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::Segmentation;
use graffix_sim::{GpuConfig, Json};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier for baseline files.
pub const BASELINE_SCHEMA: &str = "graffix.bench-baseline";
/// Baseline schema version.
pub const BASELINE_VERSION: u64 = 4;

/// Techniques the gate corpus covers, in order.
pub const GATE_TECHNIQUES: [Technique; 5] = [
    Technique::Exact,
    Technique::Coalescing,
    Technique::Latency,
    Technique::Divergence,
    Technique::Combined,
];

/// Algorithms the gate corpus runs (one frontier-driven, one fixpoint).
/// Kept to two so `save-baseline` + `gate` stay fast enough for CI while
/// still exercising every transform on every graph family.
pub const GATE_ALGOS: [Algo; 2] = [Algo::Sssp, Algo::Pr];

/// Identity of one corpus cell.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Paper graph name (`rmat26`, `USA-road`, ...).
    pub graph: String,
    /// [`Technique::key`].
    pub technique: String,
    /// [`Baseline::key`].
    pub baseline: String,
    /// [`Algo::name`].
    pub algo: String,
    /// [`Direction::key`] of the plan's traversal policy.
    pub direction: String,
}

impl CellKey {
    /// Stable single-string id, used in gate reports and error messages.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.graph, self.technique, self.baseline, self.algo, self.direction
        )
    }
}

/// One measured corpus cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellMeasurement {
    pub key: CellKey,
    /// Gated: deterministic simulated elapsed cycles.
    pub elapsed_cycles: u64,
    /// Noise envelope of `elapsed_cycles` across repeats. Always 0 for
    /// the deterministic simulator; recorded so the gate's noise-aware
    /// threshold generalizes to noisy metrics.
    pub cycles_stddev: f64,
    /// Gated: inaccuracy vs the exact CPU reference.
    pub inaccuracy: f64,
    /// Informational: mean host wall seconds per run over the repeats.
    pub wall_seconds_mean: f64,
    /// Informational: stddev of host wall seconds over the repeats.
    pub wall_seconds_stddev: f64,
}

/// One preprocess-time cell: wall seconds to run the transform for
/// (`graph`, `technique`) from scratch — no in-process memoization, no
/// on-disk cache. Wall-clock is inherently noisy, so the gate judges these
/// with a coarse tolerance (the `preprocess_seconds` policy): the cells
/// catch order-of-magnitude preprocessing regressions, not microsecond
/// jitter.
#[derive(Clone, Debug, PartialEq)]
pub struct PreprocessMeasurement {
    /// Paper graph name (`rmat26`, `USA-road`, ...).
    pub graph: String,
    /// [`Technique::key`].
    pub technique: String,
    /// Mean wall seconds over the repeats.
    pub seconds_mean: f64,
    /// Stddev of wall seconds over the repeats.
    pub seconds_stddev: f64,
}

impl PreprocessMeasurement {
    /// Stable single-string id, used in gate reports and error messages.
    pub fn id(&self) -> String {
        format!("{}/{}/preprocess", self.graph, self.technique)
    }
}

/// Algorithms the large-graph cells run. One traversal and one fixpoint,
/// both with per-vertex vector outputs so the runs stay cheap enough for
/// CI at 2^20 nodes.
pub const LARGE_ALGOS: [Algo; 2] = [Algo::Bfs, Algo::Pr];

/// One large-graph cell: a segmented run on a 2^20-scale rmat graph.
/// These cells exist to keep the out-of-core path honest at a scale the
/// regular corpus never reaches; their cycles are deterministic but the
/// gate judges them behind a coarse band (the `large_cycles` policy) so
/// routine pricing tweaks don't force a baseline refresh.
#[derive(Clone, Debug, PartialEq)]
pub struct LargeCellMeasurement {
    /// Paper graph name (always `rmat26` today).
    pub graph: String,
    /// Node count the graph was generated at (e.g. `1048576`).
    pub nodes: usize,
    /// Algorithm key (`bfs` or `pr`).
    pub algo: String,
    /// Segment byte budget the run was segmented under.
    pub segment_bytes: usize,
    /// Number of segments the budget produced (sanity: must be > 1).
    pub segments: usize,
    /// Gated: deterministic simulated elapsed cycles of the segmented run.
    pub elapsed_cycles: u64,
    /// Informational: host wall seconds for the single measured run.
    pub wall_seconds: f64,
}

impl LargeCellMeasurement {
    /// Stable single-string id, used in gate reports and error messages.
    pub fn id(&self) -> String {
        format!(
            "{}:{}/{}/segmented/large",
            self.graph, self.nodes, self.algo
        )
    }
}

/// Measures the large-graph cells: one rmat graph at `nodes` vertices,
/// segmented under `segment_bytes`, running each of [`LARGE_ALGOS`] once.
/// Cycles are pure functions of (nodes, seed, segment_bytes), so a single
/// run per cell is exact; only the informational wall time is noisy.
pub fn measure_large(nodes: usize, seed: u64, segment_bytes: usize) -> Vec<LargeCellMeasurement> {
    let cfg = GpuConfig::k40c();
    let g = GraphSpec::new(GraphKind::Rmat, nodes, seed).generate();
    let segments = Arc::new(Segmentation::build(&g, segment_bytes));
    let n_segments = segments.len();
    let prepared = Prepared::exact(g.clone());
    LARGE_ALGOS
        .into_iter()
        .map(|algo| {
            let plan = Baseline::Lonestar
                .plan(&prepared, &cfg)
                .with_segments(Arc::clone(&segments));
            let t0 = Instant::now();
            let (run, _) = algo.run(&plan, &g, None, 0);
            LargeCellMeasurement {
                graph: GraphKind::Rmat.paper_name().to_string(),
                nodes,
                algo: algo.name().to_string(),
                segment_bytes,
                segments: n_segments,
                elapsed_cycles: run.stats.elapsed_cycles(&cfg),
                wall_seconds: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Measures the preprocess-time cells: every (graph, non-exact technique)
/// pair, transformed fresh `repeats` times.
pub fn measure_preprocess(suite: &Suite, repeats: usize) -> Vec<PreprocessMeasurement> {
    let repeats = repeats.max(1);
    let mut cells = Vec::new();
    for gi in 0..suite.len() {
        for technique in GATE_TECHNIQUES {
            if technique == Technique::Exact {
                continue;
            }
            let mut secs = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                secs.push(
                    Suite::pipeline_for(suite.kind(gi), technique)
                        .try_apply(suite.graph(gi), &suite.cfg)
                        .expect("paper-guideline knobs are always valid")
                        .report
                        .preprocess_seconds,
                );
            }
            let (mean, stddev) = mean_stddev(&secs);
            cells.push(PreprocessMeasurement {
                graph: suite.kind(gi).paper_name().to_string(),
                technique: technique.key().to_string(),
                seconds_mean: mean,
                seconds_stddev: stddev,
            });
        }
    }
    cells
}

/// Where and how a baseline was produced. `nodes`/`seed`/`bc_sources`
/// pin the corpus (the gate re-measures with exactly these); the rest is
/// informational provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// `GRAFFIX_BENCH_HOST`, or `HOSTNAME`, or `unknown`.
    pub host: String,
    pub os: String,
    pub arch: String,
    pub nodes: usize,
    pub seed: u64,
    pub bc_sources: usize,
    /// Wall-clock repeats per cell used for the noise envelope.
    pub repeats: usize,
}

impl Fingerprint {
    /// Captures the environment around the given suite options.
    pub fn capture(options: &SuiteOptions, repeats: usize) -> Fingerprint {
        let host = std::env::var("GRAFFIX_BENCH_HOST")
            .or_else(|_| std::env::var("HOSTNAME"))
            .unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            host,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            nodes: options.nodes,
            seed: options.seed,
            bc_sources: options.bc_sources,
            repeats,
        }
    }

    /// The suite options this fingerprint pins.
    pub fn suite_options(&self) -> SuiteOptions {
        SuiteOptions {
            nodes: self.nodes,
            seed: self.seed,
            bc_sources: self.bc_sources,
        }
    }
}

/// A complete saved baseline: fingerprint + one measurement per cell +
/// one preprocess-time cell per (graph, technique) + optional segmented
/// large-graph cells.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    pub fingerprint: Fingerprint,
    pub cells: Vec<CellMeasurement>,
    pub preprocess: Vec<PreprocessMeasurement>,
    /// Segmented 2^20-scale cells. Empty unless the baseline was saved
    /// with `--large-nodes` — [`BenchBaseline::capture`] never measures
    /// them implicitly because they dominate save time.
    pub large: Vec<LargeCellMeasurement>,
}

/// Measures the full gate corpus on `suite`: every (graph, technique)
/// pair under Baseline-I for each of [`GATE_ALGOS`]. The deterministic
/// metrics come from the first run; `repeats` total runs feed the
/// wall-clock noise envelope (and double as a determinism check — the
/// simulated cycles must not move between repeats).
pub fn measure_corpus(suite: &Suite, repeats: usize) -> Vec<CellMeasurement> {
    let repeats = repeats.max(1);
    let baseline = Baseline::Lonestar;
    let mut cells = Vec::new();
    for gi in 0..suite.len() {
        for technique in GATE_TECHNIQUES {
            let prepared = suite.prepared(gi, technique);
            let plan = baseline.plan(&prepared, &suite.cfg);
            for algo in GATE_ALGOS {
                cells.push(measure_cell(
                    suite, gi, &plan, technique, baseline, algo, repeats,
                ));
            }
        }
    }
    // Direction-optimization cells (appended so pre-v2 cell ordering is
    // stable): push vs auto under the frontier-driven baseline on the two
    // densest graph families, where wavefronts grow wide enough for pull
    // supersteps to fire. The gate locks in `auto <= push` cycles here.
    for gi in 0..suite.len() {
        if !direction_cell_kind(suite.kind(gi)) {
            continue;
        }
        let prepared = suite.prepared(gi, Technique::Exact);
        for algo in GATE_ALGOS {
            for direction in [Direction::Push, Direction::Auto] {
                let plan = Baseline::Gunrock
                    .plan(&prepared, &suite.cfg)
                    .with_direction(direction);
                cells.push(measure_cell(
                    suite,
                    gi,
                    &plan,
                    Technique::Exact,
                    Baseline::Gunrock,
                    algo,
                    repeats,
                ));
            }
        }
    }
    cells
}

/// Graph families the direction cells cover.
pub fn direction_cell_kind(kind: GraphKind) -> bool {
    matches!(kind, GraphKind::Rmat | GraphKind::Random)
}

fn measure_cell(
    suite: &Suite,
    gi: usize,
    plan: &Plan,
    technique: Technique,
    baseline: Baseline,
    algo: Algo,
    repeats: usize,
) -> CellMeasurement {
    let original = suite.graph(gi);
    let bc_sources = suite.options.bc_sources;
    let reference = algo.exact(original, None, bc_sources);
    let mut cycles = Vec::with_capacity(repeats);
    let mut walls = Vec::with_capacity(repeats);
    let mut inacc = 0.0;
    for rep in 0..repeats {
        let t0 = Instant::now();
        let (run, scalar) = algo.run(plan, original, None, bc_sources);
        walls.push(t0.elapsed().as_secs_f64());
        cycles.push(run.elapsed_cycles(&suite.cfg));
        if rep == 0 {
            inacc = AlgoOutcome::of(&run, scalar).inaccuracy(&reference);
        }
    }
    let (wall_mean, wall_stddev) = mean_stddev(&walls);
    let cycle_vals: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
    let (_, cycles_stddev) = mean_stddev(&cycle_vals);
    CellMeasurement {
        key: CellKey {
            graph: suite.kind(gi).paper_name().to_string(),
            technique: technique.key().to_string(),
            baseline: baseline.key().to_string(),
            algo: algo.name().to_string(),
            direction: plan.direction.key().to_string(),
        },
        elapsed_cycles: cycles[0],
        cycles_stddev,
        inaccuracy: inacc,
        wall_seconds_mean: wall_mean,
        wall_seconds_stddev: wall_stddev,
    }
}

fn mean_stddev(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

impl BenchBaseline {
    /// Measures the corpus with freshly captured environment provenance.
    pub fn capture(suite: &Suite, repeats: usize) -> BenchBaseline {
        BenchBaseline {
            fingerprint: Fingerprint::capture(&suite.options, repeats),
            cells: measure_corpus(suite, repeats),
            preprocess: measure_preprocess(suite, repeats),
            large: Vec::new(),
        }
    }

    /// Looks a cell up by id.
    pub fn cell(&self, id: &str) -> Option<&CellMeasurement> {
        self.cells.iter().find(|c| c.key.id() == id)
    }

    /// Everything the gate judges, flattened: `cycles` and `inaccuracy`
    /// per corpus cell, then the preprocess seconds, then the large cells.
    pub fn gate_cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for c in &self.cells {
            out.push(Cell {
                stddev: c.cycles_stddev,
                ..Cell::new(c.key.id(), "cycles", c.elapsed_cycles as f64)
            });
            out.push(Cell::new(c.key.id(), "inaccuracy", c.inaccuracy));
        }
        for p in &self.preprocess {
            out.push(Cell {
                stddev: p.seconds_stddev,
                ..Cell::new(p.id(), "preprocess_seconds", p.seconds_mean)
            });
        }
        for c in &self.large {
            out.push(Cell {
                note: format!("{} segments, {:.1}s wall", c.segments, c.wall_seconds),
                ..Cell::new(c.id(), "large_cycles", c.elapsed_cycles as f64)
            });
        }
        out
    }

    /// Serializes to the `graffix.bench-baseline` document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str(BASELINE_SCHEMA.to_string()));
        root.set("version", Json::U64(BASELINE_VERSION));
        let f = &self.fingerprint;
        let mut fp = Json::obj();
        fp.set("host", Json::Str(f.host.clone()));
        fp.set("os", Json::Str(f.os.clone()));
        fp.set("arch", Json::Str(f.arch.clone()));
        fp.set("nodes", Json::U64(f.nodes as u64));
        fp.set("seed", Json::U64(f.seed));
        fp.set("bc_sources", Json::U64(f.bc_sources as u64));
        fp.set("repeats", Json::U64(f.repeats as u64));
        root.set("fingerprint", fp);
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut o = Json::obj();
                o.set("graph", Json::Str(c.key.graph.clone()));
                o.set("technique", Json::Str(c.key.technique.clone()));
                o.set("baseline", Json::Str(c.key.baseline.clone()));
                o.set("algo", Json::Str(c.key.algo.clone()));
                o.set("direction", Json::Str(c.key.direction.clone()));
                o.set("elapsed_cycles", Json::U64(c.elapsed_cycles));
                o.set("cycles_stddev", Json::F64(c.cycles_stddev));
                o.set("inaccuracy", Json::F64(c.inaccuracy));
                o.set("wall_seconds_mean", Json::F64(c.wall_seconds_mean));
                o.set("wall_seconds_stddev", Json::F64(c.wall_seconds_stddev));
                o
            })
            .collect();
        root.set("cells", Json::Arr(cells));
        let preprocess = self
            .preprocess
            .iter()
            .map(|p| {
                let mut o = Json::obj();
                o.set("graph", Json::Str(p.graph.clone()));
                o.set("technique", Json::Str(p.technique.clone()));
                o.set("seconds_mean", Json::F64(p.seconds_mean));
                o.set("seconds_stddev", Json::F64(p.seconds_stddev));
                o
            })
            .collect();
        root.set("preprocess", Json::Arr(preprocess));
        let large = self
            .large
            .iter()
            .map(|c| {
                let mut o = Json::obj();
                o.set("graph", Json::Str(c.graph.clone()));
                o.set("nodes", Json::U64(c.nodes as u64));
                o.set("algo", Json::Str(c.algo.clone()));
                o.set("segment_bytes", Json::U64(c.segment_bytes as u64));
                o.set("segments", Json::U64(c.segments as u64));
                o.set("elapsed_cycles", Json::U64(c.elapsed_cycles));
                o.set("wall_seconds", Json::F64(c.wall_seconds));
                o
            })
            .collect();
        root.set("large", Json::Arr(large));
        root
    }

    /// The serialized document (pretty JSON, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a `graffix.bench-baseline` document.
    pub fn from_json(doc: &Json) -> Result<BenchBaseline, String> {
        let schema = str_field(doc, "schema")?;
        if schema != BASELINE_SCHEMA {
            return Err(format!(
                "schema is `{schema}`, expected `{BASELINE_SCHEMA}`"
            ));
        }
        let version = u64_field(doc, "version")?;
        if version != BASELINE_VERSION {
            return Err(format!("unsupported baseline version {version}"));
        }
        let fp = doc.get("fingerprint").ok_or("missing `fingerprint`")?;
        let fingerprint = Fingerprint {
            host: str_field(fp, "host")?,
            os: str_field(fp, "os")?,
            arch: str_field(fp, "arch")?,
            nodes: u64_field(fp, "nodes")? as usize,
            seed: u64_field(fp, "seed")?,
            bc_sources: u64_field(fp, "bc_sources")? as usize,
            repeats: u64_field(fp, "repeats")? as usize,
        };
        let mut cells = Vec::new();
        for c in doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing `cells` array")?
        {
            cells.push(CellMeasurement {
                key: CellKey {
                    graph: str_field(c, "graph")?,
                    technique: str_field(c, "technique")?,
                    baseline: str_field(c, "baseline")?,
                    algo: str_field(c, "algo")?,
                    direction: str_field(c, "direction")?,
                },
                elapsed_cycles: u64_field(c, "elapsed_cycles")?,
                cycles_stddev: f64_field(c, "cycles_stddev")?,
                inaccuracy: f64_field(c, "inaccuracy")?,
                wall_seconds_mean: f64_field(c, "wall_seconds_mean")?,
                wall_seconds_stddev: f64_field(c, "wall_seconds_stddev")?,
            });
        }
        let mut preprocess = Vec::new();
        for p in doc
            .get("preprocess")
            .and_then(Json::as_arr)
            .ok_or("missing `preprocess` array")?
        {
            preprocess.push(PreprocessMeasurement {
                graph: str_field(p, "graph")?,
                technique: str_field(p, "technique")?,
                seconds_mean: f64_field(p, "seconds_mean")?,
                seconds_stddev: f64_field(p, "seconds_stddev")?,
            });
        }
        let mut large = Vec::new();
        if let Some(arr) = doc.get("large").and_then(Json::as_arr) {
            for c in arr {
                large.push(LargeCellMeasurement {
                    graph: str_field(c, "graph")?,
                    nodes: u64_field(c, "nodes")? as usize,
                    algo: str_field(c, "algo")?,
                    segment_bytes: u64_field(c, "segment_bytes")? as usize,
                    segments: u64_field(c, "segments")? as usize,
                    elapsed_cycles: u64_field(c, "elapsed_cycles")?,
                    wall_seconds: f64_field(c, "wall_seconds")?,
                });
            }
        }
        Ok(BenchBaseline {
            fingerprint,
            cells,
            preprocess,
            large,
        })
    }

    /// Parses from serialized text.
    pub fn parse(text: &str) -> Result<BenchBaseline, String> {
        BenchBaseline::from_json(&Json::parse(text)?)
    }
}

/// Re-measures the corpus pinned by `baseline`'s fingerprint on `suite`
/// (built from [`Fingerprint::suite_options`], optionally with the on-disk
/// prepared-graph cache for the algorithm cells; preprocess cells always
/// re-transform from scratch) and gates it.
pub fn run_gate(baseline: &BenchBaseline, suite: &Suite) -> GateReport {
    let mut current = BenchBaseline::capture(suite, baseline.fingerprint.repeats);
    // Large cells share one (nodes, segment_bytes) configuration per
    // baseline; the generator seed comes from the fingerprint so the
    // re-measured graph is the recorded one.
    if let Some(c) = baseline.large.first() {
        current.large = measure_large(c.nodes, baseline.fingerprint.seed, c.segment_bytes);
    }
    GateReport::evaluate("bench", &baseline.gate_cells(), &current.gate_cells())
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field `{key}`"))
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing f64 field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 200,
            seed: 3,
            bc_sources: 2,
        })
    }

    #[test]
    fn corpus_covers_every_cell_once() {
        let s = tiny();
        let cells = measure_corpus(&s, 1);
        let dense = (0..s.len())
            .filter(|&gi| direction_cell_kind(s.kind(gi)))
            .count();
        assert_eq!(
            cells.len(),
            s.len() * GATE_TECHNIQUES.len() * GATE_ALGOS.len() + dense * GATE_ALGOS.len() * 2
        );
        let mut ids: Vec<String> = cells.iter().map(|c| c.key.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "cell ids must be unique");
        // The direction cells come in push/auto pairs on the gunrock
        // baseline.
        let auto = cells
            .iter()
            .filter(|c| c.key.direction == "auto")
            .collect::<Vec<_>>();
        assert_eq!(auto.len(), dense * GATE_ALGOS.len());
        for c in &auto {
            assert_eq!(c.key.baseline, "gunrock");
            assert!(cells.iter().any(|p| {
                p.key.direction == "push"
                    && p.key.graph == c.key.graph
                    && p.key.algo == c.key.algo
                    && p.key.baseline == c.key.baseline
            }));
        }
    }

    #[test]
    fn gated_metrics_are_deterministic_across_repeats() {
        let s = tiny();
        for c in measure_corpus(&s, 2) {
            assert_eq!(c.cycles_stddev, 0.0, "{} cycles moved", c.key.id());
            assert!(c.inaccuracy.is_finite() && c.inaccuracy >= 0.0);
            assert!(c.wall_seconds_mean > 0.0);
        }
    }

    #[test]
    fn preprocess_cells_cover_every_transform_once() {
        let s = tiny();
        let cells = measure_preprocess(&s, 2);
        assert_eq!(cells.len(), s.len() * (GATE_TECHNIQUES.len() - 1));
        let mut ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "preprocess ids must be unique");
        for c in &cells {
            assert_ne!(c.technique, "exact", "exact has nothing to preprocess");
            assert!(c.seconds_mean > 0.0, "{} took no time", c.id());
            assert!(c.seconds_stddev >= 0.0);
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let s = tiny();
        let mut b = BenchBaseline::capture(&s, 1);
        b.large.push(LargeCellMeasurement {
            graph: "rmat26".into(),
            nodes: 1 << 20,
            algo: "pr".into(),
            segment_bytes: 1536 * 1024,
            segments: 5580,
            elapsed_cycles: 694_380_574,
            wall_seconds: 49.4,
        });
        let text = b.to_pretty_string();
        let back = BenchBaseline::parse(&text).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_pretty_string(), text);
    }

    /// Large cells at test scale: the measurement function must produce
    /// one cell per [`LARGE_ALGOS`] entry, each recording a genuinely
    /// multi-segment run, and the gated cycles must be deterministic.
    #[test]
    fn large_cells_are_segmented_and_deterministic() {
        let a = measure_large(1500, 11, 8 * 1024);
        let b = measure_large(1500, 11, 8 * 1024);
        assert_eq!(a.len(), LARGE_ALGOS.len());
        let mut ids: Vec<String> = a.iter().map(|c| c.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), LARGE_ALGOS.len(), "large ids must be unique");
        for (x, y) in a.iter().zip(&b) {
            assert!(x.segments > 1, "{} ran un-segmented", x.id());
            assert_eq!(
                x.elapsed_cycles,
                y.elapsed_cycles,
                "{} cycles moved",
                x.id()
            );
            assert!(x.wall_seconds > 0.0);
        }
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let s = tiny();
        let mut doc = Json::parse(&BenchBaseline::capture(&s, 1).to_pretty_string()).unwrap();
        doc.set("schema", Json::Str("nope".into()));
        assert!(BenchBaseline::from_json(&doc).is_err());
        doc.set("schema", Json::Str(BASELINE_SCHEMA.into()));
        doc.set("version", Json::U64(9));
        assert!(BenchBaseline::from_json(&doc).is_err());
    }
}
