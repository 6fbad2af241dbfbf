//! Bench baselines: a committed snapshot of the regression-gate corpus.
//!
//! A [`BenchBaseline`] records, for every cell of a small deterministic
//! corpus (paper suite × technique × gated algorithm under Baseline-I),
//! simulated `elapsed_cycles` and `inaccuracy` vs the exact CPU reference,
//! plus the simulated cycles of segmented 2^20-node cells. All of them are
//! pure functions of the seeded suite (no wall clock, no thread count), so
//! a baseline saved on one machine is valid on any other, and the gate
//! holds every cell to its recorded value exactly. The file stores the
//! [`SuiteOptions`] the gate re-measures with and nothing it does not read.
//!
//! Serialized as the `graffix.bench-baseline` v5 schema (v2 added the
//! per-cell `direction` key alongside the direction-optimization cells;
//! v4 added the `large` array of segmented 2^20-node bfs/pr cells; v5
//! dropped every wall-clock field and the host provenance).

use crate::gate::{Cell, GateReport};
use crate::suite::{Suite, SuiteOptions};
use graffix_algos::{Algo, AlgoOutcome, Direction, Plan};
use graffix_baselines::Baseline;
use graffix_core::{Prepared, Technique};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::Segmentation;
use graffix_sim::{GpuConfig, Json};
use std::sync::Arc;

/// Schema identifier for baseline files.
pub const BASELINE_SCHEMA: &str = "graffix.bench-baseline";
/// Baseline schema version.
pub const BASELINE_VERSION: u64 = 5;

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
    /// Simulated elapsed cycles.
    pub elapsed_cycles: u64,
    /// Inaccuracy vs the exact CPU reference.
    pub inaccuracy: f64,
}

/// Algorithms the large-graph cells run. One traversal and one fixpoint,
/// both with per-vertex vector outputs so the runs stay cheap enough for
/// CI at 2^20 nodes.
pub const LARGE_ALGOS: [Algo; 2] = [Algo::Bfs, Algo::Pr];

/// One large-graph cell: a segmented run on a 2^20-scale rmat graph.
/// These cells exist to keep the out-of-core path honest at a scale the
/// regular corpus never reaches; like every corpus cell they are judged
/// exactly (the `large_cycles` policy).
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
    /// Simulated elapsed cycles of the segmented run.
    pub elapsed_cycles: u64,
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
/// run per cell is exact.
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
            let (run, _) = algo.run(&plan, &g, None, 0);
            LargeCellMeasurement {
                graph: GraphKind::Rmat.paper_name().to_string(),
                nodes,
                algo: algo.name().to_string(),
                segment_bytes,
                segments: n_segments,
                elapsed_cycles: run.stats.elapsed_cycles(&cfg),
            }
        })
        .collect()
}

/// A complete saved baseline: the suite options the corpus was measured
/// at, one measurement per corpus cell and the optional segmented
/// large-graph cells.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    /// The corpus shape; the gate re-measures with exactly these.
    pub suite: SuiteOptions,
    pub cells: Vec<CellMeasurement>,
    /// Segmented 2^20-scale cells. Empty unless the baseline was saved
    /// with `--large-nodes` — [`BenchBaseline::capture`] never measures
    /// them implicitly because they dominate save time.
    pub large: Vec<LargeCellMeasurement>,
}

/// Measures the full gate corpus on `suite`: every (graph, technique)
/// pair under Baseline-I for each of [`GATE_ALGOS`], then the direction
/// cells. One run per cell: every metric is deterministic.
pub fn measure_corpus(suite: &Suite) -> Vec<CellMeasurement> {
    let baseline = Baseline::Lonestar;
    let mut cells = Vec::new();
    for gi in 0..suite.len() {
        for technique in GATE_TECHNIQUES {
            let prepared = suite.prepared(gi, technique);
            let plan = baseline.plan(&prepared, &suite.cfg);
            for algo in GATE_ALGOS {
                cells.push(measure_cell(suite, gi, &plan, technique, baseline, algo));
            }
        }
    }
    // Direction-optimization cells (appended so pre-v2 cell ordering is
    // stable): push vs auto under the frontier-driven baseline on the two
    // densest graph families, where wavefronts grow wide enough for pull
    // supersteps to fire.
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
) -> CellMeasurement {
    let original = suite.graph(gi);
    let bc_sources = suite.options.bc_sources;
    let reference = algo.exact(original, None, bc_sources);
    let (run, scalar) = algo.run(plan, original, None, bc_sources);
    CellMeasurement {
        key: CellKey {
            graph: suite.kind(gi).paper_name().to_string(),
            technique: technique.key().to_string(),
            baseline: baseline.key().to_string(),
            algo: algo.name().to_string(),
            direction: plan.direction.key().to_string(),
        },
        elapsed_cycles: run.elapsed_cycles(&suite.cfg),
        inaccuracy: AlgoOutcome::of(&run, scalar).inaccuracy(&reference),
    }
}

impl BenchBaseline {
    /// Measures the corpus of `suite` (no large cells).
    pub fn capture(suite: &Suite) -> BenchBaseline {
        BenchBaseline {
            suite: suite.options.clone(),
            cells: measure_corpus(suite),
            large: Vec::new(),
        }
    }

    /// Looks a cell up by id.
    pub fn cell(&self, id: &str) -> Option<&CellMeasurement> {
        self.cells.iter().find(|c| c.key.id() == id)
    }

    /// Everything the gate judges, flattened: `cycles` and `inaccuracy`
    /// per corpus cell, then the large cells.
    pub fn gate_cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for c in &self.cells {
            out.push(Cell::new(c.key.id(), "cycles", c.elapsed_cycles as f64));
            out.push(Cell::new(c.key.id(), "inaccuracy", c.inaccuracy));
        }
        for c in &self.large {
            out.push(Cell {
                note: format!("{} segments", c.segments),
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
        let mut suite = Json::obj();
        suite.set("nodes", Json::U64(self.suite.nodes as u64));
        suite.set("seed", Json::U64(self.suite.seed));
        suite.set("bc_sources", Json::U64(self.suite.bc_sources as u64));
        root.set("suite", suite);
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
                o.set("inaccuracy", Json::F64(c.inaccuracy));
                o
            })
            .collect();
        root.set("cells", Json::Arr(cells));
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
            return Err(format!(
                "unsupported baseline version {version} (this build reads v{BASELINE_VERSION})"
            ));
        }
        let s = doc.get("suite").ok_or("missing `suite`")?;
        let suite = SuiteOptions {
            nodes: u64_field(s, "nodes")? as usize,
            seed: u64_field(s, "seed")?,
            bc_sources: u64_field(s, "bc_sources")? as usize,
        };
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing `{key}` array"))
        };
        let mut cells = Vec::new();
        for c in array("cells")? {
            cells.push(CellMeasurement {
                key: CellKey {
                    graph: str_field(c, "graph")?,
                    technique: str_field(c, "technique")?,
                    baseline: str_field(c, "baseline")?,
                    algo: str_field(c, "algo")?,
                    direction: str_field(c, "direction")?,
                },
                elapsed_cycles: u64_field(c, "elapsed_cycles")?,
                inaccuracy: f64_field(c, "inaccuracy")?,
            });
        }
        let mut large = Vec::new();
        for c in array("large")? {
            large.push(LargeCellMeasurement {
                graph: str_field(c, "graph")?,
                nodes: u64_field(c, "nodes")? as usize,
                algo: str_field(c, "algo")?,
                segment_bytes: u64_field(c, "segment_bytes")? as usize,
                segments: u64_field(c, "segments")? as usize,
                elapsed_cycles: u64_field(c, "elapsed_cycles")?,
            });
        }
        Ok(BenchBaseline {
            suite,
            cells,
            large,
        })
    }

    /// Parses from serialized text.
    pub fn parse(text: &str) -> Result<BenchBaseline, String> {
        BenchBaseline::from_json(&Json::parse(text)?)
    }
}

/// Re-measures the corpus `baseline` records on `suite` (built from
/// `baseline.suite`, optionally with the on-disk prepared-graph cache) and
/// gates it.
pub fn run_gate(baseline: &BenchBaseline, suite: &Suite) -> GateReport {
    let mut current = BenchBaseline::capture(suite);
    // Large cells share one (nodes, segment_bytes) configuration per
    // baseline; the generator seed is the suite's, so the re-measured
    // graph is the recorded one.
    if let Some(c) = baseline.large.first() {
        current.large = measure_large(c.nodes, baseline.suite.seed, c.segment_bytes);
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
        let cells = measure_corpus(&s);
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

    /// Every recorded metric is a pure function of the suite, which is
    /// what lets the gate judge it exactly: two measurements agree bit for
    /// bit.
    #[test]
    fn gated_metrics_are_deterministic_across_repeats() {
        let s = tiny();
        let first = measure_corpus(&s);
        for (a, b) in first.iter().zip(&measure_corpus(&s)) {
            assert_eq!(a.key, b.key);
            assert_eq!(
                a.elapsed_cycles,
                b.elapsed_cycles,
                "{} cycles moved",
                a.key.id()
            );
            assert_eq!(
                a.inaccuracy.to_bits(),
                b.inaccuracy.to_bits(),
                "{}",
                a.key.id()
            );
            assert!(a.inaccuracy.is_finite() && a.inaccuracy >= 0.0);
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let s = tiny();
        let mut b = BenchBaseline::capture(&s);
        b.large.push(LargeCellMeasurement {
            graph: "rmat26".into(),
            nodes: 1 << 20,
            algo: "pr".into(),
            segment_bytes: 1536 * 1024,
            segments: 5580,
            elapsed_cycles: 694_380_574,
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
        }
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let s = tiny();
        let mut doc = Json::parse(&BenchBaseline::capture(&s).to_pretty_string()).unwrap();
        doc.set("schema", Json::Str("nope".into()));
        assert!(BenchBaseline::from_json(&doc).is_err());
        doc.set("schema", Json::Str(BASELINE_SCHEMA.into()));
        // A v4 file (wall-clock fields, preprocess cells) names its version.
        doc.set("version", Json::U64(4));
        let err = BenchBaseline::from_json(&doc).unwrap_err();
        assert!(err.contains("unsupported baseline version 4"), "{err}");
    }
}
