//! The bench record: one committed row file (`BENCH_ci.txt`) that holds
//! every simulated number the repository pins, and the code that measures
//! it. `graffix bench --save-baseline FILE` writes it and
//! `graffix bench --gate FILE` re-measures every family it holds.
//!
//! One row per line, `id key=value …`, in four families told apart by the
//! id:
//! * `suite` — the paper suite (`nodes`, `seed`, `bc_sources`) the paper
//!   and large rows are measured at;
//! * `paper/<graph>/<technique>/<baseline>/<algo>/<direction>` — simulated
//!   `cycles` and `inaccuracy` vs the exact CPU reference of the gate
//!   corpus: paper suite × technique × {sssp, pr} under Baseline-I, plus
//!   push/auto cells under Gunrock on the two dense families;
//! * `large/<graph>:<nodes>/<algo>/segmented/large` — `cycles`, `segments`
//!   and `segment_bytes` of a segmented run on a 2^20-scale rmat graph;
//! * `launch/…` — the launch matrix ([`crate::launch`]).
//!
//! Every value is a pure function of the seeded inputs (no wall clock, no
//! thread count), so a record saved on one machine holds on any other, and
//! the gate holds each (row id, key) to its recorded text exactly. Floats
//! are written with `{}`, Rust's shortest round trip: equal text is equal
//! bits.

use crate::gate::{Cell, GateReport};
use crate::launch::launch_rows;
use crate::suite::{Suite, SuiteOptions};
use graffix_algos::{Algo, AlgoOutcome, Direction};
use graffix_baselines::Baseline;
use graffix_core::{CacheConfig, Prepared, SegmentKnobs, Technique};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::Segmentation;
use graffix_sim::GpuConfig;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// Algorithms the gate corpus runs (one frontier-driven, one fixpoint).
/// Kept to two so `save-baseline` + `gate` stay fast enough for CI while
/// still exercising every transform on every graph family.
pub const GATE_ALGOS: [Algo; 2] = [Algo::Sssp, Algo::Pr];

/// Algorithms the large rows run. One traversal and one fixpoint, both
/// with per-vertex vector outputs so the runs stay cheap enough for CI at
/// 2^20 nodes.
const LARGE_ALGOS: [Algo; 2] = [Algo::Bfs, Algo::Pr];

/// Id of the suite row; the id prefixes of the other three families.
pub const SUITE: &str = "suite";
pub const PAPER: &str = "paper/";
pub const LARGE: &str = "large/";
pub const LAUNCH: &str = "launch/";

/// What a record's rows are measured at, and which families it holds.
#[derive(Clone, Debug, PartialEq)]
pub struct Families {
    /// The `suite` row: paper rows are measured on this suite and large
    /// rows at its seed. `None` when the record holds neither.
    pub suite: Option<SuiteOptions>,
    /// Node count of the large rows; 0 when there are none.
    pub large_nodes: usize,
    /// Whether the record holds the launch rows.
    pub launch: bool,
}

/// A bench record: every (row id, key, value) in row order, and what the
/// rows were measured at.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    pub families: Families,
    pub cells: Vec<Cell>,
}

/// Measures the large rows: one rmat graph at `nodes` vertices, segmented
/// under `segment_bytes`, running each of [`LARGE_ALGOS`] once. Cycles are
/// pure functions of (nodes, seed, segment_bytes), so a single run per row
/// is exact.
fn measure_large(nodes: usize, seed: u64, segment_bytes: usize) -> Vec<Cell> {
    let cfg = GpuConfig::k40c();
    let g = GraphSpec::new(GraphKind::Rmat, nodes, seed).generate();
    let segments = Arc::new(Segmentation::build(&g, segment_bytes));
    let prepared = Prepared::exact(g.clone());
    let mut cells = Vec::new();
    for algo in LARGE_ALGOS {
        let plan = Baseline::Lonestar
            .plan(&prepared, &cfg)
            .with_segments(Arc::clone(&segments));
        let (run, _) = algo.run(&plan, &g, None, 0);
        let paper_name = GraphKind::Rmat.paper_name();
        let id = format!(
            "{LARGE}{paper_name}:{nodes}/{}/segmented/large",
            algo.name()
        );
        cells.push(Cell::new(&id, "cycles", run.stats.elapsed_cycles(&cfg)));
        cells.push(Cell::new(&id, "segments", segments.len()));
        cells.push(Cell::new(id, "segment_bytes", segment_bytes));
    }
    cells
}

/// Measures the gate corpus on `suite`: every (graph, technique) pair
/// under Baseline-I for each of [`GATE_ALGOS`], then the direction cells —
/// push vs auto under the frontier-driven baseline on the two densest
/// graph families, where wavefronts grow wide enough for pull supersteps
/// to fire. One run per cell: every metric is deterministic.
fn measure_corpus(suite: &Suite) -> Vec<Cell> {
    let graphs = 0..suite.len();
    let lonestar = graphs
        .clone()
        .flat_map(|gi| Technique::ALL.map(|t| (gi, t, Baseline::Lonestar)));
    let dense = graphs.filter(|&gi| matches!(suite.kind(gi), GraphKind::Rmat | GraphKind::Random));
    let gunrock = dense.map(|gi| (gi, Technique::Exact, Baseline::Gunrock));
    let (bc_sources, cfg) = (suite.options.bc_sources, &suite.cfg);
    let mut cells = Vec::new();
    for (gi, technique, baseline) in lonestar.chain(gunrock) {
        let (graph, prepared) = (suite.graph(gi), suite.prepared(gi, technique));
        let directions = match baseline {
            Baseline::Gunrock => &[Direction::Push, Direction::Auto][..],
            _ => &[Direction::Push],
        };
        for algo in GATE_ALGOS {
            let reference = algo.exact(graph, None, bc_sources);
            for &direction in directions {
                let plan = baseline.plan(&prepared, cfg).with_direction(direction);
                let (run, scalar) = algo.run(&plan, graph, None, bc_sources);
                let (kind, name) = (suite.kind(gi).paper_name(), algo.name());
                let id = format!(
                    "{PAPER}{kind}/{}/{}/{name}/{}",
                    technique.key(),
                    baseline.key(),
                    direction.key()
                );
                let inaccuracy = AlgoOutcome::of(&run, scalar).inaccuracy(&reference);
                cells.push(Cell::new(&id, "cycles", run.elapsed_cycles(cfg)));
                cells.push(Cell::new(id, "inaccuracy", inaccuracy));
            }
        }
    }
    cells
}

impl BenchRecord {
    /// Measures every family `families` names: the suite row and the paper
    /// rows on a suite read through `cache` (cached loads are bit-identical
    /// to fresh transforms), the large rows at the default segment budget,
    /// the launch rows.
    pub fn measure(families: Families, cache: &CacheConfig) -> BenchRecord {
        let mut cells = Vec::new();
        if let Some(options) = &families.suite {
            cells.push(Cell::new(SUITE, "nodes", options.nodes));
            cells.push(Cell::new(SUITE, "seed", options.seed));
            cells.push(Cell::new(SUITE, "bc_sources", options.bc_sources));
            let suite = Suite::new(options.clone()).with_cache(cache.clone());
            cells.extend(measure_corpus(&suite));
            if families.large_nodes > 0 {
                let budget = SegmentKnobs::default().segment_bytes;
                cells.extend(measure_large(families.large_nodes, options.seed, budget));
            }
        }
        if families.launch {
            cells.extend(launch_rows());
        }
        BenchRecord { families, cells }
    }

    /// The cells of one family ([`SUITE`], [`PAPER`], [`LARGE`], [`LAUNCH`]).
    pub fn family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Cell> {
        self.cells.iter().filter(move |c| c.id.starts_with(family))
    }

    /// The file text: one line per row, its cells in order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in self.cells.chunk_by(|a, b| a.id == b.id) {
            out.push_str(&row[0].id);
            for c in row {
                write!(out, " {}={}", c.metric, c.value).expect("writing to a String");
            }
            out.push('\n');
        }
        out
    }

    /// Reads a record, naming the line of the first thing a hand edit can
    /// break: a token without `=`, an empty key or value, a key twice in a
    /// row, a row id twice, an id of no family, a suite row without its
    /// three counts, or paper or large rows without a suite row.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let mut cells: Vec<Cell> = Vec::new();
        let mut lines: HashMap<&str, usize> = HashMap::new();
        for (n, line) in (1..).zip(text.lines()) {
            let at = |e: String| format!("line {n}: {e}");
            let (id, pairs) = line.split_once(' ').unwrap_or((line, ""));
            if id != SUITE && ![PAPER, LARGE, LAUNCH].iter().any(|f| id.starts_with(f)) {
                return Err(at(format!("`{id}` is no row of a bench record")));
            }
            if let Some(first) = lines.insert(id, n) {
                return Err(at(format!("row `{id}` is already on line {first}")));
            }
            let row = cells.len();
            for token in pairs.split(' ') {
                let (key, value) = token
                    .split_once('=')
                    .ok_or_else(|| at(format!("`{token}` has no `=`")))?;
                if key.is_empty() || value.is_empty() {
                    return Err(at(format!("`{token}` has an empty key or value")));
                }
                if cells[row..].iter().any(|c| c.metric == key) {
                    return Err(at(format!("key `{key}` is twice in row `{id}`")));
                }
                cells.push(Cell::new(id, key, value));
            }
        }
        let first = |family| {
            lines
                .iter()
                .filter(|(id, _)| id.starts_with(family))
                .min_by_key(|r| r.1)
        };
        let count = |key| {
            cells
                .iter()
                .find(|c| c.id == SUITE && c.metric == key)?
                .value
                .parse()
                .ok()
        };
        let suite = match (count("nodes"), count("seed"), count("bc_sources")) {
            (Some(nodes), Some(seed), Some(bc_sources)) => Some(SuiteOptions {
                nodes,
                seed: seed as u64,
                bc_sources,
            }),
            _ if lines.contains_key(SUITE) => {
                let n = lines[SUITE];
                return Err(format!(
                    "line {n}: the suite row needs `nodes`, `seed` and `bc_sources`"
                ));
            }
            _ => None,
        };
        if let (None, Some((_, n))) = (&suite, first(PAPER).or(first(LARGE))) {
            return Err(format!("line {n}: paper and large rows need a `suite` row"));
        }
        let large_nodes = match first(LARGE) {
            None => 0,
            Some((id, n)) => {
                let nodes = id.split('/').nth(1).and_then(|g| g.split_once(':'));
                nodes
                    .and_then(|(_, nodes)| nodes.parse().ok())
                    .ok_or_else(|| format!("line {n}: large row `{id}` names no node count"))?
            }
        };
        let launch = first(LAUNCH).is_some();
        let families = Families {
            suite,
            large_nodes,
            launch,
        };
        Ok(BenchRecord { families, cells })
    }
}

/// Re-measures every family `record` holds, at the settings it records,
/// and judges every (row id, key) exactly.
pub fn run_gate(record: &BenchRecord, cache: &CacheConfig) -> GateReport {
    let current = BenchRecord::measure(record.families.clone(), cache);
    GateReport::exact("bench", &record.cells, &current.cells)
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
            .filter(|&gi| matches!(s.kind(gi), GraphKind::Rmat | GraphKind::Random))
            .count();
        let rows = s.len() * Technique::ALL.len() * GATE_ALGOS.len() + dense * GATE_ALGOS.len() * 2;
        assert_eq!(cells.len(), 2 * rows);
        // Two keys per row, and no (id, key) twice.
        GateReport::exact("self", &cells, &cells);
        // The direction cells come in push/auto pairs on the gunrock
        // baseline.
        let auto: Vec<&str> = cells
            .iter()
            .filter(|c| c.metric == "cycles" && c.id.ends_with("/auto"))
            .map(|c| c.id.as_str())
            .collect();
        assert_eq!(auto.len(), dense * GATE_ALGOS.len());
        for id in auto {
            assert!(id.contains("/gunrock/"), "{id}");
            let push = id.replace("/auto", "/push");
            assert!(cells.iter().any(|c| c.id == push), "{id} has no push cell");
        }
    }

    /// Every recorded metric is a pure function of the suite, which is
    /// what lets the gate judge it exactly: two measurements agree bit for
    /// bit.
    #[test]
    fn gated_metrics_are_deterministic_across_repeats() {
        let s = tiny();
        let first = measure_corpus(&s);
        assert_eq!(first, measure_corpus(&s));
        for c in first.iter().filter(|c| c.metric == "inaccuracy") {
            let v: f64 = c.value.parse().unwrap();
            assert!(v.is_finite() && v >= 0.0, "{} {}", c.id, c.value);
            assert_eq!(v.to_string(), c.value, "{}: round trip", c.id);
        }
    }

    /// Large rows at test scale: one row per [`LARGE_ALGOS`] entry, each
    /// recording a genuinely multi-segment run, and deterministic.
    #[test]
    fn large_cells_are_segmented_and_deterministic() {
        let a = measure_large(1500, 11, 8 * 1024);
        assert_eq!(a, measure_large(1500, 11, 8 * 1024));
        let segments: Vec<&Cell> = a.iter().filter(|c| c.metric == "segments").collect();
        assert_eq!(segments.len(), LARGE_ALGOS.len());
        assert_eq!(a.len(), 3 * LARGE_ALGOS.len());
        for c in segments {
            assert!(
                c.value.parse::<usize>().unwrap() > 1,
                "{} ran un-segmented",
                c.id
            );
        }
    }

    /// Writing then reading gives back the same rows and families.
    #[test]
    fn a_measured_record_reads_back() {
        let families = Families {
            suite: Some(tiny().options),
            large_nodes: 1500,
            launch: false,
        };
        let record = BenchRecord::measure(families, &CacheConfig::disabled());
        let text = record.render();
        assert_eq!(BenchRecord::parse(&text), Ok(record));
    }

    const SUITE_ROW: &str = "suite nodes=512 seed=2020 bc_sources=4\n";

    /// Parses `rows` after a suite row and returns the error.
    fn error(rows: &str) -> String {
        BenchRecord::parse(&format!("{SUITE_ROW}{rows}")).unwrap_err()
    }

    #[test]
    fn a_token_without_equals_is_rejected() {
        let e = error("paper/a cycles=1 inaccuracy\n");
        assert_eq!(e, "line 2: `inaccuracy` has no `=`");
    }

    #[test]
    fn an_empty_key_or_value_is_rejected() {
        assert_eq!(
            error("paper/a cycles=\n"),
            "line 2: `cycles=` has an empty key or value"
        );
        assert_eq!(
            error("paper/a =1\n"),
            "line 2: `=1` has an empty key or value"
        );
    }

    #[test]
    fn a_key_twice_in_a_row_is_rejected() {
        let e = error("paper/a cycles=1 cycles=1\n");
        assert_eq!(e, "line 2: key `cycles` is twice in row `paper/a`");
    }

    #[test]
    fn a_row_id_twice_is_rejected() {
        let e = error("paper/a cycles=1\nlaunch/b warps=2\npaper/a inaccuracy=0\n");
        assert_eq!(e, "line 4: row `paper/a` is already on line 2");
    }

    #[test]
    fn paper_rows_without_a_suite_row_are_rejected() {
        let e = BenchRecord::parse("launch/b warps=2\npaper/a cycles=1\n").unwrap_err();
        assert_eq!(e, "line 2: paper and large rows need a `suite` row");
        // Launch rows alone need no suite.
        let launch = BenchRecord::parse("launch/b warps=2\n").unwrap();
        assert_eq!(launch.families.suite, None);
        assert!(launch.families.launch);
    }

    /// The JSON baseline this file format replaced fails on its first line.
    #[test]
    fn a_json_baseline_is_rejected_on_line_one() {
        let e = BenchRecord::parse("{\n  \"version\": 5,\n").unwrap_err();
        assert_eq!(e, "line 1: `{` is no row of a bench record");
    }

    #[test]
    fn families_come_from_the_rows() {
        let text = format!(
            "{SUITE_ROW}large/rmat26:1048576/bfs/segmented/large cycles=1 segments=2 segment_bytes=3\n"
        );
        let record = BenchRecord::parse(&text).unwrap();
        let suite = record.families.suite.clone().unwrap();
        assert_eq!((suite.nodes, suite.seed, suite.bc_sources), (512, 2020, 4));
        assert_eq!(record.families.large_nodes, 1 << 20);
        assert!(!record.families.launch);
        assert_eq!(record.render(), text);
    }
}
