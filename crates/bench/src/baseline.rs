//! The bench record: one committed row file (`BENCH_ci.txt`) that holds
//! every simulated number the repository pins, and the code that measures
//! it. `graffix bench --save-baseline FILE` writes it,
//! `graffix bench --gate FILE` re-measures every family it holds, and
//! `graffix bench --paper-tables FILE` / `--figures FILE` render its paper
//! rows ([`crate::report`]) without measuring anything.
//!
//! One row per line, `id key=value …`, in six families told apart by the
//! id:
//! * `suite` — the paper suite (`nodes`, `seed`, `bc_sources`) the paper
//!   rows are measured on; the large and segment rows use its seed;
//! * `paper/…` — every cell of the paper's Tables 1–4 and 6–14 and every
//!   point of Figures 7–9 ([`measure_corpus`], the only code that
//!   simulates a paper cell): `paper/<graph>` holds Table 1's properties,
//!   and `paper/<graph>/<technique>/<baseline>/<algo>/<direction>` the
//!   simulated `cycles` and the `inaccuracy` vs the exact CPU reference of
//!   one run (a figure point's technique is `<technique>:<threshold>`);
//! * `large/<graph>:<nodes>/<algo>/segmented/large` — `cycles`, `segments`
//!   and `segment_bytes` of a segmented run on a 2^20-scale rmat graph;
//! * `segment/<graph>:<nodes>/<algo>` — flat vs segmented on the paper
//!   suite at `<nodes>` ([`crate::segmented`]);
//! * `stream/rmat-20k-1pct` — the stage records of incremental
//!   re-preparation under churn ([`crate::streaming`]);
//! * `launch/…` — the launch matrix ([`crate::launch`]).
//!
//! The record is the only place a setting lives: the suite row sets the
//! suite, and each large and segment row id names its node count (every
//! row of a family the same). Rescaling is editing those and saving.
//!
//! Every value is a pure function of the seeded inputs (no wall clock, no
//! thread count), so a record saved on one machine holds on any other, and
//! the gate holds each (row id, key) to its recorded text exactly. Floats
//! are written with `{}`, Rust's shortest round trip: equal text is equal
//! bits. The segment and stream measurements also yield floor cells
//! ([`crate::gate::FLOORS`]), judged beside the rows and never written.

use crate::gate::{Cell, GateReport};
use crate::launch::launch_rows;
use crate::segmented::measure_segmented;
use crate::streaming::measure_streaming;
use crate::suite::{Suite, SuiteOptions};
use graffix_algos::{Algo, AlgoOutcome, Direction, SimRun};
use graffix_baselines::{Baseline, ALL_BASELINES};
use graffix_core::{CacheConfig, Prepared, SegmentKnobs, Technique};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{properties, Segmentation};
use graffix_sim::GpuConfig;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// The paper's five evaluation algorithms, in the order of Tables 2 and
/// 6–8: what Baseline-I runs.
pub const PAPER_ALGOS: [Algo; 5] = [Algo::Sssp, Algo::Mst, Algo::Scc, Algo::Pr, Algo::Bc];
/// The subset Tigr and Gunrock implement (Tables 3–4, 9–14), and what
/// each figure point averages over.
pub const CORE_ALGOS: [Algo; 3] = [Algo::Sssp, Algo::Pr, Algo::Bc];
/// Algorithms of the rows beyond the paper's tables — the combined
/// technique under Baseline-I, Gunrock's auto direction on the dense
/// families, the segment rows: one frontier-driven, one fixpoint.
pub const GATE_ALGOS: [Algo; 2] = [Algo::Sssp, Algo::Pr];

/// The algorithms `baseline`'s tables cover.
pub fn algos_of(baseline: Baseline) -> &'static [Algo] {
    match baseline {
        Baseline::Lonestar => &PAPER_ALGOS,
        _ => &CORE_ALGOS,
    }
}

/// Figures 7–9: number, title, the technique whose primary knob is swept
/// (on rmat under Baseline-I), and the thresholds the paper's figure spans.
#[rustfmt::skip]
pub const FIGURES: [(usize, &str, Technique, &[f64]); 3] = [
    (7, "Figure 7: connectedness threshold (node replication)", Technique::Coalescing,
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    (8, "Figure 8: clustering-coefficient threshold", Technique::Latency,
        &[0.5, 0.6, 0.7, 0.8, 0.9, 0.95]),
    (9, "Figure 9: degreeSim threshold (degree normalization)", Technique::Divergence,
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
];

/// Algorithms the large rows run. One traversal and one fixpoint, both
/// with per-vertex vector outputs so the runs stay cheap enough for CI at
/// 2^20 nodes.
const LARGE_ALGOS: [Algo; 2] = [Algo::Bfs, Algo::Pr];

/// Id of the suite row; the id prefixes of the other five families.
pub const SUITE: &str = "suite";
pub const PAPER: &str = "paper/";
pub const LARGE: &str = "large/";
pub const SEGMENT: &str = "segment/";
pub const STREAM: &str = "stream/";
pub const LAUNCH: &str = "launch/";

/// Which families a record holds, and what their rows are measured at.
#[derive(Clone, Debug, PartialEq)]
pub struct Families {
    /// The `suite` row: the paper rows' suite, and the seed of the large
    /// and segment rows. `None` when the record holds none of the three.
    pub suite: Option<SuiteOptions>,
    /// Whether the record holds the paper rows.
    pub paper: bool,
    /// Node count of the large rows, when there are any.
    pub large: Option<usize>,
    /// Node count of the segment rows, when there are any.
    pub segment: Option<usize>,
    /// Whether the record holds the stream row.
    pub stream: bool,
    /// Whether the record holds the launch rows.
    pub launch: bool,
}

impl Default for Families {
    /// Every family at its default scale: what a save measures when there
    /// is no record to read.
    fn default() -> Families {
        Families {
            suite: Some(SuiteOptions::default()),
            paper: true,
            large: Some(1 << 20),
            segment: Some(8192),
            stream: true,
            launch: true,
        }
    }
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

/// Id of Table 1's row of `graph`.
pub fn graph_id(graph: GraphKind) -> String {
    format!("{PAPER}{}", graph.paper_name())
}

/// Id of the paper row of one run. `technique` is a technique key, or
/// [`sweep_key`] for a figure point.
pub fn paper_id(
    graph: GraphKind,
    technique: &str,
    baseline: Baseline,
    algo: Algo,
    direction: Direction,
) -> String {
    let (graph, baseline) = (graph.paper_name(), baseline.key());
    let (algo, direction) = (algo.name(), direction.key());
    format!("{PAPER}{graph}/{technique}/{baseline}/{algo}/{direction}")
}

/// The technique part of a figure point's id: `coalescing:0.6`.
pub fn sweep_key(technique: Technique, threshold: f64) -> String {
    format!("{}:{threshold}", technique.key())
}

/// Every run behind the paper rows of `suite`, once each, in row order:
/// `visit` gets the row id, the run and its inaccuracy against the exact
/// CPU reference (computed once per graph and algorithm). Per graph, each
/// technique under each baseline over the baseline's algorithms (Tables
/// 2–4 read the exact rows, Tables 6–14 the others), plus the combined
/// technique under Baseline-I and Gunrock's auto direction on the two
/// dense families, where wavefronts grow wide enough for pull supersteps
/// to fire; on rmat, then, every point of the three figure sweeps.
fn paper_runs(suite: &Suite, mut visit: impl FnMut(String, &SimRun, f64)) {
    let (bc_sources, cfg) = (suite.options.bc_sources, &suite.cfg);
    for gi in 0..suite.len() {
        let (kind, graph) = (suite.kind(gi), suite.graph(gi));
        let references = PAPER_ALGOS.map(|algo| algo.exact(graph, None, bc_sources));
        let mut run =
            |technique: &str, prepared: &Prepared, baseline: Baseline, algo: Algo, direction| {
                let plan = baseline.plan(prepared, cfg).with_direction(direction);
                let (run, scalar) = algo.run(&plan, graph, None, bc_sources);
                let at = PAPER_ALGOS.iter().position(|&a| a == algo);
                let reference = &references[at.expect("a paper algorithm")];
                let inaccuracy = AlgoOutcome::of(&run, scalar).inaccuracy(reference);
                let id = paper_id(kind, technique, baseline, algo, direction);
                visit(id, &run, inaccuracy);
            };
        let dense = matches!(kind, GraphKind::Rmat | GraphKind::Random);
        for technique in Technique::ALL {
            let prepared = suite.prepared(gi, technique);
            for baseline in ALL_BASELINES {
                let algos = match (technique, baseline) {
                    (Technique::Combined, Baseline::Lonestar) => &GATE_ALGOS[..],
                    (Technique::Combined, _) => &[],
                    _ => algos_of(baseline),
                };
                for &algo in algos {
                    run(technique.key(), &prepared, baseline, algo, Direction::Push);
                    let auto = (technique, baseline) == (Technique::Exact, Baseline::Gunrock);
                    if auto && dense && GATE_ALGOS.contains(&algo) {
                        run(technique.key(), &prepared, baseline, algo, Direction::Auto);
                    }
                }
            }
        }
        if kind != GraphKind::Rmat {
            continue;
        }
        for (_, _, technique, thresholds) in FIGURES {
            for &threshold in thresholds {
                let prepared = suite.prepared_with(gi, technique, threshold);
                let key = sweep_key(technique, threshold);
                for algo in CORE_ALGOS {
                    run(&key, &prepared, Baseline::Lonestar, algo, Direction::Push);
                }
            }
        }
    }
}

/// Measures the paper rows of `suite`: Table 1's properties of each
/// graph, then the `cycles` and `inaccuracy` of every run of
/// [`paper_runs`]. One run per row: every metric is deterministic.
fn measure_corpus(suite: &Suite) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (kind, graph) in &suite.graphs {
        let s = properties::summarize(graph, suite.options.seed);
        let id = graph_id(*kind);
        cells.push(Cell::new(&id, "nodes", s.nodes));
        cells.push(Cell::new(&id, "arcs", s.edges));
        cells.push(Cell::new(&id, "max_degree", s.max_degree));
        cells.push(Cell::new(&id, "avg_cc", s.avg_clustering));
        cells.push(Cell::new(id, "diameter", s.diameter_estimate));
    }
    paper_runs(suite, |id, run, inaccuracy| {
        cells.push(Cell::new(&id, "cycles", run.elapsed_cycles(&suite.cfg)));
        cells.push(Cell::new(id, "inaccuracy", inaccuracy));
    });
    cells
}

impl BenchRecord {
    /// Measures every family `families` names: the record, and the floor
    /// cells of its segment and stream rows. Suites are read through
    /// `cache` (cached loads are bit-identical to fresh transforms); large
    /// and segment rows run at the default segment budget.
    pub fn measure(families: Families, cache: &CacheConfig) -> (BenchRecord, Vec<Cell>) {
        let (mut cells, mut floors) = (Vec::new(), Vec::new());
        if let Some(options) = &families.suite {
            cells.push(Cell::new(SUITE, "nodes", options.nodes));
            cells.push(Cell::new(SUITE, "seed", options.seed));
            cells.push(Cell::new(SUITE, "bc_sources", options.bc_sources));
            let suite = |nodes| {
                let options = SuiteOptions {
                    nodes,
                    ..options.clone()
                };
                Suite::new(options).with_cache(cache.clone())
            };
            let budget = SegmentKnobs::default().segment_bytes;
            if families.paper {
                cells.extend(measure_corpus(&suite(options.nodes)));
            }
            if let Some(nodes) = families.large {
                cells.extend(measure_large(nodes, options.seed, budget));
            }
            if let Some(nodes) = families.segment {
                let (rows, checks) = measure_segmented(&suite(nodes), budget);
                cells.extend(rows);
                floors.extend(checks);
            }
        }
        if families.stream {
            let (row, checks) = measure_streaming();
            cells.extend(row);
            floors.extend(checks);
        }
        if families.launch {
            cells.extend(launch_rows());
        }
        (BenchRecord { families, cells }, floors)
    }

    /// The cells of one family ([`SUITE`], [`PAPER`], [`LARGE`],
    /// [`SEGMENT`], [`STREAM`], [`LAUNCH`]).
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
    /// three counts, paper, large or segment rows without a suite row, or
    /// a large or segment row that names no node count or another count
    /// than the family's first row.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let mut cells: Vec<Cell> = Vec::new();
        let mut lines: HashMap<&str, usize> = HashMap::new();
        let mut rows: Vec<(&str, usize)> = Vec::new();
        for (n, line) in (1..).zip(text.lines()) {
            let at = |e: String| format!("line {n}: {e}");
            let (id, pairs) = line.split_once(' ').unwrap_or((line, ""));
            if id != SUITE
                && ![PAPER, LARGE, SEGMENT, STREAM, LAUNCH]
                    .iter()
                    .any(|f| id.starts_with(f))
            {
                return Err(at(format!("`{id}` is no row of a bench record")));
            }
            if let Some(first) = lines.insert(id, n) {
                return Err(at(format!("row `{id}` is already on line {first}")));
            }
            rows.push((id, n));
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
        let family =
            |prefix: &'static str| rows.iter().filter(move |(id, _)| id.starts_with(prefix));
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
        let suited = family(PAPER).chain(family(LARGE)).chain(family(SEGMENT));
        if let (None, Some((_, n))) = (&suite, suited.min_by_key(|r| r.1)) {
            return Err(format!(
                "line {n}: paper, large and segment rows need a `suite` row"
            ));
        }
        // The node count every row of a scaled family names, as the
        // `<graph>:<nodes>` part of its id.
        let scale = |prefix| -> Result<Option<usize>, String> {
            let mut first: Option<(usize, usize)> = None;
            for &(id, n) in family(prefix) {
                let graph = id.split('/').nth(1).and_then(|g| g.split_once(':'));
                let nodes = graph
                    .and_then(|(_, nodes)| nodes.parse().ok())
                    .ok_or_else(|| format!("line {n}: row `{id}` names no node count"))?;
                match first {
                    None => first = Some((nodes, n)),
                    Some((at, line)) if at != nodes => {
                        return Err(format!(
                            "line {n}: row `{id}` names {nodes} nodes, the row on line {line} {at}"
                        ))
                    }
                    Some(_) => {}
                }
            }
            Ok(first.map(|(nodes, _)| nodes))
        };
        let families = Families {
            suite,
            paper: family(PAPER).next().is_some(),
            large: scale(LARGE)?,
            segment: scale(SEGMENT)?,
            stream: family(STREAM).next().is_some(),
            launch: family(LAUNCH).next().is_some(),
        };
        Ok(BenchRecord { families, cells })
    }
}

/// Re-measures every family `record` holds, at the settings it records,
/// and judges every (row id, key) exactly and every floor cell against its
/// floor, in one report.
pub fn run_gate(record: &BenchRecord, cache: &CacheConfig) -> GateReport {
    let (current, floors) = BenchRecord::measure(record.families.clone(), cache);
    GateReport::judge("bench", &record.cells, &current.cells, &floors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_sim::CostBreakdown;
    use std::sync::OnceLock;

    fn tiny() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 200,
            seed: 3,
            bc_sources: 2,
        })
    }

    /// The corpus at `tiny()`, measured once for the tests that read it.
    fn corpus() -> &'static [Cell] {
        static CORPUS: OnceLock<Vec<Cell>> = OnceLock::new();
        CORPUS.get_or_init(|| measure_corpus(&tiny()))
    }

    /// Every paper run at `tiny()`, once: its row id, its cost
    /// breakdown's modeled total and warp-cycle total, the run's own
    /// warp cycles, and its inaccuracy.
    fn runs() -> &'static [(String, [u64; 3], f64)] {
        static RUNS: OnceLock<Vec<(String, [u64; 3], f64)>> = OnceLock::new();
        RUNS.get_or_init(|| {
            let (s, mut runs) = (tiny(), Vec::new());
            paper_runs(&s, |id, run, inaccuracy| {
                let b = CostBreakdown::attribute(&run.stats, &s.cfg);
                let cycles = [
                    b.modeled_total(),
                    b.total_warp_cycles,
                    run.stats.warp_cycles,
                ];
                runs.push((id, cycles, inaccuracy));
            });
            runs
        })
    }

    /// Rows of the corpus at `tiny()`, by the number of keys they hold.
    fn row_counts(cells: &[Cell]) -> (usize, usize) {
        let rows: Vec<&[Cell]> = cells.chunk_by(|a, b| a.id == b.id).collect();
        let with = |keys| rows.iter().filter(|r| r.len() == keys).count();
        (with(5), with(2))
    }

    #[test]
    fn corpus_covers_every_cell_once() {
        let (s, cells) = (tiny(), corpus());
        let dense = (0..s.len())
            .filter(|&gi| matches!(s.kind(gi), GraphKind::Rmat | GraphKind::Random))
            .count();
        // Per graph: four techniques under each baseline's algorithms, and
        // combined under Baseline-I; Gunrock's auto rows; the sweeps.
        let per_graph = 4 * (PAPER_ALGOS.len() + 2 * CORE_ALGOS.len()) + GATE_ALGOS.len();
        let points: usize = FIGURES.iter().map(|f| f.3.len()).sum();
        let runs = s.len() * per_graph + dense * GATE_ALGOS.len() + points * CORE_ALGOS.len();
        assert_eq!(row_counts(cells), (s.len(), runs));
        assert_eq!(cells.len(), 5 * s.len() + 2 * runs);
        assert_eq!(runs, 300, "the paper family at any scale");
        // No (id, key) twice.
        GateReport::judge("self", cells, cells, &[]);
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
        // Every figure point has a row per averaged algorithm.
        let has = |id: &str| cells.iter().any(|c| c.id == id);
        for (_, _, technique, thresholds) in FIGURES {
            for &thr in thresholds {
                for algo in CORE_ALGOS {
                    let key = sweep_key(technique, thr);
                    let id = paper_id(
                        GraphKind::Rmat,
                        &key,
                        Baseline::Lonestar,
                        algo,
                        Direction::Push,
                    );
                    assert!(has(&id), "{id}");
                }
            }
        }
    }

    /// The cost attribution must partition the warp-cycle total exactly
    /// for *every* paper run — each (graph, technique, baseline,
    /// algorithm) row and each figure point. This pins the fix for an
    /// earlier reconstruction, which over-counted shared-memory cycles (it
    /// charged every access + conflict instead of the replay's
    /// worst-bank-group figure) and therefore didn't sum.
    #[test]
    fn cost_breakdown_components_partition_total_in_every_scenario() {
        for (id, [modeled, total, warp_cycles], _) in runs() {
            assert_eq!(modeled, total, "components must sum exactly: {id}");
            assert_eq!(total, warp_cycles, "{id}");
        }
        assert_eq!(runs().len(), 300);
    }

    /// An exact row is the baseline's own run: its inaccuracy is only
    /// what the GPU formulation leaves. PR runs a fixed 30-iteration
    /// budget (the baseline GPU convention) against a fully converged CPU
    /// reference, so a small truncation residual remains.
    #[test]
    fn exact_runs_have_zero_inaccuracy() {
        let exact: Vec<_> = runs().iter().filter(|r| r.0.contains("/exact/")).collect();
        for (id, _, inaccuracy) in &exact {
            let tol = if id.contains("/pr/") { 2e-3 } else { 1e-4 };
            assert!(*inaccuracy < tol, "{id} exact inaccuracy {inaccuracy}");
        }
        assert_eq!(
            exact.len(),
            5 * (PAPER_ALGOS.len() + 2 * CORE_ALGOS.len()) + 2 * 2
        );
    }

    #[test]
    fn scc_reference_is_tarjan() {
        let s = tiny();
        match Algo::Scc.exact(s.graph(1), None, s.options.bc_sources) {
            AlgoOutcome::Scalar(c) => assert!(c >= 1.0),
            AlgoOutcome::Vector(_) => panic!("SCC reference must be scalar"),
        }
    }

    /// Every baseline yields finite rows under every technique.
    #[test]
    fn all_baselines_measurable() {
        let cells = corpus();
        for baseline in ALL_BASELINES {
            let key = format!("/{}/", baseline.key());
            let rows: Vec<&Cell> = cells.iter().filter(|c| c.id.contains(&key)).collect();
            assert!(!rows.is_empty(), "{key}");
            for c in rows {
                let v: f64 = c.value.parse().unwrap();
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{} {} {}",
                    c.id,
                    c.metric,
                    c.value
                );
            }
        }
    }

    /// Every recorded metric is a pure function of the suite, which is
    /// what lets the gate judge it exactly: two measurements agree bit for
    /// bit.
    #[test]
    fn gated_metrics_are_deterministic_across_repeats() {
        let first = corpus();
        assert_eq!(first, measure_corpus(&tiny()));
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
            paper: true,
            large: Some(1500),
            segment: None,
            stream: false,
            launch: false,
        };
        let (record, floors) = BenchRecord::measure(families, &CacheConfig::disabled());
        assert!(floors.is_empty(), "no segment or stream rows, no floors");
        let text = record.render();
        assert_eq!(BenchRecord::parse(&text), Ok(record));
    }

    /// A record measures exactly the families it holds: a suite row with
    /// segment rows and nothing else measures no paper row.
    #[test]
    fn only_the_held_families_are_measured() {
        let text = format!("{SUITE_ROW}segment/rmat26:300/sssp cycles=1\n");
        let families = BenchRecord::parse(&text).unwrap().families;
        assert_eq!((families.paper, families.segment), (false, Some(300)));
        let (record, floors) = BenchRecord::measure(families, &CacheConfig::disabled());
        assert!(record.family(PAPER).next().is_none());
        assert_eq!(record.family(SEGMENT).count(), 4 * 5 * GATE_ALGOS.len());
        assert_eq!(floors.len(), 2 * 5 * GATE_ALGOS.len());
        assert!(floors
            .iter()
            .all(|c| c.id.starts_with("segment/") && c.id.contains(":300/")));
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
        let need = "paper, large and segment rows need a `suite` row";
        let e = BenchRecord::parse("launch/b warps=2\npaper/a cycles=1\n").unwrap_err();
        assert_eq!(e, format!("line 2: {need}"));
        let e = BenchRecord::parse("stream/s batches=3\nsegment/g:9/pr cycles=1\n").unwrap_err();
        assert_eq!(e, format!("line 2: {need}"));
        // Launch and stream rows need no suite.
        let free = BenchRecord::parse("stream/s batches=3\nlaunch/b warps=2\n").unwrap();
        assert_eq!(free.families.suite, None);
        assert!(free.families.launch && free.families.stream);
    }

    /// Two node counts in one large family: the first row's count used to
    /// win silently.
    #[test]
    fn large_rows_naming_two_node_counts_are_rejected() {
        let e = error(
            "large/rmat26:1048576/bfs/segmented/large cycles=1\n\
             large/rmat26:1500/pr/segmented/large cycles=1\n",
        );
        assert_eq!(
            e,
            "line 3: row `large/rmat26:1500/pr/segmented/large` names 1500 nodes, \
             the row on line 2 1048576"
        );
        let e = error("large/rmat26/bfs/segmented/large cycles=1\n");
        assert_eq!(
            e,
            "line 2: row `large/rmat26/bfs/segmented/large` names no node count"
        );
    }

    #[test]
    fn segment_rows_naming_two_node_counts_are_rejected() {
        let e = error("segment/rmat26:8192/sssp cycles=1\nsegment/twitter:2048/pr cycles=1\n");
        assert_eq!(
            e,
            "line 3: row `segment/twitter:2048/pr` names 2048 nodes, the row on line 2 8192"
        );
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
            "{SUITE_ROW}large/rmat26:1048576/bfs/segmented/large cycles=1 segments=2 segment_bytes=3\n\
             segment/USA-road:8192/pr flat_cycles=2 cycles=1 segments=1 skipped=0\n"
        );
        let record = BenchRecord::parse(&text).unwrap();
        let suite = record.families.suite.clone().unwrap();
        assert_eq!((suite.nodes, suite.seed, suite.bc_sources), (512, 2020, 4));
        assert_eq!(record.families.large, Some(1 << 20));
        assert_eq!(record.families.segment, Some(8192));
        let f = &record.families;
        assert!(!f.paper && !f.stream && !f.launch);
        assert_eq!(record.render(), text);
    }
}
