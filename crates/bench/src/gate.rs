//! The one regression gate. `bench --gate` measures every family of the
//! bench record ([`crate::baseline`]) into [`Cell`]s and hands them to
//! [`GateReport`]; this module alone judges, renders and serialises them.
//!
//! A cell is one value, as text, under one key of one row id. Every gated
//! value is a pure function of the seeded inputs — simulated cycles, an
//! inaccuracy, a stats field, a stage count, a flag, a ratio of simulated
//! cycles — so there are two policies, judged in one report
//! ([`GateReport::judge`]). **Exact**: every (id, key) of a record must
//! come back with the same text, or it fails `moved`. **Floor**: a
//! baseline-free claim measured beside the rows — segmented runs win and
//! agree with flat ones, stale batches reuse and exact batches agree —
//! must reach its metric's floor in [`FLOORS`], the table that holds every
//! threshold; floor cells are never written to the record. Host time is
//! not judged here; `benchmark/` measures it. A cell that moved, a missing
//! cell and a gate that judged no cell at all fail; new cells are reported
//! but pass.
//!
//! Output is one human table plus a machine-readable `graffix.gate-report`
//! v4 document (flat `cells`, one entry per verdict, values as text).

use crate::tables::TextTable;
use graffix_sim::Json;
use std::collections::HashMap;
use std::fmt::Display;

/// Schema identifier for gate reports.
pub const GATE_SCHEMA: &str = "graffix.gate-report";
/// Gate report schema version.
pub const GATE_VERSION: u64 = 4;

/// One measured value, as a suite hands it to the gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Row id (`paper/rmat26/exact/lonestar/sssp/push`, `segment/...`).
    pub id: String,
    /// The value's key within its row; a floor cell's key into [`FLOORS`].
    pub metric: String,
    /// The value as text: integers in decimal, floats in Rust's shortest
    /// round-trip `{}`, so equal text means equal bits.
    pub value: String,
}

impl Cell {
    /// A cell of `value` under `metric` in row `id`.
    pub fn new(id: impl Into<String>, metric: impl Into<String>, value: impl Display) -> Cell {
        Cell {
            id: id.into(),
            metric: metric.into(),
            value: value.to_string(),
        }
    }

    /// A boolean cell for a floor-1 metric: 1 when `holds`, else 0.
    pub fn flag(id: impl Into<String>, metric: impl Into<String>, holds: bool) -> Cell {
        Cell::new(id, metric, u8::from(holds))
    }
}

/// The label of a recorded value that came back as different text, up or
/// down: any move is a model change that a new record has to hold on
/// purpose.
pub const MOVED: &str = "moved";

/// Baseline-free metric → (floor, label a failure carries). Every gate
/// threshold lives here and nowhere else.
#[rustfmt::skip]
pub const FLOORS: [(&str, f64, &str); 4] = [
    // Streaming: every stale-regime batch is all reuse, exact-regime identity.
    ("stale_reuse",     1.0, "recomputed"),
    ("exact_identical", 1.0, "diverged"),
    // Segmented vs flat: bit-identical values, ≥ 5 % fewer simulated cycles.
    ("win",       0.05, "below-floor"),
    ("identical", 1.0,  "diverged"),
];

/// Outcome of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Failed its policy; carries [`MOVED`] or the metric's label from
    /// [`FLOORS`], or `no-cells` when the gate judged nothing.
    Failed(&'static str),
    /// In the record but not measured now.
    Missing,
    /// Measured now but absent from the record (not a failure — save a
    /// new record to start tracking it).
    New,
}

impl Status {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Failed(label) => label,
            Status::Missing => "missing",
            Status::New => "new",
        }
    }

    /// Does this status fail the gate?
    pub fn is_failure(self) -> bool {
        matches!(self, Status::Failed(_) | Status::Missing)
    }
}

/// One judged cell.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub id: String,
    pub metric: String,
    pub status: Status,
    pub base: Option<String>,
    pub current: Option<String>,
    /// What the cell was held to: its recorded text (exact) or the floor;
    /// `None` for new cells.
    pub bound: Option<String>,
    /// Why a verdict without a cell failed (`no-cells`); empty otherwise.
    pub note: String,
}

impl Verdict {
    /// `cell` judged `status` against `base`, which is also its bound.
    fn of(cell: &Cell, status: Status, base: Option<&Cell>) -> Verdict {
        let base = base.map(|b| b.value.clone());
        Verdict {
            id: cell.id.clone(),
            metric: cell.metric.clone(),
            status,
            bound: base.clone(),
            base,
            current: Some(cell.value.clone()),
            note: String::new(),
        }
    }
}

fn key(c: &Cell) -> (&str, &str) {
    (&c.id, &c.metric)
}

/// `cells` by (id, key). Panics on a pair held twice: it could be matched
/// against either copy.
fn index(cells: &[Cell]) -> HashMap<(&str, &str), &Cell> {
    let mut map = HashMap::with_capacity(cells.len());
    for c in cells {
        let twice = map.insert(key(c), c).is_some();
        assert!(!twice, "cell {} {} is held twice", c.id, c.metric);
    }
    map
}

/// The outcome of one gate run.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// What was judged (`bench` for the record).
    pub gate: &'static str,
    pub verdicts: Vec<Verdict>,
}

impl GateReport {
    /// Judges one measurement: `measured` against `recorded` exactly —
    /// matched on (id, key), each value must come back as the same text —
    /// and each of `floors` against its metric's floor in [`FLOORS`].
    /// Order follows the record; measured cells it does not hold follow as
    /// `new`, then the floor cells. Panics when either side holds an
    /// (id, key) twice, or on a floor cell whose metric has no floor: a
    /// suite that hands over a number nothing judges is a bug.
    pub fn judge(
        gate: &'static str,
        recorded: &[Cell],
        measured: &[Cell],
        floors: &[Cell],
    ) -> GateReport {
        let (now, then) = (index(measured), index(recorded));
        let mut verdicts: Vec<Verdict> = recorded
            .iter()
            .map(|base| match now.get(&key(base)) {
                Some(cur) if cur.value == base.value => Verdict::of(cur, Status::Ok, Some(base)),
                Some(cur) => Verdict::of(cur, Status::Failed(MOVED), Some(base)),
                None => Verdict {
                    current: None,
                    ..Verdict::of(base, Status::Missing, Some(base))
                },
            })
            .collect();
        let new = measured.iter().filter(|c| !then.contains_key(&key(c)));
        verdicts.extend(new.map(|c| Verdict::of(c, Status::New, None)));
        verdicts.extend(floors.iter().map(|cur| {
            let row = FLOORS.iter().find(|(m, ..)| *m == cur.metric);
            let (_, floor, label) =
                row.unwrap_or_else(|| panic!("no gate policy for metric `{}`", cur.metric));
            let holds = cur.value.parse::<f64>().is_ok_and(|v| v >= *floor);
            let status = if holds {
                Status::Ok
            } else {
                Status::Failed(label)
            };
            Verdict {
                bound: Some(floor.to_string()),
                ..Verdict::of(cur, status, None)
            }
        }));
        GateReport::of(gate, verdicts)
    }

    /// With no verdict at all the report holds one `no-cells` failure named
    /// after the gate: a suite that measured nothing has checked nothing.
    fn of(gate: &'static str, mut verdicts: Vec<Verdict>) -> GateReport {
        if verdicts.is_empty() {
            verdicts.push(Verdict {
                id: gate.to_string(),
                metric: "cells".to_string(),
                status: Status::Failed("no-cells"),
                base: None,
                current: None,
                bound: None,
                note: "the suite produced no cell to judge".to_string(),
            });
        }
        GateReport { gate, verdicts }
    }

    /// Verdicts that fail the gate, in order.
    pub fn failures(&self) -> Vec<&Verdict> {
        self.verdicts
            .iter()
            .filter(|v| v.status.is_failure())
            .collect()
    }

    /// True when no cell failed or went missing.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    fn count(&self, status: Status) -> usize {
        self.verdicts.iter().filter(|v| v.status == status).count()
    }

    /// Failures a save refuses: failed floor cells (and `no-cells`), the
    /// kinds of failure without a recorded value. A moved or missing row
    /// is what a save records.
    pub fn broken(&self) -> Vec<&Verdict> {
        let failures = self.failures().into_iter();
        failures.filter(|v| v.base.is_none()).collect()
    }

    /// The gate's human table: one row per verdict, except `ok` cells
    /// equal to their record — every recorded cell of a passing gate —
    /// which only count in the title.
    pub fn table(&self) -> TextTable {
        self.rows(format!(
            "{} gate: {} cells — {} ok, {} failed",
            self.gate,
            self.verdicts.len(),
            self.count(Status::Ok),
            self.failures().len()
        ))
    }

    /// The table a save prints — the new rows judged against the old —
    /// with the same rows as [`GateReport::table`], titled as a save:
    /// moved, missing and new rows counted under those names, and only
    /// [`GateReport::broken`] cells as failed.
    pub fn save_table(&self) -> TextTable {
        let moved = self.count(Status::Failed(MOVED));
        self.rows(format!(
            "{} save: {} cells — {} ok, {moved} moved, {} missing, {} new, {} failed",
            self.gate,
            self.verdicts.len(),
            self.count(Status::Ok),
            self.count(Status::Missing),
            self.count(Status::New),
            self.broken().len()
        ))
    }

    fn rows(&self, title: String) -> TextTable {
        let mut t = TextTable::new(
            title,
            &["Cell", "Metric", "Status", "Base", "Now", "Bound", "Note"],
        );
        for v in &self.verdicts {
            if v.status == Status::Ok && v.current == v.base {
                continue;
            }
            let text = |s: &Option<String>| s.clone().unwrap_or_else(|| "-".to_string());
            t.row(vec![
                v.id.clone(),
                v.metric.clone(),
                v.status.label().to_string(),
                text(&v.base),
                text(&v.current),
                text(&v.bound),
                v.note.clone(),
            ]);
        }
        t
    }

    /// Serializes the `graffix.gate-report` document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str(GATE_SCHEMA.to_string()));
        root.set("version", Json::U64(GATE_VERSION));
        root.set("gate", Json::Str(self.gate.to_string()));
        root.set("passed", Json::Bool(self.passed()));
        let mut summary = Json::obj();
        summary.set("ok", Json::U64(self.count(Status::Ok) as u64));
        summary.set("failed", Json::U64(self.failures().len() as u64));
        summary.set("new", Json::U64(self.count(Status::New) as u64));
        root.set("summary", summary);
        let text = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
        let cells = self
            .verdicts
            .iter()
            .map(|v| {
                let mut o = Json::obj();
                o.set("id", Json::Str(v.id.clone()));
                o.set("metric", Json::Str(v.metric.clone()));
                o.set("status", Json::Str(v.status.label().to_string()));
                o.set("base", text(&v.base));
                o.set("current", text(&v.current));
                o.set("bound", text(&v.bound));
                o.set("note", Json::Str(v.note.clone()));
                o
            })
            .collect();
        root.set("cells", Json::Arr(cells));
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{BenchRecord, LARGE, LAUNCH, PAPER, SEGMENT, STREAM, SUITE};

    /// (test the row runs under, metric, recorded value, measured value,
    /// expected status label). Every row is judged alone as cell `x`: by
    /// its floor when [`FLOORS`] has one, else exactly.
    type Row = (
        &'static str,
        &'static str,
        Option<f64>,
        Option<f64>,
        &'static str,
    );

    #[rustfmt::skip]
    const ROWS: &[Row] = &[
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some(56_080.0), Some(112_161.0), "moved"),
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some(112_161.0), Some(112_161.0), "ok"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some(0.012), Some(0.024), "moved"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some(0.012), Some(0.012), "ok"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some(0.0), Some(0.0), "ok"),
        // Exact judging has no band and no direction: the smallest step
        // either way fails.
        ("a_move_either_way_fails", "cycles", Some(112_161.0), Some(112_162.0), "moved"),
        ("a_move_either_way_fails", "cycles", Some(112_161.0), Some(112_160.0), "moved"),
        ("a_move_either_way_fails", "cycles", Some(112_161.0), Some(56_080.0), "moved"),
        ("a_move_either_way_fails", "inaccuracy", Some(0.012), Some(0.012_f64.next_up()), "moved"),
        ("a_move_either_way_fails", "inaccuracy", Some(0.012), Some(0.012_f64.next_down()), "moved"),
        ("a_move_either_way_fails", "inaccuracy", Some(0.0), Some(0.0_f64.next_up()), "moved"),
        ("a_move_either_way_fails", "warp_cycles", Some(1_562_736.0), Some(1_562_737.0), "moved"),
        ("missing_and_new_cells_are_flagged", "cycles", Some(112_161.0), None, "missing"),
        ("missing_and_new_cells_are_flagged", "cycles", None, Some(112_161.0), "new"),
        ("missing_and_new_cells_are_flagged", "inaccuracy", None, Some(0.5), "new"),
        ("missing_and_new_cells_are_flagged", "warp_cycles", None, Some(1_562_736.0), "new"),
        ("missing_and_new_cells_are_flagged", "segments", Some(93.0), None, "missing"),
        ("large_cells_judged_exactly", "cycles", Some(694_380_574.0), Some(694_380_574.0), "ok"),
        ("large_cells_judged_exactly", "cycles", Some(694_380_574.0), Some(694_380_575.0), "moved"),
        ("large_cells_judged_exactly", "cycles", Some(694_380_574.0), Some(694_380_573.0), "moved"),
        ("large_cells_judged_exactly", "segments", Some(93.0), Some(94.0), "moved"),
        ("stream_cells_need_reuse_and_identity", "stale_reuse", None, Some(1.0), "ok"),
        ("stream_cells_need_reuse_and_identity", "stale_reuse", None, Some(0.0), "recomputed"),
        ("stream_cells_need_reuse_and_identity", "exact_identical", None, Some(1.0), "ok"),
        ("stream_cells_need_reuse_and_identity", "exact_identical", None, Some(0.0), "diverged"),
        ("segment_cells_need_identity_and_the_win", "identical", None, Some(1.0), "ok"),
        ("segment_cells_need_identity_and_the_win", "identical", None, Some(0.0), "diverged"),
        ("segment_cells_need_identity_and_the_win", "win", None, Some(0.065), "ok"),
        ("segment_cells_need_identity_and_the_win", "win", None, Some(0.049), "below-floor"),
        ("segment_cells_need_identity_and_the_win", "win", None, Some(-0.02), "below-floor"),
    ];

    /// Runs every row of `test` through the whole path: judge → verdict,
    /// `failures()`, `table()`, `to_json()`.
    fn check(test: &str) {
        let rows: Vec<&Row> = ROWS.iter().filter(|r| r.0 == test).collect();
        assert!(!rows.is_empty(), "no rows for {test}");
        for &&(_, metric, base, current, want) in &rows {
            let row = format!("{metric} {base:?} -> {current:?}");
            let cells = |v: Option<f64>| -> Vec<Cell> {
                v.iter().map(|&v| Cell::new("x", metric, v)).collect()
            };
            let report = if FLOORS.iter().any(|(m, ..)| *m == metric) {
                assert!(base.is_none(), "{row}: a floor cell has no record");
                GateReport::judge("test", &[], &[], &cells(current))
            } else {
                GateReport::judge("test", &cells(base), &cells(current), &[])
            };
            assert_eq!(report.verdicts.len(), 1, "{row}");
            let v = &report.verdicts[0];
            assert_eq!(v.status.label(), want, "{row}");
            let fails = !matches!(want, "ok" | "new");
            assert_eq!(report.passed(), !fails, "{row}");
            assert_eq!(report.failures().len(), usize::from(fails), "{row}");
            let doc = report.to_json();
            assert_eq!(doc.get("passed"), Some(&Json::Bool(!fails)), "{row}");
            if fails {
                // A failure names its cell, key and label everywhere a
                // reader looks.
                assert_eq!((v.id.as_str(), v.metric.as_str()), ("x", metric), "{row}");
                let table = report.table().render();
                assert!(
                    table.contains(want) && table.contains("| x ") && table.contains(metric),
                    "{row}: {table}"
                );
                assert!(doc.to_pretty_string().contains(want), "{row}");
            }
        }
    }

    macro_rules! row_tests {
        ($($name:ident),* $(,)?) => {
            $(#[test] fn $name() { check(stringify!($name)); })*

            #[test]
            fn every_row_runs_under_a_test() {
                for row in ROWS {
                    assert!([$(stringify!($name)),*].contains(&row.0), "orphan row {row:?}");
                }
            }
        };
    }

    row_tests!(
        doubled_cycles_fail_naming_the_cell,
        doubled_inaccuracy_fails_as_drift,
        a_move_either_way_fails,
        missing_and_new_cells_are_flagged,
        large_cells_judged_exactly,
        stream_cells_need_reuse_and_identity,
        segment_cells_need_identity_and_the_win,
    );

    /// Exact means the same text, not the same number: a value a hand edit
    /// rewrote in another spelling has moved.
    #[test]
    fn exact_judging_compares_text() {
        let report = GateReport::judge(
            "test",
            &[Cell::new("x", "cycles", "1.0")],
            &[Cell::new("x", "cycles", 1)],
            &[],
        );
        assert_eq!(report.verdicts[0].status, Status::Failed(MOVED));
    }

    /// A measurement that hands over no cell — and has no record — checked
    /// nothing, so its gate fails, naming the gate.
    #[test]
    fn an_empty_gate_fails() {
        let report = GateReport::judge("bench", &[], &[], &[]);
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].id, "bench");
        assert_eq!(failures[0].status.label(), "no-cells");
        assert!(report.table().render().contains("no-cells"));
        assert_eq!(report.to_json().get("passed"), Some(&Json::Bool(false)));
    }

    /// Self-gate: the committed record is byte for byte what the writer
    /// prints from its parsed rows, holds every family at its full size,
    /// and gated against itself is all `ok`.
    #[test]
    fn unchanged_tree_passes() {
        let path = format!("{}/../../BENCH_ci.txt", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let record = BenchRecord::parse(&text).unwrap();
        assert_eq!(record.render(), text);
        let rows = |family| {
            let ids: std::collections::BTreeSet<&str> =
                record.family(family).map(|c| c.id.as_str()).collect();
            ids.len()
        };
        assert_eq!(
            [SUITE, PAPER, LARGE, SEGMENT, STREAM, LAUNCH].map(rows),
            [1, 305, 2, 10, 1, 296]
        );
        let report = GateReport::judge("self", &record.cells, &record.cells, &[]);
        assert_eq!(
            report.verdicts.len(),
            3 + 5 * 5 + 300 * 2 + 2 * 3 + 10 * 4 + 11 + 296 * 23
        );
        assert!(report.verdicts.iter().all(|v| v.status == Status::Ok));
        assert!(report.passed());
        assert!(report.table().rows.is_empty(), "nothing moved: title only");
    }

    /// One report judges both policies: the recorded rows exactly, then
    /// the floor cells, and a failure of either fails it.
    #[test]
    fn rows_and_floor_cells_are_judged_in_one_report() {
        let rows = [Cell::new("segment/g:8/pr", "cycles", 90)];
        let floors = |win: f64| {
            [
                Cell::flag("segment/g:8/pr", "identical", true),
                Cell::new("segment/g:8/pr", "win", win),
            ]
        };
        let report = GateReport::judge("bench", &rows, &rows, &floors(0.1));
        let judged: Vec<(&str, &str)> = report
            .verdicts
            .iter()
            .map(|v| (v.metric.as_str(), v.status.label()))
            .collect();
        assert_eq!(
            judged,
            [("cycles", "ok"), ("identical", "ok"), ("win", "ok")]
        );
        assert!(report.passed());
        let report = GateReport::judge("bench", &rows, &rows, &floors(0.04));
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            (failures[0].metric.as_str(), failures[0].status.label()),
            ("win", "below-floor")
        );
        // A floor failure has no recorded value: it is what a save refuses.
        assert_eq!(failures[0].base, None);
    }

    /// A save titles its table as a save: moved, missing and new rows
    /// under those names, and only a broken floor cell as failed.
    #[test]
    fn a_save_is_titled_as_a_save() {
        let old = [
            Cell::new("a", "cycles", 1),
            Cell::new("b", "cycles", 2),
            Cell::new("c", "cycles", 3),
        ];
        let new = [
            Cell::new("a", "cycles", 1),
            Cell::new("b", "cycles", 5),
            Cell::new("d", "cycles", 4),
        ];
        let floors = |win: f64| [Cell::new("s", "win", win)];
        let report = GateReport::judge("bench", &old, &new, &floors(0.1));
        assert_eq!(
            report.save_table().title,
            "bench save: 5 cells — 2 ok, 1 moved, 1 missing, 1 new, 0 failed"
        );
        assert!(report.broken().is_empty());
        // The gate's title of the same report counts the moved and the
        // missing row as failures.
        assert_eq!(report.table().title, "bench gate: 5 cells — 2 ok, 2 failed");
        let report = GateReport::judge("bench", &old, &new, &floors(0.01));
        assert!(report
            .save_table()
            .title
            .ends_with("1 ok, 1 moved, 1 missing, 1 new, 1 failed"));
        let broken = report.broken();
        assert_eq!((broken.len(), broken[0].metric.as_str()), (1, "win"));
        assert_eq!(report.save_table().rows, report.table().rows);
    }

    #[test]
    fn gate_report_json_is_well_formed() {
        let base = [
            Cell::new("a", "cycles", 1000),
            Cell::new("a", "inaccuracy", 0),
        ];
        let mut current = base.to_vec();
        current[0].value = "1001".to_string();
        current.push(Cell::new("a", "warp_cycles", 7));
        let report = GateReport::judge("bench", &base, &current, &[]);
        let doc = Json::parse(&report.to_json().to_pretty_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(GATE_SCHEMA));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("gate").and_then(Json::as_str), Some("bench"));
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        let summary = doc.get("summary").and_then(Json::as_obj).unwrap();
        let keys: Vec<&str> = summary.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["ok", "failed", "new"]);
        let count = |key| doc.path(&["summary", key]).and_then(Json::as_u64);
        assert_eq!([count("ok"), count("failed"), count("new")], [Some(1); 3]);
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        let field = |i: usize, key| cells[i].get(key).and_then(Json::as_str);
        assert_eq!(field(0, "status"), Some("moved"));
        // Values are text; an exact cell is held to its recorded text.
        assert_eq!(field(0, "base"), Some("1000"));
        assert_eq!(field(0, "current"), Some("1001"));
        assert_eq!(field(0, "bound"), Some("1000"));
        // A new cell has no record and no bound.
        assert_eq!(field(2, "status"), Some("new"));
        assert_eq!(cells[2].get("base"), Some(&Json::Null));
        assert_eq!(cells[2].get("bound"), Some(&Json::Null));
        // A floor cell is held to the floor and serialises `base` as null.
        let floor = GateReport::judge("bench", &[], &[], &[Cell::new("s", "win", 0.4)]).to_json();
        let cell = &floor.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("bound").and_then(Json::as_str), Some("0.05"));
        assert_eq!(cell.get("current").and_then(Json::as_str), Some("0.4"));
        assert_eq!(cell.get("base"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "no gate policy")]
    fn unknown_metric_is_a_bug() {
        GateReport::judge("test", &[], &[], &[Cell::new("x", "nope", 1.0)]);
    }

    /// An (id, key) held twice could be matched against either copy, so it
    /// is never matched at all — on either side.
    #[test]
    fn a_cell_held_twice_is_never_matched() {
        let once = [Cell::new("x", "cycles", 1)];
        let twice = [Cell::new("x", "cycles", 1), Cell::new("x", "cycles", 2)];
        for (recorded, measured) in [(&once[..], &twice[..]), (&twice[..], &once[..])] {
            let judged =
                std::panic::catch_unwind(|| GateReport::judge("test", recorded, measured, &[]));
            assert!(judged.is_err(), "{recorded:?} against {measured:?}");
        }
    }
}
