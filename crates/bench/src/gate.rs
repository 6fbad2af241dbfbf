//! The one regression gate. Every bench suite — the deterministic corpus
//! ([`crate::baseline`]), serving, streaming, segmented — measures,
//! flattens its result into [`Cell`]s and hands them to
//! [`GateReport::evaluate`]; this module alone judges, renders and
//! serialises them.
//!
//! A cell is one number under one metric name, and each metric has exactly
//! one [`Policy`] in [`POLICIES`] — the table that holds every threshold of
//! every gate. Regressions and missing cells fail a gate; improvements and
//! new cells are reported but pass.
//!
//! Output is one human table plus a machine-readable `graffix.gate-report`
//! v2 document (flat `cells`, one entry per verdict).

use crate::tables::TextTable;
use graffix_sim::Json;

/// Schema identifier for gate reports.
pub const GATE_SCHEMA: &str = "graffix.gate-report";
/// Gate report schema version.
pub const GATE_VERSION: u64 = 2;

/// One measured number, as a suite hands it to the gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Stable cell id (`rmat26/exact/lonestar/sssp/push`, `hot-pool/bfs`, ...).
    pub id: String,
    /// Key into [`POLICIES`].
    pub metric: &'static str,
    pub value: f64,
    /// Recorded noise envelope of `value` (0 when not measured).
    pub stddev: f64,
    /// Free-form context shown beside the verdict; never judged.
    pub note: String,
}

impl Cell {
    /// A cell with no recorded noise and no note.
    pub fn new(id: impl Into<String>, metric: &'static str, value: f64) -> Cell {
        Cell {
            id: id.into(),
            metric,
            value,
            stddev: 0.0,
            note: String::new(),
        }
    }

    /// A boolean cell for [`Policy::Identity`]: 1 when `holds`, else 0.
    pub fn flag(id: impl Into<String>, metric: &'static str, holds: bool) -> Cell {
        Cell::new(id, metric, f64::from(u8::from(holds)))
    }
}

/// How one metric is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Noise-aware band around the baseline: the allowance is
    /// `max(rel · |base|, SIGMA_K · stddev, floor)` — relative for healthy
    /// signals, sigma when the baseline recorded noise, absolute so
    /// near-zero baselines don't produce hair-trigger thresholds. Above
    /// `base + allowance` regresses, below `base − allowance` improves.
    Band { rel: f64, floor: f64 },
    /// Coarse wall-clock band that only catches collapses. Lower-is-better
    /// metrics regress above `base · factor + floor`; higher-is-better ones
    /// below `base / factor`, and only when the drop also exceeds `floor`.
    Ratio {
        factor: f64,
        floor: f64,
        higher_is_better: bool,
    },
    /// Baseline-free: the value must reach this floor. For ratios whose two
    /// sides are measured back to back, so no machine-specific number exists.
    Floor(f64),
    /// Baseline-free: the value must be exactly 1 (a boolean identity).
    Identity,
}

/// Sigma multiplier on a baseline's recorded noise envelope ([`Policy::Band`]).
pub const SIGMA_K: f64 = 3.0;

/// Metric → (policy, label a regression carries). Every gate threshold
/// lives here and nowhere else.
#[rustfmt::skip]
pub const POLICIES: [(&str, Policy, &str); 10] = [
    // Deterministic simulator metrics: 5 % band; floors at launch-overhead
    // granularity and at ~0 inaccuracy for exact cells.
    ("cycles",             Policy::Band { rel: 0.05, floor: 500.0 }, "perf-regression"),
    ("inaccuracy",         Policy::Band { rel: 0.05, floor: 1e-6 },  "accuracy-drift"),
    // Wall seconds of a fresh transform: only order-of-magnitude blowups.
    ("preprocess_seconds", Policy::Band { rel: 0.5, floor: 0.05 },   "perf-regression"),
    // Segmented 2^20 cells: wide, so pricing tweaks don't force a refresh.
    ("large_cycles",       Policy::Band { rel: 0.25, floor: 1e6 },   "perf-regression"),
    // Serving, through a real socket: 3× bands.
    ("p99_ms", Policy::Ratio { factor: 3.0, floor: 10.0, higher_is_better: false }, "latency-regression"),
    ("rps",    Policy::Ratio { factor: 3.0, floor: 50.0, higher_is_better: true },  "throughput-regression"),
    // Streaming: every stale-regime batch is all reuse, exact-regime identity.
    ("stale_reuse",     Policy::Identity,    "recomputed"),
    ("exact_identical", Policy::Identity,    "diverged"),
    // Segmented vs flat: bit-identical values, ≥ 5 % fewer simulated cycles.
    ("win",       Policy::Floor(0.05), "below-floor"),
    ("identical", Policy::Identity,    "diverged"),
];

fn policy_of(metric: &str) -> (Policy, &'static str) {
    let row = POLICIES.iter().find(|(m, ..)| *m == metric);
    let (_, policy, label) = row.unwrap_or_else(|| panic!("no gate policy for metric `{metric}`"));
    (*policy, label)
}

/// Outcome of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Beyond the band in the good direction.
    Improved,
    /// Failed its policy; carries the metric's label from [`POLICIES`].
    Regressed(&'static str),
    /// In the baseline but not measured now.
    Missing,
    /// Measured now but absent from the baseline (not a failure — save a
    /// new baseline to start tracking it).
    New,
}

impl Status {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed(label) => label,
            Status::Missing => "missing",
            Status::New => "new",
        }
    }

    /// Does this status fail the gate?
    pub fn is_failure(self) -> bool {
        matches!(self, Status::Regressed(_) | Status::Missing)
    }
}

/// One judged cell.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub id: String,
    pub metric: &'static str,
    pub status: Status,
    pub base: Option<f64>,
    pub current: Option<f64>,
    /// The band allowance ([`Policy::Band`]) or the threshold the value was
    /// held to (every other policy); 0 for missing and new cells.
    pub bound: f64,
    pub note: String,
}

/// Judges `cur` against its baseline cell, if any.
fn judge(base: Option<&Cell>, cur: &Cell) -> Verdict {
    let (policy, label) = policy_of(cur.metric);
    let worse = |bad: bool| {
        if bad {
            Status::Regressed(label)
        } else {
            Status::Ok
        }
    };
    let (bound, status) = match (policy, base) {
        (Policy::Floor(floor), _) => (floor, worse(cur.value < floor)),
        (Policy::Identity, _) => (1.0, worse(cur.value != 1.0)),
        (_, None) => (0.0, Status::New),
        (Policy::Band { rel, floor }, Some(b)) => {
            let allowance = (rel * b.value.abs()).max(SIGMA_K * b.stddev).max(floor);
            let delta = cur.value - b.value;
            let status = if delta > allowance {
                Status::Regressed(label)
            } else if delta < -allowance {
                Status::Improved
            } else {
                Status::Ok
            };
            (allowance, status)
        }
        (
            Policy::Ratio {
                factor,
                floor,
                higher_is_better: false,
            },
            Some(b),
        ) => {
            let bound = b.value * factor + floor;
            (bound, worse(cur.value > bound))
        }
        (
            Policy::Ratio {
                factor,
                floor,
                higher_is_better: true,
            },
            Some(b),
        ) => {
            let bound = (b.value / factor).min(b.value - floor);
            (bound, worse(cur.value < bound))
        }
    };
    Verdict {
        id: cur.id.clone(),
        metric: cur.metric,
        status,
        base: base.map(|b| b.value),
        current: Some(cur.value),
        bound,
        note: cur.note.clone(),
    }
}

/// The outcome of one gate run.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Which suite was gated (`bench`, `serve`, `stream`, `segment`).
    pub gate: &'static str,
    pub verdicts: Vec<Verdict>,
}

impl GateReport {
    /// Judges `current` against `baseline`, matching cells on (id, metric).
    /// Order follows the baseline; cells without a baseline entry follow —
    /// judged alone under a baseline-free policy, `new` otherwise.
    pub fn evaluate(gate: &'static str, baseline: &[Cell], current: &[Cell]) -> GateReport {
        let same = |a: &Cell, b: &Cell| a.id == b.id && a.metric == b.metric;
        let mut verdicts = Vec::with_capacity(current.len());
        for base in baseline {
            verdicts.push(match current.iter().find(|c| same(c, base)) {
                Some(cur) => judge(Some(base), cur),
                None => Verdict {
                    id: base.id.clone(),
                    metric: base.metric,
                    status: Status::Missing,
                    base: Some(base.value),
                    current: None,
                    bound: 0.0,
                    note: base.note.clone(),
                },
            });
        }
        for cur in current {
            if !baseline.iter().any(|b| same(b, cur)) {
                verdicts.push(judge(None, cur));
            }
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

    /// True when nothing regressed or went missing.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    fn count(&self, status: Status) -> usize {
        self.verdicts.iter().filter(|v| v.status == status).count()
    }

    /// The human table: one row per verdict, except `ok` cells whose value
    /// did not move off the baseline at all — the deterministic metrics on
    /// an unchanged tree — which only count in the title.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!(
                "{} gate: {} cells — {} ok, {} improved, {} failed",
                self.gate,
                self.verdicts.len(),
                self.count(Status::Ok),
                self.count(Status::Improved),
                self.failures().len()
            ),
            &["Cell", "Metric", "Status", "Base", "Now", "Bound", "Note"],
        );
        let num = |v: Option<f64>| match v {
            None => "-".to_string(),
            Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
            Some(v) if v.abs() >= 1e-3 => format!("{v:.4}"),
            Some(v) => format!("{v:.3e}"),
        };
        for v in &self.verdicts {
            if v.status == Status::Ok && v.current == v.base {
                continue;
            }
            t.row(vec![
                v.id.clone(),
                v.metric.to_string(),
                v.status.label().to_string(),
                num(v.base),
                num(v.current),
                num(Some(v.bound)),
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
        summary.set("improved", Json::U64(self.count(Status::Improved) as u64));
        summary.set("failed", Json::U64(self.failures().len() as u64));
        summary.set("new", Json::U64(self.count(Status::New) as u64));
        root.set("summary", summary);
        let cells = self
            .verdicts
            .iter()
            .map(|v| {
                let mut o = Json::obj();
                o.set("id", Json::Str(v.id.clone()));
                o.set("metric", Json::Str(v.metric.to_string()));
                o.set("status", Json::Str(v.status.label().to_string()));
                o.set("base", v.base.map_or(Json::Null, Json::F64));
                o.set("current", v.current.map_or(Json::Null, Json::F64));
                o.set("bound", Json::F64(v.bound));
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
    use crate::{BenchBaseline, ServeBaseline};

    fn cell(id: &str, metric: &'static str, value: f64, stddev: f64) -> Cell {
        Cell {
            stddev,
            ..Cell::new(id, metric, value)
        }
    }

    /// (test the row runs under, metric, baseline (value, stddev), current
    /// value, expected status label). Every row is judged alone as cell `x`.
    type Row = (
        &'static str,
        &'static str,
        Option<(f64, f64)>,
        Option<f64>,
        &'static str,
    );

    #[rustfmt::skip]
    const ROWS: &[Row] = &[
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some((56_080.0, 0.0)), Some(112_161.0), "perf-regression"),
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some((112_161.0, 0.0)), Some(117_000.0), "ok"),
        // Below the 5 % band but inside the 500-cycle launch-overhead floor.
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some((4_000.0, 0.0)), Some(4_400.0), "ok"),
        // A recorded noise envelope widens the band to 3σ.
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some((100_000.0, 4_000.0)), Some(111_000.0), "ok"),
        ("doubled_cycles_fail_naming_the_cell", "cycles", Some((100_000.0, 4_000.0)), Some(113_000.0), "perf-regression"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some((0.012, 0.0)), Some(0.024), "accuracy-drift"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some((0.012, 0.0)), Some(0.0125), "ok"),
        // Exact cells: ~0 baseline, guarded by the absolute floor.
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some((0.0, 0.0)), Some(5e-7), "ok"),
        ("doubled_inaccuracy_fails_as_drift", "inaccuracy", Some((0.0, 0.0)), Some(1e-3), "accuracy-drift"),
        ("missing_and_new_cells_are_flagged", "cycles", Some((112_161.0, 0.0)), None, "missing"),
        ("missing_and_new_cells_are_flagged", "cycles", None, Some(112_161.0), "new"),
        ("missing_and_new_cells_are_flagged", "preprocess_seconds", Some((0.002, 0.0)), None, "missing"),
        ("missing_and_new_cells_are_flagged", "large_cycles", Some((1e9, 0.0)), None, "missing"),
        ("missing_and_new_cells_are_flagged", "p99_ms", Some((4.0, 0.0)), None, "missing"),
        ("missing_and_new_cells_are_flagged", "rps", None, Some(1.0), "new"),
        ("improvement_does_not_fail", "cycles", Some((112_161.0, 0.0)), Some(56_080.0), "improved"),
        ("improvement_does_not_fail", "inaccuracy", Some((0.012, 0.0)), Some(0.006), "improved"),
        // Tiny-corpus transforms take microseconds: +40 ms of jitter sits
        // under the 0.05 s floor; +10 s clears any band.
        ("preprocess_jitter_within_floor_is_ok", "preprocess_seconds", Some((0.0023, 0.0020)), Some(0.0423), "ok"),
        ("preprocess_blowup_fails_gate_naming_the_cell", "preprocess_seconds", Some((0.0023, 0.0020)), Some(10.0023), "perf-regression"),
        ("preprocess_blowup_fails_gate_naming_the_cell", "preprocess_seconds", Some((4.0, 0.0)), Some(40.0), "perf-regression"),
        // Multi-second cells ride the 50 % band, not the floor.
        ("preprocess_jitter_within_floor_is_ok", "preprocess_seconds", Some((4.0, 0.0)), Some(5.9), "ok"),
        ("large_cells_judged_behind_coarse_band", "large_cycles", Some((1e9, 0.0)), Some(1.2e9), "ok"),
        ("large_cells_judged_behind_coarse_band", "large_cycles", Some((1e9, 0.0)), Some(1.3e9), "perf-regression"),
        ("large_cells_judged_behind_coarse_band", "large_cycles", Some((2e6, 0.0)), Some(2.9e6), "ok"),
        ("large_cells_judged_behind_coarse_band", "large_cycles", Some((2e6, 0.0)), Some(3.1e6), "perf-regression"),
        ("serve_cells_judged_behind_coarse_ratio", "p99_ms", Some((4.0, 0.0)), Some(4.0), "ok"),
        ("serve_cells_judged_behind_coarse_ratio", "p99_ms", Some((4.0, 0.0)), Some(8.0), "ok"),
        ("serve_cells_judged_behind_coarse_ratio", "p99_ms", Some((4.0, 0.0)), Some(140.0), "latency-regression"),
        ("serve_cells_judged_behind_coarse_ratio", "rps", Some((500.0, 0.0)), Some(500.0), "ok"),
        ("serve_cells_judged_behind_coarse_ratio", "rps", Some((500.0, 0.0)), Some(30.0), "throughput-regression"),
        // Under a third of the baseline, but the drop is inside the 50 rps floor.
        ("serve_cells_judged_behind_coarse_ratio", "rps", Some((60.0, 0.0)), Some(15.0), "ok"),
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

    /// Runs every row of `test` through the whole path: evaluate → verdict,
    /// `failures()`, `table()`, `to_json()`.
    fn check(test: &str) {
        let rows: Vec<&Row> = ROWS.iter().filter(|r| r.0 == test).collect();
        assert!(!rows.is_empty(), "no rows for {test}");
        for &&(_, metric, base, current, want) in &rows {
            let row = format!("{metric} {base:?} -> {current:?}");
            let base: Vec<Cell> = base.iter().map(|&(v, s)| cell("x", metric, v, s)).collect();
            let current: Vec<Cell> = current.iter().map(|&v| cell("x", metric, v, 0.0)).collect();
            let report = GateReport::evaluate("test", &base, &current);
            assert_eq!(report.verdicts.len(), 1, "{row}");
            let v = &report.verdicts[0];
            assert_eq!(v.status.label(), want, "{row}");
            let fails = !matches!(want, "ok" | "improved" | "new");
            assert_eq!(report.passed(), !fails, "{row}");
            assert_eq!(report.failures().len(), usize::from(fails), "{row}");
            let doc = report.to_json();
            assert_eq!(doc.get("passed"), Some(&Json::Bool(!fails)), "{row}");
            if fails {
                // A failure names its cell and label everywhere a reader looks.
                assert_eq!((v.id.as_str(), v.metric), ("x", metric), "{row}");
                let table = report.table().render();
                assert!(
                    table.contains(want) && table.contains("| x "),
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
        missing_and_new_cells_are_flagged,
        improvement_does_not_fail,
        preprocess_jitter_within_floor_is_ok,
        preprocess_blowup_fails_gate_naming_the_cell,
        large_cells_judged_behind_coarse_band,
        serve_cells_judged_behind_coarse_ratio,
        stream_cells_need_reuse_and_identity,
        segment_cells_need_identity_and_the_win,
    );

    fn committed(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Self-gate: the committed baselines, read in their on-disk formats
    /// and gated against their own cells, are all `ok` — two verdicts per
    /// metric cell and per serve cell, one per preprocess and large cell.
    #[test]
    fn unchanged_tree_passes() {
        let bench = BenchBaseline::parse(&committed("BENCH_ci.json")).unwrap();
        let serve = ServeBaseline::parse(&committed("SERVE_ci.json")).unwrap();
        for (cells, want) in [
            (bench.gate_cells(), 58 * 2 + 20 + 2),
            (serve.gate_cells(), 4 * 2),
        ] {
            let report = GateReport::evaluate("self", &cells, &cells);
            assert_eq!(report.verdicts.len(), want);
            assert!(report.verdicts.iter().all(|v| v.status == Status::Ok));
            assert!(report.passed());
            assert!(report.table().rows.is_empty(), "nothing moved: title only");
        }
    }

    #[test]
    fn gate_report_json_is_well_formed() {
        let base = [
            cell("a", "cycles", 1000.0, 0.0),
            cell("a", "inaccuracy", 0.0, 0.0),
        ];
        let mut current = base.to_vec();
        current[0].value = 9000.0;
        current.push(cell("s", "win", 0.4, 0.0));
        let report = GateReport::evaluate("bench", &base, &current);
        let doc = Json::parse(&report.to_json().to_pretty_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(GATE_SCHEMA));
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("gate").and_then(Json::as_str), Some("bench"));
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        assert_eq!(doc.path(&["summary", "ok"]).and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.path(&["summary", "failed"]).and_then(Json::as_u64),
            Some(1)
        );
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[0].get("status").and_then(Json::as_str),
            Some("perf-regression")
        );
        assert_eq!(cells[0].get("bound").and_then(Json::as_f64), Some(500.0));
        // Baseline-free cells serialise `base` as null.
        assert_eq!(cells[2].get("base"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "no gate policy")]
    fn unknown_metric_is_a_bug() {
        GateReport::evaluate("test", &[], &[cell("x", "nope", 1.0, 0.0)]);
    }
}
