//! End-to-end tests for the bench record and the regression gate CLI:
//! `graffix bench --save-baseline` followed by `graffix bench --gate`.
//!
//! Every recorded value (simulated cycles, inaccuracy, launch stats, stage
//! counts) is deterministic and judged exactly, so a freshly saved record
//! must pass the gate on an unchanged tree every time, and a value moved
//! by the smallest step must fail the gate naming exactly that row and
//! key.
//!
//! Each family is measured once per run where it can be: one save measures
//! every family at test scale, its launch rows are compared with the
//! committed record's as text, and every gate here gates a record that
//! holds only the families it needs.

use graffix_bench::report::{self, Rendered};
use graffix_bench::{BenchRecord, GateReport, MOVED};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graffix"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// A `bench` command with `args`. Every bench invocation pins
/// `--cache-dir` into the harness tmp dir: the default is relative
/// (`target/graffix-cache`) and would land in the crate's own cwd when the
/// test launches the binary.
fn bench(args: &[&str]) -> Command {
    let mut cmd = bin();
    cmd.arg("bench").args(args).arg("--quiet");
    cmd.arg("--cache-dir").arg(tmp("graffix-cache"));
    cmd
}

/// The record the one save starts from: one row per family, each naming
/// the family's test scale, which is all a save reads of it. The large
/// rows run at 1500 nodes instead of 2^20. The segment rows need at least
/// 2048 nodes: at 1024, USA-road/pr wins only 4.6 % and fails the 5 %
/// floor.
const SEED: &str = "\
suite nodes=128 seed=2020 bc_sources=4
paper/seed cycles=0
large/rmat26:1500/seed cycles=0
segment/rmat26:2048/seed cycles=0
stream/rmat-20k-1pct batches=0
launch/seed warps=0
";

/// The one save over [`SEED`]: the verdict table it printed, and the
/// text of the record every test here gates against.
fn save() -> &'static (String, String) {
    static SAVED: OnceLock<(String, String)> = OnceLock::new();
    SAVED.get_or_init(|| {
        let path = tmp("BENCH_saved.txt");
        std::fs::write(&path, SEED).expect("write the seed record");
        let out = bench(&["--save-baseline", path.to_str().unwrap()])
            .output()
            .expect("run graffix bench --save-baseline");
        assert!(
            out.status.success(),
            "save-baseline failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("read the saved record");
        (String::from_utf8_lossy(&out.stdout).into_owned(), text)
    })
}

fn saved() -> &'static str {
    &save().1
}

/// The saved record's suite row and the rows of `families` (id prefixes).
fn only(families: &[&str]) -> String {
    saved()
        .lines()
        .filter(|row| row.starts_with("suite ") || families.iter().any(|f| row.starts_with(f)))
        .map(|row| format!("{row}\n"))
        .collect()
}

/// Writes `text` to `name` and gates it, with a gate report beside it.
fn gate(name: &str, text: &str) -> (Output, String) {
    let (path, report) = (tmp(name), tmp(&format!("{name}.report.json")));
    std::fs::write(&path, text).expect("write the record");
    let out = bench(&["--gate", path.to_str().unwrap()])
        .arg("--gate-report")
        .arg(&report)
        .output()
        .expect("run graffix bench --gate");
    // The machine-readable gate report is written even on failure.
    let report = std::fs::read_to_string(&report).expect("gate report written");
    (out, report)
}

/// `text` with the value of `key` in the first row `pick` accepts replaced
/// by `edit` of it; returns the row id and the doctored text.
fn doctor(
    text: &str,
    pick: impl Fn(&str) -> bool,
    key: &str,
    edit: impl Fn(&str) -> String,
) -> (String, String) {
    let row = text.lines().find(|row| pick(row)).expect("a row to doctor");
    let id = row.split(' ').next().unwrap().to_string();
    let doctored_row: Vec<String> = row
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some((k, v)) if k == key => format!("{k}={}", edit(v)),
            _ => token.to_string(),
        })
        .collect();
    assert_ne!(doctored_row.join(" "), row, "{id} has no `{key}`");
    (id, text.replacen(row, &doctored_row.join(" "), 1))
}

/// A failed gate names the victim's row, its key and `moved` on stdout (the
/// verdict table), on stderr (`FAIL id [moved] key`) and in the report.
fn assert_named(out: &Output, report: &str, id: &str, key: &str) {
    assert!(!out.status.success(), "gate must fail on a one-step move");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let row = stdout.lines().find(|l| l.contains(id));
    assert!(
        row.is_some_and(|r| r.contains(key) && r.contains(MOVED)),
        "diff table should name {id} {key} as moved: {stdout}"
    );
    assert!(
        stderr.contains(&format!("FAIL {id} [moved] {key}")),
        "failure summary should name {id} {key}: {stderr}"
    );
    assert!(report.contains("graffix.gate-report"));
    assert!(report.contains(id) && report.contains(MOVED), "{report}");
}

/// Ids of the rows of `text` that start with `prefix`, in order.
fn ids<'a>(text: &'a str, prefix: &'a str) -> Vec<&'a str> {
    text.lines()
        .filter_map(|row| row.split(' ').next())
        .filter(|id| id.starts_with(prefix))
        .collect()
}

/// The save measured every family the seed names, at the scale it names,
/// and wrote only measured rows: the seed's placeholder rows are gone. It
/// judged the 22 floor cells of the segment and stream rows, all `ok`, in
/// the table it printed, and wrote none of them.
#[test]
fn a_save_measures_the_families_its_record_holds() {
    let (table, text) = save();
    let floors = ["win", "identical", "stale_reuse", "exact_identical"];
    let judged = table
        .lines()
        .filter(|l| l.contains("| ok ") && floors.iter().any(|f| l.contains(f)))
        .count();
    assert_eq!(judged, 22, "{table}");
    assert!(
        floors.iter().all(|f| !text.contains(&format!(" {f}="))),
        "{text}"
    );
    assert!(text.starts_with("suite nodes=128 seed=2020 bc_sources=4\n"));
    assert!(
        !text.contains("/seed "),
        "a placeholder row survived: {text}"
    );
    // Every cell of Tables 1-4 and 6-14 and every point of Figures 7-9:
    // 5 graph rows and 300 runs.
    assert_eq!(ids(text, "paper/").len(), 305);
    let large = ids(text, "large/");
    assert_eq!(large.len(), 2);
    assert!(large.iter().all(|id| id.starts_with("large/rmat26:1500/")));
    let segment = ids(text, "segment/");
    assert_eq!(segment.len(), 10);
    assert!(
        segment.iter().all(|id| id.contains(":2048/")),
        "{segment:?}"
    );
    assert_eq!(ids(text, "stream/"), ["stream/rmat-20k-1pct"]);
    assert_eq!(ids(text, "launch/").len(), 296);
}

/// The launch rows depend on nothing a record sets, so the save's are the
/// committed record's, as text: every simulated number of every launch
/// shape ([`graffix_bench::launch`], which also checks that each segmented
/// run agrees with its flat run bit for bit). A move a change means to make
/// is recorded with `graffix bench --save-baseline BENCH_ci.txt`.
#[test]
fn saved_launch_rows_equal_the_committed_rows() {
    let launch = |text: &str| -> Vec<String> {
        let rows = text.lines().filter(|row| row.starts_with("launch/"));
        rows.map(String::from).collect()
    };
    let (saved, committed) = (launch(saved()), launch(include_str!("../BENCH_ci.txt")));
    assert_eq!(saved.len(), committed.len(), "launch row count");
    let off: Vec<(&String, &String)> = saved
        .iter()
        .zip(&committed)
        .filter(|(s, c)| s != c)
        .collect();
    assert!(
        off.is_empty(),
        "{} of {} launch rows differ from BENCH_ci.txt; first (measured, recorded): {:#?}",
        off.len(),
        committed.len(),
        &off[..off.len().min(4)]
    );
}

/// Three gates on the unchanged tree, one per family the suite row scales
/// (the save alone measures the stream and launch rows): each must pass,
/// and the segment gate judges its 20 floor cells beside the rows.
#[test]
fn gate_passes_three_consecutive_runs_on_unchanged_tree() {
    let records = [
        ("paper", only(&["paper/"])),
        ("large", only(&["large/"])),
        ("segment", only(&["segment/"])),
    ];
    for (name, text) in &records {
        let (out, report) = gate(&format!("BENCH_unchanged_{name}.txt"), text);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "gate of the {name} rows failed on unchanged tree:\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("0 failed"),
            "diff table should report zero failures: {stdout}"
        );
        if *name == "segment" {
            // Each floor cell is a row of the table, held to its floor.
            let floor = |l: &&str| l.contains("| win ") || l.contains("| identical ");
            let judged = stdout
                .lines()
                .filter(floor)
                .filter(|l| l.contains("| ok "))
                .count();
            assert_eq!(judged, 20, "{stdout}");
            assert!(report.contains("\"win\""), "{report}");
        }
    }
}

#[test]
fn doctored_perf_cell_fails_gate_naming_the_cell() {
    // Move one row's recorded cycles by a single cycle: the gate holds
    // every recorded value exactly, so even that trips it.
    let record = only(&["paper/"]);
    let victim = record.lines().filter(|r| r.starts_with("paper/")).nth(7);
    let (id, text) = doctor(
        &record,
        |row| Some(row) == victim,
        "cycles",
        |v| (v.parse::<u64>().unwrap() + 1).to_string(),
    );
    let (out, report) = gate("BENCH_perf_doctored.txt", &text);
    assert_named(&out, &report, &id, "cycles");
}

#[test]
fn doctored_accuracy_cell_fails_gate_as_drift() {
    // Pick a row with real approximation error and move its recorded
    // inaccuracy by one ulp: exact judging has no band to hide it in.
    let inaccuracy = |row: &str| -> f64 {
        let token = row.split(' ').find_map(|t| t.strip_prefix("inaccuracy="));
        token.map_or(0.0, |v| v.parse().unwrap())
    };
    let (id, text) = doctor(
        &only(&["paper/"]),
        |row| inaccuracy(row) > 1e-3,
        "inaccuracy",
        |v| v.parse::<f64>().unwrap().next_down().to_string(),
    );
    let (out, report) = gate("BENCH_acc_doctored.txt", &text);
    assert_named(&out, &report, &id, "inaccuracy");
}

/// A launch row moved by one warp cycle, judged in process against the
/// saved rows: the test above shows a measurement gives back exactly the
/// committed rows, so the saved rows stand in for another measurement.
#[test]
fn doctored_launch_row_fails_gate_naming_the_key() {
    let (id, text) = doctor(
        saved(),
        |row| row.starts_with("launch/"),
        "warp_cycles",
        |v| (v.parse::<u64>().unwrap() + 1).to_string(),
    );
    let doctored = BenchRecord::parse(&text).expect("the doctored record reads");
    let measured = BenchRecord::parse(saved()).expect("the saved record reads");
    let report = GateReport::judge("bench", &doctored.cells, &measured.cells, &[]);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    let v = failures[0];
    assert_eq!(
        (v.id.as_str(), v.metric.as_str(), v.status.label()),
        (id.as_str(), "warp_cycles", MOVED)
    );
    let table = report.table().render();
    assert!(
        table.contains(&id) && table.contains("warp_cycles"),
        "{table}"
    );
    assert!(report.to_json().to_pretty_string().contains(&id));
}

/// A save whose floor cells fail names them and writes nothing: a segment
/// family at 1024 nodes, where USA-road/pr's segmented run wins less than
/// the 5 % floor.
#[test]
fn save_whose_floor_cells_fail_writes_nothing() {
    let path = tmp("BENCH_below_floor.txt");
    let text = "suite nodes=128 seed=2020 bc_sources=4\nsegment/rmat26:1024/seed cycles=0\n";
    std::fs::write(&path, text).unwrap();
    let out = bench(&["--save-baseline", path.to_str().unwrap()])
        .output()
        .expect("run graffix bench --save-baseline");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FAIL segment/USA-road:1024/pr [below-floor] win"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("[moved]"),
        "moved rows are what a save records: {stderr}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
}

#[test]
fn gate_rejects_files_that_are_not_baselines() {
    // The JSON baseline this record format replaced is refused on line 1.
    let bogus = tmp("not-a-record.json");
    std::fs::write(&bogus, "{\"schema\": \"something-else\", \"version\": 1}").unwrap();
    let out = bin()
        .args(["bench", "--gate"])
        .arg(&bogus)
        .output()
        .expect("run graffix bench --gate");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is not a bench record: line 1: "),
        "should name the line: {stderr}"
    );
}

/// A save over a file that does not read stops before measuring anything
/// and leaves the file as it was.
#[test]
fn save_over_a_file_that_does_not_read_keeps_it() {
    let path = tmp("not-a-record.txt");
    let text = "suite nodes=128 seed=2020 bc_sources=4\npaper/x cycles\n";
    std::fs::write(&path, text).unwrap();
    let out = bench(&["--save-baseline", path.to_str().unwrap()])
        .output()
        .expect("run graffix bench --save-baseline");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is not a bench record: line 2: `cycles` has no `=`"),
        "{stderr}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
}

/// Gate thresholds are fixed policy, not flags: a retired threshold flag is
/// rejected like any unknown flag, before anything is measured.
#[test]
fn retired_threshold_flag_is_a_usage_error() {
    let out = bin()
        .args(["bench", "--gate"])
        .arg(tmp("never-read.json"))
        .args(["--rel-tol", "0.1"])
        .output()
        .expect("run graffix bench --gate");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --rel-tol for 'bench'"),
        "should name the flag: {stderr}"
    );
}

#[test]
fn malformed_flag_value_is_a_usage_error_not_a_panic() {
    let out = bin()
        .args(["generate", "--kind", "rmat", "--nodes", "abc", "--out"])
        .arg(tmp("never-written.gfx"))
        .output()
        .expect("run graffix generate");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --nodes value: abc") && !stderr.contains("panicked"),
        "should be a usage error: {stderr}"
    );
}

/// `--paper-tables` and `--figures` render the committed record, print
/// what the library renders, and write one CSV per table or figure; a
/// record without one paper row makes the render exit 1 naming that row.
/// Nothing is simulated, so this is text work only.
#[test]
fn renders_read_the_record_and_name_a_missing_row() {
    let committed = include_str!("../BENCH_ci.txt");
    let record = BenchRecord::parse(committed).expect("the committed record reads");
    let path = tmp("BENCH_render.txt");
    std::fs::write(&path, committed).unwrap();
    let render = |mode: &str, path: &PathBuf| {
        let out_dir = tmp(&format!("render-{mode}"));
        let out = bench(&[
            mode,
            path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .expect("run graffix bench");
        (out, out_dir)
    };
    type Render = fn(&BenchRecord) -> Result<Vec<Rendered>, String>;
    let modes: [(&str, Render); 2] = [
        ("--paper-tables", report::paper_tables),
        ("--figures", report::figures),
    ];
    for (mode, library) in modes {
        let (out, out_dir) = render(mode, &path);
        assert!(
            out.status.success(),
            "{mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rendered = library(&record).unwrap();
        let text: String = rendered.iter().map(Rendered::text).collect();
        assert_eq!(String::from_utf8_lossy(&out.stdout), text, "{mode}");
        for r in &rendered {
            assert!(
                out_dir.join(format!("{}.csv", r.stem)).exists(),
                "{mode}: {}",
                r.stem
            );
        }
    }
    // Drop one row a mode reads: that mode exits 1 naming it, printing
    // nothing; the other mode does not read it and still renders.
    for (mode, other, victim) in [
        (
            "--paper-tables",
            "--figures",
            "paper/USA-road/divergence/tigr/bc/push",
        ),
        (
            "--figures",
            "--paper-tables",
            "paper/rmat26/latency:0.8/lonestar/bc/push",
        ),
    ] {
        let kept: String = committed
            .lines()
            .filter(|row| row.split(' ').next() != Some(victim))
            .map(|row| format!("{row}\n"))
            .collect();
        assert_eq!(
            kept.lines().count() + 1,
            committed.lines().count(),
            "{victim}"
        );
        let path = tmp("BENCH_without_a_row.txt");
        std::fs::write(&path, kept).unwrap();
        assert!(
            render(other, &path).0.status.success(),
            "{other} without {victim}"
        );
        let (out, _) = render(mode, &path);
        assert_eq!(out.status.code(), Some(1), "{mode} without {victim}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{victim}`")), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{mode}: nothing printed before the error"
        );
    }
}
