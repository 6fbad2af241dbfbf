//! End-to-end tests for the bench record and the regression gate CLI:
//! `graffix bench --save-baseline` followed by `graffix bench --gate`.
//!
//! Every recorded value (simulated cycles, inaccuracy, launch stats) is
//! deterministic and judged exactly, so a freshly saved record must pass
//! the gate on an unchanged tree every time, and a value moved by the
//! smallest step must fail the gate naming exactly that row and key.

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

/// The text of the one record every test here gates against, saved once.
/// `--large-nodes` is scaled down from its 2^20 default so the large rows
/// stay covered end to end (saved, re-measured by the gate, judged) at test
/// speed.
fn saved() -> &'static str {
    static SAVED: OnceLock<String> = OnceLock::new();
    SAVED.get_or_init(|| {
        let path = tmp("BENCH_saved.txt");
        let out = bench(&["--save-baseline", path.to_str().unwrap()])
            .args(["--nodes", "128", "--large-nodes", "1500"])
            .output()
            .expect("run graffix bench --save-baseline");
        assert!(
            out.status.success(),
            "save-baseline failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).expect("read the saved record")
    })
}

/// The saved record without its launch rows: a gate on it re-measures only
/// the suite, paper and large rows.
fn without_launch() -> String {
    saved()
        .lines()
        .filter(|row| !row.starts_with("launch/"))
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

/// One full gate, launch rows included, then two on the copy without them
/// (the launch family is measured once by the save and once here).
#[test]
fn gate_passes_three_consecutive_runs_on_unchanged_tree() {
    let partial = without_launch();
    for (attempt, text) in [saved(), &partial, &partial].into_iter().enumerate() {
        let (out, _) = gate(&format!("BENCH_unchanged_{attempt}.txt"), text);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "gate attempt {attempt} failed on unchanged tree:\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("0 failed"),
            "diff table should report zero failures: {stdout}"
        );
    }
}

#[test]
fn doctored_perf_cell_fails_gate_naming_the_cell() {
    // Move one row's recorded cycles by a single cycle: the gate holds
    // every recorded value exactly, so even that trips it.
    let record = without_launch();
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
        &without_launch(),
        |row| inaccuracy(row) > 1e-3,
        "inaccuracy",
        |v| v.parse::<f64>().unwrap().next_down().to_string(),
    );
    let (out, report) = gate("BENCH_acc_doctored.txt", &text);
    assert_named(&out, &report, &id, "inaccuracy");
}

/// A launch row moved by one warp cycle. The full gate above shows that
/// re-measuring the launch family gives back the saved rows exactly, so the
/// saved rows stand in for a third measurement of it here.
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
    let report = GateReport::exact("bench", &doctored.cells, &measured.cells);
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
        .args(["bench", "--save-baseline"])
        .arg(tmp("never-written.json"))
        .args(["--large-nodes", "abc"])
        .output()
        .expect("run graffix bench --save-baseline");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --large-nodes value: abc") && !stderr.contains("panicked"),
        "should be a usage error: {stderr}"
    );
}
