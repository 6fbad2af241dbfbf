//! End-to-end tests for the bench baseline / regression gate CLI:
//! `graffix bench --save-baseline` followed by `graffix bench --gate`.
//!
//! The gated metrics (simulated cycles, inaccuracy) are deterministic, so a
//! freshly saved baseline must pass the gate on an unchanged tree every
//! time, and a doctored baseline cell must fail the gate naming exactly
//! that cell.

use graffix_bench::BenchBaseline;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graffix"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Saves a small baseline for one test to gate against.
///
/// Every bench invocation below pins `--cache-dir` into the harness tmp
/// dir: the default is relative (`target/graffix-cache`) and would land in
/// the crate's own cwd when the test launches the binary. `--large-nodes`
/// is scaled down from its 2^20 default so the v4 large cells stay covered
/// end to end (saved, re-measured by the gate, judged) at test speed.
fn saved_baseline(name: &str) -> PathBuf {
    let path = tmp(name);
    let out = bin()
        .args(["bench", "--save-baseline"])
        .arg(&path)
        .args([
            "--nodes",
            "128",
            "--repeats",
            "2",
            "--large-nodes",
            "1500",
            "--quiet",
        ])
        .arg("--cache-dir")
        .arg(tmp("graffix-cache"))
        .env("GRAFFIX_BENCH_HOST", "test")
        .output()
        .expect("run graffix bench --save-baseline");
    assert!(
        out.status.success(),
        "save-baseline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn gate_passes_three_consecutive_runs_on_unchanged_tree() {
    let baseline = saved_baseline("BENCH_unchanged.json");
    for attempt in 0..3 {
        let out = bin()
            .args(["bench", "--gate"])
            .arg(&baseline)
            .arg("--quiet")
            .arg("--cache-dir")
            .arg(tmp("graffix-cache"))
            .output()
            .expect("run graffix bench --gate");
        assert!(
            out.status.success(),
            "gate attempt {attempt} failed on unchanged tree:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("0 failed"),
            "diff table should report zero failures: {stdout}"
        );
    }
}

#[test]
fn doctored_perf_cell_fails_gate_naming_the_cell() {
    let baseline = saved_baseline("BENCH_perf.json");
    let text = std::fs::read_to_string(&baseline).expect("read baseline");
    let mut doc = BenchBaseline::parse(&text).expect("parse baseline");
    // Halve one cell's recorded cycles: the current tree now looks 2x
    // slower than baseline for that cell, which must trip the gate.
    let victim = doc.cells[7].key.id();
    doc.cells[7].elapsed_cycles /= 2;
    let doctored = tmp("BENCH_perf_doctored.json");
    std::fs::write(&doctored, doc.to_pretty_string()).expect("write doctored baseline");

    let gate_report = tmp("gate-report-perf.json");
    let out = bin()
        .args(["bench", "--gate"])
        .arg(&doctored)
        .arg("--gate-report")
        .arg(&gate_report)
        .arg("--quiet")
        .arg("--cache-dir")
        .arg(tmp("graffix-cache"))
        .output()
        .expect("run graffix bench --gate");
    assert!(!out.status.success(), "gate must fail on a 2x slowdown");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains(&victim) && stdout.contains("perf-regression"),
        "diff table should name {victim} as perf-regression: {stdout}"
    );
    assert!(
        stderr.contains(&victim),
        "failure summary should name {victim}: {stderr}"
    );

    // The machine-readable gate report is written even on failure and
    // carries the same verdict.
    let report = std::fs::read_to_string(&gate_report).expect("gate report written");
    assert!(report.contains("graffix.gate-report"));
    assert!(report.contains(&victim));
    assert!(report.contains("perf-regression"));
}

#[test]
fn doctored_accuracy_cell_fails_gate_as_drift() {
    let baseline = saved_baseline("BENCH_acc.json");
    let text = std::fs::read_to_string(&baseline).expect("read baseline");
    let mut doc = BenchBaseline::parse(&text).expect("parse baseline");
    // Pick a cell with real approximation error and halve its recorded
    // inaccuracy: the current tree then shows double the baseline error.
    let idx = doc
        .cells
        .iter()
        .position(|c| c.inaccuracy > 1e-3)
        .expect("corpus has at least one approximate cell");
    let victim = doc.cells[idx].key.id();
    doc.cells[idx].inaccuracy /= 2.0;
    let doctored = tmp("BENCH_acc_doctored.json");
    std::fs::write(&doctored, doc.to_pretty_string()).expect("write doctored baseline");

    let out = bin()
        .args(["bench", "--gate"])
        .arg(&doctored)
        .arg("--quiet")
        .arg("--cache-dir")
        .arg(tmp("graffix-cache"))
        .output()
        .expect("run graffix bench --gate");
    assert!(
        !out.status.success(),
        "gate must fail on doubled inaccuracy"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&victim) && stdout.contains("accuracy-drift"),
        "diff table should name {victim} as accuracy-drift: {stdout}"
    );
}

#[test]
fn gate_rejects_files_that_are_not_baselines() {
    let bogus = tmp("not-a-baseline.json");
    std::fs::write(&bogus, "{\"schema\": \"something-else\", \"version\": 1}").unwrap();
    let out = bin()
        .args(["bench", "--gate"])
        .arg(&bogus)
        .output()
        .expect("run graffix bench --gate");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a bench baseline"),
        "should explain the schema mismatch: {stderr}"
    );
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
        .args(["--repeats", "abc"])
        .output()
        .expect("run graffix bench --save-baseline");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad --repeats value: abc") && !stderr.contains("panicked"),
        "should be a usage error: {stderr}"
    );
}
