//! Process-level checks of the typed command line: arguments are judged
//! before any work starts, and a usage error is exit 2 with its reason
//! above the subcommand's own usage block.

use std::process::Command;

fn graffix(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_graffix"))
        .args(args)
        .output()
        .expect("run graffix");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A bad `--algo` is reported before the input is opened: the error names
/// the algorithm, not the file that does not exist.
#[test]
fn bad_algo_is_reported_before_the_input_is_opened() {
    let (code, stdout, stderr) = graffix(&["run", "--in", "/nonexistent.gfx", "--algo", "nope"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    assert!(stderr.starts_with("bad --algo value: nope\n"), "{stderr}");
    assert!(!stderr.contains("/nonexistent.gfx"), "{stderr}");
    assert!(stderr.contains("usage: graffix run"), "{stderr}");
    assert!(!stderr.contains("usage: graffix <"), "{stderr}");
}

/// `stream` used to ingest the whole delta log before rejecting its
/// `--algo` at the first checkpoint.
#[test]
fn stream_rejects_a_bad_algo_without_reading_the_log() {
    let (code, _, stderr) = graffix(&[
        "stream",
        "--in",
        "/nonexistent.gfx",
        "--stream",
        "/nonexistent.txt",
        "--algo",
        "nope",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.starts_with("bad --algo value: nope\n"), "{stderr}");
    assert!(!stderr.contains("/nonexistent"), "{stderr}");
}

/// Valid arguments still fail late, with exit 1, on the missing file.
#[test]
fn a_missing_input_is_a_runtime_error_not_a_usage_error() {
    let (code, _, stderr) = graffix(&[
        "run",
        "--in",
        "/nonexistent.gfx",
        "--algo",
        "bfs",
        "--no-cache",
    ]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("could not read /nonexistent.gfx"),
        "{stderr}"
    );
}

#[test]
fn no_arguments_prints_every_subcommand_and_exits_2() {
    let (code, _, stderr) = graffix(&[]);
    assert_eq!(code, Some(2));
    for cmd in [
        "generate",
        "convert",
        "info",
        "profile",
        "transform",
        "run",
        "stream",
        "bench",
        "report",
        "serve",
        "client",
    ] {
        assert!(
            stderr.contains(&format!("\n{cmd:<10}")),
            "{cmd} missing: {stderr}"
        );
    }
    assert!(stderr.contains("every subcommand also takes"));
}
