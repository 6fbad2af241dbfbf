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

/// The file a coalescing transform wrote has holes, and coalescing owns the
/// id space: feeding it back in (`transform`, `run`, alone or as part of
/// `combined`) is a configuration error naming the hole count — exit 2, not
/// the out-of-bounds panic (exit 101) it used to be — while a transform that
/// keeps the id space still takes the file.
#[test]
fn coalescing_an_already_coalesced_file_is_exit_2_not_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-coalesce-twice");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (plain, once, twice) = (path("g.gfx"), path("c.gfx"), path("x.gfx"));
    let transform = |input: &str, technique: &str, out: &str| {
        let args = ["--in", input, "--technique", technique, "--out", out];
        graffix(&[&["transform", "--no-cache"], &args[..]].concat())
    };
    let run = |input: &str, technique: &str| {
        let args = ["--in", input, "--technique", technique, "--algo", "bfs"];
        graffix(&[&["run", "--no-cache"], &args[..]].concat())
    };
    let generated = graffix(&[
        "generate", "--kind", "rmat", "--nodes", "2000", "--seed", "7", "--out", &plain,
    ]);
    assert_eq!(generated.0, Some(0), "{}", generated.2);
    let first = transform(&plain, "coalescing", &once);
    assert_eq!(first.0, Some(0), "{}", first.2);
    for technique in ["coalescing", "combined"] {
        for (code, _, stderr) in [transform(&once, technique, &twice), run(&once, technique)] {
            assert_eq!(code, Some(2), "{technique}: {stderr}");
            assert!(
                stderr.contains("invalid transform configuration")
                    && stderr.contains("node slots are holes"),
                "{technique}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{technique}: {stderr}");
        }
    }
    assert!(
        !std::path::Path::new(&twice).exists(),
        "nothing was written"
    );
    let kept = transform(&once, "divergence", &twice);
    assert_eq!(kept.0, Some(0), "{}", kept.2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traversal on a graph with no node has no source to start from: `run`
/// and `profile` say so, naming the graph, and exit 1 — they used to panic
/// (exit 101) inside the simulated run. Algorithms without a source still
/// run.
#[test]
fn a_traversal_on_an_empty_graph_is_an_error_not_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-empty-graph");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (edges, gfx) = (path("empty.txt"), path("empty.gfx"));
    std::fs::write(&edges, "").unwrap();
    let converted = graffix(&["convert", "--in", &edges, "--out", &gfx]);
    assert_eq!(converted.0, Some(0), "{}", converted.2);
    for algo in ["sssp", "bfs"] {
        for cmd in ["run", "profile"] {
            let (code, stdout, stderr) =
                graffix(&[cmd, "--in", &gfx, "--algo", algo, "--no-cache"]);
            assert_eq!(code, Some(1), "{cmd} {algo}: {stderr}");
            assert!(stdout.is_empty(), "{cmd} {algo}: {stdout}");
            assert!(
                stderr.contains(&format!(
                    "cannot run on {gfx}: {algo} needs a source node and the graph has none"
                )),
                "{cmd} {algo}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{cmd} {algo}: {stderr}");
        }
    }
    let (code, _, stderr) = graffix(&["run", "--in", &gfx, "--algo", "wcc", "--no-cache"]);
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
