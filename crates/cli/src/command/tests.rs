//! Table-driven tests of the parser: what every subcommand accepts, and
//! the one-line reason of everything it rejects.

use super::*;
use crate::bench::BenchMode;
use crate::client::Action;
use graffix::prelude::{Algo, Baseline, Direction, GraphKind, Technique};
use graffix_server::Bind;

fn parse_line(line: &str) -> Result<Cli, UsageError> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse(&argv)
}

fn rejected(line: &str) -> UsageError {
    match parse_line(line) {
        Ok(_) => panic!("`{line}` should be a usage error"),
        Err(e) => e,
    }
}

fn reason(line: &str) -> String {
    rejected(line).reason
}

/// Every documented flag of every subcommand (and every `bench`
/// mode), with the global flags riding along on each line.
const ACCEPTED: &[&str] = &[
    "generate --kind rmat --nodes 64 --seed 3 --out g.gfx --threads 2 --quiet",
    "generate --kind road --out g.txt --cache-dir d --no-cache",
    "convert --in a.txt --out b.gfx",
    "info g.gfx",
    "info g.gfx --segment-bytes 4096",
    "info --in g.gfx --segment-bytes 4096",
    "profile --in g.gfx",
    "profile --in g.gfx --seed 9 --algo wcc --technique latency --threshold 0.5 \
     --baseline gunrock --bc-sources 2 --accuracy off --direction auto --report-json r.json",
    "transform --in g.gfx --technique combined --out t.gfx",
    "transform --in g.gfx --technique coalescing --threshold 0.4 --out t.gfx --no-cache",
    "run --in g.gfx --algo sssp",
    "run --in g.gfx --algo mst --technique divergence --threshold 0.3 --baseline tigr \
     --direction pull --segment-bytes 1572864 --report-json r.json --values-out v.bin",
    "stream --in g.gfx --stream d.txt",
    "stream --in g.gfx --stream d.txt --algo bfs --technique latency --threshold 0.6 \
     --debt-threshold 0 --checkpoint-every 1 --oracle --out o.gfx",
    "bench --save-baseline B.txt --quiet --cache-dir d",
    "bench --gate B.txt --gate-report r.json",
    "bench --paper-tables --all --nodes 512 --seed 4 --out dir",
    "bench --paper-tables --table 1 --table 14",
    "bench --figures --figure 8 --nodes 512 --seed 4 --out dir",
    "bench --figures --all",
    "bench --stage-sweep --nodes 2000 --seed 5",
    "report verify r.json",
    "serve --graphs web=rmat:64:1",
    "serve --graphs web=rmat:64:1,f=graph.gfx --listen 127.0.0.1:0 --workers 1 \
     --engine-threads 2 --pool-capacity 1 --queue-depth 4 --segment-bytes 4096",
    "client --ping",
    "client --connect 127.0.0.1:9 --stats",
    "client --shutdown",
    "client --request {\"graph\":\"g\",\"algo\":\"bfs\"}",
    "client --raw not-json",
    "client --file reqs.txt",
];

#[test]
fn every_documented_command_line_parses() {
    for line in ACCEPTED {
        if let Err(e) = parse_line(line) {
            panic!("`{line}` rejected: {}", e.reason);
        }
    }
    // Every subcommand is covered by at least one accepted line.
    for sub in &SUBCOMMANDS {
        assert!(
            ACCEPTED
                .iter()
                .any(|l| l.split(' ').next() == Some(sub.name)),
            "{} has no accepted line",
            sub.name
        );
    }
}

#[cfg(unix)]
#[test]
fn unix_endpoints_parse() {
    for line in [
        "serve --graphs g=rmat:64:1 --unix /tmp/s",
        "client --unix /tmp/s --ping",
    ] {
        assert!(parse_line(line).is_ok(), "{line}");
    }
    assert_eq!(
        reason("client --unix /tmp/s --connect h:1 --ping"),
        "--unix and --connect are mutually exclusive"
    );
    assert_eq!(
        reason("serve --graphs g=rmat:64:1 --unix /tmp/s --listen h:1"),
        "--unix and --listen are mutually exclusive"
    );
}

#[test]
fn values_arrive_as_the_librarys_types() {
    let cli = parse_line(
        "run --in g.gfx --algo bc --technique latency --threshold 0.25 --baseline gunrock \
         --direction auto --segment-bytes 4096 --threads 3 --no-cache",
    )
    .unwrap();
    assert_eq!(cli.globals.threads, Some(3));
    assert!(!cli.globals.quiet && !cli.globals.cache.enabled);
    let Command::Run(a) = cli.command else {
        panic!("not run")
    };
    assert_eq!(a.algo, Algo::Bc);
    assert_eq!(a.technique, Technique::Latency);
    assert_eq!(a.threshold, Some(0.25));
    assert_eq!(a.baseline, Baseline::Gunrock);
    assert_eq!(a.direction, Direction::Auto);
    assert_eq!(a.segment_bytes, Some(4096));
    assert!(a.report_json.is_none() && a.values_out.is_none());

    // Defaults.
    let Command::Run(a) = parse_line("run --in g --algo pr").unwrap().command else {
        panic!("not run")
    };
    assert_eq!(
        (a.technique, a.baseline, a.direction),
        (Technique::Exact, Baseline::Lonestar, Direction::Push)
    );
    let Command::Stream(a) = parse_line("stream --in g --stream d").unwrap().command else {
        panic!("not stream")
    };
    assert_eq!((a.algo, a.checkpoint_every, a.oracle), (Algo::Pr, 0, false));
    let Command::Profile(a) = parse_line("profile --in g").unwrap().command else {
        panic!("not profile")
    };
    assert_eq!(
        (a.algo, a.seed, a.bc_sources, a.accuracy),
        (Algo::Sssp, 7, 4, true)
    );
    let Command::Generate(a) = parse_line("generate --kind twitter --out o")
        .unwrap()
        .command
    else {
        panic!("not generate")
    };
    assert_eq!(
        (a.spec.kind, a.spec.nodes, a.spec.seed),
        (GraphKind::SocialTwitter, 4096, 1)
    );
    let Command::Client(a) = parse_line("client --raw x").unwrap().command else {
        panic!("not client")
    };
    assert!(matches!(a.action, Action::Line(l) if l == "x"));
    assert!(matches!(a.endpoint, Bind::Tcp(addr) if addr == "127.0.0.1:7411"));
}

#[test]
fn bench_modes_carry_only_their_own_flags() {
    let mode = |line: &str| match parse_line(line).unwrap().command {
        Command::Bench(mode) => mode,
        _ => panic!("not bench"),
    };
    match mode("bench --save-baseline B.txt") {
        BenchMode::SaveBaseline { path } => assert_eq!(path, PathBuf::from("B.txt")),
        _ => panic!("not the save"),
    }
    match mode("bench --gate B.txt") {
        BenchMode::Gate { path, report: None } => assert_eq!(path, PathBuf::from("B.txt")),
        _ => panic!("not the gate"),
    }
    match mode("bench --paper-tables --table 3 --table 6") {
        BenchMode::PaperTables { tables, out, .. } => {
            assert_eq!(tables, vec![3, 6]);
            assert_eq!(out, PathBuf::from("results"));
        }
        _ => panic!("not paper tables"),
    }
    match mode("bench --figures") {
        BenchMode::Figures { figures, .. } => assert_eq!(figures, vec![7, 8, 9]),
        _ => panic!("not figures"),
    }
    match mode("bench --stage-sweep") {
        BenchMode::StageSweep { nodes, seed } => assert_eq!((nodes, seed), (20_000, 2020)),
        _ => panic!("not the stage sweep"),
    }
    // A flag another mode reads is not this mode's flag.
    for (line, flag) in [
        ("bench --gate B.json --nodes 5", "nodes"),
        ("bench --save-baseline B.json --repeats 3", "repeats"),
        (
            "bench --save-baseline B.json --gate-report r.json",
            "gate-report",
        ),
        ("bench --paper-tables --figure 7", "figure"),
        ("bench --stage-sweep --out dir", "out"),
        // The segment and stream gates are families of the record now,
        // and the record sets every scale: their modes and the save's
        // scale flags are unknown flags of both record modes.
        ("bench --gate B.txt --stream-gate", "stream-gate"),
        ("bench --gate B.txt --segment-gate", "segment-gate"),
        ("bench --gate B.txt --segment-bytes 65536", "segment-bytes"),
        ("bench --save-baseline B.txt --nodes 128", "nodes"),
        ("bench --save-baseline B.txt --seed 1", "seed"),
        ("bench --save-baseline B.txt --bc-sources 2", "bc-sources"),
        ("bench --save-baseline B.txt --large-nodes 0", "large-nodes"),
    ] {
        assert_eq!(
            reason(line),
            format!("unknown flag --{flag} for 'bench'"),
            "{line}"
        );
    }
    // No mode, or two: the reason lists the modes. With no mode, every
    // flag is foreign and the first is named — a retired mode (the serving
    // suite, the segment and stream gates) reads as the unknown flag it is.
    let needs = "bench needs exactly one of --save-baseline, --gate, --paper-tables, \
                 --figures, --stage-sweep";
    assert_eq!(reason("bench"), needs);
    assert_eq!(reason("bench --gate B.txt --figures"), needs);
    for (line, flag) in [
        ("bench --nodes 5", "nodes"),
        ("bench --stream-gate", "stream-gate"),
        ("bench --segment-gate --nodes 8192", "segment-gate"),
        ("bench --serve-gate S.json", "serve-gate"),
        ("bench --save-serve-baseline S.json", "save-serve-baseline"),
        ("bench --serve-iterations 2", "serve-iterations"),
    ] {
        assert_eq!(
            reason(line),
            format!("unknown flag --{flag} for 'bench': {needs}"),
            "{line}"
        );
    }
}

#[test]
fn usage_errors_carry_their_reason_and_their_own_block() {
    // An unknown flag after any valid line names itself and the
    // subcommand, above that subcommand's block only.
    for line in ACCEPTED {
        let cmd = line.split(' ').next().unwrap();
        let err = rejected(&format!("{line} --bogus"));
        assert_eq!(err.reason, format!("unknown flag --bogus for '{cmd}'"));
        assert!(err.usage.starts_with(&format!("usage: graffix {cmd}")));
        assert!(!err.usage.contains("every subcommand also takes"));
    }
    for (line, want) in [
        // The two messages `tests/integration_gate.rs` pins.
        (
            "bench --gate never-read.json --rel-tol 0.1",
            "unknown flag --rel-tol for 'bench'",
        ),
        ("bench --paper-tables --nodes abc", "bad --nodes value: abc"),
        (
            "run --in g --algo sssp --thraeds 4",
            "unknown flag --thraeds for 'run'",
        ),
        ("info g --bogus", "unknown flag --bogus for 'info'"),
        (
            "client --ping --bogus 1",
            "unknown flag --bogus for 'client'",
        ),
        (
            "serve --graphs g=rmat:64:1 --bogus",
            "unknown flag --bogus for 'serve'",
        ),
        (
            "serve --graphs g=rmat:64:1 --batch-max 2",
            "unknown flag --batch-max for 'serve'",
        ),
        // Names are checked at parse time.
        (
            "run --in /nonexistent.gfx --algo nope",
            "bad --algo value: nope",
        ),
        (
            "run --in g --algo sssp --technique nope",
            "bad --technique value: nope",
        ),
        (
            "run --in g --algo sssp --baseline cuda",
            "bad --baseline value: cuda",
        ),
        (
            "run --in g --algo sssp --direction up",
            "bad --direction value: up",
        ),
        (
            "stream --in g --stream d --algo nope",
            "bad --algo value: nope",
        ),
        (
            "profile --in g --accuracy maybe",
            "bad --accuracy value: maybe",
        ),
        ("generate --kind rmat26 --out o", "bad --kind value: rmat26"),
        (
            "transform --in g --technique nope --out o",
            "bad --technique value: nope",
        ),
        // Malformed numbers.
        (
            "generate --kind rmat --nodes many --out o",
            "bad --nodes value: many",
        ),
        (
            "run --in g --algo pr --threshold high",
            "bad --threshold value: high",
        ),
        // A threshold no knob would take, or one out of range.
        (
            "run --in g --algo pr --threshold 0.4",
            "bad --threshold value: technique exact has no primary knob to set",
        ),
        (
            "run --in g --algo pr --technique combined --threshold 0.4",
            "bad --threshold value: technique combined has no primary knob to set",
        ),
        (
            "transform --in g --technique combined --threshold 0.4 --out o",
            "bad --threshold value: technique combined has no primary knob to set",
        ),
        (
            "profile --in g --technique latency --threshold 7",
            "bad --threshold value: 7 is outside [0, 1]",
        ),
        (
            "stream --in g --stream d --technique divergence --threshold -0.1",
            "bad --threshold value: -0.1 is outside [0, 1]",
        ),
        (
            "run --in g --algo pr --threads two",
            "bad --threads value: two",
        ),
        ("bench --paper-tables --table 15", "bad --table value: 15"),
        ("bench --figures --figure 6", "bad --figure value: 6"),
        ("bench --stage-sweep --nodes x", "bad --nodes value: x"),
        (
            "serve --graphs g=rmat:64:1 --workers -1",
            "bad --workers value: -1",
        ),
        // Missing required flags and values.
        ("run --algo sssp", "missing --in"),
        ("run --in g", "missing --algo"),
        ("generate --kind rmat", "missing --out"),
        ("convert --in a", "missing --out"),
        ("transform --in g --out o", "missing --technique"),
        ("stream --in g", "missing --stream"),
        ("info", "missing --in"),
        ("run --in g --algo", "--algo needs a value"),
        ("bench --gate", "--gate needs a value"),
        ("report", "report needs: verify FILE"),
        ("report verify", "report needs: verify FILE"),
        ("report check r.json", "unknown report action: check"),
        (
            "client",
            "client needs exactly one of --request/--file/--raw/--ping/--stats/--shutdown",
        ),
        (
            "client --ping --stats",
            "client needs exactly one of --request/--file/--raw/--ping/--stats/--shutdown",
        ),
        // Duplicates are errors, not last-wins.
        (
            "run --in g --algo sssp --algo bfs",
            "--algo given more than once",
        ),
        (
            "generate --kind rmat --out a --out b",
            "--out given more than once",
        ),
        ("bench --gate a --gate b", "--gate given more than once"),
        (
            "run --in g --algo pr --quiet --quiet",
            "--quiet given more than once",
        ),
        // Stray tokens.
        ("run --in g extra --algo pr", "unexpected argument: extra"),
        ("report verify a.json b.json", "unexpected argument: b.json"),
        ("bench --figures yes", "unexpected argument: yes"),
        ("convert stray --in a --out b", "unexpected argument: stray"),
    ] {
        assert_eq!(reason(line), want, "{line}");
    }
    let err = rejected("info g --segment-bytes 3");
    assert!(err
        .reason
        .starts_with("bad --segment-bytes value: segment_bytes must be"));
    let err = rejected("serve");
    assert!(err.reason.starts_with("bad --graphs: no graphs registered"));
    for line in ["", "frobnicate --x", "--help"] {
        let err = rejected(line);
        assert!(err.usage.contains("every subcommand also takes"), "{line}");
        assert!(err.usage.contains("\nclient    ["), "{line}");
    }
}

/// `main.rs`'s header block is generated: the first line of every
/// declared usage, in declaration order. Paste the expected text the
/// failure prints when a synopsis changes.
#[test]
fn header_lists_every_subcommand_synopsis() {
    let expected: Vec<String> = SUBCOMMANDS
        .iter()
        .map(|s| {
            let first = s.usage.lines().next().unwrap();
            format!("//! graffix {:<10}{first}", s.name)
        })
        .collect();
    let expected = format!("//! ```text\n{}\n//! ```\n", expected.join("\n"));
    assert!(
        include_str!("../main.rs").contains(&expected),
        "main.rs header is stale; it should contain:\n{expected}"
    );
}
