//! The whole suite: every workload in a fresh child process, an optional
//! traced pass, and `--repeat 2`, which runs the untraced suite twice and
//! holds the two against the benchmark's own bounds.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{out_root, Args};
use graffix::prelude::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What one child printed.
struct Outcome {
    end_to_end: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
    /// The `metrics` of the result line (per-layer values in a traced pass).
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

type Pass = BTreeMap<&'static str, Outcome>;

fn number_map(doc: &Json) -> BTreeMap<String, f64> {
    doc.as_obj()
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| {
                    let value = v
                        .as_f64()
                        .or_else(|| v.get("value").and_then(Json::as_f64))?;
                    Some((k.clone(), value))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Runs one workload as a child of this executable and parses its output.
fn child(workload: &str, args: &Args, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}\n{stdout}",
            output.status
        ));
    }
    let tagged = |tag: &str| -> BTreeMap<String, f64> {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(tag))
            .and_then(|json| Json::parse(json.trim()).ok())
            .map(|doc| number_map(&doc))
            .unwrap_or_default()
    };
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok(Outcome {
        end_to_end: tagged("#end_to_end"),
        counts: tagged("#counts"),
        metrics: result.get("metrics").map(number_map).unwrap_or_default(),
        attempted: field("attempted"),
        failed: field("failed"),
    })
}

fn pass(args: &Args, trace: bool) -> Result<Pass, String> {
    let mut outcomes = Pass::new();
    for w in WORKLOADS {
        eprintln!("[{}{}]", w.name, if trace { ", traced" } else { "" });
        outcomes.insert(w.name, child(w.name, args, trace)?);
    }
    Ok(outcomes)
}

fn print_table(title: &str, names: &[&str], column: impl Fn(&str, &str) -> Option<f64>) {
    println!("\n{title}");
    print!("{:<32}", "");
    for w in WORKLOADS {
        print!(" {:>15}", w.name);
    }
    println!();
    for name in names {
        print!("{name:<32}");
        for w in WORKLOADS {
            match column(w.name, name) {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    let delta = if better == "lower" {
        second - first
    } else {
        first - second
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn run(args: &Args) -> i32 {
    match run_passes(args) {
        Ok(problems) => {
            for p in &problems {
                println!("PROBLEM: {p}");
            }
            i32::from(!problems.is_empty())
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Runs the passes and prints the tables. `Ok` lists what disagreed; `Err`
/// is a workload that did not finish.
fn run_passes(args: &Args) -> Result<Vec<String>, String> {
    let mut problems: Vec<String> = Vec::new();
    let passes = (0..args.repeat)
        .map(|_| pass(args, false))
        .collect::<Result<Vec<Pass>, String>>()?;
    let traced = args.trace.then(|| pass(args, true)).transpose()?;

    let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for (i, p) in passes.iter().enumerate() {
        print_table(
            &format!("end-to-end, untraced pass {} (seed {})", i + 1, args.seed),
            &e2e_names,
            |w, m| p[w].end_to_end.get(m).copied(),
        );
        print!("{:<32}", "failed / attempted checks");
        for w in WORKLOADS {
            let o = &p[w.name];
            print!(" {:>15}", format!("{}/{}", o.failed, o.attempted));
            if o.failed > 0 {
                problems.push(format!(
                    "{}: {} of {} checks failed",
                    w.name, o.failed, o.attempted
                ));
            }
        }
        println!();
    }

    // Segment-major execution must return the flat values.
    let first = &passes[0];
    for algo in ["bfs", "sssp"] {
        let key = format!("digest.{algo}");
        if first["run_flat"].counts.get(&key) != first["run_segmented"].counts.get(&key) {
            problems.push(format!(
                "run_segmented {algo} values differ from run_flat's"
            ));
        }
    }

    if let Some(t) = &traced {
        let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        print_table(
            "per-layer, traced pass (0 = layer not exercised)",
            &layer_names,
            |w, m| t[w].metrics.get(m).copied(),
        );
        print_table("wall_s, traced pass", &["wall_s"], |w, m| {
            t[w].end_to_end.get(m).copied()
        });
        for w in WORKLOADS {
            if t[w.name].counts != first[w.name].counts {
                problems.push(format!(
                    "{}: counts differ between the traced and untraced pass",
                    w.name
                ));
            }
            if t[w.name].failed > 0 {
                problems.push(format!(
                    "{}: {} checks failed in the traced pass",
                    w.name, t[w.name].failed
                ));
            }
        }
    }

    if passes.len() >= 2 {
        println!("\nagreement of untraced passes 1 and 2 (worse by, as a share of pass 1; bound)");
        for w in WORKLOADS {
            let (a, b) = (&passes[0][w.name], &passes[1][w.name]);
            for m in END_TO_END {
                let (x, y) = (a.end_to_end[m.name], b.end_to_end[m.name]);
                let worse = worse_by(m.better, x, y);
                let ok = worse <= m.bound;
                println!(
                    "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.2} %  bound {:>5.1} %  {}",
                    w.name,
                    m.name,
                    x,
                    y,
                    worse * 100.0,
                    m.bound * 100.0,
                    if ok { "ok" } else { "EXCEEDED" }
                );
                if !ok {
                    problems.push(format!(
                        "{} {}: pass 2 worse by {:.1} %",
                        w.name,
                        m.name,
                        worse * 100.0
                    ));
                }
            }
            if a.counts != b.counts {
                problems.push(format!("{}: counts differ between the two passes", w.name));
            }
        }
    }

    // Provenance of the numbers above.
    let mut record = Json::obj();
    record.set(
        "commit",
        Json::Str(tool_version("git", &["rev-parse", "HEAD"])),
    );
    record.set("rustc", Json::Str(tool_version("rustc", &["-V"])));
    record.set("nproc", Json::U64(crate::harness::nproc() as u64));
    record.set("threads", Json::U64(crate::harness::host_threads() as u64));
    record.set("seed", Json::U64(args.seed));
    record.set("seconds", Json::F64(args.seconds));
    let mut results = Json::obj();
    for w in WORKLOADS {
        let mut o = Json::obj();
        for (k, v) in &first[w.name].end_to_end {
            o.set(k, Json::F64(*v));
        }
        if let Some(t) = &traced {
            for (k, v) in &t[w.name].metrics {
                o.set(k, Json::F64(*v));
            }
        }
        results.set(w.name, o);
    }
    record.set("results", results);
    let path = out_root().join("results.json");
    match std::fs::write(&path, record.to_pretty_string()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
    }

    Ok(problems)
}
