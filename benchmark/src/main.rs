//! Host-clock benchmark of graffix: seven workloads, eight end-to-end
//! metrics, and a per-layer table from a traced pass. See `README.md`.
//!
//! `--workload NAME` runs one workload in this process and prints one JSON
//! object as the last line of stdout. Without it, every workload runs in a
//! fresh child process (so peak memory and cold caches are per workload)
//! and the results are printed side by side.

mod harness;
mod metrics;
mod probes;
mod suite;
mod workloads;

use harness::Cx;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 5.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: graffix-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]\n\
         workloads: {}",
        metrics::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" => args.repeat = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.repeat == 0 {
        usage();
    }
    args
}

/// `benchmark/out/` from the repository root, `out/` from the package root.
pub fn out_root() -> PathBuf {
    if PathBuf::from("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// A finite number with all its digits; JSON has no NaN.
fn number(name: &str, value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        eprintln!("metric {name} is {value}; printed as 0");
        "0".into()
    }
}

fn json_map(values: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", number(k, *v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Runs one workload here. Returns the exit code and what to print: every
/// metric by name with its unit, then the result line.
fn run_workload(name: &'static str, args: &Args) -> (i32, String) {
    use std::fmt::Write;
    let mut out = String::new();
    // Unique per run: tests run workloads on parallel threads of one process.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = out_root().join(format!("{name}-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    let mut cx = Cx::new(name, args.seed, args.seconds, args.trace, dir.clone());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cx.threads)
        .build()
        .expect("host thread pool");
    pool.install(|| workloads::run(&mut cx));
    let _ = std::fs::remove_dir_all(&dir);

    let end_to_end = cx.end_to_end();
    let mut code = 0;
    if args.trace {
        cx.trace_overhead();
        if let Err(e) = cx.fold_spans() {
            eprintln!("TRACE FAILED [{name}]: {e}");
            code = 1;
        }
        cx.layer
            .insert("bench.nproc".into(), harness::nproc() as f64);
        cx.layer.insert("bench.threads".into(), cx.threads as f64);
        let path = out_root().join(format!("trace-{name}.json"));
        std::fs::write(&path, cx.trace_json()).expect("benchmark/out is writable");
    }
    // Counts double as per-layer metrics.
    for (k, v) in cx.counts.clone() {
        cx.layer.entry(k).or_insert(v);
    }

    let why = metrics::workload(name).map_or("", |w| w.why);
    let _ = writeln!(
        out,
        "workload {name}: {why}\nseed {}  iterations {}  operations {}  threads {}/{}",
        args.seed,
        cx.iter_s.len(),
        cx.op_ms.len(),
        cx.threads,
        harness::nproc()
    );
    let mut line = |name: &str, value: f64, unit: &str, better: &str| {
        let _ = writeln!(out, "{name:<34} {value:>16.4} {unit:<6} {better} is better");
    };
    for m in metrics::END_TO_END {
        line(m.name, end_to_end[m.name], m.unit, m.better);
    }
    let failed_share = cx.failed as f64 / cx.attempted.max(1) as f64;
    line("failed_share", failed_share, "ratio", "lower");
    if args.trace {
        for m in metrics::PER_LAYER {
            if let Some(value) = cx.layer.get(m.name) {
                line(m.name, *value, m.unit, m.better);
            }
        }
    }
    let _ = writeln!(out, "checks: {} of {} failed", cx.failed, cx.attempted);
    let _ = writeln!(out, "iteration wall times, s: {:.4?}", cx.iter_s);
    let _ = writeln!(out, "operation latencies, ms: {:.1?}", cx.op_ms);
    let _ = writeln!(out, "#counts {}", json_map(&cx.counts));
    let _ = writeln!(out, "#end_to_end {}", json_map(&end_to_end));

    // The result line: end-to-end metrics untraced, per-layer ones traced
    // (0 where the workload does not exercise the layer).
    let reported: Vec<(&str, &str, f64)> = if args.trace {
        let value = |name| cx.layer.get(name).copied().unwrap_or(0.0);
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, end_to_end[m.name]))
            .collect()
    };
    let fields: Vec<String> = reported
        .into_iter()
        .map(|(name, unit, value)| {
            let value = number(name, value);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    if code == 0 {
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            cx.failed == 0,
            cx.attempted.max(1),
            cx.failed,
            fields.join(",")
        );
    }
    (code, out)
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        Some(name) => match metrics::workload(name) {
            Some(w) => {
                let (code, text) = run_workload(w.name, &args);
                print!("{text}");
                code
            }
            None => usage(),
        },
        None => suite::run(&args),
    };
    exit(code);
}

#[cfg(test)]
mod tests;
