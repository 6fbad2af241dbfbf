//! The serving bench suite: requests/second and tail latency of a live
//! in-process `graffix serve` daemon, saved and gated like the simulator
//! cells — but with deliberately **coarse** tolerances (the `p99_ms` and
//! `rps` policies in [`crate::gate`]), because serving numbers are
//! wall-clock through a real socket and vary across machines and loads.
//! The suite catches order-of-magnitude serving regressions (a lock held
//! across execution, an accidental cold path per request), not
//! percent-level jitter.
//!
//! Serialized as the `graffix.serve-baseline` v1 schema.

use crate::gate::{Cell, GateReport};
use graffix_server::{Client, GraphRegistry, ServeConfig, Server};
use graffix_sim::Json;
use std::time::Instant;

/// Schema identifier for serving baseline files.
pub const SERVE_SCHEMA: &str = "graffix.serve-baseline";
/// Serving baseline schema version.
pub const SERVE_VERSION: u64 = 1;

/// One measured serving scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeCell {
    /// Stable scenario id (`hot-pool/bfs`, `eviction-churn/bfs`, ...).
    pub id: String,
    /// Requests measured (after warmup).
    pub requests: u64,
    /// Throughput over the measured window.
    pub rps: f64,
    /// Median round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile round-trip latency, milliseconds.
    pub p99_ms: f64,
}

/// A committed serving baseline: the scenario cells plus the iteration
/// scale they were measured at.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBaseline {
    pub iterations: u64,
    pub cells: Vec<ServeCell>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// One scenario: a server shape plus a deterministic request script.
struct Scenario {
    id: &'static str,
    graphs: &'static str,
    workers: usize,
    pool_capacity: usize,
    /// Request lines, cycled until the per-scenario request budget is met.
    script: Vec<String>,
}

fn scenarios() -> Vec<Scenario> {
    let run = |graph: &str, algo: &str, extra: &str| {
        if extra.is_empty() {
            format!("{{\"graph\":\"{graph}\",\"algo\":\"{algo}\"}}")
        } else {
            format!("{{\"graph\":\"{graph}\",\"algo\":\"{algo}\",{extra}}}")
        }
    };
    vec![
        // Hot pool, one frontier algorithm: the pure dispatch + run path.
        Scenario {
            id: "hot-pool/bfs",
            graphs: "a=rmat:2000:3",
            workers: 2,
            pool_capacity: 4,
            script: vec![run("a", "bfs", "")],
        },
        // Mixed algorithms over two graphs: pool hits with varied work.
        Scenario {
            id: "mixed/two-graphs",
            graphs: "a=rmat:2000:3,b=road:2000:5",
            workers: 2,
            pool_capacity: 4,
            script: vec![
                run("a", "bfs", ""),
                run("b", "sssp", ""),
                run("a", "pr", ""),
                run("b", "bfs", "\"source\":9"),
            ],
        },
        // Capacity 1 over two graphs: every request churns an eviction and
        // a reload — the pool's worst case.
        Scenario {
            id: "eviction-churn/bfs",
            graphs: "a=rmat:1200:3,b=rmat:1200:7",
            workers: 1,
            pool_capacity: 1,
            script: vec![run("a", "bfs", ""), run("b", "bfs", "")],
        },
        // Identical-key SSSP burst: exercises dequeue batching and
        // duplicate-source fusion.
        Scenario {
            id: "batch-fusion/sssp",
            graphs: "a=rmat:2000:3",
            workers: 1,
            pool_capacity: 2,
            script: vec![
                run("a", "sssp", "\"source\":1"),
                run("a", "sssp", "\"source\":1"),
                run("a", "sssp", "\"source\":2"),
                run("a", "sssp", "\"source\":3"),
            ],
        },
    ]
}

/// Runs one scenario against a fresh in-process server and measures
/// `budget` sequential round trips (after `warmup` untimed ones).
fn measure_scenario(s: &Scenario, budget: usize, warmup: usize) -> ServeCell {
    let mut config = ServeConfig::local(GraphRegistry::parse_list(s.graphs).unwrap());
    config.workers = s.workers;
    config.pool_capacity = s.pool_capacity;
    let server = Server::start(config).expect("bench server starts");
    let addr = server.local_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).expect("bench client connects");

    let line_at = |i: usize| s.script[i % s.script.len()].as_str();
    for i in 0..warmup {
        let resp = client.call_line(line_at(i)).expect("warmup round trip");
        assert!(
            resp.contains("\"ok\":true"),
            "bench scenario {} got an error: {resp}",
            s.id
        );
    }

    let mut latencies_ms = Vec::with_capacity(budget);
    let window = Instant::now();
    for i in 0..budget {
        let t = Instant::now();
        let resp = client.call_line(line_at(i)).expect("measured round trip");
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        debug_assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    let total = window.elapsed().as_secs_f64();

    client.shutdown().expect("bench shutdown");
    server.join();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ServeCell {
        id: s.id.to_string(),
        requests: budget as u64,
        rps: budget as f64 / total.max(1e-9),
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

/// Measures every scenario. `iterations` scales the per-scenario request
/// budget (CI uses 1; larger values tighten the percentile estimates).
pub fn measure_serving(iterations: u64) -> Vec<ServeCell> {
    let iterations = iterations.max(1);
    let budget = 30 * iterations as usize;
    scenarios()
        .iter()
        .map(|s| measure_scenario(s, budget, 3))
        .collect()
}

impl ServeBaseline {
    /// Measures a fresh baseline at the given iteration scale.
    pub fn capture(iterations: u64) -> ServeBaseline {
        ServeBaseline {
            iterations: iterations.max(1),
            cells: measure_serving(iterations),
        }
    }

    /// Serializes the `graffix.serve-baseline` document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str(SERVE_SCHEMA.to_string()));
        root.set("version", Json::U64(SERVE_VERSION));
        root.set("iterations", Json::U64(self.iterations));
        root.set(
            "cells",
            Json::Arr(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut o = Json::obj();
                        o.set("id", Json::Str(c.id.clone()));
                        o.set("requests", Json::U64(c.requests));
                        o.set("rps", Json::F64(c.rps));
                        o.set("p50_ms", Json::F64(c.p50_ms));
                        o.set("p99_ms", Json::F64(c.p99_ms));
                        o
                    })
                    .collect(),
            ),
        );
        root
    }

    /// The serialized document (pretty JSON, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// What the gate judges: `p99_ms` and `rps` per scenario.
    pub fn gate_cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for c in &self.cells {
            let note = format!("{} requests, p50 {:.3}ms", c.requests, c.p50_ms);
            out.push(Cell {
                note: note.clone(),
                ..Cell::new(c.id.as_str(), "p99_ms", c.p99_ms)
            });
            out.push(Cell {
                note,
                ..Cell::new(c.id.as_str(), "rps", c.rps)
            });
        }
        out
    }

    /// Parses a serialized baseline, validating schema and version.
    pub fn parse(text: &str) -> Result<ServeBaseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SERVE_SCHEMA) {
            return Err(format!("not a {SERVE_SCHEMA} document"));
        }
        if doc.get("version").and_then(Json::as_u64) != Some(SERVE_VERSION) {
            return Err(format!("unsupported {SERVE_SCHEMA} version"));
        }
        let iterations = doc
            .get("iterations")
            .and_then(Json::as_u64)
            .ok_or("missing iterations")?;
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells")?
            .iter()
            .map(|c| {
                Ok(ServeCell {
                    id: c
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or("cell missing id")?
                        .to_string(),
                    requests: c
                        .get("requests")
                        .and_then(Json::as_u64)
                        .ok_or("cell missing requests")?,
                    rps: c
                        .get("rps")
                        .and_then(Json::as_f64)
                        .ok_or("cell missing rps")?,
                    p50_ms: c
                        .get("p50_ms")
                        .and_then(Json::as_f64)
                        .ok_or("cell missing p50_ms")?,
                    p99_ms: c
                        .get("p99_ms")
                        .and_then(Json::as_f64)
                        .ok_or("cell missing p99_ms")?,
                })
            })
            .collect::<Result<Vec<_>, &'static str>>()
            .map_err(str::to_string)?;
        Ok(ServeBaseline { iterations, cells })
    }
}

/// Re-measures the scenarios at the baseline's iteration scale and gates.
pub fn run_serve_gate(baseline: &ServeBaseline) -> GateReport {
    let current = ServeBaseline::capture(baseline.iterations);
    GateReport::evaluate("serve", &baseline.gate_cells(), &current.gate_cells())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_baseline() -> ServeBaseline {
        ServeBaseline {
            iterations: 1,
            cells: vec![
                ServeCell {
                    id: "hot-pool/bfs".to_string(),
                    requests: 30,
                    rps: 500.0,
                    p50_ms: 1.5,
                    p99_ms: 4.0,
                },
                ServeCell {
                    id: "eviction-churn/bfs".to_string(),
                    requests: 30,
                    rps: 120.0,
                    p50_ms: 7.0,
                    p99_ms: 15.0,
                },
            ],
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = fake_baseline();
        let back = ServeBaseline::parse(&b.to_pretty_string()).unwrap();
        assert_eq!(b, back);
        assert!(ServeBaseline::parse("{}").is_err());
        assert!(ServeBaseline::parse("{\"schema\":\"wrong\"}").is_err());
    }

    /// The band arithmetic is pinned row by row in `gate::tests`; this
    /// pins the cells the suite hands over: a scenario's collapse must
    /// surface as a failure naming that scenario and metric.
    #[test]
    fn gate_judges_with_coarse_bands() {
        let b = fake_baseline();
        let base = b.gate_cells();
        assert_eq!(base.len(), 2 * b.cells.len());
        assert!(GateReport::evaluate("serve", &base, &base).passed());

        let mut cur = b.clone();
        cur.cells[0].p99_ms *= 2.0; // inside the coarse band
        cur.cells[1].rps = 30.0; // 120 -> 30: collapse
        let report = GateReport::evaluate("serve", &base, &cur.gate_cells());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].id, "eviction-churn/bfs");
        assert_eq!(failures[0].status.label(), "throughput-regression");

        // A dropped scenario goes missing on both of its metrics.
        cur.cells.truncate(1);
        let report = GateReport::evaluate("serve", &base, &cur.gate_cells());
        assert_eq!(report.failures().len(), 2);
    }

    #[test]
    fn live_scenarios_measure() {
        // Tiny budget sanity pass over the real scenarios: every cell
        // reports positive throughput and ordered percentiles.
        for s in scenarios() {
            let cell = measure_scenario(&s, 6, 1);
            assert!(cell.rps > 0.0, "{}", cell.id);
            assert!(cell.p50_ms <= cell.p99_ms, "{}", cell.id);
        }
    }
}
