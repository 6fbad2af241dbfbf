//! Builders for every table and figure of the paper.

use crate::experiments::{algos_of, measure, measure_prepared, CORE_ALGOS};
use crate::suite::Suite;
use crate::tables::{fmt_inaccuracy, fmt_seconds, fmt_speedup, TextTable};
use graffix_algos::accuracy::geomean;
use graffix_algos::Algo;
use graffix_baselines::Baseline;
use graffix_core::Technique;
use graffix_graph::properties;

/// Table 1: the input-graph suite.
pub fn table1(suite: &Suite) -> TextTable {
    let mut t = TextTable::new(
        "Table 1: Input graphs (scaled; see DESIGN.md substitutions)",
        &[
            "Graph",
            "|V|",
            "|E|",
            "Graph type",
            "Max deg",
            "Avg CC",
            "Diam est",
        ],
    );
    for (kind, g) in &suite.graphs {
        let s = properties::summarize(g, suite.options.seed);
        let family = match kind {
            graffix_graph::GraphKind::Rmat => "R-MAT (GTgraph model)",
            graffix_graph::GraphKind::Random => "Random graph (GTgraph model)",
            graffix_graph::GraphKind::SocialLiveJournal => "Social network, small diameter",
            graffix_graph::GraphKind::Road => "Road network, large diameter",
            graffix_graph::GraphKind::SocialTwitter => "Social network (dense, skewed)",
        };
        t.row(vec![
            kind.paper_name().into(),
            s.nodes.to_string(),
            s.edges.to_string(),
            family.into(),
            s.max_degree.to_string(),
            format!("{:.3}", s.avg_clustering),
            s.diameter_estimate.to_string(),
        ]);
    }
    t
}

/// Tables 2–4: exact execution times under each baseline.
pub fn exact_times(suite: &Suite, baseline: Baseline, table_no: usize) -> TextTable {
    let algos = algos_of(baseline);
    let labels: Vec<String> = algos.iter().map(|a| a.name().to_uppercase()).collect();
    let mut headers: Vec<&str> = vec!["Graph"];
    headers.extend(labels.iter().map(String::as_str));
    let mut t = TextTable::new(
        format!(
            "Table {table_no}: {} — exact execution time (simulated sec)",
            baseline.label()
        ),
        &headers,
    );
    for gi in 0..suite.len() {
        let prepared = suite.prepared(gi, Technique::Exact);
        let plan = baseline.plan(&prepared, &suite.cfg);
        let mut row = vec![suite.kind(gi).paper_name().to_string()];
        for &algo in algos {
            let (run, _) = algo.run(&plan, suite.graph(gi), None, suite.options.bc_sources);
            row.push(fmt_seconds(run.stats.elapsed_seconds(&suite.cfg)));
        }
        t.row(row);
    }
    t
}

/// Table 5: preprocessing overhead (time + additional space) per technique.
pub fn table5(suite: &Suite) -> TextTable {
    let mut t = TextTable::new(
        "Table 5: Preprocessing overhead",
        &["Technique", "Graph", "Time (sec)", "Additional space"],
    );
    for technique in [
        Technique::Coalescing,
        Technique::Latency,
        Technique::Divergence,
    ] {
        for gi in 0..suite.len() {
            let p = suite.prepared(gi, technique);
            t.row(vec![
                technique.label().into(),
                suite.kind(gi).paper_name().into(),
                format!("{:.3}", p.report.preprocess_seconds),
                format!("{:.1}%", p.report.space_overhead * 100.0),
            ]);
        }
    }
    t
}

/// Tables 6–14: one transform against one baseline — speedup and
/// inaccuracy per (algorithm, graph), with the geomean row.
pub fn technique_vs_baseline(
    suite: &Suite,
    technique: Technique,
    baseline: Baseline,
    table_no: usize,
) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Table {table_no}: Effect of {} — approximate Graffix vs exact {}",
            technique.label(),
            baseline.label()
        ),
        &["Algo", "Graph", "Speedup", "Inaccuracy"],
    );
    let mut speedups = Vec::new();
    let mut inaccuracies = Vec::new();
    for &algo in algos_of(baseline) {
        for gi in 0..suite.len() {
            let m = measure(suite, gi, technique, baseline, algo);
            speedups.push(m.speedup);
            inaccuracies.push(m.inaccuracy.max(1e-6));
            t.row(vec![
                algo.name().to_uppercase(),
                suite.kind(gi).paper_name().into(),
                fmt_speedup(m.speedup),
                fmt_inaccuracy(m.inaccuracy),
            ]);
        }
    }
    t.row(vec![
        "Geomean".into(),
        "-".into(),
        fmt_speedup(geomean(&speedups)),
        fmt_inaccuracy(geomean(&inaccuracies)),
    ]);
    t
}

/// Table `n` of the paper's evaluation (1..=14).
pub fn paper_table(suite: &Suite, n: usize) -> TextTable {
    const TECHNIQUES: [Technique; 3] = [
        Technique::Coalescing,
        Technique::Latency,
        Technique::Divergence,
    ];
    match n {
        1 => table1(suite),
        2..=4 => exact_times(suite, graffix_baselines::ALL_BASELINES[n - 2], n),
        5 => table5(suite),
        6..=14 => technique_vs_baseline(
            suite,
            TECHNIQUES[(n - 6) % 3],
            graffix_baselines::ALL_BASELINES[(n - 6) / 3],
            n,
        ),
        _ => panic!("tables run 1..=14"),
    }
}

/// A figure sweep point.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub threshold: f64,
    pub speedup: f64,
    pub inaccuracy: f64,
}

/// Figures 7–9: knob sweeps on the rmat graph (the paper plots rmat-style
/// behaviour), geomean over SSSP/PR/BC against Baseline-I, over the
/// threshold range the paper's figure spans.
pub fn figure_sweep(suite: &Suite, figure: usize) -> (TextTable, Vec<SweepPoint>) {
    let gi = 0; // rmat
    let (name, technique, thresholds): (&str, Technique, Vec<f64>) = match figure {
        7 => (
            "Figure 7: connectedness threshold (node replication)",
            Technique::Coalescing,
            (1..=9).map(|i| i as f64 / 10.0).collect(),
        ),
        8 => (
            "Figure 8: clustering-coefficient threshold",
            Technique::Latency,
            vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
        ),
        9 => (
            "Figure 9: degreeSim threshold (degree normalization)",
            Technique::Divergence,
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        ),
        _ => panic!("figures are 7, 8, 9"),
    };
    let mut t = TextTable::new(name, &["Threshold", "Speedup", "Inaccuracy"]);
    let exact = suite.prepared(gi, Technique::Exact);
    let mut points = Vec::new();
    for thr in thresholds {
        let approx = suite.prepared_with(gi, technique, thr);
        let mut speeds = Vec::new();
        let mut errs = Vec::new();
        for algo in CORE_ALGOS {
            let m = measure_prepared(suite, gi, &exact, &approx, Baseline::Lonestar, algo);
            speeds.push(m.speedup);
            errs.push(m.inaccuracy.max(1e-6));
        }
        let p = SweepPoint {
            threshold: thr,
            speedup: geomean(&speeds),
            inaccuracy: geomean(&errs),
        };
        points.push(p);
        t.row(vec![
            format!("{thr:.2}"),
            fmt_speedup(p.speedup),
            fmt_inaccuracy(p.inaccuracy),
        ]);
    }
    (t, points)
}

/// ASCII dual-series plot of a figure sweep: speedup as `*`, inaccuracy
/// as `o`.
pub fn ascii_plot(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let max_speed = points.iter().map(|p| p.speedup).fold(1.0f64, f64::max);
    let max_err = points.iter().map(|p| p.inaccuracy).fold(1e-6f64, f64::max);
    out.push_str("  thr   speedup (*)                inaccuracy (o)\n");
    for p in points {
        let sw = ((p.speedup / max_speed) * 24.0).round() as usize;
        let ew = ((p.inaccuracy / max_err) * 24.0).round() as usize;
        out.push_str(&format!(
            "  {:>4.2}  {:<26} {:<26}\n",
            p.threshold,
            format!("{}{:.2}x", "*".repeat(sw.max(1)), p.speedup),
            format!("{}{:.1}%", "o".repeat(ew.max(1)), p.inaccuracy * 100.0),
        ));
    }
    out
}

/// Consistency helper for tests and EXPERIMENTS.md: recompute the geomean
/// speedup of a technique over Baseline-I across all five algorithms.
pub fn geomean_speedup(suite: &Suite, technique: Technique, baseline: Baseline) -> f64 {
    let mut speeds = Vec::new();
    for &algo in algos_of(baseline) {
        for gi in 0..suite.len() {
            speeds.push(measure(suite, gi, technique, baseline, algo).speedup);
        }
    }
    geomean(&speeds)
}

/// One bench cell as a schema-versioned [`graffix_sim::RunReport`] — the
/// exact JSON `graffix profile` and `--report-json` emit, so downstream
/// tooling parses bench output and CLI output identically.
pub fn cell_run_report(
    suite: &Suite,
    gi: usize,
    technique: Technique,
    baseline: Baseline,
    algo: Algo,
) -> graffix_sim::RunReport {
    let prepared = suite.prepared(gi, technique);
    graffix::observe::traced_run(
        "bench",
        algo,
        suite.graph(gi),
        &prepared,
        baseline,
        &suite.cfg,
        suite.options.bc_sources,
    )
    .report
}

/// A whole-suite JSON document for one (technique, baseline): an array of
/// run reports, one per (algorithm, graph) cell, each tagged with the
/// graph's paper name. Serialized via the run-report schema.
pub fn suite_reports_json(suite: &Suite, technique: Technique, baseline: Baseline) -> String {
    use graffix_sim::Json;
    let mut cells = Vec::new();
    for &algo in algos_of(baseline) {
        for gi in 0..suite.len() {
            let report = cell_run_report(suite, gi, technique, baseline, algo);
            let mut cell = Json::obj();
            cell.set("graph", Json::Str(suite.kind(gi).paper_name().to_string()));
            cell.set("report", report.to_json());
            cells.push(cell);
        }
    }
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("graffix.bench-report".to_string()));
    doc.set("version", Json::U64(graffix_sim::SCHEMA_VERSION));
    doc.set("technique", Json::Str(technique.label().to_string()));
    doc.set("baseline", Json::Str(baseline.label().to_string()));
    doc.set("cells", Json::Arr(cells));
    doc.to_pretty_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOptions;
    use graffix_sim::Json;

    fn tiny() -> Suite {
        Suite::new(SuiteOptions {
            nodes: 250,
            seed: 3,
            bc_sources: 2,
        })
    }

    #[test]
    fn cell_reports_use_the_run_report_schema() {
        let s = tiny();
        let r = cell_run_report(&s, 0, Technique::Coalescing, Baseline::Lonestar, Algo::Pr);
        r.verify().unwrap();
        assert_eq!(r.command, "bench");
        assert_eq!(r.algo, "pr");
        assert_eq!(r.technique, "improving coalescing");
        let doc = Json::parse(&r.to_pretty_string()).unwrap();
        assert_eq!(
            doc.path(&["schema"]).unwrap().as_str(),
            Some(graffix_sim::SCHEMA_NAME)
        );
    }

    #[test]
    fn suite_reports_json_collects_one_cell_per_algo_graph_pair() {
        let s = tiny();
        let text = suite_reports_json(&s, Technique::Exact, Baseline::Tigr);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.path(&["schema"]).unwrap().as_str(),
            Some("graffix.bench-report")
        );
        let cells = doc.path(&["cells"]).unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), CORE_ALGOS.len() * s.len());
        for cell in cells {
            assert_eq!(
                cell.path(&["report", "schema"]).unwrap().as_str(),
                Some(graffix_sim::SCHEMA_NAME)
            );
            assert!(
                cell.path(&["report", "totals", "warp_cycles"])
                    .unwrap()
                    .as_u64()
                    .unwrap()
                    > 0
            );
        }
    }
}
