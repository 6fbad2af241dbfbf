//! Builders for every table and figure of the paper.

use crate::experiments::{algos_of, measure, measure_prepared, CORE_ALGOS};
use crate::suite::Suite;
use crate::tables::{fmt_inaccuracy, fmt_seconds, fmt_speedup, TextTable};
use graffix_algos::accuracy::geomean;
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

/// Arithmetic mean; 0 for an empty slice. The paper averages inaccuracy
/// this way, and a cell of zero error counts as zero.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Tables 6–14: one transform against one baseline — speedup and
/// inaccuracy per (algorithm, graph), with an average row: the geometric
/// mean of the speedups and the arithmetic mean of the inaccuracies.
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
            inaccuracies.push(m.inaccuracy);
            t.row(vec![
                algo.name().to_uppercase(),
                suite.kind(gi).paper_name().into(),
                fmt_speedup(m.speedup),
                fmt_inaccuracy(m.inaccuracy),
            ]);
        }
    }
    t.row(vec![
        "Average".into(),
        "-".into(),
        fmt_speedup(geomean(&speedups)),
        fmt_inaccuracy(mean(&inaccuracies)),
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
/// behaviour), averaged over SSSP/PR/BC against Baseline-I like the
/// tables (geometric mean of speedups, arithmetic mean of inaccuracies),
/// over the threshold range the paper's figure spans.
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
            errs.push(m.inaccuracy);
        }
        let p = SweepPoint {
            threshold: thr,
            speedup: geomean(&speeds),
            inaccuracy: mean(&errs),
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
