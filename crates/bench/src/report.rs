//! The paper's tables and figures, rendered from the `paper/` rows of a
//! bench record ([`crate::baseline`]). Nothing here simulates: every
//! number is read back from a row, so what `bench --paper-tables` and
//! `bench --figures` print is what the record pins, and a row the record
//! lacks is an error naming it.

use crate::baseline::{algos_of, graph_id, paper_id, sweep_key, BenchRecord, CORE_ALGOS, FIGURES};
use crate::tables::{fmt_inaccuracy, fmt_seconds, fmt_speedup, TextTable};
use graffix_algos::accuracy::geomean;
use graffix_algos::{Algo, Direction};
use graffix_baselines::{Baseline, ALL_BASELINES};
use graffix_core::Technique;
use graffix_graph::generators::{GraphKind, PAPER_KINDS};
use graffix_sim::GpuConfig;
use std::collections::HashMap;
use std::str::FromStr;

/// One rendered table or figure: the stem of its CSV, the table, and the
/// ASCII plot a figure prints under it (empty for a table).
pub struct Rendered {
    pub stem: String,
    pub table: TextTable,
    pub plot: String,
}

impl Rendered {
    /// What `bench` prints for it: the table, then the plot, each
    /// followed by a blank line.
    pub fn text(&self) -> String {
        let mut text = format!("{}\n", self.table.render());
        if !self.plot.is_empty() {
            text.push_str(&self.plot);
            text.push('\n');
        }
        text
    }
}

/// The techniques of Tables 6–14, in table order under each baseline.
const TECHNIQUES: [Technique; 3] = [
    Technique::Coalescing,
    Technique::Latency,
    Technique::Divergence,
];

/// The paper's average row of Tables 6–14: speedup, and the inaccuracy
/// where the paper quotes one (Tables 6–8).
#[rustfmt::skip]
const PAPER_AVERAGES: [(f64, Option<f64>); 9] = [
    (1.16, Some(0.10)), (1.20, Some(0.127)), (1.07, Some(0.082)),
    (1.10, None), (1.19, None), (1.03, None),
    (1.14, None), (1.19, None), (1.07, None),
];

/// A record's values by (row id, key).
struct Rows<'a>(HashMap<(&'a str, &'a str), &'a str>);

impl<'a> Rows<'a> {
    fn of(record: &'a BenchRecord) -> Rows<'a> {
        let cells = record.family(crate::baseline::PAPER);
        Rows(cells.map(|c| ((&*c.id, &*c.metric), &*c.value)).collect())
    }

    /// The value of `key` in row `id`, parsed.
    fn value<T: FromStr>(&self, id: &str, key: &str) -> Result<T, String> {
        let text = self
            .0
            .get(&(id, key))
            .ok_or_else(|| format!("the record lacks `{key}` of row `{id}`"))?;
        text.parse()
            .map_err(|_| format!("row `{id}`: `{key}={text}` is not a number"))
    }

    /// Speedup of the push run of `algo` under `technique` over the exact
    /// one under the same baseline, and the `technique` run's inaccuracy.
    fn cell(
        &self,
        graph: GraphKind,
        technique: &str,
        baseline: Baseline,
        algo: Algo,
    ) -> Result<(f64, f64), String> {
        let id = |technique| paper_id(graph, technique, baseline, algo, Direction::Push);
        let (exact, approx) = (id(Technique::Exact.key()), id(technique));
        let cycles = |id| self.value::<u64>(id, "cycles").map(|c| c.max(1) as f64);
        let speedup = cycles(&exact)? / cycles(&approx)?;
        Ok((speedup, self.value(&approx, "inaccuracy")?))
    }
}

/// Arithmetic mean; 0 for an empty slice. The paper averages inaccuracy
/// this way, and a cell of zero error counts as zero.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Table 1: the input-graph suite.
fn table1(rows: &Rows) -> Result<TextTable, String> {
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
    for kind in PAPER_KINDS {
        let id = graph_id(kind);
        let count = |key| rows.value::<usize>(&id, key).map(|v| v.to_string());
        let family = match kind {
            GraphKind::Rmat => "R-MAT (GTgraph model)",
            GraphKind::Random => "Random graph (GTgraph model)",
            GraphKind::SocialLiveJournal => "Social network, small diameter",
            GraphKind::Road => "Road network, large diameter",
            GraphKind::SocialTwitter => "Social network (dense, skewed)",
        };
        t.row(vec![
            kind.paper_name().into(),
            count("nodes")?,
            count("arcs")?,
            family.into(),
            count("max_degree")?,
            format!("{:.3}", rows.value::<f64>(&id, "avg_cc")?),
            count("diameter")?,
        ]);
    }
    Ok(t)
}

/// Tables 2–4: exact execution times under each baseline.
fn exact_times(rows: &Rows, baseline: Baseline, table_no: usize) -> Result<TextTable, String> {
    let cfg = GpuConfig::k40c();
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
    for kind in PAPER_KINDS {
        let mut row = vec![kind.paper_name().to_string()];
        for &algo in algos {
            let id = paper_id(
                kind,
                Technique::Exact.key(),
                baseline,
                algo,
                Direction::Push,
            );
            row.push(fmt_seconds(
                cfg.cycles_to_seconds(rows.value(&id, "cycles")?),
            ));
        }
        t.row(row);
    }
    Ok(t)
}

/// Tables 6–14: one transform against one baseline — speedup and
/// inaccuracy per (algorithm, graph), with an average row: the geometric
/// mean of the speedups and the arithmetic mean of the inaccuracies,
/// which are returned beside the table.
fn technique_vs_baseline(
    rows: &Rows,
    technique: Technique,
    baseline: Baseline,
    table_no: usize,
) -> Result<(TextTable, [f64; 2]), String> {
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
        for kind in PAPER_KINDS {
            let (speedup, inaccuracy) = rows.cell(kind, technique.key(), baseline, algo)?;
            speedups.push(speedup);
            inaccuracies.push(inaccuracy);
            t.row(vec![
                algo.name().to_uppercase(),
                kind.paper_name().into(),
                fmt_speedup(speedup),
                fmt_inaccuracy(inaccuracy),
            ]);
        }
    }
    let average = [geomean(&speedups), mean(&inaccuracies)];
    t.row(vec![
        "Average".into(),
        "-".into(),
        fmt_speedup(average[0]),
        fmt_inaccuracy(average[1]),
    ]);
    Ok((t, average))
}

/// Tables 1–4 and 6–14 of the paper from `record`'s rows, then one
/// summary table that puts the paper's average row of each of Tables 6–14
/// beside the measured one. Table 5 is host time, which the record does
/// not hold. Fails naming the first row the record lacks.
pub fn paper_tables(record: &BenchRecord) -> Result<Vec<Rendered>, String> {
    let rows = Rows::of(record);
    let table = |n: usize, table| Rendered {
        stem: format!("table{n:02}"),
        table,
        plot: String::new(),
    };
    let mut out = vec![table(1, table1(&rows)?)];
    for (n, baseline) in (2..).zip(ALL_BASELINES) {
        out.push(table(n, exact_times(&rows, baseline, n)?));
    }
    let mut summary = TextTable::new(
        "Summary: average rows of Tables 6–14, paper vs measured",
        &[
            "Table",
            "Technique",
            "Baseline",
            "Paper speedup",
            "Measured speedup",
            "Paper inaccuracy",
            "Measured inaccuracy",
        ],
    );
    for (n, (paper_speedup, paper_inaccuracy)) in (6..).zip(PAPER_AVERAGES) {
        let (technique, baseline) = (TECHNIQUES[(n - 6) % 3], ALL_BASELINES[(n - 6) / 3]);
        let (t, [speedup, inaccuracy]) = technique_vs_baseline(&rows, technique, baseline, n)?;
        out.push(table(n, t));
        summary.row(vec![
            n.to_string(),
            technique.key().into(),
            baseline.label().into(),
            fmt_speedup(paper_speedup),
            fmt_speedup(speedup),
            paper_inaccuracy.map_or_else(|| "-".into(), fmt_inaccuracy),
            fmt_inaccuracy(inaccuracy),
        ]);
    }
    out.push(Rendered {
        stem: "summary".into(),
        table: summary,
        plot: String::new(),
    });
    Ok(out)
}

/// A figure sweep point.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub threshold: f64,
    pub speedup: f64,
    pub inaccuracy: f64,
}

/// Figures 7–9 from `record`'s rows: each knob sweep on rmat, averaged
/// over SSSP/PR/BC against Baseline-I like the tables (geometric mean of
/// speedups, arithmetic mean of inaccuracies), with its ASCII plot. Fails
/// naming the first row the record lacks.
pub fn figures(record: &BenchRecord) -> Result<Vec<Rendered>, String> {
    let rows = Rows::of(record);
    let mut out = Vec::new();
    for (n, title, technique, thresholds) in FIGURES {
        let mut t = TextTable::new(title, &["Threshold", "Speedup", "Inaccuracy"]);
        let mut points = Vec::new();
        for &threshold in thresholds {
            let key = sweep_key(technique, threshold);
            let (mut speeds, mut errs) = (Vec::new(), Vec::new());
            for algo in CORE_ALGOS {
                let (speedup, inaccuracy) =
                    rows.cell(GraphKind::Rmat, &key, Baseline::Lonestar, algo)?;
                speeds.push(speedup);
                errs.push(inaccuracy);
            }
            let p = SweepPoint {
                threshold,
                speedup: geomean(&speeds),
                inaccuracy: mean(&errs),
            };
            points.push(p);
            t.row(vec![
                format!("{threshold:.2}"),
                fmt_speedup(p.speedup),
                fmt_inaccuracy(p.inaccuracy),
            ]);
        }
        out.push(Rendered {
            stem: format!("figure{n:02}"),
            table: t,
            plot: ascii_plot(&points),
        });
    }
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The lines around the rendered block of EXPERIMENTS.md.
    const BEGIN: &str =
        "<!-- rendered: graffix bench --paper-tables BENCH_ci.txt; graffix bench --figures BENCH_ci.txt -->\n";
    const END: &str = "<!-- end rendered -->\n";

    fn read(file: &str) -> String {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// EXPERIMENTS.md quotes the committed record: between its two marker
    /// lines it holds, in a text fence, exactly what the two renders print
    /// from `BENCH_ci.txt`. A re-baseline that moves a paper number, or an
    /// edit inside the block, fails here until the block is pasted again.
    #[test]
    fn experiments_md_holds_the_render_of_the_committed_record() {
        let record = BenchRecord::parse(&read("BENCH_ci.txt")).unwrap();
        let (tables, figures) = (paper_tables(&record).unwrap(), figures(&record).unwrap());
        let text: String = tables.iter().chain(&figures).map(Rendered::text).collect();
        let doc = read("EXPERIMENTS.md");
        let start = doc
            .find(BEGIN)
            .expect("EXPERIMENTS.md has the opening marker")
            + BEGIN.len();
        let end = start + doc[start..].find(END).expect("and the closing one");
        assert!(
            doc[start..end] == format!("```text\n{text}```\n"),
            "EXPERIMENTS.md's rendered block is stale; between its markers put \
             ```text, the output of `graffix bench --paper-tables BENCH_ci.txt` and \
             `graffix bench --figures BENCH_ci.txt`, and ```:\n{text}"
        );
    }

    /// A speedup is the ratio of the exact row's cycles to the
    /// transformed row's (a zero counts as one), and the inaccuracy is the
    /// transformed row's, read back bit for bit.
    #[test]
    fn speedup_is_the_ratio_of_recorded_cycles() {
        let record = BenchRecord::parse(
            "suite nodes=8 seed=1 bc_sources=1\n\
             paper/rmat26/exact/lonestar/pr/push cycles=300 inaccuracy=0.001\n\
             paper/rmat26/coalescing/lonestar/pr/push cycles=200 inaccuracy=0.30000000000000004\n\
             paper/rmat26/exact/tigr/pr/push cycles=0 inaccuracy=0\n\
             paper/rmat26/latency/tigr/pr/push cycles=4 inaccuracy=0\n",
        )
        .unwrap();
        let rows = Rows::of(&record);
        let cell =
            |technique: &str, baseline| rows.cell(GraphKind::Rmat, technique, baseline, Algo::Pr);
        assert_eq!(cell("coalescing", Baseline::Lonestar), Ok((1.5, 0.1 + 0.2)));
        assert_eq!(cell("latency", Baseline::Tigr), Ok((0.25, 0.0)));
        assert_eq!(
            cell("divergence", Baseline::Tigr),
            Err("the record lacks `cycles` of row `paper/rmat26/divergence/tigr/pr/push`".into())
        );
    }
}
