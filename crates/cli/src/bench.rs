//! `graffix bench` — the one entry point of `graffix_bench`: save the bench
//! record, run one of the three gates, or regenerate the paper's tables,
//! figures and the stage-cache sweep. Every gate is measure → cells →
//! [`finish_gate`]; the record is judged exactly, the other two gates
//! against the floors fixed in `graffix_bench::gate::FLOORS`.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{segment_bytes, write_file};
use graffix::log_info;
use graffix::prelude::{CacheConfig, SegmentKnobs};
use graffix_bench::gate::{GateReport, GATE_SCHEMA};
use graffix_bench::{report, BenchRecord, Families, Suite, SuiteOptions, TextTable};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

pub const SUB: Sub = Sub {
    name: "bench",
    usage: "\
exactly one mode, with only the flags listed beside it:
--save-baseline FILE [--nodes N] [--seed S] [--bc-sources N]
    [--large-nodes N]  measure every row family and write the bench
    record (`id key=value` rows), after printing how the old FILE's rows
    moved; an existing FILE sets each flag's default (else 4096 nodes,
    seed 2020, 4 bc sources); --large-nodes sizes the segmented
    2^20-scale bfs/pr rows (default 1048576, 0 to skip)
--gate FILE  re-measure every row family FILE holds; exit 1 unless every
    (row, key) comes back as its recorded text
--segment-gate [--nodes N] [--seed S] [--segment-bytes N]
    flat vs segmented on the gate cells: every cell must be
    byte-identical and at least 5% faster segmented
--stream-gate  measure incremental vs full re-prepare under 1% churn and
    gate on all-reuse stale batches + exact-mode identity
    every gate prints one verdict table, names failures as
    `FAIL id [label] key`, and takes --gate-report FILE (JSON,
    graffix.gate-report v4); thresholds are fixed, one policy per
    metric (see EXPERIMENTS.md); host time is judged by benchmark/
--paper-tables [--table N]... [--all] [--nodes N] [--seed S] [--out DIR]
    print the paper's tables (1-14, default all) and save each as CSV
    under DIR (default results)
--figures [--figure 7|8|9]... [--all] [--nodes N] [--seed S] [--out DIR]
    the knob-sweep figures with ASCII plots, CSVs under DIR
--stage-sweep [--nodes N] [--seed S]
    degreeSim sweep through one shared stage memo; exit 1 unless every
    warm config reuses its upstream stages under 50% of the cold time",
    parse: |bag| parse(bag).map(Command::Bench),
};

/// What `bench` does; each variant carries only the flags it reads.
pub enum BenchMode {
    /// Each flag left out defaults to what an existing record holds.
    SaveBaseline {
        path: PathBuf,
        nodes: Option<usize>,
        seed: Option<u64>,
        bc_sources: Option<usize>,
        large_nodes: Option<usize>,
    },
    Gate {
        gate: Gate,
        report: Option<PathBuf>,
    },
    PaperTables {
        tables: Vec<usize>,
        options: SuiteOptions,
        out: PathBuf,
    },
    Figures {
        figures: Vec<usize>,
        options: SuiteOptions,
        out: PathBuf,
    },
    StageSweep {
        nodes: usize,
        seed: u64,
    },
}

pub enum Gate {
    Bench(PathBuf),
    Stream,
    Segment {
        options: SuiteOptions,
        segment_bytes: usize,
    },
}

/// Corpus shape: the suite defaults, overridden by `--nodes` (else
/// `nodes_default`) and `--seed`.
fn suite_options(bag: &mut Bag, nodes_default: Option<usize>) -> Parsed<SuiteOptions> {
    let mut options = SuiteOptions::default();
    options.nodes = bag.opt("nodes")?.or(nodes_default).unwrap_or(options.nodes);
    options.seed = bag.opt("seed")?.unwrap_or(options.seed);
    Ok(options)
}

/// `--out DIR` of the table and figure modes.
fn out_dir(bag: &mut Bag) -> Parsed<PathBuf> {
    Ok(bag.opt("out")?.unwrap_or_else(|| PathBuf::from("results")))
}

/// `--table N`/`--figure N` selections within `range`; all of it when
/// none is named or `--all` is given.
fn selection(
    bag: &mut Bag,
    flag: &str,
    range: std::ops::RangeInclusive<usize>,
) -> Parsed<Vec<usize>> {
    let picked: Vec<usize> = bag.many(flag)?;
    if let Some(n) = picked.iter().find(|n| !range.contains(n)) {
        return Err(format!("bad --{flag} value: {n}"));
    }
    if bag.switch("all")? || picked.is_empty() {
        return Ok(range.collect());
    }
    Ok(picked)
}

/// A gate mode: `gate` plus the `--gate-report FILE` every gate takes.
fn gate(bag: &mut Bag, gate: Gate) -> Parsed<BenchMode> {
    Ok(BenchMode::Gate {
        gate,
        report: bag.opt("gate-report")?,
    })
}

type ModeParser = fn(&mut Bag) -> Parsed<BenchMode>;

/// Each mode's selecting flag and the parser of that flag and the mode's
/// own flags.
const MODES: [(&str, ModeParser); 7] = [
    ("save-baseline", |bag| {
        Ok(BenchMode::SaveBaseline {
            path: bag.req("save-baseline")?,
            nodes: bag.opt("nodes")?,
            seed: bag.opt("seed")?,
            bc_sources: bag.opt("bc-sources")?,
            large_nodes: bag.opt("large-nodes")?,
        })
    }),
    ("gate", |bag| {
        let path = bag.req("gate")?;
        gate(bag, Gate::Bench(path))
    }),
    ("stream-gate", |bag| {
        bag.switch("stream-gate")?;
        gate(bag, Gate::Stream)
    }),
    ("segment-gate", |bag| {
        bag.switch("segment-gate")?;
        // 2^17 is the scale the segmented-win claim is made at.
        let options = suite_options(bag, Some(1 << 17))?;
        let segment_bytes = segment_bytes(bag)?.unwrap_or(SegmentKnobs::default().segment_bytes);
        let segment = Gate::Segment {
            options,
            segment_bytes,
        };
        gate(bag, segment)
    }),
    ("paper-tables", |bag| {
        bag.switch("paper-tables")?;
        Ok(BenchMode::PaperTables {
            tables: selection(bag, "table", 1..=14)?,
            options: suite_options(bag, None)?,
            out: out_dir(bag)?,
        })
    }),
    ("figures", |bag| {
        bag.switch("figures")?;
        Ok(BenchMode::Figures {
            figures: selection(bag, "figure", 7..=9)?,
            options: suite_options(bag, None)?,
            out: out_dir(bag)?,
        })
    }),
    ("stage-sweep", |bag| {
        bag.switch("stage-sweep")?;
        Ok(BenchMode::StageSweep {
            nodes: bag.opt("nodes")?.unwrap_or(20_000),
            seed: bag.opt("seed")?.unwrap_or(2020),
        })
    }),
];

fn parse(bag: &mut Bag) -> Parsed<BenchMode> {
    let chosen: Vec<_> = MODES.iter().filter(|(flag, _)| bag.has(flag)).collect();
    match chosen[..] {
        [(_, parse_mode)] => parse_mode(bag),
        _ => {
            let flags: Vec<&str> = MODES.iter().map(|(flag, _)| *flag).collect();
            Err(format!(
                "bench needs exactly one of --{}",
                flags.join(", --")
            ))
        }
    }
}

/// Reads a bench record; exits 1 with the reason, naming the line, when
/// the file is unreadable or not a bench record.
fn read_record(path: &Path) -> BenchRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("could not read {}: {e}", path.display());
        exit(1);
    });
    BenchRecord::parse(&text).unwrap_or_else(|e| {
        eprintln!("{} is not a bench record: {e}", path.display());
        exit(1);
    })
}

/// The tail every gate shares: print the verdict table, write
/// `--gate-report`, name each failure on stderr, exit 1 unless it passed.
fn finish_gate(report: &GateReport, out: Option<&Path>) {
    print!("{}", report.table().render());
    if let Some(out) = out {
        write_file(out, report.to_json().to_pretty_string());
        log_info!("wrote gate report {} (schema {GATE_SCHEMA})", out.display());
    }
    let failures = report.failures();
    for f in &failures {
        eprintln!("FAIL {} [{}] {}", f.id, f.status.label(), f.metric);
    }
    if !failures.is_empty() {
        exit(1);
    }
    log_info!(
        "{} gate passed: {} cells",
        report.gate,
        report.verdicts.len()
    );
}

/// The paper suite the table and figure modes measure (uncached, so
/// Table 5's preprocessing times are real).
fn paper_suite(options: SuiteOptions) -> Suite {
    log_info!(
        "generating suite: {} nodes/graph, seed {} ...",
        options.nodes,
        options.seed
    );
    Suite::new(options)
}

/// Prints one table or figure, saves its CSV under `out`, logs its time.
fn emit_table(out: &Path, stem: &str, build: impl FnOnce() -> (TextTable, String)) {
    let start = Instant::now();
    let (table, plot) = build();
    println!("{}", table.render());
    if !plot.is_empty() {
        println!("{plot}");
    }
    if let Err(e) = table.save_csv(out, stem) {
        eprintln!("warning: could not save CSV for {stem}: {e}");
    }
    log_info!("  [{stem} in {:.1}s]", start.elapsed().as_secs_f64());
}

pub fn run(mode: BenchMode, cache: &CacheConfig) {
    match mode {
        // The suite's algorithm cells reuse the prepared-graph cache
        // (bit-identical loads, so gated metrics are unaffected).
        BenchMode::SaveBaseline {
            path,
            nodes,
            seed,
            bc_sources,
            large_nodes,
        } => {
            // An existing record is the refresh's defaults; one that does
            // not read stops the save before anything is overwritten.
            let old = path.exists().then(|| read_record(&path));
            let recorded = old.as_ref().map(|r| &r.families);
            let mut options = recorded.and_then(|f| f.suite.clone()).unwrap_or_default();
            options.nodes = nodes.unwrap_or(options.nodes);
            options.seed = seed.unwrap_or(options.seed);
            options.bc_sources = bc_sources.unwrap_or(options.bc_sources);
            let large_nodes = large_nodes
                .or(recorded.map(|f| f.large_nodes))
                .unwrap_or(1 << 20);
            log_info!(
                "measuring every row family: nodes {}, seed {}, large nodes {large_nodes}",
                options.nodes,
                options.seed
            );
            let families = Families {
                suite: Some(options),
                large_nodes,
                launch: true,
            };
            let record = BenchRecord::measure(families, cache);
            if let Some(old) = &old {
                let diff = GateReport::exact("bench", &old.cells, &record.cells);
                print!("{}", diff.table().render());
            }
            write_file(&path, record.render());
            log_info!("wrote {} ({} cells)", path.display(), record.cells.len());
        }
        BenchMode::Gate { gate, report } => finish_gate(&run_gate(gate, cache), report.as_deref()),
        BenchMode::PaperTables {
            tables,
            options,
            out,
        } => {
            let suite = paper_suite(options);
            for n in tables {
                emit_table(&out, &format!("table{n:02}"), || {
                    (report::paper_table(&suite, n), String::new())
                });
            }
        }
        BenchMode::Figures {
            figures,
            options,
            out,
        } => {
            let suite = paper_suite(options);
            for n in figures {
                emit_table(&out, &format!("figure{n:02}"), || {
                    let (table, points) = report::figure_sweep(&suite, n);
                    (table, report::ascii_plot(&points))
                });
            }
        }
        BenchMode::StageSweep { nodes, seed } => {
            if !graffix_bench::sweep::stage_sweep(nodes, seed) {
                exit(1);
            }
        }
    }
}

fn run_gate(gate: Gate, cache: &CacheConfig) -> GateReport {
    match gate {
        Gate::Bench(path) => {
            let record = read_record(&path);
            log_info!(
                "re-measuring the {} cells of {}",
                record.cells.len(),
                path.display()
            );
            graffix_bench::run_gate(&record, cache)
        }
        // No baseline file: the gate judges stage records, which no host
        // can move.
        Gate::Stream => {
            log_info!("measuring streaming cell: incremental vs full re-prepare at 1% churn");
            graffix_bench::run_stream_gate()
        }
        // Both sides are deterministic simulated cycles, so this gate is
        // machine-independent too.
        Gate::Segment {
            options,
            segment_bytes,
        } => {
            log_info!(
                "measuring flat vs segmented at {} nodes, {} byte budget",
                options.nodes,
                segment_bytes
            );
            graffix_bench::run_segment_gate(&Suite::new(options), segment_bytes)
        }
    }
}
