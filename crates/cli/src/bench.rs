//! `graffix bench` — the one entry point of `graffix_bench`: save the bench
//! record, gate it, or regenerate the paper's tables, figures and the
//! stage-cache sweep. The gate is measure → cells → [`finish_gate`]: the
//! record's rows are judged exactly, its floor cells against
//! `graffix_bench::gate::FLOORS`, in one report.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::write_file;
use graffix::log_info;
use graffix::prelude::CacheConfig;
use graffix_bench::gate::{GateReport, Verdict, GATE_SCHEMA};
use graffix_bench::{report, BenchRecord, Families, Suite, SuiteOptions, TextTable};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

pub const SUB: Sub = Sub {
    name: "bench",
    usage: "\
exactly one mode, with only the flags listed beside it:
--save-baseline FILE  measure the row families FILE holds, at the scales
    its rows name (every family at its default when FILE does not exist),
    print how each row moved and the floor cells, and write the bench
    record (`id key=value` rows); writes nothing when a floor cell fails
--gate FILE [--gate-report FILE]  re-measure every row family FILE holds;
    exit 1 unless every (row, key) comes back as its recorded text and
    every floor cell holds (segmented >= 5% fewer cycles with identical
    values, stale batches all reuse, exact batches identical); prints one
    verdict table, names failures as `FAIL id [label] key`, and writes
    the JSON report (graffix.gate-report v4); host time is judged by
    benchmark/
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
    /// Every setting comes from the record at `path`.
    SaveBaseline {
        path: PathBuf,
    },
    Gate {
        path: PathBuf,
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

/// Corpus shape: the suite defaults, overridden by `--nodes` and `--seed`.
fn suite_options(bag: &mut Bag) -> Parsed<SuiteOptions> {
    let mut options = SuiteOptions::default();
    options.nodes = bag.opt("nodes")?.unwrap_or(options.nodes);
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

type ModeParser = fn(&mut Bag) -> Parsed<BenchMode>;

/// Each mode's selecting flag and the parser of that flag and the mode's
/// own flags.
const MODES: [(&str, ModeParser); 5] = [
    ("save-baseline", |bag| {
        Ok(BenchMode::SaveBaseline {
            path: bag.req("save-baseline")?,
        })
    }),
    ("gate", |bag| {
        Ok(BenchMode::Gate {
            path: bag.req("gate")?,
            report: bag.opt("gate-report")?,
        })
    }),
    ("paper-tables", |bag| {
        bag.switch("paper-tables")?;
        Ok(BenchMode::PaperTables {
            tables: selection(bag, "table", 1..=14)?,
            options: suite_options(bag)?,
            out: out_dir(bag)?,
        })
    }),
    ("figures", |bag| {
        bag.switch("figures")?;
        Ok(BenchMode::Figures {
            figures: selection(bag, "figure", 7..=9)?,
            options: suite_options(bag)?,
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
            let needs = format!("bench needs exactly one of --{}", flags.join(", --"));
            // With no mode chosen, every flag given is foreign: name it.
            match bag.first_flag().filter(|_| chosen.is_empty()) {
                Some(flag) => Err(format!("unknown flag --{flag} for 'bench': {needs}")),
                None => Err(needs),
            }
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

/// Names each failure on stderr as `FAIL id [label] key`, and exits 1
/// when there is one.
fn exit_on(failures: &[&Verdict]) {
    for f in failures {
        eprintln!("FAIL {} [{}] {}", f.id, f.status.label(), f.metric);
    }
    if !failures.is_empty() {
        exit(1);
    }
}

/// The gate's tail: print the verdict table, write `--gate-report`, name
/// each failure, exit 1 unless it passed.
fn finish_gate(report: &GateReport, out: Option<&Path>) {
    print!("{}", report.table().render());
    if let Some(out) = out {
        write_file(out, report.to_json().to_pretty_string());
        log_info!("wrote gate report {} (schema {GATE_SCHEMA})", out.display());
    }
    exit_on(&report.failures());
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
        BenchMode::SaveBaseline { path } => {
            // An existing record names what to measure; one that does not
            // read stops the save before anything is overwritten.
            let old = path.exists().then(|| read_record(&path));
            let families = old
                .as_ref()
                .map_or_else(Families::default, |r| r.families.clone());
            log_info!("measuring {families:?}");
            let (record, floors) = BenchRecord::measure(families, cache);
            // The old rows against the new: the per-row diff a change that
            // moves a simulated number lists. A first save has no old rows,
            // so only its floor cells show.
            let recorded = old.map_or_else(|| record.cells.clone(), |r| r.cells);
            let diff = GateReport::judge("bench", &recorded, &record.cells, &floors);
            print!("{}", diff.table().render());
            // A moved or missing row is what a save records; a failed
            // floor cell (the one kind of failure without a recorded value)
            // is a broken claim no record can hold.
            let failures = diff.failures();
            let broken: Vec<&Verdict> = failures.into_iter().filter(|v| v.base.is_none()).collect();
            exit_on(&broken);
            write_file(&path, record.render());
            log_info!("wrote {} ({} cells)", path.display(), record.cells.len());
        }
        BenchMode::Gate { path, report } => {
            let record = read_record(&path);
            log_info!(
                "re-measuring the {} cells of {}",
                record.cells.len(),
                path.display()
            );
            finish_gate(&graffix_bench::run_gate(&record, cache), report.as_deref());
        }
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
