//! `graffix bench` — the one entry point of `graffix_bench`: save the bench
//! record, gate it, or render the paper's tables and figures from it. The
//! gate is measure → cells → [`finish_gate`]: the record's rows are judged
//! exactly, its floor cells against `graffix_bench::gate::FLOORS`, in one
//! report. The renders read the record's paper rows and simulate nothing.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::write_file;
use graffix::log_info;
use graffix::prelude::CacheConfig;
use graffix_bench::gate::{GateReport, Verdict, GATE_SCHEMA};
use graffix_bench::report::{self, Rendered};
use graffix_bench::{BenchRecord, Families};
use std::path::{Path, PathBuf};
use std::process::exit;

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
--paper-tables FILE [--out DIR]  print the paper's Tables 1-4 and 6-14
    and the paper's average of each of Tables 6-14 beside the measured
    one, read from the paper rows of the bench record FILE (nothing is
    simulated), and save each as CSV under DIR (default results); exit 1
    naming the first row FILE lacks
--figures FILE [--out DIR]  the knob-sweep Figures 7-9 with ASCII plots,
    from the same rows, CSVs under DIR",
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
        path: PathBuf,
        out: PathBuf,
    },
    Figures {
        path: PathBuf,
        out: PathBuf,
    },
}

/// `--out DIR` of the table and figure modes.
fn out_dir(bag: &mut Bag) -> Parsed<PathBuf> {
    Ok(bag.opt("out")?.unwrap_or_else(|| PathBuf::from("results")))
}

type ModeParser = fn(&mut Bag) -> Parsed<BenchMode>;

/// Each mode's selecting flag and the parser of that flag and the mode's
/// own flags.
const MODES: [(&str, ModeParser); 4] = [
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
        Ok(BenchMode::PaperTables {
            path: bag.req("paper-tables")?,
            out: out_dir(bag)?,
        })
    }),
    ("figures", |bag| {
        Ok(BenchMode::Figures {
            path: bag.req("figures")?,
            out: out_dir(bag)?,
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

/// Renders `path`'s paper rows with `render`: prints each table or figure
/// and saves its CSV under `out`; exits 1 naming the first row the record
/// lacks.
fn render_record(
    path: &Path,
    out: &Path,
    render: fn(&BenchRecord) -> Result<Vec<Rendered>, String>,
) {
    let rendered = render(&read_record(path)).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        exit(1);
    });
    for r in rendered {
        print!("{}", r.text());
        if let Err(e) = r.table.save_csv(out, &r.stem) {
            eprintln!("warning: could not save CSV for {}: {e}", r.stem);
        }
    }
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
            print!("{}", diff.save_table().render());
            // A moved or missing row is what a save records; a failed
            // floor cell is a broken claim no record can hold.
            exit_on(&diff.broken());
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
        BenchMode::PaperTables { path, out } => render_record(&path, &out, report::paper_tables),
        BenchMode::Figures { path, out } => render_record(&path, &out, report::figures),
    }
}
