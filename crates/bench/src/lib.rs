//! # graffix-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper's evaluation (§5): workload construction (Table 1), exact
//! baseline timings (Tables 2–4), preprocessing overheads (Table 5), the
//! speedup/inaccuracy grids for each transform against each baseline
//! (Tables 6–14), and the three knob-sweep figures (Figures 7–9).
//!
//! `graffix bench` drives this library: `--paper-tables` and `--figures`
//! print the [`report`] builders' output, `--stage-sweep` runs [`sweep`].
//! `--save-baseline` and `--gate` write and judge the one bench record,
//! `BENCH_ci.txt` ([`baseline`]): every simulated number the repository
//! pins — the paper corpus, the large segmented runs, flat vs segmented
//! ([`segmented`]), incremental re-preparation ([`streaming`]) and the
//! launch matrix ([`launch`]) alike — as `id key=value` rows. One gate
//! judges them: the measurement is flattened into [`gate::Cell`]s, and
//! [`gate`] holds both policies (exact rows, floor cells), every
//! threshold, the verdict table and the `graffix.gate-report` schema.
//! Every gated value is simulated, a stage count or a flag; host time is
//! measured by `benchmark/` alone.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod experiments;
pub mod gate;
pub mod launch;
pub mod report;
pub mod segmented;
pub mod streaming;
pub mod suite;
pub mod sweep;
pub mod tables;

pub use baseline::{run_gate, BenchRecord, Families};
pub use experiments::{measure, Measurement, ALL_ALGOS, CORE_ALGOS};
pub use gate::{Cell, GateReport, Status, Verdict, FLOORS, MOVED};
pub use launch::launch_rows;
pub use segmented::measure_segmented;
pub use streaming::measure_streaming;
pub use suite::{Suite, SuiteOptions};
pub use tables::TextTable;
