//! # graffix-bench
//!
//! The bench record and everything that measures, judges or renders it.
//! `BENCH_ci.txt` ([`baseline`]) holds every simulated number the
//! repository pins as `id key=value` rows: every cell of the paper's
//! Tables 1–4 and 6–14 and every point of Figures 7–9 (the `paper/`
//! rows, measured by [`baseline`]'s producer and nowhere else), the large
//! segmented runs, flat vs segmented ([`segmented`]), incremental
//! re-preparation ([`streaming`]) and the launch matrix ([`launch`]).
//!
//! `graffix bench` drives this library. `--save-baseline` measures the
//! families a record holds and writes it; `--gate` measures them again and
//! judges every value: the measurement is flattened into [`gate::Cell`]s,
//! and [`gate`] holds both policies (exact rows, floor cells), every
//! threshold, the verdict table and the `graffix.gate-report` schema.
//! `--paper-tables` and `--figures` print the [`report`] renders of a
//! record's paper rows and simulate nothing. Every gated value is
//! simulated, a stage count or a flag; host time (the paper's Table 5
//! among it) is measured by `benchmark/` alone.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod gate;
pub mod launch;
pub mod report;
pub mod segmented;
pub mod streaming;
pub mod suite;
pub mod tables;

pub use baseline::{run_gate, BenchRecord, Families};
pub use gate::{Cell, GateReport, Status, Verdict, FLOORS, MOVED};
pub use launch::launch_rows;
pub use segmented::measure_segmented;
pub use streaming::measure_streaming;
pub use suite::{Suite, SuiteOptions};
pub use tables::TextTable;
