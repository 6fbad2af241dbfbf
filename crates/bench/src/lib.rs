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
//! The regression gates (`--gate | --stream-gate | --segment-gate`) are
//! three suites that each measure and flatten their result into
//! [`gate::Cell`]s, and one judge: [`gate`] holds every threshold, the
//! verdict table and the `graffix.gate-report` schema. Every gated number
//! is simulated or a flag; host time is measured by `benchmark/` alone.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod experiments;
pub mod gate;
pub mod report;
pub mod segmented;
pub mod streaming;
pub mod suite;
pub mod sweep;
pub mod tables;

pub use baseline::{
    measure_large, run_gate, BenchBaseline, CellKey, CellMeasurement, LargeCellMeasurement,
    LARGE_ALGOS,
};
pub use experiments::{measure, Measurement, ALL_ALGOS, CORE_ALGOS};
pub use gate::{Cell, GateReport, Policy, Status, Verdict, POLICIES};
pub use segmented::{compare_segmented, run_segment_gate, SegmentCompareRow};
pub use streaming::{measure_streaming, run_stream_gate, StreamCell};
pub use suite::{Suite, SuiteOptions};
pub use tables::TextTable;
