//! Every workload end to end at 2^10, and `BENCHMARK.json` held against the
//! tables in `metrics.rs`.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{run_workload, Args, DEFAULT_SECONDS};
use graffix::prelude::Json;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}`"))
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (j, m) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better);
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (j, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better);
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert!(
        names.iter().all(|n| valid_name(n)),
        "a name leaves [A-Za-z0-9_.-]"
    );
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
}

/// The result line of one run, after checking that the run succeeded.
fn result_line(workload: &'static str, trace: bool) -> (String, String) {
    let args = Args {
        workload: None,
        seed: 7,
        seconds: 0.05,
        trace,
        repeat: 1,
    };
    let (code, out) = run_workload(workload, &args);
    assert_eq!(code, 0, "{workload} (trace {trace}) failed:\n{out}");
    let last = out.lines().last().unwrap().to_string();
    (out, last)
}

#[test]
fn every_workload_prints_every_metric_once() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let (out, last) = result_line(w.name, trace);
            let doc = Json::parse(&last).expect("the last line is JSON");
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{}:\n{out}",
                w.name
            );
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);

            let expected: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), expected.len());
            for (name, unit) in expected {
                let printed = last.matches(&format!("\"{name}\":{{")).count();
                assert_eq!(printed, 1, "{} prints {name} {printed} times", w.name);
                let m = doc.path(&["metrics", name]).unwrap();
                assert_eq!(text(m, "unit"), unit);
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{} {name} is {value}", w.name);
                if !trace {
                    assert!(value > 0.0, "{} {name} is {value}", w.name);
                    // Once by name with its unit in the readable part too.
                    let lines = out
                        .lines()
                        .filter(|l| l.split_whitespace().next() == Some(name));
                    assert_eq!(lines.count(), 1, "{} lists {name}", w.name);
                }
            }
        }
    }
}

#[test]
fn counts_repeat_between_passes() {
    // `#counts` is what `--repeat 2` and the traced pass compare.
    let counts = |trace| {
        let (out, _) = result_line("run_segmented", trace);
        out.lines()
            .find(|l| l.starts_with("#counts"))
            .unwrap()
            .to_string()
    };
    assert_eq!(counts(false), counts(true));
}
