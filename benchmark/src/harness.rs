//! What every workload shares: the run context, the span recorder of the
//! traced pass, order statistics, and the process's own resource readings.

use graffix::prelude::GpuConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A whole set-up is repeated up to this many times and `setup_s` is the
/// median, as long as the repeats fit in [`SETUP_BUDGET_S`].
const SETUP_REPEATS: usize = 3;
/// Set-ups that take longer than a third of this run once: at that length
/// one reading is steady, and the run has a time cap to keep.
const SETUP_BUDGET_S: f64 = 4.5;

/// One recorded interval. `parent` indexes [`Recorder::spans`].
pub struct Span {
    pub name: String,
    /// Which root (set-up repeat or iteration) the span belongs to.
    pub root: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log of the traced pass; a no-op when disabled.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    roots: usize,
    /// The span most recently closed by [`Recorder::exit`].
    last_closed: Option<usize>,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            roots: 0,
            last_closed: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.stack.last().copied();
        let root = match parent {
            Some(p) => self.spans[p].root,
            None => {
                self.roots += 1;
                self.roots - 1
            }
        };
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            root,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Some(idx)
    }

    fn exit(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in stack order");
            self.last_closed = Some(idx);
        }
    }

    /// Lays timings a layer *returned* (stage seconds, queue/exec ms) out as
    /// child spans of `parent`, back to back from its start.
    pub fn add_children(&mut self, parent: usize, children: &[(String, f64)]) {
        let mut at = self.spans[parent].start_ns;
        let root = self.spans[parent].root;
        for (name, seconds) in children {
            let end = at + (seconds * 1e9) as u64;
            self.spans.push(Span {
                name: name.clone(),
                root,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
            });
            at = end;
        }
    }

    /// Self time per span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Every child lies inside its parent, and siblings fit in it together.
    fn check_nesting(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} [{}..{}] leaves its parent {} [{}..{}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
            child_sum[p] += s.ns();
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_sum[i] > s.ns() {
                return Err(format!(
                    "children of span {} take {} ns, more than its {} ns",
                    s.name,
                    child_sum[i],
                    s.ns()
                ));
            }
        }
        Ok(())
    }
}

/// Run context handed to a workload.
pub struct Cx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Fresh scratch directory of this run, under `benchmark/out/`.
    pub dir: PathBuf,
    pub gpu: GpuConfig,
    pub rec: Recorder,
    setup_s: Vec<f64>,
    pub iter_s: Vec<f64>,
    iter_cpu_s: Vec<f64>,
    /// Wall time of the first pass through the call sequence: the discarded
    /// warm-up where there is one, else the first iteration.
    pub cold_s: Option<f64>,
    pub op_ms: Vec<f64>,
    work_units: f64,
    work_seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values set directly (probes, counts, derived figures).
    pub layer: BTreeMap<String, f64>,
    /// Counts that repeat exactly for a seed, printed by both passes.
    pub counts: BTreeMap<String, f64>,
    /// Counters a workload bumps as it goes; what the first timed iteration
    /// added becomes a count (later iterations may be fewer or more).
    pub tally: BTreeMap<String, f64>,
    /// Per-call readings; a per-layer metric is their median.
    samples: BTreeMap<String, Vec<f64>>,
}

impl Cx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool, dir: PathBuf) -> Cx {
        Cx {
            workload,
            seed,
            seconds,
            trace,
            threads: host_threads(),
            dir,
            gpu: GpuConfig::k40c(),
            rec: Recorder::new(trace),
            setup_s: Vec::new(),
            iter_s: Vec::new(),
            iter_cpu_s: Vec::new(),
            cold_s: None,
            op_ms: Vec::new(),
            work_units: 0.0,
            work_seconds: 0.0,
            attempted: 0,
            failed: 0,
            layer: BTreeMap::new(),
            counts: BTreeMap::new(),
            tally: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Times `f` as a span of the traced pass (a plain call otherwise).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Cx) -> T) -> T {
        let idx = self.rec.enter(name);
        let out = f(self);
        self.rec.exit(idx);
        out
    }

    /// A span that is also one *operation*: its latency feeds `p95_ms` and
    /// `ops_per_s`. Returns the latency in seconds too.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce(&mut Cx) -> T) -> (T, f64) {
        let idx = self.rec.enter(name);
        let start = Instant::now();
        let out = f(self);
        let seconds = start.elapsed().as_secs_f64();
        self.rec.exit(idx);
        self.op_ms.push(seconds * 1e3);
        (out, seconds)
    }

    /// Attaches timings returned by the call the last closed span wrapped.
    pub fn returned_children(&mut self, children: &[(String, f64)]) {
        if let Some(parent) = self.rec.last_closed {
            self.rec.add_children(parent, children);
        }
    }

    /// Renames the last closed span, for calls whose kind is known only
    /// from what they return.
    pub fn rename_last_span(&mut self, name: &str) {
        if let Some(idx) = self.rec.last_closed {
            self.rec.spans[idx].name = name.to_string();
        }
    }

    /// One reading of a per-call figure named after its per-layer metric.
    pub fn sample(&mut self, metric: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    /// Median of the readings of `metric` so far.
    pub fn sampled(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(0.0, |v| median(v))
    }

    /// Credits `units` of domain work done in `seconds` of layer calls.
    pub fn work(&mut self, units: f64, seconds: f64) {
        self.work_units += units;
        self.work_seconds += seconds;
    }

    /// A count that repeats exactly for a seed.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    /// One output check; a failed one is named on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED [{}]: {}", self.workload, what());
        }
    }

    /// Runs the whole set-up — with `repeat`, again while the repeats fit the
    /// budget — and keeps the last state. `teardown` undoes a state that is
    /// dropped.
    pub fn setup<S>(
        &mut self,
        repeat: bool,
        mut build: impl FnMut(&mut Cx) -> S,
        mut teardown: impl FnMut(&mut Cx, S),
    ) -> S {
        let mut spent = 0.0;
        loop {
            let idx = self.rec.enter("setup");
            let start = Instant::now();
            let state = build(self);
            let seconds = start.elapsed().as_secs_f64();
            self.rec.exit(idx);
            self.setup_s.push(seconds);
            spent += seconds;
            let repeats = if repeat { SETUP_REPEATS } else { 1 };
            if self.setup_s.len() >= repeats || spent + seconds > SETUP_BUDGET_S {
                // Operations and work of the set-up are not the workload's.
                self.op_ms.clear();
                (self.work_units, self.work_seconds) = (0.0, 0.0);
                // Untimed: write the set-up's files back now, so that the
                // kernel does not do it on a core the window needs.
                sync_tree(&self.dir);
                return state;
            }
            teardown(self, state);
        }
    }

    /// The measured window: optional discarded warm-up, then iterations
    /// until `--seconds` have passed (the traced pass stops after two).
    /// `between` runs untimed before every iteration.
    pub fn measure<S>(
        &mut self,
        warm_up: bool,
        state: &mut S,
        mut between: impl FnMut(&mut Cx, &mut S),
        mut iteration: impl FnMut(&mut Cx, &mut S),
    ) {
        if warm_up {
            between(self, state);
            let spans = self.rec.spans.len();
            let roots = self.rec.roots;
            let ops = self.op_ms.len();
            let work = (self.work_units, self.work_seconds);
            let samples = self.samples.clone();
            let start = Instant::now();
            iteration(self, state);
            self.cold_s.get_or_insert(start.elapsed().as_secs_f64());
            // Its timings are discarded; its output checks still count.
            self.rec.spans.truncate(spans);
            self.rec.roots = roots;
            self.op_ms.truncate(ops);
            (self.work_units, self.work_seconds) = work;
            self.samples = samples;
        }
        self.tally.clear();
        let window = Instant::now();
        loop {
            between(self, state);
            let idx = self.rec.enter("iteration");
            let cpu = cpu_seconds();
            let start = Instant::now();
            iteration(self, state);
            self.iter_s.push(start.elapsed().as_secs_f64());
            self.iter_cpu_s.push(cpu_seconds() - cpu);
            self.cold_s.get_or_insert(self.iter_s[0]);
            self.rec.exit(idx);
            if self.iter_s.len() == 1 {
                let first = std::mem::take(&mut self.tally);
                self.counts.extend(first);
            }
            let elapsed = window.elapsed().as_secs_f64();
            let traced_enough = self.trace && self.iter_s.len() >= 2;
            if elapsed >= self.seconds || traced_enough {
                return;
            }
        }
    }

    /// End-to-end metric values by name.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let ops = self.op_ms.len() as f64;
        let iter_total: f64 = self.iter_s.iter().sum();
        [
            ("setup_s", median(&self.setup_s)),
            ("cold_s", self.cold_s.unwrap_or(0.0)),
            ("wall_s", median(&self.iter_s)),
            ("cpu_s", median(&self.iter_cpu_s)),
            ("work_per_s", self.work_units / self.work_seconds),
            ("ops_per_s", ops / iter_total),
            ("p95_ms", percentile(&self.op_ms, 0.95)),
            ("peak_rss_mb", peak_rss_mib()),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
    }

    /// Folds the span log into per-layer values: a layer's time is the
    /// median, over the roots it appears in, of its spans' summed self time.
    /// Returns an error when spans do not nest or too much is unattributed.
    pub fn fold_spans(&mut self) -> Result<(), String> {
        self.rec.check_nesting()?;
        let own = self.rec.self_ns();
        let mut per_root: BTreeMap<&str, BTreeMap<usize, u64>> = BTreeMap::new();
        for (s, own_ns) in self.rec.spans.iter().zip(&own) {
            *per_root
                .entry(s.name.as_str())
                .or_default()
                .entry(s.root)
                .or_default() += own_ns;
        }
        let share: Vec<f64> = self
            .rec
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "iteration")
            .map(|(s, &own_ns)| 100.0 * own_ns as f64 / s.ns().max(1) as f64)
            .collect();
        let unattributed = median(&share);
        self.layer
            .insert("bench.unattributed_pct".into(), unattributed);
        for (metric, readings) in &self.samples {
            self.layer.entry(metric.clone()).or_insert(median(readings));
        }
        for (name, roots) in &per_root {
            let ns: Vec<f64> = roots.values().map(|&v| v as f64).collect();
            let ns = median(&ns);
            // Span `x.y` feeds metric `x.y_ms` or `x.y_s`, whichever exists.
            for (suffix, scale) in [("_ms", 1e-6), ("_s", 1e-9)] {
                let metric = format!("{name}{suffix}");
                if crate::metrics::PER_LAYER.iter().any(|m| m.name == metric) {
                    self.layer.entry(metric).or_insert(ns * scale);
                }
            }
        }
        if unattributed >= 5.0 {
            return Err(format!(
                "{unattributed:.2} % of an iteration is outside every layer span (limit 5 %)"
            ));
        }
        Ok(())
    }

    /// `bench.trace_overhead_pct`: spans recorded inside iterations times
    /// the calibrated cost of recording one, over the iterations' time. (The
    /// suite also prints traced against untraced `wall_s`, which on this
    /// scale is run-to-run noise.)
    pub fn trace_overhead(&mut self) {
        const CALIBRATION: usize = 10_000;
        let mut scratch = Recorder::new(true);
        let start = Instant::now();
        for _ in 0..CALIBRATION {
            let idx = scratch.enter("calibration");
            scratch.exit(idx);
        }
        let per_span_ns = start.elapsed().as_nanos() as f64 / CALIBRATION as f64;
        let iteration_roots: Vec<usize> = self
            .rec
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .map(|s| s.root)
            .collect();
        let inside = self
            .rec
            .spans
            .iter()
            .filter(|s| iteration_roots.contains(&s.root))
            .count();
        let iteration_ns: f64 = self.iter_s.iter().sum::<f64>() * 1e9;
        self.layer.insert(
            "bench.trace_overhead_pct".into(),
            100.0 * inside as f64 * per_span_ns / iteration_ns.max(1.0),
        );
    }

    /// The span log as JSON lines inside one array.
    pub fn trace_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{}\",\"iter\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{}\n",
                s.name,
                self.workload,
                s.root,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.rec.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Host threads used everywhere: `min(2, nproc)`.
pub fn host_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads (`USER_HZ` is
/// 100 on every Linux ABI this runs on).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// `fsync` of every regular file under `dir`, best effort.
fn sync_tree(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => sync_tree(&path),
            Ok(t) if t.is_file() => {
                if let Ok(file) = std::fs::File::open(&path) {
                    let _ = file.sync_all();
                }
            }
            _ => {}
        }
    }
}

/// Bytes of every regular file directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
