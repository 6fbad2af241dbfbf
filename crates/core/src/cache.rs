//! The prepared-graph cache: [`prepare_with_cache`] over the memo layer.
//!
//! Preprocessing is the one-time cost the paper's whole pitch amortizes —
//! so amortize it across *processes* too. A [`Prepared`] graph is fully
//! determined by (input graph bytes, enabled knobs, the `GpuConfig` fields
//! the stages read, pipeline code version), which makes it
//! content-addressable: it is the **terminal entry** of the one memo layer
//! ([`crate::query`]), stored as stage `prepared` in the same directory
//! (default `target/graffix-cache/`), the same `.gfxs` envelope (magic,
//! version, stage name, payload checksum, tmp + rename) and the same codec
//! family ([`crate::stages`]) as every stage entry, under a key the stage
//! keys' own input declarations derive ([`Pipeline::prepared_key`]).
//! Editing any knob, the graph, or bumping [`PIPELINE_VERSION`] after a
//! behavior change makes old entries unreachable (stale files are simply
//! never read again — eviction is `rm -r`).
//!
//! A hit decodes the stored `Prepared` without running a stage; a miss
//! (say, one knob changed) runs the pipeline as a memoized query graph over
//! the per-stage entries, reusing every intermediate upstream of the knob,
//! and stores the result. Entries hold content only: the wall-clock
//! diagnostics (`preprocess_seconds`, `phase_seconds`) are rewritten per
//! call — run reports never contain those, so cold and warm runs stay
//! byte-identical.
//!
//! [`PIPELINE_VERSION`]: crate::query::PIPELINE_VERSION

use crate::pipeline::{graph_fingerprint, Pipeline, PipelineError, PREPARED_STAGE};
use crate::prepared::{PhaseTiming, Prepared};
use crate::query::{load_stage, stage_entry_path, store_stage, Entry, QueryCtx, StageRecord};
use crate::stages::{decode_prepared, encode_prepared};
use graffix_graph::Csr;
use graffix_sim::GpuConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Where (and whether) prepared graphs are cached.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    pub dir: PathBuf,
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            dir: default_cache_dir(),
            enabled: true,
        }
    }
}

impl CacheConfig {
    /// A disabled cache: `prepare_with_cache` always recomputes.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            dir: default_cache_dir(),
            enabled: false,
        }
    }

    /// An enabled cache rooted at `dir`.
    pub fn at<P: Into<PathBuf>>(dir: P) -> CacheConfig {
        CacheConfig {
            dir: dir.into(),
            enabled: true,
        }
    }
}

/// The conventional cache location.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target/graffix-cache")
}

/// What `prepare_with_cache` did for this preparation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Loaded bit-identical from disk; no transform ran.
    Hit,
    /// Computed and stored for next time.
    MissStored,
    /// Computed; the store failed (e.g. unwritable dir) — non-fatal. The
    /// underlying io error rides along so the CLI can say *why*.
    MissStoreFailed(String),
    /// Caching was off; computed without touching disk.
    Disabled,
}

impl CacheStatus {
    /// CLI label (`cache: hit` etc.).
    pub fn label(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::MissStored => "miss (stored)",
            CacheStatus::MissStoreFailed(_) => "miss (store failed)",
            CacheStatus::Disabled => "disabled",
        }
    }
}

/// Provenance of one cached (or bypassed) preparation.
#[derive(Clone, Debug)]
pub struct CacheOutcome {
    pub status: CacheStatus,
    /// Content key of the terminal entry ([`Pipeline::prepared_key`]).
    pub key: u64,
    /// The terminal entry file, when one was read or written.
    pub path: Option<PathBuf>,
    /// Per-stage hit/cutoff/recomputed records from the memoized query
    /// graph; the terminal lookup itself is never listed. Empty on a hit
    /// (no stage ran) and when caching is disabled (the null context
    /// records nothing worth surfacing).
    pub stages: Vec<StageRecord>,
}

/// Applies `pipeline` through the cache: on a hit of the terminal entry the
/// stored `Prepared` is returned (payload bit-identical to the cold
/// computation) with its wall-clock diagnostics set to the actual load
/// time, so the phase breakdown shows a single `cache-load` entry; on a
/// miss — absent, or damaged in any byte — the pipeline runs as a memoized
/// query graph over per-stage entries in the same directory — a one-knob
/// change reuses every stage upstream of the knob — and the result is
/// stored as the terminal entry (a failed store degrades gracefully,
/// carrying the io error in the status). Exact (no-stage) pipelines bypass
/// the cache — there is nothing to amortize.
pub fn prepare_with_cache(
    g: &Csr,
    pipeline: &Pipeline,
    cfg: &GpuConfig,
    cache: &CacheConfig,
) -> Result<(Prepared, CacheOutcome), PipelineError> {
    let no_stages =
        pipeline.coalesce.is_none() && pipeline.latency.is_none() && pipeline.divergence.is_none();
    if !cache.enabled || no_stages {
        let prepared = pipeline.try_apply(g, cfg)?;
        return Ok((
            prepared,
            CacheOutcome {
                status: CacheStatus::Disabled,
                key: 0,
                path: None,
                stages: Vec::new(),
            },
        ));
    }
    let start = Instant::now();
    let graph_fp = graph_fingerprint(g);
    let key = pipeline.prepared_key(graph_fp, cfg);
    let hit = load_stage(&cache.dir, PREPARED_STAGE, key)
        .and_then(|entry| decode_prepared(entry.payload).ok());
    if let Some(mut prepared) = hit {
        let seconds = start.elapsed().as_secs_f64();
        prepared.report.preprocess_seconds = seconds;
        prepared.report.phase_seconds = vec![PhaseTiming::new("cache-load", seconds)];
        return Ok((
            prepared,
            CacheOutcome {
                status: CacheStatus::Hit,
                key,
                path: Some(stage_entry_path(&cache.dir, PREPARED_STAGE, key)),
                stages: Vec::new(),
            },
        ));
    }
    let mut ctx = QueryCtx::at(&cache.dir);
    let mut prepared = pipeline.try_apply_keyed(g, graph_fp, cfg, &mut ctx)?;
    // The store cost is part of this (cold) run's preprocessing bill.
    let store_start = Instant::now();
    let entry = Entry::of(encode_prepared(&prepared));
    let (status, path) = match store_stage(&cache.dir, PREPARED_STAGE, key, &entry) {
        Ok(path) => (CacheStatus::MissStored, Some(path)),
        Err(e) => (CacheStatus::MissStoreFailed(e.to_string()), None),
    };
    prepared.report.phase_seconds.push(PhaseTiming::new(
        "cache-store",
        store_start.elapsed().as_secs_f64(),
    ));
    Ok((
        prepared,
        CacheOutcome {
            status,
            key,
            path,
            stages: ctx.records().to_vec(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs};
    use crate::prepared::Technique;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::serialize;

    fn graph() -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 400, 11).generate()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graffix-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_bit_exact_for_all_techniques() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let pipelines = [
            Pipeline::default().with_coalesce(CoalesceKnobs::default()),
            Pipeline::default().with_latency(LatencyKnobs::default().with_threshold(0.4)),
            Pipeline::default().with_divergence(DivergenceKnobs::default()),
            Pipeline::all_defaults(),
        ];
        for pipe in pipelines {
            let p = pipe.try_apply(&g, &cfg).unwrap();
            let raw = encode_prepared(&p);
            let q = decode_prepared(raw.clone()).unwrap();
            assert_eq!(
                &encode_prepared(&q)[..],
                &raw[..],
                "round-trip must re-serialize byte-identically"
            );
            assert_eq!(q.technique, p.technique);
            assert_eq!(q.assignment, p.assignment);
            assert_eq!(q.tiles.len(), p.tiles.len());
        }
    }

    #[test]
    fn store_then_load_hits_bit_exactly() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let dir = tmp_dir("hit");
        let cache = CacheConfig::at(&dir);
        let pipe = Pipeline::all_defaults();

        let (cold, out_cold) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        assert_eq!(out_cold.status, CacheStatus::MissStored);
        let (warm, out_warm) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        assert_eq!(out_warm.status, CacheStatus::Hit);
        assert_eq!(out_cold.key, out_warm.key);
        assert_eq!(out_cold.path, out_warm.path);
        assert!(out_warm.stages.is_empty(), "a hit runs no stage");

        // Payload identical; only the wall-clock diagnostics (which the
        // codec leaves out) differ.
        assert_eq!(
            warm.report.phase_seconds.len(),
            1,
            "warm run shows only cache-load"
        );
        assert_eq!(warm.report.phase_seconds[0].phase, "cache-load");
        assert_eq!(&encode_prepared(&cold)[..], &encode_prepared(&warm)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_knobs_graphs_and_stages() {
        let key =
            |g: &Csr, p: &Pipeline, cfg: &GpuConfig| p.prepared_key(graph_fingerprint(g), cfg);
        let g = graph();
        let g2 = GraphSpec::new(GraphKind::SocialLiveJournal, 400, 12).generate();
        let cfg = GpuConfig::k40c();
        let base = Pipeline::all_defaults();
        let k0 = key(&g, &base, &cfg);
        assert_ne!(k0, key(&g2, &base, &cfg), "graph must affect the key");
        let mut narrow = cfg.clone();
        narrow.warp_size = 16;
        assert_ne!(k0, key(&g, &base, &narrow), "warp size must affect it");
        let mut small = cfg.clone();
        small.shared_mem_words = 40;
        assert_ne!(k0, key(&g, &base, &small), "shared memory must affect it");
        let tweaked =
            Pipeline::all_defaults().with_coalesce(CoalesceKnobs::default().with_threshold(0.61));
        assert_ne!(k0, key(&g, &tweaked, &cfg), "knobs must affect it");
        let fewer = Pipeline::default().with_coalesce(CoalesceKnobs::default());
        assert_ne!(k0, key(&g, &fewer, &cfg), "stage set must affect it");
        assert_eq!(k0, key(&g, &base, &cfg), "key must be stable");
    }

    /// A result prepared under one `GpuConfig` must never be served under
    /// another whose difference a stage can see: whatever field changes,
    /// the cached answer equals a cold prepare under the changed config.
    #[test]
    fn changed_gpu_config_field_is_never_served_a_stale_result() {
        // Naming every field makes a new one a compile error here.
        let GpuConfig {
            warp_size: _,
            segment_words: _,
            num_sms: _,
            warps_overlap_per_sm: _,
            lat_global: _,
            lat_shared: _,
            lat_l2: _,
            lat_atomic: _,
            issue_cycles: _,
            shared_mem_words: _,
            shared_banks: _,
            clock_hz: _,
        } = GpuConfig::k40c();
        type Change = (&'static str, fn(&mut GpuConfig));
        let changes: [Change; 12] = [
            ("warp_size", |c| c.warp_size = 64),
            ("segment_words", |c| c.segment_words = 16),
            ("num_sms", |c| c.num_sms = 4),
            ("warps_overlap_per_sm", |c| c.warps_overlap_per_sm = 2),
            ("lat_global", |c| c.lat_global = 100),
            ("lat_shared", |c| c.lat_shared = 2),
            ("lat_l2", |c| c.lat_l2 = 40),
            ("lat_atomic", |c| c.lat_atomic = 50),
            ("issue_cycles", |c| c.issue_cycles = 4),
            ("shared_mem_words", |c| c.shared_mem_words = 40),
            ("shared_banks", |c| c.shared_banks = 16),
            ("clock_hz", |c| c.clock_hz = 1.0e9),
        ];
        let g = graph();
        let latency = LatencyKnobs::default().with_threshold(0.4);
        let pipelines = [
            Pipeline::default().with_latency(latency),
            Pipeline::all_defaults().with_latency(latency),
        ];
        for (field, change) in changes {
            let dir = tmp_dir(&format!("gpu-{field}"));
            let cache = CacheConfig::at(&dir);
            let mut changed = GpuConfig::k40c();
            change(&mut changed);
            for pipe in &pipelines {
                prepare_with_cache(&g, pipe, &GpuConfig::k40c(), &cache).unwrap();
                let (got, out) = prepare_with_cache(&g, pipe, &changed, &cache).unwrap();
                let want = pipe.try_apply(&g, &changed).unwrap();
                let what = format!("{field} changed ({})", out.status.label());
                assert_eq!(got.tiles, want.tiles, "{what}: tiles");
                assert_eq!(
                    &serialize::to_bytes(&got.graph)[..],
                    &serialize::to_bytes(&want.graph)[..],
                    "{what}: graph bytes"
                );
                assert_eq!(got.assignment, want.assignment, "{what}: assignment");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_entry_is_a_miss_not_a_panic() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let dir = tmp_dir("corrupt");
        let cache = CacheConfig::at(&dir);
        let pipe = Pipeline::default().with_divergence(DivergenceKnobs::default());
        let (_, out) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        let path = out.path.unwrap();
        std::fs::write(&path, b"GFXSgarbage").unwrap();
        let (_, out2) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        assert_eq!(out2.status, CacheStatus::MissStored);
        let (_, out3) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        assert_eq!(out3.status, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_touches_disk() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let dir = tmp_dir("disabled");
        let cache = CacheConfig {
            dir: dir.clone(),
            enabled: false,
        };
        let pipe = Pipeline::all_defaults();
        let (_, out) = prepare_with_cache(&g, &pipe, &cfg, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::Disabled);
        assert!(!dir.exists(), "disabled cache must not create the dir");
    }

    #[test]
    fn exact_pipeline_bypasses_cache() {
        let g = graph();
        let cfg = GpuConfig::k40c();
        let dir = tmp_dir("exact");
        let cache = CacheConfig::at(&dir);
        let (p, out) = prepare_with_cache(&g, &Pipeline::default(), &cfg, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::Disabled);
        assert_eq!(p.technique, Technique::Exact);
        assert!(!dir.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
