//! Content-addressed prepared-graph disk cache ("GFXP").
//!
//! Preprocessing is the one-time cost the paper's whole pitch amortizes —
//! so amortize it across *processes* too: a [`Prepared`] graph is fully
//! determined by (input graph bytes, enabled knobs, warp size, pipeline
//! code version), which makes it content-addressable. Entries live under a
//! cache directory (default `target/graffix-cache/`) as
//! `{key:016x}.gfxp` files; the key is an FNV-1a 64-bit hash over exactly
//! those inputs, so editing any knob, the graph, or bumping
//! [`PIPELINE_VERSION`] after a behavior change makes old entries
//! unreachable (stale files are simply never read again — eviction is
//! `rm -r`).
//!
//! Round-trip fidelity is bit-exact: [`to_bytes`] / [`from_bytes`]
//! serialize every field, with f64s stored as raw bit patterns, so a cache
//! hit yields a `Prepared` whose re-serialization is byte-identical to
//! what was stored (tested). [`prepare_with_cache`] only rewrites the
//! wall-clock diagnostics (`preprocess_seconds`, `phase_seconds`) on a
//! hit — run reports never contain those, so cold and warm runs stay
//! byte-identical.
//!
//! Beneath the whole-blob entries, the same directory holds **per-stage**
//! entries (`{stage}-{key:016x}.gfxs`, see [`crate::query`]) written by the
//! memoized query graph in [`crate::pipeline`]: when the whole-blob lookup
//! misses (say, one knob changed), the staged run still reuses every
//! intermediate upstream of that knob instead of starting from scratch.

use crate::confluence::ConfluenceOp;
use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs};
use crate::pipeline::{Pipeline, PipelineError};
use crate::prepared::{PhaseTiming, Prepared, StageReport, Technique, Tile, TransformReport};
use crate::query::{Fingerprint, QueryCtx, StageRecord};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use graffix_graph::{serialize, Csr, NodeId};
use graffix_sim::GpuConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 4] = b"GFXP";

/// Bumped whenever any transform's output for the same (graph, knobs)
/// changes or a stage payload changes shape, so stale cache entries can
/// never resurface old behavior. 2: the `cc` stage stores integer triangle
/// counts where it stored `f64` coefficients (same length, other meaning).
pub const PIPELINE_VERSION: u32 = 2;

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
    /// Content key of the (graph, knobs, warp size, version) tuple.
    pub key: u64,
    /// Entry file, when one was read or written.
    pub path: Option<PathBuf>,
    /// Per-stage hit/cutoff/recomputed records from the memoized query
    /// graph. Empty on a whole-blob hit (no stage ran) and when caching is
    /// disabled (the null context records nothing worth surfacing).
    pub stages: Vec<StageRecord>,
}

/// Content key of a preparation request. Hashes the pipeline code version,
/// the warp size (it shapes chunking and normalization), the full GFX1
/// serialization of the input graph, and — for each *enabled* stage, in
/// application order — a stage tag plus every knob field (f64s as raw
/// bits). Disabled stages contribute nothing, so `--coalesce` alone and
/// `--coalesce --latency` never collide with each other's entries.
pub fn cache_key(g: &Csr, pipeline: &Pipeline, warp_size: usize) -> u64 {
    let mut h = Fingerprint::new();
    h.write(MAGIC);
    h.write(&PIPELINE_VERSION.to_le_bytes());
    h.write_u64(warp_size as u64);
    h.write(&serialize::to_bytes(g));
    if let Some(k) = &pipeline.coalesce {
        let CoalesceKnobs {
            chunk_size,
            threshold,
            max_replicas_per_node,
        } = *k;
        h.write(b"C");
        h.write_u64(chunk_size as u64);
        h.write_f64(threshold);
        h.write_u64(max_replicas_per_node as u64);
    }
    if let Some(k) = &pipeline.latency {
        let LatencyKnobs {
            cc_threshold,
            margin,
            edge_budget_frac,
            t_diameter_factor,
        } = *k;
        h.write(b"L");
        h.write_f64(cc_threshold);
        h.write_f64(margin);
        h.write_f64(edge_budget_frac);
        h.write_u64(t_diameter_factor as u64);
    }
    if let Some(k) = &pipeline.divergence {
        let DivergenceKnobs {
            degree_sim_threshold,
            fill_fraction,
            edge_budget_frac,
        } = *k;
        h.write(b"D");
        h.write_f64(degree_sim_threshold);
        h.write_f64(fill_fraction);
        h.write_f64(edge_budget_frac);
    }
    h.finish()
}

/// Cache entry file for `key` under `dir`.
pub fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.gfxp"))
}

fn technique_ordinal(t: Technique) -> u8 {
    match t {
        Technique::Exact => 0,
        Technique::Coalescing => 1,
        Technique::Latency => 2,
        Technique::Divergence => 3,
        Technique::Combined => 4,
    }
}

fn technique_from_ordinal(o: u8) -> Option<Technique> {
    Some(match o {
        0 => Technique::Exact,
        1 => Technique::Coalescing,
        2 => Technique::Latency,
        3 => Technique::Divergence,
        4 => Technique::Combined,
        _ => return None,
    })
}

fn confluence_ordinal(op: ConfluenceOp) -> u8 {
    match op {
        ConfluenceOp::Mean => 0,
        ConfluenceOp::Min => 1,
        ConfluenceOp::Max => 2,
        ConfluenceOp::Sum => 3,
    }
}

fn confluence_from_ordinal(o: u8) -> Option<ConfluenceOp> {
    Some(match o {
        0 => ConfluenceOp::Mean,
        1 => ConfluenceOp::Min,
        2 => ConfluenceOp::Max,
        3 => ConfluenceOp::Sum,
        _ => return None,
    })
}

fn put_ids(buf: &mut BytesMut, ids: &[NodeId]) {
    buf.put_u64_le(ids.len() as u64);
    for &v in ids {
        buf.put_u32_le(v);
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64_le(v.to_bits());
}

/// Serializes a full [`Prepared`] (graph as embedded GFX1, every derived
/// map, the report with timings as raw f64 bits).
pub fn to_bytes(p: &Prepared) -> Bytes {
    let graph = serialize::to_bytes(&p.graph);
    let mut buf = BytesMut::with_capacity(64 + graph.len() + p.assignment.len() * 12);
    buf.put_slice(MAGIC);
    buf.put_u32_le(PIPELINE_VERSION);
    buf.put_u8(technique_ordinal(p.technique));
    buf.put_u8(confluence_ordinal(p.confluence));
    buf.put_u64_le(graph.len() as u64);
    buf.put_slice(&graph);
    put_ids(&mut buf, &p.assignment);
    put_ids(&mut buf, &p.to_original);
    put_ids(&mut buf, &p.primary);
    buf.put_u64_le(p.replica_groups.len() as u64);
    for (orig, members) in &p.replica_groups {
        buf.put_u32_le(*orig);
        put_ids(&mut buf, members);
    }
    buf.put_u64_le(p.tiles.len() as u64);
    for tile in &p.tiles {
        buf.put_u32_le(tile.center);
        buf.put_u64_le(tile.iterations as u64);
        put_ids(&mut buf, &tile.nodes);
    }
    let r = &p.report;
    put_str(&mut buf, &r.technique_label);
    put_f64(&mut buf, r.preprocess_seconds);
    for v in [
        r.original_nodes,
        r.original_edges,
        r.new_nodes,
        r.new_edges,
        r.holes_created,
        r.holes_filled,
        r.replicas,
        r.edges_added,
    ] {
        buf.put_u64_le(v as u64);
    }
    put_f64(&mut buf, r.space_overhead);
    buf.put_u64_le(r.stages.len() as u64);
    for s in &r.stages {
        put_str(&mut buf, &s.transform);
        buf.put_u64_le(s.replicas as u64);
        buf.put_u64_le(s.edges_added as u64);
        buf.put_u64_le(s.edge_budget_arcs as u64);
    }
    buf.put_u64_le(r.phase_seconds.len() as u64);
    for t in &r.phase_seconds {
        put_str(&mut buf, &t.phase);
        put_f64(&mut buf, t.seconds);
    }
    buf.freeze()
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("gfxp: {msg}"))
}

fn get_len(bytes: &mut Bytes, what: &str) -> io::Result<usize> {
    if bytes.remaining() < 8 {
        return Err(invalid(&format!("truncated {what} length")));
    }
    Ok(bytes.get_u64_le() as usize)
}

fn get_ids(bytes: &mut Bytes, what: &str) -> io::Result<Vec<NodeId>> {
    let len = get_len(bytes, what)?;
    if bytes.remaining() < len * 4 {
        return Err(invalid(&format!("truncated {what}")));
    }
    Ok((0..len).map(|_| bytes.get_u32_le()).collect())
}

fn get_str(bytes: &mut Bytes, what: &str) -> io::Result<String> {
    let len = get_len(bytes, what)?;
    if bytes.remaining() < len {
        return Err(invalid(&format!("truncated {what}")));
    }
    let mut raw = vec![0u8; len];
    bytes.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| invalid(&format!("non-utf8 {what}")))
}

fn get_f64(bytes: &mut Bytes, what: &str) -> io::Result<f64> {
    if bytes.remaining() < 8 {
        return Err(invalid(&format!("truncated {what}")));
    }
    Ok(f64::from_bits(bytes.get_u64_le()))
}

/// Deserializes a [`Prepared`]; structural consistency is re-validated so a
/// corrupt or truncated entry surfaces as `InvalidData`, never a panic.
pub fn from_bytes(mut bytes: Bytes) -> io::Result<Prepared> {
    if bytes.remaining() < 10 {
        return Err(invalid("truncated header"));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(invalid("bad magic (not a GFXP entry)"));
    }
    let version = bytes.get_u32_le();
    if version != PIPELINE_VERSION {
        return Err(invalid(&format!(
            "pipeline version {version} != {PIPELINE_VERSION}"
        )));
    }
    let technique =
        technique_from_ordinal(bytes.get_u8()).ok_or_else(|| invalid("unknown technique"))?;
    let confluence =
        confluence_from_ordinal(bytes.get_u8()).ok_or_else(|| invalid("unknown confluence op"))?;
    let graph_len = get_len(&mut bytes, "graph")?;
    if bytes.remaining() < graph_len {
        return Err(invalid("truncated graph"));
    }
    let graph_bytes = bytes.slice(0..graph_len);
    let mut rest = bytes.slice(graph_len..bytes.remaining());
    let graph = serialize::from_bytes(graph_bytes)?;
    let bytes = &mut rest;

    let assignment = get_ids(bytes, "assignment")?;
    let to_original = get_ids(bytes, "to_original")?;
    let primary = get_ids(bytes, "primary")?;
    let n_groups = get_len(bytes, "replica_groups")?;
    let mut replica_groups = Vec::with_capacity(n_groups.min(1 << 20));
    for _ in 0..n_groups {
        if bytes.remaining() < 4 {
            return Err(invalid("truncated replica group"));
        }
        let orig = bytes.get_u32_le();
        let members = get_ids(bytes, "replica members")?;
        replica_groups.push((orig, members));
    }
    let n_tiles = get_len(bytes, "tiles")?;
    let mut tiles = Vec::with_capacity(n_tiles.min(1 << 20));
    for _ in 0..n_tiles {
        if bytes.remaining() < 12 {
            return Err(invalid("truncated tile"));
        }
        let center = bytes.get_u32_le();
        let iterations = bytes.get_u64_le() as usize;
        let nodes = get_ids(bytes, "tile nodes")?;
        tiles.push(Tile {
            center,
            nodes,
            iterations,
        });
    }
    let technique_label = get_str(bytes, "technique label")?;
    let preprocess_seconds = get_f64(bytes, "preprocess seconds")?;
    if bytes.remaining() < 8 * 8 {
        return Err(invalid("truncated report counters"));
    }
    let mut counters = [0usize; 8];
    for c in counters.iter_mut() {
        *c = bytes.get_u64_le() as usize;
    }
    let space_overhead = get_f64(bytes, "space overhead")?;
    let n_stages = get_len(bytes, "stages")?;
    let mut stages = Vec::with_capacity(n_stages.min(1 << 10));
    for _ in 0..n_stages {
        let transform = get_str(bytes, "stage transform")?;
        if bytes.remaining() < 24 {
            return Err(invalid("truncated stage"));
        }
        stages.push(StageReport {
            transform,
            replicas: bytes.get_u64_le() as usize,
            edges_added: bytes.get_u64_le() as usize,
            edge_budget_arcs: bytes.get_u64_le() as usize,
        });
    }
    let n_phases = get_len(bytes, "phase timings")?;
    let mut phase_seconds = Vec::with_capacity(n_phases.min(1 << 10));
    for _ in 0..n_phases {
        let phase = get_str(bytes, "phase name")?;
        let seconds = get_f64(bytes, "phase seconds")?;
        phase_seconds.push(PhaseTiming { phase, seconds });
    }
    if bytes.remaining() != 0 {
        return Err(invalid("trailing bytes"));
    }

    let prepared = Prepared {
        graph,
        assignment,
        to_original,
        primary,
        replica_groups,
        tiles,
        confluence,
        technique,
        report: TransformReport {
            technique_label,
            preprocess_seconds,
            phase_seconds,
            original_nodes: counters[0],
            original_edges: counters[1],
            new_nodes: counters[2],
            new_edges: counters[3],
            holes_created: counters[4],
            holes_filled: counters[5],
            replicas: counters[6],
            edges_added: counters[7],
            space_overhead,
            stages,
        },
    };
    prepared
        .validate()
        .map_err(|e| invalid(&format!("inconsistent entry: {e}")))?;
    Ok(prepared)
}

/// Loads the entry for `key`, or `None` when absent/unreadable/corrupt (a
/// corrupt entry is a miss, not an error — it will be overwritten).
pub fn load(dir: &Path, key: u64) -> Option<Prepared> {
    let raw = std::fs::read(entry_path(dir, key)).ok()?;
    from_bytes(Bytes::from(raw)).ok()
}

/// Stores `p` under `key`, atomically (tmp file + rename) so concurrent
/// readers never observe a half-written entry.
pub fn store(dir: &Path, key: u64, p: &Prepared) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = entry_path(dir, key);
    let tmp = dir.join(format!("{key:016x}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, to_bytes(p))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Applies `pipeline` through the cache: on a whole-blob hit the stored
/// `Prepared` is returned (payload bit-identical to the cold computation)
/// with its wall-clock diagnostics rewritten to the actual load time, so
/// the phase breakdown shows a single `cache-load` entry; on a miss the
/// pipeline runs as a memoized query graph over per-stage entries in the
/// same directory — a one-knob change reuses every stage upstream of the
/// knob — and the final result is stored as a whole blob (a failed store
/// degrades gracefully, carrying the io error in the status). Exact
/// (no-stage) pipelines bypass the cache — there is nothing to amortize.
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
    let key = cache_key(g, pipeline, cfg.warp_size);
    let start = Instant::now();
    if let Some(mut prepared) = load(&cache.dir, key) {
        let seconds = start.elapsed().as_secs_f64();
        prepared.report.preprocess_seconds = seconds;
        prepared.report.phase_seconds = vec![PhaseTiming::new("cache-load", seconds)];
        return Ok((
            prepared,
            CacheOutcome {
                status: CacheStatus::Hit,
                key,
                path: Some(entry_path(&cache.dir, key)),
                stages: Vec::new(),
            },
        ));
    }
    let mut ctx = QueryCtx::at(&cache.dir);
    let mut prepared = pipeline.try_apply_with(g, cfg, &mut ctx)?;
    let store_start = Instant::now();
    let (status, path) = match store(&cache.dir, key, &prepared) {
        Ok(path) => (CacheStatus::MissStored, Some(path)),
        Err(e) => (CacheStatus::MissStoreFailed(e.to_string()), None),
    };
    // The store cost is part of this (cold) run's preprocessing bill; it
    // is recorded *after* the entry is written so the stored entry keeps
    // only the transform phases.
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
    use graffix_graph::generators::{GraphKind, GraphSpec};

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
            let raw = to_bytes(&p);
            let q = from_bytes(raw.slice(0..raw.len())).unwrap();
            assert_eq!(
                &to_bytes(&q)[..],
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

        // Payload identical; only the wall-clock diagnostics differ.
        let mut a = cold;
        let mut b = warm;
        assert_eq!(
            b.report.phase_seconds.len(),
            1,
            "warm run shows only cache-load"
        );
        assert_eq!(b.report.phase_seconds[0].phase, "cache-load");
        a.report.preprocess_seconds = 0.0;
        a.report.phase_seconds.clear();
        b.report.preprocess_seconds = 0.0;
        b.report.phase_seconds.clear();
        assert_eq!(&to_bytes(&a)[..], &to_bytes(&b)[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_knobs_graphs_and_stages() {
        let g = graph();
        let g2 = GraphSpec::new(GraphKind::SocialLiveJournal, 400, 12).generate();
        let base = Pipeline::all_defaults();
        let k0 = cache_key(&g, &base, 32);
        assert_ne!(k0, cache_key(&g2, &base, 32), "graph must affect the key");
        assert_ne!(k0, cache_key(&g, &base, 16), "warp size must affect it");
        let tweaked =
            Pipeline::all_defaults().with_coalesce(CoalesceKnobs::default().with_threshold(0.61));
        assert_ne!(k0, cache_key(&g, &tweaked, 32), "knobs must affect it");
        let fewer = Pipeline::default().with_coalesce(CoalesceKnobs::default());
        assert_ne!(k0, cache_key(&g, &fewer, 32), "stage set must affect it");
        assert_eq!(k0, cache_key(&g, &base, 32), "key must be stable");
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
        std::fs::write(&path, b"GFXPgarbage").unwrap();
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
