//! The shared prepared-graph pool: a capacity-bounded LRU of hot
//! [`Prepared`] graphs, backed by the content-addressed disk cache.
//!
//! The pool is what makes the daemon worth running: the (stage-cached)
//! preparation cost is paid once per `(graph, technique, threshold)` key
//! and amortized across every subsequent request. A miss loads the graph
//! from its registered source, prepares it through
//! [`prepare_with_cache`] (so a previous process's disk entries are
//! reused), and inserts it; when the pool is over capacity the
//! least-recently-used entry is evicted — it can always be rebuilt from
//! the disk cache at roughly deserialization cost.
//!
//! Accounting invariants (pinned by `tests/pool_property.rs`):
//!
//! * `len() <= capacity` at every quiescent point;
//! * `hits + misses == checkouts`;
//! * `misses == evictions + len()` (every miss inserts exactly one entry;
//!   every eviction removes exactly one).
//!
//! Loads happen **under the pool lock**: concurrent requests for the same
//! missing key never duplicate work (single-flight by construction), at
//! the price of serializing cold loads. Hot checkouts only clone two
//! `Arc`s.

use crate::protocol::{ErrorKind, ServeError};
use crate::registry::GraphRegistry;
use graffix_core::{
    prepare_with_cache, technique_pipeline, CacheConfig, CacheStatus, Pipeline, Prepared,
    StageRecord, Technique,
};
use graffix_graph::mutation::{BatchOutcome, EdgeBatch};
use graffix_graph::{Csr, Segmentation};
use graffix_sim::GpuConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of one pooled preparation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PoolKey {
    pub graph: String,
    pub technique: Technique,
    /// Threshold override as raw bits (`u64::MAX` when absent) so the key
    /// stays `Eq + Hash` without float comparisons.
    pub threshold_bits: u64,
}

impl PoolKey {
    pub fn new(graph: &str, technique: Technique, threshold: Option<f64>) -> PoolKey {
        PoolKey {
            graph: graph.to_string(),
            technique,
            threshold_bits: threshold.map_or(u64::MAX, f64::to_bits),
        }
    }
}

/// [`technique_pipeline`] under a technique key (`None` for `exact` and for
/// a key that names no technique). The daemon itself passes a typed
/// [`Technique`]; this alias stays only because `benchmark/` fills its disk
/// cache through it with a string, until that package's contract is re-cut.
pub fn pipeline_for_request(g: &Csr, technique: &str, threshold: Option<f64>) -> Option<Pipeline> {
    Technique::from_key(technique).and_then(|t| technique_pipeline(g, t, threshold))
}

struct PoolEntry {
    original: Arc<Csr>,
    prepared: Arc<Prepared>,
    /// Cache-sized partition of the prepared graph, built once per entry
    /// when the pool runs with a segment budget.
    segments: Option<Arc<Segmentation>>,
    /// LRU clock value at last touch.
    tick: u64,
}

/// Cumulative pool accounting, exposed through server metrics and the
/// `stats` admin op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Pool entries retired by a graph mutation (distinct from LRU
    /// `evictions`, which the capacity invariants count).
    pub invalidations: u64,
    /// Preparations whose disk-cache store failed (e.g. read-only cache
    /// dir). The request still succeeds; this is the operator warning
    /// counter.
    pub store_failures: u64,
}

/// What one checkout observed — the `serving` metadata source.
#[derive(Clone, Debug)]
pub struct Checkout {
    pub original: Arc<Csr>,
    pub prepared: Arc<Prepared>,
    /// True when served from the in-memory pool (no preparation ran).
    pub pool_hit: bool,
    /// Disk-cache status label of the preparation (`pooled` on a pool
    /// hit — the disk was not consulted).
    pub cache: String,
    /// The io error behind a `miss (store failed)`, for response metadata.
    pub store_warning: Option<String>,
    /// Per-stage records from the memoized query graph (empty on pool
    /// hits and on hits of the terminal `prepared` entry).
    pub stages: Vec<StageRecord>,
    /// Shared segmentation of the prepared graph (present iff the pool was
    /// built with a segment budget) — workers attach it to their plans for
    /// segment-major execution.
    pub segments: Option<Arc<Segmentation>>,
}

struct Inner {
    entries: HashMap<PoolKey, PoolEntry>,
    /// Post-mutation graphs by name. A checkout miss consults this before
    /// the registry source, so mutations survive LRU eviction of every
    /// prepared entry.
    overlays: HashMap<String, Arc<Csr>>,
    clock: u64,
    stats: PoolStats,
}

/// The capacity-bounded LRU pool.
pub struct PreparedPool {
    capacity: usize,
    gpu: GpuConfig,
    cache: CacheConfig,
    /// Segment byte budget; entries carry a shared [`Segmentation`] of
    /// their prepared graph when set.
    segment_bytes: Option<usize>,
    inner: Mutex<Inner>,
}

impl PreparedPool {
    /// An empty pool holding at most `capacity` prepared graphs (min 1).
    pub fn new(capacity: usize, gpu: GpuConfig, cache: CacheConfig) -> PreparedPool {
        PreparedPool {
            capacity: capacity.max(1),
            gpu,
            cache,
            segment_bytes: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                overlays: HashMap::new(),
                clock: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Sets the segment byte budget: every subsequent miss also builds the
    /// prepared graph's [`Segmentation`] and shares it across checkouts.
    pub fn with_segment_bytes(mut self, bytes: Option<usize>) -> PreparedPool {
        self.segment_bytes = bytes;
        self
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Checks the preparation for `key` out of the pool, loading and
    /// preparing it on a miss (and evicting the LRU entry if that pushes
    /// the pool over capacity).
    pub fn checkout(
        &self,
        key: &PoolKey,
        registry: &GraphRegistry,
    ) -> Result<Checkout, ServeError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let tick = inner.clock;
        if let Some(entry) = inner.entries.get_mut(key) {
            entry.tick = tick;
            let out = Checkout {
                original: Arc::clone(&entry.original),
                prepared: Arc::clone(&entry.prepared),
                pool_hit: true,
                cache: "pooled".to_string(),
                store_warning: None,
                stages: Vec::new(),
                segments: entry.segments.clone(),
            };
            inner.stats.hits += 1;
            return Ok(out);
        }
        inner.stats.misses += 1;

        let source = registry.get(&key.graph).ok_or_else(|| {
            ServeError::new(
                ErrorKind::UnknownGraph,
                format!("graph `{}` is not registered", key.graph),
            )
        })?;
        // A mutated graph lives in the overlay; the registry source only
        // provides the pristine bytes.
        let original = match inner.overlays.get(&key.graph) {
            Some(g) => Arc::clone(g),
            None => Arc::new(source.load().map_err(|e| {
                ServeError::new(
                    ErrorKind::GraphLoad,
                    format!("could not load graph `{}`: {e}", key.graph),
                )
            })?),
        };

        let threshold =
            (key.threshold_bits != u64::MAX).then(|| f64::from_bits(key.threshold_bits));
        let (prepared, cache, store_warning, stages) =
            match technique_pipeline(&original, key.technique, threshold) {
                None => (
                    Prepared::exact((*original).clone()),
                    "exact (not cached)".to_string(),
                    None,
                    Vec::new(),
                ),
                Some(pipeline) => {
                    let (prepared, outcome) =
                        prepare_with_cache(&original, &pipeline, &self.gpu, &self.cache).map_err(
                            |e| {
                                ServeError::new(
                                    ErrorKind::BadRequest,
                                    format!("invalid transform configuration: {e}"),
                                )
                            },
                        )?;
                    let warning = match &outcome.status {
                        CacheStatus::MissStoreFailed(detail) => {
                            inner.stats.store_failures += 1;
                            Some(detail.clone())
                        }
                        _ => None,
                    };
                    (
                        prepared,
                        outcome.status.label().to_string(),
                        warning,
                        outcome.stages,
                    )
                }
            };
        let prepared = Arc::new(prepared);
        let segments = self
            .segment_bytes
            .map(|bytes| Arc::new(Segmentation::build(&prepared.graph, bytes)));

        inner.entries.insert(
            key.clone(),
            PoolEntry {
                original: Arc::clone(&original),
                prepared: Arc::clone(&prepared),
                segments: segments.clone(),
                tick,
            },
        );
        while inner.entries.len() > self.capacity {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("over-capacity pool is non-empty");
            inner.entries.remove(&lru);
            inner.stats.evictions += 1;
        }
        Ok(Checkout {
            original,
            prepared,
            pool_hit: false,
            cache,
            store_warning,
            stages,
            segments,
        })
    }

    /// Applies an edge batch to `graph`'s current view (overlay if it was
    /// mutated before, registry source otherwise), stores the result as the
    /// new overlay, and retires every pooled preparation of that graph —
    /// they were built from the pre-mutation bytes. Returns the batch
    /// outcome and the number of entries invalidated. On error (unknown
    /// graph, unloadable source, invalid batch) nothing changes.
    pub fn mutate(
        &self,
        graph: &str,
        batch: &EdgeBatch,
        registry: &GraphRegistry,
    ) -> Result<(BatchOutcome, usize), ServeError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut g: Csr = match inner.overlays.get(graph) {
            Some(a) => (**a).clone(),
            None => {
                let source = registry.get(graph).ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::UnknownGraph,
                        format!("graph `{graph}` is not registered"),
                    )
                })?;
                source.load().map_err(|e| {
                    ServeError::new(
                        ErrorKind::GraphLoad,
                        format!("could not load graph `{graph}`: {e}"),
                    )
                })?
            }
        };
        let outcome = g.apply_batch(batch).map_err(|e| {
            ServeError::new(
                ErrorKind::BadMutation,
                format!("cannot apply batch to `{graph}`: {e}"),
            )
        })?;
        inner.overlays.insert(graph.to_string(), Arc::new(g));
        let before = inner.entries.len();
        inner.entries.retain(|k, _| k.graph != graph);
        let dropped = before - inner.entries.len();
        inner.stats.invalidations += dropped as u64;
        Ok((outcome, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphSource;

    fn registry(n: usize) -> GraphRegistry {
        let mut reg = GraphRegistry::new();
        for i in 0..n {
            reg.insert_entry(&format!("g{i}=rmat:300:{}", i + 1))
                .unwrap();
        }
        reg
    }

    fn pool(capacity: usize) -> PreparedPool {
        PreparedPool::new(capacity, GpuConfig::k40c(), CacheConfig::disabled())
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let reg = registry(1);
        let p = pool(2);
        let key = PoolKey::new("g0", Technique::Exact, None);
        let a = p.checkout(&key, &reg).unwrap();
        assert!(!a.pool_hit);
        let b = p.checkout(&key, &reg).unwrap();
        assert!(b.pool_hit);
        assert!(Arc::ptr_eq(&a.prepared, &b.prepared));
        assert_eq!(b.cache, "pooled");
        assert_eq!(
            p.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                invalidations: 0,
                store_failures: 0
            }
        );
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let reg = registry(3);
        let p = pool(2);
        let k0 = PoolKey::new("g0", Technique::Exact, None);
        let k1 = PoolKey::new("g1", Technique::Exact, None);
        let k2 = PoolKey::new("g2", Technique::Exact, None);
        p.checkout(&k0, &reg).unwrap();
        p.checkout(&k1, &reg).unwrap();
        p.checkout(&k0, &reg).unwrap(); // g0 now most recent
        p.checkout(&k2, &reg).unwrap(); // evicts g1 (LRU)
        assert_eq!(p.len(), 2);
        assert!(p.checkout(&k0, &reg).unwrap().pool_hit, "g0 must survive");
        assert!(!p.checkout(&k1, &reg).unwrap().pool_hit, "g1 was evicted");
    }

    #[test]
    fn unknown_graph_is_typed() {
        let reg = registry(1);
        let p = pool(1);
        let err = p
            .checkout(&PoolKey::new("nope", Technique::Exact, None), &reg)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownGraph);
        // A failed checkout must not count as an insert.
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn unreadable_file_is_typed_graph_load() {
        let mut reg = GraphRegistry::new();
        reg.insert("bad", GraphSource::File("/definitely/not/here.gfx".into()));
        let err = pool(1)
            .checkout(&PoolKey::new("bad", Technique::Exact, None), &reg)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::GraphLoad);
    }

    /// A registered file that an earlier coalescing transform wrote carries
    /// holes. Asking the daemon to coalesce it used to panic inside
    /// `checkout` — under the pool lock, killing the worker; it is a typed
    /// `bad-request` that names the holes, inserts nothing, and leaves the
    /// pool serving.
    #[test]
    fn coalescing_a_hole_bearing_file_is_a_bad_request_and_the_pool_lives() {
        let g = GraphSource::parse("rmat:300:1").unwrap().load().unwrap();
        let holey = Pipeline::default()
            .with_coalesce(Default::default())
            .apply(&g, &GpuConfig::k40c())
            .graph;
        assert!(holey.has_holes());
        let path =
            std::env::temp_dir().join(format!("graffix-pool-holey-{}.gfx", std::process::id()));
        graffix_graph::serialize::save_binary(&holey, &path).unwrap();
        let mut reg = GraphRegistry::new();
        reg.insert("holey", GraphSource::File(path.clone()));

        let p = pool(2);
        for technique in [Technique::Coalescing, Technique::Combined] {
            let err = p
                .checkout(&PoolKey::new("holey", technique, None), &reg)
                .unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{technique:?}");
            assert!(
                err.message
                    .contains(&format!("{} of the", holey.num_holes())),
                "{}",
                err.message
            );
        }
        assert_eq!(p.len(), 0, "a refused checkout inserts nothing");
        let next = p
            .checkout(&PoolKey::new("holey", Technique::Divergence, None), &reg)
            .unwrap();
        assert!(!next.pool_hit);
        assert_eq!(next.original.num_holes(), holey.num_holes());
        assert_eq!((p.stats().misses, p.len()), (3, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutation_invalidates_pooled_entries_and_persists() {
        let reg = registry(2);
        let p = pool(4);
        let k_exact = PoolKey::new("g0", Technique::Exact, None);
        let k_div = PoolKey::new("g0", Technique::Divergence, None);
        let k_other = PoolKey::new("g1", Technique::Exact, None);
        let before = p.checkout(&k_exact, &reg).unwrap();
        p.checkout(&k_div, &reg).unwrap();
        p.checkout(&k_other, &reg).unwrap();

        let mut batch = EdgeBatch::new();
        batch.insert(0, 7, 1);
        batch.insert(7, 0, 1);
        let (outcome, dropped) = p.mutate("g0", &batch, &reg).unwrap();
        assert_eq!(dropped, 2, "both g0 preparations retire");
        assert!(!outcome.inserted.is_empty() || outcome.reweighted > 0);
        assert_eq!(p.stats().invalidations, 2);
        assert_eq!(p.len(), 1, "g1 is untouched");

        // The next checkout re-prepares from the overlay, not the source.
        let after = p.checkout(&k_exact, &reg).unwrap();
        assert!(!after.pool_hit);
        assert!(after.original.has_edge(0, 7), "mutation must be visible");
        assert!(!before.original.has_edge(0, 7), "old Arc is untouched");

        // A second mutation stacks on the first overlay.
        let mut batch2 = EdgeBatch::new();
        batch2.delete(0, 7);
        p.mutate("g0", &batch2, &reg).unwrap();
        let third = p.checkout(&k_exact, &reg).unwrap();
        assert!(!third.original.has_edge(0, 7));
        assert!(
            third.original.has_edge(7, 0),
            "first batch's mirror arc survives"
        );
    }

    #[test]
    fn mutation_errors_are_typed_and_leave_state_alone() {
        let reg = registry(1);
        let p = pool(2);
        let err = p.mutate("nope", &EdgeBatch::new(), &reg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownGraph);

        // Out-of-range endpoint: typed BadMutation, pool untouched.
        p.checkout(&PoolKey::new("g0", Technique::Exact, None), &reg)
            .unwrap();
        let mut bad = EdgeBatch::new();
        bad.insert(0, 1_000_000, 1); // far beyond the 300-node graph
        let err = p.mutate("g0", &bad, &reg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadMutation);
        assert_eq!(p.len(), 1, "failed mutation must not invalidate");
        assert_eq!(p.stats().invalidations, 0);
    }

    #[test]
    fn segment_budget_builds_one_shared_segmentation_per_entry() {
        let reg = registry(1);
        let p = PreparedPool::new(2, GpuConfig::k40c(), CacheConfig::disabled())
            .with_segment_bytes(Some(2048));
        let key = PoolKey::new("g0", Technique::Exact, None);
        let a = p.checkout(&key, &reg).unwrap();
        let segs = a.segments.expect("segment budget set");
        assert!(segs.len() > 1, "2 KiB budget must split a 300-node rmat");
        assert_eq!(
            segs.segments().last().unwrap().end as usize,
            a.prepared.graph.num_nodes()
        );
        // A pool hit shares the same Arc — no per-request rebuild.
        let b = p.checkout(&key, &reg).unwrap();
        assert!(Arc::ptr_eq(&segs, b.segments.as_ref().unwrap()));
        // Without a budget, checkouts carry no segmentation.
        let bare = pool(2).checkout(&key, &reg).unwrap();
        assert!(bare.segments.is_none());
    }

    #[test]
    fn threshold_distinguishes_keys() {
        assert_ne!(
            PoolKey::new("g", Technique::Coalescing, Some(0.5)),
            PoolKey::new("g", Technique::Coalescing, Some(0.6))
        );
        assert_ne!(
            PoolKey::new("g", Technique::Coalescing, Some(0.5)),
            PoolKey::new("g", Technique::Coalescing, None)
        );
    }
}
