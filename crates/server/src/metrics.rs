//! Server-wide counters, exposed through the `stats` admin op.
//!
//! Everything is a relaxed atomic: metrics are operator diagnostics, not
//! part of any determinism contract. The one counter with a correctness
//! story is `cache_store_failures` — it surfaces
//! [`CacheStatus::MissStoreFailed`](graffix_core::CacheStatus) (e.g. a
//! read-only cache dir), which a CLI user sees in stderr but a daemon
//! operator would otherwise never learn about.

use crate::pool::PoolStats;
use crate::protocol::{ErrorKind, ALL_ERROR_KINDS};
use graffix_sim::Json;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Request lines received (any shape, including malformed).
    pub received: AtomicU64,
    /// Run requests answered with `ok: true`.
    pub completed: AtomicU64,
    /// Error responses by [`ErrorKind::ordinal`].
    errors: [AtomicU64; ALL_ERROR_KINDS.len()],
    /// Run executions started, one per dequeued request. The name is older
    /// than single-request execution; `benchmark/` reads it as
    /// `server.batches`.
    pub batches: AtomicU64,
    /// High-water mark of the admission queue.
    pub queue_peak: AtomicU64,
    /// Admin ops served.
    pub admin_ops: AtomicU64,
    /// `mutate` ops applied successfully.
    pub mutations: AtomicU64,
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    pub fn count_error(&self, kind: ErrorKind) {
        self.errors[kind.ordinal()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn error_count(&self, kind: ErrorKind) -> u64 {
        self.errors[kind.ordinal()].load(Ordering::Relaxed)
    }

    /// Raises the queue high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// The `stats` result document. `pool` accounting rides along so one
    /// round trip answers both "how busy" and "how warm".
    pub fn to_json(&self, pool: PoolStats, pool_len: usize, pool_capacity: usize) -> Json {
        let mut m = Json::obj();
        m.set("received", Json::U64(self.received.load(Ordering::Relaxed)));
        m.set(
            "completed",
            Json::U64(self.completed.load(Ordering::Relaxed)),
        );
        m.set(
            "admin_ops",
            Json::U64(self.admin_ops.load(Ordering::Relaxed)),
        );
        m.set(
            "mutations",
            Json::U64(self.mutations.load(Ordering::Relaxed)),
        );
        m.set("batches", Json::U64(self.batches.load(Ordering::Relaxed)));
        m.set(
            "queue_peak",
            Json::U64(self.queue_peak.load(Ordering::Relaxed)),
        );
        let mut errors = Json::obj();
        for kind in ALL_ERROR_KINDS {
            errors.set(kind.label(), Json::U64(self.error_count(kind)));
        }
        m.set("errors", errors);
        // Operator warning: preparations that could not be persisted to the
        // disk cache (they will be re-prepared after every pool eviction).
        m.set("cache_store_failures", Json::U64(pool.store_failures));

        let mut p = Json::obj();
        p.set("size", Json::U64(pool_len as u64));
        p.set("capacity", Json::U64(pool_capacity as u64));
        p.set("hits", Json::U64(pool.hits));
        p.set("misses", Json::U64(pool.misses));
        p.set("evictions", Json::U64(pool.evictions));
        p.set("invalidations", Json::U64(pool.invalidations));

        let mut root = Json::obj();
        root.set("op", Json::Str("stats".to_string()));
        root.set("metrics", m);
        root.set("pool", p);
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_document_carries_every_error_kind() {
        let m = ServerMetrics::new();
        m.count_error(ErrorKind::Overloaded);
        m.count_error(ErrorKind::Overloaded);
        m.observe_queue_depth(5);
        m.observe_queue_depth(3);
        let doc = m.to_json(PoolStats::default(), 1, 4);
        assert_eq!(
            doc.path(&["metrics", "errors", "overloaded"])
                .unwrap()
                .as_u64(),
            Some(2)
        );
        for kind in ALL_ERROR_KINDS {
            assert!(doc.path(&["metrics", "errors", kind.label()]).is_some());
        }
        assert_eq!(
            doc.path(&["metrics", "queue_peak"]).unwrap().as_u64(),
            Some(5)
        );
        assert_eq!(doc.path(&["pool", "capacity"]).unwrap().as_u64(), Some(4));
    }
}
