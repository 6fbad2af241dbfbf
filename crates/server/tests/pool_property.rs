//! LRU pool property sweep (satellite 2).
//!
//! Seeded random checkout streams over N graphs with pool capacity < N:
//!
//! * the pool never exceeds its capacity;
//! * accounting balances exactly: `hits + misses == checkouts` and
//!   `misses == evictions + len()`;
//! * an eviction-triggered reload (from the disk cache when one is
//!   configured) returns the same preparation bytes as the first load.

use graffix_core::{CacheConfig, Technique};
use graffix_server::{GraphRegistry, PoolKey, PreparedPool};
use graffix_sim::GpuConfig;
use std::sync::Arc;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn registry(n: usize) -> GraphRegistry {
    let mut reg = GraphRegistry::new();
    for i in 0..n {
        reg.insert_entry(&format!("g{i}=rmat:300:{}", i + 1))
            .unwrap();
    }
    reg
}

/// Keys mixing techniques so the sweep exercises both exact (uncached)
/// and pipelined (disk-cacheable) entries.
fn keys(n: usize) -> Vec<PoolKey> {
    (0..n)
        .map(|i| {
            let technique = [Technique::Exact, Technique::Coalescing, Technique::Latency][i % 3];
            PoolKey::new(&format!("g{i}"), technique, None)
        })
        .collect()
}

fn sweep(pool: &PreparedPool, reg: &GraphRegistry, keys: &[PoolKey], seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut checkouts = 0u64;
    for step in 0..steps {
        let key = &keys[(rng.next() % keys.len() as u64) as usize];
        let out = pool.checkout(key, reg).expect("registered graphs load");
        checkouts += 1;
        assert!(
            out.prepared.graph.num_nodes() > 0,
            "checkout returns a live graph"
        );
        assert!(
            pool.len() <= pool.capacity(),
            "capacity exceeded at step {step}: {} > {}",
            pool.len(),
            pool.capacity()
        );
        let s = pool.stats();
        assert_eq!(
            s.hits + s.misses,
            checkouts,
            "hit/miss balance at step {step}"
        );
        assert_eq!(
            s.misses,
            s.evictions + pool.len() as u64,
            "insert/evict balance at step {step}"
        );
    }
    let s = pool.stats();
    assert!(s.evictions > 0, "a sweep over capacity < N must evict");
    assert!(s.hits > 0, "a long sweep must also hit");
}

#[test]
fn seeded_sweeps_hold_the_invariants() {
    let n = 6;
    let reg = registry(n);
    let keys = keys(n);
    for (capacity, seed) in [(2usize, 0x1111u64), (3, 0x2222), (5, 0x3333)] {
        assert!(capacity < n);
        let pool = PreparedPool::new(capacity, GpuConfig::k40c(), CacheConfig::disabled());
        sweep(&pool, &reg, &keys, seed, 200);
    }
}

#[test]
fn eviction_reload_through_disk_cache_is_identical() {
    let dir = std::env::temp_dir().join(format!("graffix-pool-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = registry(3);
    let pool = PreparedPool::new(1, GpuConfig::k40c(), CacheConfig::at(&dir));

    let key = PoolKey::new("g0", Technique::Coalescing, None);
    let other = PoolKey::new("g1", Technique::Coalescing, None);

    let first = pool.checkout(&key, &reg).unwrap();
    assert!(!first.pool_hit);
    assert_eq!(first.cache, "miss (stored)", "cold miss persists to disk");

    // Capacity 1: checking out another key must evict g0.
    pool.checkout(&other, &reg).unwrap();
    assert_eq!(pool.stats().evictions, 1);

    // Re-checkout after eviction: pool miss, disk hit, identical bytes.
    let again = pool.checkout(&key, &reg).unwrap();
    assert!(!again.pool_hit, "evicted entry is a pool miss");
    assert_eq!(again.cache, "hit", "reload comes from the disk cache");
    assert!(
        !Arc::ptr_eq(&first.prepared, &again.prepared),
        "reload is a distinct allocation"
    );
    assert_eq!(
        first.prepared.report.technique_label, again.prepared.report.technique_label,
        "same technique after reload"
    );
    assert_eq!(
        &graffix_graph::serialize::to_bytes(&first.prepared.graph)[..],
        &graffix_graph::serialize::to_bytes(&again.prepared.graph)[..],
        "prepared graph bytes identical after eviction-triggered reload"
    );
    assert_eq!(
        first.prepared.to_original, again.prepared.to_original,
        "vertex mapping identical after reload"
    );
    assert_eq!(
        first.prepared.primary, again.prepared.primary,
        "primary mapping identical after reload"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_checkouts_keep_the_invariants() {
    let n = 5;
    let reg = Arc::new(registry(n));
    let keys = Arc::new(keys(n));
    let pool = Arc::new(PreparedPool::new(
        2,
        GpuConfig::k40c(),
        CacheConfig::disabled(),
    ));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let reg = Arc::clone(&reg);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                let mut rng = Rng(0x9000 + t as u64);
                for _ in 0..50 {
                    let key = &keys[(rng.next() % keys.len() as u64) as usize];
                    let out = pool.checkout(key, &reg).unwrap();
                    assert!(out.prepared.graph.num_nodes() > 0);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let s = pool.stats();
    assert!(pool.len() <= pool.capacity());
    assert_eq!(s.hits + s.misses, 200, "4 threads x 50 checkouts");
    assert_eq!(s.misses, s.evictions + pool.len() as u64);
}
