//! Property-style sweep for the parallel preprocessing engine and the
//! prepared-graph cache, in the style of `graffix-graph`'s
//! `transform_invariants` harness: a seeded RNG drives random
//! (graph, knobs) configurations, and for every one of them
//!
//! 1. the transformed CSR (plus assignment, tiles, and replica groups)
//!    must be byte-identical at 1, 2, and 8 host threads — the parallel
//!    selection/scoring passes must not leak scheduling order into the
//!    output;
//! 2. a cold `prepare_with_cache` followed by a warm one is a `Hit` whose
//!    result equals `pipeline.apply` (the codec's own "decode(encode(p))
//!    re-encodes identically" is pinned next to the other stage codecs, in
//!    `stages::tests::every_stage_output_round_trips_bit_exactly`).

use graffix_core::{
    prepare_with_cache, CacheConfig, CacheStatus, CoalesceKnobs, DivergenceKnobs, LatencyKnobs,
    Pipeline, Prepared,
};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::Csr;
use graffix_sim::GpuConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CONFIGS: usize = 12;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const KINDS: [GraphKind; 5] = [
    GraphKind::Rmat,
    GraphKind::Random,
    GraphKind::SocialLiveJournal,
    GraphKind::SocialTwitter,
    GraphKind::Road,
];

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

fn random_graph(rng: &mut ChaCha8Rng) -> Csr {
    let kind = KINDS[rng.random_range(0..KINDS.len())];
    let nodes = rng.random_range(80..500usize);
    let seed = rng.random_range(0..u64::MAX / 2);
    GraphSpec::new(kind, nodes, seed).generate()
}

/// A random pipeline with at least one enabled stage and knobs drawn from
/// each transform's valid range.
fn random_pipeline(rng: &mut ChaCha8Rng) -> Pipeline {
    loop {
        let mut p = Pipeline::default();
        if rng.random_range(0..2usize) == 1 {
            p.coalesce =
                Some(CoalesceKnobs::default().with_threshold(rng.random_range(0.0..1.0f64)));
        }
        if rng.random_range(0..2usize) == 1 {
            p.latency = Some(LatencyKnobs {
                edge_budget_frac: rng.random_range(0.0..0.1f64),
                ..LatencyKnobs::default().with_threshold(rng.random_range(0.1..0.9f64))
            });
        }
        if rng.random_range(0..2usize) == 1 {
            p.divergence =
                Some(DivergenceKnobs::default().with_threshold(rng.random_range(0.0..1.0f64)));
        }
        if p.coalesce.is_some() || p.latency.is_some() || p.divergence.is_some() {
            return p;
        }
    }
}

#[test]
fn random_configs_transform_identically_at_any_thread_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a11e1);
    let gpu = GpuConfig::k40c();
    for i in 0..CONFIGS {
        let g = random_graph(&mut rng);
        let pipeline = random_pipeline(&mut rng);
        let ctx = format!(
            "config {i} (n={}, stages c={} l={} d={})",
            g.num_nodes(),
            pipeline.coalesce.is_some(),
            pipeline.latency.is_some(),
            pipeline.divergence.is_some()
        );
        let prepared: Vec<Prepared> = THREAD_COUNTS
            .iter()
            .map(|&n| with_threads(n, || pipeline.apply(&g, &gpu)))
            .collect();
        for (ti, p) in prepared.iter().enumerate().skip(1) {
            assert_eq!(
                p.first_difference(&prepared[0]),
                None,
                "{ctx} at {} threads",
                THREAD_COUNTS[ti]
            );
        }
    }
}

#[test]
fn random_configs_round_trip_through_the_cache_bit_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xcac4e);
    let gpu = GpuConfig::k40c();
    let dir = std::env::temp_dir().join(format!("graffix-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheConfig::at(&dir);
    for i in 0..CONFIGS {
        let g = random_graph(&mut rng);
        let pipeline = random_pipeline(&mut rng);
        let p = pipeline.apply(&g, &gpu);
        let ctx = format!("config {i} (n={})", g.num_nodes());

        let (cold, out) = prepare_with_cache(&g, &pipeline, &gpu, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::MissStored, "{ctx}: cold");
        assert_eq!(cold.first_difference(&p), None, "{ctx}, cold");
        let (warm, out) = prepare_with_cache(&g, &pipeline, &gpu, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::Hit, "{ctx}: warm");
        assert_eq!(warm.first_difference(&p), None, "{ctx}, warm");
        assert_eq!(warm.technique, p.technique, "{ctx}: technique");
        assert_eq!(warm.report.stages, p.report.stages, "{ctx}: stage reports");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
