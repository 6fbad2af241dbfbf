//! The benchmark's names: workloads, end-to-end metrics (with the bound each
//! may worsen by) and per-layer metrics. `BENCHMARK.json` at the repository
//! root repeats these tables; a unit test holds the two together.

/// One workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "run_flat",
        why: "exact rmat 2^17, Lonestar push, flat: algos kernel bodies and sim pricing replay do ~85 % of the work",
    },
    WorkloadDef {
        name: "run_segmented",
        why: "same graph, Gunrock auto-direction, 1.5 MiB segments: frontier loop, CSC mirror, segment routing and skipping",
    },
    WorkloadDef {
        name: "run_transformed",
        why: "rmat 2^16 combined technique from a warm cache: tiles in shared memory, replica confluence, hole-bearing CSR",
    },
    WorkloadDef {
        name: "prepare_cold",
        why: "rmat 2^17 coalescing+latency+divergence into an empty cache: graph and core do ~95 % of the work, with cache writes",
    },
    WorkloadDef {
        name: "prepare_warm",
        why: "rmat 2^16 blob hit, one-knob change and stage-level warm start: the cache read paths beside prepare_cold's writes",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "in-process daemon, 1 worker, 1 closed-loop client, 60/25/15 bfs/sssp/pr over 5 keys on a pool of 4 with forced misses",
    },
    WorkloadDef {
        name: "stream_churn",
        why: "rmat 2^16 latency pipeline under 1 % churn batches, stale-stale-exact: mutation and incremental cc maintenance",
    },
];

/// One end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("cold_s", "s", "lower", 0.20),
    end_to_end("wall_s", "s", "lower", 0.20),
    end_to_end("cpu_s", "s", "lower", 0.20),
    end_to_end("work_per_s", "1/s", "higher", 0.20),
    end_to_end("ops_per_s", "1/s", "higher", 0.20),
    end_to_end("p95_ms", "ms", "lower", 0.25),
    end_to_end("peak_rss_mb", "MiB", "lower", 0.25),
];

/// One per-layer metric, from the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

/// A count that repeats exactly for a given seed: a host-speed change must
/// leave every one identical, and both passes print it.
const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: "lower",
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // graph
    time("graph.generate_s", "s"),
    time("graph.save_binary_ms", "ms"),
    time("graph.open_mapped_ms", "ms"),
    time("graph.undirected_ms", "ms"),
    time("graph.cc_ms", "ms"),
    time("graph.transposed_ms", "ms"),
    time("graph.segment_build_ms", "ms"),
    time("graph.apply_batch_ms", "ms"),
    count("graph.nodes"),
    count("graph.arcs"),
    // core
    time("core.auto_tune_ms", "ms"),
    time("core.prepare_exact_ms", "ms"),
    time("core.stage.renumber_ms", "ms"),
    time("core.stage.replicate_ms", "ms"),
    time("core.stage.cc_ms", "ms"),
    time("core.stage.boost_ms", "ms"),
    time("core.stage.tile-select_ms", "ms"),
    time("core.stage.bucket_ms", "ms"),
    time("core.stage.normalize_ms", "ms"),
    time("core.stage.relabel_ms", "ms"),
    time("core.prepare_coalescing_s", "s"),
    time("core.prepare_latency_s", "s"),
    time("core.prepare_divergence_s", "s"),
    time("core.prepare_combined_s", "s"),
    time("core.cache_store_ms", "ms"),
    time("core.blob_hit_ms", "ms"),
    time("core.stage_warm_ms", "ms"),
    time("core.knob_change_ms", "ms"),
    count("core.stage_hits"),
    count("core.stage_cutoffs"),
    count("core.stage_recomputed"),
    count("core.cache_bytes"),
    time("core.incr_new_s", "s"),
    time("core.incr_stale_ms", "ms"),
    time("core.incr_exact_ms", "ms"),
    time("core.incr_prepare_ms", "ms"),
    time("core.incr_maintenance_ms", "ms"),
    count("core.cc_dirty"),
    // baselines
    time("baselines.plan_lonestar_ms", "ms"),
    time("baselines.plan_gunrock_ms", "ms"),
    // algos
    time("algos.bfs_ms", "ms"),
    time("algos.sssp_ms", "ms"),
    time("algos.pr_ms", "ms"),
    time("algos.csc_ms", "ms"),
    time("algos.ref_ms", "ms"),
    time("algos.bfs_ns_per_event", "ns"),
    time("algos.sssp_ns_per_event", "ns"),
    time("algos.pr_ns_per_event", "ns"),
    PerLayer {
        name: "algos.scaling_2t",
        unit: "ratio",
        better: "higher",
    },
    count("algos.supersteps"),
    count("algos.segments_processed"),
    count("algos.segments_skipped"),
    PerLayer {
        name: "algos.inaccuracy_pct.bfs",
        unit: "%",
        better: "lower",
    },
    PerLayer {
        name: "algos.inaccuracy_pct.sssp",
        unit: "%",
        better: "lower",
    },
    PerLayer {
        name: "algos.inaccuracy_pct.pr",
        unit: "%",
        better: "lower",
    },
    // sim
    time("sim.replay_ns_per_event", "ns"),
    time("sim.record_replay_ns_per_event", "ns"),
    count("sim.cycles.bfs"),
    count("sim.cycles.sssp"),
    count("sim.cycles.pr"),
    count("sim.events"),
    count("sim.global_transactions"),
    count("sim.l2_accesses"),
    count("sim.shared_accesses"),
    count("sim.atomic_ops"),
    count("sim.divergent_slots"),
    // graffix (observe)
    time("graffix.report_ms", "ms"),
    // server
    time("server.start_ms", "ms"),
    time("server.queue_ms", "ms"),
    time("server.exec_ms", "ms"),
    time("server.overhead_ms", "ms"),
    time("server.p50_ms", "ms"),
    time("server.p95_ms", "ms"),
    time("server.rt_ms.bfs", "ms"),
    time("server.rt_ms.sssp", "ms"),
    time("server.rt_ms.pr", "ms"),
    time("server.miss_rt_ms", "ms"),
    count("server.pool_hits"),
    count("server.pool_misses"),
    count("server.evictions"),
    count("server.batches"),
    count("server.response_bytes"),
    count("server.errors"),
    // bench
    time("bench.unattributed_pct", "%"),
    time("bench.trace_overhead_pct", "%"),
    PerLayer {
        name: "bench.nproc",
        unit: "count",
        better: "higher",
    },
    PerLayer {
        name: "bench.threads",
        unit: "count",
        better: "higher",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
