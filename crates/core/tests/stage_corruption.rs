//! Corrupt per-stage cache entries must degrade to a miss for *that stage
//! only*: the damaged stage silently re-runs (and repairs its entry),
//! upstream stages still hit, downstream stages reuse via early cutoff,
//! and the result is identical to an undamaged run. The terminal
//! `prepared` entry is one more entry of the same store: damaged in any
//! way it is a miss that every stage entry underneath still serves.

use graffix_core::query::stage_entry_path;
use graffix_core::{
    prepare_with_cache, CacheConfig, CacheStatus, CoalesceKnobs, DivergenceKnobs, LatencyKnobs,
    Pipeline, Prepared, QueryCtx, StageRecord, StageStatus,
};
use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::Csr;
use graffix_sim::GpuConfig;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graffix-stage-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn graph() -> Csr {
    GraphSpec::new(GraphKind::SocialLiveJournal, 350, 5).generate()
}

fn pipeline() -> Pipeline {
    Pipeline::default()
        .with_coalesce(CoalesceKnobs::default())
        .with_latency(LatencyKnobs::default())
        .with_divergence(DivergenceKnobs::default())
}

fn staged_run(pipe: &Pipeline, g: &Csr, dir: &Path) -> (Prepared, Vec<StageRecord>) {
    let mut ctx = QueryCtx::at(dir);
    let p = pipe
        .try_apply_with(g, &GpuConfig::k40c(), &mut ctx)
        .expect("valid knobs");
    (p, ctx.records().to_vec())
}

fn status_of(records: &[StageRecord], stage: &str) -> StageStatus {
    records
        .iter()
        .find(|r| r.stage == stage)
        .unwrap_or_else(|| panic!("no record for stage {stage}"))
        .status
}

fn key_of(records: &[StageRecord], stage: &str) -> u64 {
    records
        .iter()
        .find(|r| r.stage == stage)
        .unwrap_or_else(|| panic!("no record for stage {stage}"))
        .key
}

/// After corrupting the `boost` entry, a fresh run must re-run boost only:
/// renumber/replicate/cc hit, tile-select/normalize reuse via cutoff (the
/// recomputed boost output is content-identical), result unchanged.
fn assert_boost_degrades_alone(
    corrupt: impl FnOnce(&Path),
    g: &Csr,
    dir: &Path,
    reference: &Prepared,
    boost_key: u64,
    case: &str,
) {
    let entry = stage_entry_path(dir, "boost", boost_key);
    assert!(
        entry.exists(),
        "{case}: boost entry must exist before damage"
    );
    corrupt(&entry);

    let (rerun, records) = staged_run(&pipeline(), g, dir);
    for stage in ["renumber", "replicate", "cc"] {
        assert_eq!(
            status_of(&records, stage),
            StageStatus::Hit,
            "{case}: upstream {stage} must still hit"
        );
    }
    assert_eq!(
        status_of(&records, "boost"),
        StageStatus::Recomputed,
        "{case}: corrupt boost entry must be a miss for boost alone"
    );
    for stage in ["tile-select", "normalize"] {
        assert_eq!(
            status_of(&records, stage),
            StageStatus::Cutoff,
            "{case}: downstream {stage} must reuse via cutoff"
        );
    }
    assert_eq!(rerun.first_difference(reference), None, "{case}");

    // The recompute rewrote the entry: a clean follow-up run hits again.
    let (_, records) = staged_run(&pipeline(), g, dir);
    assert_eq!(
        status_of(&records, "boost"),
        StageStatus::Hit,
        "{case}: recompute must repair the damaged entry"
    );
}

#[test]
fn truncated_stage_entry_degrades_to_a_miss_for_that_stage_only() {
    let g = graph();
    let dir = tmp_dir("truncate");
    let (reference, records) = staged_run(&pipeline(), &g, &dir);
    let boost_key = key_of(&records, "boost");
    assert_boost_degrades_alone(
        |entry| {
            let raw = std::fs::read(entry).unwrap();
            std::fs::write(entry, &raw[..raw.len() / 2]).unwrap();
        },
        &g,
        &dir,
        &reference,
        boost_key,
        "truncated entry",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_byte_degrades_to_a_miss_for_that_stage_only() {
    // At 340 nodes the boost payload ends in a partial word (at the 350 of
    // `graph()` it is a whole number of words).
    let g = GraphSpec::new(GraphKind::SocialLiveJournal, 340, 5).generate();
    let dir = tmp_dir("bitflip");
    let (reference, records) = staged_run(&pipeline(), &g, &dir);
    let boost_key = key_of(&records, "boost");
    // The payload follows the GFXS header: magic, version, name length,
    // name and checksum.
    let payload_at = 4 + 4 + 2 + "boost".len() + 8;
    let payload_len = std::fs::read(stage_entry_path(&dir, "boost", boost_key))
        .unwrap()
        .len()
        - payload_at;
    assert!(
        !payload_len.is_multiple_of(8),
        "fixture payload must end in a partial word"
    );
    // A single flipped payload byte leaves the file structurally valid —
    // only the checksum in the GFXS header catches it. The checksum takes
    // the payload a word at a time, so the flip lands in the first word, on
    // the top bit of a byte inside a word, and in the partial last word.
    for (case, at, mask) in [
        ("first payload byte", 0, 0xff),
        ("top bit inside a word", (payload_len / 2) & !7 | 3, 0x80),
        ("tail byte", payload_len - 1, 0xff),
    ] {
        assert_boost_degrades_alone(
            |entry| {
                let mut raw = std::fs::read(entry).unwrap();
                raw[payload_at + at] ^= mask;
                std::fs::write(entry, raw).unwrap();
            },
            &g,
            &dir,
            &reference,
            boost_key,
            case,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_entry_degrades_to_a_miss_for_that_stage_only() {
    let g = graph();
    let dir = tmp_dir("garbage");
    let (reference, records) = staged_run(&pipeline(), &g, &dir);
    let nkey = key_of(&records, "normalize");
    std::fs::write(
        stage_entry_path(&dir, "normalize", nkey),
        b"not a GFXS file",
    )
    .unwrap();

    let (rerun, records) = staged_run(&pipeline(), &g, &dir);
    for stage in ["renumber", "replicate", "cc", "boost", "tile-select"] {
        assert_eq!(
            status_of(&records, stage),
            StageStatus::Hit,
            "garbage normalize entry must not disturb {stage}"
        );
    }
    assert_eq!(status_of(&records, "normalize"), StageStatus::Recomputed);
    assert_eq!(
        rerun.first_difference(&reference),
        None,
        "garbage normalize entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_terminal_entry_is_a_miss_that_the_stage_entries_repair() {
    type Damage = fn(&Path, &Prepared, &Path);
    let damages: [(&str, Damage); 4] = [
        ("truncated", |entry, _, _| {
            let raw = std::fs::read(entry).unwrap();
            std::fs::write(entry, &raw[..raw.len() / 2]).unwrap();
        }),
        // One flipped bit in the first weight of the embedded graph: the
        // entry still decodes and validates — only the checksum sees it.
        ("flipped weight byte", |entry, cold, _| {
            assert!(cold.graph.is_weighted(), "fixture must carry weights");
            let envelope = 4 + 4 + 2 + "prepared".len() + 8;
            let (n, m) = (cold.graph.num_nodes(), cold.graph.num_edges());
            let first_weight = envelope + 2 + 8 + 24 + (n + 1) * 8 + m * 4;
            let mut raw = std::fs::read(entry).unwrap();
            raw[first_weight] ^= 0x02;
            std::fs::write(entry, raw).unwrap();
        }),
        ("garbage", |entry, _, _| {
            std::fs::write(entry, b"not a GFXS file").unwrap()
        }),
        ("another stage's entry", |entry, _, other| {
            std::fs::copy(other, entry).unwrap();
        }),
    ];
    let g = graph();
    let gpu = GpuConfig::k40c();
    for (case, damage) in damages {
        let dir = tmp_dir("terminal");
        let cache = CacheConfig::at(&dir);
        let (cold, out) = prepare_with_cache(&g, &pipeline(), &gpu, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::MissStored, "{case}: cold");
        let entry = out.path.expect("a stored run names its terminal entry");
        let normalize = stage_entry_path(&dir, "normalize", key_of(&out.stages, "normalize"));
        damage(&entry, &cold, &normalize);

        let (rerun, out) = prepare_with_cache(&g, &pipeline(), &gpu, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::MissStored, "{case}: damaged");
        assert!(
            !out.stages.is_empty() && out.stages.iter().all(|r| r.status == StageStatus::Hit),
            "{case}: every stage entry must still hit"
        );
        assert_eq!(rerun.first_difference(&cold), None, "{case}");
        let (again, out) = prepare_with_cache(&g, &pipeline(), &gpu, &cache).unwrap();
        assert_eq!(out.status, CacheStatus::Hit, "{case}: repaired");
        assert_eq!(again.first_difference(&cold), None, "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
