//! Demand-driven stage queries — the memoization engine under the
//! preparation pipeline.
//!
//! Preprocessing is an explicit dependency graph of *stage queries*
//! (renumber → replicate, cc → boost → tile-select, bucket → normalize →
//! relabel). Each stage declares its inputs as a content key: a
//! [`Fingerprint`] over the pipeline code version, the upstream stages'
//! *output* fingerprints, and exactly the knob fields the stage reads (see
//! `Pipeline::write_inputs`). The stage's output
//! is serialized bit-exactly and fingerprinted, so downstream keys are
//! functions of upstream *content*, not of whether upstream was cached.
//!
//! That content keying is what buys **early cutoff** for free: when a knob
//! change forces a stage to recompute but the recomputed output is
//! byte-identical to the cached one, every downstream key is unchanged and
//! downstream stages reuse their cached results without re-running. Such
//! reuses are reported as [`StageStatus::Cutoff`] (cached result used even
//! though something upstream re-ran) to distinguish them from plain
//! [`StageStatus::Hit`]s.
//!
//! A [`QueryCtx`] holds the memo tables: an in-process map (shared across
//! pipeline runs, e.g. bench knob-sweep cells) and, optionally, disk
//! entries (`{stage}-{key:016x}.gfxs`, see [`stage_entry_path`]). The
//! assembled `Prepared` is the terminal entry of the same store, read and
//! written by [`crate::cache::prepare_with_cache`] through the same
//! envelope. Every payload is hashed once: its fingerprint is the envelope
//! checksum, the output fingerprint downstream keys hash, and what the
//! in-process memo keeps beside the bytes. Keys, checksums and the input
//! graph's fingerprint are all the one word-at-a-time [`Fingerprint`], at
//! memory speed; its steps are bijections, so two payloads of one length
//! that differ in any one byte never share a checksum.
//! The [`QueryCtx::null`] context skips memoization, encoding, and
//! fingerprinting entirely — it is the zero-overhead cold path that
//! `Pipeline::try_apply` runs on, and the reference the cached paths must
//! match byte-for-byte.

use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bumped whenever any transform's output for the same (graph, knobs)
/// changes, a stage payload changes shape, or keys and checksums change
/// meaning, so stale cache entries can never resurface old behavior. 2: the
/// `cc` stage stores integer triangle counts where it stored `f64`
/// coefficients (same length, other meaning). 3: keys and checksums are the
/// word-at-a-time [`Fingerprint`] where they were byte-at-a-time FNV-1a
/// (the payload bytes are unchanged).
pub const PIPELINE_VERSION: u32 = 3;

/// Odd multiplier of the absorb step (the 64-bit golden ratio).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Rotation of the absorb step: it brings the product's high bits, which
/// every bit of the word reached, down to where the next word lands.
const ROT: u32 = 29;
/// The state before the first word (the fractional bits of pi).
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One absorb step. For a fixed word it is a bijection of the state, and
/// for a fixed state it is injective in the word, so two streams that
/// differ in one word differ in every state after it.
#[inline(always)]
fn absorb(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MUL).rotate_left(ROT)
}

/// MurmurHash3's 64-bit finalizer: a bijection that spreads every state
/// bit over the whole value.
fn fmix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Incremental content hash, a word at a time — the one fingerprint behind
/// stage keys, stage outputs, the input graph and entry checksums.
///
/// The stream is absorbed as 8-byte little-endian words; a partial word is
/// buffered, so the value depends only on the bytes written, not on how
/// they were split into [`Fingerprint::write`] calls. [`Fingerprint::finish`]
/// absorbs the zero-padded tail word and the total length, then applies
/// `fmix64`. Because every step is a bijection of the state and injective
/// in its word, two streams of equal length that differ in any one byte
/// always have different fingerprints: a flipped payload byte can never
/// pass a checksum.
pub struct Fingerprint {
    state: u64,
    /// The bytes of the word being filled: the first `len % 8` are live.
    tail: [u8; 8],
    /// Bytes written so far.
    len: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint {
            state: SEED,
            tail: [0; 8],
            len: 0,
        }
    }

    pub fn write(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if fill > 0 {
            let take = bytes.len().min(8 - fill);
            self.tail[fill..fill + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if fill + take < 8 {
                return;
            }
            self.state = absorb(self.state, u64::from_le_bytes(self.tail));
        }
        let mut words = bytes.chunks_exact(8);
        let mut h = self.state;
        for word in &mut words {
            h = absorb(
                h,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
        self.state = h;
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        let fill = (self.len % 8) as usize;
        let mut tail = [0u8; 8];
        tail[..fill].copy_from_slice(&self.tail[..fill]);
        fmix64(absorb(
            absorb(self.state, u64::from_le_bytes(tail)),
            self.len,
        ))
    }
}

/// Hashes one byte slice.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fingerprint::new();
    h.write(bytes);
    h.finish()
}

/// How one stage query was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageStatus {
    /// Cached result used; nothing upstream re-ran this pipeline run.
    Hit,
    /// Cached result used even though an upstream stage recomputed — the
    /// recomputed upstream output was content-identical, so this stage's
    /// key did not change (early cutoff).
    Cutoff,
    /// No cached result under this key (or a corrupt entry); the stage ran.
    Recomputed,
    /// A previous run's output was reused *without* checking the key — the
    /// incremental layer deliberately served a stale approximation (see
    /// [`QueryCtx::seed_stale`]). Never stored in the memo tables.
    Stale,
}

impl StageStatus {
    /// CLI label (`stage renumber: hit` etc.).
    pub fn label(self) -> &'static str {
        match self {
            StageStatus::Hit => "hit",
            StageStatus::Cutoff => "cutoff",
            StageStatus::Recomputed => "recomputed",
            StageStatus::Stale => "stale",
        }
    }

    /// True when a cached result was reused (hit or cutoff).
    pub fn reused(self) -> bool {
        !matches!(self, StageStatus::Recomputed)
    }
}

/// Diagnostics for one stage query of a pipeline run, in execution order.
#[derive(Clone, Debug)]
pub struct StageRecord {
    /// Stage name (`renumber`, `replicate`, `cc`, `boost`, `tile-select`,
    /// `bucket`, `normalize`, `relabel`).
    pub stage: &'static str,
    pub status: StageStatus,
    /// Wall seconds to satisfy the query (compute + encode + store on a
    /// recompute; load + decode on a reuse).
    pub seconds: f64,
    /// The stage's content key (0 in a null context).
    pub key: u64,
    /// Detail of a failed per-stage disk store, when one happened
    /// (non-fatal: the result is still returned and memoized in process).
    pub store_error: Option<String>,
}

/// Memoization context for staged preparation. See the module docs.
pub struct QueryCtx {
    /// `false` = null context: compute everything, encode nothing.
    enabled: bool,
    /// Per-stage disk entries live here when set.
    dir: Option<PathBuf>,
    /// In-process memo of encoded stage outputs, shared across runs.
    memo: HashMap<(&'static str, u64), Entry>,
    /// Per-run stage diagnostics (reset by [`QueryCtx::begin_run`]).
    records: Vec<StageRecord>,
    /// Whether any stage recomputed in the current run (drives the
    /// hit-vs-cutoff distinction).
    any_recomputed: bool,
    /// One-shot per-stage overrides consumed by the next query of that
    /// stage (the incremental layer's seeding hook). Survives
    /// [`QueryCtx::begin_run`] — seeds are planted *before* the run starts.
    overrides: HashMap<&'static str, StageOverride>,
    /// Last payload served (computed or reused) per stage, feeding
    /// [`StageOverride::ReuseLast`].
    last_by_stage: HashMap<&'static str, Entry>,
}

/// An encoded stage output beside its fingerprint, so a payload is hashed
/// once — when it is computed, seeded, or verified on load — however often
/// it is served.
#[derive(Clone)]
pub(crate) struct Entry {
    pub(crate) payload: Bytes,
    pub(crate) fp: u64,
}

impl Entry {
    pub(crate) fn of(payload: Bytes) -> Entry {
        let fp = fingerprint_bytes(&payload);
        Entry { payload, fp }
    }
}

/// A planted answer for one stage query (see [`QueryCtx::seed_payload`] and
/// [`QueryCtx::seed_stale`]).
enum StageOverride {
    /// Exact bytes the stage would produce — inserted into the memo under
    /// the queried key and reported as a [`StageStatus::Hit`].
    Payload(Entry),
    /// Reuse whatever the stage produced last run, ignoring the key — a
    /// deliberate approximation, reported as [`StageStatus::Stale`] and
    /// kept out of the memo tables.
    ReuseLast,
}

impl QueryCtx {
    /// The zero-overhead context: every query computes, nothing is
    /// encoded, fingerprints are 0. This is the cold uncached path.
    pub fn null() -> QueryCtx {
        QueryCtx {
            enabled: false,
            dir: None,
            memo: HashMap::new(),
            records: Vec::new(),
            any_recomputed: false,
            overrides: HashMap::new(),
            last_by_stage: HashMap::new(),
        }
    }

    /// In-process memoization only — what `graffix bench` shares across
    /// knob-sweep cells. No disk is touched.
    pub fn memory() -> QueryCtx {
        QueryCtx {
            enabled: true,
            dir: None,
            memo: HashMap::new(),
            records: Vec::new(),
            any_recomputed: false,
            overrides: HashMap::new(),
            last_by_stage: HashMap::new(),
        }
    }

    /// In-process memoization plus per-stage disk entries under `dir`.
    pub fn at<P: Into<PathBuf>>(dir: P) -> QueryCtx {
        QueryCtx {
            enabled: true,
            dir: Some(dir.into()),
            memo: HashMap::new(),
            records: Vec::new(),
            any_recomputed: false,
            overrides: HashMap::new(),
            last_by_stage: HashMap::new(),
        }
    }

    /// True for [`QueryCtx::null`] — callers skip key computation.
    pub fn is_null(&self) -> bool {
        !self.enabled
    }

    /// Starts a fresh pipeline run: clears the per-run diagnostics while
    /// keeping the memo tables warm.
    pub fn begin_run(&mut self) {
        self.records.clear();
        self.any_recomputed = false;
    }

    /// Stage diagnostics of the current run, in execution order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Plants the exact payload the next `stage` query must serve,
    /// bypassing compute. The payload must be byte-identical to what the
    /// stage would produce (the incremental layer maintains such payloads
    /// for exactly-maintainable stages); it is memoized under the queried
    /// key and reported as a [`StageStatus::Hit`]. One-shot: consumed by
    /// the next query of that stage. No-op on a null context.
    pub fn seed_payload(&mut self, stage: &'static str, payload: Bytes) {
        if self.enabled {
            self.overrides
                .insert(stage, StageOverride::Payload(Entry::of(payload)));
        }
    }

    /// Plants a stale-reuse override: the next `stage` query serves
    /// whatever that stage produced last run, ignoring its key. This is a
    /// deliberate approximation (the staleness-debt window); the result is
    /// reported as [`StageStatus::Stale`] and kept out of the memo tables
    /// so it can never masquerade as exact. One-shot; falls through to a
    /// normal lookup when the stage has no prior output. No-op on a null
    /// context.
    pub fn seed_stale(&mut self, stage: &'static str) {
        if self.enabled {
            self.overrides.insert(stage, StageOverride::ReuseLast);
        }
    }

    /// Drops any unconsumed seeds (a run may not query every seeded stage).
    pub fn clear_seeds(&mut self) {
        self.overrides.clear();
    }

    /// Drops the memo entries of every stage queried in the current run
    /// except the one under the key it was queried with. A long-lived
    /// context whose input keeps changing (a stream) calls this after each
    /// run, so a superseded payload is not kept for the life of the stream.
    /// Stages the run did not query keep all their entries, and the
    /// last-served payloads behind [`QueryCtx::seed_stale`] are untouched.
    pub fn drop_superseded(&mut self) {
        let records = &self.records;
        self.memo.retain(|&(stage, key), _| {
            !records.iter().any(|r| r.stage == stage)
                || records.iter().any(|r| r.stage == stage && r.key == key)
        });
    }

    /// Number of payloads in the in-process memo.
    #[cfg(test)]
    pub(crate) fn memo_entries(&self) -> usize {
        self.memo.len()
    }

    /// The payload `stage` served most recently (computed or reused), if
    /// any. The incremental layer bootstraps its maintained state from
    /// this.
    pub fn last_payload(&self, stage: &'static str) -> Option<Bytes> {
        self.last_by_stage.get(stage).map(|e| e.payload.clone())
    }

    /// Satisfies one stage query: returns the stage value plus the
    /// fingerprint of its encoded output (0 in a null context).
    ///
    /// `key` must cover the pipeline version, every upstream output
    /// fingerprint, and the knob fields the stage reads; `encode`/`decode`
    /// must round-trip bit-exactly (the decoded value re-encodes to the
    /// same bytes), which makes cached and computed results
    /// interchangeable.
    pub fn query<T>(
        &mut self,
        stage: &'static str,
        key: u64,
        compute: impl FnOnce() -> T,
        encode: impl FnOnce(&T) -> Bytes,
        decode: impl Fn(Bytes) -> io::Result<T>,
    ) -> (T, u64) {
        let start = Instant::now();
        if !self.enabled {
            let value = compute();
            self.records.push(StageRecord {
                stage,
                status: StageStatus::Recomputed,
                seconds: start.elapsed().as_secs_f64(),
                key: 0,
                store_error: None,
            });
            return (value, 0);
        }

        // A planted override wins over the memo tables. Exact payloads act
        // like a hit (and are memoized under the queried key); stale reuse
        // serves last run's output under whatever key, stays out of the
        // memo, and is labeled distinctly. Either way the override is
        // consumed; an unusable one falls through to the normal path.
        let planted = match self.overrides.remove(stage) {
            Some(StageOverride::Payload(entry)) => Some((entry, StageStatus::Hit)),
            Some(StageOverride::ReuseLast) => self
                .last_by_stage
                .get(stage)
                .map(|entry| (entry.clone(), StageStatus::Stale)),
            None => None,
        };
        if let Some((entry, status)) = planted {
            if let Some(served) = self.serve(stage, key, entry, status, start, &decode) {
                return served;
            }
        }

        let reuse_status = if self.any_recomputed {
            StageStatus::Cutoff
        } else {
            StageStatus::Hit
        };
        // In-process memo first, then the per-stage disk entry. A corrupt
        // or undecodable entry degrades to a miss for this stage alone.
        let cached = self
            .memo
            .get(&(stage, key))
            .cloned()
            .or_else(|| self.dir.as_deref().and_then(|d| load_stage(d, stage, key)));
        if let Some(entry) = cached {
            if let Some(served) = self.serve(stage, key, entry, reuse_status, start, &decode) {
                return served;
            }
        }

        let value = compute();
        let entry = Entry::of(encode(&value));
        let fp = entry.fp;
        let store_error = match self.dir.as_deref() {
            Some(d) => store_stage(d, stage, key, &entry)
                .err()
                .map(|e| e.to_string()),
            None => None,
        };
        self.memo.insert((stage, key), entry.clone());
        self.last_by_stage.insert(stage, entry);
        self.any_recomputed = true;
        self.records.push(StageRecord {
            stage,
            status: StageStatus::Recomputed,
            seconds: start.elapsed().as_secs_f64(),
            key,
            store_error,
        });
        (value, fp)
    }

    /// Answers (`stage`, `key`) with `entry` if it decodes: memoizes it
    /// (unless stale), records the reuse, and returns the value beside the
    /// fingerprint the entry already carries.
    fn serve<T>(
        &mut self,
        stage: &'static str,
        key: u64,
        entry: Entry,
        status: StageStatus,
        start: Instant,
        decode: &impl Fn(Bytes) -> io::Result<T>,
    ) -> Option<(T, u64)> {
        let value = decode(entry.payload.clone()).ok()?;
        let fp = entry.fp;
        if status != StageStatus::Stale {
            self.memo.insert((stage, key), entry.clone());
        }
        self.last_by_stage.insert(stage, entry);
        self.records.push(StageRecord {
            stage,
            status,
            seconds: start.elapsed().as_secs_f64(),
            key,
            store_error: None,
        });
        Some((value, fp))
    }
}

const STAGE_MAGIC: &[u8; 4] = b"GFXS";

/// Cache entry file for (`stage`, `key`) under `dir`.
pub fn stage_entry_path(dir: &Path, stage: &str, key: u64) -> PathBuf {
    dir.join(format!("{stage}-{key:016x}.gfxs"))
}

/// Loads an entry's payload beside its verified fingerprint, or `None` when
/// the file is absent, truncated, mislabeled, or checksum-mismatched (a
/// corrupt entry is a miss, never an error). The header carries the payload
/// fingerprint, so *any* flipped payload byte — not just structural
/// damage — degrades to a miss of this entry alone.
pub(crate) fn load_stage(dir: &Path, stage: &str, key: u64) -> Option<Entry> {
    let raw = Bytes::from(std::fs::read(stage_entry_path(dir, stage, key)).ok()?);
    let header = STAGE_MAGIC.len() + 4 + 2 + stage.len() + 8;
    if raw.len() < header
        || &raw[..4] != STAGE_MAGIC
        || u32::from_le_bytes(raw[4..8].try_into().ok()?) != PIPELINE_VERSION
        || u16::from_le_bytes(raw[8..10].try_into().ok()?) as usize != stage.len()
        || &raw[10..10 + stage.len()] != stage.as_bytes()
    {
        return None;
    }
    let fp_at = 10 + stage.len();
    let fp = u64::from_le_bytes(raw[fp_at..fp_at + 8].try_into().ok()?);
    let payload = raw.slice(header..raw.len());
    (fingerprint_bytes(&payload) == fp).then_some(Entry { payload, fp })
}

/// Stores an entry atomically (tmp file + rename), so concurrent readers
/// never observe a half-written one.
pub(crate) fn store_stage(dir: &Path, stage: &str, key: u64, entry: &Entry) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = stage_entry_path(dir, stage, key);
    let tmp = dir.join(format!("{stage}-{key:016x}.tmp-{}", std::process::id()));
    let mut header = Vec::with_capacity(18 + stage.len());
    header.extend_from_slice(STAGE_MAGIC);
    header.extend_from_slice(&PIPELINE_VERSION.to_le_bytes());
    header.extend_from_slice(&(stage.len() as u16).to_le_bytes());
    header.extend_from_slice(stage.as_bytes());
    header.extend_from_slice(&entry.fp.to_le_bytes());
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&header)?;
    file.write_all(&entry.payload)?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graffix-query-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn enc(v: &u64) -> Bytes {
        Bytes::from(v.to_le_bytes().to_vec())
    }

    fn dec(b: Bytes) -> io::Result<u64> {
        let raw: [u8; 8] = b[..]
            .try_into()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
        Ok(u64::from_le_bytes(raw))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn any_split_of_a_stream_hashes_as_the_whole(
            data in proptest::collection::vec(0u8..=255, 0..80),
            cuts in proptest::collection::vec(0usize..81, 1..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.extend([0, data.len()]);
            cuts.sort_unstable();
            let mut h = Fingerprint::new();
            for piece in cuts.windows(2) {
                h.write(&data[piece[0]..piece[1]]);
            }
            proptest::prop_assert_eq!(h.finish(), fingerprint_bytes(&data));
        }

        #[test]
        fn any_one_changed_byte_changes_the_value(
            data in proptest::collection::vec(0u8..=255, 1..80),
            at in 0usize..80,
            by in 1u8..=255,
        ) {
            let mut changed = data.clone();
            changed[at % data.len()] ^= by;
            proptest::prop_assert_ne!(fingerprint_bytes(&changed), fingerprint_bytes(&data));
        }

        #[test]
        fn appending_a_zero_byte_changes_the_value(
            data in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            let mut longer = data.clone();
            longer.push(0);
            proptest::prop_assert_ne!(fingerprint_bytes(&longer), fingerprint_bytes(&data));
        }
    }

    /// Every single-bit flip of three words and a five-byte tail moves the
    /// value: the top bit of each word and each tail byte included.
    #[test]
    fn every_flipped_bit_of_words_and_tail_is_seen() {
        let data: Vec<u8> = (0..29u8).map(|b| b.wrapping_mul(37)).collect();
        let base = fingerprint_bytes(&data);
        for at in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(fingerprint_bytes(&flipped), base, "byte {at} bit {bit}");
            }
        }
    }

    #[test]
    fn null_context_always_computes() {
        let mut ctx = QueryCtx::null();
        let (a, fp_a) = ctx.query("s", 1, || 42u64, enc, dec);
        let (b, fp_b) = ctx.query("s", 1, || 43u64, enc, dec);
        assert_eq!((a, b), (42, 43), "null ctx must never memoize");
        assert_eq!((fp_a, fp_b), (0, 0));
        assert_eq!(ctx.records().len(), 2);
        assert!(ctx
            .records()
            .iter()
            .all(|r| r.status == StageStatus::Recomputed));
    }

    #[test]
    fn memory_context_memoizes_within_and_across_runs() {
        let mut ctx = QueryCtx::memory();
        let (a, fp_a) = ctx.query("s", 9, || 7u64, enc, dec);
        ctx.begin_run();
        let (b, fp_b) = ctx.query("s", 9, || panic!("must not recompute"), enc, dec);
        assert_eq!((a, b), (7, 7));
        assert_eq!(fp_a, fp_b, "same bytes, same fingerprint");
        assert_eq!(ctx.records()[0].status, StageStatus::Hit);
    }

    #[test]
    fn cutoff_reported_when_upstream_recomputed() {
        let mut ctx = QueryCtx::memory();
        ctx.query("up", 1, || 1u64, enc, dec);
        ctx.query("down", 2, || 2u64, enc, dec);
        // New run: `up` forced to recompute (new key), but its output is
        // content-identical, so `down`'s key is unchanged -> cutoff.
        ctx.begin_run();
        ctx.query("up", 3, || 1u64, enc, dec);
        let (_, _) = ctx.query("down", 2, || panic!("cutoff must reuse"), enc, dec);
        assert_eq!(ctx.records()[0].status, StageStatus::Recomputed);
        assert_eq!(ctx.records()[1].status, StageStatus::Cutoff);
    }

    #[test]
    fn disk_entries_survive_a_fresh_context() {
        let dir = tmp_dir("disk");
        {
            let mut ctx = QueryCtx::at(&dir);
            ctx.query("s", 5, || 11u64, enc, dec);
        }
        let mut ctx = QueryCtx::at(&dir);
        let (v, _) = ctx.query("s", 5, || panic!("disk entry must hit"), enc, dec);
        assert_eq!(v, 11);
        assert_eq!(ctx.records()[0].status, StageStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_per_stage_miss() {
        let dir = tmp_dir("corrupt");
        let mut ctx = QueryCtx::at(&dir);
        ctx.query("s", 5, || 11u64, enc, dec);
        std::fs::write(stage_entry_path(&dir, "s", 5), b"GFXSgarbage").unwrap();
        let mut fresh = QueryCtx::at(&dir);
        let (v, _) = fresh.query("s", 5, || 11u64, enc, dec);
        assert_eq!(v, 11);
        assert_eq!(fresh.records()[0].status, StageStatus::Recomputed);
        // The overwrite repaired the entry.
        let mut again = QueryCtx::at(&dir);
        again.query("s", 5, || panic!("repaired entry must hit"), enc, dec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_failure_is_reported_not_fatal() {
        // A file where the cache dir should be makes create_dir_all fail.
        let dir = tmp_dir("storefail");
        std::fs::write(&dir, b"not a directory").unwrap();
        let mut ctx = QueryCtx::at(&dir);
        let (v, _) = ctx.query("s", 5, || 11u64, enc, dec);
        assert_eq!(v, 11);
        let rec = &ctx.records()[0];
        assert_eq!(rec.status, StageStatus::Recomputed);
        assert!(rec.store_error.is_some(), "store failure must carry detail");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn stage_name_guards_the_entry_file() {
        let dir = tmp_dir("name");
        let mut ctx = QueryCtx::at(&dir);
        ctx.query("alpha", 5, || 1u64, enc, dec);
        // Same key under a different stage name must not alias.
        let mut fresh = QueryCtx::at(&dir);
        let (v, _) = fresh.query("beta", 5, || 2u64, enc, dec);
        assert_eq!(v, 2);
        assert_eq!(fresh.records()[0].status, StageStatus::Recomputed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_payload_is_a_hit_and_memoized() {
        let mut ctx = QueryCtx::memory();
        ctx.seed_payload("s", enc(&42));
        ctx.begin_run(); // seeds must survive begin_run
        let (v, fp) = ctx.query("s", 7, || panic!("seed must bypass compute"), enc, dec);
        assert_eq!(v, 42);
        assert_eq!(fp, fingerprint_bytes(&enc(&42)));
        assert_eq!(ctx.records()[0].status, StageStatus::Hit);
        // The seed landed in the memo under the queried key.
        ctx.begin_run();
        let (v, _) = ctx.query("s", 7, || panic!("memoized seed must hit"), enc, dec);
        assert_eq!(v, 42);
        // One-shot: a different key now misses.
        ctx.begin_run();
        let (v, _) = ctx.query("s", 8, || 1u64, enc, dec);
        assert_eq!(v, 1);
    }

    #[test]
    fn stale_seed_reuses_last_run_and_stays_out_of_memo() {
        let mut ctx = QueryCtx::memory();
        ctx.query("s", 1, || 5u64, enc, dec);
        ctx.seed_stale("s");
        ctx.begin_run();
        // New key (inputs changed) but the stale seed serves the old bytes.
        let (v, _) = ctx.query("s", 2, || panic!("stale seed must reuse"), enc, dec);
        assert_eq!(v, 5);
        assert_eq!(ctx.records()[0].status, StageStatus::Stale);
        assert!(ctx.records()[0].status.reused());
        // Not memoized under key 2: the next run recomputes honestly.
        ctx.begin_run();
        let (v, _) = ctx.query("s", 2, || 9u64, enc, dec);
        assert_eq!(v, 9);
    }

    #[test]
    fn stale_seed_without_history_falls_through() {
        let mut ctx = QueryCtx::memory();
        ctx.seed_stale("s");
        let (v, _) = ctx.query("s", 1, || 3u64, enc, dec);
        assert_eq!(v, 3);
        assert_eq!(ctx.records()[0].status, StageStatus::Recomputed);
    }

    #[test]
    fn stale_does_not_break_downstream_hit_labels() {
        let mut ctx = QueryCtx::memory();
        ctx.query("up", 1, || 1u64, enc, dec);
        ctx.query("down", 10, || 2u64, enc, dec);
        ctx.seed_stale("up");
        ctx.begin_run();
        ctx.query("up", 2, || panic!("stale"), enc, dec);
        // Downstream keyed off the (unchanged) stale output fingerprint:
        // plain hit, not cutoff — nothing recomputed.
        ctx.query("down", 10, || panic!("hit"), enc, dec);
        assert_eq!(ctx.records()[0].status, StageStatus::Stale);
        assert_eq!(ctx.records()[1].status, StageStatus::Hit);
    }

    #[test]
    fn clear_seeds_drops_pending_overrides() {
        let mut ctx = QueryCtx::memory();
        ctx.seed_payload("s", enc(&42));
        ctx.clear_seeds();
        let (v, _) = ctx.query("s", 1, || 7u64, enc, dec);
        assert_eq!(v, 7);
        assert_eq!(ctx.records()[0].status, StageStatus::Recomputed);
    }

    #[test]
    fn drop_superseded_keeps_current_keys_and_unqueried_stages() {
        let mut ctx = QueryCtx::memory();
        ctx.query("s", 1, || 5u64, enc, dec);
        ctx.query("other", 1, || 6u64, enc, dec);
        ctx.begin_run();
        ctx.query("s", 2, || 7u64, enc, dec);
        ctx.drop_superseded();
        assert_eq!(ctx.memo_entries(), 2, "(s, 1) is superseded");
        ctx.begin_run();
        ctx.query("s", 2, || panic!("current key must stay"), enc, dec);
        ctx.query("other", 1, || panic!("unqueried stage must stay"), enc, dec);
        let (v, _) = ctx.query("s", 1, || 9u64, enc, dec);
        assert_eq!(v, 9, "the superseded entry is gone");
        // A stale serve is not memoized, so it leaves no entry of its stage
        // behind — but the payload stale reuse reads stays.
        ctx.seed_stale("other");
        ctx.begin_run();
        ctx.query("other", 3, || panic!("stale"), enc, dec);
        ctx.drop_superseded();
        assert_eq!(ctx.last_payload("other").as_deref(), Some(&enc(&6)[..]));
        ctx.begin_run();
        let (v, _) = ctx.query("other", 1, || 8u64, enc, dec);
        assert_eq!(v, 8);
    }

    #[test]
    fn last_payload_tracks_every_serve_path() {
        let mut ctx = QueryCtx::memory();
        assert!(ctx.last_payload("s").is_none());
        ctx.query("s", 1, || 5u64, enc, dec);
        assert_eq!(ctx.last_payload("s").as_deref(), Some(&enc(&5)[..]));
        ctx.begin_run();
        ctx.query("s", 1, || panic!("hit"), enc, dec);
        assert_eq!(ctx.last_payload("s").as_deref(), Some(&enc(&5)[..]));
        ctx.seed_payload("s", enc(&6));
        ctx.begin_run();
        ctx.query("s", 2, || panic!("seed"), enc, dec);
        assert_eq!(ctx.last_payload("s").as_deref(), Some(&enc(&6)[..]));
    }

    #[test]
    fn null_context_ignores_seeds() {
        let mut ctx = QueryCtx::null();
        ctx.seed_payload("s", enc(&42));
        let (v, _) = ctx.query("s", 1, || 7u64, enc, dec);
        assert_eq!(v, 7);
    }
}
