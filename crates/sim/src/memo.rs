//! Per-run memo of warp replays.
//!
//! The lockstep replay ([`crate::warp`]) is a pure function of the GPU
//! configuration, the warp's width and its lanes' traces, and a
//! topology-driven run records the same traces launch after launch. A
//! [`ReplayMemo`] keeps the [`KernelStats`] delta of the warps it has seen,
//! keyed by a 128-bit fingerprint of `(width, per lane: length, words)`, so
//! a repeated warp costs one pass over its words instead of a replay. One
//! memo serves one run under one configuration, which is why the
//! configuration is not part of the key.
//!
//! The memo never changes a number: a hit adds exactly the delta a replay
//! of those traces produced. Its own counters are another matter — two
//! identical warps racing inside one launch may both miss — so they are
//! kept out of every deterministic output.

use crate::event::Word;
use crate::stats::KernelStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Slots a key may occupy: the probe window that starts at its home slot
/// (open addressing). A key that finds its window full replaces the
/// window's least recently used entry.
const WINDOW: usize = 16;

/// Most lock shards a table is split into, and the fewest slots a shard is
/// given (a shard of one window would overflow on an unlucky split of keys
/// long before the table is full).
const MAX_SHARDS: usize = 8;
const MIN_SHARD_SLOTS: usize = 4 * WINDOW;

/// Slots per warp of the plan's full-assignment launch. A topology
/// iteration is at most two such launches over fixed traces (PageRank's
/// push and apply), so the table runs at most half full — where a window of
/// sixteen practically never overflows (one of rmat 2^17's 8 192 distinct
/// PageRank warps does) and every repeated warp is a hit. At one slot per
/// distinct warp a twelfth of them would evict each other on every
/// iteration.
const SLOTS_PER_WARP: usize = 4;

/// 128-bit fingerprint of one warp's traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Key(u128);

impl Key {
    /// The bits a table places the key by. The sums of similar traces
    /// differ in few bits, mostly low ones (that suffices to tell them
    /// apart, not to spread them), so the halves are folded and scrambled
    /// with MurmurHash3's 64-bit finalizer first.
    fn place(self) -> u64 {
        let mut h = self.0 as u64 ^ (self.0 >> 64) as u64;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// NH, the inner hash of UMAC, over the stream `width, (len, words…) per
/// lane`, two values at a time: each value is offset by the key of its
/// position, the pair is multiplied into 128 bits and the products are
/// summed. Pairs do not depend on each other, so the multiplies pipeline;
/// one multiply per two words is what keeps a hit cheaper than a replay (a
/// second, independent sum doubled the cost of a pass: 1.35 against 0.62 ns
/// per word). Two traces that differ inside one pair get different sums
/// unless the unchanged value is the negated key of its position; any other
/// two collide with probability 2^-64 over the choice of keys.
struct Fingerprint {
    sum: u128,
    /// Keys of the next pair's two values; each advances by its stride
    /// once per pair.
    at: [u64; 2],
}

/// Odd 64-bit constants (fractional bits of the square roots of 2 and 3).
const STRIDES: [u64; 2] = [0x6A09_E667_F3BC_C909, 0xBB67_AE85_84CA_A73B];

impl Fingerprint {
    fn new(width: usize) -> Fingerprint {
        let mut f = Fingerprint {
            sum: 0,
            at: STRIDES,
        };
        f.pair(width as u64, 0);
        f
    }

    #[inline]
    fn pair(&mut self, x: u64, y: u64) {
        let [at_x, at_y] = self.at;
        let product = u128::from(x.wrapping_add(at_x)) * u128::from(y.wrapping_add(at_y));
        self.sum = self.sum.wrapping_add(product);
        self.at = [at_x.wrapping_add(STRIDES[0]), at_y.wrapping_add(STRIDES[1])];
    }

    /// One lane: its length, then its words. An odd word out is paired
    /// with the length, so no two lanes' words share a pair.
    #[inline]
    fn lane(&mut self, words: &[Word]) {
        let len = words.len() as u64;
        let mut pairs = words.chunks_exact(2);
        match pairs.remainder() {
            [odd] => self.pair(len, odd.0),
            _ => self.pair(len, !0),
        }
        for pair in &mut pairs {
            self.pair(pair[0].0, pair[1].0);
        }
    }
}

/// Fingerprint of a warp, or `None` when no lane recorded an event (such a
/// warp costs nothing and is not worth an entry).
fn fingerprint<'t>(lanes: impl ExactSizeIterator<Item = &'t [Word]>) -> Option<Key> {
    let mut f = Fingerprint::new(lanes.len());
    let mut events = 0;
    for words in lanes {
        events += words.len();
        f.lane(words);
    }
    (events > 0).then_some(Key(f.sum))
}

/// Who holds a slot. Tags are kept apart from the deltas so that a window
/// scan reads six cache lines, not forty-two.
#[derive(Clone, Copy, Default)]
struct Tag {
    key: Key,
    /// The shard clock when the slot was last stored or hit; 0 = empty.
    used: u64,
}

#[derive(Default)]
struct Shard {
    /// A power-of-two number of slots.
    tags: Box<[Tag]>,
    deltas: Box<[KernelStats]>,
    clock: u64,
}

impl Shard {
    fn with_slots(slots: usize) -> Shard {
        Shard {
            tags: vec![Tag::default(); slots].into(),
            deltas: vec![KernelStats::default(); slots].into(),
            clock: 0,
        }
    }

    /// The slots of `key`'s probe window, wrapping at the table's end.
    fn window(&self, key: Key) -> impl Iterator<Item = usize> {
        let mask = self.tags.len() - 1;
        let home = key.place() as usize;
        (0..WINDOW).map(move |i| home.wrapping_add(i) & mask)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// What a [`ReplayMemo`] has done so far. Not schedule-independent: two
/// identical warps of one launch that run at the same time both miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Warps priced from a stored delta.
    pub hits: u64,
    /// Warps replayed (and then stored).
    pub misses: u64,
    /// Stores that replaced another warp's entry.
    pub evictions: u64,
    /// Entries held now.
    pub entries: usize,
    /// Entries the table can hold.
    pub capacity: usize,
}

/// A bounded table of warp-replay results; see the module docs.
#[derive(Default)]
pub struct ReplayMemo {
    /// A power-of-two number of shards, selected by the top bits of the
    /// key's [`Key::place`] (the slot index uses the low ones); none at all
    /// for [`ReplayMemo::none`].
    shards: Box<[Mutex<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ReplayMemo {
    /// A memo for a run whose full-assignment launch has `warps` warps:
    /// [`SLOTS_PER_WARP`] slots each, rounded up to a power of two and at
    /// least one probe window.
    pub fn for_launch(warps: usize) -> ReplayMemo {
        let slots = (SLOTS_PER_WARP * warps).next_power_of_two().max(WINDOW);
        let shards = (slots / MIN_SHARD_SLOTS).clamp(1, MAX_SHARDS);
        ReplayMemo {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::with_slots(slots / shards)))
                .collect(),
            ..ReplayMemo::default()
        }
    }

    /// The memo that remembers nothing and costs nothing: every warp is
    /// replayed. For launches outside a run.
    pub fn none() -> ReplayMemo {
        ReplayMemo::default()
    }

    fn shard(&self, key: Key) -> std::sync::MutexGuard<'_, Shard> {
        let shard = (key.place() >> 56) as usize & (self.shards.len() - 1);
        self.shards[shard]
            .lock()
            .expect("nothing panics while holding a replay-memo shard")
    }

    /// Prices the warp whose lanes recorded `lanes` into `stats`: from the
    /// stored delta if the warp has been seen, else by running `replay`
    /// into a zeroed delta that is then stored.
    pub(crate) fn price<'t>(
        &self,
        lanes: impl ExactSizeIterator<Item = &'t [Word]>,
        stats: &mut KernelStats,
        replay: impl FnOnce(&mut KernelStats),
    ) {
        if self.shards.is_empty() {
            return replay(stats);
        }
        let Some(key) = fingerprint(lanes) else {
            return;
        };
        let delta = self.lookup(key).unwrap_or_else(|| {
            let mut delta = KernelStats::default();
            replay(&mut delta);
            self.store(key, delta);
            delta
        });
        *stats += delta;
    }

    fn lookup(&self, key: Key) -> Option<KernelStats> {
        let mut shard = self.shard(key);
        let now = shard.tick();
        let found = shard
            .window(key)
            .find(|&i| shard.tags[i].used != 0 && shard.tags[i].key == key);
        let counter = match found {
            Some(_) => &self.hits,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found.map(|i| {
            shard.tags[i].used = now;
            shard.deltas[i]
        })
    }

    fn store(&self, key: Key, delta: KernelStats) {
        let mut shard = self.shard(key);
        let used = shard.tick();
        // The first empty slot (they read as 0), else the least recently
        // used one. Two workers that miss on the same warp at once each
        // store it; the copies hold the same delta and age out.
        let at = shard
            .window(key)
            .min_by_key(|&i| shard.tags[i].used)
            .expect("a window has slots");
        if shard.tags[at].used != 0 {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.tags[at] = Tag { key, used };
        shard.deltas[at] = delta;
    }

    /// Hits, misses and evictions so far, and the table's fill.
    pub fn counts(&self) -> MemoCounts {
        let (mut entries, mut capacity) = (0, 0);
        for shard in self.shards.iter() {
            let shard = shard
                .lock()
                .expect("nothing panics while holding a replay-memo shard");
            entries += shard.tags.iter().filter(|tag| tag.used != 0).count();
            capacity += shard.tags.len();
        }
        MemoCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::event::{AccessKind, ArrayId, MemEvent, Space};
    use crate::warp::{replay_lanes, ReplayScratch};

    fn ev(index: u64, kind: AccessKind, space: Space) -> Word {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index,
            kind,
            space,
        }
        .into()
    }

    fn read(index: u64) -> Word {
        ev(index, AccessKind::Read, Space::Global)
    }

    fn key_of(warp: &[Vec<Word>]) -> Key {
        fingerprint(warp.iter().map(Vec::as_slice)).expect("the warp has events")
    }

    fn replayed(warp: &[Vec<Word>]) -> KernelStats {
        let mut stats = KernelStats::default();
        replay_lanes(
            &GpuConfig::test_tiny(),
            &mut ReplayScratch::default(),
            warp.len(),
            |lane| &warp[lane],
            &mut stats,
        );
        stats
    }

    /// Prices `warp` through `memo`, counting the replays it asks for.
    fn priced(memo: &ReplayMemo, warp: &[Vec<Word>], replays: &mut u32) -> KernelStats {
        let mut stats = KernelStats::default();
        memo.price(warp.iter().map(Vec::as_slice), &mut stats, |delta| {
            *replays += 1;
            *delta += replayed(warp);
        });
        stats
    }

    /// Warps that differ in exactly one thing the replay can see.
    fn neighbours() -> Vec<(&'static str, Vec<Vec<Word>>)> {
        let (a, b, c) = (read(4), read(9), read(17));
        vec![
            ("base", vec![vec![a, b], vec![c]]),
            ("another index", vec![vec![a, read(10)], vec![c]]),
            (
                "another kind",
                vec![vec![a, ev(9, AccessKind::Atomic, Space::Global)], vec![c]],
            ),
            (
                "another space",
                vec![vec![a, ev(9, AccessKind::Read, Space::L2)], vec![c]],
            ),
            ("lane boundary one word later", vec![vec![a], vec![b, c]]),
            ("a trailing idle lane", vec![vec![a, b], vec![c], vec![]]),
            (
                "two trailing idle lanes",
                vec![vec![a, b], vec![c], vec![], vec![]],
            ),
            ("a leading idle lane", vec![vec![], vec![a, b], vec![c]]),
            ("lanes swapped", vec![vec![c], vec![a, b]]),
            ("words swapped", vec![vec![b, a], vec![c]]),
            ("one lane", vec![vec![a, b, c]]),
        ]
    }

    #[test]
    fn warps_that_differ_in_one_thing_get_different_keys() {
        let warps = neighbours();
        for (i, (what, warp)) in warps.iter().enumerate() {
            assert_eq!(
                key_of(warp),
                key_of(&warp.clone()),
                "{what}: not a function"
            );
            for (other, earlier) in &warps[..i] {
                assert_ne!(key_of(warp), key_of(earlier), "{what} against {other}");
            }
        }
    }

    #[test]
    fn every_stored_delta_is_the_direct_replay() {
        let memo = ReplayMemo::for_launch(8);
        let warps = neighbours();
        let mut replays = 0;
        for (what, warp) in &warps {
            assert_eq!(
                priced(&memo, warp, &mut replays),
                replayed(warp),
                "{what}: miss"
            );
        }
        assert_eq!(replays as usize, warps.len());
        // Width 3 against 2: the idle lane is 2 more divergent slots.
        assert_eq!(
            replayed(&warps[5].1).divergent_slots,
            replayed(&warps[0].1).divergent_slots + 2
        );
        for (what, warp) in &warps {
            assert_eq!(
                priced(&memo, warp, &mut replays),
                replayed(warp),
                "{what}: hit"
            );
        }
        assert_eq!(replays as usize, warps.len(), "a hit replayed");
        let counts = memo.counts();
        assert_eq!(
            (counts.hits, counts.misses),
            (warps.len() as u64, warps.len() as u64)
        );
        assert_eq!((counts.evictions, counts.entries), (0, warps.len()));
    }

    #[test]
    fn a_hit_adds_to_what_the_stats_already_hold() {
        let memo = ReplayMemo::for_launch(1);
        let warp = vec![vec![read(0), read(40)], vec![read(1)]];
        let mut stats = KernelStats {
            launches: 1,
            ..KernelStats::default()
        };
        for _ in 0..3 {
            memo.price(warp.iter().map(Vec::as_slice), &mut stats, |delta| {
                *delta += replayed(&warp)
            });
        }
        let once = replayed(&warp);
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.warps, 3);
        assert_eq!(stats.warp_cycles, 3 * once.warp_cycles);
        assert_eq!(stats.divergent_slots, 3 * once.divergent_slots);
    }

    #[test]
    fn a_full_window_evicts_its_least_recently_used_entry() {
        let memo = ReplayMemo::for_launch(0);
        assert_eq!(memo.counts().capacity, WINDOW);
        let warp = |i: u64| vec![vec![read(i)], vec![read(i + 100)]];
        let mut replays = 0;
        for i in 0..WINDOW as u64 {
            priced(&memo, &warp(i), &mut replays);
        }
        // Touch warp 0, so that warp 1 is the oldest.
        priced(&memo, &warp(0), &mut replays);
        assert_eq!((replays as usize, memo.counts().evictions), (WINDOW, 0));
        priced(&memo, &warp(99), &mut replays);
        let counts = memo.counts();
        assert_eq!((counts.evictions, counts.entries), (1, WINDOW));
        let before = replays;
        assert_eq!(priced(&memo, &warp(0), &mut replays), replayed(&warp(0)));
        assert_eq!(replays, before, "the touched entry was evicted");
        assert_eq!(priced(&memo, &warp(1), &mut replays), replayed(&warp(1)));
        assert_eq!(replays, before + 1, "the oldest entry survived");
    }

    #[test]
    fn tables_are_sized_from_the_launch() {
        for (warps, capacity) in [(0, 16), (4, 16), (5, 32), (64, 256), (4096, 16384)] {
            let memo = ReplayMemo::for_launch(warps);
            assert_eq!(memo.counts().capacity, capacity, "{warps} warps");
            assert!(memo.shards.len() <= MAX_SHARDS);
        }
        assert_eq!(ReplayMemo::none().counts(), MemoCounts::default());
    }

    #[test]
    fn the_bypass_replays_every_time_and_counts_nothing() {
        let memo = ReplayMemo::none();
        let warp = vec![vec![read(3)]];
        let mut replays = 0;
        for _ in 0..3 {
            assert_eq!(priced(&memo, &warp, &mut replays), replayed(&warp));
        }
        assert_eq!(replays, 3);
        assert_eq!(memo.counts(), MemoCounts::default());
    }

    #[test]
    fn a_warp_without_events_is_neither_replayed_nor_stored() {
        let memo = ReplayMemo::for_launch(4);
        let mut replays = 0;
        let stats = priced(&memo, &[vec![], vec![], vec![]], &mut replays);
        assert_eq!((stats, replays), (KernelStats::default(), 0));
        let counts = memo.counts();
        assert_eq!((counts.hits, counts.misses, counts.entries), (0, 0, 0));
    }

    #[test]
    fn racing_workers_agree_with_a_serial_pricing() {
        // Eight workers price the same 64 warps 20 times over through a
        // table too small for them: hits, misses and evictions interleave
        // freely, the sums may not move.
        let warps: Vec<Vec<Vec<Word>>> = (0..64u64)
            .map(|w| {
                (0..4)
                    .map(|l| (0..=l).map(|s| read(w * 7 + l * 3 + s)).collect())
                    .collect()
            })
            .collect();
        let mut want = KernelStats::default();
        for warp in &warps {
            for _ in 0..20 {
                want += replayed(warp);
            }
        }
        let memo = ReplayMemo::for_launch(8);
        let barrier = std::sync::Barrier::new(8);
        let total = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|worker| {
                    let (memo, warps, barrier) = (&memo, &warps, &barrier);
                    scope.spawn(move || {
                        let mut stats = KernelStats::default();
                        barrier.wait();
                        for round in 0..20 {
                            // Each worker an eighth of the warps per round,
                            // a different eighth every round.
                            for warp in warps.iter().skip((worker + round) % 8).step_by(8) {
                                stats += priced(memo, warp, &mut 0);
                            }
                        }
                        stats
                    })
                })
                .collect();
            let mut total = KernelStats::default();
            for worker in workers {
                total += worker.join().expect("a pricing worker panicked");
            }
            total
        });
        assert_eq!(total, want);
        let counts = memo.counts();
        assert_eq!(counts.hits + counts.misses, 64 * 20);
        assert!(counts.entries <= counts.capacity);
        assert!(counts.evictions > 0, "the table was meant to be too small");
    }
}
