//! Warp lockstep replay: turns a set of lane traces into cycle costs.

use crate::config::GpuConfig;
use crate::event::{Class, MemEvent, Word, CLASSES};
use crate::stats::KernelStats;

/// Buffers one host worker reuses across every warp it replays.
#[derive(Debug, Default)]
pub(crate) struct ReplayScratch {
    /// `(trace length, lane)` of the non-empty lanes, longest first.
    live: Vec<(usize, usize)>,
    /// Addresses of a step's live lanes, reduced in place to the segments
    /// or banks a uniform step counts.
    addrs: Vec<u64>,
    buckets: Buckets,
}

/// The five buckets of a step that mixes event classes.
#[derive(Debug, Default)]
struct Buckets {
    segments: Vec<u64>,
    l2_segments: Vec<u64>,
    atomic_addrs: Vec<u64>,
    atomic_segments: Vec<u64>,
    banks: Vec<u64>,
}

/// Replays the traces of one warp's lanes in lockstep and accumulates cost
/// into `stats`. `traces[i]` is lane `i`'s event sequence; lanes may have
/// different lengths (divergence). Packs the events into the words
/// [`replay_lanes`] reads and brings its own scratch; the executor records
/// words in the first place and keeps one [`ReplayScratch`] per worker.
pub fn replay_warp(cfg: &GpuConfig, traces: &[&[MemEvent]], stats: &mut KernelStats) {
    let words: Vec<Vec<Word>> = traces
        .iter()
        .map(|t| t.iter().map(|&ev| Word::from(ev)).collect())
        .collect();
    replay_lanes(
        cfg,
        &mut ReplayScratch::default(),
        words.len(),
        |lane| &words[lane],
        stats,
    );
}

/// Length of the longest run of equal values in `sorted` (non-empty).
fn longest_run(sorted: &[u64]) -> u64 {
    let mut worst = 1u64;
    let mut run = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
            worst = worst.max(run);
        } else {
            run = 1;
        }
    }
    worst
}

/// Up to this many values are compared pairwise; more are sorted first.
/// Two of three lockstep steps have two or three live lanes.
const PAIRWISE_MAX: usize = 8;

/// Number of distinct values in `keys` (non-empty; may be reordered).
#[inline]
fn distinct(keys: &mut [u64]) -> u64 {
    match *keys {
        [a, b] => 1 + u64::from(a != b),
        _ if keys.len() <= PAIRWISE_MAX => (0..keys.len())
            .filter(|&i| !keys[..i].contains(&keys[i]))
            .count() as u64,
        _ => {
            keys.sort_unstable();
            1 + keys.windows(2).filter(|w| w[0] != w[1]).count() as u64
        }
    }
}

/// Size of the largest group of equal values in `keys` (non-empty; may be
/// reordered).
#[inline]
fn largest_group(keys: &mut [u64]) -> u64 {
    match *keys {
        [a, b] => 1 + u64::from(a == b),
        _ if keys.len() <= PAIRWISE_MAX => (0..keys.len())
            .map(|i| keys[i..].iter().filter(|&&key| key == keys[i]).count())
            .max()
            .unwrap_or(1) as u64,
        _ => {
            keys.sort_unstable();
            longest_run(keys)
        }
    }
}

/// What one warp's replay counted, flushed into the [`KernelStats`] once.
/// Every cycle counter is a latency times one of these sums, so they are
/// multiplied out at the flush and not per step.
#[derive(Default)]
struct Tally {
    /// Lockstep steps of the warp: the length of its longest trace.
    steps: u64,
    divergent_slots: u64,
    global_accesses: u64,
    /// Non-atomic global transactions (`lat_global` each).
    global_tx: u64,
    l2_accesses: u64,
    l2_tx: u64,
    shared_accesses: u64,
    /// Serialized shared-memory rounds (`lat_shared` each): per step, the
    /// size of the largest same-bank group.
    shared_rounds: u64,
    bank_conflicts: u64,
    atomic_ops: u64,
    atomic_tx: u64,
    /// Serialized atomic rounds (`lat_atomic` each).
    atomic_rounds: u64,
    atomic_collisions: u64,
}

impl Tally {
    /// Lockstep steps that each hold a single event, `lone[class]` of them
    /// per [`Class`]: the event is its own segment, bank and address. A
    /// shared atomic pays a shared round for its bank plus an atomic round
    /// and moves no transaction counter; a global or L2 atomic is one
    /// transaction of each kind.
    fn lone_events(&mut self, lone: [u64; CLASSES]) {
        let of = |class: Class| lone[class as usize];
        self.global_accesses += of(Class::Global);
        self.global_tx += of(Class::Global);
        self.l2_accesses += of(Class::L2);
        self.l2_tx += of(Class::L2);
        self.shared_accesses += of(Class::Shared);
        self.shared_rounds += of(Class::Shared) + of(Class::SharedAtomic);
        self.atomic_ops += of(Class::GlobalAtomic) + of(Class::SharedAtomic);
        self.atomic_tx += of(Class::GlobalAtomic);
        self.atomic_rounds += of(Class::GlobalAtomic) + of(Class::SharedAtomic);
    }

    fn flush(&self, cfg: &GpuConfig, stats: &mut KernelStats) {
        stats.warps += 1;
        stats.steps += self.steps;
        let issue_cycles = cfg.issue_cycles * self.steps;
        let global_cycles = cfg.lat_global * self.global_tx;
        let l2_cycles = cfg.lat_l2 * self.l2_tx;
        let shared_cycles = cfg.lat_shared * self.shared_rounds;
        let atomic_cycles = cfg.lat_atomic * self.atomic_rounds;
        stats.divergent_slots += self.divergent_slots;
        stats.global_accesses += self.global_accesses;
        stats.l2_accesses += self.l2_accesses;
        stats.shared_accesses += self.shared_accesses;
        stats.bank_conflicts += self.bank_conflicts;
        stats.atomic_ops += self.atomic_ops;
        stats.atomic_collisions += self.atomic_collisions;
        stats.global_transactions += self.global_tx + self.atomic_tx;
        stats.l2_transactions += self.l2_tx;
        stats.atomic_transactions += self.atomic_tx;
        stats.issue_cycles += issue_cycles;
        stats.global_cycles += global_cycles;
        stats.l2_cycles += l2_cycles;
        stats.shared_cycles += shared_cycles;
        stats.atomic_cycles += atomic_cycles;
        stats.warp_cycles +=
            issue_cycles + global_cycles + l2_cycles + shared_cycles + atomic_cycles;
    }
}

/// [`replay_warp`] over `width` lanes whose packed traces `trace_of` hands
/// out, with caller-held scratch. Host cost is proportional to the events,
/// not to `width × steps`: the lanes still running at a step are a prefix
/// of the length-ordered live list, and once a single lane is left its
/// remaining steps are priced in closed form. A step whose events share a
/// [`Class`] fills one bucket, which is counted without being sorted; only
/// a step that mixes classes walks the five buckets. Nothing a step
/// accounts depends on the order its lanes are visited in (every bucket is
/// counted as a set or summed), so the counters equal a walk over all lanes
/// in index order.
pub(crate) fn replay_lanes<'t>(
    cfg: &GpuConfig,
    scratch: &mut ReplayScratch,
    width: usize,
    trace_of: impl Fn(usize) -> &'t [Word],
    stats: &mut KernelStats,
) {
    let ReplayScratch {
        live,
        addrs,
        buckets,
    } = scratch;
    live.clear();
    live.extend(
        (0..width)
            .map(|lane| (trace_of(lane).len(), lane))
            .filter(|&(len, _)| len > 0),
    );
    live.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    let Some(&(max_len, longest)) = live.first() else {
        return;
    };
    let segment_words = cfg.segment_words.max(1);
    let shared_banks = cfg.shared_banks.max(1);
    let width = width as u64;
    let mut tally = Tally {
        steps: max_len as u64,
        ..Tally::default()
    };

    let mut k = live.len();
    let mut step = 0;
    while k > 1 {
        let words = live[..k].iter().map(|&(_, lane)| trace_of(lane)[step]);
        let class = trace_of(longest)[step].class();
        addrs.clear();
        let mut uniform = true;
        for word in words.clone() {
            uniform &= word.class() == class;
            addrs.push(word.address());
        }
        // Divergence: slots the warp issues but no lane fills. Warps are
        // padded to full width conceptually; lanes never launched (tail
        // warps) are not charged.
        tally.divergent_slots += width - k as u64;
        let lanes = k as u64;
        match class {
            _ if !uniform => mixed_step(cfg, buckets, words, &mut tally),
            Class::Compute => {}
            // Coalescing: one transaction per distinct segment.
            Class::Global => {
                addrs.iter_mut().for_each(|a| *a /= segment_words);
                tally.global_accesses += lanes;
                tally.global_tx += distinct(addrs);
            }
            // L2 hits: same per-segment coalescing, cheaper round trip.
            Class::L2 => {
                addrs.iter_mut().for_each(|a| *a /= segment_words);
                tally.l2_accesses += lanes;
                tally.l2_tx += distinct(addrs);
            }
            // Shared memory: the largest same-bank group issues serially.
            Class::Shared => {
                addrs.iter_mut().for_each(|a| *a %= shared_banks);
                let worst = largest_group(addrs);
                tally.shared_accesses += lanes;
                tally.bank_conflicts += worst - 1;
                tally.shared_rounds += worst;
            }
            // Global atomics execute in L2 whatever the data's residency:
            // one round trip per distinct segment, plus the largest
            // same-address collision group serializing on top.
            Class::GlobalAtomic => {
                let worst = largest_group(addrs);
                addrs.iter_mut().for_each(|a| *a /= segment_words);
                let tx = distinct(addrs);
                tally.atomic_ops += lanes;
                tally.atomic_tx += tx;
                tally.atomic_collisions += worst - 1;
                tally.atomic_rounds += tx + worst - 1;
            }
            // Shared atomics: bank traffic, then one atomic round plus
            // same-address serialization; no transaction is counted.
            Class::SharedAtomic => {
                let worst = largest_group(addrs);
                addrs.iter_mut().for_each(|a| *a %= shared_banks);
                let worst_bank = largest_group(addrs);
                tally.atomic_ops += lanes;
                tally.bank_conflicts += worst_bank - 1;
                tally.shared_rounds += worst_bank;
                tally.atomic_collisions += worst - 1;
                tally.atomic_rounds += worst;
            }
        }

        step += 1;
        while k > 0 && live[k - 1].0 <= step {
            k -= 1;
        }
    }

    // Single-lane tail: every remaining step holds exactly one event.
    let tail = &trace_of(longest)[step..];
    let mut lone = [0u64; CLASSES];
    for word in tail {
        lone[word.class() as usize] += 1;
    }
    tally.lone_events(lone);
    tally.divergent_slots += (width - 1) * tail.len() as u64;
    tally.flush(cfg, stats);
}

/// One lockstep step whose events are of more than one [`Class`]: each
/// event goes to the bucket its class prices, and each non-empty bucket is
/// counted.
fn mixed_step(
    cfg: &GpuConfig,
    buckets: &mut Buckets,
    words: impl Iterator<Item = Word>,
    tally: &mut Tally,
) {
    let Buckets {
        segments,
        l2_segments,
        atomic_addrs,
        atomic_segments,
        banks,
    } = buckets;
    let segment_words = cfg.segment_words.max(1);
    let shared_banks = cfg.shared_banks.max(1);
    segments.clear();
    l2_segments.clear();
    atomic_addrs.clear();
    atomic_segments.clear();
    banks.clear();
    for word in words {
        let address = word.address();
        match word.class() {
            Class::Compute => {}
            Class::SharedAtomic => {
                tally.atomic_ops += 1;
                atomic_addrs.push(address);
                banks.push(address % shared_banks);
            }
            Class::GlobalAtomic => {
                tally.atomic_ops += 1;
                atomic_addrs.push(address);
                atomic_segments.push(address / segment_words);
            }
            Class::Global => {
                tally.global_accesses += 1;
                segments.push(address / segment_words);
            }
            Class::L2 => {
                tally.l2_accesses += 1;
                l2_segments.push(address / segment_words);
            }
            Class::Shared => {
                tally.shared_accesses += 1;
                banks.push(address % shared_banks);
            }
        }
    }
    if !segments.is_empty() {
        tally.global_tx += distinct(segments);
    }
    if !l2_segments.is_empty() {
        tally.l2_tx += distinct(l2_segments);
    }
    if !banks.is_empty() {
        let worst = largest_group(banks);
        tally.bank_conflicts += worst - 1;
        tally.shared_rounds += worst;
    }
    // A step of shared atomics alone still pays one atomic round.
    if !atomic_addrs.is_empty() {
        let tx = match atomic_segments.is_empty() {
            true => 0,
            false => distinct(atomic_segments),
        };
        let worst = largest_group(atomic_addrs);
        tally.atomic_tx += tx;
        tally.atomic_collisions += worst - 1;
        tally.atomic_rounds += tx.max(1) + worst - 1;
    }
}

/// The replay as the parent commit had it, over unpacked events: the same
/// length-ordered live prefix and closed-form tail, but every step fills
/// and sorts the five buckets and every counter is bumped in place. The
/// reference the differential tests compare [`replay_warp`] against, field
/// by field.
#[cfg(test)]
fn replay_warp_reference(cfg: &GpuConfig, traces: &[&[MemEvent]], stats: &mut KernelStats) {
    use crate::event::{AccessKind, Space};
    let mut live: Vec<(usize, usize)> = (0..traces.len())
        .map(|lane| (traces[lane].len(), lane))
        .filter(|&(len, _)| len > 0)
        .collect();
    live.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    let Some(&(max_len, longest)) = live.first() else {
        return;
    };
    stats.warps += 1;
    stats.steps += max_len as u64;
    let segment_words = cfg.segment_words.max(1);
    let shared_banks = cfg.shared_banks.max(1);
    let width = traces.len() as u64;
    let (mut segments, mut l2_segments) = (Vec::new(), Vec::new());
    let (mut atomic_addrs, mut atomic_segments, mut banks) = (Vec::new(), Vec::new(), Vec::new());

    let mut k = live.len();
    let mut step = 0;
    while k > 1 {
        let mut cycles = cfg.issue_cycles;
        stats.issue_cycles += cfg.issue_cycles;
        segments.clear();
        l2_segments.clear();
        atomic_addrs.clear();
        atomic_segments.clear();
        banks.clear();
        for &(_, lane) in &live[..k] {
            let ev = &traces[lane][step];
            match (ev.kind, ev.space) {
                (AccessKind::Compute, _) => {}
                (AccessKind::Atomic, Space::Shared) => {
                    stats.atomic_ops += 1;
                    atomic_addrs.push(ev.address());
                    banks.push(ev.address() % shared_banks);
                }
                (AccessKind::Atomic, Space::Global | Space::L2) => {
                    stats.atomic_ops += 1;
                    atomic_addrs.push(ev.address());
                    atomic_segments.push(ev.address() / segment_words);
                }
                (_, Space::Global) => {
                    stats.global_accesses += 1;
                    segments.push(ev.address() / segment_words);
                }
                (_, Space::L2) => {
                    stats.l2_accesses += 1;
                    l2_segments.push(ev.address() / segment_words);
                }
                (_, Space::Shared) => {
                    stats.shared_accesses += 1;
                    banks.push(ev.address() % shared_banks);
                }
            }
        }
        stats.divergent_slots += width - k as u64;
        if !segments.is_empty() {
            segments.sort_unstable();
            segments.dedup();
            stats.global_transactions += segments.len() as u64;
            let c = cfg.lat_global * segments.len() as u64;
            stats.global_cycles += c;
            cycles += c;
        }
        if !l2_segments.is_empty() {
            l2_segments.sort_unstable();
            l2_segments.dedup();
            stats.l2_transactions += l2_segments.len() as u64;
            let c = cfg.lat_l2 * l2_segments.len() as u64;
            stats.l2_cycles += c;
            cycles += c;
        }
        if !banks.is_empty() {
            banks.sort_unstable();
            let worst = longest_run(&banks);
            stats.bank_conflicts += worst - 1;
            let c = cfg.lat_shared * worst;
            stats.shared_cycles += c;
            cycles += c;
        }
        if !atomic_addrs.is_empty() {
            atomic_segments.sort_unstable();
            atomic_segments.dedup();
            let tx = atomic_segments.len().max(1) as u64;
            stats.global_transactions += atomic_segments.len() as u64;
            stats.atomic_transactions += atomic_segments.len() as u64;
            atomic_addrs.sort_unstable();
            let worst = longest_run(&atomic_addrs);
            stats.atomic_collisions += worst - 1;
            let c = cfg.lat_atomic * (tx + worst - 1);
            stats.atomic_cycles += c;
            cycles += c;
        }
        stats.warp_cycles += cycles;

        step += 1;
        while k > 0 && live[k - 1].0 <= step {
            k -= 1;
        }
    }

    let tail = &traces[longest][step..];
    let (mut global, mut l2, mut shared) = (0u64, 0u64, 0u64);
    let (mut shared_atomics, mut global_atomics) = (0u64, 0u64);
    for ev in tail {
        match (ev.kind, ev.space) {
            (AccessKind::Compute, _) => {}
            (AccessKind::Atomic, Space::Shared) => shared_atomics += 1,
            (AccessKind::Atomic, Space::Global | Space::L2) => global_atomics += 1,
            (_, Space::Global) => global += 1,
            (_, Space::L2) => l2 += 1,
            (_, Space::Shared) => shared += 1,
        }
    }
    let remaining = tail.len() as u64;
    let issue_cycles = cfg.issue_cycles * remaining;
    let global_cycles = cfg.lat_global * global;
    let l2_cycles = cfg.lat_l2 * l2;
    let shared_cycles = cfg.lat_shared * (shared + shared_atomics);
    let atomic_cycles = cfg.lat_atomic * (shared_atomics + global_atomics);
    stats.divergent_slots += (width - 1) * remaining;
    stats.global_accesses += global;
    stats.l2_accesses += l2;
    stats.shared_accesses += shared;
    stats.atomic_ops += shared_atomics + global_atomics;
    stats.global_transactions += global + global_atomics;
    stats.l2_transactions += l2;
    stats.atomic_transactions += global_atomics;
    stats.issue_cycles += issue_cycles;
    stats.global_cycles += global_cycles;
    stats.l2_cycles += l2_cycles;
    stats.shared_cycles += shared_cycles;
    stats.atomic_cycles += atomic_cycles;
    stats.warp_cycles += issue_cycles + global_cycles + l2_cycles + shared_cycles + atomic_cycles;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, ArrayId, Space};

    fn read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::Global,
        }
    }

    fn shared_read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::Shared,
        }
    }

    fn atomic(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Atomic,
            space: Space::Global,
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::test_tiny() // 4-lane warps, 4-word segments, lat 100/10/20
    }

    #[test]
    fn fully_coalesced_step_is_one_transaction() {
        let t0 = [read(0)];
        let t1 = [read(1)];
        let t2 = [read(2)];
        let t3 = [read(3)];
        let traces = [&t0[..], &t1[..], &t2[..], &t3[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.global_transactions, 1);
        assert_eq!(stats.warp_cycles, 1 + 100);
        assert_eq!(stats.divergent_slots, 0);
    }

    #[test]
    fn scattered_step_pays_per_segment() {
        // The paper's motivating example: lanes touch attr[4], attr[0],
        // attr[11], attr[19] — four distinct 4-word chunks.
        let t0 = [read(4)];
        let t1 = [read(0)];
        let t2 = [read(11)];
        let t3 = [read(19)];
        let traces = [&t0[..], &t1[..], &t2[..], &t3[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.global_transactions, 4);
        assert_eq!(stats.warp_cycles, 1 + 4 * 100);
    }

    #[test]
    fn divergence_counts_idle_slots_and_max_length_rules() {
        let long = [read(0), read(1), read(2)];
        let short = [read(4)];
        let traces = [&long[..], &short[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert_eq!(stats.steps, 3);
        // Steps 2 and 3: one of two lanes idle.
        assert_eq!(stats.divergent_slots, 2);
    }

    #[test]
    fn shared_access_is_cheaper_than_global() {
        let g = [read(0)];
        let s = [shared_read(0)];
        let mut global_stats = KernelStats::default();
        replay_warp(&cfg(), &[&g[..]], &mut global_stats);
        let mut shared_stats = KernelStats::default();
        replay_warp(&cfg(), &[&s[..]], &mut shared_stats);
        assert!(shared_stats.warp_cycles < global_stats.warp_cycles);
        assert_eq!(shared_stats.shared_accesses, 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        // Bank count is 4 in the tiny config; indices 0 and 4 share bank 0.
        let a = [shared_read(0)];
        let b = [shared_read(4)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&a[..], &b[..]], &mut stats);
        assert_eq!(stats.bank_conflicts, 1);
        assert_eq!(stats.warp_cycles, 1 + 2 * 10);
    }

    #[test]
    fn atomic_collisions_serialize() {
        let a = [atomic(5)];
        let b = [atomic(5)];
        let c = [atomic(6)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&a[..], &b[..], &c[..]], &mut stats);
        assert_eq!(stats.atomic_ops, 3);
        assert_eq!(stats.atomic_collisions, 1);
        // Addresses 5, 5, 6 share one 4-word segment (1 tx); the same-
        // address pair serializes one extra round: 1 + 20 * (1 + 1).
        assert_eq!(stats.warp_cycles, 1 + 2 * 20);
        assert_eq!(stats.global_transactions, 1);
    }

    #[test]
    fn scattered_atomics_pay_per_segment() {
        let a = [atomic(0)];
        let b = [atomic(16)];
        let mut near_stats = KernelStats::default();
        let a2 = [atomic(0)];
        let b2 = [atomic(1)];
        replay_warp(&cfg(), &[&a[..], &b[..]], &mut near_stats);
        let mut coal_stats = KernelStats::default();
        replay_warp(&cfg(), &[&a2[..], &b2[..]], &mut coal_stats);
        assert!(
            coal_stats.warp_cycles < near_stats.warp_cycles,
            "same-segment atomics must batch: {} vs {}",
            coal_stats.warp_cycles,
            near_stats.warp_cycles
        );
    }

    #[test]
    fn component_cycles_sum_to_warp_cycles() {
        // Mixed workload: global reads, shared reads with conflicts, atomics
        // with collisions, divergence. The metered components must partition
        // the total exactly.
        let t0 = [read(0), shared_read(0), atomic(5)];
        let t1 = [read(9), shared_read(4), atomic(5)];
        let t2 = [read(17), shared_read(1)];
        let traces = [&t0[..], &t1[..], &t2[..]];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &traces, &mut stats);
        assert!(stats.warp_cycles > 0);
        assert_eq!(
            stats.issue_cycles
                + stats.global_cycles
                + stats.shared_cycles
                + stats.atomic_cycles
                + stats.l2_cycles,
            stats.warp_cycles
        );
    }

    fn l2_read(idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind: AccessKind::Read,
            space: Space::L2,
        }
    }

    #[test]
    fn l2_hits_coalesce_like_global_at_l2_latency() {
        // Four lanes reading one 4-word segment: one L2 transaction.
        let t0 = [l2_read(0)];
        let t1 = [l2_read(1)];
        let t2 = [l2_read(2)];
        let t3 = [l2_read(3)];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&t0[..], &t1[..], &t2[..], &t3[..]], &mut stats);
        assert_eq!(stats.l2_accesses, 4);
        assert_eq!(stats.l2_transactions, 1);
        assert_eq!(stats.global_transactions, 0);
        assert_eq!(stats.warp_cycles, 1 + 25); // issue + one lat_l2 hit
        assert_eq!(stats.l2_cycles, 25);

        // Scattered L2 reads pay per distinct segment, like global.
        let s0 = [l2_read(0)];
        let s1 = [l2_read(16)];
        let mut scattered = KernelStats::default();
        replay_warp(&cfg(), &[&s0[..], &s1[..]], &mut scattered);
        assert_eq!(scattered.l2_transactions, 2);
        assert_eq!(scattered.warp_cycles, 1 + 2 * 25);
    }

    #[test]
    fn l2_sits_between_shared_and_global() {
        let g = [read(0)];
        let s = [shared_read(0)];
        let l = [l2_read(0)];
        let mut gs = KernelStats::default();
        replay_warp(&cfg(), &[&g[..]], &mut gs);
        let mut ss = KernelStats::default();
        replay_warp(&cfg(), &[&s[..]], &mut ss);
        let mut ls = KernelStats::default();
        replay_warp(&cfg(), &[&l[..]], &mut ls);
        assert!(ss.warp_cycles < ls.warp_cycles);
        assert!(ls.warp_cycles < gs.warp_cycles);
    }

    #[test]
    fn l2_atomics_price_like_global_atomics() {
        let a = [atomic(5)];
        let b = [MemEvent {
            array: ArrayId::NODE_ATTR,
            index: 5,
            kind: AccessKind::Atomic,
            space: Space::L2,
        }];
        let mut ga = KernelStats::default();
        replay_warp(&cfg(), &[&a[..]], &mut ga);
        let mut la = KernelStats::default();
        replay_warp(&cfg(), &[&b[..]], &mut la);
        // Residency never discounts the RMW round trip.
        assert_eq!(ga.warp_cycles, la.warp_cycles);
        assert_eq!(la.atomic_ops, 1);
        assert_eq!(la.l2_accesses, 0);
    }

    #[test]
    fn empty_traces_cost_nothing() {
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&[][..], &[][..]], &mut stats);
        assert_eq!(stats.warp_cycles, 0);
        assert_eq!(stats.warps, 0);
    }

    #[test]
    fn compute_only_step_costs_issue() {
        let t = [MemEvent {
            array: ArrayId(u16::MAX),
            index: 0,
            kind: AccessKind::Compute,
            space: Space::Global,
        }];
        let mut stats = KernelStats::default();
        replay_warp(&cfg(), &[&t[..]], &mut stats);
        assert_eq!(stats.warp_cycles, 1);
    }

    fn ev(kind: AccessKind, space: Space, idx: u64) -> MemEvent {
        MemEvent {
            array: ArrayId::NODE_ATTR,
            index: idx,
            kind,
            space,
        }
    }

    /// Replays `traces` through [`replay_warp`] and through the reference
    /// loop and compares all 21 counters by name.
    fn replay_checked(cfg: &GpuConfig, traces: &[&[MemEvent]]) -> KernelStats {
        let mut got = KernelStats::default();
        replay_warp(cfg, traces, &mut got);
        let mut want = KernelStats::default();
        replay_warp_reference(cfg, traces, &mut want);
        for (got, want) in got.field_pairs().iter().zip(want.field_pairs()) {
            assert_eq!(*got, want);
        }
        got
    }

    #[test]
    fn lone_shared_atomic_pays_bank_and_round_without_transactions() {
        let t = [ev(AccessKind::Atomic, Space::Shared, 5)];
        let stats = replay_checked(&cfg(), &[&t[..], &[][..]]);
        assert_eq!(stats.atomic_ops, 1);
        assert_eq!(stats.shared_accesses, 0);
        assert_eq!(stats.shared_cycles, 10);
        assert_eq!(stats.atomic_cycles, 20);
        assert_eq!(stats.warp_cycles, 1 + 10 + 20);
        assert_eq!(stats.global_transactions, 0);
        assert_eq!(stats.atomic_transactions, 0);
        assert_eq!(stats.divergent_slots, 1);
    }

    #[test]
    fn lone_l2_atomic_is_one_transaction_of_each_kind() {
        let t = [ev(AccessKind::Atomic, Space::L2, 5)];
        let stats = replay_checked(&cfg(), &[&t[..]]);
        assert_eq!(stats.atomic_ops, 1);
        assert_eq!(stats.global_transactions, 1);
        assert_eq!(stats.atomic_transactions, 1);
        assert_eq!(stats.l2_accesses, 0);
        assert_eq!(stats.l2_transactions, 0);
        assert_eq!(stats.warp_cycles, 1 + 20);
    }

    #[test]
    fn lone_compute_slot_after_a_full_prefix_costs_issue_and_three_idle_slots() {
        let long = [read(0), ev(AccessKind::Compute, Space::Global, 0)];
        let (t1, t2, t3) = ([read(1)], [read(2)], [read(3)]);
        let stats = replay_checked(&cfg(), &[&t1[..], &long[..], &t2[..], &t3[..]]);
        assert_eq!(stats.steps, 2);
        assert_eq!(stats.divergent_slots, 3);
        assert_eq!(stats.global_transactions, 1);
        assert_eq!(stats.issue_cycles, 2);
        assert_eq!(stats.warp_cycles, (1 + 100) + 1);
    }

    #[test]
    fn lanes_of_equal_length_end_together() {
        // No lane outlives the others: the step loop runs to the end and
        // the tail has nothing left to price.
        let a = [read(0), atomic(5)];
        let b = [read(9), atomic(5)];
        let stats = replay_checked(&cfg(), &[&a[..], &[][..], &b[..]]);
        assert_eq!(stats.steps, 2);
        assert_eq!(stats.divergent_slots, 2);
        replay_checked(&cfg(), &[&[][..], &[][..]]);
        replay_checked(&cfg(), &[]);
    }

    const ALL_CLASSES: [Class; CLASSES] = [
        Class::Compute,
        Class::Global,
        Class::L2,
        Class::Shared,
        Class::GlobalAtomic,
        Class::SharedAtomic,
    ];

    /// The `(kind, space)` pairs the replay prices as `class`: a step is
    /// uniform by class, so reads meet writes in it and global atomics meet
    /// L2 ones.
    fn members(class: Class) -> &'static [(AccessKind, Space)] {
        use AccessKind::{Atomic, Compute, Read, Write};
        match class {
            Class::Compute => &[
                (Compute, Space::Global),
                (Compute, Space::Shared),
                (Compute, Space::L2),
            ],
            Class::Global => &[(Read, Space::Global), (Write, Space::Global)],
            Class::L2 => &[(Read, Space::L2), (Write, Space::L2)],
            Class::Shared => &[(Read, Space::Shared), (Write, Space::Shared)],
            Class::GlobalAtomic => &[(Atomic, Space::Global), (Atomic, Space::L2)],
            Class::SharedAtomic => &[(Atomic, Space::Shared)],
        }
    }

    /// An event of `class`: its `pick`-th member, on one of two arrays.
    fn of_class(class: Class, pick: usize, array: u16, index: u64) -> MemEvent {
        let members = members(class);
        let (kind, space) = members[pick % members.len()];
        MemEvent {
            array: ArrayId(ArrayId::NODE_ATTR.0 + array % 2),
            index,
            kind,
            space,
        }
    }

    fn checked_under_every_cfg(lanes: &[Vec<MemEvent>]) {
        let traces: Vec<&[MemEvent]> = lanes.iter().map(Vec::as_slice).collect();
        let odd = GpuConfig {
            segment_words: 24,
            shared_banks: 12,
            ..GpuConfig::k40c()
        };
        for cfg in [GpuConfig::test_tiny(), GpuConfig::k40c(), odd] {
            replay_checked(&cfg, &traces);
        }
    }

    #[test]
    fn members_are_of_their_class() {
        for class in ALL_CLASSES {
            assert_eq!(
                class as usize,
                ALL_CLASSES.iter().position(|&c| c == class).unwrap()
            );
            for pick in 0..members(class).len() {
                assert_eq!(Word::from(of_class(class, pick, 0, 7)).class(), class);
            }
        }
    }

    /// The uniform arm at every count of live lanes — 2, the pairwise range
    /// and the sorted range — for each class, over index patterns that
    /// collide fully, partly and not at all in segments, banks and
    /// addresses. Two full steps, then lane 0 runs one event on alone.
    #[test]
    fn uniform_steps_of_every_class_and_live_count_equal_the_reference() {
        let patterns: [fn(u64, u64) -> u64; 4] = [
            |_, _| 5,                                   // one address
            |lane, step| lane + step,                   // consecutive
            |lane, step| (lane * 32 + step) % 97,       // scattered
            |lane, step| (lane * lane + 3 * step) % 11, // few values, repeats
        ];
        for class in ALL_CLASSES {
            for k in 2..=32u64 {
                for pattern in patterns {
                    let mut lanes: Vec<Vec<MemEvent>> = (0..k)
                        .map(|lane| {
                            (0..2)
                                .map(|step| {
                                    let pick = (lane + step) as usize;
                                    of_class(class, pick, lane as u16 / 5, pattern(lane, step))
                                })
                                .collect()
                        })
                        .collect();
                    lanes[0].push(of_class(class, 0, 0, 3));
                    // An idle slot inside the warp and one at its end.
                    lanes.insert(1, Vec::new());
                    lanes.push(Vec::new());
                    lanes.truncate(32);
                    checked_under_every_cfg(&lanes);
                }
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn event() -> impl Strategy<Value = MemEvent> {
            // Two arrays and 48 indices: segments (4, 24 or 32 words), banks
            // (4, 12 or 32) and atomic addresses collide inside a step.
            (0usize..4, 0usize..3, 0u16..2, 0u64..48).prop_map(|(kind, space, array, index)| {
                MemEvent {
                    array: ArrayId(ArrayId::NODE_ATTR.0 + array),
                    index,
                    kind: [
                        AccessKind::Read,
                        AccessKind::Write,
                        AccessKind::Atomic,
                        AccessKind::Compute,
                    ][kind],
                    space: [Space::Global, Space::Shared, Space::L2][space],
                }
            })
        }

        /// Short lanes (empty ones included) around one hub lane long
        /// enough that the single-lane tail does most of the pricing; one
        /// warp in four has no hub, so lanes also tie for the longest.
        fn warp() -> impl Strategy<Value = Vec<Vec<MemEvent>>> {
            (1usize..=32).prop_flat_map(|width| {
                (
                    prop::collection::vec(prop::collection::vec(event(), 0..40), width..width + 1),
                    prop::collection::vec(event(), 200..2000),
                    0..width,
                    0usize..4,
                )
                    .prop_map(|(mut lanes, hub, at, hubless)| {
                        if hubless != 0 {
                            lanes[at] = hub;
                        }
                        lanes
                    })
            })
        }

        /// A warp whose lanes run the same straight-line code: step `s` is
        /// of class `classes[s]` in every lane that is still running (a
        /// quarter of the lanes stop early), so every step is uniform —
        /// until `branch` puts one extra event into one lane, after which
        /// that lane is a step behind and every step where the class
        /// sequence changes is mixed.
        fn lockstep_warp() -> impl Strategy<Value = Vec<Vec<MemEvent>>> {
            (2usize..=32, prop::collection::vec(0usize..CLASSES, 1..10)).prop_flat_map(
                |(k, classes)| {
                    let steps = classes.len();
                    let lane = (
                        prop::collection::vec((0usize..3, 0u16..2, 0u64..48), steps..steps + 1),
                        0usize..4,
                        1..=steps,
                    );
                    (
                        Just(classes),
                        prop::collection::vec(lane, k..k + 1),
                        0..=32 - k,
                        (0usize..3, 0..k, 0..steps, event()),
                    )
                        .prop_map(
                            |(classes, lanes, idle, (branches, lane, at, extra))| {
                                let mut warp: Vec<Vec<MemEvent>> = lanes
                                    .into_iter()
                                    .map(|(picks, stops_early, keep)| {
                                        let len = if stops_early == 0 { keep } else { picks.len() };
                                        picks[..len]
                                            .iter()
                                            .zip(&classes)
                                            .map(|(&(pick, array, index), &class)| {
                                                of_class(ALL_CLASSES[class], pick, array, index)
                                            })
                                            .collect()
                                    })
                                    .collect();
                                if branches != 0 {
                                    let at = at.min(warp[lane].len());
                                    warp[lane].insert(at, extra);
                                }
                                warp.splice(0..0, vec![Vec::new(); idle]);
                                warp
                            },
                        )
                },
            )
        }

        proptest! {
            #[test]
            fn live_prefix_and_tail_equal_the_reference_loop(lanes in warp()) {
                checked_under_every_cfg(&lanes);
            }

            #[test]
            fn uniform_and_branch_shifted_steps_equal_the_reference_loop(lanes in lockstep_warp()) {
                checked_under_every_cfg(&lanes);
            }
        }
    }
}
