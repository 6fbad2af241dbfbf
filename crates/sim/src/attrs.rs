//! Shared attribute arrays for parallel vertex programs.
//!
//! With `run_blocks` executing warps concurrently, kernels can no longer
//! capture `&mut` host arrays; attribute state must be shared (`&self`) and
//! every concurrent update must be **commutative and exact**, so that the
//! final value — and therefore every downstream metered superstep — is
//! identical at any thread count:
//!
//! * [`AtomicF64Array`] — `f64` cells over `AtomicU64` bit-cast CAS.
//!   `fetch_min`/`fetch_max` are exact commutative folds; `fetch_add` is
//!   order-independent only when the addends are integer-valued (exact
//!   f64 adds are associative), which is how BC's path counts use it.
//! * [`FixedPointF64Array`] — an `f64` accumulator in 32.32 fixed point.
//!   Integer wrapping adds commute exactly, so *fractional* accumulation
//!   (PageRank shares, BC dependencies) is deterministic under any
//!   interleaving, at ~2e-10 quantization per addend. Its encoding,
//!   [`FixedPoint`], serves host-side folds over plain `i64`s.
//! * [`AtomicU32Array`] / [`AtomicU64Array`] — native integer atomics for
//!   labels, levels and packed (weight, edge) keys.
//! * [`DoubleBuffered`] — Jacobi-style read buffer + atomic write buffer
//!   for kernels whose reads must not observe same-superstep writes.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Shared array of `f64` attribute cells with commutative atomic folds.
#[derive(Debug, Default)]
pub struct AtomicF64Array {
    cells: Vec<AtomicU64>,
}

impl AtomicF64Array {
    pub fn new(len: usize, init: f64) -> Self {
        AtomicF64Array {
            cells: (0..len).map(|_| AtomicU64::new(init.to_bits())).collect(),
        }
    }

    pub fn from_slice(values: &[f64]) -> Self {
        AtomicF64Array {
            cells: values.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn store(&self, i: usize, v: f64) {
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically lowers cell `i` to `min(cell, v)`; returns the previous
    /// value. Exact and commutative: the final cell value is the same for
    /// any interleaving of concurrent `fetch_min`s.
    #[inline]
    pub fn fetch_min(&self, i: usize, v: f64) -> f64 {
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            // Negated comparison on purpose: a NaN `v` must never replace
            // the current value, and `partial_cmp` would hide that.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(v < cur_f) {
                return cur_f;
            }
            match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically raises cell `i` to `max(cell, v)`; returns the previous
    /// value.
    #[inline]
    pub fn fetch_max(&self, i: usize, v: f64) -> f64 {
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            // Negated comparison on purpose: a NaN `v` must never replace
            // the current value, and `partial_cmp` would hide that.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(v > cur_f) {
                return cur_f;
            }
            match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically adds `v` to cell `i`; returns the previous value.
    ///
    /// Order-independent **only** when all concurrent addends are
    /// integer-valued and sums stay below 2^53 (exact f64 additions are
    /// associative). For fractional accumulation use
    /// [`FixedPointF64Array`].
    #[inline]
    pub fn fetch_add(&self, i: usize, v: f64) -> f64 {
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            match cell.compare_exchange_weak(
                cur,
                (cur_f + v).to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return cur_f,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }

    pub fn fill(&self, v: f64) {
        for cell in &self.cells {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn copy_from(&self, values: &[f64]) {
        assert_eq!(values.len(), self.len());
        for (cell, v) in self.cells.iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// The signed fixed-point encoding behind [`FixedPointF64Array`]. Host
/// code that sums raw addends in plain `i64`s — a fold nothing reads while
/// it runs — encodes and decodes through this to land on exactly the bits
/// the array would hold.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedPoint {
    scale: f64,
}

impl FixedPoint {
    /// `frac_bits` fractional bits: resolution `2^-frac_bits`, range
    /// `±2^(63-frac_bits)`.
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits < 63);
        FixedPoint {
            scale: (1u64 << frac_bits) as f64,
        }
    }

    /// The raw encoding of `v`: the exact integer one add of `v`
    /// contributes.
    #[inline]
    pub fn quantize_raw(self, v: f64) -> i64 {
        (v * self.scale).round() as i64
    }

    /// The value a cell holding `raw` reads as.
    #[inline]
    pub fn value(self, raw: i64) -> f64 {
        raw as f64 / self.scale
    }
}

/// Deterministic fractional accumulator: signed fixed point over wrapping
/// integer atomics. Integer adds commute exactly, so concurrent
/// accumulation yields bit-identical totals at any thread count. The
/// precision/range split is chosen per use: 32.32 (the default) gives
/// ~2.3e-10 resolution with ±2^31 range; more fractional bits trade range
/// for resolution (e.g. PageRank residuals compare against a 1e-9
/// threshold and need a far finer grid).
#[derive(Debug, Default)]
pub struct FixedPointF64Array {
    cells: Vec<AtomicU64>,
    fixed: FixedPoint,
}

/// Default 32.32 split.
const DEFAULT_FRAC_BITS: u32 = 32;

impl FixedPointF64Array {
    pub fn new(len: usize) -> Self {
        Self::with_frac_bits(len, DEFAULT_FRAC_BITS)
    }

    /// `frac_bits` fractional bits (see [`FixedPoint::new`]).
    pub fn with_frac_bits(len: usize, frac_bits: u32) -> Self {
        FixedPointF64Array {
            cells: (0..len).map(|_| AtomicU64::new(0)).collect(),
            fixed: FixedPoint::new(frac_bits),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    fn quantize(&self, v: f64) -> u64 {
        self.fixed.quantize_raw(v) as u64
    }

    /// Atomically accumulates `v` (quantized) into cell `i`.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        self.cells[i].fetch_add(self.quantize(v), Ordering::Relaxed);
    }

    /// Atomically accumulates `v` and returns the cell value *after* this
    /// add (in f64). With same-signed concurrent addends the threshold-
    /// crossing add observes the crossing under every interleaving, which
    /// is what frontier activation predicates rely on.
    #[inline]
    pub fn add_returning(&self, i: usize, v: f64) -> f64 {
        let q = self.quantize(v);
        let prev = self.cells[i].fetch_add(q, Ordering::Relaxed);
        self.fixed.value(prev.wrapping_add(q) as i64)
    }

    /// Overwrites cell `i` with `v` (quantized). Only safe against
    /// concurrent `add`s when externally ordered (e.g. host-side between
    /// supersteps).
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        self.cells[i].store(self.quantize(v), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.fixed
            .value(self.cells[i].load(Ordering::Relaxed) as i64)
    }

    /// The raw fixed-point encoding of `v` — the exact integer a single
    /// [`FixedPointF64Array::add`] of `v` would contribute. Pull-mode
    /// kernels accumulate several raw addends in a register and commit the
    /// sum with one [`FixedPointF64Array::add_raw_returning`], which lands
    /// on the same cell bits as the equivalent sequence of `add`s.
    #[inline]
    pub fn quantize_raw(&self, v: f64) -> i64 {
        self.fixed.quantize_raw(v)
    }

    /// Atomically accumulates a pre-quantized raw addend (see
    /// [`FixedPointF64Array::quantize_raw`]) and returns the cell value
    /// *after* this add, with the same threshold-crossing guarantee as
    /// [`FixedPointF64Array::add_returning`].
    #[inline]
    pub fn add_raw_returning(&self, i: usize, raw: i64) -> f64 {
        let prev = self.cells[i].fetch_add(raw as u64, Ordering::Relaxed);
        self.fixed.value(prev.wrapping_add(raw as u64) as i64)
    }

    /// Resets every cell to zero.
    pub fn clear(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }

    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// Shared array of `u32` cells (labels, BFS levels, flags).
#[derive(Debug, Default)]
pub struct AtomicU32Array {
    cells: Vec<AtomicU32>,
}

impl AtomicU32Array {
    pub fn new(len: usize, init: u32) -> Self {
        AtomicU32Array {
            cells: (0..len).map(|_| AtomicU32::new(init)).collect(),
        }
    }

    pub fn from_slice(values: &[u32]) -> Self {
        AtomicU32Array {
            cells: values.iter().map(|&v| AtomicU32::new(v)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    pub fn load(&self, i: usize) -> u32 {
        self.cells[i].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, i: usize, v: u32) {
        self.cells[i].store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn fetch_min(&self, i: usize, v: u32) -> u32 {
        self.cells[i].fetch_min(v, Ordering::Relaxed)
    }

    #[inline]
    pub fn fetch_max(&self, i: usize, v: u32) -> u32 {
        self.cells[i].fetch_max(v, Ordering::Relaxed)
    }

    #[inline]
    pub fn fetch_add(&self, i: usize, v: u32) -> u32 {
        self.cells[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Single atomic winner among concurrent claimants: true iff this call
    /// transitioned the cell from `expected` to `new`.
    #[inline]
    pub fn claim(&self, i: usize, expected: u32, new: u32) -> bool {
        self.cells[i]
            .compare_exchange(expected, new, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    pub fn to_vec(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }

    pub fn fill(&self, v: u32) {
        for cell in &self.cells {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

/// Shared array of `u64` cells (packed `(weight, edge)` min-keys in MST).
#[derive(Debug, Default)]
pub struct AtomicU64Array {
    cells: Vec<AtomicU64>,
}

impl AtomicU64Array {
    pub fn new(len: usize, init: u64) -> Self {
        AtomicU64Array {
            cells: (0..len).map(|_| AtomicU64::new(init)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.cells[i].store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn fetch_min(&self, i: usize, v: u64) -> u64 {
        self.cells[i].fetch_min(v, Ordering::Relaxed)
    }

    pub fn fill(&self, v: u64) {
        for cell in &self.cells {
            cell.store(v, Ordering::Relaxed);
        }
    }

    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

/// Jacobi-style double buffer: kernels read a frozen `prev` snapshot and
/// fold into an atomic `next`, so no lane ever observes a same-superstep
/// write — removing the read-after-write races that would otherwise make
/// results depend on warp scheduling.
#[derive(Debug)]
pub struct DoubleBuffered {
    prev: Vec<f64>,
    next: AtomicF64Array,
}

impl DoubleBuffered {
    /// Both buffers start as `init`.
    pub fn new(init: Vec<f64>) -> Self {
        let next = AtomicF64Array::from_slice(&init);
        DoubleBuffered { prev: init, next }
    }

    pub fn len(&self) -> usize {
        self.prev.len()
    }

    pub fn is_empty(&self) -> bool {
        self.prev.is_empty()
    }

    /// Snapshot read (previous superstep's value).
    #[inline]
    pub fn read(&self, i: usize) -> f64 {
        self.prev[i]
    }

    pub fn prev(&self) -> &[f64] {
        &self.prev
    }

    #[inline]
    pub fn fetch_min_next(&self, i: usize, v: f64) -> f64 {
        self.next.fetch_min(i, v)
    }

    #[inline]
    pub fn store_next(&self, i: usize, v: f64) {
        self.next.store(i, v)
    }

    #[inline]
    pub fn read_next(&self, i: usize) -> f64 {
        self.next.load(i)
    }

    /// Publishes `next` as the new snapshot; `next` keeps its values
    /// (min-fold kernels keep lowering the same cells next superstep).
    pub fn commit(&mut self) {
        for (p, i) in self.prev.iter_mut().zip(0..self.next.len()) {
            *p = self.next.load(i);
        }
    }

    /// Publishes `next` as the new snapshot, then resets `next` to `fill`
    /// (sum-fold kernels start each superstep from a clean slate).
    pub fn commit_and_fill(&mut self, fill: f64) {
        self.commit();
        self.next.fill(fill);
    }

    /// Overwrites both buffers.
    pub fn reset(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.prev.len());
        self.prev.copy_from_slice(values);
        self.next.copy_from(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn f64_fetch_min_keeps_smallest() {
        let a = AtomicF64Array::new(2, f64::INFINITY);
        assert_eq!(a.fetch_min(0, 5.0), f64::INFINITY);
        assert_eq!(a.fetch_min(0, 7.0), 5.0);
        assert_eq!(a.load(0), 5.0);
        assert_eq!(a.load(1), f64::INFINITY);
    }

    #[test]
    fn f64_fetch_add_accumulates() {
        let a = AtomicF64Array::new(1, 0.0);
        a.fetch_add(0, 2.0);
        a.fetch_add(0, 3.0);
        assert_eq!(a.load(0), 5.0);
    }

    #[test]
    fn f64_min_is_deterministic_across_threads() {
        // Same fold from many threads must end at the true minimum.
        let a = AtomicF64Array::new(1, f64::INFINITY);
        std::thread::scope(|s| {
            for t in 0..8 {
                let a = &a;
                s.spawn(move || {
                    for k in 0..1000 {
                        a.fetch_min(0, (t * 1000 + k) as f64 + 0.5);
                    }
                });
            }
        });
        assert_eq!(a.load(0), 0.5);
    }

    #[test]
    fn fixed_point_concurrent_sums_are_exact() {
        let acc = FixedPointF64Array::new(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let acc = &acc;
                s.spawn(move || {
                    for _ in 0..1000 {
                        acc.add(0, 0.125);
                    }
                });
            }
        });
        assert_eq!(acc.get(0), 8000.0 * 0.125);
    }

    #[test]
    fn fixed_point_handles_negative_values() {
        let acc = FixedPointF64Array::new(1);
        acc.add(0, 1.5);
        acc.add(0, -2.25);
        assert!((acc.get(0) + 0.75).abs() < 1e-9);
    }

    /// A register-accumulated sum of raw addends committed with one
    /// `add_raw_returning` must land on exactly the bits the equivalent
    /// per-addend `add` sequence produces — the bit-identity pull-mode
    /// PageRank relies on.
    #[test]
    fn raw_accumulation_matches_per_addend_adds_bit_for_bit() {
        let shares = [0.0625, 1.0 / 3.0, 2.5e-7, 0.91];
        let a = FixedPointF64Array::with_frac_bits(1, 48);
        let b = FixedPointF64Array::with_frac_bits(1, 48);
        for &s in &shares {
            a.add(0, s);
        }
        let mut raw = 0i64;
        for &s in &shares {
            raw = raw.wrapping_add(b.quantize_raw(s));
        }
        let after = b.add_raw_returning(0, raw);
        assert_eq!(a.get(0).to_bits(), b.get(0).to_bits());
        assert_eq!(after.to_bits(), b.get(0).to_bits());
    }

    #[test]
    fn u32_claim_admits_exactly_one_winner() {
        let a = AtomicU32Array::new(1, u32::MAX);
        let winners = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (a, winners) = (&a, &winners);
                s.spawn(move || {
                    if a.claim(0, u32::MAX, t) {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert!(a.load(0) < 8);
    }

    #[test]
    fn u64_fetch_min_orders_packed_keys() {
        let a = AtomicU64Array::new(1, u64::MAX);
        let key = |w: u32, e: u32| ((w as u64) << 32) | e as u64;
        a.fetch_min(0, key(7, 3));
        a.fetch_min(0, key(7, 1));
        a.fetch_min(0, key(9, 0));
        assert_eq!(a.load(0), key(7, 1));
    }

    #[test]
    fn double_buffer_isolates_supersteps() {
        let mut db = DoubleBuffered::new(vec![10.0, 20.0]);
        db.fetch_min_next(0, 5.0);
        // Snapshot still shows the pre-superstep value.
        assert_eq!(db.read(0), 10.0);
        db.commit();
        assert_eq!(db.read(0), 5.0);
        assert_eq!(db.read(1), 20.0);
    }

    #[test]
    fn double_buffer_commit_and_fill_resets_next() {
        let mut db = DoubleBuffered::new(vec![0.0; 2]);
        db.store_next(0, 3.0);
        db.commit_and_fill(0.0);
        assert_eq!(db.read(0), 3.0);
        assert_eq!(db.read_next(0), 0.0);
    }
}
