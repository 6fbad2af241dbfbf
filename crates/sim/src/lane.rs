//! Per-lane event recorder handed to vertex programs.

use crate::event::{index_in_range, AccessKind, ArrayId, Space, Word};
use graffix_graph::NodeId;

/// What a thread block keeps close to its lanes — the one thing that
/// distinguishes the block shapes of a launch.
#[derive(Clone, Copy, Debug, Default)]
pub enum Residency<'a> {
    /// Nothing staged: every access goes to global memory.
    #[default]
    Global,
    /// A shared-memory tile block (paper §3): the whole tile subgraph — its
    /// CSR slice and its nodes' attributes — is staged in shared memory, so
    /// every access is shared *except* attribute accesses whose index the
    /// mask does not mark resident (edges leaving the tile), which still go
    /// to global memory. (See EXPERIMENTS.md for how this staging model
    /// relates to the paper's Figure 8 shape.)
    Tile(&'a [bool]),
    /// A segment-major block (DESIGN.md §12): the segment's attribute
    /// window `[lo, hi)` and its CSR slice are L2-resident; attribute
    /// accesses escaping the window (cross-segment destinations) pay full
    /// DRAM latency.
    Segment { lo: u64, hi: u64 },
}

/// The failed range check of [`Lane::push`], out of line: an `assert!`
/// that formats its message at every inlined `read`/`write`/`atomic` site
/// costs 3 % of recording plus replay, this call nothing measurable.
#[cold]
#[inline(never)]
fn outside_region(array: ArrayId, index: u64) -> ! {
    panic!(
        "array {} index {index} is outside its 2^44-word region",
        array.0
    )
}

/// Records the memory/compute trace of one SIMT lane while the vertex
/// program executes functionally. The kernel performs its *real* reads and
/// writes on host data structures and mirrors each of them through the lane
/// so the warp cost model can replay them in lockstep.
#[derive(Debug, Default)]
pub struct Lane<'m> {
    trace: Vec<Word>,
    /// Residency of the block this lane runs in; borrowed from the launch's
    /// block, which outlives the executor's lanes.
    residency: Residency<'m>,
    /// Vertices this lane asked to enqueue for the next frontier. Collected
    /// by the executor in lane order so frontier construction stays
    /// deterministic under parallel warp execution.
    activations: Vec<NodeId>,
}

impl<'m> Lane<'m> {
    pub(crate) fn new() -> Self {
        Lane::default()
    }

    pub(crate) fn set_residency(&mut self, residency: Residency<'m>) {
        self.residency = residency;
    }

    #[inline]
    fn space_for(&self, array: ArrayId, index: u64) -> Space {
        let attr = matches!(array, ArrayId::NODE_ATTR | ArrayId::NODE_ATTR_AUX);
        match self.residency {
            Residency::Global => Space::Global,
            Residency::Tile(mask) if attr => match mask.get(index as usize) {
                Some(true) => Space::Shared,
                _ => Space::Global,
            },
            Residency::Tile(_) => Space::Shared,
            Residency::Segment { lo, hi } if attr && !(lo..hi).contains(&index) => Space::Global,
            Residency::Segment { .. } => Space::L2,
        }
    }

    /// The one place an event is recorded. An index outside the array's
    /// 2^44-word region would alias another array (and rewrite the word's
    /// kind and space bits), so it is a bug in the kernel, named here.
    #[inline]
    fn push(&mut self, array: ArrayId, index: u64, kind: AccessKind, space: Space) {
        if !index_in_range(index) {
            outside_region(array, index);
        }
        self.trace.push(Word::pack(array, index, kind, space));
    }

    /// Records a read of `array[index]` (space chosen by residency).
    #[inline]
    pub fn read(&mut self, array: ArrayId, index: usize) {
        let space = self.space_for(array, index as u64);
        self.push(array, index as u64, AccessKind::Read, space);
    }

    /// Records a write of `array[index]`.
    #[inline]
    pub fn write(&mut self, array: ArrayId, index: usize) {
        let space = self.space_for(array, index as u64);
        self.push(array, index as u64, AccessKind::Write, space);
    }

    /// Records an atomic RMW of `array[index]`.
    #[inline]
    pub fn atomic(&mut self, array: ArrayId, index: usize) {
        let space = self.space_for(array, index as u64);
        self.push(array, index as u64, AccessKind::Atomic, space);
    }

    /// Records `slots` pure-compute lockstep positions.
    #[inline]
    pub fn compute(&mut self, slots: usize) {
        for _ in 0..slots {
            self.push(ArrayId(u16::MAX), 0, AccessKind::Compute, Space::Global);
        }
    }

    /// Requests that `v` join the next frontier. The executor surfaces all
    /// activations, in assignment order, via
    /// [`crate::executor::SuperstepOutcome::activated`]; callers typically
    /// sort + dedup before building the next superstep.
    #[inline]
    pub fn activate(&mut self, v: NodeId) {
        self.activations.push(v);
    }

    pub(crate) fn drain_activations(&mut self) -> std::vec::Drain<'_, NodeId> {
        self.activations.drain(..)
    }

    /// Trace length so far (number of lockstep positions).
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the lane recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    pub(crate) fn trace(&self) -> &[Word] {
        &self.trace
    }

    pub(crate) fn reset(&mut self) {
        self.trace.clear();
        self.residency = Residency::Global;
        self.activations.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemEvent;

    fn event(lane: &Lane, at: usize) -> MemEvent {
        lane.trace()[at].into()
    }

    #[test]
    fn records_in_order() {
        let mut lane = Lane::new();
        lane.read(ArrayId::NODE_ATTR, 7);
        lane.write(ArrayId::NODE_ATTR, 7);
        lane.atomic(ArrayId::NODE_ATTR_AUX, 3);
        lane.compute(2);
        assert_eq!(lane.len(), 5);
        assert_eq!(event(&lane, 0).kind, AccessKind::Read);
        assert_eq!(event(&lane, 1).kind, AccessKind::Write);
        assert_eq!(event(&lane, 2).kind, AccessKind::Atomic);
        assert_eq!(event(&lane, 3).kind, AccessKind::Compute);
    }

    #[test]
    fn residency_switches_space() {
        let mask = vec![false, true];
        let mut lane = Lane::new();
        lane.set_residency(Residency::Tile(&mask));
        // Non-resident node attribute escapes to global memory.
        lane.read(ArrayId::NODE_ATTR, 0);
        // Resident node attribute is shared.
        lane.read(ArrayId::NODE_ATTR, 1);
        // The tile's CSR slice is staged in shared memory too.
        lane.read(ArrayId::EDGES, 1);
        assert_eq!(event(&lane, 0).space, Space::Global);
        assert_eq!(event(&lane, 1).space, Space::Shared);
        assert_eq!(event(&lane, 2).space, Space::Shared);
    }

    #[test]
    fn reset_clears_everything() {
        let mask = vec![true];
        let mut lane = Lane::new();
        lane.set_residency(Residency::Tile(&mask));
        lane.read(ArrayId::NODE_ATTR, 0);
        lane.reset();
        assert!(lane.is_empty());
        lane.read(ArrayId::NODE_ATTR, 0);
        assert_eq!(event(&lane, 0).space, Space::Global);
    }

    #[test]
    fn out_of_mask_indices_stay_global() {
        let mask = vec![true];
        let mut lane = Lane::new();
        lane.set_residency(Residency::Tile(&mask));
        lane.read(ArrayId::NODE_ATTR, 5);
        assert_eq!(event(&lane, 0).space, Space::Global);
    }

    #[test]
    fn resident_span_marks_l2() {
        let mut lane = Lane::new();
        lane.set_residency(Residency::Segment { lo: 4, hi: 8 });
        // In-window attribute access hits L2.
        lane.read(ArrayId::NODE_ATTR, 5);
        // Out-of-window attribute access (cross-segment destination)
        // escapes to global memory.
        lane.atomic(ArrayId::NODE_ATTR, 9);
        // The segment's CSR slice streams through L2.
        lane.read(ArrayId::EDGES, 100);
        assert_eq!(event(&lane, 0).space, Space::L2);
        assert_eq!(event(&lane, 1).space, Space::Global);
        assert_eq!(event(&lane, 2).space, Space::L2);
    }

    #[test]
    fn reset_clears_span() {
        let mut lane = Lane::new();
        lane.set_residency(Residency::Segment { lo: 0, hi: 4 });
        lane.read(ArrayId::NODE_ATTR, 1);
        assert_eq!(event(&lane, 0).space, Space::L2);
        lane.reset();
        lane.read(ArrayId::NODE_ATTR, 1);
        assert_eq!(event(&lane, 0).space, Space::Global);
    }

    #[test]
    #[should_panic(expected = "array 4 index 17592186044416 is outside")]
    fn an_index_past_the_array_region_panics_naming_the_array() {
        // 2^44 in NODE_ATTR_AUX's region is index 0 of array 5's.
        Lane::new().read(ArrayId::NODE_ATTR_AUX, 1 << 44);
    }

    #[test]
    fn the_last_index_of_a_region_records() {
        let mut lane = Lane::new();
        lane.atomic(ArrayId::NODE_ATTR_AUX, (1 << 44) - 1);
        let ev = event(&lane, 0);
        assert_eq!(
            (ev.array, ev.index),
            (ArrayId::NODE_ATTR_AUX, (1 << 44) - 1)
        );
        assert_eq!((ev.kind, ev.space), (AccessKind::Atomic, Space::Global));
    }
}
