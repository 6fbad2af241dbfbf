//! Per-lane event recorder handed to vertex programs.

use crate::event::{AccessKind, ArrayId, MemEvent, Space};
use graffix_graph::NodeId;

/// Records the memory/compute trace of one SIMT lane while the vertex
/// program executes functionally. The kernel performs its *real* reads and
/// writes on host data structures and mirrors each of them through the lane
/// so the warp cost model can replay them in lockstep.
#[derive(Debug, Default)]
pub struct Lane<'m> {
    trace: Vec<MemEvent>,
    /// Residency predicate installed by the shared-memory scheduler: node-
    /// attribute accesses whose index is resident are recorded as
    /// [`Space::Shared`]. Borrowed from the launch's block, which outlives
    /// the executor's lanes.
    resident: Option<&'m [bool]>,
    /// L2 residency window installed by segment-major execution: with no
    /// shared-memory mask, node-attribute accesses inside `[lo, hi)` (and
    /// all CSR-slice accesses, which segment execution streams through L2)
    /// are recorded as [`Space::L2`]. A shared-memory mask takes precedence
    /// — tile blocks keep their mask and never carry a span.
    resident_span: Option<(u64, u64)>,
    /// Vertices this lane asked to enqueue for the next frontier. Collected
    /// by the executor in lane order so frontier construction stays
    /// deterministic under parallel warp execution.
    activations: Vec<NodeId>,
}

impl<'m> Lane<'m> {
    pub(crate) fn new() -> Self {
        Lane::default()
    }

    pub(crate) fn set_resident_mask(&mut self, mask: Option<&'m [bool]>) {
        self.resident = mask;
    }

    pub(crate) fn set_resident_span(&mut self, span: Option<(u64, u64)>) {
        self.resident_span = span;
    }

    #[inline]
    fn space_for(&self, array: ArrayId, index: u64) -> Space {
        // Inside a tile block (paper §3) the whole tile subgraph — its CSR
        // slice and its nodes' attributes — is staged in shared memory, so
        // every access is shared *except* attribute accesses that escape
        // the tile (edges to non-resident nodes), which still go to global
        // memory. Outside tile blocks everything is global. (See
        // EXPERIMENTS.md for how this staging model relates to the paper's
        // Figure 8 shape.)
        let Some(mask) = self.resident else {
            // Segment-major blocks (DESIGN.md §12): the active segment's
            // attribute window and its CSR slice are L2-resident; attribute
            // accesses escaping the window (cross-segment destinations) pay
            // full DRAM latency.
            if let Some((lo, hi)) = self.resident_span {
                if matches!(array, ArrayId::NODE_ATTR | ArrayId::NODE_ATTR_AUX) {
                    return if index >= lo && index < hi {
                        Space::L2
                    } else {
                        Space::Global
                    };
                }
                return Space::L2;
            }
            return Space::Global;
        };
        if matches!(array, ArrayId::NODE_ATTR | ArrayId::NODE_ATTR_AUX) {
            if (index as usize) < mask.len() && mask[index as usize] {
                Space::Shared
            } else {
                Space::Global
            }
        } else {
            Space::Shared
        }
    }

    #[inline]
    fn push(&mut self, array: ArrayId, index: u64, kind: AccessKind, space: Space) {
        self.trace.push(MemEvent {
            array,
            index,
            kind,
            space,
        });
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

    pub(crate) fn trace(&self) -> &[MemEvent] {
        &self.trace
    }

    pub(crate) fn reset(&mut self) {
        self.trace.clear();
        self.resident = None;
        self.resident_span = None;
        self.activations.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut lane = Lane::new();
        lane.read(ArrayId::NODE_ATTR, 7);
        lane.write(ArrayId::NODE_ATTR, 7);
        lane.atomic(ArrayId::NODE_ATTR_AUX, 3);
        lane.compute(2);
        assert_eq!(lane.len(), 5);
        assert_eq!(lane.trace()[0].kind, AccessKind::Read);
        assert_eq!(lane.trace()[1].kind, AccessKind::Write);
        assert_eq!(lane.trace()[2].kind, AccessKind::Atomic);
        assert_eq!(lane.trace()[3].kind, AccessKind::Compute);
    }

    #[test]
    fn residency_switches_space() {
        let mask = vec![false, true];
        let mut lane = Lane::new();
        lane.set_resident_mask(Some(&mask));
        // Non-resident node attribute escapes to global memory.
        lane.read(ArrayId::NODE_ATTR, 0);
        // Resident node attribute is shared.
        lane.read(ArrayId::NODE_ATTR, 1);
        // The tile's CSR slice is staged in shared memory too.
        lane.read(ArrayId::EDGES, 1);
        assert_eq!(lane.trace()[0].space, Space::Global);
        assert_eq!(lane.trace()[1].space, Space::Shared);
        assert_eq!(lane.trace()[2].space, Space::Shared);
    }

    #[test]
    fn reset_clears_everything() {
        let mask = vec![true];
        let mut lane = Lane::new();
        lane.set_resident_mask(Some(&mask));
        lane.read(ArrayId::NODE_ATTR, 0);
        lane.reset();
        assert!(lane.is_empty());
        lane.read(ArrayId::NODE_ATTR, 0);
        assert_eq!(lane.trace()[0].space, Space::Global);
    }

    #[test]
    fn out_of_mask_indices_stay_global() {
        let mask = vec![true];
        let mut lane = Lane::new();
        lane.set_resident_mask(Some(&mask));
        lane.read(ArrayId::NODE_ATTR, 5);
        assert_eq!(lane.trace()[0].space, Space::Global);
    }

    #[test]
    fn resident_span_marks_l2() {
        let mut lane = Lane::new();
        lane.set_resident_span(Some((4, 8)));
        // In-window attribute access hits L2.
        lane.read(ArrayId::NODE_ATTR, 5);
        // Out-of-window attribute access (cross-segment destination)
        // escapes to global memory.
        lane.atomic(ArrayId::NODE_ATTR, 9);
        // The segment's CSR slice streams through L2.
        lane.read(ArrayId::EDGES, 100);
        assert_eq!(lane.trace()[0].space, Space::L2);
        assert_eq!(lane.trace()[1].space, Space::Global);
        assert_eq!(lane.trace()[2].space, Space::L2);
    }

    #[test]
    fn mask_takes_precedence_over_span() {
        let mask = vec![false, true];
        let mut lane = Lane::new();
        lane.set_resident_mask(Some(&mask));
        lane.set_resident_span(Some((0, 2)));
        lane.read(ArrayId::NODE_ATTR, 1);
        lane.read(ArrayId::NODE_ATTR, 0);
        assert_eq!(lane.trace()[0].space, Space::Shared);
        assert_eq!(lane.trace()[1].space, Space::Global);
    }

    #[test]
    fn reset_clears_span() {
        let mut lane = Lane::new();
        lane.set_resident_span(Some((0, 4)));
        lane.read(ArrayId::NODE_ATTR, 1);
        assert_eq!(lane.trace()[0].space, Space::L2);
        lane.reset();
        lane.read(ArrayId::NODE_ATTR, 1);
        assert_eq!(lane.trace()[0].space, Space::Global);
    }
}
