//! Memory/compute events recorded by lanes and replayed in warp lockstep.

/// Identifies a simulated device array (distance array, edge array, …).
/// Each array lives in its own address region, so accesses to different
/// arrays never share a coalescing segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u16);

impl ArrayId {
    /// Conventional ids used by the algorithm kernels. Purely cosmetic —
    /// any distinct ids work — but naming them keeps kernels readable.
    pub const OFFSETS: ArrayId = ArrayId(0);
    pub const EDGES: ArrayId = ArrayId(1);
    pub const EDGE_WEIGHTS: ArrayId = ArrayId(2);
    pub const NODE_ATTR: ArrayId = ArrayId(3);
    pub const NODE_ATTR_AUX: ArrayId = ArrayId(4);
    pub const FRONTIER: ArrayId = ArrayId(5);
    pub const WORKLIST: ArrayId = ArrayId(6);
    /// CSC mirror offsets (pull-mode gather traversal).
    pub const T_OFFSETS: ArrayId = ArrayId(7);
    /// CSC mirror arcs. One access per in-arc models a packed
    /// `(weight, source)` word, the layout pull kernels use so a gather
    /// costs a single coalesced stream per edge slice.
    pub const T_EDGES: ArrayId = ArrayId(8);
}

/// What a lane did at one lockstep position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write; serializes on same-address collisions.
    Atomic,
    /// Pure ALU work (no memory traffic), `ops` issue slots wide.
    Compute,
}

/// Address space of an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    Global,
    Shared,
    /// L2-resident: the access hits data pinned by the active cache-sized
    /// segment (segment-major execution, DESIGN.md §12). Coalesces like
    /// global memory but at [`crate::GpuConfig::lat_l2`].
    L2,
}

/// One recorded lane event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEvent {
    pub array: ArrayId,
    pub index: u64,
    pub kind: AccessKind,
    pub space: Space,
}

/// Element-index bits of a flat address: 2^44 words per array.
pub(crate) const INDEX_BITS: u32 = 44;

/// Whether `index` fits an array's address region. An index past it would
/// read as a higher array's address (and, packed, as another kind or space).
#[inline]
pub(crate) fn index_in_range(index: u64) -> bool {
    index >> INDEX_BITS == 0
}

impl MemEvent {
    /// Flat device address: array id in the high bits, element index below.
    /// Regions are disjoint because every recorded index is below 2^44
    /// (`Lane` asserts it where the event is recorded).
    #[inline]
    pub fn address(&self) -> u64 {
        debug_assert!(index_in_range(self.index), "index {} ≥ 2^44", self.index);
        ((self.array.0 as u64) << INDEX_BITS) | self.index
    }

    /// Aligned coalescing segment of this address.
    #[inline]
    pub fn segment(&self, segment_words: u64) -> u64 {
        self.address() / segment_words.max(1)
    }
}

/// How the replay prices an event: the six arms of its `(kind, space)`
/// match. Events of one class land in the same buckets of a lockstep step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// An issue slot and nothing else.
    Compute,
    /// Read or write of global memory.
    Global,
    /// Read or write of L2-resident data.
    L2,
    /// Read or write of shared memory.
    Shared,
    /// Atomic on global or L2-resident data (both execute in L2).
    GlobalAtomic,
    /// Atomic on shared memory.
    SharedAtomic,
}

/// Number of [`Class`] values.
pub(crate) const CLASSES: usize = 6;

/// One recorded lane event in one word, the form lanes store and the replay
/// reads: the flat address ([`MemEvent::address`]) in bits 0..60, the
/// [`AccessKind`] in bits 60..62 and the [`Space`] in bits 62..64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Word(pub(crate) u64);

const ADDRESS_BITS: u32 = INDEX_BITS + u16::BITS;
const SPACE_SHIFT: u32 = ADDRESS_BITS + 2;

const KINDS: [AccessKind; 4] = [
    AccessKind::Read,
    AccessKind::Write,
    AccessKind::Atomic,
    AccessKind::Compute,
];
const SPACES: [Space; 3] = [Space::Global, Space::Shared, Space::L2];

/// The arm of the replay's `(kind, space)` match an event takes.
const fn class_of(kind: AccessKind, space: Space) -> Class {
    match (kind, space) {
        (AccessKind::Compute, _) => Class::Compute,
        (AccessKind::Atomic, Space::Shared) => Class::SharedAtomic,
        (AccessKind::Atomic, Space::Global | Space::L2) => Class::GlobalAtomic,
        (_, Space::Global) => Class::Global,
        (_, Space::L2) => Class::L2,
        (_, Space::Shared) => Class::Shared,
    }
}

/// [`class_of`] by a word's top four bits (`space << 2 | kind`). No word
/// carries space 3; those four entries are never read.
const CLASS_OF_TAG: [Class; 16] = {
    let mut table = [Class::Compute; 16];
    let mut space = 0;
    while space < SPACES.len() {
        let mut kind = 0;
        while kind < KINDS.len() {
            let tag = (SPACES[space] as usize) << 2 | KINDS[kind] as usize;
            table[tag] = class_of(KINDS[kind], SPACES[space]);
            kind += 1;
        }
        space += 1;
    }
    table
};

impl Word {
    /// Packs an event whose index the caller has checked
    /// ([`index_in_range`]).
    #[inline]
    pub(crate) fn pack(array: ArrayId, index: u64, kind: AccessKind, space: Space) -> Word {
        debug_assert!(
            index_in_range(index),
            "array {} index {index} ≥ 2^44",
            array.0
        );
        Word(
            (space as u64) << SPACE_SHIFT
                | (kind as u64) << ADDRESS_BITS
                | (array.0 as u64) << INDEX_BITS
                | index,
        )
    }

    /// The flat address, as [`MemEvent::address`] gives it.
    #[inline]
    pub(crate) fn address(self) -> u64 {
        self.0 & ((1 << ADDRESS_BITS) - 1)
    }

    #[inline]
    pub(crate) fn class(self) -> Class {
        CLASS_OF_TAG[(self.0 >> ADDRESS_BITS) as usize]
    }
}

impl From<MemEvent> for Word {
    #[inline]
    fn from(ev: MemEvent) -> Word {
        Word::pack(ev.array, ev.index, ev.kind, ev.space)
    }
}

#[cfg(test)]
impl From<Word> for MemEvent {
    fn from(word: Word) -> MemEvent {
        MemEvent {
            array: ArrayId((word.address() >> INDEX_BITS) as u16),
            index: word.address() & ((1 << INDEX_BITS) - 1),
            kind: KINDS[(word.0 >> ADDRESS_BITS) as usize & 3],
            space: SPACES[(word.0 >> SPACE_SHIFT) as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_of_distinct_arrays_never_collide() {
        let a = MemEvent {
            array: ArrayId(1),
            index: 0,
            kind: AccessKind::Read,
            space: Space::Global,
        };
        let b = MemEvent {
            array: ArrayId(2),
            index: 0,
            kind: AccessKind::Read,
            space: Space::Global,
        };
        assert_ne!(a.address(), b.address());
        assert_ne!(a.segment(32), b.segment(32));
    }

    #[test]
    fn segment_groups_nearby_indices() {
        let ev = |i| MemEvent {
            array: ArrayId(3),
            index: i,
            kind: AccessKind::Read,
            space: Space::Global,
        };
        assert_eq!(ev(0).segment(4), ev(3).segment(4));
        assert_ne!(ev(3).segment(4), ev(4).segment(4));
    }

    #[test]
    fn pack_round_trips_every_kind_space_and_array() {
        let arrays = (0..=8).chain([u16::MAX]).map(ArrayId);
        for array in arrays {
            for index in [0, (1 << INDEX_BITS) - 1] {
                for kind in KINDS {
                    for space in SPACES {
                        let ev = MemEvent {
                            array,
                            index,
                            kind,
                            space,
                        };
                        let word = Word::from(ev);
                        assert_eq!(MemEvent::from(word), ev);
                        assert_eq!(word.address(), ev.address());
                    }
                }
            }
        }
    }

    #[test]
    fn class_survives_a_full_address() {
        for kind in KINDS {
            for space in SPACES {
                let word = Word::pack(ArrayId(u16::MAX), (1 << INDEX_BITS) - 1, kind, space);
                assert_eq!(word.class(), class_of(kind, space), "{kind:?} {space:?}");
            }
        }
    }
}
