//! Triangle counts kept current under edge edits.
//!
//! [`TriangleIndex`] holds the undirected view as sorted neighbor lists plus
//! the per-node triangle count, and [`TriangleIndex::set_edge`] moves both:
//! inserting or removing `{u, v}` creates or destroys exactly one triangle
//! per common neighbor `w`, so the counts of `u` and `v` change by
//! `|N(u) ∩ N(v)|` and each `w`'s by one. Clustering coefficients are derived
//! from the integers where they are read
//! ([`crate::properties::clustering_coefficient`]), so a maintained value
//! has the bits a fresh [`crate::properties::clustering_coefficients`] pass
//! gives. The latency transform's edge boosting and the streaming
//! preparer's per-batch maintenance both edit through this one structure.

use crate::csr::{Csr, NodeId};
use crate::properties::clustering_coefficient;

/// Sorted undirected neighbor lists plus per-node triangle counts.
#[derive(Clone, Debug)]
pub struct TriangleIndex {
    nbrs: Vec<Vec<NodeId>>,
    counts: Vec<u64>,
    /// Common-neighbor scratch of [`TriangleIndex::set_edge`].
    common: Vec<NodeId>,
}

/// A list this many times longer than the other is searched, not merged.
/// Without the search the rmat 2^17 boost stage takes 490 ms, with it 390
/// (scenario 2 scores every neighbor of a center against the center).
const LOPSIDED: usize = 16;

/// Calls `each` on every common element of the sorted lists `a` and `b`,
/// ascending: a two-pointer merge, or — when one list dwarfs the other, a
/// hub's against a leaf's — a binary search for each member of the short
/// one in what is left of the long one.
fn for_each_common(a: &[NodeId], b: &[NodeId], mut each: impl FnMut(NodeId)) {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() / LOPSIDED > short.len() {
        for x in short {
            match long.binary_search(x) {
                Ok(pos) => {
                    each(*x);
                    long = &long[pos + 1..];
                }
                Err(pos) => long = &long[pos..],
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < short.len() && j < long.len() {
        match short[i].cmp(&long[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                each(short[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

impl TriangleIndex {
    /// Indexes the undirected view `und` with its already known triangle
    /// `counts` (one per node slot, as [`triangle_counts`] returns them).
    ///
    /// # Panics
    /// If `counts` does not have one entry per node slot of `und`.
    pub fn with_counts(und: &Csr, counts: Vec<u64>) -> TriangleIndex {
        assert_eq!(
            counts.len(),
            und.num_nodes(),
            "one triangle count per node slot"
        );
        let nbrs = (0..und.num_nodes() as NodeId)
            .map(|v| und.neighbors(v).to_vec())
            .collect();
        TriangleIndex {
            nbrs,
            counts,
            common: Vec::new(),
        }
    }

    /// Sorted undirected neighbors of `v` (no self-loop, no duplicates).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.nbrs[v as usize]
    }

    /// Whether the undirected edge `{a, b}` is present.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.nbrs[a as usize].binary_search(&b).is_ok()
    }

    /// Triangles through each node slot.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Clustering coefficient of `v` under the current edge set.
    pub fn coefficient(&self, v: NodeId) -> f64 {
        clustering_coefficient(self.counts[v as usize], self.nbrs[v as usize].len())
    }

    /// Clustering coefficients of every node slot, bit-identical to
    /// [`crate::properties::clustering_coefficients`] on a graph with this
    /// undirected view.
    pub fn coefficients(&self) -> Vec<f64> {
        (0..self.nbrs.len() as NodeId)
            .map(|v| self.coefficient(v))
            .collect()
    }

    /// Appends the common neighbors of `u` and `v`, ascending, to `out`.
    pub fn common_into(&self, u: NodeId, v: NodeId, out: &mut Vec<NodeId>) {
        for_each_common(&self.nbrs[u as usize], &self.nbrs[v as usize], |w| {
            out.push(w)
        });
    }

    /// Number of common neighbors of `u` and `v`.
    pub fn common_count(&self, u: NodeId, v: NodeId) -> usize {
        let mut count = 0;
        for_each_common(&self.nbrs[u as usize], &self.nbrs[v as usize], |_| {
            count += 1
        });
        count
    }

    /// Makes the undirected edge `{u, v}` present or absent and moves the
    /// triangle counts of `u`, `v` and their common neighbors with it.
    /// Returns whether anything changed; a self-loop never does.
    pub fn set_edge(&mut self, u: NodeId, v: NodeId, present: bool) -> bool {
        if u == v || self.has_edge(u, v) == present {
            return false;
        }
        let mut common = std::mem::take(&mut self.common);
        common.clear();
        self.common_into(u, v, &mut common);
        let shared = common.len() as u64;
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.nbrs[a as usize];
            match (list.binary_search(&b), present) {
                (Err(pos), true) => list.insert(pos, b),
                (Ok(pos), false) => {
                    list.remove(pos);
                }
                _ => unreachable!("neighbor lists are symmetric"),
            }
        }
        if present {
            self.counts[u as usize] += shared;
            self.counts[v as usize] += shared;
            for &w in &common {
                self.counts[w as usize] += 1;
            }
        } else {
            self.counts[u as usize] -= shared;
            self.counts[v as usize] -= shared;
            for &w in &common {
                self.counts[w as usize] -= 1;
            }
        }
        self.common = common;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{GraphKind, GraphSpec};
    use crate::properties::{local_clustering_coefficient, triangle_counts};

    fn index(g: &Csr) -> TriangleIndex {
        let und = g.undirected();
        TriangleIndex::with_counts(&und, triangle_counts(&und))
    }

    /// Counts and coefficients of `idx` against a fresh count and the
    /// per-node oracle on `g`, whose undirected view `idx` should hold.
    fn assert_matches(idx: &TriangleIndex, g: &Csr) {
        let und = g.undirected();
        assert_eq!(idx.counts(), &triangle_counts(&und)[..]);
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(idx.neighbors(v), und.neighbors(v), "neighbors of {v}");
            assert_eq!(
                idx.coefficient(v).to_bits(),
                local_clustering_coefficient(&und, v).to_bits(),
                "coefficient of {v}"
            );
        }
    }

    #[test]
    fn toggles_track_a_fresh_count() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 200, 5).generate();
        let mut idx = index(&g);
        assert_matches(&idx, &g);
        // Flip a deterministic spread of pairs, present or not, and mirror
        // every flip into an edge set the reference graph is rebuilt from.
        let n = g.num_nodes() as NodeId;
        let und = g.undirected();
        let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> = und
            .edge_triples()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
            .collect();
        for step in 0..300u32 {
            let (u, v) = ((step * 37) % n, (step * 91 + 13) % n);
            let (lo, hi) = (u.min(v), u.max(v));
            let present = !idx.has_edge(u, v);
            assert_eq!(idx.set_edge(u, v, present), u != v);
            if u != v {
                if present {
                    edges.insert((lo, hi));
                } else {
                    edges.remove(&(lo, hi));
                }
            }
        }
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            b.add_undirected_edge(u, v);
        }
        assert_matches(&idx, &b.build());
    }

    #[test]
    fn lopsided_lists_intersect_like_balanced_ones() {
        // 7 members against 400: the search branch. Members below, inside,
        // between and above the long list's range, hits and misses.
        let long: Vec<NodeId> = (10..810).step_by(2).collect();
        let short: Vec<NodeId> = vec![3, 10, 11, 400, 401, 808, 900];
        assert!(long.len() / LOPSIDED > short.len());
        let expected: Vec<NodeId> = vec![10, 400, 808];
        for (a, b) in [(&short, &long), (&long, &short)] {
            let mut out = vec![77];
            for_each_common(a, b, |x| out.push(x));
            assert_eq!(out[0], 77, "appends");
            assert_eq!(&out[1..], &expected[..]);
        }
        // The merge branch on the same members.
        let mid: Vec<NodeId> = (0..=50).map(|i| i * 18).collect();
        let mut out = Vec::new();
        for_each_common(&short, &mid, |x| out.push(x));
        assert_eq!(out, [900]);
    }

    #[test]
    fn set_edge_is_idempotent_and_reversible() {
        // Square 0-1-2-3 with one diagonal: inserting the other diagonal
        // closes two more triangles at each of its ends and one more at
        // each of the other two corners.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.add_undirected_edge(u, v);
        }
        let mut idx = index(&b.build());
        assert_eq!(idx.counts(), [2, 1, 2, 1]);
        assert!(idx.set_edge(1, 3, true));
        assert_eq!(idx.counts(), [3, 3, 3, 3]);
        assert!(!idx.set_edge(3, 1, true), "already present");
        assert!(!idx.set_edge(2, 2, true), "self-loops are not edges");
        assert_eq!(idx.counts(), [3, 3, 3, 3]);
        assert!(idx.set_edge(3, 1, false));
        assert_eq!(idx.counts(), [2, 1, 2, 1]);
        let mut common = Vec::new();
        idx.common_into(1, 3, &mut common);
        assert_eq!(common, [0, 2]);
        assert_eq!(idx.common_count(1, 3), 2);
    }
}
