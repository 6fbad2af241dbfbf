//! The Graffix renumbering scheme (paper §2.2, Algorithm 2's
//! `RenumberVertex`).
//!
//! Nodes are renumbered level-by-level over the BFS forest (roots chosen in
//! decreasing out-degree order). Within a level, ids are handed out in
//! round-robin neighbor order: the first unnumbered neighbor of each
//! level-`i` node (in new-id order), then every second neighbor, and so on —
//! so consecutive warp-threads at level `i` find their j-th neighbors at
//! consecutive new ids. Each level's numbering starts at a multiple of the
//! chunk size `k`, which creates **holes** wherever a level's population is
//! not a multiple of `k`.

use graffix_graph::traversal::bfs_forest;
use graffix_graph::{Csr, NodeId, INVALID_NODE};
use std::ops::Range;

/// Output of the renumbering step.
#[derive(Clone, Debug)]
pub struct Renumbering {
    /// old id → new id.
    pub new_of_old: Vec<NodeId>,
    /// new id → old id (`INVALID_NODE` for holes).
    pub old_of_new: Vec<NodeId>,
    /// New-id span of each BFS level (starts are multiples of `k`; the span
    /// includes the level's trailing holes).
    pub level_ranges: Vec<Range<usize>>,
    /// Level of each new slot (holes carry their level too).
    pub level_of_new: Vec<u32>,
    /// Holes created by the alignment.
    pub holes_created: usize,
    /// Chunk size used.
    pub k: usize,
}

/// Renumbers `g` with chunk size `k` (`k ≥ 1`).
pub fn renumber(g: &Csr, k: usize) -> Renumbering {
    assert!(k >= 1, "chunk size must be positive");
    let n = g.num_nodes();
    let forest = bfs_forest(g);
    let by_level = forest.nodes_by_level();
    let num_levels = by_level.len();

    let mut new_of_old = vec![INVALID_NODE; n];
    let align = |x: usize| x.div_ceil(k) * k;

    // Level 0 = the BFS roots, numbered in discovery order (decreasing
    // degree), exactly as Algorithm 2's L0 loop.
    let mut g_id: usize = 0;
    let mut level_starts = Vec::with_capacity(num_levels);
    if num_levels > 0 {
        level_starts.push(0usize);
        for &r in &forest.roots {
            new_of_old[r as usize] = g_id as NodeId;
            g_id += 1;
        }
    }

    // Subsequent levels: round-robin over the j-th neighbors of the
    // previous level's nodes, visited in new-id order. `live` is that level
    // in new-id order, minus the nodes whose lists are exhausted: pass `j`
    // drops every node of degree <= j (order-preserving) and reads the j-th
    // neighbor of the rest, so a level costs the sum of (degree + 1) over
    // its nodes, not its widest node times its width. The order this hands
    // out: level-(i+1) nodes by increasing min (j, new id of u) over the
    // arcs u -> w from level i, w sitting at position j of u's list.
    let mut live: Vec<NodeId> = forest.roots.clone();
    for i in 0..num_levels.saturating_sub(1) {
        g_id = align(g_id);
        level_starts.push(g_id);
        let mut next = Vec::with_capacity(by_level[i + 1].len());
        let mut j = 0;
        while !live.is_empty() {
            live.retain(|&nd| {
                let Some(&nb) = g.neighbors(nd).get(j) else {
                    return false;
                };
                if forest.level[nb as usize] == (i + 1) as u32
                    && new_of_old[nb as usize] == INVALID_NODE
                {
                    new_of_old[nb as usize] = g_id as NodeId;
                    g_id += 1;
                    next.push(nb);
                }
                true
            });
            j += 1;
        }
        // Safety net: any level-(i+1) node not reached through the j-loop
        // (cannot happen for a proper BFS forest, but keeps the transform
        // total for adversarial inputs) is appended in id order.
        for &v in &by_level[i + 1] {
            if new_of_old[v as usize] == INVALID_NODE {
                new_of_old[v as usize] = g_id as NodeId;
                g_id += 1;
                next.push(v);
            }
        }
        live = next;
    }

    // Pad the final level to a full chunk so the node array length is a
    // multiple of k (the paper's Figure 3 shows trailing holes 22, 23).
    let total = align(g_id);
    let holes_created = total - n;

    let mut old_of_new = vec![INVALID_NODE; total];
    for (old, &new) in new_of_old.iter().enumerate() {
        debug_assert_ne!(new, INVALID_NODE, "node {old} was not renumbered");
        old_of_new[new as usize] = old as NodeId;
    }

    // Level ranges and per-slot levels.
    let mut level_ranges = Vec::with_capacity(num_levels);
    let mut level_of_new = vec![0u32; total];
    for (i, &start) in level_starts.iter().enumerate() {
        let end = if i + 1 < level_starts.len() {
            level_starts[i + 1]
        } else {
            total
        };
        level_ranges.push(start..end);
        level_of_new[start..end].fill(i as u32);
    }

    Renumbering {
        new_of_old,
        old_of_new,
        level_ranges,
        level_of_new,
        holes_created,
        k,
    }
}

/// Rebuilds `g` under the renumbering: the returned CSR has `total` slots,
/// holes flagged, edges remapped to new ids, neighbor lists sorted.
pub fn apply_renumbering(g: &Csr, ren: &Renumbering) -> Csr {
    let mut out = g.relabeled(&ren.new_of_old, ren.old_of_new.len());
    let mask: Vec<bool> = ren.old_of_new.iter().map(|&o| o == INVALID_NODE).collect();
    out.set_hole_mask(mask);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::tests::figure1_graph;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use proptest::prelude::*;

    /// The numbering in closed form, with no round robin in it: roots in
    /// forest order, then each level-(i+1) node `w` keyed by the smallest
    /// `(j, new id of u)` over the arcs `u -> w` from level `i`, `w` sitting
    /// at position `j` of `u`'s list, and the level numbered in key order
    /// from the next multiple of `k`.
    fn closed_form(g: &Csr, k: usize) -> Vec<NodeId> {
        let forest = bfs_forest(g);
        let by_level = forest.nodes_by_level();
        let mut new_of_old = vec![INVALID_NODE; g.num_nodes()];
        for (pos, &r) in forest.roots.iter().enumerate() {
            new_of_old[r as usize] = pos as NodeId;
        }
        let mut end = forest.roots.len();
        for i in 1..by_level.len() {
            let mut key = vec![(usize::MAX, INVALID_NODE); g.num_nodes()];
            for &u in &by_level[i - 1] {
                for (j, &w) in g.neighbors(u).iter().enumerate() {
                    if forest.level[w as usize] == i as u32 {
                        key[w as usize] = key[w as usize].min((j, new_of_old[u as usize]));
                    }
                }
            }
            let mut order = by_level[i].clone();
            order.sort_by_key(|&w| key[w as usize]);
            let start = end.div_ceil(k) * k;
            for (pos, &w) in order.iter().enumerate() {
                new_of_old[w as usize] = (start + pos) as NodeId;
            }
            end = start + order.len();
        }
        new_of_old
    }

    /// `renumber(g, k)` against the closed form, plus what every numbering
    /// owes its readers: a bijection onto the non-hole slots, levels that
    /// tile the slot space from multiples of `k`, and `level_of_new`
    /// agreeing with the forest.
    fn check(g: &Csr, k: usize) -> Result<(), String> {
        let ren = renumber(g, k);
        if ren.new_of_old != closed_form(g, k) {
            return Err(format!("k = {k}: not the closed-form order"));
        }
        let total = ren.old_of_new.len();
        let mut holes = 0;
        for (slot, &old) in ren.old_of_new.iter().enumerate() {
            if old == INVALID_NODE {
                holes += 1;
            } else if ren.new_of_old[old as usize] as usize != slot {
                return Err(format!("k = {k}: slot {slot} and node {old} disagree"));
            }
        }
        if total - holes != g.num_nodes() || holes != ren.holes_created || !total.is_multiple_of(k)
        {
            return Err(format!("k = {k}: {total} slots, {holes} holes"));
        }
        let mut cursor = 0;
        for (i, r) in ren.level_ranges.iter().enumerate() {
            if r.start != cursor || !r.start.is_multiple_of(k) {
                return Err(format!("k = {k}: level {i} spans {r:?}"));
            }
            if ren.level_of_new[r.clone()].iter().any(|&l| l as usize != i) {
                return Err(format!("k = {k}: level_of_new inside level {i}"));
            }
            cursor = r.end;
        }
        if cursor != total {
            return Err(format!("k = {k}: levels end at {cursor} of {total}"));
        }
        let level = bfs_forest(g).level;
        match (0..g.num_nodes()).find(|&v| ren.level_of_new[ren.new_of_old[v] as usize] != level[v])
        {
            Some(v) => Err(format!("k = {k}: node {v} sits in the wrong level")),
            None => Ok(()),
        }
    }

    const KINDS: [GraphKind; 5] = [
        GraphKind::Rmat,
        GraphKind::SocialLiveJournal,
        GraphKind::SocialTwitter,
        GraphKind::Road,
        GraphKind::Random,
    ];
    const CHUNKS: [usize; 4] = [1, 8, 16, 32];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn numbering_is_the_closed_form_on_generated_graphs(
            kind in 0usize..KINDS.len(),
            nodes in 50usize..600,
            seed in 0u64..1000,
            k in 0usize..CHUNKS.len(),
        ) {
            let g = GraphSpec::new(KINDS[kind], nodes, seed).generate();
            if let Err(why) = check(&g, CHUNKS[k]) {
                return Err(TestCaseError::fail(format!("{:?}/{nodes}/{seed}: {why}", KINDS[kind])));
            }
        }
    }

    #[test]
    fn numbering_is_the_closed_form_on_hand_built_graphs() {
        // Adjacency lists as written, so a list may repeat a neighbor, name
        // its own node, and need not be sorted: positions are what count.
        let lists =
            |adj: &[&[NodeId]]| Csr::from_adjacency(adj.iter().map(|l| l.to_vec()).collect(), None);
        let mut graphs = vec![
            ("figure 1", figure1_graph()),
            ("empty", lists(&[])),
            ("isolated", lists(&[&[], &[], &[], &[], &[]])),
            // Parallel arcs and self loops: a neighbor seen twice, or seen
            // from itself, is numbered once, at its first position.
            (
                "parallel arcs and loops",
                lists(&[
                    &[0, 3, 3, 1, 3],
                    &[1, 3, 2, 2],
                    &[4, 2],
                    &[],
                    &[4],
                    &[4, 5, 4],
                ]),
            ),
            // Several roots whose lists interleave over one next level, a
            // node a later root pulls down to a lower level, lists out of
            // id order.
            (
                "several roots",
                lists(&[
                    &[6, 4, 5],
                    &[9, 6, 5],
                    &[9, 8],
                    &[2],
                    &[7],
                    &[],
                    &[],
                    &[8],
                    &[],
                    &[],
                ]),
            ),
        ];
        // A hub far wider than its level: two roots, one of degree 40.
        let mut hub = GraphBuilder::new(48);
        for d in 2..42 {
            hub.add_edge(0, d);
        }
        for d in [41, 7, 45, 3] {
            hub.add_edge(1, d);
        }
        hub.add_edge(45, 46);
        graphs.push(("hub", hub.build()));
        for (name, g) in &graphs {
            for k in CHUNKS {
                check(g, k).unwrap_or_else(|why| panic!("{name}: {why}"));
            }
        }
    }

    /// One hub beside 2^18 - 1 isolated roots: level 0 is 2^18 wide and its
    /// widest list 2^18 long. A round robin that walks every node of the
    /// level once per position of the longest list makes 2^36 trips here
    /// (minutes in a release build); following the lists makes about 10^6.
    #[test]
    fn a_wide_level_beside_a_hub_costs_its_arcs_not_its_square() {
        let hub_degree = 1 << 18;
        let mut b = GraphBuilder::new(2 * hub_degree);
        for d in 1..=hub_degree {
            b.add_edge(0, d as NodeId);
        }
        let g = b.build();
        let ren = renumber(&g, 32);
        assert_eq!(ren.level_ranges.len(), 2);
        assert_eq!(ren.level_ranges[0], 0..hub_degree);
        assert_eq!(ren.new_of_old, closed_form(&g, 32));
        // The hub is the first root and its list is handed out in order.
        assert_eq!(ren.new_of_old[0], 0);
        assert_eq!(ren.new_of_old[1], hub_degree as NodeId);
        assert_eq!(ren.new_of_old[hub_degree], 2 * hub_degree as NodeId - 1);
    }

    #[test]
    fn figure2_level_alignment() {
        // With k = 8, the paper's example puts the six level-0 roots at ids
        // 0..5, leaves holes 6-7, and starts level 1 at id 8.
        let g = figure1_graph();
        let ren = renumber(&g, 8);
        assert_eq!(ren.level_ranges[0], 0..8);
        assert_eq!(ren.level_ranges[1].start, 8);
        // 6 roots at level 0 -> ids 0..=5; slots 6, 7 are holes.
        assert_eq!(ren.old_of_new[6], INVALID_NODE);
        assert_eq!(ren.old_of_new[7], INVALID_NODE);
        // 14 level-1 nodes at 8..=21; 22, 23 are trailing holes (Figure 3).
        assert_eq!(ren.old_of_new.len(), 24);
        assert_eq!(ren.old_of_new[22], INVALID_NODE);
        assert_eq!(ren.old_of_new[23], INVALID_NODE);
        assert_eq!(ren.holes_created, 4);
    }

    #[test]
    fn figure2_round_robin_first_neighbors() {
        // Paper: "node 8 is the first unnumbered neighbor of node 0, while
        // node 9 is the first unnumbered neighbor of node 1".
        let g = figure1_graph();
        let ren = renumber(&g, 8);
        // Old node 0 is the max-degree root -> new id 0. Its first neighbor
        // (old 4) becomes new id 8.
        assert_eq!(ren.new_of_old[0], 0);
        assert_eq!(ren.new_of_old[4], 8);
        // Old node 1 is the second root -> new id 1; its first unnumbered
        // neighbor (old 10, its lowest-id level-1 neighbor) -> new id 9.
        assert_eq!(ren.new_of_old[1], 1);
        assert_eq!(ren.new_of_old[10], 9);
    }

    #[test]
    fn renumbering_is_a_bijection_onto_non_holes() {
        let g = GraphSpec::new(GraphKind::Rmat, 700, 1).generate();
        let ren = renumber(&g, 16);
        let mut seen = vec![false; ren.old_of_new.len()];
        for &new in &ren.new_of_old {
            assert!(!seen[new as usize], "new id reused");
            seen[new as usize] = true;
        }
        for (slot, &old) in ren.old_of_new.iter().enumerate() {
            assert_eq!(seen[slot], old != INVALID_NODE);
        }
    }

    #[test]
    fn level_starts_are_aligned() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 500, 2).generate();
        let k = 16;
        let ren = renumber(&g, k);
        for r in &ren.level_ranges {
            assert_eq!(r.start % k, 0, "level start {} not aligned", r.start);
        }
        assert_eq!(ren.old_of_new.len() % k, 0);
    }

    #[test]
    fn apply_preserves_edge_multiset_modulo_renaming() {
        let g = GraphSpec::new(GraphKind::Random, 300, 4).generate();
        let ren = renumber(&g, 16);
        let h = apply_renumbering(&g, &ren);
        h.validate().unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        for (u, v, w) in g.edge_triples() {
            let nu = ren.new_of_old[u as usize];
            let nv = ren.new_of_old[v as usize];
            assert!(h.has_edge(nu, nv), "edge {u}->{v} missing after rename");
            if g.is_weighted() {
                let pos = h.neighbors(nu).binary_search(&nv).unwrap();
                assert_eq!(h.edge_weights(nu)[pos], w);
            }
        }
    }

    #[test]
    fn k_one_creates_only_isomorphism() {
        // k = 1 means every level start is already aligned: no holes beyond
        // zero padding.
        let g = figure1_graph();
        let ren = renumber(&g, 1);
        assert_eq!(ren.holes_created, 0);
        assert_eq!(ren.old_of_new.len(), g.num_nodes());
    }

    #[test]
    fn hole_levels_recorded() {
        let g = figure1_graph();
        let ren = renumber(&g, 8);
        assert_eq!(ren.level_of_new[6], 0);
        assert_eq!(ren.level_of_new[23], 1);
    }
}
