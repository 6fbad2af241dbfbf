//! Structural graph properties: degree statistics, clustering coefficient
//! (the knob driver for the latency transform, paper §3), diameter
//! estimation (sets the shared-memory iteration count `t ≈ 2 × diameter`),
//! and undirected connectivity.

use crate::csr::{Csr, NodeId};
use crate::traversal::bfs_levels;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Mutex;

/// Histogram of out-degrees: `hist[d]` = number of nodes with out-degree `d`.
/// Chunk-partial histograms are accumulated in parallel and merged in chunk
/// order; counts are exact integers, so the result is independent of the
/// thread count.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let n = g.num_nodes();
    let bins = g.max_degree() + 1;
    let ids: Vec<NodeId> = (0..n as NodeId).collect();
    let chunk = n.div_ceil(rayon::current_num_threads().max(1) * 4).max(1);
    let partials: Vec<Vec<usize>> = ids
        .par_chunks(chunk)
        .map(|c| {
            let mut h = vec![0usize; bins];
            for &v in c {
                if !g.is_hole(v) {
                    h[g.degree(v)] += 1;
                }
            }
            h
        })
        .collect();
    let mut hist = vec![0usize; bins];
    for p in partials {
        for (d, c) in p.into_iter().enumerate() {
            hist[d] += c;
        }
    }
    hist
}

/// Number of common elements of two *sorted* id slices, via a two-pointer
/// merge — `O(|a| + |b|)` instead of the `|b| log |a|` of repeated binary
/// search. This is the triangle-counting workhorse.
pub fn sorted_intersection_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Local clustering coefficient of `v` in the *undirected* graph `und`
/// (whose neighbor lists must be sorted, as produced by
/// [`Csr::to_undirected`]): the fraction of neighbor pairs that are
/// themselves connected. 0 for degree < 2. Neighbor-pair links are counted
/// by sorted-merge intersection, `O(deg_u + deg_v)` per neighbor.
pub fn local_clustering_coefficient(und: &Csr, v: NodeId) -> f64 {
    let nbrs = und.neighbors(v);
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (i, &a) in nbrs.iter().enumerate() {
        links += sorted_intersection_count(und.neighbors(a), &nbrs[i + 1..]);
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Clustering coefficient of a node with `links` links among its `k`
/// neighbors (`links` is the node's triangle count): `2·links / (k·(k−1))`,
/// 0 for `k < 2`. The same expression on the same integers as
/// [`local_clustering_coefficient`], hence the same bits.
pub fn clustering_coefficient(links: u64, k: usize) -> f64 {
    if k < 2 {
        return 0.0;
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Parallel tasks of [`triangle_counts`]. Task `t` takes the vertices
/// `t, t + TRIANGLE_TASKS, …`: generators and renumbering put the heavy
/// vertices at neighboring ids, and a stride deals them round.
const TRIANGLE_TASKS: usize = 64;

/// Number of triangles through every node slot of the *undirected* view
/// `und` (sorted, symmetric, loop-free neighbor lists, as produced by
/// [`Csr::undirected`]); holes and nodes of degree < 2 get 0.
///
/// Each triangle is found exactly once, from its lowest corner under the
/// (degree, id) order: `F(v)` keeps the neighbors ranked above `v`, so a hub
/// has a short forward list however long its neighbor list is, and triangle
/// `v < u < w` is closed by looking `F(u)`'s members up in a mark array
/// holding `F(v)` — no merge against a hub's full list. Strided vertex
/// tasks run in parallel; each thread adds into its own mark/count scratch
/// and the per-thread counts are summed at the end, so the result is the
/// same integers at any thread count.
pub fn triangle_counts(und: &Csr) -> Vec<u64> {
    let n = und.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut forward: Vec<NodeId> = Vec::with_capacity(und.num_edges() / 2);
    for v in 0..n as NodeId {
        let rank_v = (und.degree(v), v);
        forward.extend(
            und.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| (und.degree(u), u) > rank_v),
        );
        offsets.push(forward.len());
    }
    let fwd = |v: usize| &forward[offsets[v]..offsets[v + 1]];

    // One (marks, counts) scratch per thread, not per task: a task takes a
    // free one or makes the pool one larger, and at most as many tasks run
    // at once as there are threads.
    struct Scratch {
        /// `marks[w] == v + 1` while `w ∈ F(v)` for the vertex in hand.
        marks: Vec<NodeId>,
        counts: Vec<u64>,
    }
    let pool: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());
    (0..TRIANGLE_TASKS.min(n)).into_par_iter().for_each(|task| {
        let free = pool.lock().expect("triangle scratch pool poisoned").pop();
        let mut s = free.unwrap_or_else(|| Scratch {
            marks: vec![0; n],
            counts: vec![0; n],
        });
        for v in (task..n).step_by(TRIANGLE_TASKS) {
            let fv = fwd(v);
            if fv.len() < 2 {
                continue;
            }
            let stamp = v as NodeId + 1;
            for &w in fv {
                s.marks[w as usize] = stamp;
            }
            let mut at_v = 0u64;
            for &u in fv {
                let mut at_u = 0u64;
                for &w in fwd(u as usize) {
                    if s.marks[w as usize] == stamp {
                        at_u += 1;
                        s.counts[w as usize] += 1;
                    }
                }
                s.counts[u as usize] += at_u;
                at_v += at_u;
            }
            s.counts[v] += at_v;
        }
        pool.lock().expect("triangle scratch pool poisoned").push(s);
    });
    let mut total = vec![0u64; n];
    for s in pool.into_inner().expect("triangle scratch pool poisoned") {
        for (t, c) in total.iter_mut().zip(s.counts) {
            *t += c;
        }
    }
    total
}

/// Local clustering coefficients for every node slot of `g` (holes get 0):
/// a map over [`triangle_counts`] on the shared undirected view.
pub fn clustering_coefficients(g: &Csr) -> Vec<f64> {
    let und = g.undirected();
    triangle_counts(&und)
        .into_iter()
        .enumerate()
        .map(|(v, links)| clustering_coefficient(links, und.degree(v as NodeId)))
        .collect()
}

/// Sampled average clustering coefficient (cheap estimate used by tests and
/// the threshold-guideline heuristics). Per sample `v`, `N(v)` is marked
/// once and each neighbor `a` counts the marked `w > a` of `N(a)` — only
/// the window of `N(a)` up to `N(v)`'s largest member is read, so a hub
/// neighbor costs two binary searches, not a merge against its whole list.
/// The counts are [`local_clustering_coefficient`]'s `links`.
pub fn average_clustering_coefficient(g: &Csr, samples: usize, seed: u64) -> f64 {
    let und = g.undirected();
    let real: Vec<NodeId> = und.real_nodes().collect();
    if real.is_empty() {
        return 0.0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let samples = samples.min(real.len()).max(1);
    // `marks[w] == s + 1` while `w ∈ N(v)` for sample `s`.
    let mut marks = vec![0usize; und.num_nodes()];
    let total: f64 = (0..samples)
        .map(|s| {
            let v = real[rng.random_range(0..real.len())];
            let nbrs = und.neighbors(v);
            let Some(&last) = nbrs.last() else {
                return 0.0;
            };
            for &w in nbrs {
                marks[w as usize] = s + 1;
            }
            let mut links = 0u64;
            for &a in nbrs {
                let row = und.neighbors(a);
                let window = row.partition_point(|&w| w <= a)..row.partition_point(|&w| w <= last);
                for &w in &row[window] {
                    links += u64::from(marks[w as usize] == s + 1);
                }
            }
            clustering_coefficient(links, nbrs.len())
        })
        .sum();
    total / samples as f64
}

/// Diameter estimate via repeated double-sweep BFS on the undirected view:
/// run BFS from a random node, then from the farthest node found; the
/// farthest distance of the second sweep lower-bounds the diameter and is
/// usually tight on real graphs. Returns the max over `sweeps` repetitions.
pub fn estimate_diameter(g: &Csr, sweeps: usize, seed: u64) -> usize {
    let und = g.undirected();
    let real: Vec<NodeId> = und.real_nodes().collect();
    if real.is_empty() {
        return 0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best = 0usize;
    for _ in 0..sweeps.max(1) {
        let start = real[rng.random_range(0..real.len())];
        let first = bfs_levels(&und, start);
        let far = first
            .iter()
            .enumerate()
            .filter_map(|(v, l)| l.map(|l| (l, v)))
            .max()
            .map(|(_, v)| v as NodeId)
            .unwrap_or(start);
        let second = bfs_levels(&und, far);
        let ecc = second.iter().flatten().copied().max().unwrap_or(0) as usize;
        best = best.max(ecc);
    }
    best
}

/// Number of weakly connected components over non-hole nodes (union-find
/// with path halving and union by rank — without the rank rule, ordered
/// edge streams such as a path graph build linear parent chains and the
/// scan degenerates toward O(n²)).
pub fn connected_components(g: &Csr) -> usize {
    let n = g.num_nodes();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<u8> = vec![0; n];
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (u, v, _) in g.edge_triples() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            match rank[ru as usize].cmp(&rank[rv as usize]) {
                std::cmp::Ordering::Less => parent[ru as usize] = rv,
                std::cmp::Ordering::Greater => parent[rv as usize] = ru,
                std::cmp::Ordering::Equal => {
                    parent[ru as usize] = rv;
                    rank[rv as usize] += 1;
                }
            }
        }
    }
    let mut count = 0usize;
    for v in g.real_nodes() {
        if find(&mut parent, v) == v {
            count += 1;
        }
    }
    // Roots of hole-only trees are not counted because holes are excluded
    // from `real_nodes`; a hole is never linked by an edge (invariant).
    count
}

/// Summary row used by the Table 1 harness.
#[derive(Clone, Debug)]
pub struct GraphSummary {
    pub nodes: usize,
    pub edges: usize,
    pub max_degree: usize,
    pub mean_degree: f64,
    pub avg_clustering: f64,
    pub diameter_estimate: usize,
}

/// Computes the Table 1 summary for `g`.
pub fn summarize(g: &Csr, seed: u64) -> GraphSummary {
    GraphSummary {
        nodes: g.num_real_nodes(),
        edges: g.num_edges(),
        max_degree: g.max_degree(),
        mean_degree: g.mean_degree(),
        avg_clustering: average_clustering_coefficient(g, 500, seed),
        diameter_estimate: estimate_diameter(g, 2, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::tests::adversarial_graph;
    use proptest::prelude::*;

    /// The sampled average as it was: the same samples, each summed by
    /// [`local_clustering_coefficient`]'s sorted merges.
    fn average_by_merge(g: &Csr, samples: usize, seed: u64) -> f64 {
        let und = g.undirected();
        let real: Vec<NodeId> = und.real_nodes().collect();
        if real.is_empty() {
            return 0.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let samples = samples.min(real.len()).max(1);
        let total: f64 = (0..samples)
            .map(|_| {
                let v = real[rng.random_range(0..real.len())];
                local_clustering_coefficient(&und, v)
            })
            .sum();
        total / samples as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn marked_clustering_equals_the_merge_sum(
            g in adversarial_graph(),
            samples in 0usize..40,
            seed in 0u64..1_000,
        ) {
            let got = average_clustering_coefficient(&g, samples, seed);
            let want = average_by_merge(&g, samples, seed);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn marked_clustering_equals_the_merge_sum_at_2_14() {
        use crate::generators::{GraphKind, GraphSpec};
        for kind in [
            GraphKind::Rmat,
            GraphKind::Road,
            GraphKind::SocialLiveJournal,
        ] {
            let g = GraphSpec::new(kind, 1 << 14, 7).generate();
            for (samples, seed) in [(400, 7), (500, 11)] {
                let got = average_clustering_coefficient(&g, samples, seed);
                let want = average_by_merge(&g, samples, seed);
                assert_eq!(got.to_bits(), want.to_bits(), "{}", kind.key());
            }
        }
    }

    fn triangle_plus_tail() -> Csr {
        // Triangle 0-1-2 plus a tail 2-3.
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(0, 2);
        b.add_undirected_edge(2, 3);
        b.build()
    }

    #[test]
    fn clustering_of_triangle_nodes() {
        let g = triangle_plus_tail();
        let und = g.to_undirected();
        assert!((local_clustering_coefficient(&und, 0) - 1.0).abs() < 1e-12);
        // Node 2 has neighbors {0, 1, 3}; only pair (0,1) is linked: 1/3.
        assert!((local_clustering_coefficient(&und, 2) - 1.0 / 3.0).abs() < 1e-12);
        // Degree-1 node has CC 0.
        assert_eq!(local_clustering_coefficient(&und, 3), 0.0);
    }

    #[test]
    fn clustering_vector_matches_local() {
        let g = triangle_plus_tail();
        let ccs = clustering_coefficients(&g);
        let und = g.to_undirected();
        for v in 0..4 {
            assert!((ccs[v as usize] - local_clustering_coefficient(&und, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn diameter_of_path() {
        let mut b = GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_undirected_edge(v, v + 1);
        }
        let g = b.build();
        assert_eq!(estimate_diameter(&g, 3, 1), 5);
    }

    #[test]
    fn component_count() {
        let mut b = GraphBuilder::new(5);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(2, 3);
        let g = b.build();
        assert_eq!(connected_components(&g), 3); // {0,1}, {2,3}, {4}
    }

    #[test]
    fn component_count_on_long_path() {
        // Ordered path edges (0-1, 1-2, ...) are the adversarial stream for
        // rank-less union-find: every union used to graft the whole chain
        // under the new endpoint, driving the scan toward O(n²). With union
        // by rank the tree stays logarithmic; this must stay instant.
        let n = 20_000u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_undirected_edge(v, v + 1);
        }
        let g = b.build();
        assert_eq!(connected_components(&g), 1);
        // Two paths → two components (plus none spurious).
        let mut b = GraphBuilder::new(10);
        for v in 0..4u32 {
            b.add_undirected_edge(v, v + 1);
        }
        for v in 5..9u32 {
            b.add_undirected_edge(v, v + 1);
        }
        assert_eq!(connected_components(&b.build()), 2);
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let g = triangle_plus_tail();
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.num_nodes());
    }

    #[test]
    fn summary_is_consistent() {
        let g = triangle_plus_tail();
        let s = summarize(&g, 4);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, g.num_edges());
        assert!(s.avg_clustering > 0.0);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(connected_components(&g), 0);
        assert_eq!(estimate_diameter(&g, 2, 1), 0);
        assert_eq!(average_clustering_coefficient(&g, 10, 1), 0.0);
    }
}
