//! Synthetic graph generators mirroring the paper's input suite (Table 1).
//!
//! The paper evaluates on rmat26 / random26 (GTgraph), LiveJournal, twitter
//! (SNAP snapshots), and USA-road (DIMACS). Offline, we regenerate the same
//! *families* at configurable scale:
//!
//! * [`rmat`] — R-MAT recursive matrix model (GTgraph's default quadrant
//!   probabilities), heavy-tailed degrees.
//! * [`erdos_renyi`] — uniform G(n, m) random graph.
//! * [`social`] — preferential attachment with triangle closure, producing
//!   power-law degrees *and* high clustering coefficient (LiveJournal- and
//!   twitter-like; the two presets differ in density and skew).
//! * [`road`] — perturbed 2-D grid: uniform small degrees, huge diameter.
//!
//! Every generator is fully deterministic given a seed (ChaCha8 streams).

pub mod classic;
pub mod erdos_renyi;
pub mod rmat;
pub mod road;
pub mod small_world;
pub mod social;

use crate::csr::Csr;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which generator family to draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// R-MAT, GTgraph quadrant probabilities (a, b, c, d) = (.57, .19, .19, .05).
    Rmat,
    /// Erdős–Rényi G(n, m).
    Random,
    /// Social network, LiveJournal preset (moderate density, high CC).
    SocialLiveJournal,
    /// Social network, twitter preset (denser, heavier tail).
    SocialTwitter,
    /// Road network (perturbed grid).
    Road,
}

impl GraphKind {
    /// Every family, in the CLI's usage order.
    pub const ALL: [GraphKind; 5] = [
        GraphKind::Rmat,
        GraphKind::Random,
        GraphKind::SocialLiveJournal,
        GraphKind::SocialTwitter,
        GraphKind::Road,
    ];

    /// Short machine-readable key: the CLI's `--kind` values and the
    /// `kind:nodes:seed` specs of the server's graph registry.
    pub fn key(self) -> &'static str {
        match self {
            GraphKind::Rmat => "rmat",
            GraphKind::Random => "random",
            GraphKind::SocialLiveJournal => "livejournal",
            GraphKind::SocialTwitter => "twitter",
            GraphKind::Road => "road",
        }
    }

    /// Parses a [`GraphKind::key`].
    pub fn from_key(key: &str) -> Option<GraphKind> {
        GraphKind::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Paper-suite name for table headers.
    pub fn paper_name(self) -> &'static str {
        match self {
            GraphKind::Rmat => "rmat26",
            GraphKind::Random => "random26",
            GraphKind::SocialLiveJournal => "LiveJournal",
            GraphKind::SocialTwitter => "twitter",
            GraphKind::Road => "USA-road",
        }
    }

    /// Whether the family has a skewed (power-law-like) degree distribution.
    /// The paper uses this to pick the connectedness threshold (0.6 for
    /// power-law graphs, 0.4 for road networks).
    pub fn is_power_law(self) -> bool {
        !matches!(self, GraphKind::Road)
    }
}

/// Parameters for generating one input graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSpec {
    pub kind: GraphKind,
    /// Target number of vertices (road rounds to a grid).
    pub nodes: usize,
    /// Target average out-degree.
    pub avg_degree: usize,
    /// RNG seed.
    pub seed: u64,
    /// Attach uniform random weights in `1..=max_weight` (0 = unweighted).
    pub max_weight: u32,
}

impl GraphSpec {
    /// Spec with the family's default density at the given node count.
    pub fn new(kind: GraphKind, nodes: usize, seed: u64) -> Self {
        let avg_degree = match kind {
            GraphKind::Rmat | GraphKind::Random => 16,
            GraphKind::SocialLiveJournal => 14,
            GraphKind::SocialTwitter => 35,
            GraphKind::Road => 3,
        };
        GraphSpec {
            kind,
            nodes,
            avg_degree,
            seed,
            max_weight: 63,
        }
    }

    /// Overrides the weight range (0 disables weights).
    pub fn with_max_weight(mut self, w: u32) -> Self {
        self.max_weight = w;
        self
    }

    /// Generates the graph. Vertex ids are uniformly shuffled afterwards:
    /// real snapshots (SNAP crawls, DIMACS exports) carry no locality in
    /// their numbering, whereas our generators' raw ids would — leaving
    /// them unshuffled would hand the exact baseline a layout quality the
    /// paper's inputs never had.
    pub fn generate(&self) -> Csr {
        match self.try_generate() {
            Ok(g) => g,
            Err(e) => panic!("invalid graph spec: {e}"),
        }
    }

    /// Like [`GraphSpec::generate`] but reports an out-of-range scale as a
    /// typed error instead of panicking — the entry point for specs parsed
    /// from untrusted input (registry entries, CLI flags).
    pub fn try_generate(&self) -> Result<Csr, crate::error::GraphError> {
        // Generators may round the node count up (road grids); keep a
        // conservative margin below the u32::MAX sentinel boundary.
        if self.nodes > u32::MAX as usize / 2 {
            return Err(crate::error::GraphError::ValueOutOfRange {
                what: "generator node count",
                value: self.nodes as u64,
                max: u32::MAX as u64 / 2,
            });
        }
        let g = match self.kind {
            GraphKind::Rmat => rmat::generate(self.nodes, self.nodes * self.avg_degree, self.seed),
            GraphKind::Random => {
                erdos_renyi::generate(self.nodes, self.nodes * self.avg_degree, self.seed)
            }
            GraphKind::SocialLiveJournal => {
                social::generate(self.nodes, self.avg_degree, 0.35, self.seed)
            }
            GraphKind::SocialTwitter => {
                social::generate(self.nodes, self.avg_degree, 0.15, self.seed)
            }
            GraphKind::Road => road::generate(self.nodes, self.seed),
        };
        let g = shuffle_ids(&g, self.seed ^ 0x5eed_0002);
        Ok(if self.max_weight == 0 {
            g
        } else {
            attach_weights(&g, self.max_weight, self.seed ^ 0x5eed_0001)
        })
    }
}

/// Relabels vertices with a uniformly random permutation (deterministic in
/// `seed`), erasing any generator-induced id locality.
pub fn shuffle_ids(g: &Csr, seed: u64) -> Csr {
    use rand::seq::SliceRandom;
    let n = g.num_nodes();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut wadj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let weighted = g.is_weighted();
    for v in 0..n as u32 {
        let nv = perm[v as usize] as usize;
        for e in g.edge_range(v) {
            adj[nv].push(perm[g.edges_raw()[e] as usize]);
            if weighted {
                wadj[nv].push(g.weight_at(e));
            }
        }
        // Keep neighbor lists sorted (canonical CSR form).
        if weighted {
            let mut pairs: Vec<(u32, u32)> = adj[nv]
                .iter()
                .copied()
                .zip(wadj[nv].iter().copied())
                .collect();
            pairs.sort_unstable();
            adj[nv] = pairs.iter().map(|p| p.0).collect();
            wadj[nv] = pairs.iter().map(|p| p.1).collect();
        } else {
            adj[nv].sort_unstable();
        }
    }
    Csr::from_adjacency(adj, if weighted { Some(wadj) } else { None })
}

/// Re-emits `g` with uniform random weights in `1..=max_weight`.
pub fn attach_weights(g: &Csr, max_weight: u32, seed: u64) -> Csr {
    assert!(max_weight >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights: Vec<u32> = (0..g.num_edges())
        .map(|_| rng.random_range(1..=max_weight))
        .collect();
    Csr::from_parts(
        g.offsets().to_vec(),
        g.edges_raw().to_vec(),
        weights,
        Vec::new(),
    )
}

/// The families of the paper suite, in the order of Table 1.
pub const PAPER_KINDS: [GraphKind; 5] = [
    GraphKind::Rmat,
    GraphKind::Random,
    GraphKind::SocialLiveJournal,
    GraphKind::Road,
    GraphKind::SocialTwitter,
];

/// The five-graph paper suite (Table 1) at a common scale. `nodes` is the
/// per-graph vertex budget; the paper's absolute sizes (67 M / 4.8 M / 23.9 M
/// / 41.6 M nodes) are scaled down uniformly — the transforms respond to the
/// *shape* of each family, not its raw size (see DESIGN.md substitutions).
pub fn paper_suite(nodes: usize, seed: u64) -> Vec<(GraphKind, Csr)> {
    PAPER_KINDS
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            (
                kind,
                GraphSpec::new(kind, nodes, seed + i as u64).generate(),
            )
        })
        .collect()
}

/// Deterministic helper RNG used by the generator submodules.
pub(crate) fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    r.set_stream(stream);
    r
}

/// Clamp helper: ensure at least one node so generators never emit a
/// degenerate 0-node graph unless explicitly asked.
pub(crate) fn at_least_one(n: usize) -> usize {
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_generate_roughly_requested_size() {
        for kind in GraphKind::ALL {
            assert_eq!(GraphKind::from_key(kind.key()), Some(kind));
            let g = GraphSpec::new(kind, 2000, 7).generate();
            assert!(
                g.num_nodes() >= 1800 && g.num_nodes() <= 2600,
                "{kind:?}: {} nodes",
                g.num_nodes()
            );
            assert!(g.num_edges() > 0, "{kind:?} generated no edges");
            g.validate().unwrap();
        }
        assert_eq!(GraphKind::from_key("rmat26"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphSpec::new(GraphKind::Rmat, 1000, 42).generate();
        let b = GraphSpec::new(GraphKind::Rmat, 1000, 42).generate();
        assert_eq!(a.edges_raw(), b.edges_raw());
        assert_eq!(a.weights_raw(), b.weights_raw());
    }

    #[test]
    fn different_seeds_differ() {
        let a = GraphSpec::new(GraphKind::Random, 1000, 1).generate();
        let b = GraphSpec::new(GraphKind::Random, 1000, 2).generate();
        assert_ne!(a.edges_raw(), b.edges_raw());
    }

    #[test]
    fn weights_in_range() {
        let g = GraphSpec::new(GraphKind::Random, 500, 3)
            .with_max_weight(10)
            .generate();
        assert!(g.is_weighted());
        assert!(g.weights_raw().iter().all(|&w| (1..=10).contains(&w)));
    }

    #[test]
    fn unweighted_when_disabled() {
        let g = GraphSpec::new(GraphKind::Random, 500, 3)
            .with_max_weight(0)
            .generate();
        assert!(!g.is_weighted());
    }

    #[test]
    fn paper_suite_has_five_graphs() {
        let suite = paper_suite(600, 11);
        assert_eq!(suite.len(), 5);
        let names: Vec<_> = suite.iter().map(|(k, _)| k.paper_name()).collect();
        assert_eq!(
            names,
            vec!["rmat26", "random26", "LiveJournal", "USA-road", "twitter"]
        );
    }

    #[test]
    fn power_law_flag_matches_paper_threshold_rule() {
        assert!(GraphKind::Rmat.is_power_law());
        assert!(GraphKind::SocialTwitter.is_power_law());
        assert!(!GraphKind::Road.is_power_law());
    }
}
