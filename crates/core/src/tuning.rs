//! Automatic knob selection from graph structure — §5's "Guidelines for
//! the Threshold" paragraphs, turned into code.
//!
//! The paper picks each knob by inspecting the input's degree distribution
//! and clustering: a high connectedness threshold for power-law graphs
//! (0.6) vs. a low one for near-uniform road networks (0.4); a "relatively
//! high" CC threshold anchored to the graph's ambient clustering; and a
//! low degreeSim threshold (< 0.4) when bucket degrees sit close to their
//! bucket maximum. [`auto_tune`] measures those quantities and applies the
//! same rules, so a downstream user can transform an unfamiliar graph
//! without reading §5.

use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs};
use crate::pipeline::Pipeline;
use crate::prepared::Technique;
use graffix_graph::{properties, Csr};

/// Structural profile a graph is tuned from.
#[derive(Clone, Copy, Debug)]
pub struct GraphProfile {
    pub nodes: usize,
    pub edges: usize,
    pub max_degree: usize,
    pub mean_degree: f64,
    /// Degree skew: max / mean. Power-law graphs score ≫ 1.
    pub skew: f64,
    /// Sampled average clustering coefficient.
    pub avg_clustering: f64,
    /// Whether the degree distribution looks power-law-like (the paper's
    /// dichotomy driving the connectedness guideline).
    pub power_law_like: bool,
}

/// Skew above which a distribution is treated as power-law-like. Uniform
/// families (roads, ER at moderate density) stay well below; R-MAT and
/// social graphs land far above.
pub const SKEW_CUTOFF: f64 = 6.0;

/// Measures the structural profile used by the guidelines.
pub fn profile(g: &Csr, seed: u64) -> GraphProfile {
    let mean = g.mean_degree();
    let max = g.max_degree();
    let skew = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    GraphProfile {
        nodes: g.num_real_nodes(),
        edges: g.num_edges(),
        max_degree: max,
        mean_degree: mean,
        skew,
        avg_clustering: properties::average_clustering_coefficient(g, 400, seed),
        power_law_like: skew > SKEW_CUTOFF,
    }
}

/// The three knob sets produced by the guidelines.
#[derive(Clone, Copy, Debug)]
pub struct TunedKnobs {
    pub coalesce: CoalesceKnobs,
    pub latency: LatencyKnobs,
    pub divergence: DivergenceKnobs,
    pub profile: GraphProfile,
}

impl TunedKnobs {
    /// The pipeline that runs `technique` with these knobs. A `threshold`
    /// override lands on the technique's primary knob (connectedness, CC
    /// or degreeSim threshold); `exact` and `combined` have none, which is
    /// why both doors reject the pair when they parse it
    /// ([`Technique::check_threshold`]). This is the one technique →
    /// pipeline table: the CLI's `--technique`/`--threshold` and the
    /// daemon's request fields both resolve through it.
    pub fn pipeline(&self, technique: Technique, threshold: Option<f64>) -> Pipeline {
        match technique {
            Technique::Exact => Pipeline::default(),
            Technique::Coalescing => Pipeline::default().with_coalesce(CoalesceKnobs {
                threshold: threshold.unwrap_or(self.coalesce.threshold),
                ..self.coalesce
            }),
            Technique::Latency => Pipeline::default().with_latency(LatencyKnobs {
                cc_threshold: threshold.unwrap_or(self.latency.cc_threshold),
                ..self.latency
            }),
            Technique::Divergence => Pipeline::default().with_divergence(DivergenceKnobs {
                degree_sim_threshold: threshold.unwrap_or(self.divergence.degree_sim_threshold),
                ..self.divergence
            }),
            Technique::Combined => Pipeline {
                coalesce: Some(self.coalesce),
                latency: Some(self.latency),
                divergence: Some(self.divergence),
            },
        }
    }
}

/// Applies §5's guidelines to a measured profile.
pub fn tune(profile: GraphProfile) -> TunedKnobs {
    // §5.2: "threshold of 0.6 performs well for power-law graphs and 0.4
    // for the road-network" — keyed on the degree distribution.
    let coalesce = CoalesceKnobs {
        threshold: if profile.power_law_like { 0.6 } else { 0.4 },
        ..Default::default()
    };

    // §5.3: "the threshold must be set to a high value for all graphs",
    // anchored to the ambient CC so *some* neighborhoods qualify after
    // boosting: a bit above twice the average CC, clamped to a sane band.
    let cc_threshold = (profile.avg_clustering * 2.5).clamp(0.2, 0.7);
    let latency = LatencyKnobs {
        cc_threshold,
        ..Default::default()
    };

    // §5.4: "If on an average the mean node degree in a bucket is quite
    // low, or if it is closer to the maximum node degree ... the threshold
    // should be set to a low value (below 0.4)". Coarse power-of-two
    // buckets put the bucket mean within 2x of the bucket max everywhere,
    // so the low-threshold branch applies; very uniform distributions get
    // an even lower setting (fills buy little there).
    let degree_sim_threshold = if profile.skew < 2.5 { 0.15 } else { 0.3 };
    let divergence = DivergenceKnobs {
        degree_sim_threshold,
        ..Default::default()
    };

    TunedKnobs {
        coalesce,
        latency,
        divergence,
        profile,
    }
}

/// One-call convenience: profile + tune.
pub fn auto_tune(g: &Csr, seed: u64) -> TunedKnobs {
    tune(profile(g, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graffix_graph::generators::{GraphKind, GraphSpec};

    fn gen(kind: GraphKind) -> Csr {
        GraphSpec::new(kind, 1500, 11).generate()
    }

    #[test]
    fn rmat_profiles_as_power_law() {
        let p = profile(&gen(GraphKind::Rmat), 1);
        assert!(p.power_law_like, "skew = {}", p.skew);
        assert!(p.skew > SKEW_CUTOFF);
    }

    #[test]
    fn road_profiles_as_uniform() {
        let p = profile(&gen(GraphKind::Road), 1);
        assert!(!p.power_law_like, "skew = {}", p.skew);
        assert!(p.max_degree <= 8);
    }

    #[test]
    fn guidelines_match_paper_thresholds() {
        let rmat = auto_tune(&gen(GraphKind::Rmat), 2);
        assert!((rmat.coalesce.threshold - 0.6).abs() < 1e-12);
        let road = auto_tune(&gen(GraphKind::Road), 2);
        assert!((road.coalesce.threshold - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cc_threshold_tracks_ambient_clustering() {
        let social = auto_tune(&gen(GraphKind::SocialLiveJournal), 3);
        let random = auto_tune(&gen(GraphKind::Random), 3);
        assert!(
            social.latency.cc_threshold > random.latency.cc_threshold,
            "clustered graphs get higher CC bars: {} vs {}",
            social.latency.cc_threshold,
            random.latency.cc_threshold
        );
        assert!((0.2..=0.7).contains(&social.latency.cc_threshold));
    }

    #[test]
    fn degree_sim_low_for_uniform_graphs() {
        let road = auto_tune(&gen(GraphKind::Road), 4);
        let rmat = auto_tune(&gen(GraphKind::Rmat), 4);
        assert!(road.divergence.degree_sim_threshold <= rmat.divergence.degree_sim_threshold);
        assert!(
            rmat.divergence.degree_sim_threshold < 0.4,
            "paper: below 0.4"
        );
    }

    #[test]
    fn tuned_knobs_drive_the_transforms() {
        use graffix_sim::GpuConfig;
        let g = gen(GraphKind::SocialTwitter);
        let tuned = auto_tune(&g, 5);
        let gpu = GpuConfig::k40c();
        for technique in Technique::ALL {
            let p = tuned.pipeline(technique, None).apply(&g, &gpu);
            assert_eq!(p.technique, technique);
        }
    }

    #[test]
    fn pipeline_applies_the_threshold_to_the_primary_knob_only() {
        let tuned = auto_tune(&gen(GraphKind::Rmat), 7);
        let p = tuned.pipeline(Technique::Exact, Some(0.9));
        assert!(p.coalesce.is_none() && p.latency.is_none() && p.divergence.is_none());
        let p = tuned.pipeline(Technique::Coalescing, Some(0.9));
        assert_eq!(p.coalesce.unwrap().threshold, 0.9);
        assert_eq!(p.coalesce.unwrap().chunk_size, tuned.coalesce.chunk_size);
        assert!(p.latency.is_none() && p.divergence.is_none());
        let p = tuned.pipeline(Technique::Latency, Some(0.9));
        assert_eq!(p.latency.unwrap().cc_threshold, 0.9);
        let p = tuned.pipeline(Technique::Divergence, Some(0.9));
        assert_eq!(p.divergence.unwrap().degree_sim_threshold, 0.9);
        let p = tuned.pipeline(Technique::Latency, None);
        assert_eq!(p.latency, Some(tuned.latency));
        // `combined` keeps all three tuned sets as they are.
        let p = tuned.pipeline(Technique::Combined, Some(0.9));
        assert_eq!(p.coalesce, Some(tuned.coalesce));
        assert_eq!(p.latency, Some(tuned.latency));
        assert_eq!(p.divergence, Some(tuned.divergence));
    }

    #[test]
    fn empty_graph_profile_is_sane() {
        let g = graffix_graph::GraphBuilder::new(0).build();
        let p = profile(&g, 1);
        assert_eq!(p.nodes, 0);
        assert!(!p.power_law_like);
        // Tuning still yields valid (default-band) knobs.
        let t = tune(p);
        assert!(t.latency.cc_threshold >= 0.2);
    }
}
