//! Tunable knobs for the three transforms — the paper's central theme is
//! that each technique exposes one knob controlling the injected
//! approximation (connectedness threshold, CC threshold, degreeSim
//! threshold).

use graffix_graph::GraphKind;

/// Knobs for the coalescing transform (§2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoalesceKnobs {
    /// Chunk size `k` (`1 ≤ k ≤ warp-size`); every BFS level starts at a
    /// multiple of `k` and replication operates on `k`-sized chunks. The
    /// paper uses 16.
    pub chunk_size: usize,
    /// Connectedness threshold for replication — *the* knob (Figure 7).
    /// Paper guidance: 0.6 for power-law graphs, 0.4 for road networks.
    pub threshold: f64,
    /// Upper bound on replicas per logical node (keeps confluence cheap;
    /// the paper bounds replication implicitly through hole scarcity).
    pub max_replicas_per_node: usize,
}

impl Default for CoalesceKnobs {
    fn default() -> Self {
        CoalesceKnobs {
            chunk_size: 16,
            threshold: 0.6,
            max_replicas_per_node: 4,
        }
    }
}

impl CoalesceKnobs {
    /// Paper-recommended knobs for a graph family (§5.2 guidelines).
    pub fn for_kind(kind: GraphKind) -> Self {
        CoalesceKnobs {
            threshold: if kind.is_power_law() { 0.6 } else { 0.4 },
            ..Default::default()
        }
    }

    /// Overrides the connectedness threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.threshold = t;
        self
    }
}

/// Knobs for the latency (shared-memory) transform (§3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyKnobs {
    /// Clustering-coefficient threshold above which a node (with its 1-hop
    /// neighborhood) is tiled into shared memory — the knob (Figure 8).
    /// The paper recommends keeping it "relatively high".
    pub cc_threshold: f64,
    /// Nodes with CC within `margin` *below* the threshold get boosted by
    /// 2-hop edge insertion (scenario 1 of §3).
    pub margin: f64,
    /// Global cap on inserted edges as a fraction of |E| ("we maintain a
    /// global limit for the number of edges added").
    pub edge_budget_frac: f64,
    /// Multiplier on tile diameter for the shared-memory iteration count
    /// (`t ~ 2 × diameter` per the paper).
    pub t_diameter_factor: usize,
}

impl Default for LatencyKnobs {
    fn default() -> Self {
        LatencyKnobs {
            cc_threshold: 0.7,
            margin: 0.2,
            edge_budget_frac: 0.02,
            t_diameter_factor: 2,
        }
    }
}

impl LatencyKnobs {
    /// Paper guideline: the threshold is based on the graph's average CC —
    /// high for all graphs, slightly lower for families with low ambient
    /// clustering so *some* tiles qualify.
    pub fn for_kind(kind: GraphKind) -> Self {
        let cc_threshold = match kind {
            GraphKind::Road => 0.3,
            GraphKind::Random => 0.5,
            GraphKind::Rmat => 0.3,
            GraphKind::SocialLiveJournal | GraphKind::SocialTwitter => 0.4,
        };
        LatencyKnobs {
            cc_threshold,
            ..Default::default()
        }
    }

    /// Overrides the CC threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.cc_threshold = t;
        self
    }
}

/// Knobs for the divergence transform (§4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DivergenceKnobs {
    /// degreeSim threshold: nodes whose degree deficit
    /// `1 − deg/maxWarpDeg` is at most this get filled — the knob
    /// (Figure 9).
    pub degree_sim_threshold: f64,
    /// Fill target as a fraction of the warp's max degree (paper: "the
    /// node degree is made 85 % of the warp's max-degree").
    pub fill_fraction: f64,
    /// Global cap on inserted edges as a fraction of |E|.
    pub edge_budget_frac: f64,
}

impl Default for DivergenceKnobs {
    fn default() -> Self {
        DivergenceKnobs {
            degree_sim_threshold: 0.3,
            fill_fraction: 0.85,
            edge_budget_frac: 0.04,
        }
    }
}

impl DivergenceKnobs {
    /// Overrides the degreeSim threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.degree_sim_threshold = t;
        self
    }
}

impl CoalesceKnobs {
    /// Rejects knob combinations the transform cannot honor.
    pub fn validate(&self, warp_size: usize) -> Result<(), String> {
        if self.chunk_size == 0 || self.chunk_size > warp_size {
            return Err(format!(
                "coalesce chunk_size must be in 1..={warp_size}, got {}",
                self.chunk_size
            ));
        }
        if !(0.0..=1.0).contains(&self.threshold) || !self.threshold.is_finite() {
            return Err(format!(
                "coalesce threshold must be in [0, 1], got {}",
                self.threshold
            ));
        }
        if self.max_replicas_per_node == 0 {
            return Err("coalesce max_replicas_per_node must be at least 1".into());
        }
        Ok(())
    }
}

impl LatencyKnobs {
    /// Rejects knob combinations the transform cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.cc_threshold) || !self.cc_threshold.is_finite() {
            return Err(format!(
                "latency cc_threshold must be in [0, 1], got {}",
                self.cc_threshold
            ));
        }
        if !(0.0..=1.0).contains(&self.margin) || !self.margin.is_finite() {
            return Err(format!(
                "latency margin must be in [0, 1], got {}",
                self.margin
            ));
        }
        if self.edge_budget_frac < 0.0 || !self.edge_budget_frac.is_finite() {
            return Err(format!(
                "latency edge_budget_frac must be non-negative, got {}",
                self.edge_budget_frac
            ));
        }
        if self.t_diameter_factor == 0 {
            return Err("latency t_diameter_factor must be at least 1".into());
        }
        Ok(())
    }
}

impl DivergenceKnobs {
    /// Rejects knob combinations the transform cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.degree_sim_threshold)
            || !self.degree_sim_threshold.is_finite()
        {
            return Err(format!(
                "divergence degree_sim_threshold must be in [0, 1], got {}",
                self.degree_sim_threshold
            ));
        }
        if !(0.0..=1.0).contains(&self.fill_fraction) || !self.fill_fraction.is_finite() {
            return Err(format!(
                "divergence fill_fraction must be in [0, 1], got {}",
                self.fill_fraction
            ));
        }
        if self.edge_budget_frac < 0.0 || !self.edge_budget_frac.is_finite() {
            return Err(format!(
                "divergence edge_budget_frac must be non-negative, got {}",
                self.edge_budget_frac
            ));
        }
        Ok(())
    }
}

/// Knobs for incremental preparation over a mutation stream (the
/// streaming layer in `crate::incremental`).
///
/// Unlike the transform knobs above, these never enter any cache key: they
/// control *when* the incremental layer refreshes, not *what* any stage
/// computes, and stale reuse is confined to the in-process seeding hook
/// (never written to the content-addressed caches).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamKnobs {
    /// Cumulative staleness-debt threshold, as a fraction of the base
    /// graph's arcs. Each batch served with stale structure adds its churn
    /// fraction (changed arcs / arcs at the last full prepare) to the
    /// debt; when serving the next batch stale would push debt past this
    /// threshold, the layer runs a full re-prepare instead and resets the
    /// debt to zero. `0.0` disables stale reuse entirely — every prepare
    /// is exact, which is the byte-identity oracle regime.
    pub debt_threshold: f64,
}

impl Default for StreamKnobs {
    fn default() -> Self {
        // ~5 batches of 1% churn between refreshes: drift stays within the
        // same order as the transforms' own edge budgets (2–4% of |E|).
        StreamKnobs {
            debt_threshold: 0.05,
        }
    }
}

impl StreamKnobs {
    /// Overrides the staleness-debt threshold.
    pub fn with_debt_threshold(mut self, t: f64) -> Self {
        self.debt_threshold = t;
        self
    }

    /// Rejects thresholds the debt accounting cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        if !self.debt_threshold.is_finite() || self.debt_threshold < 0.0 {
            return Err(format!(
                "stream debt_threshold must be finite and non-negative, got {}",
                self.debt_threshold
            ));
        }
        Ok(())
    }
}

/// Knobs for segmented execution (DESIGN.md §12): cache-sized contiguous
/// vertex-range partitions with L2-resident pricing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentKnobs {
    /// Byte budget per segment — the estimated working set (offsets +
    /// attributes + edge slice) each segment keeps resident while it is
    /// being processed. Defaults to the K40C's 1.5 MiB L2, so default
    /// segments are exactly L2-resident.
    pub segment_bytes: usize,
}

impl Default for SegmentKnobs {
    fn default() -> Self {
        SegmentKnobs {
            segment_bytes: 1536 * 1024,
        }
    }
}

impl SegmentKnobs {
    /// Overrides the per-segment byte budget.
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Rejects budgets the greedy splitter cannot honor: a budget below
    /// one node's fixed cost degenerates into one segment per node.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_bytes < graffix_graph::segment::BYTES_PER_NODE {
            return Err(format!(
                "segment_bytes must be at least {} (one node's fixed cost), got {}",
                graffix_graph::segment::BYTES_PER_NODE,
                self.segment_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = CoalesceKnobs::default();
        assert_eq!(c.chunk_size, 16);
        assert!((c.threshold - 0.6).abs() < 1e-12);
        let d = DivergenceKnobs::default();
        assert!((d.fill_fraction - 0.85).abs() < 1e-12);
        let l = LatencyKnobs::default();
        assert_eq!(l.t_diameter_factor, 2);
    }

    #[test]
    fn kind_guidelines_follow_paper() {
        assert!(
            CoalesceKnobs::for_kind(GraphKind::Rmat).threshold
                > CoalesceKnobs::for_kind(GraphKind::Road).threshold
        );
        assert!(
            LatencyKnobs::for_kind(GraphKind::SocialTwitter).cc_threshold
                > LatencyKnobs::for_kind(GraphKind::Road).cc_threshold
        );
    }

    #[test]
    fn knob_validation_rejects_bad_combinations() {
        assert!(CoalesceKnobs::default().validate(32).is_ok());
        assert!(CoalesceKnobs {
            chunk_size: 0,
            ..Default::default()
        }
        .validate(32)
        .is_err());
        assert!(CoalesceKnobs {
            chunk_size: 64,
            ..Default::default()
        }
        .validate(32)
        .is_err());
        assert!(CoalesceKnobs::default()
            .with_threshold(-3.0)
            .validate(32)
            .is_err());
        assert!(LatencyKnobs::default().validate().is_ok());
        assert!(LatencyKnobs::default()
            .with_threshold(2.0)
            .validate()
            .is_err());
        assert!(LatencyKnobs {
            t_diameter_factor: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DivergenceKnobs::default().validate().is_ok());
        assert!(DivergenceKnobs {
            fill_fraction: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn segment_knobs_default_and_validation() {
        let s = SegmentKnobs::default();
        assert_eq!(s.segment_bytes, 1536 * 1024);
        s.validate().unwrap();
        assert!(SegmentKnobs::default()
            .with_segment_bytes(0)
            .validate()
            .is_err());
        assert!(SegmentKnobs::default()
            .with_segment_bytes(16)
            .validate()
            .is_ok());
    }

    #[test]
    fn with_threshold_builders() {
        assert!((CoalesceKnobs::default().with_threshold(0.3).threshold - 0.3).abs() < 1e-12);
        assert!((LatencyKnobs::default().with_threshold(0.9).cc_threshold - 0.9).abs() < 1e-12);
        assert!(
            (DivergenceKnobs::default()
                .with_threshold(0.5)
                .degree_sim_threshold
                - 0.5)
                .abs()
                < 1e-12
        );
    }
}
