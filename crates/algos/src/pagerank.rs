//! PageRank.
//!
//! Simulated GPU version: push-style synchronous PageRank (atomic-add
//! accumulation into a `next` array, then an apply kernel), the structure
//! of the LonestarGPU/Gunrock PR operators. The frontier variant is
//! residual-based delta-PageRank (Gunrock's formulation). Fractional
//! accumulators use fixed-point integers so adds commute exactly and
//! results are bit-identical at any host thread count: the frontier
//! variant's adds decide activations inside the launch and stay atomic,
//! while the topology push's adds, which nothing reads until the launch
//! ends, are metered in the kernel and summed on the host afterwards.
//! Exact CPU reference: power iteration to tight tolerance.

use crate::plan::{Plan, SimRun, Strategy};
use crate::runner::{Runner, VertexProgram};
use graffix_graph::{Csr, NodeId, INVALID_NODE};
use graffix_sim::{
    ArrayId, AtomicF64Array, FixedPoint, FixedPointF64Array, KernelStats, Lane, Phase,
};

/// Damping factor used throughout (paper-era conventional value).
pub const DAMPING: f64 = 0.85;

/// Convergence tolerance on the per-iteration L1 rank delta, relative to
/// the number of logical vertices.
pub const TOLERANCE: f64 = 1e-9;

/// Fixed iteration budget for the synchronous (topology-driven) kernel —
/// the convention of the baseline GPU PR codes the paper measures, which
/// run a fixed number of power iterations rather than to convergence.
/// Exact and approximate runs execute the same budget; accuracy is judged
/// against a fully converged CPU reference.
pub const FIXED_ITERS: usize = 30;

/// Hard iteration cap for the residual (frontier) variant.
pub const MAX_ITERS: usize = 200;

/// Fraction bits of the fixed-point accumulators: resolution 2^-48
/// (≈3.6e-15, far below [`TOLERANCE`]) with ±2^15 range — rank shares and
/// residuals are probability mass, bounded by 1.
const PR_FRAC_BITS: u32 = 48;

/// Runs simulated PageRank and returns per-original-vertex ranks.
pub fn run_sim(plan: &Plan) -> SimRun {
    match plan.strategy {
        Strategy::Topology => run_topology(plan),
        Strategy::Frontier => run_frontier(plan),
    }
}

fn logical_n(plan: &Plan) -> f64 {
    plan.num_original() as f64
}

/// Total out-degree of each attribute slot (sums virtual copies' slices;
/// identical to the node degree for identity plans). Rank shares divide by
/// this, so a split node still emits exactly `DAMPING × rank` in total.
fn slot_degrees(plan: &Plan) -> Vec<usize> {
    let mut deg = vec![0usize; plan.attr_len];
    for v in 0..plan.graph.num_nodes() as NodeId {
        deg[plan.slot(v) as usize] += plan.graph.degree(v);
    }
    deg
}

/// First processing copy of each slot in assignment order: the lane that
/// performs the apply for that slot. Host-precomputed so the apply kernel's
/// trace never depends on execution schedule.
fn appliers(plan: &Plan, active: &[NodeId]) -> Vec<bool> {
    let mut applier = vec![false; plan.graph.num_nodes()];
    let mut seen = vec![false; plan.attr_len];
    for &v in active {
        let slot = plan.slot(v) as usize;
        if !seen[slot] {
            seen[slot] = true;
            applier[v as usize] = true;
        }
    }
    applier
}

/// Synchronous push+apply PageRank. One outer iteration = a push superstep
/// (the `process` kernel, which meters the scatter of `DAMPING ×
/// rank/outdeg` as one atomic add per arc into the fixed-point `next`
/// accumulator) followed in `after_iteration` by the host fold of those
/// adds, a metered apply superstep (`rank = (1−d)/N + next`) and
/// confluence. The two-superstep iteration cannot cascade within a tile
/// round, so the program opts out of the tile phase; tile nodes still
/// execute in their own blocks at shared-memory prices in both supersteps.
struct PrTopology<'p> {
    plan: &'p Plan,
    rank: AtomicF64Array,
    /// This iteration's pushed mass per slot, in `fixed`'s raw units.
    next: Vec<i64>,
    fixed: FixedPoint,
    applier: Vec<bool>,
    active: Vec<NodeId>,
    slot_deg: Vec<usize>,
    base: f64,
    prev_rank: Vec<f64>,
    /// The reference arm: executes each metered add inside the kernel, as
    /// a real atomic, instead of folding them on the host.
    #[cfg(test)]
    in_kernel: Option<FixedPointF64Array>,
}

impl<'p> PrTopology<'p> {
    fn new(plan: &'p Plan, runner: &Runner<'_>) -> Self {
        let n = logical_n(plan);
        let mut rank = vec![0.0f64; plan.attr_len];
        for (slot, &orig) in plan.to_original.iter().enumerate() {
            if orig != INVALID_NODE {
                rank[slot] = 1.0 / n;
            }
        }
        let active = runner.active_nodes();
        PrTopology {
            plan,
            rank: AtomicF64Array::from_slice(&rank),
            next: vec![0; plan.attr_len],
            fixed: FixedPoint::new(PR_FRAC_BITS),
            applier: appliers(plan, &active),
            active,
            slot_deg: slot_degrees(plan),
            base: (1.0 - DAMPING) / n,
            prev_rank: rank,
            #[cfg(test)]
            in_kernel: None,
        }
    }

    fn run(mut self, runner: &Runner<'_>) -> SimRun {
        let (stats, iterations) = runner.fixpoint(FIXED_ITERS, &mut self);
        SimRun {
            values: self.plan.map_back(&self.rank.to_vec()),
            stats,
            iterations,
        }
    }

    /// What slot `slot` pushes along each of its arcs.
    fn share(&self, slot: usize) -> f64 {
        DAMPING * self.rank.load(slot) / self.slot_deg[slot] as f64
    }

    /// Executes the adds the push superstep metered: the same addend per
    /// arc, summed in wrapping `i64`s in one serial pass. Nothing reads
    /// `next` during the push launch, `rank` does not move in it, and
    /// integer adds commute — so these are the bits the atomics would
    /// have left, on every plan and at any thread count.
    fn fold_push(&mut self) {
        #[cfg(test)]
        if let Some(acc) = &self.in_kernel {
            for (slot, raw) in self.next.iter_mut().enumerate() {
                *raw = acc.quantize_raw(acc.get(slot));
            }
            acc.clear();
            return;
        }
        let arc_slots = self.plan.arc_slots();
        for &v in &self.active {
            let slot = self.plan.slot(v) as usize;
            let arcs = self.plan.graph.edge_range(v);
            if arcs.is_empty() {
                continue;
            }
            let raw = self.fixed.quantize_raw(self.share(slot));
            for &slot_u in &arc_slots[arcs] {
                let cell = &mut self.next[slot_u as usize];
                *cell = cell.wrapping_add(raw);
            }
        }
    }
}

impl VertexProgram for PrTopology<'_> {
    /// Records one atomic add per arc; [`PrTopology::fold_push`] performs
    /// them once the launch is over.
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::OFFSETS, v as usize);
        lane.read(ArrayId::NODE_ATTR, slot);
        if graph.degree(v) == 0 || self.slot_deg[slot] == 0 {
            return false;
        }
        let arc_slots = plan.arc_slots();
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let slot_u = arc_slots[e] as usize;
            lane.atomic(ArrayId::NODE_ATTR_AUX, slot_u);
            #[cfg(test)]
            if let Some(acc) = &self.in_kernel {
                acc.add(slot_u, self.share(slot));
            }
        }
        true
    }

    fn tile_rounds(&self) -> bool {
        false
    }

    fn after_iteration(
        &mut self,
        runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        self.fold_push();
        // Apply: the designated copy folds the accumulator into the rank.
        let outcome = runner.launch(&self.active, |v, lane: &mut Lane| {
            let slot = self.plan.slot(v) as usize;
            if !self.applier[v as usize] {
                return false; // virtual copies apply once per slot
            }
            lane.read(ArrayId::NODE_ATTR_AUX, slot);
            lane.write(ArrayId::NODE_ATTR, slot);
            lane.write(ArrayId::NODE_ATTR_AUX, slot);
            self.rank
                .store(slot, self.base + self.fixed.value(self.next[slot]));
            true
        });
        let mut stats = outcome.stats;
        self.next.fill(0);
        // Confluence, then converge on the *post-confluence* rank movement:
        // with mean-merged replicas the intra-iteration delta settles into
        // a limit cycle and never reaches zero, but the merged vector does.
        let mut r = self.rank.to_vec();
        let (conf_stats, _) = runner.confluence(&mut r);
        stats += conf_stats;
        self.rank.copy_from(&r);
        let delta: f64 = r
            .iter()
            .zip(&self.prev_rank)
            .map(|(a, b)| (a - b).abs())
            .sum();
        self.prev_rank.copy_from_slice(&r);
        // Convergence residual series for run reports: the L1 rank movement
        // this iteration (post-confluence).
        runner
            .plan
            .trace
            .push_series(Phase::Iteration, "pr-l1-delta", delta);
        // The fixed budget may end early only on exact stasis.
        (stats, delta == 0.0)
    }
}

fn run_topology(plan: &Plan) -> SimRun {
    let runner = Runner::new(plan);
    PrTopology::new(plan, &runner).run(&runner)
}

/// Residual-based delta-PageRank (Gunrock's push formulation): a node's
/// unpropagated residual is flushed to its out-neighbors when the node is
/// activated; a neighbor activates when its accumulated residual crosses
/// the threshold. Under virtual splitting, one copy of each slot in the
/// frontier — host-designated in `begin_superstep`, so the trace is
/// schedule-independent — claims the residual and banks it in a flush
/// register that its sibling copies read, so every edge slice propagates
/// the same flushed value exactly once.
struct PrFrontier<'p> {
    plan: &'p Plan,
    rank: AtomicF64Array,
    residual: FixedPointF64Array,
    /// Per-slot value flushed this superstep (host-written).
    flush: Vec<f64>,
    flush_epoch: Vec<u64>,
    epoch: u64,
    /// Which frontier node performs the claim for its slot this superstep.
    claimant: Vec<bool>,
    claimed_nodes: Vec<NodeId>,
    slot_deg: Vec<usize>,
    threshold: f64,
    /// What each slot emits along each of its arcs this superstep, or
    /// [`SILENT`] (host-written). The share is pre-quantized to residual
    /// fixed-point raw units so pull gathers can sum in a register and
    /// commit with one atomic, landing on exactly the bits per-arc pushes
    /// would produce.
    emit: Vec<i64>,
}

/// [`PrFrontier::emit`] of a slot that emits nothing this superstep.
/// Shares are non-negative, so no quantized share equals it — a share
/// that quantizes to 0 still counts as received.
const SILENT: i64 = -1;

impl VertexProgram for PrFrontier<'_> {
    fn begin_superstep(&mut self, frontier: &[NodeId]) {
        self.epoch += 1;
        for &v in &self.claimed_nodes {
            self.claimant[v as usize] = false;
            self.emit[self.plan.slot(v) as usize] = SILENT;
        }
        self.claimed_nodes.clear();
        for &v in frontier {
            let slot = self.plan.slot(v) as usize;
            if self.flush_epoch[slot] != self.epoch {
                // First copy this superstep: claim the residual.
                self.flush_epoch[slot] = self.epoch;
                self.claimant[v as usize] = true;
                self.claimed_nodes.push(v);
                let r = self.residual.get(slot);
                self.residual.set(slot, 0.0);
                self.flush[slot] = r;
                if r > self.threshold && self.slot_deg[slot] > 0 {
                    self.emit[slot] = self
                        .residual
                        .quantize_raw(DAMPING * r / self.slot_deg[slot] as f64);
                }
            }
        }
    }

    fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let graph = &plan.graph;
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::NODE_ATTR_AUX, slot);
        let r = self.flush[slot];
        if self.claimant[v as usize] && r > self.threshold {
            lane.write(ArrayId::NODE_ATTR_AUX, slot);
            lane.read(ArrayId::NODE_ATTR, slot);
            lane.write(ArrayId::NODE_ATTR, slot);
            self.rank.fetch_add(slot, r);
        }
        if r <= self.threshold || self.slot_deg[slot] == 0 {
            return false;
        }
        let share = DAMPING * r / self.slot_deg[slot] as f64;
        let arc_slots = plan.arc_slots();
        for e in graph.edge_range(v) {
            lane.read(ArrayId::EDGES, e);
            let slot_u = arc_slots[e] as usize;
            lane.atomic(ArrayId::NODE_ATTR_AUX, slot_u);
            // Same-signed fixed-point adds: the slot's final residual
            // crosses the threshold iff some lane's post-add value does,
            // so the activation set is schedule-independent.
            if self.residual.add_returning(slot_u, share) > self.threshold {
                plan.activate_slot(slot_u as NodeId, lane);
            }
        }
        true
    }

    fn supports_pull(&self) -> bool {
        true
    }

    /// Gather formulation of the residual flush: `v` folds in its own
    /// claimed residual (the apply the push kernel's claimant performs),
    /// then sums the pre-quantized shares of every *emitting* in-neighbor
    /// in a register and commits them with a single fixed-point atomic.
    /// Emission (`emit`, one word per slot) is host-written in
    /// `begin_superstep`, and per-arc shares are the exact raw addends push
    /// would add — integer addition commutes, so residual bits, rank bits,
    /// and the activation set all match push exactly. On the host a
    /// gathered arc reads one slot-stream word and one emission word.
    fn process_pull(&self, v: NodeId, lane: &mut Lane) -> bool {
        let plan = self.plan;
        let csc = plan.csc();
        let slot = plan.slot(v) as usize;
        lane.read(ArrayId::T_OFFSETS, v as usize);
        let mut changed = false;
        if self.claimant[v as usize] {
            // Only the claimant needs its flushed residual; non-claimants
            // skip the read entirely (push reads it on every frontier copy
            // because every copy emits from it).
            lane.read(ArrayId::NODE_ATTR_AUX, slot);
            let r = self.flush[slot];
            if r > self.threshold {
                lane.write(ArrayId::NODE_ATTR_AUX, slot);
                lane.read(ArrayId::NODE_ATTR, slot);
                lane.write(ArrayId::NODE_ATTR, slot);
                self.rank.fetch_add(slot, r);
                changed = true;
            }
        }
        let mut acc_raw = 0i64;
        let mut received = false;
        let sources = plan.csc_source_slots();
        for e in csc.edge_range(v) {
            lane.read(ArrayId::T_EDGES, e);
            let slot_u = sources[e] as usize;
            lane.read(ArrayId::FRONTIER, slot_u);
            let raw = self.emit[slot_u];
            if raw != SILENT {
                acc_raw = acc_raw.wrapping_add(raw);
                received = true;
            }
        }
        if received {
            // At most one commit per receiving vertex (vs one atomic per
            // in-arc pushed) — and a plain store when the slot has a single
            // gatherer (identity plans).
            if plan.sole_gatherer(slot as NodeId) {
                lane.write(ArrayId::NODE_ATTR_AUX, slot);
            } else {
                lane.atomic(ArrayId::NODE_ATTR_AUX, slot);
            }
            if self.residual.add_raw_returning(slot, acc_raw) > self.threshold {
                plan.activate_slot(slot as NodeId, lane);
            }
            changed = true;
        }
        changed
    }

    fn after_iteration(
        &mut self,
        runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        let mut r = self.rank.to_vec();
        let (stats, _) = runner.confluence(&mut r);
        self.rank.copy_from(&r);
        // Settled rank mass (grows toward the reachable probability mass as
        // residuals drain) — the frontier variant's convergence series.
        runner
            .plan
            .trace
            .push_series(Phase::Iteration, "pr-rank-mass", r.iter().sum());
        (stats, false)
    }
}

fn run_frontier(plan: &Plan) -> SimRun {
    let runner = Runner::new(plan);
    let n = logical_n(plan);
    let base = (1.0 - DAMPING) / n;
    // Push-PR invariant: rank + (I − dMᵀ)⁻¹ residual = PageRank. Starting
    // from rank = 0 and residual = (1−d)/N keeps it, so draining the
    // residual converges rank to the true PageRank vector.
    let residual = FixedPointF64Array::with_frac_bits(plan.attr_len, PR_FRAC_BITS);
    for (slot, &orig) in plan.to_original.iter().enumerate() {
        if orig != INVALID_NODE {
            residual.set(slot, base);
        }
    }
    let mut prog = PrFrontier {
        plan,
        rank: AtomicF64Array::new(plan.attr_len, 0.0),
        residual,
        flush: vec![0.0; plan.attr_len],
        flush_epoch: vec![0; plan.attr_len],
        epoch: 0,
        claimant: vec![false; plan.graph.num_nodes()],
        claimed_nodes: Vec::new(),
        slot_deg: slot_degrees(plan),
        threshold: TOLERANCE,
        emit: vec![SILENT; plan.attr_len],
    };
    let init = runner.active_nodes();
    let (stats, iterations) = runner.frontier_loop(init, MAX_ITERS, &mut prog);
    SimRun {
        values: plan.map_back(&prog.rank.to_vec()),
        stats,
        iterations,
    }
}

/// Exact CPU reference: synchronous power iteration at `DAMPING`, run to a
/// much tighter tolerance than the simulated kernels. The real nodes and
/// the arc span of each one that has arcs are looked up once, so an
/// iteration walks plain slices.
pub fn exact_cpu(g: &Csr) -> Vec<f64> {
    let n = g.num_real_nodes().max(1) as f64;
    let real: Vec<usize> = g.real_nodes().map(|v| v as usize).collect();
    let rows: Vec<(usize, std::ops::Range<usize>)> = real
        .iter()
        .map(|&v| (v, g.edge_range(v as NodeId)))
        .filter(|(_, arcs)| !arcs.is_empty())
        .collect();
    let edges = g.edges_raw();
    let mut rank = vec![0.0f64; g.num_nodes()];
    for &v in &real {
        rank[v] = 1.0 / n;
    }
    let base = (1.0 - DAMPING) / n;
    let mut next = vec![0.0f64; g.num_nodes()];
    for _ in 0..2000 {
        next.fill(0.0);
        for (v, arcs) in &rows {
            let share = DAMPING * rank[*v] / arcs.len() as f64;
            for &u in &edges[arcs.clone()] {
                next[u as usize] += share;
            }
        }
        let mut delta = 0.0;
        for &v in &real {
            let new_rank = base + next[v];
            delta += (new_rank - rank[v]).abs();
            rank[v] = new_rank;
        }
        if delta < 1e-12 * n {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::relative_l1;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::GraphBuilder;
    use graffix_sim::GpuConfig;
    use proptest::prelude::{prop, prop_assert_eq, proptest, Just, ProptestConfig};
    use proptest::Strategy as _;

    /// The oracle as it was: the same power iteration through the checked
    /// per-node accessors.
    fn exact_cpu_by_node(g: &Csr) -> Vec<f64> {
        let n = g.num_real_nodes().max(1) as f64;
        let total = g.num_nodes();
        let mut rank = vec![0.0f64; total];
        for v in g.real_nodes() {
            rank[v as usize] = 1.0 / n;
        }
        let base = (1.0 - DAMPING) / n;
        let mut next = vec![0.0f64; total];
        for _ in 0..2000 {
            for x in next.iter_mut() {
                *x = 0.0;
            }
            for v in g.real_nodes() {
                let deg = g.degree(v);
                if deg == 0 {
                    continue;
                }
                let share = DAMPING * rank[v as usize] / deg as f64;
                for &u in g.neighbors(v) {
                    next[u as usize] += share;
                }
            }
            let mut delta = 0.0;
            for v in g.real_nodes() {
                let new_rank = base + next[v as usize];
                delta += (new_rank - rank[v as usize]).abs();
                rank[v as usize] = new_rank;
            }
            if delta < 1e-12 * n {
                break;
            }
        }
        rank
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Rows in arbitrary order with parallel arcs, self-loops, holes and
    /// dangling nodes, weighted or not, with 0–2 nodes drawn often.
    fn adversarial_graph() -> impl proptest::Strategy<Value = Csr> {
        (0usize..30, 0u8..2)
            .prop_flat_map(|(n, weighted)| {
                let n = if n < 24 { n } else { n % 3 };
                let node = (0u8..5, prop::collection::vec((0u32..1_000, 1u32..6), 0..7));
                (Just(weighted == 1), prop::collection::vec(node, n..n + 1))
            })
            .prop_map(|(weighted, nodes)| {
                let hole: Vec<bool> = nodes.iter().map(|(h, _)| *h == 0).collect();
                let real: Vec<NodeId> = (0..nodes.len() as NodeId)
                    .filter(|&v| !hole[v as usize])
                    .collect();
                let (mut offsets, mut edges, mut weights) = (vec![0], Vec::new(), Vec::new());
                for (v, (_, arcs)) in nodes.iter().enumerate() {
                    if !hole[v] {
                        for &(pick, w) in arcs {
                            edges.push(real[pick as usize % real.len()]);
                            if weighted {
                                weights.push(w);
                            }
                        }
                    }
                    offsets.push(edges.len());
                }
                let mask = if hole.contains(&true) {
                    hole
                } else {
                    Vec::new()
                };
                Csr::from_parts(offsets, edges, weights, mask)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn row_oracle_equals_the_per_node_oracle(g in adversarial_graph()) {
            prop_assert_eq!(bits(&exact_cpu(&g)), bits(&exact_cpu_by_node(&g)));
        }
    }

    #[test]
    fn row_oracle_equals_the_per_node_oracle_at_2_14() {
        for kind in [
            GraphKind::Rmat,
            GraphKind::Road,
            GraphKind::SocialLiveJournal,
        ] {
            let g = GraphSpec::new(kind, 1 << 14, 7).generate();
            assert_eq!(
                bits(&exact_cpu(&g)),
                bits(&exact_cpu_by_node(&g)),
                "{}",
                kind.key()
            );
        }
    }

    /// The host fold against the arm that adds inside the kernel, on the
    /// two plan shapes where several processing nodes push into one slot:
    /// a Tigr-shaped split and a coalesced plan with replicas. Values,
    /// every `KernelStats` field and the iteration count, at 1, 2 and 8
    /// threads.
    #[test]
    fn host_fold_equals_adding_inside_the_kernel() {
        use crate::memo_tests::{virtually_split, with_threads};
        use graffix_core::{CoalesceKnobs, Pipeline, Prepared};
        let cfg = GpuConfig::k40c();
        let g = GraphSpec::new(GraphKind::Rmat, 1_024, 5).generate();
        let coalesced = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &cfg);
        assert!(
            !coalesced.replica_groups.is_empty(),
            "no node was replicated"
        );
        let plans = [
            (
                "split",
                virtually_split(&Prepared::exact(g.clone()), &cfg, 8),
            ),
            (
                "coalesced",
                Plan::from_prepared(&coalesced, &cfg, Strategy::Topology),
            ),
        ];
        for (name, plan) in &plans {
            for threads in [1, 2, 8] {
                let folded = with_threads(threads, || run_sim(plan));
                let in_kernel = with_threads(threads, || {
                    let runner = Runner::new(plan);
                    let mut prog = PrTopology::new(plan, &runner);
                    prog.in_kernel = Some(FixedPointF64Array::with_frac_bits(
                        plan.attr_len,
                        PR_FRAC_BITS,
                    ));
                    prog.run(&runner)
                });
                let id = format!("{name}/{threads}t");
                assert_eq!(bits(&folded.values), bits(&in_kernel.values), "{id}");
                assert_eq!(folded.stats, in_kernel.stats, "{id}");
                assert_eq!(folded.iterations, in_kernel.iterations, "{id}");
            }
        }
    }

    #[test]
    fn exact_cpu_sums_to_near_one_on_cycle() {
        let mut b = GraphBuilder::new(4);
        for v in 0..4u32 {
            b.add_edge(v, (v + 1) % 4);
        }
        let g = b.build();
        let pr = exact_cpu(&g);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        // Symmetric cycle: equal ranks.
        for &r in &pr {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn sim_topology_matches_reference() {
        let g = GraphSpec::new(GraphKind::Random, 300, 2).generate();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan);
        let exact = exact_cpu(&g);
        let err = relative_l1(&run.values, &exact);
        assert!(err < 1e-4, "topology PR error {err}");
        assert!(run.iterations > 3);
    }

    #[test]
    fn sim_frontier_matches_reference() {
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 300, 4).generate();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Frontier);
        let run = run_sim(&plan);
        let exact = exact_cpu(&g);
        let err = relative_l1(&run.values, &exact);
        assert!(err < 1e-3, "frontier PR error {err}");
    }

    #[test]
    fn pull_matches_push_bit_for_bit_on_exact_plan() {
        use crate::plan::Direction;
        let g = GraphSpec::new(GraphKind::Rmat, 300, 11).generate();
        let cfg = GpuConfig::test_tiny();
        let push = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier));
        for dir in [Direction::Pull, Direction::Auto] {
            let run = run_sim(&Plan::exact(&g, &cfg, Strategy::Frontier).with_direction(dir));
            for (a, b) in push.values.iter().zip(&run.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "direction {dir:?}");
            }
            assert_eq!(run.iterations, push.iterations, "direction {dir:?}");
        }
    }

    #[test]
    fn dangling_nodes_handled() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2); // node 2 dangles
        let g = b.build();
        let plan = Plan::exact(&g, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan);
        let exact = exact_cpu(&g);
        assert!(relative_l1(&run.values, &exact) < 1e-6);
    }

    #[test]
    fn transformed_graph_terminates_with_bounded_error() {
        use graffix_core::{CoalesceKnobs, Pipeline};
        let g = GraphSpec::new(GraphKind::Rmat, 400, 6).generate();
        let prepared = Pipeline::default()
            .with_coalesce(CoalesceKnobs::default())
            .apply(&g, &GpuConfig::k40c());
        let plan = Plan::from_prepared(&prepared, &GpuConfig::test_tiny(), Strategy::Topology);
        let run = run_sim(&plan);
        let exact = exact_cpu(&g);
        let err = relative_l1(&run.values, &exact);
        assert!(err < 0.6, "approximate PR error too large: {err}");
        assert!(run.iterations < MAX_ITERS);
    }
}
