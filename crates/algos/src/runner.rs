//! Shared iteration machinery: the [`VertexProgram`] engine plus the
//! topology fixpoint, frontier loop, tile phase, and metered confluence
//! drivers every algorithm composes. Every kernel launch those drivers
//! make is laid out by [`Runner::launch`] (or is a one-line block list) and
//! executed, priced and snapshotted by the private `Runner::launch_blocks`.
//!
//! Kernels execute in parallel on the host (see `graffix_sim::executor`),
//! so a program's `process` takes `&self` and mutates attribute state only
//! through the commutative atomic arrays in `graffix_sim::attrs` (or other
//! interior-mutable state). The `&mut self` hooks run host-side between
//! supersteps, where exclusive access is safe.

use crate::plan::{Direction, Plan, Strategy};
use graffix_core::confluence;
use graffix_graph::{NodeId, INVALID_NODE};
use graffix_sim::{
    run_blocks, ArrayId, Block, KernelStats, Lane, MemoCounts, Phase, ReplayMemo, Residency,
    SuperstepOutcome,
};

/// `assignment` as one block with nothing resident.
fn global(assignment: &[NodeId]) -> Block<'_> {
    Block {
        assignment,
        residency: Residency::Global,
    }
}

/// A vertex-centric algorithm, expressed as a kernel over processing nodes
/// plus host-side hooks around each superstep. Programs own their attribute
/// state; the [`Runner`] owns iteration structure (tiling, frontiers,
/// launch metering), so an algorithm is just an implementation of this
/// trait plus a result extraction.
pub trait VertexProgram: Sync {
    /// Called at the top of each outer iteration (0-based).
    fn begin_iteration(&mut self, _iter: usize) {}

    /// Called right before a frontier superstep with the deduped frontier
    /// that is about to run (frontier loops only).
    fn begin_superstep(&mut self, _frontier: &[NodeId]) {}

    /// The vertex kernel. Runs *functionally* against the program's state
    /// while mirroring every memory access on `lane`; returns whether it
    /// changed any state. Executed concurrently — shared state must go
    /// through commutative atomics, and the recorded trace must not depend
    /// on concurrently-mutated values (branch on host-owned or
    /// previous-buffer snapshots only) so warp costs stay deterministic.
    fn process(&self, v: NodeId, lane: &mut Lane) -> bool;

    /// Whether this program offers a pull (gather) kernel. Programs
    /// returning `false` always run push, whatever the plan's
    /// [`Direction`] policy says.
    fn supports_pull(&self) -> bool {
        false
    }

    /// The gather kernel: runs over *every* processing node, pulling
    /// contributions along in-edges of the plan's CSC mirror instead of
    /// scattering along out-edges. Same execution contract as
    /// [`VertexProgram::process`] — and one extra rule for bit-identity
    /// with push: any value the kernel *meters or branches on* must come
    /// from host-owned or previous-superstep snapshots, never from state
    /// concurrently written this superstep.
    fn process_pull(&self, v: NodeId, lane: &mut Lane) -> bool {
        let _ = (v, lane);
        false
    }

    /// Whether the §3 shared-memory tile phase applies to this program.
    /// Multi-superstep iterations (e.g. PageRank's push/apply pair) opt
    /// out: their updates cannot cascade within a tile round.
    fn tile_rounds(&self) -> bool {
        true
    }

    /// Called between tile rounds so double-buffered programs can commit
    /// (tile round `r+1` must observe round `r`'s writes).
    fn end_tile_round(&mut self) {}

    /// Called after the global superstep of each iteration: confluence,
    /// buffer commits, convergence checks, extra activations (pushed into
    /// `next`, which frontier loops merge before dedup). Returns the hook's
    /// metered kernel cost plus a *stop* flag — algorithms with replica
    /// confluence terminate on value stability, because mean-merging can
    /// make the raw `changed` flag oscillate forever (a merged value gets
    /// re-relaxed, re-merged, re-relaxed …).
    fn after_iteration(
        &mut self,
        _runner: &Runner<'_>,
        _next: &mut Vec<NodeId>,
    ) -> (KernelStats, bool) {
        (KernelStats::default(), false)
    }
}

/// Scratch structure compacting raw activation lists into sorted, deduped
/// frontiers. Sparse lists (at most 1/16 of the slot space) sort in place;
/// denser ones take a bitmap pass — set a bit per activation, then scan
/// the `slots/64` words in order. Both paths emit the identical ascending,
/// unique sequence, so the density cutoff never shows in results; the
/// bitmap just caps compaction at O(n + slots/64) instead of O(n log n)
/// when frontiers grow dense (exactly when pull supersteps fire).
pub struct HybridFrontier {
    bits: Vec<u64>,
    num_slots: usize,
}

impl HybridFrontier {
    /// Scratch for frontiers over `num_slots` processing nodes.
    pub fn new(num_slots: usize) -> Self {
        HybridFrontier {
            bits: vec![0u64; num_slots.div_ceil(64)],
            num_slots,
        }
    }

    /// Sorts and dedups `raw` in place. Reusable: the bitmap is left
    /// all-zero after every call.
    pub fn compact(&mut self, raw: &mut Vec<NodeId>) {
        if raw.len() <= self.num_slots / 16 {
            raw.sort_unstable();
            raw.dedup();
            return;
        }
        for &v in raw.iter() {
            self.bits[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        raw.clear();
        for (wi, word) in self.bits.iter_mut().enumerate() {
            let mut b = *word;
            *word = 0;
            while b != 0 {
                raw.push(((wi as u32) << 6) | b.trailing_zeros());
                b &= b - 1;
            }
        }
    }
}

/// Precomputed per-plan execution state (tile residency masks and tile
/// processing assignments).
pub struct Runner<'a> {
    pub plan: &'a Plan,
    tile_masks: Vec<Vec<bool>>,
    tile_nodes: Vec<Vec<NodeId>>,
    /// Tile index of each processing node (`u32::MAX` = untiled).
    tile_of: Vec<u32>,
    /// Warp pricings of this run's launches, all made under `plan.cfg`. A
    /// topology-driven run records the same traces iteration after
    /// iteration; each distinct warp is replayed once.
    memo: ReplayMemo,
}

/// Test access to the memo of the runners an algorithm builds for itself:
/// which table they get, and what it had counted when they were dropped.
#[cfg(test)]
pub(crate) mod memo_probe {
    use graffix_sim::MemoCounts;
    use std::cell::{Cell, RefCell};

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum MemoShape {
        /// Sized from the plan, as outside tests.
        Plan,
        /// One probe window: every insert past the sixteenth evicts.
        OneWindow,
        /// No table: every warp is replayed.
        Bypass,
    }

    thread_local! {
        static SHAPE: Cell<MemoShape> = const { Cell::new(MemoShape::Plan) };
        static DROPPED: RefCell<Vec<MemoCounts>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn shape() -> MemoShape {
        SHAPE.with(Cell::get)
    }

    pub(super) fn dropped(counts: MemoCounts) {
        DROPPED.with(|d| d.borrow_mut().push(counts));
    }

    /// Runs `f` with the runners this thread builds in `shape`; returns its
    /// result and the final memo counts of each runner it dropped.
    pub(crate) fn with<R>(shape: MemoShape, f: impl FnOnce() -> R) -> (R, Vec<MemoCounts>) {
        let before = SHAPE.with(|s| s.replace(shape));
        DROPPED.with(|d| d.borrow_mut().clear());
        let out = f();
        SHAPE.with(|s| s.set(before));
        (out, DROPPED.with(|d| std::mem::take(&mut *d.borrow_mut())))
    }
}

#[cfg(test)]
impl Drop for Runner<'_> {
    fn drop(&mut self) {
        memo_probe::dropped(self.memo_counts());
    }
}

impl<'a> Runner<'a> {
    /// Prepares runtime state for `plan`. Small tiles are *packed* into
    /// shared superblocks (up to four warps of nodes each, capacity
    /// permitting): a thread block's shared memory can host several small
    /// tiles at once, and packing keeps warps full instead of fragmenting
    /// the launch into under-populated blocks.
    pub fn new(plan: &'a Plan) -> Self {
        let mut tile_masks: Vec<Vec<bool>> = Vec::new();
        let mut tile_nodes: Vec<Vec<NodeId>> = Vec::new();
        let mut tile_of = vec![u32::MAX; plan.graph.num_nodes()];
        let target = plan.cfg.warp_size * 4;
        let capacity_nodes = plan.cfg.shared_mem_words / 4;
        for tile in &plan.tiles {
            let nodes = plan.tile_processing_nodes(tile);
            let start_new = match tile_nodes.last() {
                None => true,
                Some(last) => last.len() >= target || last.len() + nodes.len() > capacity_nodes,
            };
            if start_new {
                tile_masks.push(vec![false; plan.attr_len]);
                tile_nodes.push(Vec::new());
            }
            let sb = tile_nodes.len() - 1;
            for &a in &tile.nodes {
                tile_masks[sb][a as usize] = true;
            }
            for &v in &nodes {
                tile_of[v as usize] = sb as u32;
            }
            tile_nodes.last_mut().unwrap().extend_from_slice(&nodes);
        }
        // Sized by the warps of a full-assignment launch: a topology
        // iteration is one or two such launches over fixed traces, and a
        // frontier run, whose warps rarely repeat, needs no more.
        let memo = ReplayMemo::for_launch(plan.assignment.len().div_ceil(plan.cfg.warp_size));
        #[cfg(test)]
        let memo = match memo_probe::shape() {
            memo_probe::MemoShape::Plan => memo,
            memo_probe::MemoShape::OneWindow => ReplayMemo::for_launch(0),
            memo_probe::MemoShape::Bypass => ReplayMemo::none(),
        };
        Runner {
            plan,
            tile_masks,
            tile_nodes,
            tile_of,
            memo,
        }
    }

    /// What the run's replay memo has done so far. Host-side bookkeeping:
    /// the counts depend on how warps were scheduled and belong in no
    /// deterministic output.
    pub fn memo_counts(&self) -> MemoCounts {
        self.memo.counts()
    }

    /// The launch seam: the one place a kernel launch reaches the executor,
    /// is priced for what the executor cannot see, and enters the trace.
    /// `blocks` is the launch's layout; everything charged or counted here
    /// is read off it:
    ///
    /// * a [`Residency::Segment`] block is one segment of a segment-major
    ///   launch (DESIGN.md §12) — processed, or, when its routing buffer is
    ///   empty, skipped outright (it contributes no warp);
    /// * a [`Residency::Tile`] block of a superstep stages its subgraph
    ///   into shared memory before it runs and writes it back after. The
    ///   rounds of a tile phase are not charged: the model keeps a tile
    ///   resident from one round to the next.
    ///
    /// The snapshot is taken at the barrier — `run_blocks` has merged all
    /// chunk results — so it is thread-count independent, and the counters
    /// land in the stats *before* it so per-launch snapshots still sum to
    /// run totals (the observability invariant).
    fn launch_blocks<F>(
        &self,
        phase: Phase,
        label: &str,
        blocks: &[Block<'_>],
        kernel: F,
    ) -> SuperstepOutcome
    where
        F: Fn(NodeId, &mut Lane) -> bool + Sync,
    {
        let plan = self.plan;
        let mut outcome = run_blocks(&plan.cfg, &self.memo, blocks, kernel);
        let stats = &mut outcome.stats;
        let mut staged_words = 0u64;
        for block in blocks {
            match block.residency {
                Residency::Global => {}
                Residency::Segment { .. } if block.assignment.is_empty() => {
                    stats.segments_skipped += 1
                }
                Residency::Segment { .. } => stats.segments_processed += 1,
                // The block's CSR slice (offset + edges per node) plus
                // attribute words per resident node.
                Residency::Tile(_) if phase == Phase::Launch => {
                    let nodes = block.assignment;
                    let edge_words: usize = nodes.iter().map(|&v| plan.graph.degree(v)).sum();
                    staged_words += (edge_words + 3 * nodes.len()) as u64;
                }
                Residency::Tile(_) => {}
            }
        }
        if stats.segments_processed + stats.segments_skipped > 0 {
            plan.trace
                .add_counter(phase, "segments-processed", stats.segments_processed);
            plan.trace
                .add_counter(phase, "segments-skipped", stats.segments_skipped);
        }
        if staged_words > 0 {
            // Metered load + writeback: fully coalesced bulk transfers.
            let tx = 2 * staged_words.div_ceil(plan.cfg.segment_words);
            stats.global_transactions += tx;
            let cycles = plan.cfg.lat_global * tx;
            stats.warp_cycles += cycles;
            // Keep the exact component partition intact: staging is global
            // traffic, so its cycles land in the global bucket.
            stats.global_cycles += cycles;
        }
        plan.trace.snapshot(phase, label, stats);
        outcome
    }

    /// Runs one superstep over `assignment`, laid out in the blocks the
    /// plan calls for — the only code that turns an assignment into blocks.
    /// Nodes of a shared-memory tile run in that tile's block (their tile-
    /// resident attribute accesses cost shared latency); the rest runs as
    /// one global block, or, when the plan carries a
    /// [`Segmentation`](graffix_graph::Segmentation), as one block per
    /// segment in ascending segment order, each with its node range as an
    /// L2 residency window — all folded into a **single** kernel launch.
    ///
    /// Values are byte-identical across layouts at any thread count and
    /// segment size: re-grouping the same kernel invocations into blocks is
    /// just another schedule, and the engine's determinism contract
    /// (commutative folds, snapshot reads, order-independent stat sums,
    /// compacted frontiers) is schedule-independent. Only the pricing
    /// moves.
    pub fn launch<F>(&self, assignment: &[NodeId], kernel: F) -> SuperstepOutcome
    where
        F: Fn(NodeId, &mut Lane) -> bool + Sync,
    {
        let plan = self.plan;
        if plan.tiles.is_empty() && plan.segments.is_none() {
            // The flat launch borrows the caller's slice as it stands.
            return self.launch_blocks(Phase::Launch, "superstep", &[global(assignment)], kernel);
        }
        // Tile groups first. Idle slots (`INVALID_NODE` lies past the end
        // of `tile_of`) stay with the untiled rest, where they keep their
        // place in the warp layout.
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); self.tile_nodes.len()];
        let mut untiled: Vec<NodeId> = Vec::new();
        let rest: &[NodeId] = if plan.tiles.is_empty() {
            assignment
        } else {
            for &v in assignment {
                match self.tile_of.get(v as usize) {
                    Some(&tile) if tile != u32::MAX => groups[tile as usize].push(v),
                    _ => untiled.push(v),
                }
            }
            &untiled
        };
        let routed = plan
            .segments
            .as_deref()
            .map(|segs| (segs.segments(), segs.route(rest)));
        let mut blocks: Vec<Block<'_>> = groups
            .iter()
            .zip(&self.tile_masks)
            .filter(|(group, _)| !group.is_empty())
            .map(|(group, mask)| Block {
                assignment: group,
                residency: Residency::Tile(mask),
            })
            .collect();
        match &routed {
            Some((segments, buffers)) => {
                blocks.extend(segments.iter().zip(buffers).map(|(seg, nodes)| Block {
                    assignment: nodes,
                    residency: Residency::Segment {
                        lo: seg.start as u64,
                        hi: seg.end as u64,
                    },
                }))
            }
            None => blocks.push(global(rest)),
        }
        let label = if plan.tiles.is_empty() {
            "segmented-superstep"
        } else {
            "tiled-superstep"
        };
        self.launch_blocks(Phase::Launch, label, &blocks, kernel)
    }

    /// One superstep driving a [`VertexProgram`]'s kernel.
    pub fn run_program<P: VertexProgram>(
        &self,
        assignment: &[NodeId],
        prog: &P,
    ) -> SuperstepOutcome {
        self.launch(assignment, |v, lane| prog.process(v, lane))
    }

    /// One pull (gather) superstep over the full assignment. Pull runs
    /// as one global block on purpose: tile residency masks describe
    /// push-CSR locality, so pricing gather traffic through them would
    /// undercharge — the plain global-memory superstep is the conservative
    /// model.
    pub fn run_pull_program<P: VertexProgram>(&self, prog: &P) -> SuperstepOutcome {
        self.launch_blocks(
            Phase::Launch,
            "pull-superstep",
            &[global(&self.plan.assignment)],
            |v, lane| prog.process_pull(v, lane),
        )
    }

    /// [`Direction::Auto`] pulls when the frontier's out-edge mass `mf`
    /// satisfies `mf × PULL_ALPHA > |E|` — i.e. the frontier covers more
    /// than `1 / PULL_ALPHA` of the edges, so gathering over the CSC beats
    /// scattering atomics.
    ///
    /// `PULL_ALPHA` is the assumed per-arc cost ratio `c_push / c_pull`.
    /// Beamer's published BFS value is 14, but that assumes a pull kernel
    /// that early-exits on the first discovered parent; our SSSP/PageRank
    /// pull supersteps are *full gathers* (cost proportional to all of
    /// `|E|`, with no early exit). A pushed arc pays a scattered atomic —
    /// a read-modify-write worth two global transactions plus collision
    /// serialization — while a gathered arc pays a scattered plain read,
    /// so `c_push / c_pull ≈ 2` and pull pays off once `mf` exceeds
    /// roughly half of `|E|`.
    const PULL_ALPHA: f64 = 2.0;

    /// Never pull while the frontier holds fewer than `|V| / PULL_BETA`
    /// nodes (most gather candidates would find no active in-neighbor).
    /// Beamer's default of 24 is kept — it is a guard, not a crossover, and
    /// tiny frontiers are firmly push territory under any cost model.
    const PULL_BETA: f64 = 24.0;

    /// Decides push vs pull for the coming superstep and records the
    /// decision (plus, under [`Direction::Auto`], the frontier's out-edge
    /// mass) in the trace. A pure function of host-owned data — the same
    /// sequence of directions at any thread count.
    fn choose_pull<P: VertexProgram>(&self, prog: &P, frontier: &[NodeId]) -> bool {
        let pull = prog.supports_pull()
            && match self.plan.direction {
                Direction::Push => false,
                Direction::Pull => true,
                Direction::Auto => {
                    let mf: u64 = frontier
                        .iter()
                        .map(|&v| self.plan.graph.degree(v) as u64)
                        .sum();
                    self.plan
                        .trace
                        .push_series(Phase::ActivationMerge, "frontier-mass", mf as f64);
                    // Pull only when the frontier is populous (beta guard)
                    // AND its out-edge mass crosses the full-gather
                    // break-even |E| / PULL_ALPHA.
                    frontier.len() as f64 * Self::PULL_BETA >= self.plan.graph.num_nodes() as f64
                        && mf as f64 * Self::PULL_ALPHA > self.plan.graph.num_edges() as f64
                }
            };
        self.plan.trace.push_series(
            Phase::ActivationMerge,
            "direction",
            if pull { 1.0 } else { 0.0 },
        );
        pull
    }

    /// Runs the shared-memory tile phase (§3) as a sequence of
    /// block-structured launches: round `r` launches every tile that still
    /// has inner iterations left (and reported changes), one block per tile
    /// — a single kernel launch per round, as on a real GPU. The program's
    /// [`VertexProgram::end_tile_round`] hook runs between rounds so
    /// double-buffered state cascades.
    pub fn tile_phase<P: VertexProgram>(&self, prog: &mut P) -> (KernelStats, bool) {
        self.tile_phase_capped(prog, usize::MAX)
    }

    /// [`Runner::tile_phase`] with the round count additionally capped —
    /// iterative algorithms run the full `t` rounds on their first outer
    /// iteration (the §3 reuse) and a single refresh round afterwards.
    pub fn tile_phase_capped<P: VertexProgram>(
        &self,
        prog: &mut P,
        cap: usize,
    ) -> (KernelStats, bool) {
        let mut stats = KernelStats::default();
        let mut changed = false;
        if self.plan.tiles.is_empty() {
            return (stats, changed);
        }
        let max_rounds = self
            .plan
            .tiles
            .iter()
            .map(|t| t.iterations)
            .max()
            .unwrap_or(0)
            .min(cap);
        let blocks: Vec<Block<'_>> = self
            .tile_nodes
            .iter()
            .zip(&self.tile_masks)
            .map(|(nodes, mask)| Block {
                assignment: nodes,
                residency: Residency::Tile(mask),
            })
            .collect();
        self.plan.trace.span_enter(Phase::TilePhase, "tile-phase");
        for _round in 0..max_rounds {
            // One launch covers every live tile this round. Change
            // detection is launch-granular (per-tile convergence would need
            // device-side flags, which real implementations also avoid).
            let p: &P = prog;
            let outcome = self.launch_blocks(Phase::TilePhase, "tile-round", &blocks, |v, lane| {
                p.process(v, lane)
            });
            self.plan.trace.add_counter(Phase::TilePhase, "rounds", 1);
            stats += outcome.stats;
            changed |= outcome.changed;
            prog.end_tile_round();
            if !outcome.changed {
                break;
            }
        }
        self.plan.trace.span_exit();
        (stats, changed)
    }

    /// Topology-driven fixpoint: tile phase (when tiles exist and the
    /// program opts in) followed by a global superstep over the full
    /// assignment, then the program's `after_iteration` hook. The first
    /// iteration runs the full tile-round budget (the §3 reuse); later
    /// iterations take a single refresh round.
    pub fn fixpoint<P: VertexProgram>(
        &self,
        max_iters: usize,
        prog: &mut P,
    ) -> (KernelStats, usize) {
        let mut stats = KernelStats::default();
        let mut iters = 0usize;
        self.plan.trace.span_enter(Phase::Run, "fixpoint");
        for iter in 0..max_iters {
            self.plan
                .trace
                .span_enter(Phase::Iteration, &format!("iteration-{iter}"));
            prog.begin_iteration(iter);
            let mut changed = false;
            if !self.plan.tiles.is_empty() && prog.tile_rounds() {
                let cap = if iter == 0 { usize::MAX } else { 1 };
                let (tile_stats, tile_changed) = self.tile_phase_capped(prog, cap);
                stats += tile_stats;
                changed |= tile_changed;
            }
            let outcome = self.run_program(&self.plan.assignment, prog);
            stats += outcome.stats;
            changed |= outcome.changed;
            let mut extra = Vec::new();
            // Hook stats are composed of launches the runner already
            // snapshotted (the hook calls back into runner methods), so
            // they are NOT snapshotted again here — each launch must enter
            // the trace exactly once.
            let (hook_stats, stop) = prog.after_iteration(self, &mut extra);
            stats += hook_stats;
            iters = iter + 1;
            self.plan.trace.span_exit();
            if !changed || stop {
                break;
            }
        }
        self.plan.trace.span_exit();
        self.plan
            .trace
            .set_gauge(Phase::Run, "fixpoint-iterations", iters as f64);
        (stats, iters)
    }

    /// Frontier-driven loop (Gunrock style): processes the current
    /// frontier, collects the kernel's [`Lane::activate`] requests (in
    /// deterministic assignment order), lets the program's hook push extra
    /// nodes (e.g. replica activations), dedups, meters a filter pass under
    /// [`Strategy::Frontier`] plans, and repeats until the frontier drains
    /// or `max_iters` is reached.
    pub fn frontier_loop<P: VertexProgram>(
        &self,
        init: Vec<NodeId>,
        max_iters: usize,
        prog: &mut P,
    ) -> (KernelStats, usize) {
        let mut stats = KernelStats::default();
        let mut frontier = init;
        let mut iters = 0usize;
        let mut scratch = HybridFrontier::new(self.plan.graph.num_nodes());
        self.plan.trace.span_enter(Phase::Run, "frontier-loop");
        for iter in 0..max_iters {
            if frontier.is_empty() {
                break;
            }
            iters = iter + 1;
            self.plan
                .trace
                .span_enter(Phase::Iteration, &format!("iteration-{iter}"));
            self.plan.trace.push_series(
                Phase::ActivationMerge,
                "frontier-size",
                frontier.len() as f64,
            );
            prog.begin_iteration(iter);
            prog.begin_superstep(&frontier);
            let outcome = if self.choose_pull(prog, &frontier) {
                self.run_pull_program(prog)
            } else {
                self.run_program(&frontier, prog)
            };
            stats += outcome.stats;
            let mut next = outcome.activated;
            // Hook stats are already-snapshotted launches; see `fixpoint`.
            let (hook_stats, stop) = prog.after_iteration(self, &mut next);
            stats += hook_stats;
            // Filter pass: dedup/compact the frontier. Metered as one flag
            // read + one compacted write per surviving element, mirroring
            // Gunrock's filter operator. Topology-style plans reusing this
            // loop (e.g. level-synchronous phases) skip the filter cost.
            //
            // Only the deduplicated count enters the trace: how many lanes
            // see an accumulator cross its threshold (and so activate the
            // same node) depends on how their atomic adds interleave; which
            // nodes get activated does not.
            scratch.compact(&mut next);
            self.plan.trace.push_series(
                Phase::ActivationMerge,
                "activations-deduped",
                next.len() as f64,
            );
            if self.plan.strategy == Strategy::Frontier && !next.is_empty() {
                let filter = self.launch_blocks(
                    Phase::ActivationMerge,
                    "frontier-filter",
                    &[global(&next)],
                    |v, lane| {
                        lane.read(ArrayId::FRONTIER, v as usize);
                        lane.write(ArrayId::WORKLIST, v as usize);
                        false
                    },
                );
                stats += filter.stats;
            }
            frontier = next;
            self.plan.trace.span_exit();
            if stop {
                break;
            }
        }
        self.plan.trace.span_exit();
        self.plan
            .trace
            .set_gauge(Phase::Run, "frontier-iterations", iters as f64);
        (stats, iters)
    }

    /// Metered confluence over the plan's replica groups; returns the
    /// kernel cost and the attribute slots whose value changed (so frontier
    /// algorithms can re-activate them).
    pub fn confluence(&self, attrs: &mut [f64]) -> (KernelStats, Vec<NodeId>) {
        if self.plan.replica_groups.is_empty() {
            return (KernelStats::default(), Vec::new());
        }
        let before: Vec<(NodeId, f64)> = self
            .plan
            .replica_groups
            .iter()
            .flat_map(|(_, members)| members.iter().map(|&m| (m, attrs[m as usize])))
            .collect();
        let stats = confluence::merge_metered(
            &self.plan.cfg,
            &self.plan.replica_groups,
            self.plan.confluence,
            attrs,
        );
        let changed: Vec<NodeId> = before
            .into_iter()
            .filter(|&(m, v)| {
                let now = attrs[m as usize];
                now != v && !(now.is_nan() && v.is_nan())
            })
            .map(|(m, _)| m)
            .collect();
        self.plan
            .trace
            .snapshot(Phase::ConfluenceMerge, "confluence", &stats);
        self.plan.trace.push_series(
            Phase::ConfluenceMerge,
            "merge-delta-slots",
            changed.len() as f64,
        );
        (stats, changed)
    }

    /// All valid processing nodes (assignment minus idle slots).
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.plan
            .assignment
            .iter()
            .copied()
            .filter(|&v| v != INVALID_NODE)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Strategy};
    use graffix_core::Tile;
    use graffix_graph::GraphBuilder;
    use graffix_sim::{DoubleBuffered, GpuConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn chain_plan(strategy: Strategy) -> Plan {
        let mut b = GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_edge(v, v + 1);
        }
        Plan::exact(&b.build(), &GpuConfig::test_tiny(), strategy)
    }

    /// Distance-like Jacobi propagation used by the fixpoint/frontier
    /// tests: relaxes `dist[w] = min(dist[w], dist[v] + 1)` against the
    /// previous iteration's snapshot.
    struct DistProgram<'p> {
        plan: &'p Plan,
        dist: DoubleBuffered,
        frontier_mode: bool,
    }

    impl VertexProgram for DistProgram<'_> {
        fn process(&self, v: NodeId, lane: &mut Lane) -> bool {
            lane.read(ArrayId::NODE_ATTR, v as usize);
            let d = self.dist.read(v as usize);
            if !d.is_finite() {
                return false;
            }
            let mut changed = false;
            for &w in self.plan.graph.neighbors(v) {
                lane.read(ArrayId::NODE_ATTR, w as usize);
                if d + 1.0 < self.dist.fetch_min_next(w as usize, d + 1.0) {
                    lane.atomic(ArrayId::NODE_ATTR, w as usize);
                    if self.frontier_mode {
                        lane.activate(w);
                    }
                    changed = true;
                }
            }
            changed
        }

        fn end_tile_round(&mut self) {
            self.dist.commit();
        }

        fn after_iteration(
            &mut self,
            _runner: &Runner<'_>,
            _next: &mut Vec<NodeId>,
        ) -> (KernelStats, bool) {
            self.dist.commit();
            (KernelStats::default(), false)
        }
    }

    fn dist_program(plan: &Plan, frontier_mode: bool) -> DistProgram<'_> {
        let mut init = vec![f64::INFINITY; plan.graph.num_nodes()];
        init[0] = 0.0;
        DistProgram {
            plan,
            dist: DoubleBuffered::new(init),
            frontier_mode,
        }
    }

    #[test]
    fn fixpoint_converges() {
        let plan = chain_plan(Strategy::Topology);
        let runner = Runner::new(&plan);
        // Distance-like propagation along a 6-chain needs 5 passes + 1.
        let mut prog = dist_program(&plan, false);
        let (stats, iters) = runner.fixpoint(100, &mut prog);
        assert_eq!(prog.dist.read(5), 5.0);
        assert!((2..=7).contains(&iters));
        assert!(stats.warp_cycles > 0);
    }

    #[test]
    fn frontier_drains() {
        let plan = chain_plan(Strategy::Frontier);
        let runner = Runner::new(&plan);
        let mut prog = dist_program(&plan, true);
        let (stats, iters) = runner.frontier_loop(vec![0], 100, &mut prog);
        assert_eq!(prog.dist.read(5), 5.0);
        assert_eq!(iters, 6); // node 5 activates once more with no outputs
        assert!(stats.launches >= 6);
    }

    /// Counts kernel invocations and reports "changed" a fixed number of
    /// times — exercises the tile phase's round/convergence structure.
    struct CountingProgram {
        hits: AtomicUsize,
        budget: AtomicUsize,
    }

    impl VertexProgram for CountingProgram {
        fn process(&self, _v: NodeId, lane: &mut Lane) -> bool {
            lane.read(ArrayId::NODE_ATTR, 0);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok()
        }
    }

    #[test]
    fn tile_phase_runs_inner_iterations() {
        let mut plan = chain_plan(Strategy::Topology);
        plan.tiles = vec![Tile {
            center: 1,
            nodes: vec![0, 1, 2],
            iterations: 3,
        }];
        let runner = Runner::new(&plan);
        let mut prog = CountingProgram {
            hits: AtomicUsize::new(0),
            budget: AtomicUsize::new(2), // report change twice, then stable
        };
        let (stats, _) = runner.tile_phase(&mut prog);
        // Inner loop stops early once stable: 3 nodes x at most 3 rounds.
        let hits = prog.hits.load(Ordering::Relaxed);
        assert!((6..=9).contains(&hits), "hits = {hits}");
        assert!(stats.shared_accesses > 0, "tile accesses must be shared");
    }

    #[test]
    fn confluence_reports_changes() {
        let mut plan = chain_plan(Strategy::Topology);
        plan.replica_groups = vec![(0, vec![0, 1])];
        let runner = Runner::new(&plan);
        let mut attrs = vec![2.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        let (stats, changed) = runner.confluence(&mut attrs);
        assert_eq!(attrs[0], 3.0);
        assert_eq!(attrs[1], 3.0);
        assert_eq!(changed, vec![0, 1]);
        assert!(stats.global_accesses > 0);
    }

    #[test]
    fn hybrid_frontier_dense_path_matches_sort_dedup() {
        // 40 activations over 64 slots forces the bitmap path (> 64/16).
        let mut raw: Vec<NodeId> = (0..40u32).map(|i| (i * 37 + 5) % 64).collect();
        raw.extend_from_slice(&[63, 0, 17, 17, 17]);
        let mut expect = raw.clone();
        expect.sort_unstable();
        expect.dedup();
        let mut scratch = HybridFrontier::new(64);
        scratch.compact(&mut raw);
        assert_eq!(raw, expect);
        assert!(scratch.bits.iter().all(|&w| w == 0), "bitmap left dirty");
        // Reuse with a sparse list takes the sort path, same contract.
        let mut sparse = vec![9u32, 3, 9];
        scratch.compact(&mut sparse);
        assert_eq!(sparse, vec![3, 9]);
    }

    #[test]
    fn hybrid_frontier_handles_word_boundaries() {
        let mut scratch = HybridFrontier::new(130);
        let mut raw: Vec<NodeId> = (0..130u32).rev().collect();
        scratch.compact(&mut raw);
        assert_eq!(raw, (0..130u32).collect::<Vec<_>>());
    }

    #[test]
    fn confluence_noop_without_groups() {
        let plan = chain_plan(Strategy::Topology);
        let runner = Runner::new(&plan);
        let mut attrs = vec![1.0; 6];
        let (stats, changed) = runner.confluence(&mut attrs);
        assert_eq!(stats, KernelStats::default());
        assert!(changed.is_empty());
    }

    #[test]
    fn segmented_fixpoint_matches_flat_values() {
        use graffix_graph::Segmentation;
        use std::sync::Arc;
        let plan_flat = chain_plan(Strategy::Topology);
        // 6-node chain at 20 bytes/node -> 40-byte budget = 3 segments.
        let seg = Arc::new(Segmentation::build(&plan_flat.graph, 40));
        assert_eq!(seg.len(), 3);
        let plan_seg = plan_flat.clone().with_segments(seg);
        let runner_flat = Runner::new(&plan_flat);
        let runner_seg = Runner::new(&plan_seg);
        let mut prog_flat = dist_program(&plan_flat, false);
        let mut prog_seg = dist_program(&plan_seg, false);
        let (stats_flat, iters_flat) = runner_flat.fixpoint(100, &mut prog_flat);
        let (stats_seg, iters_seg) = runner_seg.fixpoint(100, &mut prog_seg);
        assert_eq!(iters_flat, iters_seg);
        for v in 0..6 {
            assert_eq!(prog_flat.dist.read(v), prog_seg.dist.read(v));
        }
        // One launch per superstep either way — segment blocks fold into a
        // single launch.
        assert_eq!(stats_flat.launches, stats_seg.launches);
        assert!(stats_seg.segments_processed > 0);
        assert!(stats_seg.l2_accesses > 0, "segment spans must price L2");
        assert_eq!(stats_flat.segments_processed, 0);
        assert_eq!(stats_flat.l2_accesses, 0);
    }

    #[test]
    fn segmented_frontier_skips_empty_segments() {
        use graffix_graph::Segmentation;
        use std::sync::Arc;
        let flat = chain_plan(Strategy::Frontier);
        let seg = Arc::new(Segmentation::build(&flat.graph, 40));
        let plan = flat.clone().with_segments(seg);
        let runner = Runner::new(&plan);
        let mut prog = dist_program(&plan, true);
        let (stats, iters) = runner.frontier_loop(vec![0], 100, &mut prog);
        assert_eq!(prog.dist.read(5), 5.0);
        assert_eq!(iters, 6);
        // Early waves touch only the first segment; the other two are
        // skipped without any replay work.
        assert!(stats.segments_skipped > 0, "skips: {stats:?}");
        assert!(stats.segments_processed > 0);
    }

    #[test]
    fn segmented_run_is_thread_count_independent() {
        use graffix_graph::Segmentation;
        use std::sync::Arc;
        let flat = chain_plan(Strategy::Frontier);
        let seg = Arc::new(Segmentation::build(&flat.graph, 40));
        let plan = flat.clone().with_segments(seg);
        let run = || {
            let runner = Runner::new(&plan);
            let mut prog = dist_program(&plan, true);
            let (stats, iters) = runner.frontier_loop(vec![0], 100, &mut prog);
            let dists: Vec<f64> = (0..6).map(|v| prog.dist.read(v)).collect();
            (stats, iters, dists)
        };
        let mut outcomes = Vec::new();
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outcomes.push(pool.install(run));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }
}
