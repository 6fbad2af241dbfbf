//! Superstep executor: partitions a vertex assignment into warps, runs the
//! vertex program per lane (functionally, while recording traces), then
//! replays each warp in lockstep for cost accounting.
//!
//! Warps are executed **in parallel** on the host: the kernel contract is
//! `Fn(NodeId, &mut Lane) -> bool + Sync`, so a kernel may only touch shared
//! state through interior mutability (see [`crate::attrs`] for the
//! commutative atomic arrays vertex programs use). Determinism at any
//! thread count follows from two properties:
//!
//! 1. Each warp's trace depends only on the kernel and its own vertices
//!    (kernels read snapshots / fold through commutative atomics), so warp
//!    replay costs are schedule-independent.
//! 2. The per-warp [`KernelStats`] are reduced with plain `u64` sums and
//!    the `changed` / activation outputs are merged in warp order, both of
//!    which are independent of which thread ran which warp.

use crate::config::GpuConfig;
use crate::lane::{Lane, Residency};
use crate::memo::ReplayMemo;
use crate::stats::KernelStats;
use crate::warp::{replay_lanes, ReplayScratch};
use graffix_graph::{NodeId, INVALID_NODE};
use rayon::prelude::*;

/// Description of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct Superstep<'a> {
    /// Vertices in warp order: consecutive entries share a warp, so the
    /// *ordering* is part of the experiment (renumbering changes it).
    /// `INVALID_NODE` entries are empty slots (e.g. unfilled holes).
    pub assignment: &'a [NodeId],
    /// Shared-memory residency mask over node ids (None = nothing tiled).
    pub resident: Option<&'a [bool]>,
}

/// Result of one kernel launch.
#[derive(Clone, Debug, Default)]
pub struct SuperstepOutcome {
    pub stats: KernelStats,
    /// Whether any lane reported an update (fixpoint detection).
    pub changed: bool,
    /// Vertices activated via [`Lane::activate`], in assignment order
    /// (deterministic regardless of which thread ran which warp).
    pub activated: Vec<NodeId>,
}

/// Runs one superstep. The kernel receives each assigned vertex and its
/// [`Lane`]; it must mirror every memory access it performs and return
/// whether it changed any state. A launch on its own: every warp is
/// replayed (a run's launches share the run's [`ReplayMemo`] instead).
pub fn run_superstep<F>(cfg: &GpuConfig, step: Superstep<'_>, kernel: F) -> SuperstepOutcome
where
    F: Fn(NodeId, &mut Lane) -> bool + Sync,
{
    run_blocks(
        cfg,
        &ReplayMemo::none(),
        &[Block {
            assignment: step.assignment,
            residency: step.resident.map_or(Residency::Global, Residency::Tile),
        }],
        kernel,
    )
}

/// One thread block of a block-structured launch: its vertex assignment
/// and what the block keeps resident while it runs (a Graffix tile in
/// shared memory, a segment's window in L2, or nothing).
#[derive(Clone, Copy, Debug)]
pub struct Block<'a> {
    pub assignment: &'a [NodeId],
    pub residency: Residency<'a>,
}

/// Per-chunk partial result of the parallel warp sweep.
struct WarpChunkResult {
    stats: KernelStats,
    changed: bool,
    activated: Vec<NodeId>,
}

/// Runs many blocks as **one** kernel launch (one launch overhead total):
/// the GPU schedules one block per shared-memory tile, so processing all
/// tiles is a single launch, not one launch per tile.
///
/// Warps are distributed over the host thread pool (`rayon`); every counter
/// in the reduced [`KernelStats`] is an order-independent `u64` sum, so the
/// outcome is byte-identical at any thread count. A warp whose traces
/// `memo` has priced before — under this `cfg`, which is the caller's
/// promise — is not replayed again; what it adds to the stats is the same.
pub fn run_blocks<F>(
    cfg: &GpuConfig,
    memo: &ReplayMemo,
    blocks: &[Block<'_>],
    kernel: F,
) -> SuperstepOutcome
where
    F: Fn(NodeId, &mut Lane) -> bool + Sync,
{
    // Flatten the launch into per-warp work items (warp slice + its
    // block's residency).
    let warps: Vec<(&[NodeId], Residency<'_>)> = blocks
        .iter()
        .flat_map(|b| {
            b.assignment
                .chunks(cfg.warp_size)
                .map(move |w| (w, b.residency))
        })
        .collect();

    let threads = rayon::current_num_threads();
    let chunk = warps.len().div_ceil(threads * 8).max(1);
    let partials: Vec<WarpChunkResult> = warps
        .par_chunks(chunk)
        .map(|ws| {
            let mut out = WarpChunkResult {
                stats: KernelStats::default(),
                changed: false,
                activated: Vec::new(),
            };
            let mut lanes: Vec<Lane<'_>> = (0..cfg.warp_size).map(|_| Lane::new()).collect();
            let mut scratch = ReplayScratch::default();
            for &(warp_nodes, residency) in ws {
                let lanes = &mut lanes[..warp_nodes.len()];
                for (lane, &v) in lanes.iter_mut().zip(warp_nodes) {
                    lane.reset();
                    lane.set_residency(residency);
                    if v != INVALID_NODE {
                        out.changed |= kernel(v, lane);
                    }
                }
                memo.price(lanes.iter().map(Lane::trace), &mut out.stats, |delta| {
                    replay_lanes(cfg, &mut scratch, lanes.len(), |i| lanes[i].trace(), delta)
                });
                for lane in lanes.iter_mut() {
                    out.activated.extend(lane.drain_activations());
                }
            }
            out
        })
        .collect();

    let mut outcome = SuperstepOutcome {
        stats: KernelStats {
            launches: 1,
            ..Default::default()
        },
        changed: false,
        activated: Vec::new(),
    };
    for partial in partials {
        outcome.stats += partial.stats;
        outcome.changed |= partial.changed;
        outcome.activated.extend(partial.activated);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArrayId;

    fn tiny() -> GpuConfig {
        GpuConfig::test_tiny()
    }

    #[test]
    fn assignment_order_controls_warp_grouping() {
        // 8 vertices, warp size 4. With ids in order, lanes read
        // consecutive attr slots -> coalesced (2 transactions total).
        let cfg = tiny();
        let ordered: Vec<NodeId> = (0..8).collect();
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &ordered,
                resident: None,
            },
            |v, lane| {
                lane.read(ArrayId::NODE_ATTR, v as usize);
                false
            },
        );
        assert_eq!(out.stats.global_transactions, 2);

        // Widely spaced ids scatter each warp over distinct segments.
        let scattered: Vec<NodeId> = vec![0, 8, 16, 24, 4, 12, 20, 28];
        let out2 = run_superstep(
            &cfg,
            Superstep {
                assignment: &scattered,
                resident: None,
            },
            |v, lane| {
                lane.read(ArrayId::NODE_ATTR, v as usize);
                false
            },
        );
        assert!(out2.stats.global_transactions > out.stats.global_transactions);
    }

    #[test]
    fn invalid_slots_idle() {
        let cfg = tiny();
        let assignment = vec![0, INVALID_NODE, INVALID_NODE, INVALID_NODE];
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &assignment,
                resident: None,
            },
            |v, lane| {
                lane.read(ArrayId::NODE_ATTR, v as usize);
                false
            },
        );
        assert_eq!(out.stats.divergent_slots, 3);
        assert_eq!(out.stats.global_transactions, 1);
    }

    #[test]
    fn changed_flag_propagates() {
        let cfg = tiny();
        let assignment = vec![0, 1];
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &assignment,
                resident: None,
            },
            |v, _| v == 1,
        );
        assert!(out.changed);
        let out2 = run_superstep(
            &cfg,
            Superstep {
                assignment: &assignment,
                resident: None,
            },
            |_, _| false,
        );
        assert!(!out2.changed);
    }

    #[test]
    fn resident_mask_reaches_lanes() {
        let cfg = tiny();
        let resident = vec![true, false];
        let assignment = vec![0, 1];
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &assignment,
                resident: Some(&resident),
            },
            |v, lane| {
                lane.read(ArrayId::NODE_ATTR, v as usize);
                false
            },
        );
        assert_eq!(out.stats.shared_accesses, 1);
        assert_eq!(out.stats.global_accesses, 1);
    }

    #[test]
    fn empty_assignment_is_free_except_launch() {
        let cfg = tiny();
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &[],
                resident: None,
            },
            |_, _| true,
        );
        assert_eq!(out.stats.warp_cycles, 0);
        assert!(!out.changed);
        assert_eq!(out.stats.launches, 1);
    }

    #[test]
    fn warps_that_record_nothing_cost_a_launch_and_no_memo_entry() {
        let cfg = tiny();
        let memo = ReplayMemo::for_launch(16);
        let assignment: Vec<NodeId> = (0..64).collect();
        let blocks = [Block {
            assignment: &assignment,
            residency: Residency::Global,
        }];
        let out = run_blocks(&cfg, &memo, &blocks, |v, lane| {
            lane.activate(v);
            v == 63
        });
        assert_eq!(
            out.stats,
            KernelStats {
                launches: 1,
                ..KernelStats::default()
            }
        );
        assert!(out.changed);
        assert_eq!(out.activated, assignment);
        let counts = memo.counts();
        assert_eq!((counts.hits, counts.misses, counts.entries), (0, 0, 0));
    }

    #[test]
    fn a_repeated_launch_is_priced_from_the_memo_with_the_same_stats() {
        let cfg = tiny();
        let assignment: Vec<NodeId> = (0..256).rev().collect();
        let blocks = [Block {
            assignment: &assignment,
            residency: Residency::Global,
        }];
        let launch = |memo: &ReplayMemo| {
            run_blocks(&cfg, memo, &blocks, |v, lane| {
                lane.read(ArrayId::EDGES, v as usize / 3);
                lane.atomic(ArrayId::NODE_ATTR, v as usize % 11);
                lane.compute(v as usize % 4);
                false
            })
            .stats
        };
        let memo = ReplayMemo::for_launch(assignment.len() / cfg.warp_size);
        let replayed = launch(&ReplayMemo::none());
        assert_eq!(launch(&memo), replayed);
        assert_eq!(launch(&memo), replayed);
        let counts = memo.counts();
        assert_eq!((counts.hits, counts.misses, counts.evictions), (64, 64, 0));
    }

    #[test]
    fn activations_arrive_in_assignment_order() {
        let cfg = tiny();
        // Many warps so the parallel path actually distributes work.
        let assignment: Vec<NodeId> = (0..256).collect();
        let out = run_superstep(
            &cfg,
            Superstep {
                assignment: &assignment,
                resident: None,
            },
            |v, lane| {
                lane.read(ArrayId::NODE_ATTR, v as usize);
                if v % 3 == 0 {
                    lane.activate(v + 1000);
                }
                false
            },
        );
        let expected: Vec<NodeId> = (0..256).filter(|v| v % 3 == 0).map(|v| v + 1000).collect();
        assert_eq!(out.activated, expected);
    }

    #[test]
    fn stats_are_identical_at_any_thread_count() {
        let cfg = tiny();
        let assignment: Vec<NodeId> = (0..1024).rev().collect();
        let run = || {
            run_superstep(
                &cfg,
                Superstep {
                    assignment: &assignment,
                    resident: None,
                },
                |v, lane| {
                    lane.read(ArrayId::EDGES, v as usize / 2);
                    lane.atomic(ArrayId::NODE_ATTR, v as usize % 37);
                    lane.compute(v as usize % 5);
                    v % 2 == 0
                },
            )
        };
        let mut outcomes = Vec::new();
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outcomes.push(pool.install(run));
        }
        assert_eq!(outcomes[0].stats, outcomes[1].stats);
        assert_eq!(outcomes[0].stats, outcomes[2].stats);
        assert_eq!(outcomes[0].changed, outcomes[1].changed);
        assert_eq!(outcomes[0].activated, outcomes[2].activated);
    }

    #[test]
    fn skewed_launch_meets_the_closed_form_identities() {
        // One 5 000-event hub leads every 32-lane warp; the other lanes are
        // short, every ninth slot is empty, and the last warp is partial.
        let cfg = GpuConfig::k40c();
        let len_of = |v: NodeId| match v {
            INVALID_NODE => 0,
            v if v % 32 == 0 => 5_000,
            v => v as usize % 7,
        };
        let assignment: Vec<NodeId> = (0..5 * 32 + 11)
            .map(|v| if v % 9 == 4 { INVALID_NODE } else { v })
            .collect();
        let run = || {
            run_superstep(
                &cfg,
                Superstep {
                    assignment: &assignment,
                    resident: None,
                },
                |v, lane| {
                    for i in 0..len_of(v) {
                        match i % 4 {
                            0 => lane.read(ArrayId::EDGES, v as usize * 64 + i),
                            1 => lane.atomic(ArrayId::NODE_ATTR, i % 13),
                            2 => lane.write(ArrayId::NODE_ATTR_AUX, i),
                            _ => lane.compute(1),
                        }
                    }
                    if v % 5 == 0 {
                        lane.activate(v);
                    }
                    v % 32 == 0
                },
            )
        };
        let outcomes: Vec<SuperstepOutcome> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(run)
            })
            .collect();

        let stats = outcomes[0].stats;
        let max_len = |warp: &[NodeId]| warp.iter().map(|&v| len_of(v)).max().unwrap() as u64;
        let steps: u64 = assignment.chunks(32).map(max_len).sum();
        let slots: u64 = assignment
            .chunks(32)
            .map(|warp| warp.len() as u64 * max_len(warp))
            .sum();
        let events: u64 = assignment.iter().map(|&v| len_of(v) as u64).sum();
        assert_eq!(stats.warps, 6);
        assert_eq!(stats.steps, steps);
        // Empty slots sit inside the warp's width, so they idle every step.
        assert_eq!(stats.divergent_slots + events, slots);
        assert_eq!(
            stats.issue_cycles
                + stats.global_cycles
                + stats.l2_cycles
                + stats.shared_cycles
                + stats.atomic_cycles,
            stats.warp_cycles
        );
        assert!(outcomes[0].changed);
        for other in &outcomes[1..] {
            assert_eq!(other.stats, stats);
            assert_eq!(other.changed, outcomes[0].changed);
            assert_eq!(other.activated, outcomes[0].activated);
        }
    }
}
