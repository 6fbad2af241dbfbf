//! Segment-granular memoized segmentation.
//!
//! [`graffix_graph::Segmentation::build`] is a cheap O(|V|) boundary pass
//! followed by an O(|E|) routing analysis of every segment. This module
//! routes that second part through the stage-query layer of
//! [`crate::query`]: the boundary pass always recomputes, but each
//! segment's routing analysis becomes one `"segment"` stage query keyed on
//! *that segment's own content* (its slice of the CSR) plus the boundary
//! list. A streaming edge batch that touches a handful of vertices leaves
//! every untouched segment's key unchanged, so re-segmenting after the
//! batch recomputes exactly the touched segments and serves the rest from
//! the memo — the segment-granular analogue of the pipeline's early-cutoff
//! story.
//!
//! The key must cover everything [`Segmentation::analyze_range`] reads:
//! the range bounds, its edge window (both position and destination
//! content), and the full boundary list (routes count arcs *by destination
//! segment*, so moving any boundary invalidates every segment — which is
//! correct, because every routing table is then expressed against a
//! different partition).

use crate::knobs::SegmentKnobs;
use crate::query::{Fingerprint, QueryCtx, PIPELINE_VERSION};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use graffix_graph::{Csr, NodeId, Segment, Segmentation};
use std::io;

/// Stage name of one segment's routing analysis in [`QueryCtx`] records.
pub const SEGMENT_STAGE: &str = "segment";

/// Builds the segmentation of `g` through `ctx`'s memo tables. On a null
/// context this is exactly [`Segmentation::build`]; on a warm context only
/// segments whose content key changed since the last call recompute.
pub fn segmentation_with_ctx(ctx: &mut QueryCtx, g: &Csr, knobs: &SegmentKnobs) -> Segmentation {
    if ctx.is_null() {
        return Segmentation::build(g, knobs.segment_bytes);
    }
    let ranges = Segmentation::split_ranges(g, knobs.segment_bytes);
    let starts: Vec<NodeId> = ranges.iter().map(|r| r.start).collect();
    // The boundary list is shared by every key; hash it once.
    let mut boundary = Fingerprint::new();
    boundary.write_u64(starts.len() as u64);
    for &s in &starts {
        boundary.write_u64(s as u64);
    }
    let boundary_fp = boundary.finish();
    let mut segments = Vec::with_capacity(ranges.len());
    for range in ranges {
        let key = segment_key(g, &range, boundary_fp, knobs.segment_bytes);
        let (seg, _) = ctx.query(
            SEGMENT_STAGE,
            key,
            || Segmentation::analyze_range(g, range.clone(), &starts),
            encode_segment,
            decode_segment,
        );
        segments.push(seg);
    }
    Segmentation::from_segments(knobs.segment_bytes, segments)
}

/// Content key of one range's routing analysis: pipeline version, byte
/// budget, boundary-list fingerprint, the range bounds and edge-window
/// position, and the destination of every arc sourced in the range.
/// Weights are deliberately excluded — routing never reads them.
fn segment_key(
    g: &Csr,
    range: &std::ops::Range<NodeId>,
    boundary_fp: u64,
    segment_bytes: usize,
) -> u64 {
    let offsets = g.offsets();
    let edge_start = offsets[range.start as usize];
    let edge_end = offsets[range.end as usize];
    let mut h = Fingerprint::new();
    h.write(b"GFXseg");
    h.write(&PIPELINE_VERSION.to_le_bytes());
    h.write_u64(segment_bytes as u64);
    h.write_u64(boundary_fp);
    h.write_u64(range.start as u64);
    h.write_u64(range.end as u64);
    h.write_u64(edge_start as u64);
    h.write_u64(edge_end as u64);
    for &d in &g.edges_raw()[edge_start..edge_end] {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// Bit-exact [`Segment`] codec for the memo tables (little-endian fields
/// in declaration order, routes length-prefixed).
fn encode_segment(seg: &Segment) -> Bytes {
    let mut buf = BytesMut::with_capacity(44 + seg.routes.len() * 12);
    buf.put_u32_le(seg.start);
    buf.put_u32_le(seg.end);
    buf.put_u64_le(seg.edge_start as u64);
    buf.put_u64_le(seg.edge_end as u64);
    buf.put_u64_le(seg.internal_edges);
    buf.put_u64_le(seg.routes.len() as u64);
    for &(t, c) in &seg.routes {
        buf.put_u32_le(t);
        buf.put_u64_le(c);
    }
    buf.freeze()
}

fn decode_segment(mut b: Bytes) -> io::Result<Segment> {
    fn short() -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, "truncated segment payload")
    }
    if b.remaining() < 40 {
        return Err(short());
    }
    let start = b.get_u32_le();
    let end = b.get_u32_le();
    let edge_start = b.get_u64_le() as usize;
    let edge_end = b.get_u64_le() as usize;
    let internal_edges = b.get_u64_le();
    let n_routes = b.get_u64_le() as usize;
    if b.remaining() != n_routes * 12 {
        return Err(short());
    }
    let mut routes = Vec::with_capacity(n_routes);
    for _ in 0..n_routes {
        let t = b.get_u32_le();
        let c = b.get_u64_le();
        routes.push((t, c));
    }
    Ok(Segment {
        start,
        end,
        edge_start,
        edge_end,
        routes,
        internal_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StageStatus;
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_graph::mutation::EdgeBatch;

    fn line(n: usize) -> Csr {
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|v| {
                if v + 1 < n {
                    vec![(v + 1) as NodeId]
                } else {
                    vec![]
                }
            })
            .collect();
        Csr::from_adjacency(adj, None)
    }

    #[test]
    fn segment_codec_round_trips() {
        let g = GraphSpec::new(GraphKind::Rmat, 300, 4).generate();
        for seg in Segmentation::build(&g, 1024).segments() {
            let decoded = decode_segment(encode_segment(seg)).unwrap();
            assert_eq!(&decoded, seg);
            // Round-trip must be bit-exact: re-encoding the decoded value
            // reproduces the payload (the query-layer contract).
            assert_eq!(
                encode_segment(&decoded).as_ref(),
                encode_segment(seg).as_ref()
            );
        }
        assert!(decode_segment(Bytes::from(vec![0u8; 12])).is_err());
    }

    #[test]
    fn matches_unmemoized_build_on_every_context() {
        let knobs = SegmentKnobs::default().with_segment_bytes(1024);
        for seed in [2, 9] {
            let g = GraphSpec::new(GraphKind::SocialTwitter, 400, seed).generate();
            let reference = Segmentation::build(&g, knobs.segment_bytes);
            let mut null = QueryCtx::null();
            assert_eq!(segmentation_with_ctx(&mut null, &g, &knobs), reference);
            let mut mem = QueryCtx::memory();
            assert_eq!(segmentation_with_ctx(&mut mem, &g, &knobs), reference);
            // Warm second pass: identical output, every segment reused.
            mem.begin_run();
            assert_eq!(segmentation_with_ctx(&mut mem, &g, &knobs), reference);
            assert_eq!(mem.records().len(), reference.len());
            assert!(mem.records().iter().all(|r| r.status == StageStatus::Hit));
        }
    }

    #[test]
    fn edge_batch_recomputes_only_touched_segments() {
        // Line graph, budget 40 → 2 nodes per segment. Rewiring one arc of
        // node 50 keeps every degree (hence the boundary pass) unchanged,
        // so only node 50's segment has new content.
        let mut g = line(200);
        let knobs = SegmentKnobs::default().with_segment_bytes(40);
        let mut ctx = QueryCtx::memory();
        let cold = segmentation_with_ctx(&mut ctx, &g, &knobs);
        assert_eq!(cold.len(), 100);

        let mut batch = EdgeBatch::new();
        batch.delete(50, 51);
        batch.insert(50, 70, 1);
        g.apply_batch(&batch).unwrap();

        ctx.begin_run();
        let warm = segmentation_with_ctx(&mut ctx, &g, &knobs);
        assert_eq!(warm, Segmentation::build(&g, knobs.segment_bytes));
        let recomputed: Vec<&str> = ctx
            .records()
            .iter()
            .filter(|r| r.status == StageStatus::Recomputed)
            .map(|r| r.stage)
            .collect();
        assert_eq!(
            recomputed.len(),
            1,
            "exactly the touched segment recomputes, got {recomputed:?}"
        );
        let reused = ctx.records().iter().filter(|r| r.status.reused()).count();
        assert_eq!(reused, warm.len() - 1);
    }

    #[test]
    fn budget_change_rekeys_every_segment() {
        let g = GraphSpec::new(GraphKind::Road, 300, 7).generate();
        let mut ctx = QueryCtx::memory();
        let a = SegmentKnobs::default().with_segment_bytes(1024);
        segmentation_with_ctx(&mut ctx, &g, &a);
        ctx.begin_run();
        let b = SegmentKnobs::default().with_segment_bytes(2048);
        let s = segmentation_with_ctx(&mut ctx, &g, &b);
        // Different boundaries → every routing table re-expressed.
        assert!(ctx
            .records()
            .iter()
            .all(|r| r.status == StageStatus::Recomputed));
        assert_eq!(s, Segmentation::build(&g, b.segment_bytes));
    }
}
