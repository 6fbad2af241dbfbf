//! Bit-exact serialization of per-stage outputs for the memoized query
//! graph ([`crate::query`]).
//!
//! Every stage output round-trips through these codecs byte-for-byte: the
//! encoding *is* the stage's content fingerprint input, so two computations
//! that produce equal values produce equal fingerprints (the early-cutoff
//! property), and a decoded cache hit is indistinguishable from a fresh
//! computation. Graphs embed the GFX1 format from `graffix_graph::serialize`
//! (already bit-exact and validated on load); floats are raw IEEE bits;
//! lengths are u64 little-endian. Decoders reject trailing bytes so a
//! concatenation accident can never masquerade as a valid entry.

use crate::coalesce::{Renumbering, ReplicationResult};
use crate::confluence::ConfluenceOp;
use crate::latency::{BoostOutcome, TileSelection};
use crate::prepared::{Prepared, StageReport, Technique, Tile, TransformReport};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use graffix_graph::{serialize, Csr, NodeId};
use std::io;
use std::ops::Range;

/// Output of the renumber stage: the numbering plus the renumbered graph,
/// so the replicate stage never redoes `apply_renumbering`.
#[derive(Clone, Debug)]
pub struct RenumberOut {
    pub ren: Renumbering,
    pub graph: Csr,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("gfxs: {msg}"))
}

fn put_ids(buf: &mut BytesMut, ids: &[NodeId]) {
    buf.put_u64_le(ids.len() as u64);
    for &v in ids {
        buf.put_u32_le(v);
    }
}

/// Stored length of an id list.
fn ids_len(ids: &[NodeId]) -> usize {
    8 + ids.len() * 4
}

/// Writes `g`'s GFX1 image behind its length, straight into `buf`: the
/// image is never built on its own.
fn put_graph(buf: &mut BytesMut, g: &Csr) {
    buf.put_u64_le(serialize::image_len(g) as u64);
    serialize::write_sections(g, |piece| buf.put_slice(piece));
}

/// Stored length of an embedded graph: its length word and its image.
fn graph_len(g: &Csr) -> usize {
    8 + serialize::image_len(g)
}

/// Runs `put` on a buffer allocated once at the payload's whole `len`, so
/// no regrowth ever copies an embedded graph.
fn encode_exact(len: usize, put: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(len);
    put(&mut buf);
    debug_assert_eq!(buf.len(), len, "payload length");
    buf.freeze()
}

fn get_len(bytes: &mut Bytes, what: &str) -> io::Result<usize> {
    if bytes.remaining() < 8 {
        return Err(invalid(&format!("truncated {what} length")));
    }
    Ok(bytes.get_u64_le() as usize)
}

/// Reads the length of a list of `width`-byte elements and checks that the
/// whole list is present. A length whose byte size overflows is truncated
/// by definition, never a panic.
fn get_count(bytes: &mut Bytes, what: &str, width: usize) -> io::Result<usize> {
    let len = get_len(bytes, what)?;
    match len.checked_mul(width) {
        Some(size) if size <= bytes.remaining() => Ok(len),
        _ => Err(invalid(&format!("truncated {what}"))),
    }
}

fn get_ids(bytes: &mut Bytes, what: &str) -> io::Result<Vec<NodeId>> {
    let len = get_count(bytes, what, 4)?;
    Ok((0..len).map(|_| bytes.get_u32_le()).collect())
}

fn get_graph(bytes: &mut Bytes, what: &str) -> io::Result<Csr> {
    let len = get_len(bytes, what)?;
    if bytes.remaining() < len {
        return Err(invalid(&format!("truncated {what}")));
    }
    let raw = bytes.slice(0..len);
    *bytes = bytes.slice(len..bytes.remaining());
    serialize::from_bytes(raw)
}

fn get_u64(bytes: &mut Bytes, what: &str) -> io::Result<u64> {
    if bytes.remaining() < 8 {
        return Err(invalid(&format!("truncated {what}")));
    }
    Ok(bytes.get_u64_le())
}

fn done(bytes: &Bytes, what: &str) -> io::Result<()> {
    if bytes.remaining() > 0 {
        return Err(invalid(&format!("trailing bytes after {what}")));
    }
    Ok(())
}

fn str_len(s: &str) -> usize {
    8 + s.len()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(bytes: &mut Bytes, what: &str) -> io::Result<String> {
    let len = get_len(bytes, what)?;
    if bytes.remaining() < len {
        return Err(invalid(&format!("truncated {what}")));
    }
    let mut raw = vec![0u8; len];
    bytes.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| invalid(&format!("non-utf8 {what}")))
}

fn groups_len(groups: &[(NodeId, Vec<NodeId>)]) -> usize {
    8 + groups
        .iter()
        .map(|(_, members)| 4 + ids_len(members))
        .sum::<usize>()
}

fn put_groups(buf: &mut BytesMut, groups: &[(NodeId, Vec<NodeId>)]) {
    buf.put_u64_le(groups.len() as u64);
    for (orig, members) in groups {
        buf.put_u32_le(*orig);
        put_ids(buf, members);
    }
}

fn get_groups(bytes: &mut Bytes) -> io::Result<Vec<(NodeId, Vec<NodeId>)>> {
    let n_groups = get_len(bytes, "replica_groups")?;
    let mut groups = Vec::with_capacity(n_groups.min(1 << 20));
    for _ in 0..n_groups {
        if bytes.remaining() < 4 {
            return Err(invalid("truncated replica group"));
        }
        let orig = bytes.get_u32_le();
        groups.push((orig, get_ids(bytes, "replica members")?));
    }
    Ok(groups)
}

fn tiles_len(tiles: &[Tile]) -> usize {
    8 + tiles
        .iter()
        .map(|tile| 12 + ids_len(&tile.nodes))
        .sum::<usize>()
}

fn put_tiles(buf: &mut BytesMut, tiles: &[Tile]) {
    buf.put_u64_le(tiles.len() as u64);
    for tile in tiles {
        buf.put_u32_le(tile.center);
        buf.put_u64_le(tile.iterations as u64);
        put_ids(buf, &tile.nodes);
    }
}

fn get_tiles(bytes: &mut Bytes) -> io::Result<Vec<Tile>> {
    let n_tiles = get_len(bytes, "tiles")?;
    let mut tiles = Vec::with_capacity(n_tiles.min(1 << 20));
    for _ in 0..n_tiles {
        if bytes.remaining() < 12 {
            return Err(invalid("truncated tile"));
        }
        let center = bytes.get_u32_le();
        let iterations = bytes.get_u64_le() as usize;
        let nodes = get_ids(bytes, "tile nodes")?;
        tiles.push(Tile {
            center,
            nodes,
            iterations,
        });
    }
    Ok(tiles)
}

pub(crate) fn encode_ids(ids: &[NodeId]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + ids.len() * 4);
    put_ids(&mut buf, ids);
    buf.freeze()
}

pub(crate) fn decode_ids(mut bytes: Bytes) -> io::Result<Vec<NodeId>> {
    let ids = get_ids(&mut bytes, "id list")?;
    done(&bytes, "id list")?;
    Ok(ids)
}

pub(crate) fn encode_counts(vals: &[u64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + vals.len() * 8);
    buf.put_u64_le(vals.len() as u64);
    for &v in vals {
        buf.put_u64_le(v);
    }
    buf.freeze()
}

pub(crate) fn decode_counts(mut bytes: Bytes) -> io::Result<Vec<u64>> {
    let len = get_count(&mut bytes, "count list", 8)?;
    let vals = (0..len).map(|_| bytes.get_u64_le()).collect();
    done(&bytes, "count list")?;
    Ok(vals)
}

pub(crate) fn encode_csr(g: &Csr) -> Bytes {
    serialize::to_bytes(g)
}

pub(crate) fn decode_csr(bytes: Bytes) -> io::Result<Csr> {
    serialize::from_bytes(bytes)
}

pub(crate) fn encode_renumber(out: &RenumberOut) -> Bytes {
    let ren = &out.ren;
    let len = ids_len(&ren.new_of_old)
        + ids_len(&ren.old_of_new)
        + 8
        + ren.level_ranges.len() * 16
        + 8
        + ren.level_of_new.len() * 4
        + 16
        + graph_len(&out.graph);
    encode_exact(len, |buf| {
        put_ids(buf, &ren.new_of_old);
        put_ids(buf, &ren.old_of_new);
        buf.put_u64_le(ren.level_ranges.len() as u64);
        for r in &ren.level_ranges {
            buf.put_u64_le(r.start as u64);
            buf.put_u64_le(r.end as u64);
        }
        buf.put_u64_le(ren.level_of_new.len() as u64);
        for &l in &ren.level_of_new {
            buf.put_u32_le(l);
        }
        buf.put_u64_le(ren.holes_created as u64);
        buf.put_u64_le(ren.k as u64);
        put_graph(buf, &out.graph);
    })
}

pub(crate) fn decode_renumber(mut bytes: Bytes) -> io::Result<RenumberOut> {
    let new_of_old = get_ids(&mut bytes, "new_of_old")?;
    let old_of_new = get_ids(&mut bytes, "old_of_new")?;
    let n_ranges = get_count(&mut bytes, "level_ranges", 16)?;
    let level_ranges: Vec<Range<usize>> = (0..n_ranges)
        .map(|_| {
            let start = bytes.get_u64_le() as usize;
            let end = bytes.get_u64_le() as usize;
            start..end
        })
        .collect();
    let n_levels = get_count(&mut bytes, "level_of_new", 4)?;
    let level_of_new = (0..n_levels).map(|_| bytes.get_u32_le()).collect();
    let holes_created = get_u64(&mut bytes, "holes_created")? as usize;
    let k = get_u64(&mut bytes, "k")? as usize;
    let graph = get_graph(&mut bytes, "renumbered graph")?;
    done(&bytes, "renumber output")?;
    Ok(RenumberOut {
        ren: Renumbering {
            new_of_old,
            old_of_new,
            level_ranges,
            level_of_new,
            holes_created,
            k,
        },
        graph,
    })
}

pub(crate) fn encode_replication(rep: &ReplicationResult) -> Bytes {
    let len =
        graph_len(&rep.graph) + ids_len(&rep.to_original) + groups_len(&rep.replica_groups) + 24;
    encode_exact(len, |buf| {
        put_graph(buf, &rep.graph);
        put_ids(buf, &rep.to_original);
        put_groups(buf, &rep.replica_groups);
        buf.put_u64_le(rep.holes_filled as u64);
        buf.put_u64_le(rep.edges_added as u64);
        buf.put_u64_le(rep.replicas as u64);
    })
}

pub(crate) fn decode_replication(mut bytes: Bytes) -> io::Result<ReplicationResult> {
    let graph = get_graph(&mut bytes, "replicated graph")?;
    let to_original = get_ids(&mut bytes, "to_original")?;
    let replica_groups = get_groups(&mut bytes)?;
    let holes_filled = get_u64(&mut bytes, "holes_filled")? as usize;
    let edges_added = get_u64(&mut bytes, "edges_added")? as usize;
    let replicas = get_u64(&mut bytes, "replicas")? as usize;
    done(&bytes, "replication output")?;
    Ok(ReplicationResult {
        graph,
        to_original,
        replica_groups,
        holes_filled,
        edges_added,
        replicas,
    })
}

pub(crate) fn encode_boost(out: &BoostOutcome) -> Bytes {
    let len = graph_len(&out.graph) + 8 + out.clustering.len() * 8 + 8;
    encode_exact(len, |buf| {
        put_graph(buf, &out.graph);
        buf.put_u64_le(out.clustering.len() as u64);
        for &c in &out.clustering {
            buf.put_u64_le(c.to_bits());
        }
        buf.put_u64_le(out.edges_added as u64);
    })
}

pub(crate) fn decode_boost(mut bytes: Bytes) -> io::Result<BoostOutcome> {
    let graph = get_graph(&mut bytes, "boosted graph")?;
    let len = get_count(&mut bytes, "clustering", 8)?;
    let clustering = (0..len)
        .map(|_| f64::from_bits(bytes.get_u64_le()))
        .collect();
    let edges_added = get_u64(&mut bytes, "edges_added")? as usize;
    done(&bytes, "boost output")?;
    Ok(BoostOutcome {
        graph,
        clustering,
        edges_added,
    })
}

pub(crate) fn encode_tiles(sel: &TileSelection) -> Bytes {
    let mut buf = BytesMut::new();
    put_tiles(&mut buf, &sel.tiles);
    buf.put_u64_le(sel.untiled as u64);
    buf.freeze()
}

pub(crate) fn decode_tiles(mut bytes: Bytes) -> io::Result<TileSelection> {
    let tiles = get_tiles(&mut bytes)?;
    let untiled = get_u64(&mut bytes, "untiled")? as usize;
    done(&bytes, "tile selection")?;
    Ok(TileSelection { tiles, untiled })
}

pub(crate) fn encode_normalize(out: &crate::divergence::NormalizeOutcome) -> Bytes {
    encode_exact(graph_len(&out.graph) + 16, |buf| {
        put_graph(buf, &out.graph);
        buf.put_u64_le(out.edges_added as u64);
        buf.put_u64_le(out.warps_normalized as u64);
    })
}

pub(crate) fn decode_normalize(
    mut bytes: Bytes,
) -> io::Result<crate::divergence::NormalizeOutcome> {
    let graph = get_graph(&mut bytes, "normalized graph")?;
    let edges_added = get_u64(&mut bytes, "edges_added")? as usize;
    let warps_normalized = get_u64(&mut bytes, "warps_normalized")? as usize;
    done(&bytes, "normalize output")?;
    Ok(crate::divergence::NormalizeOutcome {
        graph,
        edges_added,
        warps_normalized,
    })
}

const CONFLUENCES: [ConfluenceOp; 4] = [
    ConfluenceOp::Mean,
    ConfluenceOp::Min,
    ConfluenceOp::Max,
    ConfluenceOp::Sum,
];

/// A stored field of a [`Prepared`]: its name, what writes it, and the
/// number of bytes it writes.
type PreparedField = (
    &'static str,
    fn(&mut BytesMut, &Prepared),
    fn(&Prepared) -> usize,
);

/// The terminal payload, field by field in stored order — the one list
/// behind [`encode_prepared`] and [`Prepared::first_difference`]. Content
/// only, like every stage payload: `preprocess_seconds` and `phase_seconds`
/// are wall-clock diagnostics and are not in it.
const PREPARED_FIELDS: [PreparedField; 12] = [
    (
        "technique",
        |buf, p| {
            buf.put_u8(
                Technique::ALL
                    .iter()
                    .position(|&t| t == p.technique)
                    .unwrap() as u8,
            )
        },
        |_| 1,
    ),
    (
        "confluence",
        |buf, p| buf.put_u8(CONFLUENCES.iter().position(|&c| c == p.confluence).unwrap() as u8),
        |_| 1,
    ),
    (
        "graph",
        |buf, p| put_graph(buf, &p.graph),
        |p| graph_len(&p.graph),
    ),
    (
        "assignment",
        |buf, p| put_ids(buf, &p.assignment),
        |p| ids_len(&p.assignment),
    ),
    (
        "to_original",
        |buf, p| put_ids(buf, &p.to_original),
        |p| ids_len(&p.to_original),
    ),
    (
        "primary",
        |buf, p| put_ids(buf, &p.primary),
        |p| ids_len(&p.primary),
    ),
    (
        "replica_groups",
        |buf, p| put_groups(buf, &p.replica_groups),
        |p| groups_len(&p.replica_groups),
    ),
    (
        "tiles",
        |buf, p| put_tiles(buf, &p.tiles),
        |p| tiles_len(&p.tiles),
    ),
    (
        "report.technique_label",
        |buf, p| put_str(buf, &p.report.technique_label),
        |p| str_len(&p.report.technique_label),
    ),
    (
        "report counters",
        |buf, p| {
            let r = &p.report;
            for v in [
                r.original_nodes,
                r.original_edges,
                r.new_nodes,
                r.new_edges,
                r.holes_created,
                r.holes_filled,
                r.replicas,
                r.edges_added,
            ] {
                buf.put_u64_le(v as u64);
            }
        },
        |_| 64,
    ),
    (
        "report.space_overhead",
        |buf, p| buf.put_u64_le(p.report.space_overhead.to_bits()),
        |_| 8,
    ),
    (
        "report.stages",
        |buf, p| {
            buf.put_u64_le(p.report.stages.len() as u64);
            for s in &p.report.stages {
                put_str(buf, &s.transform);
                buf.put_u64_le(s.replicas as u64);
                buf.put_u64_le(s.edges_added as u64);
                buf.put_u64_le(s.edge_budget_arcs as u64);
            }
        },
        |p| {
            8 + p
                .report
                .stages
                .iter()
                .map(|s| str_len(&s.transform) + 24)
                .sum::<usize>()
        },
    ),
];

/// The terminal payload: the assembled [`Prepared`]. Decodes with 0 / empty
/// wall-clock diagnostics (the caller records the load time in their
/// place).
pub(crate) fn encode_prepared(p: &Prepared) -> Bytes {
    let len = PREPARED_FIELDS.iter().map(|(_, _, len)| len(p)).sum();
    encode_exact(len, |buf| {
        for (_, put, _) in PREPARED_FIELDS {
            put(buf, p);
        }
    })
}

impl Prepared {
    /// Names the first stored field in which `other` is not the same
    /// prepared output as `self`, or `None` when they are the same. "Same"
    /// is content — exactly what the terminal payload stores, field by
    /// field — so the wall-clock diagnostics (`preprocess_seconds`,
    /// `phase_seconds`) never count.
    pub fn first_difference(&self, other: &Prepared) -> Option<&'static str> {
        let stored = |put: fn(&mut BytesMut, &Prepared), p: &Prepared| {
            let mut buf = BytesMut::new();
            put(&mut buf, p);
            buf.freeze()
        };
        PREPARED_FIELDS
            .iter()
            .find(|&&(_, put, _)| stored(put, self)[..] != stored(put, other)[..])
            .map(|&(name, _, _)| name)
    }
}

/// Structural consistency is re-validated, so an entry that decodes but
/// does not hold together surfaces as `InvalidData`, never a panic later.
pub(crate) fn decode_prepared(mut bytes: Bytes) -> io::Result<Prepared> {
    if bytes.remaining() < 2 {
        return Err(invalid("truncated prepared header"));
    }
    let technique = *Technique::ALL
        .get(bytes.get_u8() as usize)
        .ok_or_else(|| invalid("unknown technique"))?;
    let confluence = *CONFLUENCES
        .get(bytes.get_u8() as usize)
        .ok_or_else(|| invalid("unknown confluence op"))?;
    let graph = get_graph(&mut bytes, "prepared graph")?;
    let assignment = get_ids(&mut bytes, "assignment")?;
    let to_original = get_ids(&mut bytes, "to_original")?;
    let primary = get_ids(&mut bytes, "primary")?;
    let replica_groups = get_groups(&mut bytes)?;
    let tiles = get_tiles(&mut bytes)?;
    let technique_label = get_str(&mut bytes, "technique label")?;
    let mut counters = [0usize; 8];
    for c in counters.iter_mut() {
        *c = get_u64(&mut bytes, "report counters")? as usize;
    }
    let space_overhead = f64::from_bits(get_u64(&mut bytes, "space overhead")?);
    let n_stages = get_len(&mut bytes, "stage reports")?;
    let mut stages = Vec::with_capacity(n_stages.min(1 << 10));
    for _ in 0..n_stages {
        stages.push(StageReport {
            transform: get_str(&mut bytes, "stage transform")?,
            replicas: get_u64(&mut bytes, "stage replicas")? as usize,
            edges_added: get_u64(&mut bytes, "stage edges_added")? as usize,
            edge_budget_arcs: get_u64(&mut bytes, "stage edge budget")? as usize,
        });
    }
    done(&bytes, "prepared output")?;
    let prepared = Prepared {
        graph,
        assignment,
        to_original,
        primary,
        replica_groups,
        tiles,
        confluence,
        technique,
        report: TransformReport {
            technique_label,
            preprocess_seconds: 0.0,
            phase_seconds: Vec::new(),
            original_nodes: counters[0],
            original_edges: counters[1],
            new_nodes: counters[2],
            new_edges: counters[3],
            holes_created: counters[4],
            holes_filled: counters[5],
            replicas: counters[6],
            edges_added: counters[7],
            space_overhead,
            stages,
        },
    };
    prepared
        .validate()
        .map_err(|e| invalid(&format!("inconsistent prepared entry: {e}")))?;
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::{apply_renumbering, renumber, replicate_renumbered};
    use crate::divergence::{bucket_order, normalize_degrees};
    use crate::knobs::{CoalesceKnobs, DivergenceKnobs, LatencyKnobs};
    use crate::latency::{boost_with_counts, select_tiles};
    use graffix_graph::generators::{GraphKind, GraphSpec};
    use graffix_sim::GpuConfig;

    fn graph() -> Csr {
        GraphSpec::new(GraphKind::SocialLiveJournal, 300, 11).generate()
    }

    #[test]
    fn every_stage_output_round_trips_bit_exactly() {
        let g = graph();
        let cfg = GpuConfig::k40c();

        let ren = renumber(&g, 16);
        let renumbered = apply_renumbering(&g, &ren);
        let ren_out = RenumberOut {
            ren,
            graph: renumbered,
        };
        let enc = encode_renumber(&ren_out);
        let dec = decode_renumber(enc.clone()).unwrap();
        assert_eq!(
            &encode_renumber(&dec)[..],
            &enc[..],
            "renumber codec not bit-exact"
        );

        let knobs = CoalesceKnobs::default().with_threshold(0.4);
        let rep = replicate_renumbered(&ren_out.graph, &ren_out.ren, &knobs);
        let enc = encode_replication(&rep);
        let dec = decode_replication(enc.clone()).unwrap();
        assert_eq!(&encode_replication(&dec)[..], &enc[..], "replication codec");
        assert!(rep.replicas > 0, "fixture should exercise replica groups");

        let lknobs = LatencyKnobs::default().with_threshold(0.4);
        let counts = graffix_graph::properties::triangle_counts(&g.undirected());
        let boost = boost_with_counts(&g, counts.clone(), &lknobs);
        let enc = encode_boost(&boost);
        let dec = decode_boost(enc.clone()).unwrap();
        assert_eq!(&encode_boost(&dec)[..], &enc[..], "boost codec");

        let sel = select_tiles(&boost.graph, &boost.clustering, &lknobs, &cfg);
        let enc = encode_tiles(&sel);
        let dec = decode_tiles(enc.clone()).unwrap();
        assert_eq!(&encode_tiles(&dec)[..], &enc[..], "tile codec");
        assert!(!sel.tiles.is_empty(), "fixture should produce tiles");

        let order = bucket_order(&g);
        let enc = encode_ids(&order);
        let dec = decode_ids(enc.clone()).unwrap();
        assert_eq!(dec, order, "id codec");

        let dknobs = DivergenceKnobs::default();
        let norm = normalize_degrees(&g, &order, &dknobs, 32);
        let enc = encode_normalize(&norm);
        let dec = decode_normalize(enc.clone()).unwrap();
        assert_eq!(&encode_normalize(&dec)[..], &enc[..], "normalize codec");

        let enc = encode_csr(&g);
        let dec = decode_csr(enc.clone()).unwrap();
        assert_eq!(&encode_csr(&dec)[..], &enc[..], "csr codec");

        let enc = encode_counts(&counts);
        assert_eq!(decode_counts(enc.clone()).unwrap(), counts, "count codec");
        assert!(counts.iter().any(|&c| c > 0), "fixture has triangles");

        let prepared = crate::Pipeline::all_defaults()
            .with_coalesce(knobs)
            .with_latency(lknobs)
            .apply(&g, &cfg);
        let enc = encode_prepared(&prepared);
        let dec = decode_prepared(enc.clone()).unwrap();
        assert_eq!(&encode_prepared(&dec)[..], &enc[..], "prepared codec");
        assert!(
            !prepared.replica_groups.is_empty() && !prepared.tiles.is_empty(),
            "fixture should exercise the shared group and tile routines"
        );
        assert!(prepared.report.preprocess_seconds > 0.0);
        assert_eq!(
            dec.report.preprocess_seconds, 0.0,
            "timings are not content"
        );
        assert!(
            dec.report.phase_seconds.is_empty(),
            "timings are not content"
        );
    }

    #[test]
    fn decoders_reject_trailing_garbage_and_truncation() {
        let order = vec![2u32, 0, 1];
        let enc = encode_ids(&order);
        let mut padded = enc.to_vec();
        padded.push(0);
        assert!(decode_ids(Bytes::from(padded)).is_err(), "trailing byte");
        let truncated = enc.slice(0..enc.len() - 1);
        assert!(decode_ids(truncated).is_err(), "truncated list");
        assert!(decode_boost(Bytes::from(b"nope".to_vec())).is_err());
        assert!(decode_renumber(Bytes::default()).is_err());
        assert!(decode_prepared(Bytes::from(vec![9u8, 0])).is_err());
    }

    /// A length whose byte size overflows `usize` is a truncated entry, not
    /// a multiply-overflow or capacity panic.
    #[test]
    fn decoders_reject_a_length_whose_byte_size_overflows() {
        let huge = |len: u64, prefix: &[u8]| {
            let mut data = prefix.to_vec();
            data.extend_from_slice(&len.to_le_bytes());
            data.extend_from_slice(&[0; 64]);
            Bytes::from(data)
        };
        let empty_list = 0u64.to_le_bytes();
        let two_empty_lists = [empty_list, empty_list].concat();
        let mut graph = BytesMut::new();
        put_graph(
            &mut graph,
            &Csr::from_parts(vec![0], vec![], vec![], vec![]),
        );
        let graph = graph.freeze();
        for len in [1u64 << 62, 1 << 61, u64::MAX / 4 + 1, u64::MAX] {
            assert!(decode_ids(huge(len, &[])).is_err(), "id list of {len}");
            assert!(
                decode_counts(huge(len, &[])).is_err(),
                "count list of {len}"
            );
            assert!(
                decode_renumber(huge(len, &two_empty_lists)).is_err(),
                "level_ranges of {len}"
            );
            let no_ranges = [&two_empty_lists[..], &empty_list].concat();
            assert!(
                decode_renumber(huge(len, &no_ranges)).is_err(),
                "level_of_new of {len}"
            );
            assert!(
                decode_boost(huge(len, &graph[..])).is_err(),
                "clustering of {len}"
            );
        }
    }
    /// `first_difference` and the terminal codec must agree on what content
    /// is: mutating any one field moves both or neither.
    #[test]
    fn first_difference_sees_exactly_what_the_terminal_payload_stores() {
        let base = crate::Pipeline::all_defaults()
            .with_coalesce(CoalesceKnobs::default().with_threshold(0.4))
            .with_latency(LatencyKnobs::default().with_threshold(0.4))
            .apply(&graph(), &GpuConfig::k40c());
        assert!(!base.replica_groups.is_empty() && !base.tiles.is_empty());
        // Naming every field makes a new one a compile error here.
        let Prepared {
            graph: _,
            assignment: _,
            to_original: _,
            primary: _,
            replica_groups: _,
            tiles: _,
            confluence: _,
            technique: _,
            report:
                TransformReport {
                    technique_label: _,
                    preprocess_seconds: _,
                    phase_seconds: _,
                    original_nodes: _,
                    original_edges: _,
                    new_nodes: _,
                    new_edges: _,
                    holes_created: _,
                    holes_filled: _,
                    replicas: _,
                    edges_added: _,
                    space_overhead: _,
                    stages: _,
                },
        } = &base;
        type Mutation = (Option<&'static str>, fn(&mut Prepared));
        let mutations: [Mutation; 21] = [
            (Some("graph"), |p| p.graph = graph()),
            (Some("assignment"), |p| p.assignment.swap(0, 1)),
            (Some("to_original"), |p| p.to_original[0] ^= 1),
            (Some("primary"), |p| p.primary[0] ^= 1),
            (Some("replica_groups"), |p| p.replica_groups[0].0 ^= 1),
            (Some("tiles"), |p| p.tiles[0].iterations += 1),
            (Some("confluence"), |p| p.confluence = ConfluenceOp::Max),
            (Some("technique"), |p| p.technique = Technique::Latency),
            (Some("report.technique_label"), |p| {
                p.report.technique_label.push('!')
            }),
            (None, |p| p.report.preprocess_seconds += 1.0),
            (None, |p| p.report.phase_seconds.clear()),
            (Some("report counters"), |p| p.report.original_nodes += 1),
            (Some("report counters"), |p| p.report.original_edges += 1),
            (Some("report counters"), |p| p.report.new_nodes += 1),
            (Some("report counters"), |p| p.report.new_edges += 1),
            (Some("report counters"), |p| p.report.holes_created += 1),
            (Some("report counters"), |p| p.report.holes_filled += 1),
            (Some("report counters"), |p| p.report.replicas += 1),
            (Some("report counters"), |p| p.report.edges_added += 1),
            (Some("report.space_overhead"), |p| {
                p.report.space_overhead = -p.report.space_overhead
            }),
            (Some("report.stages"), |p| {
                p.report.stages[1].edge_budget_arcs += 1
            }),
        ];
        assert_eq!(base.first_difference(&base.clone()), None);
        for (want, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            assert_eq!(base.first_difference(&changed), want);
            assert_eq!(
                want.is_none(),
                encode_prepared(&base)[..] == encode_prepared(&changed)[..],
                "{want:?}: the codec disagrees"
            );
        }
    }
}
