//! Compact binary graph format ("GFX1").
//!
//! Edge-list text and DIMACS are interchange formats; for the repeated
//! preprocessing-then-query workflow the paper motivates, a transformed
//! graph is written once and memory-loaded many times, so a dense binary
//! layout matters. Layout (all little-endian):
//!
//! ```text
//! magic  "GFX1"            4 bytes
//! flags  u32               bit 0 = weighted, bit 1 = has hole mask
//! n      u64               node slots
//! m      u64               edges
//! offsets  (n+1) × u64
//! edges    m × u32
//! weights  m × u32          (iff weighted)
//! holes    ceil(n/8) bytes  (iff hole mask, bit-packed)
//! ```

use crate::csr::{Csr, EdgeId};
use crate::error::GraphError;
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GFX1";
const FLAG_WEIGHTED: u32 = 1;
const FLAG_HOLES: u32 = 2;

/// Feeds `g`'s GFX1 image to `sink` piece by piece, in file order — the one
/// writer of the layout table above. [`to_bytes`] collects the pieces; a
/// hasher can take them without the image ever being built.
pub fn write_sections(g: &Csr, mut sink: impl FnMut(&[u8])) {
    let n = g.num_nodes();
    let weighted = g.is_weighted();
    let has_holes = g.has_holes();
    let mut flags = 0u32;
    if weighted {
        flags |= FLAG_WEIGHTED;
    }
    if has_holes {
        flags |= FLAG_HOLES;
    }
    sink(MAGIC);
    sink(&flags.to_le_bytes());
    sink(&(n as u64).to_le_bytes());
    sink(&(g.num_edges() as u64).to_le_bytes());
    feed_le(g.offsets(), |o| (o as u64).to_le_bytes(), &mut sink);
    feed_le(g.edges_raw(), u32::to_le_bytes, &mut sink);
    if weighted {
        feed_le(g.weights_raw(), u32::to_le_bytes, &mut sink);
    }
    if has_holes {
        let mut packed = vec![0u8; n.div_ceil(8)];
        for v in (0..n).filter(|&v| g.is_hole(v as u32)) {
            packed[v / 8] |= 1 << (v % 8);
        }
        sink(&packed);
    }
}

/// Hands `vals` to `sink` as little-endian bytes, a block at a time rather
/// than an element at a time.
fn feed_le<T: Copy, const W: usize>(
    vals: &[T],
    le: impl Fn(T) -> [u8; W],
    sink: &mut impl FnMut(&[u8]),
) {
    let mut block = [0u8; BLOCK];
    for chunk in vals.chunks(BLOCK / W) {
        for (dst, &v) in block.chunks_exact_mut(W).zip(chunk) {
            dst.copy_from_slice(&le(v));
        }
        sink(&block[..chunk.len() * W]);
    }
}

/// The exact length of `g`'s GFX1 image: what [`write_sections`] feeds.
pub fn image_len(g: &Csr) -> usize {
    let (n, m) = (g.num_nodes(), g.num_edges());
    HEADER_BYTES
        + (n + 1) * 8
        + m * 4
        + if g.is_weighted() { m * 4 } else { 0 }
        + if g.has_holes() { n.div_ceil(8) } else { 0 }
}

/// Serializes `g` into a fresh buffer of exactly its image's length.
pub fn to_bytes(g: &Csr) -> Bytes {
    let mut buf = BytesMut::with_capacity(image_len(g));
    write_sections(g, |piece| buf.put_slice(piece));
    buf.freeze()
}

/// The fixed header: magic, flags, `n`, `m`.
const HEADER_BYTES: usize = 24;

/// A GFX1 header that has been parsed and bounded against the number of
/// bytes actually present.
struct Layout {
    n: usize,
    m: usize,
    weighted: bool,
    has_holes: bool,
}

impl Layout {
    /// Parses `header` (the image's first [`HEADER_BYTES`] bytes, fewer if
    /// it is shorter than that) of an image `have` bytes long, and checks
    /// that the arrays the header promises fit in those bytes.
    fn parse(header: &[u8], have: u64) -> Result<Layout, GraphError> {
        let Some(header) = header.first_chunk::<HEADER_BYTES>() else {
            return Err(GraphError::Truncated {
                what: "GFX1 header",
                need: HEADER_BYTES as u64,
                have,
            });
        };
        if &header[0..4] != MAGIC {
            return Err(GraphError::BadHeader {
                what: "magic (not a GFX1 file)",
            });
        }
        let flags = u32::from_le_bytes(header[4..8].try_into().expect("4 header bytes"));
        if flags & !(FLAG_WEIGHTED | FLAG_HOLES) != 0 {
            return Err(GraphError::BadHeader {
                what: "unknown flags",
            });
        }
        let n64 = u64::from_le_bytes(header[8..16].try_into().expect("8 header bytes"));
        let m64 = u64::from_le_bytes(header[16..24].try_into().expect("8 header bytes"));
        let weighted = flags & FLAG_WEIGHTED != 0;
        let has_holes = flags & FLAG_HOLES != 0;

        // Checked conversions: a hostile header can claim counts that would
        // truncate through `as usize` (32-bit hosts) or overflow the size
        // arithmetic below. Node slots beyond u32::MAX would also collide
        // with the INVALID_NODE sentinel.
        if n64 > u32::MAX as u64 {
            return Err(GraphError::TooManyNodes {
                nodes: n64 as usize,
            });
        }
        // Each offset costs 8 bytes and each edge at least 4, so any honest
        // n/m is bounded by the payload; this also keeps `need` from
        // overflowing.
        let payload = have.saturating_sub(HEADER_BYTES as u64);
        if n64 > payload / 8 || m64 > payload / 4 {
            return Err(GraphError::Truncated {
                what: "GFX1 body",
                need: (HEADER_BYTES as u64)
                    .saturating_add(n64 * 8)
                    .saturating_add(m64.saturating_mul(4)),
                have,
            });
        }
        let need = HEADER_BYTES as u64
            + (n64 + 1) * 8
            + m64 * 4
            + if weighted { m64 * 4 } else { 0 }
            + if has_holes { n64.div_ceil(8) } else { 0 };
        if have < need {
            return Err(GraphError::Truncated {
                what: "GFX1 body",
                need,
                have,
            });
        }
        Ok(Layout {
            n: n64 as usize,
            m: m64 as usize,
            weighted,
            has_holes,
        })
    }
}

/// Reads the GFX1 image of `have` bytes that `input` yields — the one
/// reader of the layout table above, mirroring [`write_sections`]. The
/// header is bounded by [`Layout::parse`] before any array is allocated;
/// each array is then read a block at a time and checked before the next
/// one is read, so nothing but the arrays themselves is ever held.
/// Failures are typed [`GraphError`]s wrapped in `io::Error` (recoverable
/// via [`GraphError::from_io`]).
fn decode(mut input: impl Read, have: u64) -> io::Result<Csr> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    input
        .by_ref()
        .take(HEADER_BYTES as u64)
        .read_to_end(&mut header)?;
    let layout = Layout::parse(&header, have)?;
    let (n, m, m64) = (layout.n, layout.m, layout.m as u64);
    let offsets = read_le(&mut input, n + 1, u64::from_le_bytes)?;
    if let Some(&o) = offsets.iter().find(|&&o| o > m64) {
        return Err(GraphError::ValueOutOfRange {
            what: "offset",
            value: o,
            max: m64,
        }
        .into());
    }
    // Every offset is at most `m`, so none truncates (this collect reuses
    // the allocation where `EdgeId` is 64 bits wide).
    let offsets: Vec<EdgeId> = offsets.into_iter().map(|o| o as EdgeId).collect();
    if offsets[n] != m {
        return Err(GraphError::OffsetEdgeMismatch {
            last: offsets[n],
            edges: m,
        }
        .into());
    }
    if let Some(at) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(GraphError::NonMonotoneOffsets { at }.into());
    }
    let edges = read_le(&mut input, m, u32::from_le_bytes)?;
    if let Some(&dest) = edges.iter().find(|&&e| e as usize >= n) {
        return Err(GraphError::EdgeTargetOutOfRange { dest, nodes: n }.into());
    }
    let weights = if layout.weighted {
        read_le(&mut input, m, u32::from_le_bytes)?
    } else {
        Vec::new()
    };
    let hole_mask = if layout.has_holes {
        let packed = read_le(&mut input, n.div_ceil(8), |[byte]| byte)?;
        (0..n)
            .map(|v| packed[v / 8] & (1 << (v % 8)) != 0)
            .collect()
    } else {
        Vec::new()
    };
    // try_from_parts checks the remaining invariants (hole degrees, arcs
    // into holes) and reports a typed GraphError instead of panicking on
    // corrupt input.
    Ok(Csr::try_from_parts(offsets, edges, weights, hole_mask)?)
}

/// Bytes per read of [`read_le`] and per piece of [`feed_le`].
const BLOCK: usize = 4096;

/// Reads `len` values of `W` little-endian bytes each from `input`, a
/// [`BLOCK`] at a time — the mirror of [`feed_le`].
fn read_le<T, const W: usize>(
    input: &mut impl Read,
    len: usize,
    le: impl Fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut vals = Vec::with_capacity(len);
    let mut block = [0u8; BLOCK];
    while vals.len() < len {
        let bytes = &mut block[..(len - vals.len()).min(BLOCK / W) * W];
        input.read_exact(bytes)?;
        vals.extend(
            bytes
                .chunks_exact(W)
                .map(|c| le(c.try_into().expect("W-byte chunk"))),
        );
    }
    Ok(vals)
}

/// Deserializes a graph from `bytes`, validating the structure (see
/// [`decode`]). Bytes past the image are ignored.
pub fn from_bytes(bytes: Bytes) -> io::Result<Csr> {
    decode(&bytes[..], bytes.len() as u64)
}

/// Writes `g` in GFX1 format.
pub fn write_binary<W: Write>(g: &Csr, mut out: W) -> io::Result<()> {
    out.write_all(&to_bytes(g))
}

/// Convenience: saves to `path`.
pub fn save_binary<P: AsRef<Path>>(g: &Csr, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Loads a GFX1 file, with the same validation and the same typed errors as
/// [`from_bytes`] on the same bytes.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    let file = std::fs::File::open(path)?;
    let have = file.metadata()?.len();
    decode(file, have)
}

/// [`load_binary`] under the name the benchmark harness in `benchmark/`
/// times it by (its `graph.open_mapped` span). The file is read into owned
/// arrays; nothing is memory-mapped.
pub fn open_mapped<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    load_binary(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{GraphKind, GraphSpec};

    #[test]
    fn roundtrip_weighted() {
        let g = GraphSpec::new(GraphKind::Rmat, 300, 4).generate();
        let g2 = from_bytes(to_bytes(&g)).unwrap();
        assert_eq!(g.offsets(), g2.offsets());
        assert_eq!(g.edges_raw(), g2.edges_raw());
        assert_eq!(g.weights_raw(), g2.weights_raw());
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = GraphSpec::new(GraphKind::Road, 200, 1)
            .with_max_weight(0)
            .generate();
        let g2 = from_bytes(to_bytes(&g)).unwrap();
        assert!(!g2.is_weighted());
        assert_eq!(g.edges_raw(), g2.edges_raw());
    }

    #[test]
    fn roundtrip_with_holes() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let mut g = b.build();
        let mut mask = vec![false; 10];
        mask[7] = true;
        mask[9] = true;
        g.set_hole_mask(mask);
        let g2 = from_bytes(to_bytes(&g)).unwrap();
        assert!(g2.is_hole(7) && g2.is_hole(9));
        assert!(!g2.is_hole(0));
        assert_eq!(g2.num_holes(), 2);
    }

    #[test]
    fn image_len_is_the_length_of_the_image() {
        let weighted = GraphSpec::new(GraphKind::Rmat, 300, 4).generate();
        let unweighted = GraphSpec::new(GraphKind::Road, 200, 1)
            .with_max_weight(0)
            .generate();
        let mut holey = GraphBuilder::new(10);
        holey.add_edge(0, 1);
        let mut holey = holey.build();
        holey.set_hole_mask((0..10).map(|v| v == 7).collect());
        let tiny = GraphSpec::new(GraphKind::Random, 3, 1).generate();
        let empty = Csr::from_adjacency(Vec::new(), None);
        assert!(weighted.is_weighted() && !unweighted.is_weighted() && holey.has_holes());
        for (name, g) in [
            ("weighted", &weighted),
            ("unweighted", &unweighted),
            ("hole-bearing", &holey),
            ("tiny", &tiny),
            ("empty", &empty),
        ] {
            assert_eq!(to_bytes(g).len(), image_len(g), "{name}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = to_bytes(&GraphBuilder::new(2).build()).to_vec();
        data[0] = b'X';
        assert!(from_bytes(Bytes::from(data)).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let data = to_bytes(&GraphSpec::new(GraphKind::Random, 50, 2).generate());
        for cut in [3usize, 20, data.len() / 2] {
            let sliced = data.slice(0..cut);
            assert!(from_bytes(sliced).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let g = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 2);
            b.build()
        };
        let mut data = to_bytes(&g).to_vec();
        // Edge array starts after magic(4)+flags(4)+n(8)+m(8)+offsets(4*8).
        let edge_pos = 4 + 4 + 8 + 8 + 4 * 8;
        data[edge_pos..edge_pos + 4].copy_from_slice(&100u32.to_le_bytes());
        assert!(from_bytes(Bytes::from(data)).is_err());
    }

    fn temp_file(name: &str, data: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("graffix-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        std::fs::write(&path, data).unwrap();
        path
    }

    /// `load_binary` on a file holding `data`.
    fn load_file(name: &str, data: &[u8]) -> io::Result<Csr> {
        let path = temp_file(name, data);
        let got = load_binary(&path);
        std::fs::remove_file(&path).ok();
        got
    }

    #[test]
    fn open_mapped_matches_copying_loader() {
        let mut g = GraphSpec::new(GraphKind::Rmat, 300, 4).generate();
        let mut mask = vec![false; g.num_nodes()];
        // Mark a few zero-degree slots as holes so the packed mask path
        // is exercised too.
        let mut marked = 0;
        for v in 0..g.num_nodes() as u32 {
            if g.degree(v) == 0 && g.in_degrees()[v as usize] == 0 {
                mask[v as usize] = true;
                marked += 1;
            }
        }
        if marked > 0 {
            g.set_hole_mask(mask);
        }
        let m = load_file("roundtrip.gfx", &to_bytes(&g)).unwrap();
        assert_eq!(g.offsets(), m.offsets());
        assert_eq!(g.edges_raw(), m.edges_raw());
        assert_eq!(g.weights_raw(), m.weights_raw());
        assert_eq!(g.num_holes(), m.num_holes());
    }

    #[test]
    fn open_mapped_rejects_truncation_with_typed_error() {
        let data = to_bytes(&GraphSpec::new(GraphKind::Random, 50, 2).generate());
        for cut in [0usize, 3, 20, data.len() / 2, data.len() - 1] {
            let err = load_file(&format!("truncated-{cut}.gfx"), &data[..cut])
                .expect_err("truncated file accepted");
            assert!(
                matches!(
                    GraphError::from_io(&err),
                    Some(GraphError::Truncated { .. })
                ),
                "cut at {cut}: expected typed Truncated, got {err}"
            );
        }
    }

    /// A file and the same bytes in memory go through one reader, so the
    /// same damaged image is the same typed error from either.
    #[test]
    fn both_loaders_reject_a_damaged_header_with_the_same_error() {
        let base = to_bytes(&GraphSpec::new(GraphKind::Random, 50, 2).generate()).to_vec();
        let with_field = |at: usize, value: &[u8]| {
            let mut data = base.clone();
            data[at..at + value.len()].copy_from_slice(value);
            data
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("cut inside the header", base[..20].to_vec()),
            ("header only", base[..24].to_vec()),
            ("cut inside the offsets", base[..100].to_vec()),
            (
                "cut inside the edges",
                base[..base.len() / 2 + 200].to_vec(),
            ),
            ("last byte missing", base[..base.len() - 1].to_vec()),
            ("bad magic", with_field(0, b"GFX2")),
            ("unknown flag", with_field(4, &4u32.to_le_bytes())),
            (
                "hole flag without a mask",
                with_field(4, &3u32.to_le_bytes()),
            ),
            ("n past u32", with_field(8, &(1u64 << 32).to_le_bytes())),
            ("n inflated", with_field(8, &5_000u64.to_le_bytes())),
            ("n one too many", with_field(8, &51u64.to_le_bytes())),
            ("m inflated", with_field(16, &1_000_000u64.to_le_bytes())),
            ("m overflowing", with_field(16, &u64::MAX.to_le_bytes())),
        ];
        for (i, (what, data)) in cases.iter().enumerate() {
            let in_memory = from_bytes(Bytes::from(data.clone())).expect_err(what);
            let from_file = load_file(&format!("damaged-header-{i}.gfx"), data).expect_err(what);
            let in_memory = GraphError::from_io(&in_memory).expect("typed error");
            assert_eq!(Some(in_memory), GraphError::from_io(&from_file), "{what}");
            assert!(
                matches!(
                    in_memory,
                    GraphError::Truncated { .. }
                        | GraphError::BadHeader { .. }
                        | GraphError::TooManyNodes { .. }
                ),
                "{what}: {in_memory}"
            );
        }
    }

    #[test]
    fn open_mapped_rejects_bit_flips_with_typed_error() {
        let g = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 2);
            b.add_edge(1, 0);
            b.build()
        };
        let base = to_bytes(&g).to_vec();

        // Bad magic.
        let mut bad = base.clone();
        bad[0] = b'X';
        let err = load_file("badmagic.gfx", &bad).unwrap_err();
        assert!(matches!(
            GraphError::from_io(&err),
            Some(GraphError::BadHeader { .. })
        ));

        // Edge destination out of range.
        let mut bad = base.clone();
        let edge_pos = 4 + 4 + 8 + 8 + 4 * 8;
        bad[edge_pos..edge_pos + 4].copy_from_slice(&100u32.to_le_bytes());
        let err = load_file("badedge.gfx", &bad).unwrap_err();
        assert!(matches!(
            GraphError::from_io(&err),
            Some(GraphError::EdgeTargetOutOfRange { dest: 100, .. })
        ));

        // Non-monotone offsets.
        let mut bad = base.clone();
        let off_pos = 4 + 4 + 8 + 8 + 8; // offsets[1]
        bad[off_pos..off_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = load_file("badoffset.gfx", &bad).unwrap_err();
        assert!(GraphError::from_io(&err).is_some(), "untyped error: {err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("graffix-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gfx");
        let g = GraphSpec::new(GraphKind::SocialLiveJournal, 150, 8).generate();
        save_binary(&g, &path).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g.edges_raw(), g2.edges_raw());
        std::fs::remove_file(path).ok();
    }

    /// The element-at-a-time reader GFX1 had before the block decoder, kept
    /// as the reference the decoder is held to.
    fn element_reader(mut bytes: Bytes) -> io::Result<Csr> {
        use bytes::Buf;
        let total = bytes.remaining() as u64;
        let mut header = [0u8; HEADER_BYTES];
        let got = HEADER_BYTES.min(bytes.remaining());
        bytes.copy_to_slice(&mut header[..got]);
        let layout = Layout::parse(&header[..got], total)?;
        let (n, m, m64) = (layout.n, layout.m, layout.m as u64);
        let mut offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            let o = bytes.get_u64_le();
            if o > m64 {
                return Err(GraphError::ValueOutOfRange {
                    what: "offset",
                    value: o,
                    max: m64,
                }
                .into());
            }
            offsets.push(o as usize);
        }
        if *offsets.last().unwrap() != m {
            return Err(GraphError::OffsetEdgeMismatch {
                last: *offsets.last().unwrap(),
                edges: m,
            }
            .into());
        }
        if let Some(at) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::NonMonotoneOffsets { at }.into());
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let e = bytes.get_u32_le();
            if e as usize >= n {
                return Err(GraphError::EdgeTargetOutOfRange { dest: e, nodes: n }.into());
            }
            edges.push(e);
        }
        let weights = if layout.weighted {
            (0..m).map(|_| bytes.get_u32_le()).collect()
        } else {
            Vec::new()
        };
        let hole_mask = if layout.has_holes {
            let mut mask = Vec::with_capacity(n);
            let mut byte = 0u8;
            for v in 0..n {
                if v % 8 == 0 {
                    byte = bytes.get_u8();
                }
                mask.push(byte & (1 << (v % 8)) != 0);
            }
            mask
        } else {
            Vec::new()
        };
        Ok(Csr::try_from_parts(offsets, edges, weights, hole_mask)?)
    }

    /// Equal arrays, or the equal typed error.
    fn same_outcome(got: &io::Result<Csr>, want: &io::Result<Csr>) -> Result<(), String> {
        let holes = |g: &Csr| g.node_ids().map(|v| g.is_hole(v)).collect::<Vec<_>>();
        match (got, want) {
            (Ok(a), Ok(b)) => {
                let same = a.offsets() == b.offsets()
                    && a.edges_raw() == b.edges_raw()
                    && a.weights_raw() == b.weights_raw()
                    && holes(a) == holes(b);
                same.then_some(()).ok_or_else(|| "different arrays".into())
            }
            (Err(a), Err(b)) => match (GraphError::from_io(a), GraphError::from_io(b)) {
                (Some(a), Some(b)) if a == b => Ok(()),
                (a, b) => Err(format!("error {a:?}, want {b:?}")),
            },
            (a, b) => Err(format!("ok {}, want ok {}", a.is_ok(), b.is_ok())),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn block_decoder_equals_the_element_reader(
            g in crate::csr::tests::adversarial_graph(),
            damage in 0u8..6,
            at in 0usize..1 << 20,
            by in 1u8..=255,
        ) {
            let mut data = to_bytes(&g).to_vec();
            let i = at % data.len();
            match damage {
                1 => data.truncate(i),
                // Flip a byte, or one bit of it.
                2 => data[i] ^= by,
                3 => data[i] ^= 1 << (by % 8),
                // Inflate `n` (byte 8) or `m` (byte 16) by `by`.
                4 | 5 => {
                    let field = if damage == 4 { 8 } else { 16 };
                    let count = u64::from_le_bytes(data[field..field + 8].try_into().unwrap());
                    data[field..field + 8].copy_from_slice(&(count + by as u64).to_le_bytes());
                }
                _ => {}
            }
            let want = element_reader(Bytes::from(data.clone()));
            if damage == 0 {
                proptest::prop_assert!(want.is_ok());
            }
            let in_memory = from_bytes(Bytes::from(data.clone()));
            proptest::prop_assert_eq!(same_outcome(&in_memory, &want), Ok(()));
            let from_file = load_file("decoder-parity.gfx", &data);
            proptest::prop_assert_eq!(same_outcome(&from_file, &want), Ok(()));
        }
    }
}
