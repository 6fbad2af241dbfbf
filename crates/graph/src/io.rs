//! Graph I/O: plain edge-list text and DIMACS `.gr` (the format of the
//! paper's USA-road input), both directions, and the one by-extension
//! loader and saver every graph file goes through. Readers are tolerant of
//! comments and blank lines so real downloaded datasets drop in unchanged.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, NodeId};
use crate::serialize;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `g` as whitespace-separated `src dst [weight]` lines.
pub fn write_edge_list<W: Write>(g: &Csr, out: W) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    for (u, v, w) in g.edge_triples() {
        if g.is_weighted() {
            writeln!(out, "{u} {v} {w}")?;
        } else {
            writeln!(out, "{u} {v}")?;
        }
    }
    out.flush()
}

/// Reads an edge list (`src dst [weight]` per line, `#`/`%` comments).
/// Node count is `1 + max id` unless `num_nodes` is given.
pub fn read_edge_list<R: Read>(input: R, num_nodes: Option<usize>) -> io::Result<Csr> {
    let reader = BufReader::new(input);
    let mut arcs: Vec<(NodeId, NodeId, Option<u32>)> = Vec::new();
    let mut max_id: usize = 0;
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| {
            s.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {e}")))
        };
        let check_id = |x: u64, what: &str| {
            // Ids must stay below the INVALID_NODE sentinel (u32::MAX).
            if x >= u32::MAX as u64 {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{what} {x} exceeds the u32 id space"),
                ))
            } else {
                Ok(x as usize)
            }
        };
        let src = check_id(parse(parts.next(), "src")?, "src")?;
        let dst = check_id(parse(parts.next(), "dst")?, "dst")?;
        let weight = match parts.next() {
            Some(w) => Some(w.parse::<u32>().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad weight: {e}"))
            })?),
            None => None,
        };
        max_id = max_id.max(src).max(dst);
        arcs.push((src as NodeId, dst as NodeId, weight));
    }
    let n = num_nodes.unwrap_or(if arcs.is_empty() { 0 } else { max_id + 1 });
    let weighted = arcs.iter().any(|a| a.2.is_some());
    let mut b = GraphBuilder::new(n);
    for (s, d, w) in arcs {
        if weighted {
            b.add_weighted_edge(s, d, w.unwrap_or(1));
        } else {
            b.add_edge(s, d);
        }
    }
    Ok(b.build())
}

/// Writes `g` in DIMACS shortest-path format (`p sp n m`, 1-based `a u v w`
/// arc lines).
pub fn write_dimacs<W: Write>(g: &Csr, out: W) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "c graffix export")?;
    writeln!(out, "p sp {} {}", g.num_nodes(), g.num_edges())?;
    for (u, v, w) in g.edge_triples() {
        writeln!(out, "a {} {} {}", u + 1, v + 1, w)?;
    }
    out.flush()
}

/// Reads a DIMACS `.gr` file (1-based ids, `c` comments, `p sp n m` header).
pub fn read_dimacs<R: Read>(input: R) -> io::Result<Csr> {
    let reader = BufReader::new(input);
    let mut builder: Option<GraphBuilder> = None;
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        if let Some(rest) = t.strip_prefix("p ") {
            let mut parts = rest.split_whitespace();
            let _kind = parts.next();
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad p line"))?;
            if n > u32::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node count {n} exceeds the u32 id space"),
                ));
            }
            builder = Some(GraphBuilder::new(n));
        } else if let Some(rest) = t.strip_prefix("a ") {
            let b = builder
                .as_mut()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "arc before p line"))?;
            let mut parts = rest.split_whitespace();
            let mut next_num = || -> io::Result<u64> {
                parts
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short a line"))?
                    .parse()
                    .map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad a line: {e}"))
                    })
            };
            // Ids are 1-based; range-check *before* narrowing so an id of 0
            // cannot wrap to u32::MAX and a huge id cannot truncate.
            let mut node = |what: &'static str| -> io::Result<NodeId> {
                let x = next_num()?;
                if x == 0 || x > u32::MAX as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{what} {x} outside the 1-based u32 id space"),
                    ));
                }
                Ok((x - 1) as NodeId)
            };
            let u = node("src")?;
            let v = node("dst")?;
            let w = next_num()?;
            if w > u32::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("weight {w} exceeds u32"),
                ));
            }
            b.add_weighted_edge(u, v, w as u32);
        }
    }
    builder
        .map(GraphBuilder::build)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing p line"))
}

/// Convenience: writes an edge list to `path`.
pub fn save_edge_list<P: AsRef<Path>>(g: &Csr, path: P) -> io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Convenience: reads an edge list from `path`.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    read_edge_list(std::fs::File::open(path)?, None)
}

/// Reads a graph file in the format its extension names: `.gfx` (binary
/// GFX1), `.gr` (DIMACS), anything else a whitespace edge list.
pub fn load_graph_file(path: &Path) -> io::Result<Csr> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("gfx") => serialize::load_binary(path),
        Some("gr") => std::fs::File::open(path).and_then(read_dimacs),
        _ => load_edge_list(path),
    }
}

/// Writes `g` in the format `path`'s extension names (see
/// [`load_graph_file`]).
pub fn save_graph_file(g: &Csr, path: &Path) -> io::Result<()> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("gfx") => serialize::save_binary(g, path),
        Some("gr") => std::fs::File::create(path).and_then(|f| write_dimacs(g, f)),
        _ => save_edge_list(g, path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weighted() -> Csr {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5);
        b.add_weighted_edge(1, 2, 7);
        b.add_weighted_edge(2, 0, 9);
        b.build()
    }

    #[test]
    fn edge_list_roundtrip_weighted() {
        let g = sample_weighted();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], None).unwrap();
        assert_eq!(g.offsets(), g2.offsets());
        assert_eq!(g.edges_raw(), g2.edges_raw());
        assert_eq!(g.weights_raw(), g2.weights_raw());
    }

    #[test]
    fn edge_list_roundtrip_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], None).unwrap();
        assert!(!g2.is_weighted());
        assert_eq!(g2.neighbors(0), &[1]);
    }

    #[test]
    fn edge_list_skips_comments() {
        let text = "# header\n% other comment\n0 1\n\n1 0\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_explicit_node_count() {
        let g = read_edge_list("0 1\n".as_bytes(), Some(10)).unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = sample_weighted();
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(&buf[..]).unwrap();
        assert_eq!(g.edges_raw(), g2.edges_raw());
        assert_eq!(g.weights_raw(), g2.weights_raw());
    }

    #[test]
    fn dimacs_rejects_missing_header() {
        assert!(read_dimacs("a 1 2 3\n".as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("not a graph\n".as_bytes(), None).is_err());
    }
}
