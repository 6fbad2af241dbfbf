//! The graph registry: names the graphs a server instance is willing to
//! serve and knows how to (re)load each one.
//!
//! A registered graph is either a **generator spec** (`kind:nodes:seed`,
//! e.g. `rmat:4096:7`) or a **file path** (`.gfx` binary, `.gr` DIMACS,
//! anything else as an edge list — read by
//! `graffix_graph::io::load_graph_file`, the CLI's loader too). Generator
//! specs make serving fully hermetic: the daemon, the determinism tests,
//! and the serving bench can all name identical graphs without shipping
//! files.

use graffix_graph::generators::{GraphKind, GraphSpec};
use graffix_graph::{io as gio, Csr};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// Where a registered graph's bytes come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// Deterministic generator spec.
    Spec(GraphSpec),
    /// On-disk graph file (format sniffed from the extension).
    File(PathBuf),
}

impl GraphSource {
    /// Parses the value side of a registry entry: `kind:nodes:seed` when it
    /// matches a known generator, otherwise a file path.
    pub fn parse(value: &str) -> Result<GraphSource, String> {
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() == 3 {
            if let Some(kind) = GraphKind::from_key(parts[0]) {
                let nodes: usize = parts[1]
                    .parse()
                    .map_err(|_| format!("bad node count in spec `{value}`"))?;
                let seed: u64 = parts[2]
                    .parse()
                    .map_err(|_| format!("bad seed in spec `{value}`"))?;
                if nodes == 0 {
                    return Err(format!("spec `{value}` has zero nodes"));
                }
                return Ok(GraphSource::Spec(GraphSpec::new(kind, nodes, seed)));
            }
        }
        Ok(GraphSource::File(PathBuf::from(value)))
    }

    /// Loads (or generates) the graph.
    pub fn load(&self) -> io::Result<Csr> {
        match self {
            GraphSource::Spec(spec) => Ok(spec.generate()),
            GraphSource::File(path) => gio::load_graph_file(path),
        }
    }
}

/// Named graph sources, iteration-stable (BTreeMap) so `stats` output and
/// logs are deterministic.
#[derive(Clone, Debug, Default)]
pub struct GraphRegistry {
    map: BTreeMap<String, GraphSource>,
}

impl GraphRegistry {
    pub fn new() -> GraphRegistry {
        GraphRegistry::default()
    }

    /// Registers `name`, replacing any previous source under it.
    pub fn insert(&mut self, name: impl Into<String>, source: GraphSource) {
        self.map.insert(name.into(), source);
    }

    /// Parses one `name=spec-or-path` entry.
    pub fn insert_entry(&mut self, entry: &str) -> Result<(), String> {
        let (name, value) = entry
            .split_once('=')
            .ok_or_else(|| format!("registry entry `{entry}` is not name=spec-or-path"))?;
        if name.is_empty() || value.is_empty() {
            return Err(format!("registry entry `{entry}` has an empty side"));
        }
        let source = GraphSource::parse(value)?;
        self.insert(name, source);
        Ok(())
    }

    /// Parses a comma-separated list of entries (the CLI `--graphs` flag).
    pub fn parse_list(list: &str) -> Result<GraphRegistry, String> {
        let mut reg = GraphRegistry::new();
        for entry in list.split(',').filter(|e| !e.is_empty()) {
            reg.insert_entry(entry)?;
        }
        if reg.is_empty() {
            return Err("no graphs registered".to_string());
        }
        Ok(reg)
    }

    pub fn get(&self, name: &str) -> Option<&GraphSource> {
        self.map.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_specs_and_paths() {
        let s = GraphSource::parse("rmat:512:9").unwrap();
        assert_eq!(
            s,
            GraphSource::Spec(GraphSpec::new(GraphKind::Rmat, 512, 9))
        );
        let s = GraphSource::parse("graphs/web.gfx").unwrap();
        assert_eq!(s, GraphSource::File(PathBuf::from("graphs/web.gfx")));
        // A colon-bearing path that is not a known generator stays a path.
        let s = GraphSource::parse("weird:file:name").unwrap();
        assert_eq!(s, GraphSource::File(PathBuf::from("weird:file:name")));
        assert!(GraphSource::parse("rmat:zero:9").is_err());
        assert!(GraphSource::parse("rmat:0:9").is_err());
    }

    #[test]
    fn spec_loads_deterministically() {
        let s = GraphSource::parse("random:300:4").unwrap();
        let a = s.load().unwrap();
        let b = s.load().unwrap();
        assert_eq!(
            &graffix_graph::serialize::to_bytes(&a)[..],
            &graffix_graph::serialize::to_bytes(&b)[..],
            "generator specs must reload bit-identically"
        );
    }

    #[test]
    fn registry_list_round_trip() {
        let reg = GraphRegistry::parse_list("a=rmat:256:1,b=road:256:2").unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("a").is_some());
        assert!(reg.get("missing").is_none());
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(GraphRegistry::parse_list("").is_err());
        assert!(GraphRegistry::parse_list("noequals").is_err());
        assert!(GraphRegistry::parse_list("=x").is_err());
    }
}
