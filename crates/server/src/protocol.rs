//! The newline-delimited JSON wire protocol of `graffix serve`.
//!
//! One request per line, one response per line. Requests are JSON objects;
//! a request either names an admin `op` (`ping`, `stats`, `shutdown`) or
//! describes an algorithm run (`graph` + `algo` plus optional knobs).
//! Every response carries the request's `id` back, so clients may pipeline
//! requests and match responses out of order.
//!
//! Responses split into two sections with different determinism contracts:
//!
//! * `result` — a run-report excerpt that is a pure function of the
//!   request (algorithm values, simulated cycles, iterations). Byte-
//!   identical to a direct [`Runner`](graffix_algos::Runner) invocation at
//!   any worker count, pinned by `tests/serve_determinism.rs`.
//! * `serving` — wall-clock and machinery metadata (queue time, pool
//!   hit/miss, cache status, per-stage records, batch shape). Never
//!   compared byte-for-byte.
//!
//! Every failure mode maps to a typed error (`kind` + human `message`)
//! instead of a panic or a dropped connection; see [`ErrorKind`].

use graffix_algos::{Algo, Direction};
use graffix_baselines::Baseline;
use graffix_core::Technique;
use graffix_graph::mutation::EdgeBatch;
use graffix_graph::NodeId;
use graffix_sim::Json;

/// Hard cap on one request line. Anything longer is answered with an
/// `oversized` error and the rest of the line is discarded — the
/// connection stays usable.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Wire-level typed error kinds. The `kind` string is the stable contract
/// clients switch on; `message` is free-form diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Not valid JSON, not an object, or a field has the wrong type.
    BadRequest,
    /// `op` names no known admin operation.
    UnknownOp,
    /// `algo` names no known algorithm.
    UnknownAlgo,
    /// `graph` names no registered graph.
    UnknownGraph,
    /// `technique` names no known transform technique.
    UnknownTechnique,
    /// `direction` names no known traversal policy.
    UnknownDirection,
    /// `baseline` names no known execution baseline.
    UnknownBaseline,
    /// `source` is outside the graph's vertex range.
    BadSource,
    /// A `mutate` batch is malformed or cannot apply to the graph (id out
    /// of range, edge attached to a hole slot, ...).
    BadMutation,
    /// The request line exceeded [`MAX_REQUEST_BYTES`].
    Oversized,
    /// The bounded admission queue is full; retry later.
    Overloaded,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The registered graph could not be loaded from its source.
    GraphLoad,
    /// A server-side invariant failed (always a bug; reported, not a panic).
    Internal,
}

/// All kinds, for metrics table construction.
pub const ALL_ERROR_KINDS: [ErrorKind; 14] = [
    ErrorKind::BadRequest,
    ErrorKind::UnknownOp,
    ErrorKind::UnknownAlgo,
    ErrorKind::UnknownGraph,
    ErrorKind::UnknownTechnique,
    ErrorKind::UnknownDirection,
    ErrorKind::UnknownBaseline,
    ErrorKind::BadSource,
    ErrorKind::BadMutation,
    ErrorKind::Oversized,
    ErrorKind::Overloaded,
    ErrorKind::ShuttingDown,
    ErrorKind::GraphLoad,
    ErrorKind::Internal,
];

impl ErrorKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownOp => "unknown-op",
            ErrorKind::UnknownAlgo => "unknown-algo",
            ErrorKind::UnknownGraph => "unknown-graph",
            ErrorKind::UnknownTechnique => "unknown-technique",
            ErrorKind::UnknownDirection => "unknown-direction",
            ErrorKind::UnknownBaseline => "unknown-baseline",
            ErrorKind::BadSource => "bad-source",
            ErrorKind::BadMutation => "bad-mutation",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::GraphLoad => "graph-load",
            ErrorKind::Internal => "internal",
        }
    }

    /// Index into per-kind metric arrays.
    pub fn ordinal(self) -> usize {
        ALL_ERROR_KINDS
            .iter()
            .position(|k| *k == self)
            .expect("kind listed")
    }
}

/// A typed serving error: what went wrong, and why, in words.
#[derive(Clone, Debug)]
pub struct ServeError {
    pub kind: ErrorKind,
    pub message: String,
}

impl ServeError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
        }
    }
}

/// Admin operations a request line can name instead of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminOp {
    Ping,
    Stats,
    Shutdown,
}

/// One parsed run request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed on the response. Defaults 0.
    pub id: u64,
    /// Registered graph name.
    pub graph: String,
    pub algo: Algo,
    /// Explicit traversal source (SSSP/BFS). `None` = the graph's
    /// deterministic default source.
    pub source: Option<u32>,
    /// BC source-sample bound.
    pub bc_sources: usize,
    /// Transform technique key (`exact` when absent).
    pub technique: String,
    /// Optional technique threshold override (same semantics as the CLI
    /// `--threshold` flag).
    pub threshold: Option<f64>,
    pub direction: Direction,
    pub baseline: Baseline,
    /// Testing aid: hold the worker for this many milliseconds before
    /// executing. Honored only when the server was started with
    /// `allow_debug_sleep` (tests, benches); silently ignored otherwise.
    pub debug_sleep_ms: u64,
}

/// One parsed `mutate` request: a batch of edge inserts/deletes against a
/// registered graph. Applying it retires every pooled preparation of that
/// graph (they were built from the pre-mutation bytes).
#[derive(Clone, Debug)]
pub struct MutateRequest {
    /// Client-chosen correlation id, echoed on the response. Defaults 0.
    pub id: u64,
    /// Registered graph name.
    pub graph: String,
    /// The edge mutations to apply atomically.
    pub batch: EdgeBatch,
}

/// A parsed request line: an admin op, a run, or a mutation.
#[derive(Clone, Debug)]
pub enum Request {
    Admin { id: u64, op: AdminOp },
    Run(Box<RunRequest>),
    Mutate(Box<MutateRequest>),
}

impl Request {
    pub fn id(&self) -> u64 {
        match self {
            Request::Admin { id, .. } => *id,
            Request::Run(r) => r.id,
            Request::Mutate(m) => m.id,
        }
    }
}

/// Extracts the `id` from a possibly-unparseable line so error responses
/// can still correlate. Falls back to 0.
pub fn best_effort_id(doc: &Json) -> u64 {
    doc.get("id").and_then(Json::as_u64).unwrap_or(0)
}

fn field_u64(doc: &Json, key: &str, default: u64) -> Result<u64, ServeError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ServeError::new(ErrorKind::BadRequest, format!("`{key}` must be a u64"))
        }),
    }
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, ServeError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or_else(|| {
            ServeError::new(ErrorKind::BadRequest, format!("`{key}` must be a string"))
        }),
    }
}

/// Parses one request line. Typed errors for every malformed shape; never
/// panics on any input.
pub fn parse_request(line: &str) -> Result<Request, (u64, ServeError)> {
    let doc = Json::parse(line).map_err(|e| {
        (
            0,
            ServeError::new(ErrorKind::BadRequest, format!("invalid JSON: {e}")),
        )
    })?;
    if doc.as_obj().is_none() {
        return Err((
            0,
            ServeError::new(ErrorKind::BadRequest, "request must be a JSON object"),
        ));
    }
    let id = best_effort_id(&doc);
    let fail = |e: ServeError| (id, e);

    if let Some(op) = field_str(&doc, "op").map_err(fail)? {
        let op = match op {
            "ping" => AdminOp::Ping,
            "stats" => AdminOp::Stats,
            "shutdown" => AdminOp::Shutdown,
            "run" => {
                return parse_run(&doc, id)
                    .map(|r| Request::Run(Box::new(r)))
                    .map_err(fail);
            }
            "mutate" => {
                return parse_mutate(&doc, id)
                    .map(|m| Request::Mutate(Box::new(m)))
                    .map_err(fail);
            }
            other => {
                return Err(fail(ServeError::new(
                    ErrorKind::UnknownOp,
                    format!("unknown op `{other}` (want run|mutate|ping|stats|shutdown)"),
                )));
            }
        };
        return Ok(Request::Admin { id, op });
    }
    parse_run(&doc, id)
        .map(|r| Request::Run(Box::new(r)))
        .map_err(fail)
}

fn parse_run(doc: &Json, id: u64) -> Result<RunRequest, ServeError> {
    let graph = field_str(doc, "graph")?
        .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "missing `graph`"))?
        .to_string();
    let algo_name = field_str(doc, "algo")?
        .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "missing `algo`"))?;
    let algo = Algo::parse(algo_name).ok_or_else(|| {
        ServeError::new(
            ErrorKind::UnknownAlgo,
            format!("unknown algo `{algo_name}`"),
        )
    })?;
    let source = match doc.get("source") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .and_then(|s| u32::try_from(s).ok())
                .ok_or_else(|| ServeError::new(ErrorKind::BadSource, "`source` must be a u32"))?,
        ),
    };
    let technique = field_str(doc, "technique")?.unwrap_or("exact");
    let parsed_technique = Technique::from_key(technique).ok_or_else(|| {
        ServeError::new(
            ErrorKind::UnknownTechnique,
            format!("unknown technique `{technique}`"),
        )
    })?;
    // The CLI's `--threshold` rule: a value no knob would take, or one out
    // of range, is refused here and never reaches a pool or batch key.
    let threshold = match doc.get("threshold") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let x = v.as_f64().ok_or_else(|| {
                ServeError::new(ErrorKind::BadRequest, "`threshold` must be a number")
            })?;
            parsed_technique.check_threshold(x).map_err(|e| {
                ServeError::new(ErrorKind::BadRequest, format!("bad `threshold`: {e}"))
            })?;
            Some(x)
        }
    };
    let direction = match field_str(doc, "direction")? {
        None => Direction::Push,
        Some(s) => Direction::from_key(s).ok_or_else(|| {
            ServeError::new(
                ErrorKind::UnknownDirection,
                format!("unknown direction `{s}` (want push|pull|auto)"),
            )
        })?,
    };
    let baseline = match field_str(doc, "baseline")? {
        None => Baseline::Lonestar,
        Some(s) => Baseline::from_key(s).ok_or_else(|| {
            ServeError::new(
                ErrorKind::UnknownBaseline,
                format!("unknown baseline `{s}`"),
            )
        })?,
    };
    Ok(RunRequest {
        id,
        graph,
        algo,
        source,
        bc_sources: field_u64(doc, "bc_sources", 4)? as usize,
        technique: technique.to_string(),
        threshold,
        direction,
        baseline,
        debug_sleep_ms: field_u64(doc, "debug_sleep_ms", 0)?,
    })
}

/// One wire-encoded node id: a u64 strictly below `u32::MAX` (the
/// `INVALID_NODE` sentinel is not addressable).
fn mutation_id(v: &Json, what: &str) -> Result<NodeId, ServeError> {
    v.as_u64()
        .filter(|&x| x < u32::MAX as u64)
        .map(|x| x as NodeId)
        .ok_or_else(|| {
            ServeError::new(
                ErrorKind::BadMutation,
                format!("{what} must be a node id below {}", u32::MAX),
            )
        })
}

/// Parses a `mutate` op: `insert` is an array of `[u, v]` / `[u, v, w]`
/// triples, `delete` an array of `[u, v]` pairs; both optional (an empty
/// batch is legal and a no-op).
fn parse_mutate(doc: &Json, id: u64) -> Result<MutateRequest, ServeError> {
    let graph = field_str(doc, "graph")?
        .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "missing `graph`"))?
        .to_string();
    let mut batch = EdgeBatch::new();
    let entries = |key: &str| -> Result<&[Json], ServeError> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(&[]),
            Some(v) => v.as_arr().ok_or_else(|| {
                ServeError::new(
                    ErrorKind::BadMutation,
                    format!("`{key}` must be an array of edge tuples"),
                )
            }),
        }
    };
    for e in entries("insert")? {
        let tuple = e.as_arr().filter(|t| t.len() == 2 || t.len() == 3);
        let Some(tuple) = tuple else {
            return Err(ServeError::new(
                ErrorKind::BadMutation,
                "`insert` entries must be [u, v] or [u, v, w]",
            ));
        };
        let u = mutation_id(&tuple[0], "insert src")?;
        let v = mutation_id(&tuple[1], "insert dst")?;
        let w = match tuple.get(2) {
            None => 1,
            Some(w) => w
                .as_u64()
                .filter(|&x| x <= u32::MAX as u64)
                .map(|x| x as u32)
                .ok_or_else(|| {
                    ServeError::new(ErrorKind::BadMutation, "insert weight must be a u32")
                })?,
        };
        batch.insert(u, v, w);
    }
    for e in entries("delete")? {
        let tuple = e.as_arr().filter(|t| t.len() == 2);
        let Some(tuple) = tuple else {
            return Err(ServeError::new(
                ErrorKind::BadMutation,
                "`delete` entries must be [u, v]",
            ));
        };
        let u = mutation_id(&tuple[0], "delete src")?;
        let v = mutation_id(&tuple[1], "delete dst")?;
        batch.delete(u, v);
    }
    Ok(MutateRequest { id, graph, batch })
}

/// Encodes an error response line.
pub fn error_response(id: u64, err: &ServeError) -> Json {
    let mut e = Json::obj();
    e.set("kind", Json::Str(err.kind.label().to_string()));
    e.set("message", Json::Str(err.message.clone()));
    let mut root = Json::obj();
    root.set("id", Json::U64(id));
    root.set("ok", Json::Bool(false));
    root.set("error", e);
    root
}

/// Encodes a success response line. `serving` metadata is attached after
/// the deterministic `result` so excerpt comparisons can strip it by key.
pub fn ok_response(id: u64, result: Json, serving: Option<Json>) -> Json {
    let mut root = Json::obj();
    root.set("id", Json::U64(id));
    root.set("ok", Json::Bool(true));
    root.set("result", result);
    if let Some(s) = serving {
        root.set("serving", s);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_run() {
        let r = parse_request(r#"{"graph":"g","algo":"sssp"}"#).unwrap();
        let Request::Run(r) = r else {
            panic!("want run")
        };
        assert_eq!(r.graph, "g");
        assert_eq!(r.algo, Algo::Sssp);
        assert_eq!(r.id, 0);
        assert_eq!(r.technique, "exact");
        assert_eq!(r.direction, Direction::Push);
        assert_eq!(r.baseline, Baseline::Lonestar);
        assert_eq!(r.source, None);
    }

    #[test]
    fn parses_full_run() {
        let r = parse_request(
            r#"{"id":7,"graph":"g","algo":"bfs","source":3,"technique":"coalescing","threshold":0.5,"direction":"auto","baseline":"gunrock","bc_sources":2}"#,
        )
        .unwrap();
        let Request::Run(r) = r else {
            panic!("want run")
        };
        assert_eq!(r.id, 7);
        assert_eq!(r.source, Some(3));
        assert_eq!(r.technique, "coalescing");
        assert_eq!(r.threshold, Some(0.5));
        assert_eq!(r.direction, Direction::Auto);
        assert_eq!(r.baseline, Baseline::Gunrock);
        assert_eq!(r.bc_sources, 2);
    }

    #[test]
    fn parses_mutate_op() {
        let r = parse_request(
            r#"{"id":5,"op":"mutate","graph":"g","insert":[[1,2],[3,4,9]],"delete":[[0,1]]}"#,
        )
        .unwrap();
        let Request::Mutate(m) = r else {
            panic!("want mutate")
        };
        assert_eq!(m.id, 5);
        assert_eq!(m.graph, "g");
        assert_eq!(m.batch.inserts(), &[(1, 2, 1), (3, 4, 9)]);
        assert_eq!(m.batch.deletes(), &[(0, 1)]);

        // Both edge lists are optional: an empty mutation parses.
        let r = parse_request(r#"{"op":"mutate","graph":"g"}"#).unwrap();
        let Request::Mutate(m) = r else {
            panic!("want mutate")
        };
        assert!(m.batch.is_empty());
    }

    #[test]
    fn typed_errors_for_malformed_mutations() {
        let cases: &[(&str, ErrorKind)] = &[
            (r#"{"op":"mutate"}"#, ErrorKind::BadRequest),
            (
                r#"{"op":"mutate","graph":"g","insert":3}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","insert":[[1]]}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","insert":[[1,2,3,4]]}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","delete":[[1,2,3]]}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","insert":[[1,4294967295]]}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","delete":[[-1,2]]}"#,
                ErrorKind::BadMutation,
            ),
            (
                r#"{"op":"mutate","graph":"g","insert":[[1,2,4294967296]]}"#,
                ErrorKind::BadMutation,
            ),
        ];
        for (line, want) in cases {
            let (_, err) = parse_request(line).expect_err(line);
            assert_eq!(err.kind, *want, "{line}: {}", err.message);
        }
    }

    #[test]
    fn typed_errors_for_malformed_shapes() {
        let cases: &[(&str, ErrorKind)] = &[
            ("not json", ErrorKind::BadRequest),
            ("[1,2]", ErrorKind::BadRequest),
            (r#"{"algo":"sssp"}"#, ErrorKind::BadRequest),
            (r#"{"graph":"g"}"#, ErrorKind::BadRequest),
            (r#"{"graph":"g","algo":"dijkstra"}"#, ErrorKind::UnknownAlgo),
            (
                r#"{"graph":"g","algo":"sssp","technique":"magic"}"#,
                ErrorKind::UnknownTechnique,
            ),
            (
                r#"{"graph":"g","algo":"sssp","direction":"sideways"}"#,
                ErrorKind::UnknownDirection,
            ),
            (
                r#"{"graph":"g","algo":"sssp","baseline":"cuda"}"#,
                ErrorKind::UnknownBaseline,
            ),
            (
                r#"{"graph":"g","algo":"sssp","source":-1}"#,
                ErrorKind::BadSource,
            ),
            (r#"{"op":"explode"}"#, ErrorKind::UnknownOp),
            (r#"{"graph":3,"algo":"sssp"}"#, ErrorKind::BadRequest),
            // A threshold no knob would take, or one out of range.
            (
                r#"{"graph":"g","algo":"sssp","threshold":0.4}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"graph":"g","algo":"sssp","technique":"combined","threshold":0.4}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"graph":"g","algo":"sssp","technique":"latency","threshold":7}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"graph":"g","algo":"sssp","technique":"divergence","threshold":-0.1}"#,
                ErrorKind::BadRequest,
            ),
        ];
        for (line, want) in cases {
            let (_, err) = parse_request(line).expect_err(line);
            assert_eq!(err.kind, *want, "{line}: {}", err.message);
        }
    }

    #[test]
    fn admin_ops_parse_and_echo_ids() {
        for (line, op) in [
            (r#"{"id":9,"op":"ping"}"#, AdminOp::Ping),
            (r#"{"op":"stats"}"#, AdminOp::Stats),
            (r#"{"op":"shutdown"}"#, AdminOp::Shutdown),
        ] {
            let r = parse_request(line).unwrap();
            let Request::Admin { op: got, .. } = r else {
                panic!("want admin")
            };
            assert_eq!(got, op);
        }
        assert_eq!(parse_request(r#"{"id":9,"op":"ping"}"#).unwrap().id(), 9);
    }

    #[test]
    fn responses_are_single_line_and_round_trip() {
        let err = ServeError::new(ErrorKind::Overloaded, "queue full (depth 4)");
        let line = error_response(3, &err).to_compact_string();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(
            back.path(&["error", "kind"]).unwrap().as_str(),
            Some("overloaded")
        );
        assert_eq!(back.get("ok"), Some(&Json::Bool(false)));

        let ok = ok_response(4, Json::obj(), Some(Json::obj())).to_compact_string();
        assert!(!ok.contains('\n'));
        let back = Json::parse(&ok).unwrap();
        assert_eq!(back.get("id").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn error_kind_ordinals_are_dense_and_unique() {
        for (i, k) in ALL_ERROR_KINDS.iter().enumerate() {
            assert_eq!(k.ordinal(), i);
        }
    }
}
