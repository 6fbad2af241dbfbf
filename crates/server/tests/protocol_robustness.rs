//! Protocol robustness suite (satellite 3).
//!
//! Every malformed or hostile input maps to a **typed** error response;
//! the connection stays usable afterwards and the server stays alive. The
//! overload test pins the distinct `overloaded` rejection from the bounded
//! admission queue.

use graffix_server::{Client, GraphRegistry, ServeConfig, Server, MAX_REQUEST_BYTES};
use graffix_sim::Json;
use std::time::{Duration, Instant};

fn registry() -> GraphRegistry {
    GraphRegistry::parse_list("small=rmat:300:3").unwrap()
}

fn start(mut f: impl FnMut(&mut ServeConfig)) -> (Server, String) {
    let mut config = ServeConfig::local(registry());
    f(&mut config);
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (server, addr)
}

fn error_kind(line: &str) -> String {
    let doc = Json::parse(line).expect("response is valid JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(false)),
        "expected error: {line}"
    );
    doc.path(&["error", "kind"])
        .and_then(Json::as_str)
        .expect("error has a kind")
        .to_string()
}

#[test]
fn bad_inputs_get_typed_errors_and_the_connection_survives() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect_tcp(&addr).unwrap();

    let cases: &[(&str, &str)] = &[
        ("this is not json", "bad-request"),
        ("[1,2,3]", "bad-request"),
        ("{\"algo\":\"sssp\"}", "bad-request"),
        (
            "{\"graph\":\"small\",\"algo\":\"dijkstra\"}",
            "unknown-algo",
        ),
        ("{\"graph\":\"nope\",\"algo\":\"sssp\"}", "unknown-graph"),
        (
            "{\"graph\":\"small\",\"algo\":\"sssp\",\"technique\":\"magic\"}",
            "unknown-technique",
        ),
        (
            "{\"graph\":\"small\",\"algo\":\"sssp\",\"direction\":\"sideways\"}",
            "unknown-direction",
        ),
        (
            "{\"graph\":\"small\",\"algo\":\"sssp\",\"baseline\":\"cuda\"}",
            "unknown-baseline",
        ),
        (
            "{\"graph\":\"small\",\"algo\":\"sssp\",\"source\":999999}",
            "bad-source",
        ),
        (
            "{\"graph\":\"small\",\"algo\":\"sssp\",\"source\":-4}",
            "bad-source",
        ),
        ("{\"op\":\"explode\"}", "unknown-op"),
        ("{\"graph\":17,\"algo\":\"sssp\"}", "bad-request"),
    ];
    for (line, want) in cases {
        let resp = c.call_line(line).unwrap();
        assert_eq!(&error_kind(&resp), want, "input: {line}");
    }

    // After the whole gauntlet, the same connection still serves real work.
    let resp = c
        .call_line("{\"id\":42,\"graph\":\"small\",\"algo\":\"bfs\"}")
        .unwrap();
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(42));

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn oversized_lines_are_rejected_and_discarded() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect_tcp(&addr).unwrap();

    let huge = format!(
        "{{\"graph\":\"small\",\"algo\":\"sssp\",\"pad\":\"{}\"}}\n",
        "x".repeat(MAX_REQUEST_BYTES + 128)
    );
    c.send_raw(huge.as_bytes()).unwrap();
    let resp = c.read_response_line().unwrap();
    assert_eq!(error_kind(&resp), "oversized");

    // The oversized line was consumed through its newline: the next
    // request parses cleanly.
    let resp = c
        .call_line("{\"graph\":\"small\",\"algo\":\"sssp\"}")
        .unwrap();
    assert_eq!(
        Json::parse(&resp).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );

    c.shutdown().unwrap();
    server.join();
}

/// Builds a valid run request padded to exactly `len` bytes (no newline).
fn padded_request(len: usize) -> String {
    let prefix = "{\"graph\":\"small\",\"algo\":\"sssp\",\"pad\":\"";
    let suffix = "\"}";
    let pad = len
        .checked_sub(prefix.len() + suffix.len())
        .expect("len larger than the JSON scaffolding");
    format!("{prefix}{}{suffix}", "x".repeat(pad))
}

#[test]
fn frame_cap_boundary_is_exact() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect_tcp(&addr).unwrap();

    // A line of exactly MAX_REQUEST_BYTES (newline excluded) is within the
    // contract and must be served normally.
    let at_cap = padded_request(MAX_REQUEST_BYTES);
    assert_eq!(at_cap.len(), MAX_REQUEST_BYTES);
    let resp = c.call_line(&at_cap).unwrap();
    assert_eq!(
        Json::parse(&resp).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "exactly-at-cap frame must be accepted: {resp}"
    );

    // One byte over the cap flips to the typed `oversized` rejection.
    let over_cap = padded_request(MAX_REQUEST_BYTES + 1);
    assert_eq!(over_cap.len(), MAX_REQUEST_BYTES + 1);
    let resp = c.call_line(&over_cap).unwrap();
    assert_eq!(error_kind(&resp), "oversized");

    // The over-cap line was discarded through its newline: the connection
    // is still in frame sync and serves the next request.
    let resp = c
        .call_line("{\"graph\":\"small\",\"algo\":\"sssp\"}")
        .unwrap();
    assert_eq!(
        Json::parse(&resp).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn truncated_frames_do_not_kill_the_server() {
    let (server, addr) = start(|_| {});

    // A client that sends half a JSON object and hangs up mid-frame.
    {
        let mut c = Client::connect_tcp(&addr).unwrap();
        c.send_raw(b"{\"graph\":\"small\",\"al").unwrap();
        // Drop without a newline: the server sees EOF with a partial line.
    }
    // And one that hangs up immediately after connecting.
    {
        let _c = Client::connect_tcp(&addr).unwrap();
    }

    // The server is still alive and serving other connections.
    let mut c = Client::connect_tcp(&addr).unwrap();
    let pong = c.ping().unwrap();
    assert_eq!(pong.path(&["result", "pong"]), Some(&Json::Bool(true)));

    // A truncated frame on a connection that stays open gets a typed
    // bad-request once the newline finally arrives.
    let mut t = Client::connect_tcp(&addr).unwrap();
    t.send_raw(b"{\"graph\":\"small\",\"al").unwrap();
    t.send_raw(b"\n").unwrap();
    let resp = t.read_response_line().unwrap();
    assert_eq!(error_kind(&resp), "bad-request");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn overload_returns_a_distinct_typed_rejection() {
    // One worker, tiny queue, debug sleeps allowed: stall the worker, fill
    // the queue, and the next submission must bounce with `overloaded`.
    let (server, addr) = start(|c| {
        c.workers = 1;
        c.queue_depth = 2;
        c.allow_debug_sleep = true;
    });

    let mut stall = Client::connect_tcp(&addr).unwrap();
    stall
        .send_raw(b"{\"id\":1,\"graph\":\"small\",\"algo\":\"bfs\",\"debug_sleep_ms\":1500}\n")
        .unwrap();
    // Give the worker a moment to dequeue the stalling job.
    std::thread::sleep(Duration::from_millis(300));

    // Fill the queue (depth 2), then overflow it.
    let mut filler = Client::connect_tcp(&addr).unwrap();
    filler
        .send_raw(b"{\"id\":2,\"graph\":\"small\",\"algo\":\"bfs\"}\n{\"id\":3,\"graph\":\"small\",\"algo\":\"bfs\"}\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let mut over = Client::connect_tcp(&addr).unwrap();
    let resp = over
        .call_line("{\"id\":4,\"graph\":\"small\",\"algo\":\"bfs\"}")
        .unwrap();
    assert_eq!(error_kind(&resp), "overloaded");
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(4));

    // Everything admitted still completes.
    let line = stall.read_response_line().unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(1));
    for id in [2u64, 3] {
        let line = filler.read_response_line().unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id));
    }

    // The overload shows up in metrics.
    let stats = over.stats().unwrap();
    assert_eq!(
        stats
            .path(&["result", "metrics", "errors", "overloaded"])
            .unwrap()
            .as_u64(),
        Some(1)
    );

    over.shutdown().unwrap();
    server.join();
}

#[test]
fn graceful_shutdown_drains_and_then_rejects() {
    let (server, addr) = start(|c| {
        c.workers = 1;
        c.allow_debug_sleep = true;
    });

    // An in-flight job that outlives the shutdown request.
    let mut inflight = Client::connect_tcp(&addr).unwrap();
    inflight
        .send_raw(b"{\"id\":1,\"graph\":\"small\",\"algo\":\"sssp\",\"debug_sleep_ms\":700}\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let mut admin = Client::connect_tcp(&addr).unwrap();
    let ack = admin.shutdown().unwrap();
    assert_eq!(ack.path(&["result", "draining"]), Some(&Json::Bool(true)));

    // Submissions on an existing connection now bounce with shutting-down.
    let resp = admin
        .call_line("{\"id\":9,\"graph\":\"small\",\"algo\":\"bfs\"}")
        .unwrap();
    assert_eq!(error_kind(&resp), "shutting-down");

    // The in-flight job still completes before the server exits.
    let line = inflight.read_response_line().unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(1));

    let start = Instant::now();
    server.join();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "join returns promptly after the drain"
    );
}

/// A sourceless traversal of a graph with no node is `bad-source`, and the
/// one worker that answered it answers the next request too. It used to
/// panic inside the worker, which then never answered again.
#[test]
fn a_traversal_of_an_empty_graph_is_bad_source_and_the_worker_lives_on() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-empty-graph");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.txt");
    std::fs::write(&empty, "").unwrap();
    let mut graphs = registry();
    graphs
        .insert_entry(&format!("empty={}", empty.display()))
        .unwrap();
    let mut config = ServeConfig::local(graphs);
    config.workers = 1;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut c = Client::connect_tcp(&addr).unwrap();
        for line in [
            "{\"id\":1,\"graph\":\"empty\",\"algo\":\"sssp\"}",
            "{\"id\":2,\"graph\":\"empty\",\"algo\":\"bfs\"}",
            "{\"id\":3,\"graph\":\"empty\",\"algo\":\"pr\"}",
            "{\"id\":4,\"graph\":\"small\",\"algo\":\"bfs\"}",
        ] {
            if tx.send(c.call_line(line).unwrap()).is_err() {
                return;
            }
        }
    });
    let answer = || {
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the worker answers");
        Json::parse(&line).expect("response is valid JSON")
    };
    for algo in ["sssp", "bfs"] {
        let doc = answer();
        assert_eq!(
            doc.path(&["error", "kind"]).and_then(Json::as_str),
            Some("bad-source")
        );
        let message = doc
            .path(&["error", "message"])
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(
            message,
            format!("graph `empty`: {algo} needs a source node and the graph has none")
        );
    }
    for id in [3, 4] {
        let doc = answer();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id));
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
