//! End-to-end `mutate` op suite (streaming tentpole, server side).
//!
//! A `mutate` batch applied over the wire must retire every pooled
//! prepared entry for that graph, later runs must observe the mutated
//! topology, and a revert batch must restore **byte-identical** results —
//! the determinism contract extended across mutations.

use graffix_server::{Client, GraphRegistry, ServeConfig, Server};
use graffix_sim::Json;

fn start() -> (Server, String) {
    let registry = GraphRegistry::parse_list("small=rmat:400:7").unwrap();
    let server = Server::start(ServeConfig::local(registry)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (server, addr)
}

fn ok_doc(line: &str) -> Json {
    let doc = Json::parse(line).expect("response is valid JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&Json::Bool(true)),
        "expected ok: {line}"
    );
    doc
}

fn result_bytes(doc: &Json) -> String {
    doc.get("result").unwrap().to_compact_string()
}

#[test]
fn mutate_retires_pooled_entries_and_revert_restores_byte_identical_results() {
    let (server, addr) = start();
    let mut c = Client::connect_tcp(&addr).unwrap();
    let run = r#"{"id":1,"graph":"small","algo":"sssp","source":5}"#;

    // Warm the pool and record the pre-mutation baseline.
    let baseline = ok_doc(&c.call_line(run).unwrap());
    assert_eq!(
        baseline.path(&["serving", "pool"]).unwrap().as_str(),
        Some("miss")
    );
    let warm = ok_doc(&c.call_line(run).unwrap());
    assert_eq!(
        warm.path(&["serving", "pool"]).unwrap().as_str(),
        Some("hit")
    );
    assert_eq!(result_bytes(&baseline), result_bytes(&warm));

    // Insert two fresh arcs. The fixed rmat seed makes the outcome
    // deterministic: both must be genuine inserts (reweights would break
    // the revert step below).
    let mutate = ok_doc(
        &c.call_line(r#"{"id":2,"op":"mutate","graph":"small","insert":[[1,399,5],[2,398,9]]}"#)
            .unwrap(),
    );
    assert_eq!(
        mutate.path(&["result", "inserted"]).unwrap().as_u64(),
        Some(2)
    );
    assert_eq!(
        mutate.path(&["result", "reweighted"]).unwrap().as_u64(),
        Some(0)
    );
    assert!(
        mutate.path(&["result", "invalidated"]).unwrap().as_u64() >= Some(1),
        "the pooled prepared entry must be retired"
    );

    // The next run re-prepares against the mutated topology.
    let mutated = ok_doc(&c.call_line(run).unwrap());
    assert_eq!(
        mutated.path(&["serving", "pool"]).unwrap().as_str(),
        Some("miss"),
        "mutation must not serve a stale pooled entry"
    );

    // Revert: delete exactly the arcs we inserted. The graph is restored,
    // so results must be byte-identical to the pre-mutation baseline.
    let revert = ok_doc(
        &c.call_line(r#"{"id":3,"op":"mutate","graph":"small","delete":[[1,399],[2,398]]}"#)
            .unwrap(),
    );
    assert_eq!(
        revert.path(&["result", "deleted"]).unwrap().as_u64(),
        Some(2)
    );
    let restored = ok_doc(&c.call_line(run).unwrap());
    assert_eq!(
        result_bytes(&restored),
        result_bytes(&baseline),
        "revert must restore byte-identical results"
    );

    // Bookkeeping: both mutations counted, invalidations visible in stats.
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .path(&["result", "metrics", "mutations"])
            .unwrap()
            .as_u64(),
        Some(2)
    );
    assert!(
        stats
            .path(&["result", "pool", "invalidations"])
            .unwrap()
            .as_u64()
            >= Some(2),
        "stats must surface pool invalidations"
    );

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn malformed_mutations_get_typed_errors_over_the_wire() {
    let (server, addr) = start();
    let mut c = Client::connect_tcp(&addr).unwrap();

    let cases: &[(&str, &str)] = &[
        // No target graph.
        (r#"{"op":"mutate","insert":[[0,1]]}"#, "bad-request"),
        // Unregistered graph.
        (
            r#"{"op":"mutate","graph":"nope","insert":[[0,1]]}"#,
            "unknown-graph",
        ),
        // Node id outside the graph.
        (
            r#"{"op":"mutate","graph":"small","insert":[[0,999999]]}"#,
            "bad-mutation",
        ),
        // Malformed pair shape.
        (
            r#"{"op":"mutate","graph":"small","insert":[[0]]}"#,
            "bad-mutation",
        ),
    ];
    for (line, want) in cases {
        let resp = c.call_line(line).unwrap();
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "input: {line}");
        assert_eq!(
            doc.path(&["error", "kind"]).and_then(Json::as_str),
            Some(*want),
            "input: {line}"
        );
    }

    // The connection survives the gauntlet and real work still flows.
    let doc = ok_doc(
        &c.call_line(r#"{"id":9,"graph":"small","algo":"bfs"}"#)
            .unwrap(),
    );
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(9));

    c.shutdown().unwrap();
    server.join();
}
