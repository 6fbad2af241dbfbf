//! Serving determinism suite (acceptance-gating).
//!
//! The daemon's load-bearing promise: the `result` section of every
//! response is a pure function of the request. The same request mix —
//! shuffled arrival order, 1, 2, and 8 worker threads, two pipelining
//! connections — must produce byte-identical `result` documents to
//! from-scratch [`run_direct`] invocations (no pool, no cache, no server
//! threads), and every admitted request is its own execution.

use graffix_server::{run_direct, Client, GraphRegistry, RunRequest, ServeConfig, Server};
use graffix_sim::GpuConfig;
use graffix_sim::Json;
use std::collections::BTreeMap;

fn registry() -> GraphRegistry {
    GraphRegistry::parse_list("small=rmat:400:3,road=road:400:11").unwrap()
}

/// A deterministic xorshift for shuffling, since the test must not depend
/// on ambient randomness.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The request mix: every algorithm, both graphs, several techniques and
/// directions, duplicate sources, and default sources.
fn request_mix() -> Vec<Json> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    let mut push = |fields: &[(&str, Json)]| {
        id += 1;
        let mut o = Json::obj();
        o.set("id", Json::U64(id));
        for (k, v) in fields {
            o.set(k, v.clone());
        }
        reqs.push(o);
    };
    let s = |v: &str| Json::Str(v.to_string());

    for graph in ["small", "road"] {
        for algo in ["sssp", "bfs"] {
            // Default source, explicit source, duplicated source.
            push(&[("graph", s(graph)), ("algo", s(algo))]);
            push(&[
                ("graph", s(graph)),
                ("algo", s(algo)),
                ("source", Json::U64(5)),
            ]);
            push(&[
                ("graph", s(graph)),
                ("algo", s(algo)),
                ("source", Json::U64(5)),
            ]);
            push(&[
                ("graph", s(graph)),
                ("algo", s(algo)),
                ("technique", s("coalescing")),
            ]);
            push(&[
                ("graph", s(graph)),
                ("algo", s(algo)),
                ("direction", s("auto")),
            ]);
        }
        push(&[("graph", s(graph)), ("algo", s("pr"))]);
        push(&[
            ("graph", s(graph)),
            ("algo", s("wcc")),
            ("technique", s("latency")),
        ]);
        push(&[("graph", s(graph)), ("algo", s("scc"))]);
        push(&[("graph", s(graph)), ("algo", s("mst"))]);
        push(&[
            ("graph", s(graph)),
            ("algo", s("bc")),
            ("bc_sources", Json::U64(2)),
        ]);
        push(&[
            ("graph", s(graph)),
            ("algo", s("sssp")),
            ("technique", s("combined")),
            ("baseline", s("gunrock")),
        ]);
    }
    reqs
}

/// Direct-runner oracle: request id -> byte-exact `result` string.
fn oracle(reqs: &[Json]) -> BTreeMap<u64, String> {
    let reg = registry();
    let gpu = GpuConfig::k40c();
    reqs.iter()
        .map(|doc| {
            let parsed = graffix_server::parse_request(&doc.to_compact_string()).unwrap();
            let graffix_server::Request::Run(run) = parsed else {
                panic!("mix contains only runs")
            };
            let req: RunRequest = *run;
            let result = run_direct(&req, &reg, &gpu).unwrap();
            (req.id, result.to_compact_string())
        })
        .collect()
}

/// Runs the mix against a live server whose pool holds `pool_capacity`
/// entries and returns id -> `result` bytes.
fn serve_mix(
    reqs: &[Json],
    workers: usize,
    pool_capacity: usize,
    seed: u64,
) -> BTreeMap<u64, String> {
    let mut config = ServeConfig::local(registry());
    config.workers = workers;
    config.pool_capacity = pool_capacity;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap();

    let mut shuffled: Vec<&Json> = reqs.iter().collect();
    shuffle(&mut shuffled, &mut Rng(seed));

    // Two pipelining connections, requests interleaved across them, so the
    // queue actually holds concurrent work.
    let mut clients = [
        Client::connect_tcp(&addr.to_string()).unwrap(),
        Client::connect_tcp(&addr.to_string()).unwrap(),
    ];
    for (i, doc) in shuffled.iter().enumerate() {
        clients[i % 2]
            .send_raw(format!("{}\n", doc.to_compact_string()).as_bytes())
            .unwrap();
    }
    let mut out = BTreeMap::new();
    for (i, _) in shuffled.iter().enumerate() {
        let line = clients[i % 2].read_response_line().unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(
            doc.get("ok"),
            Some(&Json::Bool(true)),
            "request must succeed: {line}"
        );
        let id = doc.get("id").unwrap().as_u64().unwrap();
        let result = doc.get("result").unwrap().to_compact_string();
        assert!(
            out.insert(id, result).is_none(),
            "duplicate response id {id}"
        );
    }

    let mut admin = Client::connect_tcp(&addr.to_string()).unwrap();
    admin.shutdown().unwrap();
    server.join();
    out
}

#[test]
fn results_are_byte_identical_to_direct_runs_at_1_2_8_workers() {
    let reqs = request_mix();
    let want = oracle(&reqs);
    // Capacity 3 is below the number of distinct pool keys, so evictions
    // happen mid-run; capacity 1 on one worker evicts and reloads on
    // nearly every key change — the pool's worst case.
    for (workers, capacity, seed) in [
        (1usize, 3usize, 0xA1u64),
        (2, 3, 0xB2),
        (8, 3, 0xC3),
        (1, 1, 0xD4),
    ] {
        let got = serve_mix(&reqs, workers, capacity, seed);
        assert_eq!(
            got.len(),
            want.len(),
            "every request answered at {workers} workers, capacity {capacity}"
        );
        for (id, want_bytes) in &want {
            assert_eq!(
                got.get(id).unwrap(),
                want_bytes,
                "result for request {id} must be byte-identical at {workers} workers, \
                 capacity {capacity}"
            );
        }
    }
}

/// One connection pipelines `k` requests of one pool key, duplicate
/// sources included, while the single worker is held by the first: the
/// queue holds the other `k - 1` at once, and each is still executed on
/// its own.
#[test]
fn every_queued_request_is_its_own_execution() {
    let mut config = ServeConfig::local(registry());
    config.workers = 1;
    config.allow_debug_sleep = true;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let mut c = Client::connect_tcp(&addr).unwrap();

    let lines: Vec<String> = [Some(5), Some(5), Some(7), None, Some(7), Some(5)]
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let mut o = Json::obj();
            o.set("id", Json::U64(i as u64 + 1));
            o.set("graph", Json::Str("small".to_string()));
            o.set("algo", Json::Str("sssp".to_string()));
            if let Some(s) = source {
                o.set("source", Json::U64(*s));
            }
            if i == 0 {
                o.set("debug_sleep_ms", Json::U64(250));
            }
            o.to_compact_string()
        })
        .collect();
    let k = lines.len() as u64;
    for line in &lines {
        c.send_raw(format!("{line}\n").as_bytes()).unwrap();
    }
    for line in &lines {
        let doc = Json::parse(&c.read_response_line().unwrap()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert!(doc.path(&["serving", "batch"]).is_none(), "{line}");
        let graffix_server::Request::Run(req) = graffix_server::parse_request(line).unwrap() else {
            panic!("a run request")
        };
        let direct = run_direct(&req, &registry(), &GpuConfig::k40c()).unwrap();
        assert_eq!(
            doc.get("result").unwrap().to_compact_string(),
            direct.to_compact_string(),
            "{line}"
        );
    }

    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .path(&["result", "metrics", "batches"])
            .unwrap()
            .as_u64(),
        Some(k)
    );
    assert_eq!(
        stats
            .path(&["result", "metrics", "completed"])
            .unwrap()
            .as_u64(),
        Some(k)
    );
    assert!(
        stats
            .path(&["result", "metrics", "queue_peak"])
            .unwrap()
            .as_u64()
            > Some(1)
    );
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn serving_metadata_is_present_but_separate() {
    let config = ServeConfig::local(registry());
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let mut c = Client::connect_tcp(&addr).unwrap();

    let line = c
        .call_line(r#"{"id":1,"graph":"small","algo":"sssp","technique":"coalescing"}"#)
        .unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    // Result carries the deterministic excerpt...
    assert!(doc.path(&["result", "elapsed_cycles"]).is_some());
    assert!(doc.path(&["result", "totals", "warp_cycles"]).is_some());
    // ...serving carries the machinery metadata, outside `result`.
    assert!(doc.path(&["serving", "queue_ms"]).is_some());
    assert_eq!(
        doc.path(&["serving", "pool"]).unwrap().as_str(),
        Some("miss")
    );
    assert!(doc.path(&["serving", "batch"]).is_none());
    assert!(doc.path(&["result", "queue_ms"]).is_none());

    // Second identical request: pool hit, same result bytes.
    let line2 = c
        .call_line(r#"{"id":2,"graph":"small","algo":"sssp","technique":"coalescing"}"#)
        .unwrap();
    let doc2 = Json::parse(&line2).unwrap();
    assert_eq!(
        doc2.path(&["serving", "pool"]).unwrap().as_str(),
        Some("hit")
    );
    assert_eq!(
        doc2.path(&["serving", "cache"]).unwrap().as_str(),
        Some("pooled")
    );
    assert_eq!(
        doc.get("result").unwrap().to_compact_string(),
        doc2.get("result").unwrap().to_compact_string(),
        "pool hits must not change results"
    );

    c.shutdown().unwrap();
    server.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_identically_to_tcp() {
    use graffix_server::Bind;
    let dir = std::env::temp_dir().join(format!("graffix-serve-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("graffix.sock");

    let mut config = ServeConfig::local(registry());
    config.bind = Bind::Unix(sock.clone());
    let server = Server::start(config).unwrap();

    let mut c = Client::connect_unix(&sock).unwrap();
    let line = c
        .call_line(r#"{"id":1,"graph":"small","algo":"bfs"}"#)
        .unwrap();
    let doc = Json::parse(&line).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));

    let direct = {
        let parsed =
            graffix_server::parse_request(r#"{"id":1,"graph":"small","algo":"bfs"}"#).unwrap();
        let graffix_server::Request::Run(run) = parsed else {
            panic!()
        };
        run_direct(&run, &registry(), &GpuConfig::k40c())
            .unwrap()
            .to_compact_string()
    };
    assert_eq!(doc.get("result").unwrap().to_compact_string(), direct);

    c.shutdown().unwrap();
    server.join();
    assert!(!sock.exists(), "socket file removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
