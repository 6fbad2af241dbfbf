//! The `graffix serve` daemon: listener, admission queue, worker pool,
//! and graceful shutdown.
//!
//! Thread shape:
//!
//! * one **acceptor** (non-blocking accept loop, so shutdown can interrupt
//!   it without a poll syscall dependency);
//! * one **reader** + one **writer** thread per connection — readers parse
//!   newline-delimited requests and either answer admin ops inline or
//!   enqueue run jobs; writers own the socket's write half and serialize
//!   responses from a channel (jobs keep a sender clone, so a connection's
//!   writer survives until every in-flight response is delivered);
//! * `workers` **worker** threads popping the shared bounded queue, one
//!   admitted run per execution: pool checkout, plan, source, run,
//!   response. Each worker installs a private `engine_threads`-wide rayon
//!   scope, so with the default of 1 the deterministic engine runs inline
//!   and workers never contend on the shim's broadcast lock.
//!
//! **Admission control**: the queue holds at most `queue_depth` jobs;
//! submissions beyond that are rejected immediately with a typed
//! `overloaded` error — the daemon's memory is bounded no matter how fast
//! clients push.
//!
//! **Graceful shutdown**: the `shutdown` admin op (or [`Server::shutdown`])
//! closes admission (`shutting-down` rejections), stops the acceptor, and
//! lets workers drain everything already admitted; [`Server::join`] returns
//! once the last in-flight response is handed to its connection writer.

use crate::exec::{effective_source, result_excerpt};
use crate::metrics::ServerMetrics;
use crate::pool::{PoolKey, PreparedPool};
use crate::protocol::{
    error_response, ok_response, parse_request, AdminOp, ErrorKind, MutateRequest, Request,
    RunRequest, ServeError, MAX_REQUEST_BYTES,
};
use crate::registry::GraphRegistry;
use graffix_core::CacheConfig;
use graffix_sim::{GpuConfig, Json};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// TCP `host:port` (port 0 = ephemeral; see [`Server::local_addr`]).
    Tcp(String),
    /// Unix-domain socket path (removed and re-created on start).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub bind: Bind,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Rayon threads each worker grants the engine (1 = inline, the
    /// serving default — results are identical at any value).
    pub engine_threads: usize,
    /// Prepared-graph pool capacity.
    pub pool_capacity: usize,
    /// Admission queue bound.
    pub queue_depth: usize,
    /// Segment byte budget for segment-major execution: pool entries carry
    /// a shared segmentation of their prepared graph, and workers run
    /// identity-attribute plans segment-major. `None` = flat execution.
    pub segment_bytes: Option<usize>,
    pub cache: CacheConfig,
    pub gpu: GpuConfig,
    pub graphs: GraphRegistry,
    /// Honor the `debug_sleep_ms` request field (tests and benches only).
    pub allow_debug_sleep: bool,
}

impl ServeConfig {
    /// A loopback config on an ephemeral port — the shape every in-process
    /// test and bench uses.
    pub fn local(graphs: GraphRegistry) -> ServeConfig {
        ServeConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            engine_threads: 1,
            pool_capacity: 8,
            queue_depth: 256,
            segment_bytes: None,
            cache: CacheConfig::disabled(),
            gpu: GpuConfig::k40c(),
            graphs,
            allow_debug_sleep: false,
        }
    }
}

/// One admitted run job.
struct Job {
    req: RunRequest,
    out: Sender<String>,
    enqueued: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// False once shutdown begins: no further admissions.
    open: bool,
}

struct Shared {
    registry: GraphRegistry,
    pool: PreparedPool,
    metrics: ServerMetrics,
    queue: Mutex<QueueState>,
    cv: Condvar,
    shutdown: AtomicBool,
    queue_depth: usize,
    engine_threads: usize,
    allow_debug_sleep: bool,
    gpu: GpuConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.open = false;
        drop(q);
        self.cv.notify_all();
    }

    fn stats_json(&self) -> Json {
        self.metrics
            .to_json(self.pool.stats(), self.pool.len(), self.pool.capacity())
    }
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Either kind of connection, accepted by the daemon or opened by a
/// [`Client`](crate::Client); reads and writes pass through.
pub enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Server {
    /// Binds, spawns the thread complement, and returns immediately.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        if config.graphs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one registered graph",
            ));
        }
        let (listener, addr, unix_path) = match &config.bind {
            Bind::Tcp(spec) => {
                let l = TcpListener::bind(spec)?;
                let addr = l.local_addr()?;
                (Listener::Tcp(l), Some(addr), None)
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), None, Some(path.clone()))
            }
        };
        #[cfg(not(unix))]
        let _: Option<()> = unix_path;

        let shared = Arc::new(Shared {
            pool: PreparedPool::new(
                config.pool_capacity,
                config.gpu.clone(),
                config.cache.clone(),
            )
            .with_segment_bytes(config.segment_bytes),
            registry: config.graphs,
            metrics: ServerMetrics::new(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth: config.queue_depth.max(1),
            engine_threads: config.engine_threads.max(1),
            allow_debug_sleep: config.allow_debug_sleep,
            gpu: config.gpu,
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("graffix-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("graffix-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &shared))
                .expect("spawn acceptor")
        };

        Ok(Server {
            shared,
            workers,
            acceptor: Some(acceptor),
            addr,
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The bound TCP address (None for Unix-socket binds).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Begins a graceful shutdown: admission closes, the acceptor stops,
    /// queued and in-flight work drains. Also triggered by the `shutdown`
    /// admin op.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits until the drain completes (workers and acceptor exited).
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn acceptor_loop(listener: Listener, shared: &Arc<Shared>) {
    match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true).expect("nonblocking listener"),
        #[cfg(unix)]
        Listener::Unix(l) => l.set_nonblocking(true).expect("nonblocking listener"),
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        let accepted: io::Result<Stream> = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // The listener is nonblocking (some platforms propagate
                // that to accepted sockets) and one-line frames would eat
                // ~40ms per round trip under Nagle + delayed ACK.
                let _ = s.set_nonblocking(false);
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(false);
                Stream::Unix(s)
            }),
        };
        match accepted {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("graffix-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(15));
            }
            Err(_) => thread::sleep(Duration::from_millis(15)),
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    Line(String),
    /// Line exceeded [`MAX_REQUEST_BYTES`]; the remainder (through the
    /// next newline or EOF) has been discarded.
    Oversized,
    Eof,
}

/// Reads one `\n`-terminated line with a hard size cap. A final unterminated
/// chunk before EOF counts as a line (truncated frames still get a typed
/// response if the peer kept the read half open).
fn read_bounded_line(reader: &mut impl BufRead) -> io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.len() > MAX_REQUEST_BYTES {
                return Ok(LineRead::Oversized);
            }
            return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
        }
        let n = buf.len();
        if line.len() + n > MAX_REQUEST_BYTES {
            // Discard through the next newline, then report oversized.
            reader.consume(n);
            loop {
                let buf = reader.fill_buf()?;
                if buf.is_empty() {
                    return Ok(LineRead::Oversized);
                }
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    reader.consume(pos + 1);
                    return Ok(LineRead::Oversized);
                }
                let n = buf.len();
                reader.consume(n);
            }
        }
        line.extend_from_slice(buf);
        reader.consume(n);
    }
}

fn connection_loop(stream: Stream, shared: &Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // The writer owns the socket's write half; readers and workers hand it
    // serialized lines. It exits when the last sender (reader + queued
    // jobs) drops.
    let (tx, rx) = channel::<String>();
    let writer = thread::Builder::new()
        .name("graffix-serve-writer".to_string())
        .spawn(move || {
            let mut out = write_half;
            while let Ok(line) = rx.recv() {
                if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                    break;
                }
                let _ = out.flush();
            }
        });

    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Oversized) => {
                shared.metrics.received.fetch_add(1, Ordering::Relaxed);
                let err = ServeError::new(
                    ErrorKind::Oversized,
                    format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                respond_error(shared, &tx, 0, &err);
                continue;
            }
            Ok(LineRead::Line(l)) => l,
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.metrics.received.fetch_add(1, Ordering::Relaxed);
        match parse_request(&line) {
            Err((id, err)) => respond_error(shared, &tx, id, &err),
            Ok(Request::Admin { id, op }) => handle_admin(shared, &tx, id, op),
            Ok(Request::Run(req)) => submit(shared, &tx, *req),
            Ok(Request::Mutate(req)) => handle_mutate(shared, &tx, *req),
        }
    }
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

fn respond_error(shared: &Shared, tx: &Sender<String>, id: u64, err: &ServeError) {
    shared.metrics.count_error(err.kind);
    let _ = tx.send(error_response(id, err).to_compact_string());
}

fn handle_admin(shared: &Arc<Shared>, tx: &Sender<String>, id: u64, op: AdminOp) {
    shared.metrics.admin_ops.fetch_add(1, Ordering::Relaxed);
    match op {
        AdminOp::Ping => {
            let mut r = Json::obj();
            r.set("op", Json::Str("ping".to_string()));
            r.set("pong", Json::Bool(true));
            let _ = tx.send(ok_response(id, r, None).to_compact_string());
        }
        AdminOp::Stats => {
            let _ = tx.send(ok_response(id, shared.stats_json(), None).to_compact_string());
        }
        AdminOp::Shutdown => {
            let mut r = Json::obj();
            r.set("op", Json::Str("shutdown".to_string()));
            r.set("draining", Json::Bool(true));
            let _ = tx.send(ok_response(id, r, None).to_compact_string());
            shared.begin_shutdown();
        }
    }
}

/// Applies a `mutate` batch synchronously on the connection thread: the
/// pool applies it to the graph's current view, stores the new overlay,
/// and retires every pooled preparation of that graph, so any run request
/// sent *after* the mutate response on the same connection observes the
/// mutated graph. Mutations are rejected while draining (they change state
/// the drain is trying to settle).
fn handle_mutate(shared: &Arc<Shared>, tx: &Sender<String>, req: MutateRequest) {
    if shared.shutdown.load(Ordering::SeqCst) {
        let err = ServeError::new(ErrorKind::ShuttingDown, "server is draining");
        respond_error(shared, tx, req.id, &err);
        return;
    }
    match shared.pool.mutate(&req.graph, &req.batch, &shared.registry) {
        Err(err) => respond_error(shared, tx, req.id, &err),
        Ok((outcome, invalidated)) => {
            shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
            let mut r = Json::obj();
            r.set("op", Json::Str("mutate".to_string()));
            r.set("graph", Json::Str(req.graph));
            r.set("inserted", Json::U64(outcome.inserted.len() as u64));
            r.set("deleted", Json::U64(outcome.deleted.len() as u64));
            r.set("reweighted", Json::U64(outcome.reweighted as u64));
            r.set("dirty_nodes", Json::U64(outcome.dirty.len() as u64));
            r.set("invalidated", Json::U64(invalidated as u64));
            let _ = tx.send(ok_response(req.id, r, None).to_compact_string());
        }
    }
}

/// Admission control: typed rejection when draining or when the bounded
/// queue is full; otherwise enqueue and wake a worker.
fn submit(shared: &Shared, tx: &Sender<String>, req: RunRequest) {
    // Cheap static validation before taking a queue slot.
    if shared.registry.get(&req.graph).is_none() {
        let err = ServeError::new(
            ErrorKind::UnknownGraph,
            format!("graph `{}` is not registered", req.graph),
        );
        respond_error(shared, tx, req.id, &err);
        return;
    }
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if !q.open {
        drop(q);
        let err = ServeError::new(ErrorKind::ShuttingDown, "server is draining");
        respond_error(shared, tx, req.id, &err);
        return;
    }
    if q.jobs.len() >= shared.queue_depth {
        drop(q);
        let err = ServeError::new(
            ErrorKind::Overloaded,
            format!("admission queue full (depth {})", shared.queue_depth),
        );
        respond_error(shared, tx, req.id, &err);
        return;
    }
    q.jobs.push_back(Job {
        req,
        out: tx.clone(),
        enqueued: Instant::now(),
    });
    shared.metrics.observe_queue_depth(q.jobs.len() as u64);
    drop(q);
    shared.cv.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    let engine = rayon::ThreadPoolBuilder::new()
        .num_threads(shared.engine_threads)
        .build()
        .expect("engine pool");
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if !q.open {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        engine.install(|| execute(shared, job));
    }
}

fn stage_records_json(stages: &[graffix_core::StageRecord]) -> Json {
    Json::Arr(
        stages
            .iter()
            .map(|rec| {
                let mut o = Json::obj();
                o.set("stage", Json::Str(rec.stage.to_string()));
                o.set("status", Json::Str(rec.status.label().to_string()));
                o.set("seconds", Json::F64(rec.seconds));
                if let Some(err) = &rec.store_error {
                    o.set("store_error", Json::Str(err.clone()));
                }
                o
            })
            .collect(),
    )
}

fn execute(shared: &Shared, job: Job) {
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    let req = &job.req;
    let checkout = match shared.pool.checkout(
        &PoolKey::new(&req.graph, req.technique, req.threshold),
        &shared.registry,
    ) {
        Ok(c) => c,
        Err(err) => return respond_error(shared, &job.out, req.id, &err),
    };
    let mut plan = req
        .baseline
        .plan(&checkout.prepared, &shared.gpu)
        .with_direction(req.direction);
    // Segment-major execution when the pool carries a segmentation and the
    // plan addresses attributes by identity (results are byte-identical to
    // flat execution; only the simulated cost model differs).
    if let Some(segs) = &checkout.segments {
        if plan.identity_attrs() {
            plan = plan.with_segments(Arc::clone(segs));
        }
    }

    let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
    if shared.allow_debug_sleep && req.debug_sleep_ms > 0 {
        thread::sleep(Duration::from_millis(req.debug_sleep_ms.min(5_000)));
    }
    let exec_start = Instant::now();
    let src = match effective_source(req, &checkout.original) {
        Ok(s) => s,
        Err(err) => return respond_error(shared, &job.out, req.id, &err),
    };
    let (run, scalar) = req.algo.run(&plan, &checkout.original, src, req.bc_sources);
    let result = result_excerpt(req, &checkout.prepared, &shared.gpu, src, &run, scalar);

    let mut serving = Json::obj();
    serving.set("queue_ms", Json::F64(queue_ms));
    serving.set(
        "exec_ms",
        Json::F64(exec_start.elapsed().as_secs_f64() * 1e3),
    );
    serving.set(
        "pool",
        Json::Str(if checkout.pool_hit { "hit" } else { "miss" }.to_string()),
    );
    serving.set("cache", Json::Str(checkout.cache.clone()));
    if let Some(warning) = &checkout.store_warning {
        serving.set("cache_store_warning", Json::Str(warning.clone()));
    }
    if !checkout.stages.is_empty() {
        serving.set("stages", stage_records_json(&checkout.stages));
    }

    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    let _ = job
        .out
        .send(ok_response(req.id, result, Some(serving)).to_compact_string());
}
