//! `graffix-server`: a concurrent graph service daemon over a shared
//! prepared-graph pool.
//!
//! The crate turns the batch CLI into a long-running service: a
//! [`Server`] listens on TCP or a Unix socket, speaks a newline-delimited
//! JSON protocol ([`protocol`]), holds hot [`Prepared`] graphs in a
//! capacity-bounded LRU [`PreparedPool`] backed by the content-addressed
//! disk cache, executes one admitted request at a time per worker, applies
//! bounded-queue admission control, and drains gracefully on shutdown.
//!
//! The load-bearing promise is the **determinism contract**: the `result`
//! section of every response is a pure function of the request — byte-
//! identical to a from-scratch [`run_direct`] invocation regardless of
//! worker count, arrival order, pool state, or cache hits.
//! `tests/serve_determinism.rs` pins it; everything wall-clock-flavored
//! lives in the separate, never-compared `serving` section.
//!
//! [`Prepared`]: graffix_core::Prepared

#![forbid(unsafe_code)]

pub mod client;
pub mod exec;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::Client;
pub use exec::run_direct;
pub use metrics::ServerMetrics;
pub use pool::{pipeline_for_request, Checkout, PoolKey, PoolStats, PreparedPool};
pub use protocol::{
    error_response, ok_response, parse_request, AdminOp, ErrorKind, MutateRequest, Request,
    RunRequest, ServeError, ALL_ERROR_KINDS, MAX_REQUEST_BYTES,
};
pub use registry::{GraphRegistry, GraphSource};
pub use server::{Bind, ServeConfig, Server};
