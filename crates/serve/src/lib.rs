//! # lcosc-serve — deterministic batch simulation service
//!
//! The workspace's simulation entry points (circuit-deck transients,
//! fault-injection scenarios, FMEA / yield campaigns) behind one
//! newline-delimited JSON protocol, served over TCP loopback or
//! stdin/stdout. Three properties distinguish it from a generic job
//! server:
//!
//! - **Byte-determinism** — the response payload for a request object is
//!   a pure function of that object: identical across worker thread
//!   counts, cache states and arrival orders. The `"id"` field is echoed
//!   verbatim and excluded from all determinism-relevant plumbing.
//! - **Content-addressed caching** — requests are canonicalized
//!   ([`protocol::canonical_key`]: drop `"id"`, sort keys, keep the
//!   first of a repeated key, write compactly straight from the parsed
//!   request) and hashed with [`lcosc_campaign::digest_bytes`]; a hit
//!   replays the stored payload bytes without occupying a worker slot.
//! - **Bounded admission** — a fixed-depth queue rejects with
//!   `overloaded` instead of buffering without limit, per-request
//!   deadlines free stuck worker slots with `timeout`, and a graceful
//!   drain finishes in-flight work while refusing new requests with
//!   `shutting_down`.
//!
//! Per-request observability flows through `lcosc-trace`:
//! [`lcosc_trace::TraceEvent::ServeRequest`] (golden: kind, digest,
//! status, completion index) and
//! [`lcosc_trace::TraceEvent::ServeRequestTiming`] (quarantined:
//! wall-clock latency, queue depth).
//!
//! ```
//! use lcosc_serve::{ServeConfig, ServeEngine};
//!
//! let engine = ServeEngine::start(&ServeConfig::default());
//! let response = engine
//!     .submit_line(r#"{"id":1,"kind":"scenario","fault":"open_coil"}"#)
//!     .wait();
//! assert!(response.starts_with(r#"{"id":1,"status":"ok","result":"#));
//! engine.shutdown();
//! ```

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod work;

pub use cache::ResultCache;
pub use engine::{Response, ServeConfig, ServeCounters, ServeEngine};
pub use protocol::{
    canonical_key, desugar_spice, parse_request, response_line, Body, CampaignSpec, Preset, Request,
};
pub use server::{serve_stdio, serve_stream, serve_tcp};
pub use work::execute;
