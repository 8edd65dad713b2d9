//! RAPIDNN network edge: a std-only HTTP/1.1 gateway over a fleet of
//! serving engines.
//!
//! `rapidnn-serve` ends at a process-internal [`Engine`]. This crate
//! puts a wire on it:
//!
//! * [`http`] — a hand-rolled, dependency-free HTTP/1.1 parser and
//!   response writer with hard head/body limits. Total: hostile bytes
//!   become typed 4xx answers, never panics or unbounded allocation.
//! * [`registry`] — a [`Registry`] of many named engines with
//!   per-model **admission control** (in-flight budgets whose overflow
//!   is shed visibly, not queued silently) and **verified hot-swap**:
//!   a replacement artifact must pass the `rapidnn-analyze` static
//!   verifier and synthetic warmup before traffic atomically cuts
//!   over, and the displaced engine drains with a deadline. Rejected
//!   artifacts leave the old model serving untouched.
//! * [`server`] — the [`Gateway`]: a `TcpListener` plus a
//!   [`WorkerGroup`](rapidnn_pool::WorkerGroup) of accept workers
//!   routing `PUT /models/{name}`, `POST /models/{name}/infer`,
//!   `GET /models/{name}/stats`, and friends onto the registry.
//!   Overload maps to `429` + `Retry-After`.
//!
//! # Example
//!
//! ```no_run
//! use rapidnn_gateway::{Gateway, GatewayConfig};
//!
//! let gateway = Gateway::bind(GatewayConfig::default())?;
//! println!("serving on http://{}", gateway.local_addr());
//! // register models via gateway.registry() or HTTP PUT, then:
//! gateway.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`Engine`]: rapidnn_serve::Engine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod http;
mod json;
pub mod registry;
pub mod server;

pub use error::GatewayError;
pub use http::{HttpReader, Limits, ParseError, ReadOutcome, Request, Response};
pub use registry::{ModelStats, Registry, RegistryConfig, SwapReport};
pub use server::{Gateway, GatewayConfig};
