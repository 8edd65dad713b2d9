//! The TCP/HTTP front end: accept workers, routing, and wire codecs.
//!
//! [`Gateway::bind`] opens a `std::net` listener and spawns a
//! [`WorkerGroup`] of connection workers that all `accept` on the
//! shared socket — the kernel load-balances connections across them.
//! Each worker handles one connection at a time (keep-alive requests in
//! sequence), contains per-request panics behind `catch_unwind`, and
//! checks the shutdown flag between accepts; [`Gateway::shutdown`]
//! wakes blocked workers with loopback connections rather than polling.
//!
//! ## Wire API
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /health` | liveness probe |
//! | `GET /models` | registered names + swap generations (JSON) |
//! | `PUT /models/{name}` | register / verified-hot-swap raw artifact bytes |
//! | `DELETE /models/{name}` | drain and remove a model |
//! | `POST /models/{name}/infer` | run inference (see body formats) |
//! | `GET /models/{name}/stats` | per-model [`ModelStats`] (JSON) |
//!
//! Inference bodies come in two self-describing formats: `text/plain`
//! comma-separated decimal floats (human-friendly; Rust's shortest
//! round-trip formatting keeps even this path bit-exact), or raw
//! little-endian `f32`s under any other content type. The response
//! mirrors the request's format and carries the serving generation in
//! `x-model-generation`.
//!
//! Backpressure is visible: a request past a model's admission budget
//! or bounced off a full engine queue answers `429 Too Many Requests`
//! with a `Retry-After` hint instead of queueing without bound.

use crate::error::GatewayError;
use crate::http::{HttpReader, Limits, ReadOutcome, Request, Response};
use crate::json::Json;
use crate::registry::{ModelStats, Registry, RegistryConfig, SwapReport};
use rapidnn_pool::WorkerGroup;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; `127.0.0.1:0` picks a free loopback port.
    pub addr: String,
    /// Connection worker threads; `0` sizes to available parallelism
    /// (minimum 2, so one slow connection cannot starve the listener).
    pub workers: usize,
    /// Request parser limits (head / body byte caps).
    pub limits: Limits,
    /// Socket read/write timeout — bounds how long an idle or stalled
    /// connection can pin a worker.
    pub io_timeout: Duration,
    /// Keep-alive requests served per connection before closing.
    pub max_requests_per_connection: usize,
    /// Registry configuration (engines, admission, swap behaviour).
    pub registry: RegistryConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            limits: Limits::default(),
            io_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1024,
            registry: RegistryConfig::default(),
        }
    }
}

impl GatewayConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map_or(2, std::num::NonZero::get)
            .max(2)
    }
}

/// A running gateway: listener, connection workers, and the model
/// registry they serve from.
pub struct Gateway {
    registry: Arc<Registry>,
    addr: SocketAddr,
    shutting: Arc<AtomicBool>,
    workers: Option<WorkerGroup>,
}

impl Gateway {
    /// Binds the listener and starts the connection workers.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(config: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let registry = Arc::new(Registry::new(config.registry.clone()));
        let shutting = Arc::new(AtomicBool::new(false));
        let workers = {
            let registry = Arc::clone(&registry);
            let shutting = Arc::clone(&shutting);
            WorkerGroup::spawn("gateway", config.resolved_workers(), move |_worker| {
                accept_loop(&listener, &registry, &shutting, &config);
            })
        };
        Ok(Gateway {
            registry,
            addr,
            shutting,
            workers: Some(workers),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for in-process registration and inspection.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting connections, joins the workers, and drains every
    /// model's engine.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(workers) = self.workers.take() else {
            return;
        };
        self.shutting.store(true, Ordering::Release);
        // Workers block in `accept`; a loopback connection per worker
        // wakes each one to observe the flag. Extras are harmless.
        for _ in 0..workers.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        workers.join();
        self.registry.shutdown();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.addr)
            .field("models", &self.registry.names())
            .finish()
    }
}

/// One connection worker: accept, serve the connection to completion,
/// repeat until shutdown.
fn accept_loop(
    listener: &TcpListener,
    registry: &Registry,
    shutting: &AtomicBool,
    config: &GatewayConfig,
) {
    loop {
        if shutting.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _peer)) = listener.accept() else {
            continue;
        };
        if shutting.load(Ordering::Acquire) {
            // Wake-up connection (or a client racing shutdown): drop it.
            return;
        }
        let _ = stream.set_read_timeout(Some(config.io_timeout));
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let _ = stream.set_nodelay(true);
        // Belt over the per-request suspenders below: no connection can
        // take its worker down.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(stream, registry, shutting, config);
        }));
    }
}

/// Serves keep-alive requests off one connection until it closes, goes
/// bad, misbehaves, or shutdown begins.
fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    shutting: &AtomicBool,
    config: &GatewayConfig,
) {
    let mut reader = HttpReader::new(stream);
    for _ in 0..config.max_requests_per_connection {
        match reader.next_request(config.limits) {
            ReadOutcome::Closed | ReadOutcome::Io(_) => return,
            ReadOutcome::Invalid(err) => {
                // Malformed bytes: answer the typed 4xx/5xx and close —
                // the framing can no longer be trusted.
                let response = Response::text(err.status(), format!("{err}\n"));
                let _ = response.write_to(reader.stream_mut(), false);
                return;
            }
            ReadOutcome::Request(request) => {
                let keep_alive = request.keep_alive && !shutting.load(Ordering::Acquire);
                // A panic anywhere in routing fails this request, not
                // the connection or the worker.
                let response = catch_unwind(AssertUnwindSafe(|| route(registry, &request)))
                    .unwrap_or_else(|_| Response::text(500, "internal error\n"));
                if response.write_to(reader.stream_mut(), keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Maps one request onto the registry.
fn route(registry: &Registry, request: &Request) -> Response {
    let path: Vec<&str> = request
        .path()
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), path.as_slice()) {
        ("GET", ["health"]) => Response::text(200, "ok\n"),
        ("GET", ["models"]) => list_models(registry),
        ("PUT", ["models", name]) => {
            put_model(registry, name, request).unwrap_or_else(|refusal| refusal)
        }
        ("DELETE", ["models", name]) => delete_model(registry, name),
        ("GET", ["models", name, "stats"]) => model_stats(registry, name),
        ("POST", ["models", name, "infer"]) => infer(registry, name, request),
        // Known resources with the wrong verb get a 405 + Allow.
        (_, ["models"]) => Response::text(405, "try GET\n").header("allow", "GET"),
        (_, ["models", _name]) => {
            Response::text(405, "try PUT or DELETE\n").header("allow", "PUT, DELETE")
        }
        (_, ["models", _name, "stats"]) => Response::text(405, "try GET\n").header("allow", "GET"),
        (_, ["models", _name, "infer"]) => {
            Response::text(405, "try POST\n").header("allow", "POST")
        }
        _ => Response::text(404, "no such route\n"),
    }
}

fn error_response(err: &GatewayError) -> Response {
    let status = err.status();
    let response = match err {
        GatewayError::Rejected(report) => Response::text(status, format!("{err}\n\n{report}")),
        _ => Response::text(status, format!("{err}\n")),
    };
    match err {
        GatewayError::Shed { retry_after } => {
            response.header("retry-after", retry_after.as_secs().max(1).to_string())
        }
        _ => response,
    }
}

fn list_models(registry: &Registry) -> Response {
    let body = Json::document(|j| {
        j.key("models").array(|j| {
            for (name, generation) in registry.generations() {
                j.object(|j| {
                    j.key("name").string(&name);
                    j.key("generation").value(generation);
                });
            }
        });
    });
    Response::json(200, body)
}

/// An opt-in upload header: absent is off, one of `on` is on, and
/// anything else is a client error (`Err`), not a silent fallback.
fn opt_in(request: &Request, name: &str, on: &[&str]) -> Result<bool, Response> {
    match request.header(name) {
        None => Ok(false),
        Some(value) if on.contains(&value) => Ok(true),
        Some(other) => Err(Response::text(
            400,
            format!("unknown {name} value {other:?}; try {:?}\n", on[0]),
        )),
    }
}

/// `Err` is the 400 of an upload header this server does not understand.
fn put_model(registry: &Registry, name: &str, request: &Request) -> Result<Response, Response> {
    // `x-kernels: int16` opts the upload into analyzer-licensed integer
    // lowering; absence means the plain f32 path.
    let quantize = opt_in(request, "x-kernels", &["int16"])?;
    let outcome = registry.put_artifact(name, &request.body, quantize, None, false);
    Ok(match outcome {
        Ok(report) => swap_response(name, &report),
        Err(e) => error_response(&e),
    })
}

fn swap_response(name: &str, report: &SwapReport) -> Response {
    let body = Json::document(|j| {
        j.key("name").string(name);
        j.key("created").value(report.created);
        j.key("generation").value(report.generation);
        j.key("warmed").value(report.warmed);
        j.key("drained").value(report.drained);
    });
    Response::json(if report.created { 201 } else { 200 }, body)
}

fn delete_model(registry: &Registry, name: &str) -> Response {
    match registry.remove(name) {
        Ok(_final_stats) => {
            let body = Json::document(|j| {
                j.key("name").string(name);
                j.key("removed").value(true);
            });
            Response::json(200, body)
        }
        Err(e) => error_response(&e),
    }
}

fn model_stats(registry: &Registry, name: &str) -> Response {
    match registry.stats(name) {
        Ok(stats) => Response::json(200, stats.to_json()),
        Err(e) => error_response(&e),
    }
}

fn infer(registry: &Registry, name: &str, request: &Request) -> Response {
    let as_text = request
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain"));
    let input = if as_text {
        match parse_csv_floats(&request.body) {
            Ok(values) => values,
            Err(msg) => return Response::text(400, format!("{msg}\n")),
        }
    } else {
        if !request.body.len().is_multiple_of(4) {
            return Response::text(400, "octet-stream body must be little-endian f32s\n");
        }
        request
            .body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    };
    match registry.infer_with_generation(name, input) {
        Ok((output, generation)) => {
            let response = if as_text {
                let csv = output
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                Response::text(200, csv)
            } else {
                let mut bytes = Vec::with_capacity(output.len() * 4);
                for v in &output {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                Response::bytes(200, bytes)
            };
            response.header("x-model-generation", generation.to_string())
        }
        Err(e) => error_response(&e),
    }
}

/// Parses a comma/whitespace-separated float list.
fn parse_csv_floats(body: &[u8]) -> Result<Vec<f32>, String> {
    let text =
        std::str::from_utf8(body).map_err(|_| "text body must be utf-8 floats".to_string())?;
    let mut values = Vec::new();
    for token in text.split(|c: char| c == ',' || c.is_whitespace()) {
        if token.is_empty() {
            continue;
        }
        let value: f32 = token
            .parse()
            .map_err(|_| format!("not a float: {token:?}"))?;
        values.push(value);
    }
    Ok(values)
}

impl ModelStats {
    /// The `GET /models/{name}/stats` body: durations as integer
    /// nanoseconds, floats via shortest round-trip formatting.
    pub fn to_json(&self) -> String {
        let s = &self.server;
        Json::document(|j| {
            j.key("name").string(&self.name);
            j.key("generation").value(self.generation);
            j.key("input_features").value(self.input_features);
            j.key("output_features").value(self.output_features);
            j.key("inflight").value(self.inflight);
            j.key("kernel_path").string(self.kernel_path);
            j.key("licensed_ops").value(self.licensed_ops);
            j.key("server").object(|j| {
                j.key("submitted").value(s.submitted);
                j.key("completed").value(s.completed);
                j.key("failed").value(s.failed);
                j.key("rejected").value(s.rejected);
                j.key("shed").value(s.shed);
                j.key("batches").value(s.batches);
                j.key("mean_batch_size").value(s.mean_batch_size);
                j.key("batch_size_buckets")
                    .array(|j| s.batch_size_buckets.iter().for_each(|count| j.value(count)));
                j.key("queue_depth").value(s.queue_depth);
                j.key("peak_queue_depth").value(s.peak_queue_depth);
                j.key("mean_latency_ns").value(s.mean_latency.as_nanos());
                j.key("p50_latency_ns").value(s.p50_latency.as_nanos());
                j.key("p90_latency_ns").value(s.p90_latency.as_nanos());
                j.key("p99_latency_ns").value(s.p99_latency.as_nanos());
                j.key("latency_overflows").value(s.latency_overflows);
                j.key("throughput_rps").value(s.throughput_rps);
                j.key("uptime_ms").value(s.uptime.as_millis());
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_floats_parse_and_reject() {
        assert_eq!(
            parse_csv_floats(b"1.5, -2, 3e-2\n").unwrap(),
            vec![1.5, -2.0, 0.03]
        );
        assert_eq!(parse_csv_floats(b"").unwrap(), Vec::<f32>::new());
        assert!(parse_csv_floats(b"1.5,abc").is_err());
        assert!(parse_csv_floats(&[0xff, 0xfe]).is_err());
    }
}
