//! End-to-end gateway tests over real loopback sockets: multi-model
//! serving, verified hot-swap under concurrent traffic, admission
//! control, and the HTTP stats surface.

mod common;

use common::{
    analyzer_rejected_bytes, compiled_model, dead_padded_model, le_bytes, le_floats, read_response,
    request, request_with_headers, wider_model, write_request, FEATURES,
};
use rapidnn_gateway::{Gateway, GatewayConfig, Registry, RegistryConfig};
use rapidnn_prop::vec_f32;
use rapidnn_serve::EngineConfig;
use rapidnn_tensor::SeededRng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_config() -> GatewayConfig {
    GatewayConfig {
        workers: 4,
        io_timeout: Duration::from_secs(10),
        // The hot-swap clients reuse one connection for the whole run.
        max_requests_per_connection: 1 << 20,
        registry: RegistryConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 256,
                max_batch_size: 8,
                max_wait: Duration::from_micros(200),
                ..EngineConfig::default()
            },
            max_inflight: 128,
            warmup_samples: 4,
            drain_deadline: Duration::from_secs(10),
            retry_after: Duration::from_secs(1),
        },
        ..GatewayConfig::default()
    }
}

#[test]
fn two_models_serve_bit_exactly_over_http() {
    let alpha = compiled_model(11);
    let beta = compiled_model(22);
    let gateway = Gateway::bind(test_config()).unwrap();
    gateway.registry().register("alpha", alpha.clone()).unwrap();
    gateway.registry().register("beta", beta.clone()).unwrap();
    let addr = gateway.local_addr();

    let mut rng = SeededRng::new(7);
    for i in 0..20 {
        let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
        let (name, model) = if i % 2 == 0 {
            ("alpha", &alpha)
        } else {
            ("beta", &beta)
        };
        let response = request(
            addr,
            "POST",
            &format!("/models/{name}/infer"),
            Some("application/octet-stream"),
            &le_bytes(&input),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(
            le_floats(&response.body),
            model.infer(&input).unwrap(),
            "served output diverged from direct inference"
        );
        assert_eq!(response.header("x-model-generation"), Some("0"));
    }

    // The CSV modality is bit-exact too: Rust float formatting is
    // shortest-round-trip.
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    let csv = input
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let response = request(
        addr,
        "POST",
        "/models/alpha/infer",
        Some("text/plain"),
        csv.as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let parsed: Vec<f32> = response
        .body_text()
        .split(',')
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(parsed, alpha.infer(&input).unwrap());

    let listing = request(addr, "GET", "/models", None, &[]).unwrap();
    assert_eq!(listing.status, 200);
    let text = listing.body_text();
    assert!(
        text.contains("\"alpha\"") && text.contains("\"beta\""),
        "{text}"
    );

    gateway.shutdown();
}

#[test]
fn hot_swap_mid_traffic_loses_nothing() {
    const CLIENTS: usize = 3;

    let old_model = compiled_model(100);
    let new_model = compiled_model(200);
    let gateway = Gateway::bind(test_config()).unwrap();
    gateway.registry().register("m", old_model.clone()).unwrap();
    let addr = gateway.local_addr();

    // Concurrent clients hammer the model over keep-alive connections
    // while the artifact is swapped underneath them.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(500 + c as u64);
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut answered = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
                    write_request(
                        &mut stream,
                        "POST",
                        "/models/m/infer",
                        Some("application/octet-stream"),
                        &le_bytes(&input),
                        true,
                    )
                    .unwrap();
                    let response = read_response(&mut stream).unwrap();
                    answered.push((input, response));
                }
                answered
            })
        })
        .collect();

    // Let traffic build, then swap mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    let swap = request(addr, "PUT", "/models/m", None, &new_model.to_bytes()).unwrap();
    assert_eq!(swap.status, 200, "{}", swap.body_text());
    let swap_body = swap.body_text();
    assert!(swap_body.contains("\"generation\":1"), "{swap_body}");
    assert!(swap_body.contains("\"drained\":true"), "{swap_body}");

    // Keep traffic flowing a little past the swap, then stop.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Release);

    let mut total = 0usize;
    let mut matched_old = 0usize;
    let mut matched_new = 0usize;
    for client in clients {
        for (input, response) in client.join().unwrap() {
            assert_eq!(
                response.status,
                200,
                "a request failed during hot-swap: {}",
                response.body_text()
            );
            let output = le_floats(&response.body);
            if output == old_model.infer(&input).unwrap() {
                matched_old += 1;
            } else if output == new_model.infer(&input).unwrap() {
                matched_new += 1;
            } else {
                panic!("output matches neither artifact bit-for-bit");
            }
            total += 1;
        }
    }
    assert!(total > 0, "clients served no traffic");
    assert_eq!(
        matched_old + matched_new,
        total,
        "every response must match exactly one artifact"
    );

    // Post-swap, the gateway serves the new artifact bit-for-bit.
    let mut rng = SeededRng::new(9);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    let response = request(
        addr,
        "POST",
        "/models/m/infer",
        Some("application/octet-stream"),
        &le_bytes(&input),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(le_floats(&response.body), new_model.infer(&input).unwrap());
    assert_eq!(response.header("x-model-generation"), Some("1"));

    // The stats surface reports the swap generation and latencies.
    let stats = request(addr, "GET", "/models/m/stats", None, &[]).unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.body_text();
    assert!(text.contains("\"generation\":1"), "{text}");
    assert!(text.contains("\"p50_latency_ns\":"), "{text}");
    assert!(text.contains("\"p99_latency_ns\":"), "{text}");
    assert!(text.contains("\"shed\":"), "{text}");

    gateway.shutdown();
}

#[test]
fn rejected_artifacts_leave_the_old_model_serving() {
    let model = compiled_model(31);
    let gateway = Gateway::bind(test_config()).unwrap();
    gateway.registry().register("m", model.clone()).unwrap();
    let addr = gateway.local_addr();

    // Garbage bytes: folded into a diagnostic report, 422.
    let garbage = request(addr, "PUT", "/models/m", None, b"not an artifact").unwrap();
    assert_eq!(garbage.status, 422, "{}", garbage.body_text());
    assert!(
        garbage.body_text().contains("RNA0001"),
        "{}",
        garbage.body_text()
    );

    // Decodes but fails the analyzer: 422 with the real diagnostics.
    let corrupt = analyzer_rejected_bytes(&model);
    let rejected = request(addr, "PUT", "/models/m", None, &corrupt).unwrap();
    assert_eq!(rejected.status, 422);
    assert!(
        rejected.body_text().contains("error["),
        "expected analyzer diagnostics, got: {}",
        rejected.body_text()
    );

    // An artifact stamped with a format version this build does not
    // read — the retired v1 or one from the future: a *distinct* 422
    // telling the operator about the skew, not the generic
    // corrupt-bytes lint report.
    for version in [1, rapidnn_serve::FORMAT_VERSION + 1] {
        let mut skewed = model.to_bytes();
        skewed[4..8].copy_from_slice(&version.to_le_bytes());
        let versioned = request(addr, "PUT", "/models/m", None, &skewed).unwrap();
        assert_eq!(versioned.status, 422, "{}", versioned.body_text());
        assert!(
            versioned
                .body_text()
                .contains(&format!("format version {version} is not the version")),
            "{}",
            versioned.body_text()
        );
        assert!(
            !versioned.body_text().contains("RNA0001"),
            "version skew misreported as corruption: {}",
            versioned.body_text()
        );
    }

    // A clean artifact with the wrong shape: contract violation, 422.
    let wide = request(addr, "PUT", "/models/m", None, &wider_model(32).to_bytes()).unwrap();
    assert_eq!(wide.status, 422);
    assert!(
        wide.body_text().contains("features"),
        "{}",
        wide.body_text()
    );

    // Through every failure the original model kept serving,
    // bit-for-bit, at generation 0.
    let mut rng = SeededRng::new(3);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    let response = request(
        addr,
        "POST",
        "/models/m/infer",
        Some("application/octet-stream"),
        &le_bytes(&input),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(le_floats(&response.body), model.infer(&input).unwrap());
    assert_eq!(response.header("x-model-generation"), Some("0"));

    gateway.shutdown();
}

#[test]
fn admission_overflow_is_shed_as_429_with_retry_after() {
    let mut config = test_config();
    // A zero in-flight budget makes every request deterministic shed.
    config.registry.max_inflight = 0;
    let gateway = Gateway::bind(config).unwrap();
    gateway
        .registry()
        .register("busy", compiled_model(41))
        .unwrap();
    let addr = gateway.local_addr();

    let input = vec![0.0f32; FEATURES];
    for _ in 0..3 {
        let response = request(
            addr,
            "POST",
            "/models/busy/infer",
            Some("application/octet-stream"),
            &le_bytes(&input),
        )
        .unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("1"));
    }
    let stats = request(addr, "GET", "/models/busy/stats", None, &[]).unwrap();
    assert!(
        stats.body_text().contains("\"shed\":3"),
        "{}",
        stats.body_text()
    );

    gateway.shutdown();
}

#[test]
fn registration_lifecycle_over_http() {
    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();
    let model = compiled_model(51);

    // Unknown model: 404 on every per-model route.
    for (method, path) in [
        ("POST", "/models/ghost/infer"),
        ("GET", "/models/ghost/stats"),
        ("DELETE", "/models/ghost"),
    ] {
        let response = request(addr, method, path, None, &[]).unwrap();
        assert_eq!(response.status, 404, "{method} {path}");
    }

    // PUT on a fresh name registers (201) and the model serves.
    let created = request(addr, "PUT", "/models/fresh", None, &model.to_bytes()).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_text());
    assert!(created.body_text().contains("\"created\":true"));
    let mut rng = SeededRng::new(4);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    let response = request(
        addr,
        "POST",
        "/models/fresh/infer",
        Some("application/octet-stream"),
        &le_bytes(&input),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(le_floats(&response.body), model.infer(&input).unwrap());

    // Bad names are rejected before touching the registry.
    let bad = request(addr, "PUT", "/models/.hidden", None, &model.to_bytes()).unwrap();
    assert_eq!(bad.status, 400);

    // DELETE drains and removes; the route 404s afterwards.
    let removed = request(addr, "DELETE", "/models/fresh", None, &[]).unwrap();
    assert_eq!(removed.status, 200);
    let gone = request(addr, "GET", "/models/fresh/stats", None, &[]).unwrap();
    assert_eq!(gone.status, 404);

    // Wrong verbs answer 405 with an Allow hint, and health stays up.
    let wrong = request(addr, "GET", "/models/fresh", None, &[]).unwrap();
    assert_eq!(wrong.status, 405);
    assert!(wrong.header("allow").is_some());
    let health = request(addr, "GET", "/health", None, &[]).unwrap();
    assert_eq!(health.status, 200);

    gateway.shutdown();
}

/// The `x-kernels: int16` upload opt-in lowers the artifact onto the
/// analyzer-licensed integer kernels, the stats route reports which
/// kernel path a model serves on, and the integer generation's served
/// outputs are bit-identical to direct quantized inference.
#[test]
fn int16_opt_in_is_visible_in_stats_and_serves_bit_exactly() {
    let model = compiled_model(33);
    // The local reference for what the gateway should be serving.
    let mut quantized = model.clone();
    quantized.quantize().unwrap();
    assert!(
        quantized.licensed_ops() > 0,
        "test model must license at least one op"
    );

    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();

    // Upload with the opt-in header: 201, and stats report the integer
    // kernel path with the same licensed-op count the analyzer gave us.
    let created = request_with_headers(
        addr,
        "PUT",
        "/models/q",
        &[("x-kernels", "int16")],
        &model.to_bytes(),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_text());
    let stats = request(addr, "GET", "/models/q/stats", None, &[]).unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.body_text();
    assert!(
        text.contains(&format!("\"kernel_path\":\"{}\"", quantized.kernel_path())),
        "{text}"
    );
    assert!(
        text.contains(&format!("\"licensed_ops\":{}", quantized.licensed_ops())),
        "{text}"
    );

    // Served outputs match direct quantized inference bit-for-bit —
    // batch-size identity on the integer path is structural.
    let mut rng = SeededRng::new(5);
    for _ in 0..8 {
        let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
        let response = request(
            addr,
            "POST",
            "/models/q/infer",
            Some("application/octet-stream"),
            &le_bytes(&input),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(le_floats(&response.body), quantized.infer(&input).unwrap());
    }

    // A plain PUT (no header) swaps back to the f32 path; stats follow.
    let swapped = request(addr, "PUT", "/models/q", None, &model.to_bytes()).unwrap();
    assert_eq!(swapped.status, 200, "{}", swapped.body_text());
    let stats = request(addr, "GET", "/models/q/stats", None, &[]).unwrap();
    let text = stats.body_text();
    assert!(text.contains("\"kernel_path\":\"f32\""), "{text}");
    assert!(text.contains("\"licensed_ops\":0"), "{text}");

    // An unknown header value is a client error, not a silent fallback,
    // and leaves the serving generation untouched.
    let bogus = request_with_headers(
        addr,
        "PUT",
        "/models/q",
        &[("x-kernels", "int8")],
        &model.to_bytes(),
    )
    .unwrap();
    assert_eq!(bogus.status, 400, "{}", bogus.body_text());
    let stats = request(addr, "GET", "/models/q/stats", None, &[]).unwrap();
    assert!(stats.body_text().contains("\"generation\":1"));

    gateway.shutdown();
}

/// The `x-optimize` upload opt-in runs the certified optimizer before
/// serving: a dead-padded artifact provably shrinks (before/after bytes
/// in the swap response and stats), served outputs stay bit-identical
/// to the unpadded source, an unknown header value is a 400, and a plain
/// swap clears the optimizer stats.
#[test]
fn optimize_opt_in_shrinks_and_reports_sizes() {
    let base = compiled_model(44);
    // 9 dead rows per dense table widen the packed v2 code width; the
    // optimizer must win back strictly more bytes than it leaves.
    let padded = dead_padded_model(44, 9);
    let upload = padded.to_bytes();
    assert!(upload.len() > base.to_bytes().len());

    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();

    let created =
        request_with_headers(addr, "PUT", "/models/opt", &[("x-optimize", "1")], &upload).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_text());
    let body = created.body_text();
    assert!(
        body.contains(&format!("\"bytes_before\":{}", upload.len())),
        "{body}"
    );
    assert!(body.contains("\"rows_removed\":18"), "{body}");

    // Stats carry the same before/after sizes, and `bytes_after` is a
    // real shrink.
    let stats = request(addr, "GET", "/models/opt/stats", None, &[]).unwrap();
    let text = stats.body_text();
    let after: usize = text
        .split("\"bytes_after\":")
        .nth(1)
        .and_then(|t| t.split(&[',', '}'][..]).next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("stats missing bytes_after: {text}"));
    assert!(
        after < upload.len(),
        "{after} vs {} in {text}",
        upload.len()
    );
    assert!(
        text.contains(&format!("\"bytes_before\":{}", upload.len())),
        "{text}"
    );

    // The optimized generation answers with the unpadded source's bits.
    let mut rng = SeededRng::new(9);
    for _ in 0..8 {
        let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
        let response = request(
            addr,
            "POST",
            "/models/opt/infer",
            Some("application/octet-stream"),
            &le_bytes(&input),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(le_floats(&response.body), base.infer(&input).unwrap());
    }

    // Unknown opt-in value: client error, generation untouched.
    let bogus = request_with_headers(
        addr,
        "PUT",
        "/models/opt",
        &[("x-optimize", "yes")],
        &upload,
    )
    .unwrap();
    assert_eq!(bogus.status, 400, "{}", bogus.body_text());

    // A plain swap serves the artifact as uploaded: stats go back to
    // `"optimized":null`.
    let swapped = request(addr, "PUT", "/models/opt", None, &upload).unwrap();
    assert_eq!(swapped.status, 200, "{}", swapped.body_text());
    let stats = request(addr, "GET", "/models/opt/stats", None, &[]).unwrap();
    assert!(stats.body_text().contains("\"optimized\":null"));
    assert!(stats.body_text().contains("\"generation\":1"));

    gateway.shutdown();
}

/// A registry (no HTTP) whose engines run one worker and warm up with
/// the shipped eight rows.
fn wave_registry(queue_capacity: usize, max_batch_size: usize, max_wait: Duration) -> Registry {
    Registry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity,
            max_batch_size,
            max_wait,
            ..EngineConfig::default()
        },
        warmup_samples: 8,
        ..RegistryConfig::default()
    })
}

/// Warm-up is one concurrent wave, so a `PUT` sits out O(1) batcher
/// holds: row by row it was one hold per warm-up row, 8 × `HOLD` here.
#[test]
fn put_pays_one_batcher_hold_not_one_per_warmup_row() {
    const HOLD: Duration = Duration::from_millis(100);
    // Room for twice the wave, so the batch never fills and the one
    // hold is really paid.
    let registry = wave_registry(64, 16, HOLD);
    // Create, then swap.
    for generation in 0..2 {
        let bytes = compiled_model(61 + generation).to_bytes();
        let started = Instant::now();
        let report = registry
            .put_artifact("m", &bytes, false, None, false)
            .unwrap();
        let took = started.elapsed();
        assert_eq!((report.generation, report.warmed), (generation, 8));
        assert!(took < 4 * HOLD, "PUT {generation} took {took:?}");
        // The wave is all this engine has served: eight rows, gathered
        // into one batch (two if the worker woke between submissions).
        let server = registry.stats("m").unwrap().server;
        assert_eq!(server.completed, 8);
        assert!(server.batches <= 2, "{} batches", server.batches);
    }
    registry.shutdown();
}

/// The wave submits with blocking `submit`: a queue shorter than
/// `warmup_samples` costs extra holds, never a spurious `queue full`
/// rejection of the `PUT`.
#[test]
fn warmup_wave_fits_through_a_queue_shorter_than_itself() {
    let registry = wave_registry(2, 8, Duration::from_micros(200));
    let mut rng = SeededRng::new(6);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    // Create, then swap; each generation serves bit-exactly afterwards.
    for generation in 0..2 {
        let model = compiled_model(71 + generation);
        let report = registry
            .put_artifact("m", &model.to_bytes(), false, None, false)
            .unwrap();
        assert_eq!((report.generation, report.warmed), (generation, 8));
        assert_eq!(
            registry.infer("m", input.clone()).unwrap(),
            model.infer(&input).unwrap()
        );
    }
    registry.shutdown();
}
