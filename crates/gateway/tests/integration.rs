//! End-to-end gateway tests over real loopback sockets: multi-model
//! serving, verified hot-swap under concurrent traffic, admission
//! control, and the HTTP stats surface.

mod common;

use common::{
    analyzer_rejected_bytes, compiled_model, dead_padded_model, le_bytes, le_floats, read_response,
    request, request_with_headers, wider_model, write_request, FEATURES,
};
use rapidnn_gateway::{Gateway, GatewayConfig, ModelStats, Registry, RegistryConfig};
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
    // read — the retired v1, v2 and v3 or one from the future: a
    // *distinct* 422 telling the operator about the skew, not the
    // generic corrupt-bytes lint report.
    for version in [1, 2, 3, rapidnn_serve::FORMAT_VERSION + 1] {
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

/// A refusal at a full engine queue is counted once, as `rejected`:
/// `shed` counts only the in-flight budget's refusals before the queue,
/// so one 429 shows up in exactly one `/stats` counter.
#[test]
fn queue_full_refusal_counts_as_rejected_not_shed() {
    const CALLERS: usize = 6;
    let registry = Registry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_size: 1,
            ..EngineConfig::default()
        },
        // The budget admits every caller, so only the queue refuses.
        max_inflight: CALLERS,
        warmup_samples: 0,
        ..RegistryConfig::default()
    });
    registry.register("m", compiled_model(81)).unwrap();
    let input = vec![0.25f32; FEATURES];
    let mut refused = 0;
    for _round in 0..500 {
        refused += std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| s.spawn(|| registry.infer("m", input.clone())))
                .collect();
            callers
                .into_iter()
                .filter_map(|caller| caller.join().unwrap().err())
                .inspect(|err| assert_eq!(err.status(), 429, "{err}"))
                .count()
        });
        if refused > 0 {
            break;
        }
    }
    assert!(refused > 0, "no caller ever found the queue full");
    let server = registry.stats("m").unwrap().server;
    assert_eq!((server.shed, server.rejected), (0, refused as u64));
    registry.shutdown();
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

/// `x-optimize` is an inert header: the optimizer is retired, so an
/// upload that carries it serves as uploaded. A dead-padded artifact
/// sent with `x-optimize: 1` registers (201) and answers with the
/// unpadded source's bits, and a value the optimizer never knew
/// (`yes`) is ignored like any other unknown header.
#[test]
fn x_optimize_is_an_inert_header() {
    let base = compiled_model(44);
    let upload = dead_padded_model(44, 9).to_bytes();
    assert!(upload.len() > base.to_bytes().len());

    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();
    let mut rng = SeededRng::new(9);
    for (value, status, generation) in [("1", 201, 0), ("yes", 200, 1)] {
        let put = request_with_headers(
            addr,
            "PUT",
            "/models/opt",
            &[("x-optimize", value)],
            &upload,
        )
        .unwrap();
        assert_eq!(put.status, status, "{value}: {}", put.body_text());
        assert!(
            put.body_text()
                .contains(&format!("\"generation\":{generation}")),
            "{}",
            put.body_text()
        );
        for _ in 0..4 {
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
    }

    gateway.shutdown();
}

/// A registry (no HTTP) whose engines run one worker.
fn wave_registry(
    queue_capacity: usize,
    max_batch_size: usize,
    max_wait: Duration,
    warmup_samples: usize,
) -> Registry {
    Registry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity,
            max_batch_size,
            max_wait,
            ..EngineConfig::default()
        },
        warmup_samples,
        ..RegistryConfig::default()
    })
}

/// Warm-up is whole `max_batch_size` blocks, and a full batch runs the
/// moment it is gathered, so a `PUT` sits out no batcher hold: under a
/// 10 s hold each one returns in well under a second, on create and on
/// swap.
#[test]
fn put_sits_out_no_batcher_hold() {
    const HOLD: Duration = Duration::from_secs(10);
    // Eight warm-up rows round up to one block of sixteen.
    let registry = wave_registry(64, 16, HOLD, 8);
    let name = "plain";
    // Create, then swap.
    for generation in 0..2 {
        let bytes = compiled_model(61 + generation).to_bytes();
        let started = Instant::now();
        let report = registry
            .put_artifact(name, &bytes, false, None, false)
            .unwrap();
        let took = started.elapsed();
        assert_eq!((report.generation, report.warmed), (generation, 16));
        assert!(
            took < Duration::from_secs(1),
            "{name} PUT {generation} took {took:?}"
        );
        // The wave is all this engine has served: one job, one batch.
        let server = registry.stats(name).unwrap().server;
        assert_eq!((server.completed, server.batches), (1, 1));
    }
    registry.shutdown();
}

/// The wave submits with blocking `submit_batch`: three blocks through
/// a one-job queue wait for space, never a spurious `queue full`
/// rejection of the `PUT`.
#[test]
fn warmup_wave_fits_through_a_queue_shorter_than_itself() {
    let registry = wave_registry(1, 4, Duration::from_micros(200), 10);
    let mut rng = SeededRng::new(6);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
    // Create, then swap; each generation serves bit-exactly afterwards.
    for generation in 0..2 {
        let model = compiled_model(71 + generation);
        let report = registry
            .put_artifact("m", &model.to_bytes(), false, None, false)
            .unwrap();
        // Ten rows round up to three blocks of four.
        assert_eq!((report.generation, report.warmed), (generation, 12));
        assert_eq!(
            registry.infer("m", input.clone()).unwrap(),
            model.infer(&input).unwrap()
        );
    }
    registry.shutdown();
}

/// A swap tells the displaced engine it is shutting down *before* it
/// waits for that engine's in-flight requests, so a request parked in
/// the old engine's batcher hold is answered at once — by the engine it
/// was submitted to, under that engine's generation — and the swap
/// returns without sitting the hold out. (2 s hold, 1 s bound: the
/// margin is for the shared box's stalls, not for the code.)
#[test]
fn swap_cuts_the_displaced_engines_hold_short() {
    const HOLD: Duration = Duration::from_secs(2);
    // The warm-up wave is one full block of eight, so it never holds.
    let registry = wave_registry(64, 8, HOLD, 8);
    let (old_model, new_model) = (compiled_model(81), compiled_model(82));
    registry.register("m", old_model.clone()).unwrap();
    let mut rng = SeededRng::new(8);
    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);

    std::thread::scope(|scope| {
        let parked = scope.spawn(|| registry.infer_with_generation("m", input.clone()));
        // One row in a batch of eight: the old engine holds it.
        while registry.stats("m").unwrap().server.submitted == 0 {
            std::thread::yield_now();
        }
        let started = Instant::now();
        let report = registry
            .put_artifact("m", &new_model.to_bytes(), false, None, false)
            .unwrap();
        let (output, generation) = parked.join().unwrap().unwrap();
        let took = started.elapsed();
        assert!(took < HOLD / 2, "swap + parked answer took {took:?}");
        assert_eq!((report.generation, report.drained), (1, true));
        assert_eq!(report.old_stats.unwrap().completed, 1);
        assert_eq!((output, generation), (old_model.infer(&input).unwrap(), 0));
    });
    assert_eq!(registry.stats("m").unwrap().generation, 1);
    registry.shutdown();
}

/// Under repeated hot-swaps between two artifacts, every reply's
/// `x-model-generation` names exactly the generation whose bits its
/// body carries: the handler takes both from the one slot the request
/// was submitted to, where reading the generation in a separate registry
/// call let a cutover slip between the two.
#[test]
fn generation_header_names_the_artifact_that_answered() {
    const CLIENTS: usize = 3;
    const SWAPS: usize = 40;

    // Generation g serves `models[g % 2]`.
    let models = [compiled_model(100), compiled_model(200)];
    let gateway = Gateway::bind(test_config()).unwrap();
    gateway.registry().register("m", models[0].clone()).unwrap();
    let addr = gateway.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(900 + c as u64);
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut answered = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let input = vec_f32(&mut rng, FEATURES, -2.0, 2.0);
                    let body = le_bytes(&input);
                    write_request(&mut stream, "POST", "/models/m/infer", None, &body, true)
                        .unwrap();
                    answered.push((input, read_response(&mut stream).unwrap()));
                }
                answered
            })
        })
        .collect();

    for swap in 1..=SWAPS {
        std::thread::sleep(Duration::from_millis(2));
        let bytes = models[swap % 2].to_bytes();
        let response = request(addr, "PUT", "/models/m", None, &bytes).unwrap();
        assert_eq!(response.status, 200, "{}", response.body_text());
    }
    stop.store(true, Ordering::Release);

    let mut generations = std::collections::BTreeSet::new();
    for client in clients {
        for (input, response) in client.join().unwrap() {
            assert_eq!(response.status, 200, "{}", response.body_text());
            let generation: usize = response
                .header("x-model-generation")
                .and_then(|g| g.parse().ok())
                .expect("every answer names its generation");
            assert_eq!(
                le_floats(&response.body),
                models[generation % 2].infer(&input).unwrap(),
                "generation {generation} did not compute this answer"
            );
            generations.insert(generation);
        }
    }
    assert!(generations.len() > 2, "traffic saw only {generations:?}");
    gateway.shutdown();
}

/// The JSON bodies of `GET /models`, `PUT` (201 and 200) and
/// `DELETE`, byte for byte as the
/// hand-written `format!` templates produced them before the gateway's
/// JSON writer replaced those (captured from that code).
#[test]
fn json_bodies_are_byte_identical_to_the_templates_they_replaced() {
    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();
    let plain = compiled_model(44).to_bytes();
    let padded = dead_padded_model(44, 9).to_bytes();
    let put = |name: &str, headers: &[(&str, &str)], body: &[u8]| {
        let response =
            request_with_headers(addr, "PUT", &format!("/models/{name}"), headers, body).unwrap();
        (response.status, response.body_text())
    };

    assert_eq!(
        put("b", &[], &plain),
        (
            201,
            "{\"name\":\"b\",\"created\":true,\"generation\":0,\"warmed\":8,\"drained\":true}"
                .into()
        )
    );
    assert_eq!(
        put("a.opt", &[], &padded),
        (
            201,
            "{\"name\":\"a.opt\",\"created\":true,\"generation\":0,\"warmed\":8,\"drained\":true}"
                .into()
        )
    );
    assert_eq!(
        put("b", &[], &padded),
        (
            200,
            "{\"name\":\"b\",\"created\":false,\"generation\":1,\"warmed\":8,\"drained\":true}"
                .into()
        )
    );
    let listing = request(addr, "GET", "/models", None, &[]).unwrap();
    assert_eq!(
        listing.body_text(),
        "{\"models\":[{\"name\":\"a.opt\",\"generation\":0},{\"name\":\"b\",\"generation\":1}]}"
    );
    let removed = request(addr, "DELETE", "/models/a.opt", None, &[]).unwrap();
    assert_eq!(
        (removed.status, removed.body_text()),
        (200, "{\"name\":\"a.opt\",\"removed\":true}".into())
    );
    let listing = request(addr, "GET", "/models", None, &[]).unwrap();
    assert_eq!(
        listing.body_text(),
        "{\"models\":[{\"name\":\"b\",\"generation\":1}]}"
    );
    let removed = request(addr, "DELETE", "/models/b", None, &[]).unwrap();
    assert_eq!(removed.body_text(), "{\"name\":\"b\",\"removed\":true}");
    let listing = request(addr, "GET", "/models", None, &[]).unwrap();
    assert_eq!(listing.body_text(), "{\"models\":[]}");

    gateway.shutdown();
}

/// `GET /models` reads its `(name, generation)` pairs under one hold of
/// the registry lock: while another thread deletes, every listing is a
/// set of models that were all registered at one instant, each with a
/// generation its slot really held — no model half-gone, none reported
/// at a made-up generation 0.
#[test]
fn listing_while_deleting_invents_no_model_and_no_generation() {
    const MODELS: usize = 6;
    let registry = Arc::new(wave_registry(16, 8, Duration::from_micros(200), 8));
    let names: Vec<String> = (0..MODELS).map(|i| format!("m{i}")).collect();
    let bytes = compiled_model(71).to_bytes();
    for name in &names {
        // Created at generation 0, swapped to 1: a listed 0 is invented.
        for generation in 0..2 {
            let report = registry.put_artifact(name, &bytes, false, None, false);
            assert_eq!(report.unwrap().generation, generation);
        }
    }
    let deleter = {
        let (registry, names) = (Arc::clone(&registry), names.clone());
        std::thread::spawn(move || {
            for name in &names {
                registry.remove(name).unwrap();
            }
        })
    };
    // Models go in name order, so what is left is always a suffix.
    let mut listings = 0;
    loop {
        let listing = registry.generations();
        let expected: Vec<(String, u64)> = names[MODELS - listing.len()..]
            .iter()
            .map(|name| (name.clone(), 1))
            .collect();
        assert_eq!(listing, expected, "listing {listings}");
        listings += 1;
        if listing.is_empty() {
            break;
        }
    }
    deleter.join().unwrap();
}

/// The upload header refuses a value it does not know in the words it
/// always used, and a refused upload registers nothing.
#[test]
fn unknown_upload_header_values_are_refused_in_the_same_words() {
    let gateway = Gateway::bind(test_config()).unwrap();
    let addr = gateway.local_addr();
    let bytes = compiled_model(72).to_bytes();
    let refused =
        request_with_headers(addr, "PUT", "/models/m", &[("x-kernels", "int8")], &bytes).unwrap();
    assert_eq!(
        (refused.status, refused.body_text()),
        (
            400,
            "unknown x-kernels value \"int8\"; try \"int16\"\n".into()
        )
    );
    let listing = request(addr, "GET", "/models", None, &[]).unwrap();
    assert_eq!(listing.body_text(), "{\"models\":[]}");
    gateway.shutdown();
}

/// A `ModelStats` with every field distinct; `rich` adds what an int16
/// generation reports on top.
fn sample_stats(rich: bool) -> ModelStats {
    use rapidnn_serve::ServerStats;
    let mut batch_size_buckets = [0; rapidnn_serve::BATCH_BUCKETS];
    batch_size_buckets[..4].copy_from_slice(&[5, 0, 7, 1]);
    ModelStats {
        name: "mnist-tiny".into(),
        generation: 3,
        input_features: 784,
        output_features: 10,
        inflight: 2,
        kernel_path: if rich { "int16" } else { "f32" },
        licensed_ops: if rich { 3 } else { 0 },
        server: ServerStats {
            submitted: 41,
            completed: 38,
            failed: 1,
            rejected: 0,
            shed: 2,
            batches: 13,
            mean_batch_size: 2.923076923076923,
            batch_size_buckets,
            queue_depth: 2,
            peak_queue_depth: 9,
            mean_latency: Duration::from_nanos(1_250_333),
            p50_latency: Duration::from_nanos(1 << 20),
            p90_latency: Duration::from_nanos(1 << 21),
            p99_latency: Duration::from_nanos(1 << 22),
            latency_overflows: 0,
            throughput_rps: 1670.25,
            uptime: Duration::from_millis(23_351),
        },
    }
}

/// The stats body, byte for byte as the hand-written `format!`
/// template this writer replaced produced it (captured from it).
#[test]
fn stats_body_is_byte_identical_to_the_template_it_replaced() {
    let server = "\"server\":{\"submitted\":41,\"completed\":38,\"failed\":1,\"rejected\":0,\
        \"shed\":2,\"batches\":13,\"mean_batch_size\":2.923076923076923,\
        \"batch_size_buckets\":[5,0,7,1,0,0,0,0,0,0,0,0,0,0,0,0],\"queue_depth\":2,\
        \"peak_queue_depth\":9,\"mean_latency_ns\":1250333,\"p50_latency_ns\":1048576,\
        \"p90_latency_ns\":2097152,\"p99_latency_ns\":4194304,\"latency_overflows\":0,\
        \"throughput_rps\":1670.25,\"uptime_ms\":23351}}";
    let head = "{\"name\":\"mnist-tiny\",\"generation\":3,\"input_features\":784,\
        \"output_features\":10,\"inflight\":2,";
    assert_eq!(
        sample_stats(false).to_json(),
        format!("{head}\"kernel_path\":\"f32\",\"licensed_ops\":0,{server}")
    );
    assert_eq!(
        sample_stats(true).to_json(),
        format!("{head}\"kernel_path\":\"int16\",\"licensed_ops\":3,{server}")
    );
}
