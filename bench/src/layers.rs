//! The traced run's layer replay: the same request rows pushed through
//! each layer's public entry point in turn, timed from outside, and
//! each layer's self time taken as its span minus the layer beneath.

use crate::client::{infer_head, push_row, put_request, Conn, HEALTH_REQUEST};
use crate::loadgen::{summarize, By, Expect};
use crate::metrics::{find, Metric};
use crate::models::{
    deep_mlp, expected_outputs, mnist_tiny, padded_artifact, RowPool, Upload, MODEL_SEED,
};
use crate::stats::{highest_supported_percentile, percentile, Summary};
use crate::workloads::{
    batch_loop, engine_config, gateway_config, Fixture, Inputs, Plan, Workload, MAX_BATCH_SIZE,
    MODEL_NAME, OFFLINE_BATCH_ROWS,
};
use rapidnn::analyze::{op_costs, Program};
use rapidnn::baselines::GemmMlp;
use rapidnn::gateway::{HttpReader, Limits, ReadOutcome, Registry, Response};
use rapidnn::serve::{BatchRunner, CompiledModel, Engine};
use rapidnn::tensor::SeededRng;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Times each of `n` calls of `f`, in nanoseconds.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// A timing metric from per-call nanoseconds, in the unit the tables
/// give `name`: the median, the range, the sample count and the highest
/// percentile the sample supports.
fn timing(name: &str, mut ns: Vec<u64>) -> Metric {
    ns.sort_unstable();
    let mut metric = Metric::new(name, Summary::point(0.0), ns.len() as u64);
    let per_unit = match metric.unit {
        "s" => 1e9,
        "ms" => 1e6,
        "us" => 1e3,
        unit => panic!("{name} is a timing, not {unit}"),
    };
    let to_unit = |v: u64| v as f64 / per_unit;
    let median = to_unit(percentile(&ns, 50.0));
    metric.summary = Summary {
        value: median,
        median,
        min: to_unit(ns.first().copied().unwrap_or(0)),
        max: to_unit(ns.last().copied().unwrap_or(0)),
    };
    metric
        .with_tail(highest_supported_percentile(ns.len()).map(|p| (p, to_unit(percentile(&ns, p)))))
}

/// Times `n` calls of `f` and reports them as timing metric `name`.
fn timed(out: &mut Vec<Metric>, name: &str, n: usize, f: impl FnMut(usize)) {
    out.push(timing(name, time_each(n, f)));
}

/// An in-memory connection: reads come from `input`, writes are
/// collected, so `HttpReader` and `Response` run with no socket.
struct MemStream {
    input: io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Per-call time of `HttpReader::next_request` over `count` copies of
/// `request` laid end to end, as a keep-alive connection delivers them.
fn parse_ns(request: &[u8], count: usize) -> Vec<u64> {
    let mut reader = HttpReader::new(MemStream {
        input: io::Cursor::new(request.repeat(count)),
        output: Vec::new(),
    });
    time_each(count, |_| {
        let outcome = reader.next_request(Limits::default());
        assert!(
            matches!(black_box(&outcome), ReadOutcome::Request(r) if !r.body.is_empty()),
            "the gateway's parser refused the harness's own request"
        );
    })
}

/// Self time of each layer of a nest, outermost first: its span minus
/// the span of the layer beneath; the innermost keeps its whole span.
pub fn self_chain(spans: &[f64]) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| span - spans.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

fn one_row_ns(model: &CompiledModel, rows: &RowPool, count: usize) -> Vec<u64> {
    let mut runner = BatchRunner::for_model(model, MAX_BATCH_SIZE);
    let mut out = Vec::new();
    time_each(count, |i| {
        runner.run(model, rows.row(i), &mut out).expect("row runs");
        black_box(&out);
    })
}

/// Calls per chunk of a replayed measurement.
const CHUNK: usize = 100;

/// The run of [`CHUNK`] consecutive calls with the lowest median:
/// the replay's counterpart of the workloads' best slice, so that a
/// call replayed while the machine was slow still reads what it costs.
fn best_chunk(call_ns: &[u64]) -> Vec<u64> {
    call_ns
        .chunks(CHUNK)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            sorted
        })
        .min_by_key(|sorted| percentile(sorted, 50.0))
        .unwrap_or_default()
}

/// Rows per second of 64-row calls, from the median call of their best
/// chunk.
fn b64_rows_per_s(call_ns: &[u64]) -> f64 {
    OFFLINE_BATCH_ROWS as f64 * 1e9 / percentile(&best_chunk(call_ns), 50.0) as f64
}

/// Rows per second through one reused runner fed 64 rows per call,
/// with the runner for its scratch size.
fn batched_rows_per_s(model: &CompiledModel, rows: &RowPool, calls: usize) -> (f64, BatchRunner) {
    let mut runner = BatchRunner::for_model(model, OFFLINE_BATCH_ROWS);
    let mut out = Vec::new();
    let call_ns = time_each(calls, |i| {
        runner
            .run(model, rows.block(i, OFFLINE_BATCH_ROWS), &mut out)
            .expect("batch runs");
        black_box(&out);
    });
    (b64_rows_per_s(&call_ns), runner)
}

/// Correct rows per second of the offline loop against `model`.
fn offline_rows_per_s(
    model: CompiledModel,
    stages: usize,
    inputs: &Inputs,
    length: Duration,
) -> f64 {
    let engine = Engine::start(model, engine_config(OFFLINE_BATCH_ROWS, stages));
    let warmup = length / 4;
    let (recs, _) = batch_loop(&engine, inputs, warmup + length, None);
    let stats = summarize(&recs, warmup, length, By::Done);
    assert_eq!(stats.wrong, 0, "offline loop returned a wrong answer");
    engine.drain(Duration::from_secs(1));
    stats.ok_per_s.value * OFFLINE_BATCH_ROWS as f64
}

fn inputs_of(model: &CompiledModel, seed: u64, range: f32) -> Inputs {
    let rows = RowPool::generate(seed, model.input_features(), range);
    let expect = Expect {
        width: model.output_features() * 4,
        variants: vec![expected_outputs(model, &rows)],
    };
    Inputs { rows, expect }
}

/// Measurements that do not depend on the workload: both fixed models
/// through kernels, artifact codec, analyzer, quantizer, optimizer,
/// registry swaps, engine start/drain and the two engine topologies.
fn fixed_layers(seed: u64, plan: Plan, out: &mut Vec<Metric>) {
    let n = plan.replay_rows;
    let few = (n / 50).max(3);
    let loop_length = plan.window / 20;

    let compose = time_each(3, |_| {
        black_box((mnist_tiny(MODEL_SEED), deep_mlp(MODEL_SEED)));
    });
    out.push(timing("core.compose_s", compose));
    let mnist = mnist_tiny(MODEL_SEED);
    let deep = deep_mlp(MODEL_SEED);
    let mut mnist_i16 = mnist.model.clone();
    mnist_i16.quantize().expect("mnist-tiny quantizes");
    let mut deep_i16 = deep.model.clone();
    deep_i16.quantize().expect("deep-mlp quantizes");
    let wide = inputs_of(&mnist_i16, seed, 1.0);
    let small = inputs_of(&deep.model, seed, 2.0);

    // serve.artifact / analyze / serve.quant: the write path's parts.
    let bytes = mnist.model.to_bytes();
    let padded = padded_artifact(&mnist);
    let padded_model = CompiledModel::from_bytes(&padded).expect("padded artifact decodes");
    out.push(Metric::point("serve.artifact.bytes", bytes.len() as f64));
    timed(out, "serve.artifact.encode_us", n, |_| {
        black_box(mnist.model.to_bytes());
    });
    timed(out, "serve.artifact.decode_us", n, |_| {
        black_box(CompiledModel::from_bytes(&bytes).expect("artifact decodes"));
    });
    timed(out, "serve.artifact.decode_strict_us", n, |_| {
        black_box(CompiledModel::from_bytes_strict(&bytes).expect("artifact verifies"));
    });
    timed(out, "analyze.checker.analyze_us", n, |_| {
        black_box(mnist.model.analyze());
    });
    let mut fresh: Vec<CompiledModel> = (0..few).map(|_| mnist.model.clone()).collect();
    timed(out, "serve.quant.quantize_ms", few, |i| {
        fresh[i].quantize().expect("mnist-tiny quantizes");
    });
    out.push(Metric::point(
        "serve.quant.licensed_ops",
        mnist_i16.licensed_ops() as f64,
    ));
    timed(out, "analyze.optimize.optimize_ms", few, |_| {
        black_box(padded_model.optimize().expect("optimizer certifies"));
    });
    let optimized = padded_model.optimize().expect("optimizer certifies").0;
    out.push(Metric::point(
        "analyze.optimize.bytes_removed",
        (padded.len() - optimized.to_bytes().len()) as f64,
    ));

    // serve.kernels: one row and 64-row calls, both kernel paths.
    out.push(timing(
        "serve.kernels.f32_row1_us",
        one_row_ns(&mnist.model, &wide.rows, n),
    ));
    out.push(timing(
        "serve.kernels.i16_row1_us",
        one_row_ns(&mnist_i16, &wide.rows, n),
    ));
    out.push(timing(
        "serve.kernels.deep_f32_row1_us",
        one_row_ns(&deep.model, &small.rows, n),
    ));
    out.push(timing(
        "serve.kernels.deep_i16_row1_us",
        one_row_ns(&deep_i16, &small.rows, n),
    ));
    let calls = (n / 2).max(8);
    let (f32_rate, runner) = batched_rows_per_s(&mnist.model, &wide.rows, calls);
    let (i16_rate, _) = batched_rows_per_s(&mnist_i16, &wide.rows, calls);
    out.push(Metric::point("serve.kernels.f32_b64_rows_per_s", f32_rate));
    out.push(Metric::point("serve.kernels.i16_b64_rows_per_s", i16_rate));
    let mut gemm =
        GemmMlp::from_shapes(&mnist.model.dense_shapes(), &mut SeededRng::new(MODEL_SEED));
    let mut gemm_out = Vec::new();
    let gemm_ns = time_each(calls, |i| {
        gemm.forward_batch(wide.rows.block(i, OFFLINE_BATCH_ROWS), &mut gemm_out);
        black_box(&gemm_out);
    });
    out.push(Metric::point(
        "baselines.gemm_b64_rows_per_s",
        b64_rows_per_s(&gemm_ns),
    ));
    timed(out, "serve.kernels.infer_us", n, |i| {
        black_box(mnist.model.infer(wide.rows.row(i)).expect("row infers"));
    });
    let costs = op_costs(&Program::from_reinterpreted(&mnist.net));
    let units: u64 = costs.iter().map(rapidnn::analyze::OpCost::units).sum();
    out.push(Metric::point(
        "serve.kernels.lookups_per_row",
        costs.iter().map(|c| c.lookups).sum::<u64>() as f64,
    ));
    out.push(Metric::point(
        "serve.kernels.encodes_per_row",
        costs.iter().map(|c| c.encodes).sum::<u64>() as f64,
    ));
    out.push(Metric::point(
        "serve.kernels.cost_units_per_row",
        units as f64,
    ));
    out.push(Metric::point(
        "serve.kernels.ns_per_cost_unit",
        1e9 / f32_rate / units as f64,
    ));
    out.push(Metric::point(
        "serve.kernels.table_bytes",
        mnist.model.pool_bytes() as f64,
    ));
    out.push(Metric::point(
        "serve.kernels.scratch_bytes",
        runner.scratch_bytes() as f64,
    ));

    // gateway.http: the three request sizes the workloads send.
    let mut small_request = infer_head("m", small.rows.features);
    push_row(&mut small_request, small.rows.row(0));
    let mut wide_request = infer_head("m", wide.rows.features);
    push_row(&mut wide_request, wide.rows.row(0));
    let put = put_request("m", &Upload::plain(bytes.clone()));
    out.push(timing(
        "gateway.http.parse_small_us",
        parse_ns(&small_request, n),
    ));
    out.push(timing(
        "gateway.http.parse_wide_us",
        parse_ns(&wide_request, n),
    ));
    out.push(timing("gateway.http.parse_put_us", parse_ns(&put, n)));

    // gateway.registry: verified hot-swap over an existing model, no HTTP.
    let registry = Registry::new(gateway_config().registry);
    registry
        .put_artifact("m", &bytes, false, None, false)
        .expect("model registers");
    let mut swap = |name: &str, artifact: &[u8], int16: bool, optimize: bool| {
        let ns = time_each(few, |_| {
            let report = registry
                .put_artifact("m", artifact, int16, None, optimize)
                .expect("swap verifies");
            assert!(!report.created && report.drained);
        });
        out.push(timing(name, ns));
    };
    swap("gateway.registry.put_plain_ms", &bytes, false, false);
    swap("gateway.registry.put_int16_ms", &bytes, true, false);
    swap("gateway.registry.put_optimize_ms", &padded, false, true);
    registry.shutdown();

    // serve.engine: start to first answer, idle drain.
    let mut drains = Vec::new();
    let starts = time_each(few, |i| {
        let engine = Engine::start(mnist_i16.clone(), engine_config(MAX_BATCH_SIZE, 0));
        let ticket = engine
            .submit(wide.rows.row(i).to_vec())
            .expect("engine accepts");
        black_box(ticket.wait().expect("engine answers"));
        let idle = Instant::now();
        assert!(engine.drain(Duration::from_secs(1)).joined);
        drains.push(idle.elapsed().as_nanos() as u64);
    });
    // The start span above includes the drain it is followed by.
    let starts = starts.iter().zip(&drains).map(|(s, d)| s - d).collect();
    out.push(timing("serve.engine.start_ms", starts));
    out.push(timing("serve.engine.drain_ms", drains));

    // The offline loop against the bare kernel, and the two topologies.
    let offline = offline_rows_per_s(mnist_i16.clone(), 0, &wide, loop_length);
    out.push(Metric::point(
        "serve.engine.batch_overhead_pct",
        (1.0 - offline / i16_rate) * 100.0,
    ));
    let unsharded = offline_rows_per_s(deep.model.clone(), 0, &small, loop_length);
    let sharded = offline_rows_per_s(deep.model.clone(), 2, &small, loop_length);
    out.push(Metric::point("serve.pipeline.stages2_rows_per_s", sharded));
    out.push(Metric::point(
        "serve.pipeline.speedup_vs_unsharded",
        sharded / unsharded,
    ));
}

/// The workload's own model through every layer from the socket down,
/// then each layer's self time. `latency_p50_us` is the traced
/// workload's, for the check that the self times add up to it.
fn layer_chain(
    fixture: &Fixture,
    inputs: &Inputs,
    plan: Plan,
    latency_p50_us: f64,
    out: &mut Vec<Metric>,
) {
    let n = plan.replay_rows;
    let addr = fixture.gateway.local_addr();
    let name = MODEL_NAME;
    let head = infer_head(name, fixture.features());
    let width = inputs.expect.width;

    // Full HTTP round trip, one kept-alive connection, nothing else
    // running.
    let mut conn = Conn::open(addr).expect("replay connection");
    let mut request = Vec::new();
    let rt = time_each(n, |i| {
        request.clear();
        request.extend_from_slice(&head);
        push_row(&mut request, inputs.rows.row(i));
        let (reply, _) = conn.round_trip(&request).expect("replay round trip");
        assert!(
            reply.status == 200 && inputs.expect.matches(i, conn.body(&reply)) & 1 == 1,
            "replay got a wrong answer"
        );
    });
    let health = time_each(n, |_| {
        let (reply, _) = conn.round_trip(HEALTH_REQUEST).expect("health round trip");
        assert_eq!(reply.status, 200);
    });
    drop(conn);
    let setups = time_each((n / 10).max(3), |_| {
        let mut conn = Conn::open(addr).expect("connects");
        black_box(conn.round_trip(HEALTH_REQUEST).expect("health round trip"));
    });
    out.push(timing("gateway.server.infer_rt_us", best_chunk(&rt)));
    out.push(timing("gateway.server.health_rt_us", best_chunk(&health)));
    out.push(timing("gateway.server.conn_setup_us", setups));

    // Response::write_to into memory, with the workload's body size.
    let mut sink = Vec::with_capacity(512);
    let response = Response::bytes(200, inputs.expect.variants[0][..width].to_vec())
        .header("x-model-generation", "0");
    let writes = time_each(n, |_| {
        sink.clear();
        response.write_to(&mut sink, true).expect("memory write");
        black_box(&sink);
    });
    out.push(timing("gateway.http.write_us", writes));

    // Registry::infer, one in-process caller.
    let registry = fixture.gateway.registry();
    let infers = time_each(n, |i| {
        let output = registry
            .infer(name, inputs.rows.row(i).to_vec())
            .expect("registry serves");
        black_box(output);
    });
    out.push(timing("gateway.registry.infer_us", best_chunk(&infers)));

    // Engine::submit + wait, one in flight, on the same prepared model
    // under the same engine settings as the gateway's.
    let engine = Engine::start(
        fixture.uploads[0].prepared(),
        engine_config(MAX_BATCH_SIZE, 0),
    );
    let engine_rt = time_each(n, |i| {
        let ticket = engine
            .submit(inputs.rows.row(i).to_vec())
            .expect("engine accepts");
        black_box(ticket.wait().expect("engine answers"));
    });
    engine.drain(Duration::from_secs(1));
    out.push(timing("serve.engine.rt_us", best_chunk(&engine_rt)));

    // Which of the fixed measurements sit beneath this workload.
    let (parse, kernel) = match fixture.workload {
        Workload::OnlineSmall => (
            "gateway.http.parse_small_us",
            "serve.kernels.deep_f32_row1_us",
        ),
        Workload::SwapUnderLoad => ("gateway.http.parse_wide_us", "serve.kernels.f32_row1_us"),
        Workload::OnlineWideOpen | Workload::OfflineBatch => {
            ("gateway.http.parse_wide_us", "serve.kernels.i16_row1_us")
        }
    };
    let value = |name: &str| find(out, name).expect("measured above").value();
    let http = value(parse) + value("gateway.http.write_us");
    let selfs = self_chain(&[
        value("gateway.server.infer_rt_us"),
        value("gateway.registry.infer_us") + http,
        value("gateway.registry.infer_us"),
        value("serve.engine.rt_us"),
        value(kernel),
    ]);
    out.push(Metric::point("gateway.server.self_us", selfs[0]));
    out.push(Metric::point("gateway.registry.self_us", selfs[2]));
    out.push(Metric::point("serve.engine.hold_us", selfs[3]));
    let sum: f64 = selfs.iter().sum();
    out.push(Metric::point(
        "loadgen.self_sum_vs_latency_pct",
        (sum - latency_p50_us) / latency_p50_us * 100.0,
    ));
}

/// Every per-layer metric that comes from the replay rather than from
/// the traced workload itself.
pub fn replay(
    fixture: &Fixture,
    inputs: &Inputs,
    seed: u64,
    plan: Plan,
    latency_p50_us: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    fixed_layers(seed, plan, &mut out);
    // `swap_under_load` leaves whichever variant its last PUT asked
    // for; the chain replays against variant 0.
    if fixture.workload == Workload::SwapUnderLoad {
        let status = fixture.upload(&fixture.uploads[0]).expect("re-upload");
        assert_eq!(status, 200, "variant 0 was not accepted back");
    }
    layer_chain(fixture, inputs, plan, latency_p50_us, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_telescope_to_the_outermost_span() {
        let spans = [1200.0, 1130.0, 1120.0, 1050.0, 12.0];
        let selfs = self_chain(&spans);
        assert_eq!(selfs, vec![70.0, 10.0, 70.0, 1038.0, 12.0]);
        assert_eq!(selfs.iter().sum::<f64>(), spans[0]);
        assert_eq!(self_chain(&[5.0]), vec![5.0]);
    }

    #[test]
    fn the_gateway_parser_accepts_the_harness_requests_back_to_back() {
        let mut request = infer_head("m", 4);
        push_row(&mut request, &[0.5, -0.5, 1.0, 2.0]);
        assert_eq!(parse_ns(&request, 7).len(), 7);
    }
}
