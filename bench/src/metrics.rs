//! The benchmark's metric names, units, directions and bounds — the
//! one table `BENCHMARK.json` is checked against (see the
//! `benchmark_json_matches_the_tables` test) — and the value type every
//! measurement is reported in.

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured on every workload with tracing off.
/// `bound` is the share of the parent's median by which it may worsen
/// before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric: measured by the traced run, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// Bounds are sized for the sandbox, not for the code: a bound under
// three times the run-to-run spread (1-9 % on the shared 2-core box,
// 13 % in its worst round) gives verdicts that flip with the
// neighbours. See README.md,
// "Steadiness on this box".
pub const END_TO_END: &[EndToEnd] = &[
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("req_per_s", "1/s", Higher, 0.25),
    end_to_end("rows_per_s", "1/s", Higher, 0.25),
    end_to_end("latency_p50_us", "us", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // gateway.server: socket, accept workers, routing.
    layer("gateway.server.infer_rt_us", "us", Lower),
    layer("gateway.server.health_rt_us", "us", Lower),
    layer("gateway.server.conn_setup_us", "us", Lower),
    layer("gateway.server.self_us", "us", Lower),
    // gateway.http: request parse and response write, in memory.
    layer("gateway.http.parse_small_us", "us", Lower),
    layer("gateway.http.parse_wide_us", "us", Lower),
    layer("gateway.http.parse_put_us", "us", Lower),
    layer("gateway.http.write_us", "us", Lower),
    // gateway.registry: admission, slot lookup, verified hot-swap.
    layer("gateway.registry.infer_us", "us", Lower),
    layer("gateway.registry.self_us", "us", Lower),
    layer("gateway.registry.put_plain_ms", "ms", Lower),
    layer("gateway.registry.put_int16_ms", "ms", Lower),
    layer("gateway.registry.put_optimize_ms", "ms", Lower),
    layer("gateway.registry.shed_count", "count", Lower),
    // serve.engine: queue, dynamic batcher, worker wake-ups.
    layer("serve.engine.rt_us", "us", Lower),
    layer("serve.engine.hold_us", "us", Lower),
    layer("serve.engine.batch_rows_mean", "count", Higher),
    layer("serve.engine.batches", "count", Lower),
    layer("serve.engine.peak_queue_depth", "count", Lower),
    layer("serve.engine.mean_latency_us", "us", Lower),
    layer("serve.engine.start_ms", "ms", Lower),
    layer("serve.engine.drain_ms", "ms", Lower),
    layer("serve.engine.batch_overhead_pct", "%", Lower),
    // serve.pipeline: stage-sharded serving.
    layer("serve.pipeline.stages2_rows_per_s", "1/s", Higher),
    layer("serve.pipeline.speedup_vs_unsharded", "x", Higher),
    // serve.kernels: the batch kernels themselves.
    layer("serve.kernels.f32_row1_us", "us", Lower),
    layer("serve.kernels.i16_row1_us", "us", Lower),
    layer("serve.kernels.deep_f32_row1_us", "us", Lower),
    layer("serve.kernels.deep_i16_row1_us", "us", Lower),
    layer("serve.kernels.f32_b64_rows_per_s", "1/s", Higher),
    layer("serve.kernels.i16_b64_rows_per_s", "1/s", Higher),
    layer("baselines.gemm_b64_rows_per_s", "1/s", Higher),
    layer("serve.kernels.infer_us", "us", Lower),
    layer("serve.kernels.lookups_per_row", "count", Lower),
    layer("serve.kernels.encodes_per_row", "count", Lower),
    layer("serve.kernels.cost_units_per_row", "count", Lower),
    layer("serve.kernels.ns_per_cost_unit", "ns", Lower),
    layer("serve.kernels.table_bytes", "bytes", Lower),
    layer("serve.kernels.scratch_bytes", "bytes", Lower),
    // serve.artifact / serve.quant / analyze: the write path's parts.
    layer("serve.artifact.bytes", "bytes", Lower),
    layer("serve.artifact.encode_us", "us", Lower),
    layer("serve.artifact.decode_us", "us", Lower),
    layer("serve.artifact.decode_strict_us", "us", Lower),
    layer("analyze.checker.analyze_us", "us", Lower),
    layer("serve.quant.quantize_ms", "ms", Lower),
    layer("serve.quant.licensed_ops", "count", Higher),
    layer("analyze.optimize.optimize_ms", "ms", Lower),
    layer("analyze.optimize.bytes_removed", "bytes", Higher),
    // core: composing a model from a float network.
    layer("core.compose_s", "s", Lower),
    // loadgen: the harness itself.
    layer("loadgen.lag_p50_us", "us", Lower),
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("loadgen.achieved_share", "share", Higher),
    layer("loadgen.latency_p99_us", "us", Lower),
    layer("loadgen.reconnects", "count", Lower),
    layer("loadgen.client_self_us", "us", Lower),
    layer("loadgen.trace_overhead_pct", "%", Lower),
    layer("loadgen.self_sum_vs_latency_pct", "%", Lower),
    // workload: what only one workload observes, and the failure share
    // (normally 0, so it cannot carry a relative bound).
    layer("workload.slo_rate_rps", "1/s", Higher),
    layer("workload.swap_ms_p50", "ms", Lower),
    layer("workload.failed_share", "share", Lower),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The best slice (or, for a replayed call, the median call), with
    /// the median and the range.
    pub summary: Summary,
    /// Observations behind the value (requests, calls or set-ups).
    pub samples: u64,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value in the metric's unit; timings only.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A value for `name`, which must be in the tables above: they give
    /// its unit and direction. A name in neither is a bug in the
    /// harness.
    pub fn new(name: &str, summary: Summary, samples: u64) -> Metric {
        let (name, unit, better) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        Metric {
            name,
            unit,
            better,
            summary,
            samples,
            tail: None,
        }
    }

    /// A single number: a count, a size, or a derived value.
    pub fn point(name: &str, value: f64) -> Metric {
        Metric::new(name, Summary::point(value), 1)
    }

    pub fn with_tail(mut self, tail: Option<(f64, f64)>) -> Metric {
        self.tail = tail;
        self
    }

    pub fn value(&self) -> f64 {
        self.summary.value
    }
}

/// Finds `name` among `metrics`.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}
