//! What a run prints and writes: the `env` block, the human-readable
//! table, the result document (`--out`), the one-line result the
//! driver reads, and the agreement verdicts of `--repeat`/`--compare`.

use crate::json::{self, number, quote, Value};
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads as w;
use std::collections::BTreeMap;
use std::process::Command;

pub const SCHEMA: &str = "rapidnn-e2e-bench/1";

/// One finished run of one workload.
pub struct RunDoc {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// [`env_json`] of this run, taken once (it asks `rustc` and `git`).
    pub env: String,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The measured window's failures by HTTP status (0: I/O error or
    /// never sent; 200: wrong answer).
    pub failed_by_status: BTreeMap<u16, u64>,
    /// `loadgen.lag_p50_us` above a tenth of `latency_p50_us`: the
    /// generator, not the system, set the numbers.
    pub generator_limited: bool,
    /// Every metric measured, end-to-end or per-layer first, then the
    /// rest.
    pub metrics: Vec<Metric>,
}

impl RunDoc {
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The names the driver's contract wants from this run, in table
    /// order: every end-to-end metric untraced, every per-layer metric
    /// traced.
    fn contract_names(&self) -> Vec<&'static str> {
        if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The last line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .contract_names()
            .into_iter()
            .map(|name| {
                let m = crate::metrics::find(&self.metrics, name)
                    .unwrap_or_else(|| panic!("run did not measure {name}"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(m.value()),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full result document.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let tail = m.tail.map_or(String::new(), |(p, v)| {
                    format!(", \"tail_percentile\": {}, \"tail_value\": {}", number(p), number(v))
                });
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"samples\": {}{tail}}}",
                    quote(m.name),
                    number(m.value()),
                    quote(m.unit),
                    number(m.summary.median),
                    number(m.summary.min),
                    number(m.summary.max),
                    m.samples,
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"workload\": {},\n  \"trace\": {},\n  \"comparable\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"wrong\": {},\n  \
             \"generator_limited\": {},\n  \"env\": {},\n  \"metrics\": {{\n{}\n  }}\n}}",
            quote(SCHEMA),
            quote(self.workload),
            self.trace,
            !self.quick,
            self.correct(),
            self.attempted,
            self.failed,
            self.wrong,
            self.generator_limited,
            self.env,
            metrics.join(",\n"),
        )
    }

    /// Every metric by name with its unit, range, sample count and the
    /// highest percentile the sample supports.
    pub fn print(&self) {
        println!(
            "== {} seed={} trace={} seconds={}{} ==",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.seconds,
            if self.quick {
                " QUICK: windows / 10, numbers not comparable"
            } else {
                ""
            }
        );
        if let Some(workload) = w::Workload::parse(self.workload) {
            println!("why {}", workload.why());
        }
        println!("env {}", self.env);
        let contract = self.contract_names();
        for m in &self.metrics {
            let tail = m
                .tail
                .map_or(String::new(), |(p, v)| format!("  p{p}={v:.1}"));
            let range = if m.summary.min == m.summary.max {
                String::new()
            } else {
                format!(
                    "  median {:.4} [{:.4} .. {:.4}]",
                    m.summary.median, m.summary.min, m.summary.max
                )
            };
            println!(
                "  {}{:<38} {:>14.4} {:<6} {:<7}{range}  n={}{tail}",
                if contract.contains(&m.name) { ' ' } else { '+' },
                m.name,
                m.value(),
                m.unit,
                m.better.as_str(),
                m.samples,
            );
        }
        println!(
            "  attempted={} failed={} wrong={} failed_share={:.6}{}",
            self.attempted,
            self.failed,
            self.wrong,
            self.failed as f64 / self.attempted.max(1) as f64,
            if self.generator_limited {
                "  GENERATOR_LIMITED"
            } else {
                ""
            }
        );
        if !self.failed_by_status.is_empty() {
            println!("  failures by status: {:?}", self.failed_by_status);
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The machine, the toolchain, the revision and every pinned setting.
pub fn env_json(seed: u64, seconds: f64, quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let threads = std::env::var("RAPIDNN_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_revision\": {}, \"RAPIDNN_THREADS\": {}, \
         \"seed\": {seed}, \"seconds\": {}, \"quick\": {quick}, \"model_seed\": {}, \
         \"gateway.workers\": {}, \"registry.max_inflight\": {}, \"registry.warmup_samples\": {}, \
         \"engine.workers\": {}, \"engine.queue_capacity\": {}, \"engine.max_batch_size\": {}, \
         \"engine.max_wait_us\": {}, \"engine.stages\": 0, \"clients\": {}, \"warmup_s\": {}, \
         \"reconnect_every\": {}, \"base_rate_rps\": {}, \"slo_latency_ms\": {}, \"slo_share\": {}, \
         \"offline.batch_rows\": {}, \"offline.in_flight\": {}, \"swap.period_ms\": {}}}",
        quote(&command_line("rustc", &["-V"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&threads),
        number(seconds),
        crate::models::MODEL_SEED,
        w::GATEWAY_WORKERS,
        w::MAX_INFLIGHT,
        w::WARMUP_SAMPLES,
        w::ENGINE_WORKERS,
        w::QUEUE_CAPACITY,
        w::MAX_BATCH_SIZE,
        w::MAX_WAIT.as_micros(),
        w::CLIENTS,
        number(w::WARMUP.as_secs_f64()),
        crate::client::RECONNECT_EVERY,
        number(w::BASE_RATE),
        w::SLO_LATENCY.as_millis(),
        number(w::SLO_SHARE),
        w::OFFLINE_BATCH_ROWS,
        w::OFFLINE_IN_FLIGHT,
        w::SWAP_PERIOD.as_millis(),
    )
}

/// A document holding several runs, as `--workload all` and `--repeat`
/// write it.
pub fn combined_json(docs: &[String]) -> String {
    format!(
        "{{\n\"schema\": {},\n\"runs\": [\n{}\n]\n}}",
        quote(SCHEMA),
        docs.join(",\n")
    )
}

/// End-to-end values of one result file, by `(workload, metric)`. The
/// file is one run or a combined document; traced runs carry no
/// end-to-end metric and are skipped.
pub fn end_to_end_values(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let doc = json::parse(text)?;
    let runs: Vec<&Value> = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without metrics")?;
        for spec in END_TO_END {
            if let Some(v) = metrics
                .get(spec.name)
                .and_then(|m| m.get("value")?.as_f64())
            {
                values
                    .entry((workload.to_string(), spec.name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// How two sets of values of one metric relate under its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound and neither set's
    /// spread exceeds it.
    Agree,
    /// A spread (or, with one value a side, the difference itself) is
    /// wider than the bound: the metric cannot tell the sides apart.
    Unresolved,
    /// Side b's median is worse than side a's by more than the bound,
    /// and the spreads are inside it.
    Regressed,
    /// Side b's median is better than side a's by more than the bound.
    Improved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
        }
    }
}

/// Interquartile range over the median; `None` with fewer than two
/// values.
pub fn spread(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, med, q3]| (q3 - q1) / med.abs())
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let noisy = [a, b]
        .iter()
        .filter_map(|side| spread(side))
        .any(|s| s > bound);
    // One value a side says nothing about spread: a difference beyond
    // the bound is then all that is known, and it is not a verdict.
    let single = a.len() < 2 || b.len() < 2;
    match () {
        () if noisy => Verdict::Unresolved,
        () if worse_by.abs() <= bound => Verdict::Agree,
        () if single => Verdict::Unresolved,
        () if worse_by > 0.0 => Verdict::Regressed,
        () => Verdict::Improved,
    }
}

/// Prints one row per `(workload, metric)` present on both sides and
/// returns whether every pair agrees.
pub fn print_comparison(
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
) -> bool {
    println!(
        "{:<18} {:<16} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "iqr a", "iqr b", "bound"
    );
    let mut all_agree = true;
    for workload in w::Workload::ALL {
        for spec in END_TO_END {
            let key = (workload.name().to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = verdict(va, vb, spec.better, spec.bound);
            all_agree &= v == Verdict::Agree;
            let iqr =
                |s: &[f64]| spread(s).map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0));
            println!(
                "{:<18} {:<16} {:>13.4} {:>13.4} {:>8} {:>8} {:>5.0}%  {}",
                key.0,
                key.1,
                median(va),
                median(vb),
                iqr(va),
                iqr(vb),
                spec.bound * 100.0,
                v.as_str()
            );
        }
    }
    all_agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn doc(trace: bool) -> RunDoc {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        RunDoc {
            workload: "online_small",
            seed: 3,
            seconds: 2.0,
            trace,
            quick: true,
            env: env_json(3, 2.0, true),
            attempted: 10,
            failed: 1,
            wrong: 0,
            failed_by_status: BTreeMap::new(),
            generator_limited: false,
            metrics: names
                .into_iter()
                .enumerate()
                .map(|(i, name)| {
                    Metric::new(name, Summary::point(i as f64 + 0.5), 4)
                        .with_tail(Some((99.0, 7.25)))
                })
                .collect(),
        }
    }

    /// The repo's `BENCHMARK.json`, one directory above this package.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).unwrap()
    }

    fn names_of(list: &Value) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn output_parses_and_carries_every_name_in_benchmark_json() {
        let manifest = benchmark_json();
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = doc(trace);
            let line = json::parse(&run.contract_line()).unwrap();
            assert_eq!(
                line.as_object().unwrap().keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let full = json::parse(&run.to_json()).unwrap();
            assert_eq!(full.get("comparable"), Some(&Value::Bool(false)));
            assert!(full.get("env").and_then(|e| e.get("nproc")).is_some());
            let wanted = names_of(manifest.get(list).unwrap());
            for doc in [&line, &full] {
                let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
                for name in &wanted {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    assert!(m.get("value").and_then(Value::as_f64).is_some());
                    assert!(m.get("unit").and_then(Value::as_str).is_some());
                }
            }
            let printed = line.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(
                printed.len(),
                wanted.len(),
                "the line carries exactly the contract's names"
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let manifest = benchmark_json();
        let listed = manifest.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, spec) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(spec.better.as_str())
            );
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(spec.bound));
        }
        let listed = manifest.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, spec) in listed.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(spec.better.as_str())
            );
        }
        let workloads = manifest.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), w::Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(w::Workload::ALL) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(workload.name()));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(workload.why()));
            assert!(workload.why().len() <= 200);
        }
        let paths = manifest.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("bench"));
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady_a = [100.0, 101.0, 99.0, 100.5];
        let steady_b = [103.0, 104.0, 102.0, 103.5];
        assert_eq!(
            verdict(&steady_a, &steady_b, Better::Lower, 0.10),
            Verdict::Agree
        );
        let slow_b = [120.0, 121.0, 119.0, 120.5];
        assert_eq!(
            verdict(&steady_a, &slow_b, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady_a, &slow_b, Better::Higher, 0.10),
            Verdict::Improved
        );
        let noisy_b = [80.0, 140.0, 100.0, 125.0];
        assert_eq!(
            verdict(&steady_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Lower, 0.10),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&[100.0], &[125.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn combined_documents_group_values_by_workload_and_metric() {
        let one = doc(false).to_json();
        let combined = combined_json(&[one.clone(), doc(true).to_json(), one]);
        let values = end_to_end_values(&combined).unwrap();
        let key = ("online_small".to_string(), "setup_s".to_string());
        assert_eq!(values[&key], vec![0.5, 0.5]);
        assert_eq!(
            values.len(),
            END_TO_END.len(),
            "the traced run adds nothing"
        );
    }
}
