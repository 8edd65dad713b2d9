//! The repo's benchmark: four serving workloads measured from the
//! socket to the kernel, a traced run that splits time by layer, and
//! the tools to repeat and compare runs. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]] \
//!     [--quick] [--repeat <n>] [--out <file>]
//! cargo run --release --manifest-path bench/Cargo.toml -- --compare <a.json> <b.json>
//! ```

#![forbid(unsafe_code)]

mod client;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod models;
mod report;
mod stats;
mod trace;
mod workloads;

use metrics::Metric;
use report::RunDoc;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Plan, Workload};

/// Measured seconds per run unless `--seconds` says otherwise; the
/// value `BENCHMARK.json` gives the driver.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    /// `None` is `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: --workload <online_small|online_wide_open|offline_batch|swap_under_load|all> \
--seed <n> [--seconds <s>] [--trace [0|1]] [--quick] [--repeat <n>] [--out <file>]\n       \
--compare <a.json> <b.json>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut named_workload = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                named_workload = true;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?)
                    }
                };
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or("--seconds takes a number of at least 1")?;
            }
            "--trace" => {
                // A bare flag, or the driver's `--trace <0|1>`.
                args.trace = match raw.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value(&mut i, "--repeat")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--repeat takes a whole number of at least 1")?;
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, "--compare")?);
                let b = PathBuf::from(value(&mut i, "--compare")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.compare.is_none() && !named_workload {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Where traces and the per-run documents of `all`/`--repeat` go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in this process and returns what it measured.
fn run_one(workload: Workload, args: &Args) -> RunDoc {
    let plan = Plan::new(args.seconds, args.quick);
    // A traced run reports no set-up time, so it sets up once.
    let reps = if args.trace { 1 } else { plan.setup_reps };
    let (mut fixture, mut setups) = workloads::timed_set_up(workload, reps);
    let inputs = workloads::inputs_for(&fixture, args.seed);
    let mut doc = RunDoc {
        workload: workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        env: report::env_json(args.seed, args.seconds, args.quick),
        attempted: 0,
        failed: 0,
        wrong: 0,
        failed_by_status: Default::default(),
        generator_limited: false,
        metrics: Vec::new(),
    };
    let measured = if args.trace {
        // Half the window untraced, half traced: their difference is
        // what tracing costs. The layer replay follows.
        let half = plan.halved();
        let plain = workloads::run(&mut fixture, &inputs, args.seed, half, false);
        let traced = workloads::run(&mut fixture, &inputs, args.seed, half, true);
        let overhead = (plain.rows_per_s().value - traced.rows_per_s().value)
            / plain.rows_per_s().value
            * 100.0;
        let trace_path = out_dir().join(format!("{}.trace.jsonl", workload.name()));
        if let Err(e) = trace::write_jsonl(&trace_path, &traced.spans) {
            eprintln!("could not write {}: {e}", trace_path.display());
        }
        let replayed = layers::replay(
            &fixture,
            &inputs,
            args.seed,
            plan,
            traced.stats.p50_us.value,
        );
        doc.attempted = plain.attempted;
        doc.failed = plain.failed;
        doc.wrong = plain.wrong;
        doc.metrics.extend(replayed);
        doc.metrics
            .push(Metric::point("loadgen.trace_overhead_pct", overhead));
        traced
    } else {
        let run = workloads::run(&mut fixture, &inputs, args.seed, plan, false);
        doc.metrics.extend([
            Metric::new("req_per_s", run.stats.ok_per_s, run.stats.attempted),
            Metric::new("rows_per_s", run.rows_per_s(), run.stats.attempted),
            Metric::new("latency_p50_us", run.stats.p50_us, run.stats.attempted)
                .with_tail(run.stats.tail),
        ]);
        run
    };
    doc.attempted += measured.attempted;
    doc.failed += measured.failed;
    doc.wrong += measured.wrong;
    doc.failed_by_status = measured.stats.failed_by_status.clone();
    let lag = metrics::find(&measured.observed, "loadgen.lag_p50_us").map_or(0.0, Metric::value);
    doc.generator_limited = lag > 0.1 * measured.stats.p50_us.value;
    doc.metrics.extend(measured.observed);
    doc.metrics.extend([
        Metric::new(
            "loadgen.latency_p99_us",
            Summary::point(measured.stats.p99_us),
            measured.stats.attempted,
        )
        .with_tail(measured.stats.tail),
        Metric::point(
            "workload.failed_share",
            measured.failed as f64 / measured.attempted.max(1) as f64,
        ),
    ]);
    drop(fixture);
    if !args.trace {
        doc.metrics
            .push(Metric::point("peak_rss_mb", workloads::peak_rss_mb()));
        // The second batch of set-ups, a whole window after the first:
        // a burst of stolen CPU that covers one batch misses the other.
        setups.extend(workloads::timed_set_up(workload, plan.setup_reps).1);
        let setup_s = Metric::new("setup_s", Summary::lowest(&setups), setups.len() as u64);
        doc.metrics.insert(0, setup_s);
    }
    doc
}

/// Runs every requested (set, workload, traced?) combination, each in a
/// fresh process, and returns their result documents.
fn run_children(args: &Args) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let dir = out_dir().join("runs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let workloads = args
        .workload
        .map_or(Workload::ALL.to_vec(), |workload| vec![workload]);
    let mut docs = Vec::new();
    for set in 0..args.repeat {
        for workload in &workloads {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let path = dir.join(format!(
                    "set{set}-{}-trace{}.json",
                    workload.name(),
                    u8::from(trace)
                ));
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&path)
                    .stdin(Stdio::null());
                if args.quick {
                    child.arg("--quick");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace {trace}) failed: {status}",
                        workload.name()
                    ));
                }
                docs.push(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                );
            }
        }
    }
    Ok(docs)
}

/// `--repeat n`: the first set against the rest, per metric and
/// workload, under each metric's bound.
fn print_repeat_agreement(docs: &[String], repeat: usize) -> Result<bool, String> {
    let per_set = docs.len() / repeat;
    let first = report::end_to_end_values(&report::combined_json(&docs[..per_set]))?;
    let rest = report::end_to_end_values(&report::combined_json(&docs[per_set..]))?;
    println!("\n== set 0 (a) against sets 1..{repeat} (b) ==");
    Ok(report::print_comparison(&first, &rest))
}

fn real_main() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        let read = |p: &Path| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))
                .and_then(|text| report::end_to_end_values(&text))
        };
        let agree = report::print_comparison(&read(a)?, &read(b)?);
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }
    let write_out = |text: &str| match &args.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        None => Ok(()),
    };
    match args.workload {
        Some(workload) if args.repeat == 1 => {
            let doc = run_one(workload, &args);
            doc.print();
            write_out(&doc.to_json())?;
            println!("{}", doc.contract_line());
            Ok(if doc.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => {
            let docs = run_children(&args)?;
            write_out(&report::combined_json(&docs))?;
            if args.repeat > 1 && !print_repeat_agreement(&docs, args.repeat)? {
                println!("not every (metric, workload) pair agrees");
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}
