//! Artifact linter CLI: run the static verifier over a compiled-model
//! artifact and print its rustc-style diagnostic report.
//!
//! Usage:
//!
//! * `cargo run --release --example lint_artifact -- model.rnna` —
//!   lint an artifact file; exits nonzero when the report has errors.
//! * `cargo run --release --example lint_artifact -- export model.rnna`
//!   — compile the tiny-pipeline artifact and write it to the given
//!   path, giving the other verbs (and CI) a real file to chew on.
//! * `cargo run --release --example lint_artifact -- quant model.rnna`
//!   — preview the integer-lowering plan: which table ops the analyzer
//!   licenses for the i16/i32 kernel path and why the rest fall back,
//!   with the flow domain each op reads (`codes`, `f32`, or `i16` — an
//!   integer Madd op's operands, written by whatever produces its
//!   input, so a run of `i16` ops never leaves the quantized domain).
//!   Exit codes are stable for CI gating: `0` every table op licensed,
//!   `1` the artifact cannot be loaded or analyzed, `2` a mix of
//!   licensed and fallback ops, `3` nothing licensed.
//! * `cargo run --release --example lint_artifact` (or `-- --demo`) —
//!   self-contained demo: compiles a clean artifact from a tiny
//!   pipeline, lints it, then corrupts a header field (repairing the
//!   checksum so the damage reaches the analyzer rather than the
//!   decoder) and lints the broken artifact.

use rapidnn::analyze::OpQuant;
use rapidnn::serve::{lint_bytes, CompiledModel, ServeError};
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        None | Some("--demo") => demo(),
        Some("--help" | "-h") => {
            eprintln!(
                "usage: lint_artifact [model.rnna | quant model.rnna | export model.rnna | --demo]"
            );
            eprintln!("  quant exit codes: 0 all table ops licensed, 1 load/analyze");
            eprintln!("  error, 2 mixed licensed/fallback, 3 nothing licensed");
            ExitCode::SUCCESS
        }
        Some("quant") => match std::env::args().nth(2) {
            Some(path) => quant_file(&path),
            None => {
                eprintln!("usage: lint_artifact quant model.rnna");
                ExitCode::FAILURE
            }
        },
        Some("export") => match std::env::args().nth(2) {
            Some(path) => export_file(&path),
            None => {
                eprintln!("usage: lint_artifact export model.rnna");
                ExitCode::FAILURE
            }
        },
        Some(path) => lint_file(path),
    }
}

/// Lints one artifact file; the exit code is the verdict.
fn lint_file(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = lint_bytes(&bytes);
    println!("{report}");
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compiles the tiny-pipeline artifact and writes it to `path`.
fn export_file(path: &str) -> ExitCode {
    let mut rng = SeededRng::new(42);
    let report = match Pipeline::new(PipelineConfig::tiny_for_tests()).run(&mut rng) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match report.compile() {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(path, model.to_bytes()) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}

/// Reads and loads one artifact file for the `quant` verb, printing
/// why when it cannot: an I/O or decode error, or the analyzer's report
/// for a file it rejects.
fn load_file(path: &str) -> Option<CompiledModel> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return None;
        }
    };
    match CompiledModel::from_bytes(&bytes) {
        Ok(model) => Some(model),
        Err(e) => {
            if let ServeError::Rejected(report) = &e {
                eprintln!("{report}");
            }
            eprintln!("error: cannot load {path}: {e}");
            None
        }
    }
}

/// Previews the integer-lowering plan for one artifact file. The exit
/// code is stable for CI gating: `0` every table op licensed, `1`
/// load/analyze error, `2` mixed, `3` nothing licensed.
fn quant_file(path: &str) -> ExitCode {
    let Some(model) = load_file(path) else {
        return ExitCode::FAILURE;
    };
    let plan = model.quant_plan_preview();
    let reads = model.read_domains(&plan);
    for (i, (op, read)) in plan.ops.iter().zip(reads).enumerate() {
        match op {
            OpQuant::NotApplicable => println!("op {i}: reads {read}, no tables (either path)"),
            OpQuant::Licensed(l) => println!(
                "op {i}: reads {read}, licensed (w_frac {}, x_frac {}, acc_frac {}, |error| <= {:.3e})",
                l.w_frac, l.x_frac, l.acc_frac, l.error
            ),
            OpQuant::Fallback(reason) => println!("op {i}: reads {read}, f32 fallback — {reason}"),
        }
    }
    println!(
        "licensed {} / fallback {} — output error bound {:.3e}",
        plan.licensed(),
        plan.fallbacks(),
        plan.output_error
    );
    match (plan.licensed(), plan.fallbacks()) {
        (_, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(3),
        (_, _) => ExitCode::from(2),
    }
}

/// Compiles a clean artifact, lints it, then breaks it and lints again.
fn demo() -> ExitCode {
    let mut rng = SeededRng::new(42);
    println!("== 1. compose and compile a clean artifact ==");
    let report = match Pipeline::new(PipelineConfig::tiny_for_tests()).run(&mut rng) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The stage graph can be linted before any artifact exists.
    let pre = report.analyze();
    println!("pre-compilation stage-graph analysis: {}", pre.summary());
    assert!(!pre.has_errors());

    let compiled = match report.compile() {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = compiled.to_bytes();
    let clean = lint_bytes(&bytes);
    println!("compiled artifact analysis:\n{clean}");
    assert!(!clean.has_errors());

    println!("\n== 2. corrupt the artifact and lint again ==");
    // Overwrite `output_features` (second u64 of the payload) with a
    // width the program cannot produce, then repair the checksum so the
    // corruption survives decoding and reaches the analyzer.
    let mut broken = bytes;
    broken[24..32].copy_from_slice(&9999u64.to_le_bytes());
    repair_checksum(&mut broken);
    let verdict = lint_bytes(&broken);
    println!("{verdict}");
    assert!(verdict.has_errors());
    println!("\nthe linter exits nonzero on a report like the one above");
    ExitCode::SUCCESS
}

/// Recomputes the trailing FNV-1a 64 checksum over the payload, exactly
/// as `CompiledModel::to_bytes` does (magic 4 + version 4 + length 8,
/// then the payload, then the checksum).
fn repair_checksum(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[16..end] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&hash.to_le_bytes());
}
