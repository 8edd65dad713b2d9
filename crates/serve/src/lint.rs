//! Artifact linting: run the static analyzer over raw artifact bytes.
//!
//! [`lint_bytes`] is the diagnostic front door: unlike
//! [`CompiledModel::from_bytes`] it never returns an error —
//! byte-level corruption is folded into the report as an `RNA0001`
//! (decode-failed) diagnostic, so callers always get one uniform
//! [`Report`] to render — and it builds no model: it analyzes the
//! decoded [`Program`](rapidnn_analyze::Program) as it is. The
//! `lint_artifact` example wraps this in a CLI that exits nonzero when
//! the report has errors.
//!
//! [`CompiledModel::from_bytes`]: crate::CompiledModel::from_bytes

use crate::error::ArtifactError;
use rapidnn_analyze::{DiagCode, Diagnostic, Report};

/// Statically analyzes a serialized artifact, folding decode failures
/// into the report ([`decode_failure_report`]) instead of returning
/// them as `Err`.
///
/// The report has no errors **iff** [`CompiledModel::from_bytes`]
/// would accept the same bytes; on top of the accept/reject verdict it
/// carries every warning and note the analyzer produced.
///
/// [`CompiledModel::from_bytes`]: crate::CompiledModel::from_bytes
pub fn lint_bytes(bytes: &[u8]) -> Report {
    match crate::wire::decode(bytes) {
        Ok(program) => rapidnn_analyze::analyze(&program),
        Err(e) => decode_failure_report(&e),
    }
}

/// The one-diagnostic report a byte-level decode failure renders as:
/// a refused payload layout ([`ArtifactError::PackedLayout`]) gets
/// its own `RNA0012` code; every other failure folds into `RNA0001`. Shared by
/// [`lint_bytes`] and by callers that already hold the
/// [`ArtifactError`] of a refused load.
pub fn decode_failure_report(e: &ArtifactError) -> Report {
    let code = match e {
        ArtifactError::PackedLayout(_) => DiagCode::PackedLayoutInvalid,
        _ => DiagCode::DecodeFailed,
    };
    let mut report = Report::new();
    report.push(Diagnostic::new(
        code,
        None,
        format!("artifact failed to decode: {e}"),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CompiledModel;
    use crate::wire::encode;
    use rapidnn_analyze::{Geom, Op, Severity};

    fn padded_pool_artifact() -> Vec<u8> {
        // The PR-1 panic class: a pool geometry that declares padding.
        // Pool kernels index without padding, so before the validation
        // fix `infer` panicked out of bounds inside `pool`.
        let mut program = CompiledModel::deep_program_for_tests(1);
        program.ops = vec![Op::MaxPool(Geom {
            in_channels: 1,
            in_height: 2,
            in_width: 2,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            pad: 1,
            out_height: 3,
            out_width: 3,
        })];
        program.output_features = 9;
        encode(&program)
    }

    #[test]
    fn padded_pool_is_a_typed_error() {
        let report = lint_bytes(&padded_pool_artifact());
        let d = report
            .find(DiagCode::PaddedPool)
            .expect("RNA0009 in report");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.op, Some(0));
        assert!(report.has_errors());
    }

    #[test]
    fn oversized_codebook_is_a_typed_error() {
        // The other PR-1 panic class: a codebook past the u16 index
        // range, whose top entries `nearest` would silently wrap.
        let mut program = CompiledModel::deep_program_for_tests(1);
        program.virtual_encoder.len = (1 << 16) + 1;
        program
            .floats
            .to_mut()
            .resize(program.virtual_encoder.len, 0.0);
        let report = lint_bytes(&encode(&program));
        let d = report
            .find(DiagCode::OversizedCodebook)
            .expect("RNA0004 in report");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn garbage_bytes_fold_into_decode_failed() {
        let report = lint_bytes(b"not an artifact");
        assert!(report.has_errors());
        assert!(report.find(DiagCode::DecodeFailed).is_some());

        // Flip a payload byte: checksum mismatch, still DecodeFailed.
        let mut bytes = padded_pool_artifact();
        bytes[20] ^= 0xff;
        let report = lint_bytes(&bytes);
        assert!(report.find(DiagCode::DecodeFailed).is_some());
    }

    #[test]
    fn load_agrees_with_lint() {
        let bytes = padded_pool_artifact();
        assert!(lint_bytes(&bytes).has_errors());
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(crate::ServeError::Rejected(report)) if report.find(DiagCode::PaddedPool).is_some()
        ));
    }
}
