//! Gateway error taxonomy, each variant carrying its HTTP mapping.

use rapidnn_analyze::Report;
use rapidnn_serve::{ArtifactError, ServeError};
use std::fmt;
use std::time::Duration;

/// Everything that can go wrong between a parsed request and a served
/// response. [`GatewayError::status`] gives the canonical HTTP status.
#[derive(Debug)]
#[non_exhaustive]
pub enum GatewayError {
    /// No model registered under this name (404).
    UnknownModel(String),
    /// Name fails the registry's naming rules (400).
    InvalidName(String),
    /// `register` over a name already serving (409).
    AlreadyExists(String),
    /// Admission control (in-flight budget or engine queue) refused the
    /// request; retry after the hint (429).
    Shed {
        /// Client backoff hint, surfaced as `Retry-After`.
        retry_after: Duration,
    },
    /// The request payload is not a valid input for the model (400).
    InvalidInput(String),
    /// The artifact failed decode or static verification; the report
    /// carries the full diagnostics (422).
    Rejected(Box<Report>),
    /// The artifact is well-framed but stamped with a format version
    /// this build does not read — a version skew, not corrupt bytes,
    /// so operators know to upgrade the gateway or re-export the
    /// artifact rather than hunt for corruption (422).
    UnsupportedArtifactVersion {
        /// Version stamped in the uploaded artifact.
        found: u32,
        /// The version this gateway reads.
        supported: u32,
    },
    /// A replacement artifact changed the model's I/O shape (422).
    WidthMismatch {
        /// Model whose contract was violated.
        name: String,
        /// `(input, output)` widths currently served.
        expected: (usize, usize),
        /// `(input, output)` widths of the rejected replacement.
        got: (usize, usize),
    },
    /// The artifact verified but its engine failed synthetic warmup;
    /// the old model keeps serving (422).
    WarmupFailed(String),
    /// Another swap of the same model is in progress (409).
    SwapInProgress(String),
    /// The gateway or target engine is shutting down (503).
    ShuttingDown,
    /// Unexpected internal failure (500).
    Internal(String),
}

impl GatewayError {
    /// HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            GatewayError::UnknownModel(_) => 404,
            GatewayError::InvalidName(_) | GatewayError::InvalidInput(_) => 400,
            GatewayError::AlreadyExists(_) | GatewayError::SwapInProgress(_) => 409,
            GatewayError::Shed { .. } => 429,
            GatewayError::Rejected(_)
            | GatewayError::UnsupportedArtifactVersion { .. }
            | GatewayError::WidthMismatch { .. }
            | GatewayError::WarmupFailed(_) => 422,
            GatewayError::ShuttingDown => 503,
            GatewayError::Internal(_) => 500,
        }
    }

    /// Maps a serve-layer failure for model `name` onto the gateway
    /// taxonomy.
    pub(crate) fn from_serve(name: &str, e: ServeError) -> GatewayError {
        match e {
            ServeError::InvalidInput(msg) => GatewayError::InvalidInput(msg),
            ServeError::Rejected(report) => GatewayError::Rejected(report),
            ServeError::ShuttingDown => GatewayError::ShuttingDown,
            other => GatewayError::Internal(format!("model {name}: {other}")),
        }
    }

    /// Folds any load failure into a diagnostic report, reusing the
    /// lint fold so byte-level corruption and analyzer rejections
    /// render uniformly.
    pub(crate) fn from_artifact_failure(e: ServeError) -> GatewayError {
        match e {
            ServeError::Rejected(report) => GatewayError::Rejected(report),
            // A version skew is an operator problem (upgrade the
            // gateway, or re-export the artifact), not corrupt bytes —
            // keep it out of the lint fold so the 422 reason stays
            // honest and actionable.
            ServeError::Artifact(ArtifactError::UnsupportedVersion { found, supported }) => {
                GatewayError::UnsupportedArtifactVersion { found, supported }
            }
            ServeError::Artifact(e) => {
                GatewayError::Rejected(Box::new(rapidnn_serve::decode_failure_report(&e)))
            }
            other => GatewayError::Internal(other.to_string()),
        }
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            GatewayError::InvalidName(name) => write!(f, "invalid model name {name:?}"),
            GatewayError::AlreadyExists(name) => {
                write!(f, "model {name:?} is already registered")
            }
            GatewayError::Shed { retry_after } => {
                write!(
                    f,
                    "request shed by admission control; retry in {retry_after:?}"
                )
            }
            GatewayError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            GatewayError::Rejected(report) => {
                write!(
                    f,
                    "artifact rejected by static analysis: {}",
                    report.summary()
                )
            }
            GatewayError::UnsupportedArtifactVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not the version this gateway reads ({supported}); upgrade the gateway or re-export the artifact"
            ),
            GatewayError::WidthMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "model {name:?} serves {}->{} features but the replacement has {}->{}",
                expected.0, expected.1, got.0, got.1
            ),
            GatewayError::WarmupFailed(msg) => write!(f, "warmup failed: {msg}"),
            GatewayError::SwapInProgress(name) => {
                write!(f, "a swap of model {name:?} is already in progress")
            }
            GatewayError::ShuttingDown => write!(f, "shutting down"),
            GatewayError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for GatewayError {}
