use std::fmt;

/// Errors raised while decoding a compiled-model artifact.
///
/// Every variant is a *typed* failure: corrupt bytes (truncation, bit
/// flips, bad headers, inconsistent structure) must surface here and never
/// as a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The buffer does not start with the `RNNA` magic.
    BadMagic,
    /// The format version is not the one this build reads. Carries
    /// both sides so operators can tell a version skew apart from
    /// corrupt bytes.
    UnsupportedVersion {
        /// Version stamped in the artifact header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The buffer ended before a field could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The payload checksum does not match the trailer.
    ChecksumMismatch {
        /// Checksum recorded in the artifact.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The bytes are inconsistent below the level the analyzer sees
    /// (bad tags, size overflow, trailing bytes).
    Malformed(String),
    /// The payload is not the one byte string the encoder writes for
    /// the program it decodes to: non-zero alignment padding before the
    /// float section, non-zero pad bits ending a code section, or bytes
    /// after the last code section. Kept distinct from
    /// [`ArtifactError::Malformed`] so `lint_bytes` can render it under
    /// its own diagnostic code (RNA0012).
    PackedLayout(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a RAPIDNN artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported artifact version {found} (this build reads version {supported})"
                )
            }
            ArtifactError::Truncated { needed, available } => write!(
                f,
                "artifact truncated: needed {needed} bytes, {available} available"
            ),
            ArtifactError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::PackedLayout(msg) => {
                write!(f, "invalid packed-code layout: {msg}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Errors surfaced by the serving runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Artifact encode/decode/validation failure.
    Artifact(ArtifactError),
    /// A request's input does not match the model (wrong feature width).
    InvalidInput(String),
    /// The bounded request queue is at capacity (backpressure signal).
    QueueFull,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Inference panicked inside a worker thread. The request fails but
    /// the worker survives and keeps serving.
    WorkerPanic(String),
    /// The static analyzer found `error`-severity diagnostics in the
    /// program a [`crate::CompiledModel`] constructor was handed. The
    /// boxed report holds every finding, not just the first.
    Rejected(Box<rapidnn_analyze::Report>),
    /// Filesystem I/O while saving or loading an artifact.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Artifact(e) => write!(f, "artifact error: {e}"),
            ServeError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::WorkerPanic(msg) => write!(f, "inference panicked: {msg}"),
            ServeError::Rejected(report) => {
                write!(
                    f,
                    "artifact rejected by static analysis: {}",
                    report.summary()
                )
            }
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Artifact(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T, E = ServeError> = std::result::Result<T, E>;
