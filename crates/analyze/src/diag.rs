//! Rustc-style diagnostics: a typed code, a severity, an optional op
//! index, a message, and attached notes, collected into a [`Report`].
//!
//! The format intentionally mirrors `rustc`'s `error[E0308]: ...`
//! lines so analyzer output reads naturally next to compiler output in
//! CI logs:
//!
//! ```text
//! error[RNA0009]: op 1 (maxpool): pool declares padding 1 but pool kernels index without padding
//!   = note: 4x4x1 input, 2x2 kernel, stride 2 -> 2x2 output
//! ```

use std::fmt;

/// How severe a [`Diagnostic`] is.
///
/// Only [`Severity::Error`] makes a report rejecting; warnings and
/// notes are advisory (hardware-model exceedances, dead entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory context (dead weight-book entries, LUT rows).
    Note,
    /// Suspicious but not unsound for the software pipeline
    /// (hardware-width exceedances).
    Warning,
    /// The artifact is malformed or inference could fault; every
    /// `CompiledModel` constructor refuses the program.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable machine-readable code identifying a class of finding.
///
/// Codes are grouped by default severity: `RNA00xx` are errors,
/// `RNA01xx` warnings, `RNA02xx` notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// The artifact bytes failed to decode (bad magic, truncation,
    /// checksum mismatch, malformed header).
    DecodeFailed,
    /// A span points outside its backing pool, or a length product
    /// overflows `usize`.
    SpanOutOfBounds,
    /// A codebook, weight book or activation lookup table is empty.
    EmptyTable,
    /// A codebook holds more values than a 16-bit encoded index can
    /// address (the paper sizes indices at 2–7 bits; the format caps
    /// them at 16).
    OversizedCodebook,
    /// An encoded index can select an entry outside its book or table.
    IndexOutOfBounds,
    /// Consecutive ops disagree on the width of the value vector.
    ShapeMismatch,
    /// An op expects encoded inputs but receives decoded floats (or
    /// vice versa), or the program ends in the encoded domain.
    DomainMismatch,
    /// Pool/conv geometry is inconsistent (output dims do not follow
    /// from input dims, kernel, stride, padding).
    GeometryInvalid,
    /// A pool op declares non-zero padding; pool kernels index without
    /// padding and would read out of bounds (PR 1 panic class).
    PaddedPool,
    /// Residual begin/end markers are unbalanced or their widths
    /// disagree.
    ResidualImbalance,
    /// A reachable centroid, product `w · x` of a referenced weight,
    /// bias, or LUT entry is NaN or infinite and would propagate to
    /// outputs.
    NonFinite,
    /// The serving crate's artifact decoder refused the bytes' layout:
    /// non-zero alignment padding or pad bits, or bytes after the last
    /// code section (its `ArtifactError::PackedLayout`, which
    /// `lint_bytes` renders under this code). The decoder owns that
    /// judgement; the checker never sees a layout and never emits this
    /// code.
    PackedLayoutInvalid,
    /// A codebook or activation-LUT input axis is not sorted by
    /// `total_cmp`: the nearest map over it is not monotone, so it has
    /// no search boundaries for the runtime to tabulate its encodes and
    /// finishes over.
    UnsortedCodebook,
    /// A neuron's statically-bounded sum exceeds the fixed-point
    /// accumulator word modeled in `rapidnn-accel`.
    AccumulatorOverflow,
    /// A neuron's fan-in exceeds what the occurrence counters can
    /// count before saturating.
    CounterOverflow,
    /// Encoder codebook entries no reachable value can select.
    DeadCodebookEntries,
    /// Weight-book entries — the rows of the paper's product table —
    /// no weight code references.
    DeadTableRows,
    /// Activation-LUT rows outside the reachable accumulator range.
    DeadLutRows,
}

impl DiagCode {
    /// Stable identifier rendered in brackets after the severity.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::DecodeFailed => "RNA0001",
            DiagCode::SpanOutOfBounds => "RNA0002",
            DiagCode::EmptyTable => "RNA0003",
            DiagCode::OversizedCodebook => "RNA0004",
            DiagCode::IndexOutOfBounds => "RNA0005",
            DiagCode::ShapeMismatch => "RNA0006",
            DiagCode::DomainMismatch => "RNA0007",
            DiagCode::GeometryInvalid => "RNA0008",
            DiagCode::PaddedPool => "RNA0009",
            DiagCode::ResidualImbalance => "RNA0010",
            DiagCode::NonFinite => "RNA0011",
            DiagCode::PackedLayoutInvalid => "RNA0012",
            DiagCode::UnsortedCodebook => "RNA0018",
            DiagCode::AccumulatorOverflow => "RNA0102",
            DiagCode::CounterOverflow => "RNA0103",
            DiagCode::DeadCodebookEntries => "RNA0104",
            DiagCode::DeadTableRows => "RNA0201",
            DiagCode::DeadLutRows => "RNA0203",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::DecodeFailed
            | DiagCode::SpanOutOfBounds
            | DiagCode::EmptyTable
            | DiagCode::OversizedCodebook
            | DiagCode::IndexOutOfBounds
            | DiagCode::ShapeMismatch
            | DiagCode::DomainMismatch
            | DiagCode::GeometryInvalid
            | DiagCode::PaddedPool
            | DiagCode::ResidualImbalance
            | DiagCode::NonFinite
            | DiagCode::PackedLayoutInvalid
            | DiagCode::UnsortedCodebook => Severity::Error,
            DiagCode::AccumulatorOverflow
            | DiagCode::CounterOverflow
            | DiagCode::DeadCodebookEntries => Severity::Warning,
            DiagCode::DeadTableRows | DiagCode::DeadLutRows => Severity::Note,
        }
    }
}

/// One finding: severity, code, optional op index, message, notes.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity the finding is reported at (derived from `code`).
    pub severity: Severity,
    /// Machine-readable class of the finding.
    pub code: DiagCode,
    /// Index of the op the finding anchors to, if any; `None` for
    /// whole-program findings (decode failures, trailing imbalance).
    pub op: Option<usize>,
    /// Human-readable description, including the offending range or
    /// value where one exists.
    pub message: String,
    /// Supplementary `= note:` lines rendered under the main line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// New diagnostic at `code`'s default severity.
    pub fn new(code: DiagCode, op: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: code.severity(),
            code,
            op,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a `= note:` line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: ", self.severity, self.code.as_str())?;
        if let Some(op) = self.op {
            write!(f, "op {op}: ")?;
        }
        write!(f, "{}", self.message)?;
        for note in &self.notes {
            write!(f, "\n  = note: {note}")?;
        }
        Ok(())
    }
}

/// Machine-readable liveness totals accumulated alongside the prose
/// liveness diagnostics (RNA0104, RNA0201, RNA0203), so consumers — the
/// dead-data tests over composed models among them — read numbers
/// instead of parsing diagnostic strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivenessCounts {
    /// Encoder codebook entries no reachable value can select (RNA0104).
    pub dead_codebook_entries: usize,
    /// Weight-book entries referenced by no weight code (RNA0201).
    pub dead_table_rows: usize,
    /// Activation-LUT rows outside the reachable range (RNA0203).
    pub dead_lut_rows: usize,
}

impl LivenessCounts {
    /// Total dead elements across all three liveness classes.
    pub fn total(&self) -> usize {
        self.dead_codebook_entries + self.dead_table_rows + self.dead_lut_rows
    }
}

/// Ordered collection of [`Diagnostic`]s produced by one analysis run.
///
/// `Display` renders each diagnostic followed by a one-line summary,
/// mirroring `cargo`'s "error: could not compile" trailer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
    liveness: LivenessCounts,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Appends a liveness diagnostic and adds `count` dead elements to
    /// the machine-readable total for its class. `code` must be one of
    /// the three liveness codes.
    pub fn push_liveness(&mut self, diag: Diagnostic, count: usize) {
        match diag.code {
            DiagCode::DeadCodebookEntries => self.liveness.dead_codebook_entries += count,
            DiagCode::DeadTableRows => self.liveness.dead_table_rows += count,
            DiagCode::DeadLutRows => self.liveness.dead_lut_rows += count,
            other => debug_assert!(false, "{other:?} is not a liveness code"),
        }
        self.diagnostics.push(diag);
    }

    /// Machine-readable dead-element totals for this run.
    pub fn liveness(&self) -> LivenessCounts {
        self.liveness
    }

    /// All findings in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether any finding is an error (loading refuses the artifact
    /// exactly when this is true).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether the report is completely empty.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// First finding carrying `code`, if any.
    pub fn find(&self, code: DiagCode) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// One-line `N errors, M warnings, K notes` summary.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for diag in &self.diagnostics {
            writeln!(f, "{diag}")?;
        }
        write!(f, "analysis: {}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_rustc_shaped() {
        let mut report = Report::new();
        report.push(
            Diagnostic::new(DiagCode::PaddedPool, Some(1), "pool declares padding 1")
                .with_note("pools index without padding"),
        );
        report.push(Diagnostic::new(
            DiagCode::DeadTableRows,
            Some(0),
            "2 unused rows",
        ));
        let text = report.to_string();
        assert!(text.contains("error[RNA0009]: op 1: pool declares padding 1"));
        assert!(text.contains("  = note: pools index without padding"));
        assert!(text.contains("note[RNA0201]: op 0: 2 unused rows"));
        assert!(text.ends_with("analysis: 1 error(s), 0 warning(s), 1 note(s)"));
        assert!(report.has_errors());
        assert!(!report.is_clean());
        assert!(report.find(DiagCode::PaddedPool).is_some());
        assert!(report.find(DiagCode::NonFinite).is_none());
    }

    #[test]
    fn liveness_counts_accumulate_per_class() {
        let mut report = Report::new();
        assert_eq!(report.liveness(), LivenessCounts::default());
        report.push_liveness(
            Diagnostic::new(DiagCode::DeadTableRows, Some(0), "3 unused rows"),
            3,
        );
        report.push_liveness(
            Diagnostic::new(DiagCode::DeadTableRows, Some(1), "2 unused rows"),
            2,
        );
        report.push_liveness(
            Diagnostic::new(DiagCode::DeadCodebookEntries, Some(1), "1 dead entry"),
            1,
        );
        let counts = report.liveness();
        assert_eq!(counts.dead_table_rows, 5);
        assert_eq!(counts.dead_codebook_entries, 1);
        assert_eq!(counts.dead_lut_rows, 0);
        assert_eq!(counts.total(), 6);
        // The prose diagnostics ride along unchanged.
        assert_eq!(report.count(Severity::Note), 2);
        assert_eq!(report.count(Severity::Warning), 1);
    }

    #[test]
    fn severities_follow_code_groups() {
        assert_eq!(DiagCode::NonFinite.severity(), Severity::Error);
        assert_eq!(DiagCode::CounterOverflow.severity(), Severity::Warning);
        assert_eq!(DiagCode::DeadLutRows.severity(), Severity::Note);
        assert!(Severity::Error > Severity::Warning);
    }
}
