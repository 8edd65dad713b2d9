//! Synthetic degradation (test/bench utility): a program padded with
//! weight-book entries no weight code references.

use crate::program::{Op, Program, Span};
use std::borrow::Cow;

/// Returns a semantically identical program whose dense/conv weight
/// books carry `extra` additional entries that no weight code
/// references. Inference is bit-identical (the new entries are never
/// read), but the footprint — and, once serialized, the per-code bit
/// width — grows, giving tests and benchmarks a larger artifact that
/// must serve the source's bits.
pub fn inject_dead_rows(program: &Program<'_>, extra: usize) -> Program<'static> {
    let mut floats = program.floats.to_vec();
    let mut pad = |book: &Span| -> Span {
        let start = floats.len();
        floats.extend_from_within(book.start..book.start + book.len);
        // Arbitrary finite filler, distinct from real entries so a
        // kernel that read one would change the output.
        floats.extend((0..extra).map(|j| 1.0e4 + j as f32));
        Span {
            start,
            len: book.len + extra,
        }
    };
    let mut ops = program.ops.clone();
    for op in &mut ops {
        match op {
            Op::Dense { weight_book, .. } => *weight_book = pad(weight_book),
            Op::Conv { weight_books, .. } => weight_books.iter_mut().for_each(|b| *b = pad(b)),
            _ => {}
        }
    }
    Program {
        input_features: program.input_features,
        output_features: program.output_features,
        virtual_encoder: program.virtual_encoder,
        ops,
        floats: Cow::Owned(floats),
        codes: Cow::Owned(program.codes.to_vec()),
    }
}
