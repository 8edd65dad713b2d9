//! The checker's judgement when a conv's weight books alias one span:
//! each channel is judged as if its book were its own copy, while the
//! work per book follows the codes that read it, not the book's length.

use rapidnn_analyze::{analyze, Act, Geom, Op, Program, Span};
use std::borrow::Cow;

/// Two inputs encoded through a 4-entry book -> a 1×1 conv whose
/// three channels all read one 5-entry weight book -> floats out.
fn aliasing_conv(codes: [u16; 6]) -> Program<'static> {
    let mut floats = vec![-1.0, 0.0, 0.5, 2.0]; // virtual encoder book
    floats.extend_from_slice(&[0.5, -1.0, 0.25, 3.0, -2.0]); // the weight book
    floats.extend_from_slice(&[0.125, 0.0, -0.5]); // bias
    let geom = Geom {
        in_channels: 2,
        in_height: 1,
        in_width: 1,
        kernel_h: 1,
        kernel_w: 1,
        stride: 1,
        pad: 0,
        out_height: 1,
        out_width: 1,
    };
    Program {
        input_features: 2,
        output_features: 3,
        virtual_encoder: Span { start: 0, len: 4 },
        ops: vec![Op::Conv {
            geom,
            out_channels: 3,
            weight_codes: Span { start: 0, len: 6 },
            bias: Span { start: 9, len: 3 },
            weight_books: vec![Span { start: 4, len: 5 }; 3],
            zero_code: 0,
            act: Act::Relu,
            encoder: None,
        }],
        floats: Cow::Owned(floats),
        codes: Cow::Owned(codes.to_vec()),
    }
}

/// The unread entries of each channel's book count, a code is checked
/// against its own channel's book, and the lowest non-finite entry a
/// channel reads is the one named.
#[test]
fn books_aliasing_one_span_are_judged_per_channel() {
    // Channels read {3, 1}, {1} and {4, 0}: 3 + 4 + 3 entries unread.
    let report = analyze(&aliasing_conv([3, 1, 1, 1, 4, 0]));
    assert_eq!(report.liveness().dead_table_rows, 10);
    assert_eq!(
        report.to_string(),
        "note[RNA0201]: op 0: conv: 10 of 15 weight-book entries are referenced by no weight code\n\
         analysis: 0 error(s), 0 warning(s), 1 note(s)"
    );

    let report = analyze(&aliasing_conv([3, 1, 1, 1, 5, 0]));
    assert_eq!(report.liveness().total(), 0);
    assert_eq!(
        report.to_string(),
        "error[RNA0005]: op 0: conv weight book 2: weight code 5 out of range for 5-entry book\n\
         analysis: 1 error(s), 0 warning(s), 0 note(s)"
    );

    let mut p = aliasing_conv([3, 1, 1, 1, 4, 0]);
    p.floats.to_mut()[5] = f32::NAN; // entry 1
    p.floats.to_mut()[7] = f32::INFINITY; // entry 3
    let report = analyze(&p);
    assert_eq!(
        report.to_string(),
        "error[RNA0011]: op 0: conv weight book 0: product of weight 1 and input code 0 is NaN\n\
         analysis: 1 error(s), 0 warning(s), 0 note(s)"
    );
}
