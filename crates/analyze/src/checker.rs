//! The abstract interpreter.
//!
//! One forward walk over the op program tracks, per program point, the
//! value-vector *width*, the *domain* (encoded codes vs decoded
//! floats), and for each an abstract value:
//!
//! * decoded values carry an [`Interval`] hull;
//! * encoded values carry the codebook, the reachable code range
//!   (contiguous, because nearest-encode over a sorted book is
//!   monotone in the probe — see `rapidnn_core::nearest`), and the
//!   interval of the representatives that range decodes to.
//!
//! The walk proves the structural invariants the serving runtime's
//! kernels index by (span bounds, code domains, geometry, width
//! chaining, sorted codebooks and LUT inputs — each an `error`; the
//! runtime has no validator of its own), and layers value-level findings on top: non-finite reachable entries
//! (`error`), hardware bit-width exceedances against
//! [`DatapathModel`] (`warning`), and liveness — dead codebook
//! entries, weight-book entries no code references and LUT rows
//! (`warning`/`note`). Ops form a straight line, so every op is
//! reachable by construction; liveness findings are about dead *data*.
//!
//! The walk stops at the first `error`: later ops would be analyzed
//! against a flow state the error already invalidated.

use crate::diag::{DiagCode, Diagnostic, Report};
use crate::interval::{f32_sum_slack, Interval};
use crate::program::{Act, Geom, Neuron, Op, Program, Span};
use rapidnn_accel::DatapathModel;
use rapidnn_core::nearest::{load_keys, nearest_range};

/// Upper bound on any single dimension or extent, keeping index
/// arithmetic far from overflow. The serving format's decoder refuses a
/// larger field with this same cap, so everything it loads the
/// analyzer can judge.
pub const MAX_EXTENT: u64 = 1 << 31;
/// Mirror of the serving format's codebook cap: codes are `u16`, so a
/// longer book would make nearest-encode silently wrap indices.
const MAX_CODEBOOK_LEN: usize = 1 << 16;

/// The one hardware datapath: the checker judges bit widths against
/// the paper's Table 1 widths, and the quantization walk requantizes on
/// its Q8.8 grid.
pub(crate) const DATAPATH: DatapathModel = DatapathModel::paper();

/// Analyzes `program` against the paper's Table 1 datapath widths.
pub fn analyze(program: &Program<'_>) -> Report {
    let mut checker = Checker {
        input_features: program.input_features,
        output_features: program.output_features,
        virtual_encoder: program.virtual_encoder,
        ops: &program.ops,
        floats: &program.floats,
        codes: &program.codes,
        report: Report::new(),
    };
    // The Err case carries no data: the fatal diagnostic is already in
    // the report when the walk unwinds.
    let _ = checker.run();
    checker.report
}

/// Largest `f32` not above `x`: `as f32` rounds to nearest, which may
/// round *up* past a concrete value; reachability probes must round
/// outward instead.
fn f32_down(x: f64) -> f32 {
    let r = x as f32;
    if f64::from(r) > x {
        ulp_prev(r)
    } else {
        r
    }
}

/// Smallest `f32` not below `x`.
fn f32_up(x: f64) -> f32 {
    let r = x as f32;
    if f64::from(r) < x {
        ulp_next(r)
    } else {
        r
    }
}

/// One representable step toward `-inf` (finite input, `next_down`
/// without an MSRV requirement).
fn ulp_prev(v: f32) -> f32 {
    if v == 0.0 {
        return -f32::from_bits(1); // smallest negative subnormal
    }
    let bits = v.to_bits();
    if v > 0.0 {
        f32::from_bits(bits - 1)
    } else {
        f32::from_bits(bits + 1)
    }
}

/// One representable step toward `+inf`.
fn ulp_next(v: f32) -> f32 {
    if v == 0.0 {
        return f32::from_bits(1);
    }
    let bits = v.to_bits();
    if v > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

/// Sorted by `total_cmp`, as every nearest search over `axis` needs: the
/// serving runtime tabulates each one over its search boundaries, and
/// the nearest map is monotone in the probe only on a sorted axis.
fn sorted(axis: &[f32]) -> bool {
    axis.is_sorted_by(|a, b| a.total_cmp(b).is_le())
}

/// A checked codebook: bounds-valid, non-empty, addressable, finite,
/// sorted.
struct Book {
    span: Span,
    /// Hull of every entry.
    interval: Interval,
    /// Total-order keys for [`nearest_range`].
    keys: Vec<i32>,
}

impl Book {
    fn len(&self) -> usize {
        self.span.len
    }
}

/// Abstract state of the value vector between ops.
#[derive(Clone, Copy)]
enum Flow {
    /// Encoded: codes in `reach` (inclusive) through `book`, a
    /// checked codebook whose length is the code domain, decoding into
    /// `interval`. Decoded representatives are exact stored `f32`s, so
    /// encoded flows carry no rounding slack.
    Codes {
        book: Span,
        reach: (usize, usize),
        interval: Interval,
    },
    /// Decoded floats bounded by `interval` up to `slack`: a proven
    /// bound ([`f32_sum_slack`]) on how far the concrete `f32`
    /// evaluation can drift from the real-valued quantity the interval
    /// hulls. Reachability queries widen by exactly this much, which
    /// makes liveness findings sound for deletion (no spurious dead
    /// entries) without the old fixed `1e-4` heuristic margin.
    Floats { interval: Interval, slack: f64 },
}

struct Checker<'p> {
    input_features: usize,
    output_features: usize,
    virtual_encoder: Span,
    ops: &'p [Op],
    floats: &'p [f32],
    codes: &'p [u16],
    report: Report,
}

/// Fatal-error sentinel: the diagnostic is already reported.
struct Halt;

impl<'p> Checker<'p> {
    fn error(&mut self, code: DiagCode, op: Option<usize>, msg: String) -> Halt {
        self.report.push(Diagnostic::new(code, op, msg));
        Halt
    }

    fn warn(&mut self, code: DiagCode, op: Option<usize>, msg: String) {
        self.report.push(Diagnostic::new(code, op, msg));
    }

    // ------------------------------------------------------------------
    // Structural primitives: what the rapidnn-serve kernels rely on to
    // index their pools without a fault.
    // ------------------------------------------------------------------

    fn floats_span(&mut self, op: Option<usize>, s: Span, what: &str) -> Result<&'p [f32], Halt> {
        match s.start.checked_add(s.len) {
            Some(end) if end <= self.floats.len() => Ok(&self.floats[s.start..s.start + s.len]),
            _ => Err(self.error(
                DiagCode::SpanOutOfBounds,
                op,
                format!(
                    "{what}: float span {}+{} exceeds pool of {}",
                    s.start,
                    s.len,
                    self.floats.len()
                ),
            )),
        }
    }

    fn codes_span(&mut self, op: Option<usize>, s: Span, what: &str) -> Result<&'p [u16], Halt> {
        match s.start.checked_add(s.len) {
            Some(end) if end <= self.codes.len() => Ok(&self.codes[s.start..s.start + s.len]),
            _ => Err(self.error(
                DiagCode::SpanOutOfBounds,
                op,
                format!(
                    "{what}: code span {}+{} exceeds pool of {}",
                    s.start,
                    s.len,
                    self.codes.len()
                ),
            )),
        }
    }

    /// Checks a codebook span: in bounds, non-empty, addressable by a
    /// `u16` code, every entry finite, sorted by `total_cmp` ([`sorted`]).
    fn codebook(&mut self, op: Option<usize>, s: Span, what: &str) -> Result<Book, Halt> {
        let values = self.floats_span(op, s, what)?;
        if values.is_empty() {
            return Err(self.error(DiagCode::EmptyTable, op, format!("{what}: empty codebook")));
        }
        if values.len() > MAX_CODEBOOK_LEN {
            return Err(self.error(
                DiagCode::OversizedCodebook,
                op,
                format!(
                    "{what}: codebook holds {} values, 16-bit codes address at most {}",
                    values.len(),
                    MAX_CODEBOOK_LEN
                ),
            ));
        }
        let Some(interval) = Interval::of_slice(values) else {
            let bad = values.iter().find(|v| !v.is_finite()).copied();
            return Err(self.error(
                DiagCode::NonFinite,
                op,
                format!(
                    "{what}: codebook contains non-finite centroid {}",
                    bad.map_or_else(|| "?".into(), |v| v.to_string())
                ),
            ));
        };
        if !sorted(values) {
            return Err(self.error(
                DiagCode::UnsortedCodebook,
                op,
                format!("{what}: codebook is not sorted"),
            ));
        }
        let mut keys = Vec::new();
        load_keys(&mut keys, values);
        Ok(Book {
            span: s,
            interval,
            keys,
        })
    }

    /// Dimensions non-zero and capped, output dims recomputed from
    /// input/kernel/stride/pad, volumes capped.
    fn check_geom(&mut self, op: usize, g: &Geom, label: &str) -> Result<(), Halt> {
        let dims = [
            g.in_channels,
            g.in_height,
            g.in_width,
            g.kernel_h,
            g.kernel_w,
            g.stride,
        ];
        if dims.contains(&0) {
            return Err(self.error(
                DiagCode::GeometryInvalid,
                Some(op),
                format!("{label}: geometry has a zero dimension"),
            ));
        }
        let all = [
            g.in_channels,
            g.in_height,
            g.in_width,
            g.kernel_h,
            g.kernel_w,
            g.stride,
            g.pad,
            g.out_height,
            g.out_width,
        ];
        if all.iter().any(|&d| d as u64 > MAX_EXTENT) {
            return Err(self.error(
                DiagCode::GeometryInvalid,
                Some(op),
                format!("{label}: geometry dimension too large"),
            ));
        }
        let padded_h = g.in_height + 2 * g.pad;
        let padded_w = g.in_width + 2 * g.pad;
        if padded_h < g.kernel_h || padded_w < g.kernel_w {
            return Err(self.error(
                DiagCode::GeometryInvalid,
                Some(op),
                format!(
                    "{label}: {}x{} kernel larger than padded {padded_h}x{padded_w} input",
                    g.kernel_h, g.kernel_w
                ),
            ));
        }
        if g.out_height != (padded_h - g.kernel_h) / g.stride + 1
            || g.out_width != (padded_w - g.kernel_w) / g.stride + 1
        {
            return Err(self.error(
                DiagCode::GeometryInvalid,
                Some(op),
                format!(
                    "{label}: declared {}x{} output inconsistent with geometry",
                    g.out_height, g.out_width
                ),
            ));
        }
        let volume = g.in_channels as u64 * g.in_height as u64 * g.in_width as u64;
        let out_volume = g.in_channels as u64 * g.out_height as u64 * g.out_width as u64;
        let patch = g.in_channels as u64 * g.kernel_h as u64 * g.kernel_w as u64;
        if volume > MAX_EXTENT || out_volume > MAX_EXTENT || patch > MAX_EXTENT {
            return Err(self.error(
                DiagCode::GeometryInvalid,
                Some(op),
                format!("{label}: geometry volume too large"),
            ));
        }
        Ok(())
    }

    /// A pool geometry additionally requires zero padding: pool kernels
    /// index `data[ch*h*w + (oy*s+kh)*w + ox*s+kw]` without padding, so
    /// any non-zero pad reads out of bounds (PR 1 panic class).
    fn check_pool_geom(
        &mut self,
        op: usize,
        g: &Geom,
        width: usize,
        label: &str,
    ) -> Result<usize, Halt> {
        self.check_geom(op, g, label)?;
        if g.pad != 0 {
            let diag = Diagnostic::new(
                DiagCode::PaddedPool,
                Some(op),
                format!(
                    "{label}: pool declares padding {} but pool kernels index without padding",
                    g.pad
                ),
            )
            .with_note(format!(
                "{}x{}x{} input, {}x{} kernel, stride {} -> {}x{} output",
                g.in_channels,
                g.in_height,
                g.in_width,
                g.kernel_h,
                g.kernel_w,
                g.stride,
                g.out_height,
                g.out_width
            ));
            self.report.push(diag);
            return Err(Halt);
        }
        if g.in_volume() != width {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(op),
                format!(
                    "{label}: pool expects {} inputs, flow width is {width}",
                    g.in_volume()
                ),
            ));
        }
        match g.in_channels.checked_mul(g.out_pixels()) {
            Some(w) => Ok(w),
            None => Err(self.error(
                DiagCode::SpanOutOfBounds,
                Some(op),
                format!("{label}: output volume overflows"),
            )),
        }
    }

    /// A weight book: in bounds and non-empty. Its entries need be
    /// neither sorted nor finite: the kernels index it by weight code,
    /// and only the products of referenced entries are judged
    /// ([`Self::row_intervals`]).
    fn weight_book(&mut self, op: usize, s: Span, label: &str) -> Result<&'p [f32], Halt> {
        let book = self.floats_span(Some(op), s, &format!("{label}: weight book"))?;
        if book.is_empty() {
            return Err(self.error(
                DiagCode::EmptyTable,
                Some(op),
                format!("{label}: empty weight book"),
            ));
        }
        Ok(book)
    }

    /// Bias span: in bounds, expected length, finite.
    fn check_bias(
        &mut self,
        op: usize,
        s: Span,
        expected: usize,
        label: &str,
    ) -> Result<&'p [f32], Halt> {
        if s.len != expected {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(op),
                format!("{label}: bias holds {} values, expected {expected}", s.len),
            ));
        }
        let bias = self.floats_span(Some(op), s, &format!("{label}: bias"))?;
        if let Some((j, &v)) = bias.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(self.error(
                DiagCode::NonFinite,
                Some(op),
                format!("{label}: bias[{j}] is {v}"),
            ));
        }
        Ok(bias)
    }

    // ------------------------------------------------------------------
    // Value propagation
    // ------------------------------------------------------------------

    /// Inclusive code range reachable when `interval` is nearest-encoded
    /// through `book`.
    ///
    /// Exactness argument: every concrete probe is an `f32` within
    /// `slack` of the real-valued quantity `interval` hulls, so it lies
    /// in `interval.widened_by(slack)`; the `f64 -> f32` probe bounds
    /// round *outward* (`f32_down`/`f32_up`), and `nearest_index` is
    /// monotone over a sorted book, so the returned range contains the
    /// code of every concrete probe. Entries outside it are dead on
    /// every execution — safe to delete, not just to note.
    fn reach_of(&self, book: &Book, interval: Interval, slack: f64) -> (usize, usize) {
        let values = &self.floats[book.span.start..book.span.start + book.span.len];
        let w = interval.widened_by(slack);
        nearest_range(values, &book.keys, f32_down(w.lo), f32_up(w.hi))
    }

    /// Encode step: maps a decoded interval (with its rounding slack)
    /// through `book`, reporting entries that can never be selected.
    fn encode(
        &mut self,
        op: Option<usize>,
        book: &Book,
        interval: Interval,
        slack: f64,
        what: &str,
    ) -> Flow {
        let reach = self.reach_of(book, interval, slack);
        let live = reach.1 - reach.0 + 1;
        if live < book.len() {
            self.report.push_liveness(
                Diagnostic::new(
                    DiagCode::DeadCodebookEntries,
                    op,
                    format!(
                        "{what}: {} of {} codebook entries can never be selected (reachable codes {}..={})",
                        book.len() - live,
                        book.len(),
                        reach.0,
                        reach.1
                    ),
                ),
                book.len() - live,
            );
        }
        let values = &self.floats[book.span.start + reach.0..=book.span.start + reach.1];
        let interval = Interval::of_slice(values).unwrap_or(book.interval);
        Flow::Codes {
            book: book.span,
            reach,
            interval,
        }
    }

    /// Applies an activation step to a pre-activation interval carrying
    /// `slack` rounding drift, returning the post-activation interval
    /// and its slack. Identity and ReLU are exact maps, so drift passes
    /// through unchanged (`|relu(a) − relu(b)| ≤ |a − b|`); a lookup's
    /// outputs are exact stored `f32`s drawn from the reachable rows,
    /// so its output slack collapses to zero.
    fn apply_act(
        &mut self,
        op: usize,
        act: &Act,
        pre: Interval,
        slack: f64,
        label: &str,
    ) -> Result<(Interval, f64), Halt> {
        match act {
            Act::Identity => Ok((pre, slack)),
            Act::Relu => Ok((pre.relu(), slack)),
            Act::Lookup { inputs, outputs } => {
                let xs = self.floats_span(Some(op), *inputs, &format!("{label}: LUT inputs"))?;
                let ys = self.floats_span(Some(op), *outputs, &format!("{label}: LUT outputs"))?;
                if xs.is_empty() {
                    return Err(self.error(
                        DiagCode::EmptyTable,
                        Some(op),
                        format!("{label}: activation lookup table is empty"),
                    ));
                }
                if xs.len() != ys.len() {
                    return Err(self.error(
                        DiagCode::ShapeMismatch,
                        Some(op),
                        format!(
                            "{label}: activation LUT misaligned: {} inputs vs {} outputs",
                            xs.len(),
                            ys.len()
                        ),
                    ));
                }
                if !sorted(xs) {
                    return Err(self.error(
                        DiagCode::UnsortedCodebook,
                        Some(op),
                        format!("{label}: activation LUT inputs are not sorted"),
                    ));
                }
                let mut keys = Vec::new();
                load_keys(&mut keys, xs);
                // Same outward-rounded, slack-widened probe rule as
                // `reach_of`: the range contains every concrete probe's
                // row.
                let w = pre.widened_by(slack);
                let (lo, hi) = nearest_range(xs, &keys, f32_down(w.lo), f32_up(w.hi));
                if hi - lo + 1 < xs.len() {
                    self.report.push_liveness(
                        Diagnostic::new(
                            DiagCode::DeadLutRows,
                            Some(op),
                            format!(
                                "{label}: {} of {} activation LUT rows lie outside the reachable pre-activation range [{:.4}, {:.4}] (reachable rows {lo}..={hi})",
                                xs.len() - (hi - lo + 1),
                                xs.len(),
                                pre.lo,
                                pre.hi
                            ),
                        ),
                        xs.len() - (hi - lo + 1),
                    );
                }
                match Interval::of_slice(&ys[lo..=hi]) {
                    Some(iv) => Ok((iv, 0.0)),
                    None => Err(self.error(
                        DiagCode::NonFinite,
                        Some(op),
                        format!("{label}: reachable activation LUT output is non-finite"),
                    )),
                }
            }
        }
    }

    /// Per-weight-code value hulls of the products `fl(w · x)` of the
    /// entries of `weights` with the input book `xs` over the live
    /// columns (`reach`, plus the zero-padding column when `extra_col`
    /// is set), erroring on a product that is not finite in any column.
    /// Entries not marked `used` are skipped — they are dead data.
    ///
    /// `xs` is a checked codebook, sorted and finite, and `fl(w · x)`
    /// is monotone in `x` for a fixed `w`, so a hull is spanned by its
    /// range's two end columns and a product overflows, if anywhere, at
    /// an end of the book.
    #[allow(clippy::too_many_arguments)]
    fn row_intervals(
        &mut self,
        op: usize,
        weights: &[f32],
        used: &[bool],
        xs: &[f32],
        reach: (usize, usize),
        extra_col: Option<usize>,
        label: &str,
    ) -> Result<Vec<Option<Interval>>, Halt> {
        let mut rows: Vec<Option<Interval>> = vec![None; weights.len()];
        for (wc, (&w, row_iv)) in weights.iter().zip(&mut rows).enumerate() {
            if !used[wc] {
                continue;
            }
            let product = |c: usize| w * xs[c];
            if let Some(c) = [0, xs.len() - 1]
                .into_iter()
                .find(|&c| !product(c).is_finite())
            {
                return Err(self.error(
                    DiagCode::NonFinite,
                    Some(op),
                    format!(
                        "{label}: product of weight {wc} and input code {c} is {}",
                        product(c)
                    ),
                ));
            }
            let point = |c: usize| Interval::point(f64::from(product(c)));
            let hull = point(reach.0).hull(point(reach.1));
            *row_iv = Some(extra_col.map_or(hull, |z| hull.hull(point(z))));
        }
        Ok(rows)
    }

    /// Hardware bit-width findings for one neuron op: fan-in vs the
    /// occurrence counters, worst-case |partial sum| vs the fixed-point
    /// accumulator word.
    fn check_datapath(&mut self, op: usize, edges: usize, worst_mag: f64, label: &str) {
        if edges as u64 > DATAPATH.max_count() {
            self.warn(
                DiagCode::CounterOverflow,
                Some(op),
                format!(
                    "{label}: fan-in {edges} exceeds the {}-bit occurrence counters (max count {})",
                    DATAPATH.counter_bits,
                    DATAPATH.max_count()
                ),
            );
        }
        let cap = DATAPATH.max_accumulator_magnitude();
        if worst_mag > cap {
            self.warn(
                DiagCode::AccumulatorOverflow,
                Some(op),
                format!(
                    "{label}: worst-case |partial sum| {worst_mag:.3} exceeds the {}-bit fixed-point accumulator range \u{b1}{cap:.3}",
                    DATAPATH.accumulator_bits
                ),
            );
        }
    }

    /// Activation + optional re-encode shared by dense/conv/residual
    /// joins. `slack` bounds the concrete `f32` drift of the
    /// pre-activation values.
    fn finish_neuron(
        &mut self,
        op: usize,
        act: Option<&Act>,
        encoder: Option<Span>,
        pre: Interval,
        slack: f64,
        label: &str,
    ) -> Result<Flow, Halt> {
        let (post, post_slack) = match act {
            Some(act) => self.apply_act(op, act, pre, slack, label)?,
            None => (pre, slack),
        };
        match encoder {
            Some(span) => {
                let book = self.codebook(Some(op), span, &format!("{label}: encoder"))?;
                Ok(self.encode(
                    Some(op),
                    &book,
                    post,
                    post_slack,
                    &format!("{label}: encoder"),
                ))
            }
            None => Ok(Flow::Floats {
                interval: post,
                slack: post_slack,
            }),
        }
    }

    /// A dense or conv op, walked as the [`Neuron`] both are: window,
    /// widths and spans; per weight book the codes of the channels that
    /// read it and the hulls of its entries' products with the input
    /// book (the rows of the paper's product table); every channel's
    /// pre-activation hull; then the activation and re-encode. Returns
    /// the flow the op leaves and its width.
    fn neuron(
        &mut self,
        i: usize,
        n: &Neuron<'_>,
        label: &str,
        flow: Flow,
        width: usize,
    ) -> Result<(Flow, usize), Halt> {
        let Flow::Codes {
            book: in_book,
            reach,
            ..
        } = flow
        else {
            return Err(self.error(
                DiagCode::DomainMismatch,
                Some(i),
                format!("{label}: op consumes encoded codes but the flow is decoded floats"),
            ));
        };
        let g = &n.window;
        self.check_geom(i, g, label)?;
        if g.in_volume() != width {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "{label}: expects {} inputs, flow width is {width}",
                    g.in_volume()
                ),
            ));
        }
        let books = n.weight_books.len();
        if n.channels == 0 || (books != 1 && books != n.channels) {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "{label}: {books} weight books for {} output channels",
                    n.channels
                ),
            ));
        }
        let domain = in_book.len;
        if n.zero_code as usize >= domain {
            return Err(self.error(
                DiagCode::IndexOutOfBounds,
                Some(i),
                format!(
                    "{label}: zero-padding code {} out of range for domain {domain}",
                    n.zero_code
                ),
            ));
        }
        let patch_len = g.patch_len();
        let Some(expected) = n.channels.checked_mul(patch_len) else {
            return Err(self.error(
                DiagCode::SpanOutOfBounds,
                Some(i),
                format!("{label}: weight matrix size overflows"),
            ));
        };
        if n.weight_codes.len != expected {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(i),
                format!(
                    "{label}: weight-code span holds {} codes, expected {expected}",
                    n.weight_codes.len
                ),
            ));
        }
        let wcodes = self.codes_span(Some(i), n.weight_codes, &format!("{label}: weight codes"))?;
        // Padded windows read the zero column of every row.
        let extra_col = (g.pad > 0).then_some(n.zero_code as usize);
        let bias = self.check_bias(i, n.bias, n.channels, label)?;
        let (mut pre, mut worst) = (None::<Interval>, 0.0f64);
        let (mut unused_rows, mut total_rows) = (0usize, 0usize);
        // A checked codebook: every flow's book is one.
        let xs = in_book.slice(self.floats);
        let readers = n.readers(wcodes).zip(bias.chunks(n.channels / books));
        for (t, ((span, codes), bias)) in readers.enumerate() {
            let book_label = format!("{label} weight book {t}");
            let weights = self.weight_book(i, span, &book_label)?;
            let mut used = vec![false; weights.len()];
            for &c in codes {
                if c as usize >= weights.len() {
                    return Err(self.error(
                        DiagCode::IndexOutOfBounds,
                        Some(i),
                        format!(
                            "{book_label}: weight code {c} out of range for {}-entry book",
                            weights.len()
                        ),
                    ));
                }
                used[c as usize] = true;
            }
            unused_rows += used.iter().filter(|u| !**u).count();
            total_rows += weights.len();
            let rows = self.row_intervals(i, weights, &used, xs, reach, extra_col, &book_label)?;
            for (patch, &b) in codes.chunks(patch_len).zip(bias) {
                let mut acc = Interval::point(f64::from(b));
                let mut mag = f64::from(b).abs();
                for &w in patch {
                    // Used entries always carry an interval: reach is
                    // non-empty. A padded window reads the zero column,
                    // which is in every entry's hull when pad > 0.
                    let r = rows[w as usize].unwrap_or(Interval::zero());
                    acc = acc + r;
                    mag += r.magnitude();
                }
                worst = worst.max(mag);
                pre = Some(pre.map_or(acc, |p| p.hull(acc)));
            }
        }
        if unused_rows > 0 {
            self.report.push_liveness(
                Diagnostic::new(
                    DiagCode::DeadTableRows,
                    Some(i),
                    format!(
                        "{label}: {unused_rows} of {total_rows} weight-book entries are referenced by no weight code",
                    ),
                ),
                unused_rows,
            );
        }
        let pre = pre.unwrap_or(Interval::zero());
        self.check_datapath(i, patch_len, worst, label);
        let Some(width) = n.channels.checked_mul(g.out_pixels()) else {
            return Err(self.error(
                DiagCode::SpanOutOfBounds,
                Some(i),
                format!("{label}: output volume overflows"),
            ));
        };
        if width == 0 {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                Some(i),
                format!("{label}: produces zero outputs"),
            ));
        }
        // The kernel evaluates bias + `patch_len` products as one
        // left-to-right f32 sum per output; `worst` bounds the
        // magnitude sum of every output's terms.
        let slack = f32_sum_slack(patch_len + 1, worst);
        let flow = self.finish_neuron(i, Some(n.act), n.encoder, pre, slack, label)?;
        Ok((flow, width))
    }

    // ------------------------------------------------------------------
    // The walk
    // ------------------------------------------------------------------

    fn run(&mut self) -> Result<(), Halt> {
        if self.input_features == 0 {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                None,
                "zero input features".to_string(),
            ));
        }
        let venc = self.codebook(None, self.virtual_encoder, "virtual input encoder")?;
        // Every input feature is an arbitrary float, so (for a sorted
        // book) every centroid is reachable — each is nearest to itself.
        let mut flow = Flow::Codes {
            book: venc.span,
            reach: (0, venc.len() - 1),
            interval: venc.interval,
        };
        let mut width = self.input_features;
        // (width, decoded skip interval) per open residual.
        let mut residuals: Vec<(usize, Interval)> = Vec::new();

        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Dense { .. } | Op::Conv { .. } => {
                    let n = op.neuron().expect("dense and conv ops are neurons");
                    let label = if matches!(op, Op::Dense { .. }) {
                        "dense"
                    } else {
                        "conv"
                    };
                    (flow, width) = self.neuron(i, &n, label, flow, width)?;
                }
                Op::MaxPool(geom) => {
                    width = self.check_pool_geom(i, geom, width, "maxpool")?;
                    // Max over a window keeps codes inside the reachable
                    // range and values inside the hull: flow unchanged.
                }
                Op::AvgPool { geom, codebook } => {
                    width = self.check_pool_geom(i, geom, width, "avgpool")?;
                    let book = self.codebook(Some(i), *codebook, "avgpool")?;
                    // One f32 sum over the window plus the final scale.
                    let window = geom.kernel_h * geom.kernel_w;
                    match flow {
                        Flow::Codes {
                            book: in_book,
                            interval,
                            ..
                        } => {
                            let domain = in_book.len;
                            if book.len() < domain {
                                return Err(self.error(
                                    DiagCode::IndexOutOfBounds,
                                    Some(i),
                                    format!(
                                        "avgpool: codebook holds {} values, incoming domain is {domain}",
                                        book.len()
                                    ),
                                ));
                            }
                            // Window averages stay inside the decoded
                            // hull (exact representatives, so only the
                            // averaging itself rounds), then re-encode
                            // through the book.
                            let slack = f32_sum_slack(window + 1, interval.magnitude());
                            flow = self.encode(Some(i), &book, interval, slack, "avgpool");
                        }
                        Flow::Floats { interval, slack } => {
                            // Decoded-domain average stays in the hull;
                            // the runtime does not re-encode here, but
                            // the averaging adds its own rounding drift.
                            flow = Flow::Floats {
                                interval,
                                slack: slack
                                    + f32_sum_slack(window + 1, interval.magnitude() + slack),
                            };
                        }
                    }
                }
                Op::ResidualBegin { skip_codebook } => {
                    let Flow::Codes {
                        book: in_book,
                        reach,
                        ..
                    } = flow
                    else {
                        return Err(self.error(
                            DiagCode::DomainMismatch,
                            Some(i),
                            "residual begin: op consumes encoded codes but the flow is decoded floats"
                                .to_string(),
                        ));
                    };
                    let book = self.codebook(Some(i), *skip_codebook, "residual skip")?;
                    let domain = in_book.len;
                    if book.len() < domain {
                        return Err(self.error(
                            DiagCode::IndexOutOfBounds,
                            Some(i),
                            format!(
                                "residual skip codebook holds {} values, incoming domain is {domain}",
                                book.len()
                            ),
                        ));
                    }
                    // The runtime decodes the *incoming* codes through
                    // the skip book, so only indices in `reach` matter.
                    let values =
                        &self.floats[book.span.start + reach.0..=book.span.start + reach.1];
                    let skip_interval = Interval::of_slice(values).unwrap_or(book.interval);
                    residuals.push((width, skip_interval));
                }
                Op::ResidualEnd { encoder } => {
                    let Flow::Floats { interval, slack } = flow else {
                        return Err(self.error(
                            DiagCode::DomainMismatch,
                            Some(i),
                            "residual join: branch must end in decoded floats".to_string(),
                        ));
                    };
                    let Some((skip_width, skip_interval)) = residuals.pop() else {
                        return Err(self.error(
                            DiagCode::ResidualImbalance,
                            Some(i),
                            "residual join without matching begin".to_string(),
                        ));
                    };
                    if skip_width != width {
                        return Err(self.error(
                            DiagCode::ResidualImbalance,
                            Some(i),
                            format!(
                                "residual branch width {width} differs from skip width {skip_width}"
                            ),
                        ));
                    }
                    let joined = interval + skip_interval;
                    // One f32 add of the branch value (drift `slack`)
                    // and an exact skip representative.
                    let slack = slack + f32_sum_slack(2, joined.magnitude() + slack);
                    flow = self.finish_neuron(i, None, *encoder, joined, slack, "residual join")?;
                }
            }
        }

        if !residuals.is_empty() {
            return Err(self.error(
                DiagCode::ResidualImbalance,
                None,
                format!("{} unclosed residual begin(s)", residuals.len()),
            ));
        }
        if matches!(flow, Flow::Codes { .. }) {
            return Err(self.error(
                DiagCode::DomainMismatch,
                None,
                "program ends in the encoded domain".to_string(),
            ));
        }
        if width != self.output_features {
            return Err(self.error(
                DiagCode::ShapeMismatch,
                None,
                format!(
                    "program produces {width} outputs, header says {}",
                    self.output_features
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn_core::nearest::nearest_index;
    use std::borrow::Cow;

    /// Two-layer dense program with adversarial product magnitudes
    /// (1e7-scale cancellation) so `f32` accumulation error is far
    /// above one ulp of the true sums, a lookup activation, and a
    /// re-encoder whose outer entries are unreachable.
    fn adversarial() -> Program<'static> {
        let mut floats = vec![-2.5, -1.0, -0.25, 0.5, 1.5, 3.0]; // virtual book (6)
        let book = floats.len();
        // 4 weights against the virtual book: products up to 1.2e7.
        floats.extend_from_slice(&[4.0e6, -3.999_6e6, 11.0, -3.5]);
        let bias = floats.len();
        floats.extend_from_slice(&[0.5, -0.25]);
        let lut_x = floats.len();
        floats.extend_from_slice(&[-3.0e7, -5.0e5, -10.0, 0.0, 10.0, 5.0e5, 3.0e7]);
        let lut_y = floats.len();
        floats.extend_from_slice(&[-1.5, -0.5, 0.0, 0.25, 0.75, 1.25, 2.0]);
        let enc = floats.len();
        // LUT outputs span [-1.5, 2.0]: the -4.0 and 5.0 entries are dead.
        floats.extend_from_slice(&[-4.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.5, 5.0]);
        let book2 = floats.len();
        floats.extend_from_slice(&[0.5, -1.5]); // the head layer's 2 weights
        let bias2 = floats.len();
        floats.push(0.0625);
        Program {
            input_features: 3,
            output_features: 1,
            virtual_encoder: Span { start: 0, len: 6 },
            ops: vec![
                Op::Dense {
                    inputs: 3,
                    outputs: 2,
                    weight_codes: Span { start: 0, len: 6 },
                    bias: Span {
                        start: bias,
                        len: 2,
                    },
                    weight_book: Span {
                        start: book,
                        len: 4,
                    },
                    act: Act::Lookup {
                        inputs: Span {
                            start: lut_x,
                            len: 7,
                        },
                        outputs: Span {
                            start: lut_y,
                            len: 7,
                        },
                    },
                    encoder: Some(Span { start: enc, len: 8 }),
                },
                Op::Dense {
                    inputs: 2,
                    outputs: 1,
                    weight_codes: Span { start: 6, len: 2 },
                    bias: Span {
                        start: bias2,
                        len: 1,
                    },
                    weight_book: Span {
                        start: book2,
                        len: 2,
                    },
                    act: Act::Identity,
                    encoder: None,
                },
            ],
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1, 2, 3, 1, 0, 0, 1]),
        }
    }

    /// The reach `(lo, hi)` op 0's liveness note of `code` states as
    /// `reachable <what> lo..=hi`; with no note nothing is dead, so the
    /// reach is all `len` entries.
    fn noted_reach(report: &Report, code: DiagCode, what: &str, len: usize) -> (usize, usize) {
        let Some(d) = report
            .diagnostics()
            .iter()
            .find(|d| d.code == code && d.op == Some(0))
        else {
            return (0, len - 1);
        };
        // Both notes end `(reachable <what> lo..=hi)`.
        let tail = d.message.split(what).nth(1).expect("note states its reach");
        let (lo, hi) = tail
            .trim()
            .trim_end_matches(')')
            .split_once("..=")
            .expect("lo..=hi");
        (lo.parse().expect("lo"), hi.parse().expect("hi"))
    }

    /// The exactness pin behind deletion-grade liveness: enumerate
    /// every concrete input (all 6^3 virtual-code combinations), run
    /// the kernel's exact f32 arithmetic, and check that every
    /// concrete LUT row and encoder code lands inside the reachable
    /// ranges the analyzer's notes state — so entries *outside* those
    /// ranges are dead on every execution, even under 1e7-scale
    /// catastrophic cancellation where f32 rounding error dwarfs the
    /// true sums.
    #[test]
    fn reach_contains_every_concrete_f32_sum() {
        let p = adversarial();
        let report = analyze(&p);
        assert!(!report.has_errors(), "{report}");
        let (llo, lhi) = noted_reach(&report, DiagCode::DeadLutRows, "reachable rows", 7);
        let (elo, ehi) = noted_reach(&report, DiagCode::DeadCodebookEntries, "reachable codes", 8);

        let floats = &p.floats;
        // Pool layout: book 0..6, weight book 6..10, bias 10..12, then
        // the LUT pair and the encoder book.
        let lut_x = &floats[12..19];
        let lut_y = &floats[19..26];
        let enc = &floats[26..34];
        let mut lut_keys = Vec::new();
        load_keys(&mut lut_keys, lut_x);
        let mut enc_keys = Vec::new();
        load_keys(&mut enc_keys, enc);

        let product = |w: usize, x: usize| floats[6 + w] * floats[x];
        let wcodes: [usize; 6] = [0, 1, 2, 3, 1, 0];
        let bias = [floats[10], floats[11]];
        let mut seen_codes = [false; 8];
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    for o in 0..2 {
                        // Kernel-order f32 accumulation: bias first,
                        // then one product per input.
                        let mut acc: f32 = bias[o];
                        for (j, &x) in [a, b, c].iter().enumerate() {
                            acc += product(wcodes[o * 3 + j], x);
                        }
                        let row = nearest_index(lut_x, &lut_keys, acc);
                        assert!(
                            (llo..=lhi).contains(&row),
                            "concrete LUT row {row} outside analyzed reach {llo}..={lhi}"
                        );
                        let code = nearest_index(enc, &enc_keys, lut_y[row]);
                        assert!(
                            (elo..=ehi).contains(&code),
                            "concrete code {code} outside analyzed reach {elo}..={ehi}"
                        );
                        seen_codes[code] = true;
                    }
                }
            }
        }
        // The finding is real: the analyzer proves entries dead, and
        // the exhaustive run confirms some truly are (the book has 8
        // entries, the LUT can only output [-1.5, 2.0]).
        assert!(ehi - elo + 1 < 8, "expected a strict reach subset");
        assert_eq!(report.liveness().dead_codebook_entries, 8 - (ehi - elo + 1));
        for (code, seen) in seen_codes.iter().enumerate() {
            if !(elo..=ehi).contains(&code) {
                assert!(
                    !seen,
                    "analyzer called code {code} dead but it was selected"
                );
            }
        }
    }

    /// Probe-rounding helpers round outward, never inward.
    #[test]
    fn f32_probe_rounding_is_outward() {
        for &x in &[0.1f64, -0.1, 1.0e-30, 3.3333333333333337, -7.7e18, 0.0] {
            assert!(f64::from(f32_down(x)) <= x);
            assert!(f64::from(f32_up(x)) >= x);
        }
        let exact = 0.25f64; // representable: conversions stay exact
        assert_eq!(f32_down(exact), 0.25);
        assert_eq!(f32_up(exact), 0.25);
    }
}
