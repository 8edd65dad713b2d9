//! Certified artifact optimizer: analyzer-licensed rewrite passes with
//! translation validation.
//!
//! The checker already *proves* where a compiled program's footprint is
//! dead — encoder entries outside the reachable code range (RNA0104),
//! product-table rows no weight code references (RNA0201), columns
//! beyond or outside the input domain (RNA0202), LUT rows outside the
//! reachable pre-activation range (RNA0203). This module acts on those
//! proofs: [`optimize`] rewrites a program to drop the dead data and
//! emits, alongside the optimized program, a machine-checkable
//! [`Certificate`] — per-op remap tables plus a pass log — and
//! [`validate_certificate`] independently re-proves the rewrite:
//!
//! 1. it re-runs the analyzer on the *input* and checks every deletion
//!    the certificate declares is licensed by the input's liveness
//!    facts (kept ranges cover reachable ranges, kept rows cover every
//!    referenced row) — [`DiagCode::RewriteUnproven`] otherwise;
//! 2. it structurally checks the output is exactly the input's image
//!    under the certificate — every kept table/codebook/LUT/bias entry
//!    bit-identical, every weight code remapped as stated, every row
//!    map an order-preserving injection onto a prefix (a
//!    *permutation-compaction*, never a re-ordering or synthesis) —
//!    [`DiagCode::RewriteMismatch`] / [`DiagCode::CertificateInvalid`];
//! 3. it re-runs the analyzer on the *output* and requires an
//!    error-free report.
//!
//! Soundness of the passes leans on the exactness argument in
//! `checker.rs`/`interval.rs`: reachability is widened by a proven
//! `f32` rounding slack, so a deleted entry is unselectable on every
//! concrete execution and deletion preserves bit-identical inference.
//! Compacting an encoder book from `[lo, hi]` renames the codes it
//! emits by `-lo`; nearest-encode over a contiguous slice that contains
//! the full book's winner returns the same entry (ties included, since
//! tie-breaks resolve toward the lower index in both), so slicing every
//! consumer of that domain by the same range — product-table columns,
//! residual skip books, conv zero-padding codes — keeps every fetched
//! value identical. Row compaction renames stored weight codes through
//! the same map that moved the rows. Code-*width* narrowing falls out
//! downstream: fewer rows ⇒ fewer bits per packed code when the
//! serving writer re-serializes the program (its v2 sections are sized
//! at `ceil(log2(rows))`).
//!
//! One deliberate limitation: a domain consumed by an `AvgPool` is
//! never head-compacted. The avgpool book both *decodes* incoming
//! codes (indexing must stay aligned at 0) and *re-encodes* averages,
//! so only its tail can be trimmed; the planner records the barrier
//! and keeps that domain at full width.

use crate::checker::analyze_collect;
use crate::diag::{DiagCode, Diagnostic, Report};
use crate::program::{Act, Op, Program, Span, TableRef};
use std::borrow::Cow;

/// One rewrite pass of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Dead codebook-entry elimination: encoder/avgpool books sliced to
    /// their reachable entry range.
    DeadEntryElimination,
    /// Product-table row compaction with weight-code remapping.
    RowCompaction,
    /// Product-table column / decode-book compaction to the kept range
    /// of the input domain.
    ColumnCompaction,
    /// Dead activation-LUT row pruning.
    LutPruning,
}

impl Pass {
    /// Stable lower-case name used in logs and stats JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Pass::DeadEntryElimination => "dead-entry-elimination",
            Pass::RowCompaction => "row-compaction",
            Pass::ColumnCompaction => "column-compaction",
            Pass::LutPruning => "lut-pruning",
        }
    }
}

/// One applied rewrite, recorded in the certificate's pass log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Which pass fired.
    pub pass: Pass,
    /// The op it rewrote.
    pub op: usize,
    /// Elements (entries, rows, columns, LUT rows) removed.
    pub removed: usize,
}

/// Per-op remap tables: how the optimized op's data indexes map back
/// to the input op's. All ranges are inclusive and in *input* indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpRemap {
    /// Per product table of the op (dense: one, conv: one per output
    /// channel): `row_maps[t][w_old] = Some(w_new)` when input row
    /// `w_old` was kept as output row `w_new`, `None` when deleted.
    /// Must be an order-preserving injection onto `0..new_rows`.
    pub row_maps: Vec<Vec<Option<u16>>>,
    /// Kept input-code range: the columns kept of each product table,
    /// or the entries kept of a residual skip book. Mirrors the kept
    /// range of the producing codebook upstream.
    pub kept_cols: Option<(usize, usize)>,
    /// Kept activation-LUT row range.
    pub kept_lut_rows: Option<(usize, usize)>,
    /// Kept entry range of the codebook this op encodes through (the
    /// dense/conv/residual-join encoder, or the avgpool book).
    pub kept_encoder: Option<(usize, usize)>,
}

/// Machine-checkable witness that an optimized program is a
/// permutation-compaction of its input: per-op remap tables plus the
/// log of passes that fired. Checked by [`validate_certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Kept entry range of the virtual input encoder. Always the full
    /// book: any input float can select any centroid, so the input
    /// book is never compacted.
    pub kept_virtual: (usize, usize),
    /// One remap record per op, aligned with the op list.
    pub ops: Vec<OpRemap>,
    /// Which passes fired where, with removal counts.
    pub log: Vec<PassRecord>,
}

impl Certificate {
    /// Total elements removed by `pass` across all ops.
    pub fn removed(&self, pass: Pass) -> usize {
        self.log
            .iter()
            .filter(|r| r.pass == pass)
            .map(|r| r.removed)
            .sum()
    }
}

/// Result of a successful [`optimize`] run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten program, over owned wide pools. Re-serializing it
    /// through the serving writer realizes the code-width narrowing.
    pub program: Program<'static>,
    /// The translation-validation witness.
    pub certificate: Certificate,
    /// The analysis report of the *input* program: its liveness counts
    /// are what licensed the passes.
    pub report: Report,
}

/// Inclusive kept range of one code domain, in old code indices.
type Keep = (usize, usize);

/// Optimizes `program`: runs the analyzer, licenses the pass set from
/// its liveness facts, and returns the rewritten program plus its
/// [`Certificate`]. A program with nothing dead round-trips unchanged
/// (empty pass log, identity remaps).
///
/// The optimizer does not self-certify: callers (the serving crate's
/// `CompiledModel::optimize` does this unconditionally) should run
/// [`validate_certificate`] over (input, output, certificate) and
/// refuse the output on any error.
///
/// # Errors
///
/// The analysis report, boxed, when the input program has errors — an
/// invalid program licenses nothing.
pub fn optimize(program: &Program<'_>) -> Result<Optimized, Box<Report>> {
    let (report, facts) = analyze_collect(program);
    if report.has_errors() {
        return Err(Box::new(report));
    }

    // ------------------------------------------------------------------
    // Pass 1: plan the kept range of every code domain. A domain's keep
    // starts at its producer's reachable range and is only ever widened
    // by consumer constraints (conv zero-padding codes, the avgpool
    // barrier), so one forward scan suffices: constraints always refer
    // to the domain currently flowing.
    // ------------------------------------------------------------------
    // Slot 0 keeps the virtual input encoder's domain, slot `i + 1` op
    // `i`'s output book (its encoder, or the avgpool book).
    let venc_len = program.virtual_encoder.len;
    let mut keeps: Vec<Option<Keep>> = vec![None; program.ops.len() + 1];
    keeps[0] = Some((0, venc_len - 1));
    {
        // The slot of the book the flowing codes come from, and its length.
        let mut cur: Option<(usize, usize)> = Some((0, venc_len));
        let widen = |k: &mut Option<Keep>, lo: usize, hi: usize| {
            let k = k.as_mut().expect("producer planned");
            (k.0, k.1) = (k.0.min(lo), k.1.max(hi));
        };
        for (i, op) in program.ops.iter().enumerate() {
            let encoder = match op {
                Op::Dense { encoder, .. } | Op::ResidualEnd { encoder } => encoder,
                Op::Conv {
                    geom,
                    zero_code,
                    encoder,
                    ..
                } => {
                    if geom.pad > 0 {
                        let (p, _) = cur.expect("conv consumes an encoded flow");
                        let z = *zero_code as usize;
                        widen(&mut keeps[p], z, z);
                    }
                    encoder
                }
                Op::MaxPool(_) | Op::ResidualBegin { .. } => continue,
                Op::AvgPool { codebook, .. } => {
                    if let Some((p, domain)) = cur {
                        // Barrier: the avgpool book decodes incoming
                        // codes by direct indexing, so the incoming
                        // domain keeps its full width...
                        widen(&mut keeps[p], 0, domain - 1);
                        // ...and the book itself only trims its tail:
                        // kept head must cover both the decode role
                        // (indices up to domain-1) and the re-encode
                        // reach.
                        let reach = facts.ops[i].encoder_reach.unwrap_or((0, codebook.len - 1));
                        keeps[i + 1] = Some((0, (domain - 1).max(reach.1)));
                        cur = Some((i + 1, codebook.len));
                    }
                    continue;
                }
            };
            cur = encoder.map(|s| {
                keeps[i + 1] = Some(facts.ops[i].encoder_reach.unwrap_or((0, s.len - 1)));
                (i + 1, s.len)
            });
        }
    }
    let (input_keep, op_keeps) = (keeps[0].expect("input planned"), &keeps[1..]);

    // ------------------------------------------------------------------
    // Pass 2: rebuild the program against the planned keeps, recording
    // the certificate as we go.
    // ------------------------------------------------------------------
    let floats = &program.floats[..];
    let codes = &program.codes[..];
    let mut b = Builder::default();
    let mut remaps = vec![OpRemap::default(); program.ops.len()];
    let virtual_encoder = b.floats_span(program.virtual_encoder.slice(floats));
    let mut ops = Vec::with_capacity(program.ops.len());
    let mut cur: Option<Keep> = Some(input_keep);

    for (i, op) in program.ops.iter().enumerate() {
        let remap = &mut remaps[i];
        let (lut_reach, used_rows) = (facts.ops[i].lut_reach, &facts.ops[i].used_rows);
        match op {
            Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                table,
                act,
                encoder,
            } => {
                let keep = cur.expect("dense consumes an encoded flow");
                let (new_table, row_map) = b.rebuild_table(floats, table, &used_rows[0], keep, i);
                let wc: Vec<u16> = weight_codes
                    .slice(codes)
                    .iter()
                    .map(|&c| row_map[c as usize].expect("referenced rows are kept"))
                    .collect();
                let new_act = b.rebuild_act(floats, act, lut_reach, remap, i);
                let new_encoder = b.rebuild_encoder(floats, *encoder, op_keeps[i], remap, i);
                remap.row_maps = vec![row_map];
                remap.kept_cols = Some(keep);
                ops.push(Op::Dense {
                    inputs: *inputs,
                    outputs: *outputs,
                    weight_codes: b.codes_span(&wc),
                    bias: b.floats_span(bias.slice(floats)),
                    table: new_table,
                    act: new_act,
                    encoder: new_encoder,
                });
                cur = encoder.map(|_| op_keeps[i].expect("encoder planned"));
            }
            Op::Conv {
                geom,
                out_channels,
                weight_codes,
                bias,
                tables,
                zero_code,
                act,
                encoder,
            } => {
                let keep = cur.expect("conv consumes an encoded flow");
                let patch_len = geom.patch_len();
                let wc_old = weight_codes.slice(codes);
                let mut wc = Vec::with_capacity(wc_old.len());
                let mut new_tables = Vec::with_capacity(tables.len());
                let mut row_maps = Vec::with_capacity(tables.len());
                for (oc, table) in tables.iter().enumerate() {
                    let (new_table, row_map) =
                        b.rebuild_table(floats, table, &used_rows[oc], keep, i);
                    for &c in &wc_old[oc * patch_len..(oc + 1) * patch_len] {
                        wc.push(row_map[c as usize].expect("referenced rows are kept"));
                    }
                    new_tables.push(new_table);
                    row_maps.push(row_map);
                }
                let new_zero = if (keep.0..=keep.1).contains(&(*zero_code as usize)) {
                    (*zero_code as usize - keep.0) as u16
                } else {
                    // pad == 0 (the planner widened the keep over the
                    // zero code otherwise): the code is never used at
                    // runtime, any in-domain value is valid.
                    0
                };
                let new_act = b.rebuild_act(floats, act, lut_reach, remap, i);
                let new_encoder = b.rebuild_encoder(floats, *encoder, op_keeps[i], remap, i);
                remap.row_maps = row_maps;
                remap.kept_cols = Some(keep);
                ops.push(Op::Conv {
                    geom: *geom,
                    out_channels: *out_channels,
                    weight_codes: b.codes_span(&wc),
                    bias: b.floats_span(bias.slice(floats)),
                    tables: new_tables,
                    zero_code: new_zero,
                    act: new_act,
                    encoder: new_encoder,
                });
                cur = encoder.map(|_| op_keeps[i].expect("encoder planned"));
            }
            Op::MaxPool(g) => ops.push(Op::MaxPool(*g)),
            Op::AvgPool { geom, codebook } => {
                let book = codebook.slice(floats);
                let new_book = match cur {
                    Some(_) => {
                        let keep = op_keeps[i].expect("avgpool book planned");
                        remap.kept_encoder = Some(keep);
                        b.log(Pass::DeadEntryElimination, i, codebook.len - (keep.1 + 1));
                        cur = Some(keep);
                        b.floats_span(&book[keep.0..=keep.1])
                    }
                    None => b.floats_span(book),
                };
                ops.push(Op::AvgPool {
                    geom: *geom,
                    codebook: new_book,
                });
            }
            Op::ResidualBegin { skip_codebook } => {
                let keep = cur.expect("residual begin consumes an encoded flow");
                remap.kept_cols = Some(keep);
                let kept = keep.1 - keep.0 + 1;
                b.log(Pass::ColumnCompaction, i, skip_codebook.len - kept);
                let book = skip_codebook.slice(floats);
                ops.push(Op::ResidualBegin {
                    skip_codebook: b.floats_span(&book[keep.0..=keep.1]),
                });
            }
            Op::ResidualEnd { encoder } => {
                let new_encoder = b.rebuild_encoder(floats, *encoder, op_keeps[i], remap, i);
                ops.push(Op::ResidualEnd {
                    encoder: new_encoder,
                });
                cur = encoder.map(|_| op_keeps[i].expect("encoder planned"));
            }
        }
    }

    Ok(Optimized {
        program: Program {
            input_features: program.input_features,
            output_features: program.output_features,
            virtual_encoder,
            ops,
            floats: Cow::Owned(b.floats),
            codes: Cow::Owned(b.codes),
        },
        certificate: Certificate {
            kept_virtual: input_keep,
            ops: remaps,
            log: b.log,
        },
        report,
    })
}

#[derive(Default)]
struct Builder {
    floats: Vec<f32>,
    codes: Vec<u16>,
    /// The certificate's pass log.
    log: Vec<PassRecord>,
}

impl Builder {
    fn log(&mut self, pass: Pass, op: usize, removed: usize) {
        if removed > 0 {
            self.log.push(PassRecord { pass, op, removed });
        }
    }

    fn floats_span(&mut self, values: &[f32]) -> Span {
        let start = self.floats.len();
        self.floats.extend_from_slice(values);
        Span {
            start,
            len: values.len(),
        }
    }

    fn codes_span(&mut self, values: &[u16]) -> Span {
        let start = self.codes.len();
        self.codes.extend_from_slice(values);
        Span {
            start,
            len: values.len(),
        }
    }

    /// Copies `table` of op `op` keeping only `used` rows and the
    /// `keep` column range, logging what it drops; returns the new ref
    /// and the order-preserving row map.
    fn rebuild_table(
        &mut self,
        floats: &[f32],
        table: &TableRef,
        used: &[bool],
        keep: Keep,
        op: usize,
    ) -> (TableRef, Vec<Option<u16>>) {
        let cols = keep.1 - keep.0 + 1;
        let mut row_map = vec![None; table.weight_count];
        let start = self.floats.len();
        let mut next = 0u16;
        for (w, m) in row_map.iter_mut().enumerate() {
            if !used[w] {
                continue;
            }
            self.floats
                .extend_from_slice(&table.row(floats, w)[keep.0..=keep.1]);
            *m = Some(next);
            next += 1;
        }
        let dropped_rows = row_map.iter().filter(|m| m.is_none()).count();
        self.log(Pass::RowCompaction, op, dropped_rows);
        let dropped_cols = (table.input_count - cols) * usize::from(next);
        self.log(Pass::ColumnCompaction, op, dropped_cols);
        (
            TableRef {
                offset: start,
                weight_count: next as usize,
                input_count: cols,
            },
            row_map,
        )
    }

    /// Copies the activation step of op `op`, pruning a lookup to its
    /// reachable rows, recording the kept range in `remap` and logging
    /// the pruned rows.
    fn rebuild_act(
        &mut self,
        floats: &[f32],
        act: &Act,
        lut_reach: Option<(usize, usize)>,
        remap: &mut OpRemap,
        op: usize,
    ) -> Act {
        match act {
            Act::Identity => Act::Identity,
            Act::Relu => Act::Relu,
            Act::Lookup { inputs, outputs } => {
                let (lo, hi) = lut_reach.unwrap_or((0, inputs.len - 1));
                remap.kept_lut_rows = Some((lo, hi));
                self.log(Pass::LutPruning, op, inputs.len - (hi - lo + 1));
                Act::Lookup {
                    inputs: self.floats_span(&inputs.slice(floats)[lo..=hi]),
                    outputs: self.floats_span(&outputs.slice(floats)[lo..=hi]),
                }
            }
        }
    }

    /// Copies the book op `op` encodes through, sliced to its planned
    /// `keep`, recording the kept range in `remap` and logging the
    /// dropped entries.
    fn rebuild_encoder(
        &mut self,
        floats: &[f32],
        encoder: Option<Span>,
        keep: Option<Keep>,
        remap: &mut OpRemap,
        op: usize,
    ) -> Option<Span> {
        let s = encoder?;
        let keep = keep.expect("encoder planned");
        remap.kept_encoder = Some(keep);
        self.log(
            Pass::DeadEntryElimination,
            op,
            s.len - (keep.1 - keep.0 + 1),
        );
        Some(self.floats_span(&s.slice(floats)[keep.0..=keep.1]))
    }
}

// ----------------------------------------------------------------------
// Translation validation
// ----------------------------------------------------------------------

/// Independently re-proves that `output` is the certified image of
/// `input`: re-analyzes the input and checks every deletion is
/// licensed by its liveness facts, structurally checks the
/// permutation-compaction against the certificate entry by entry (bit
/// comparisons throughout), and re-analyzes the output. The returned
/// report is error-free exactly when the rewrite is proven; callers
/// must treat any error ([`DiagCode::CertificateInvalid`],
/// [`DiagCode::RewriteMismatch`], [`DiagCode::RewriteUnproven`], or an
/// output re-analysis error) as a refusal to serve the output.
pub fn validate_certificate(
    input: &Program<'_>,
    output: &Program<'_>,
    cert: &Certificate,
) -> Report {
    let mut v = Validator {
        report: Report::new(),
    };
    v.run(input, output, cert);
    v.report
}

struct Validator {
    report: Report,
}

impl Validator {
    fn fail(&mut self, code: DiagCode, op: Option<usize>, msg: impl Into<String>) {
        self.report.push(Diagnostic::new(code, op, msg.into()));
    }

    /// [`Self::fail`], answering a check's refusal (`false`, `None`).
    fn refuse<T: Default>(
        &mut self,
        code: DiagCode,
        op: Option<usize>,
        msg: impl Into<String>,
    ) -> T {
        self.fail(code, op, msg);
        T::default()
    }

    fn run(&mut self, input: &Program<'_>, output: &Program<'_>, cert: &Certificate) {
        // Shape-level certificate checks before touching any pool.
        if cert.ops.len() != input.ops.len() || input.ops.len() != output.ops.len() {
            return self.fail(
                DiagCode::CertificateInvalid,
                None,
                format!(
                    "certificate covers {} ops, input has {}, output has {}",
                    cert.ops.len(),
                    input.ops.len(),
                    output.ops.len()
                ),
            );
        }
        if input.input_features != output.input_features
            || input.output_features != output.output_features
        {
            return self.fail(
                DiagCode::RewriteMismatch,
                None,
                "optimized program changes the input/output feature widths",
            );
        }

        // The input analysis supplies the liveness facts that license
        // every deletion; the output analysis proves the rewritten
        // program well-formed and bounds-safe (which also makes the
        // structural span indexing below panic-free).
        let (in_report, facts) = analyze_collect(input);
        if in_report.has_errors() {
            return self.fail(
                DiagCode::RewriteUnproven,
                None,
                format!(
                    "input program fails analysis ({}); nothing is licensed",
                    in_report.summary()
                ),
            );
        }
        let out_report = crate::checker::analyze(output);
        if out_report.has_errors() {
            let mut d = Diagnostic::new(
                DiagCode::RewriteUnproven,
                None,
                format!(
                    "re-analysis of the optimized program fails ({})",
                    out_report.summary()
                ),
            );
            for diag in out_report.diagnostics() {
                d = d.with_note(diag.to_string());
            }
            self.report.push(d);
            return;
        }

        // Virtual encoder: never compacted, bit-identical.
        if cert.kept_virtual != (0, input.virtual_encoder.len - 1) {
            self.fail(
                DiagCode::CertificateInvalid,
                None,
                "certificate compacts the virtual input encoder",
            );
        } else if !bits_eq(
            input.virtual_encoder.slice(&input.floats),
            output.virtual_encoder.slice(&output.floats),
        ) {
            self.fail(
                DiagCode::RewriteMismatch,
                None,
                "virtual input encoder changed",
            );
        }

        // Structural walk. `cert_keep` is the certificate's kept range
        // of the domain currently flowing; `reach` is the analyzer's
        // reachable range for it on the *input* — every consumer
        // requires cert_keep ⊇ reach (deletion licensed), and every
        // consumer's slice must equal cert_keep (consistent renaming).
        let mut cert_keep: Keep = cert.kept_virtual;
        let mut reach: Keep = (0, input.virtual_encoder.len - 1);
        let mut domain = input.virtual_encoder.len;
        let mut encoded = true;
        for (i, (io, oo)) in input.ops.iter().zip(&output.ops).enumerate() {
            let m = &cert.ops[i];
            // Neuron and join ops hand their encoder pair on; the rest
            // are done with the op.
            let (ie, oe) = match (io, oo) {
                (
                    Op::Dense {
                        inputs: ii,
                        outputs: io_out,
                        weight_codes: iwc,
                        bias: ib,
                        table: it,
                        act: ia,
                        encoder: ie,
                    },
                    Op::Dense {
                        inputs: oi,
                        outputs: oo_out,
                        weight_codes: owc,
                        bias: ob,
                        table: ot,
                        act: oa,
                        encoder: oe,
                    },
                ) => {
                    if ii != oi || io_out != oo_out {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "dense: shape changed",
                        );
                    }
                    if !self.check_consumer(i, m, cert_keep, reach, domain) {
                        return;
                    }
                    let Some(row_map) = self.check_table_pair(
                        i,
                        input,
                        output,
                        it,
                        ot,
                        m.row_maps.first(),
                        cert_keep,
                    ) else {
                        return;
                    };
                    if !self.check_codes(
                        i,
                        iwc.slice(&input.codes),
                        owc.slice(&output.codes),
                        row_map,
                    ) {
                        return;
                    }
                    if !bits_eq(ib.slice(&input.floats), ob.slice(&output.floats)) {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "dense: bias changed",
                        );
                    }
                    if !self.check_act(i, input, output, ia, oa, m, facts.ops[i].lut_reach) {
                        return;
                    }
                    (*ie, *oe)
                }
                (
                    Op::Conv {
                        geom: ig,
                        out_channels: ic,
                        weight_codes: iwc,
                        bias: ib,
                        tables: its,
                        zero_code: iz,
                        act: ia,
                        encoder: ie,
                    },
                    Op::Conv {
                        geom: og,
                        out_channels: oc,
                        weight_codes: owc,
                        bias: ob,
                        tables: ots,
                        zero_code: oz,
                        act: oa,
                        encoder: oe,
                    },
                ) => {
                    if ig != og || ic != oc || its.len() != ots.len() {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "conv: geometry or channel count changed",
                        );
                    }
                    if !self.check_consumer(i, m, cert_keep, reach, domain) {
                        return;
                    }
                    if ig.pad > 0 {
                        let z = *iz as usize;
                        if !(cert_keep.0..=cert_keep.1).contains(&z) {
                            return self.fail(
                                DiagCode::RewriteUnproven,
                                Some(i),
                                format!(
                                    "conv: zero-padding code {z} deleted by kept range {}..={}",
                                    cert_keep.0, cert_keep.1
                                ),
                            );
                        }
                        if *oz as usize != z - cert_keep.0 {
                            return self.fail(
                                DiagCode::RewriteMismatch,
                                Some(i),
                                "conv: zero-padding code not remapped with its domain",
                            );
                        }
                    }
                    if m.row_maps.len() != its.len() {
                        return self.fail(
                            DiagCode::CertificateInvalid,
                            Some(i),
                            format!(
                                "conv: {} row maps for {} channel tables",
                                m.row_maps.len(),
                                its.len()
                            ),
                        );
                    }
                    let patch_len = ig.patch_len();
                    let iw = iwc.slice(&input.codes);
                    let ow = owc.slice(&output.codes);
                    for (t, (it, ot)) in its.iter().zip(ots).enumerate() {
                        let Some(row_map) = self.check_table_pair(
                            i,
                            input,
                            output,
                            it,
                            ot,
                            m.row_maps.get(t),
                            cert_keep,
                        ) else {
                            return;
                        };
                        if !self.check_codes(
                            i,
                            &iw[t * patch_len..(t + 1) * patch_len],
                            &ow[t * patch_len..(t + 1) * patch_len],
                            row_map,
                        ) {
                            return;
                        }
                    }
                    if !bits_eq(ib.slice(&input.floats), ob.slice(&output.floats)) {
                        return self.fail(DiagCode::RewriteMismatch, Some(i), "conv: bias changed");
                    }
                    if !self.check_act(i, input, output, ia, oa, m, facts.ops[i].lut_reach) {
                        return;
                    }
                    (*ie, *oe)
                }
                (Op::MaxPool(ig), Op::MaxPool(og)) => {
                    if ig != og {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "maxpool: geometry changed",
                        );
                    }
                    continue;
                }
                (
                    Op::AvgPool {
                        geom: ig,
                        codebook: ibk,
                    },
                    Op::AvgPool {
                        geom: og,
                        codebook: obk,
                    },
                ) => {
                    if ig != og {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "avgpool: geometry changed",
                        );
                    }
                    if !encoded {
                        if !bits_eq(ibk.slice(&input.floats), obk.slice(&output.floats)) {
                            return self.fail(
                                DiagCode::RewriteMismatch,
                                Some(i),
                                "avgpool: decoded-domain codebook changed",
                            );
                        }
                        continue;
                    }
                    // Encoded: the barrier requires the incoming domain
                    // at full width, and the book may only trim its
                    // tail past both the decode range and the
                    // re-encode reach.
                    if cert_keep != (0, domain - 1) {
                        return self.fail(
                            DiagCode::RewriteUnproven,
                            Some(i),
                            "avgpool: incoming domain was compacted across the decode barrier",
                        );
                    }
                    let Some((blo, bhi)) = m.kept_encoder else {
                        return self.fail(
                            DiagCode::CertificateInvalid,
                            Some(i),
                            "avgpool: certificate missing the book's kept range",
                        );
                    };
                    let book_reach = facts.ops[i].encoder_reach.unwrap_or((0, ibk.len - 1));
                    if blo != 0 || bhi >= ibk.len || bhi < (domain - 1).max(book_reach.1) {
                        return self.fail(
                            DiagCode::RewriteUnproven,
                            Some(i),
                            format!(
                                "avgpool: kept book range {blo}..={bhi} does not cover decode \
                                 domain {domain} and re-encode reach {}..={}",
                                book_reach.0, book_reach.1
                            ),
                        );
                    }
                    let ib = ibk.slice(&input.floats);
                    let ob = obk.slice(&output.floats);
                    if ob.len() != bhi - blo + 1 || !bits_eq(&ib[blo..=bhi], ob) {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "avgpool: book is not the certified slice of its input",
                        );
                    }
                    cert_keep = (blo, bhi);
                    reach = book_reach;
                    domain = ibk.len;
                    continue;
                }
                (
                    Op::ResidualBegin { skip_codebook: ibk },
                    Op::ResidualBegin { skip_codebook: obk },
                ) => {
                    if !self.check_consumer(i, m, cert_keep, reach, domain) {
                        return;
                    }
                    let (klo, khi) = cert_keep;
                    if khi >= ibk.len {
                        return self.fail(
                            DiagCode::CertificateInvalid,
                            Some(i),
                            "residual skip: kept range exceeds the book",
                        );
                    }
                    let ib = ibk.slice(&input.floats);
                    let ob = obk.slice(&output.floats);
                    if ob.len() != khi - klo + 1 || !bits_eq(&ib[klo..=khi], ob) {
                        return self.fail(
                            DiagCode::RewriteMismatch,
                            Some(i),
                            "residual skip: book is not the certified slice of its input",
                        );
                    }
                    continue;
                }
                (Op::ResidualEnd { encoder: ie }, Op::ResidualEnd { encoder: oe }) => (*ie, *oe),
                _ => return self.fail(DiagCode::RewriteMismatch, Some(i), "op kind changed"),
            };
            match self.check_encoder(i, input, output, ie, oe, m, &facts.ops[i]) {
                Some(Some((keep, r, d))) => {
                    (cert_keep, reach, domain, encoded) = (keep, r, d, true);
                }
                Some(None) => encoded = false,
                None => return,
            }
        }
    }

    /// A consumer of the flowing domain: the certificate's kept range
    /// must cover the input's reachable range (deletion licensed) and
    /// the op's recorded slice must equal it (consistent renaming).
    fn check_consumer(
        &mut self,
        op: usize,
        m: &OpRemap,
        cert_keep: Keep,
        reach: Keep,
        domain: usize,
    ) -> bool {
        if m.kept_cols != Some(cert_keep) {
            return self.refuse(
                DiagCode::CertificateInvalid,
                Some(op),
                format!(
                    "kept columns {:?} disagree with the domain's kept range {}..={}",
                    m.kept_cols, cert_keep.0, cert_keep.1
                ),
            );
        }
        if cert_keep.0 > reach.0 || cert_keep.1 < reach.1 || cert_keep.1 >= domain {
            return self.refuse(
                DiagCode::RewriteUnproven,
                Some(op),
                format!(
                    "kept range {}..={} does not cover the reachable codes {}..={} of the \
                     {domain}-entry domain",
                    cert_keep.0, cert_keep.1, reach.0, reach.1
                ),
            );
        }
        true
    }

    /// Checks one (input table, output table, row map) triple: the map
    /// is an order-preserving injection onto `0..new_rows`, and the
    /// output rows are bit-identical projections of kept input rows
    /// over the kept columns. Returns the map on success.
    #[allow(clippy::too_many_arguments)]
    fn check_table_pair<'m>(
        &mut self,
        op: usize,
        input: &Program<'_>,
        output: &Program<'_>,
        it: &TableRef,
        ot: &TableRef,
        row_map: Option<&'m Vec<Option<u16>>>,
        keep: Keep,
    ) -> Option<&'m Vec<Option<u16>>> {
        let Some(row_map) = row_map else {
            return self.refuse(
                DiagCode::CertificateInvalid,
                Some(op),
                "missing row map for a product table",
            );
        };
        if row_map.len() != it.weight_count || keep.1 >= it.input_count {
            return self.refuse(
                DiagCode::CertificateInvalid,
                Some(op),
                format!(
                    "row map covers {} of {} rows, or kept columns {}..={} exceed {}",
                    row_map.len(),
                    it.weight_count,
                    keep.0,
                    keep.1,
                    it.input_count
                ),
            );
        }
        let mut next = 0u16;
        for n in row_map.iter().flatten() {
            if *n != next {
                return self.refuse(
                    DiagCode::CertificateInvalid,
                    Some(op),
                    "row map is not an order-preserving compaction",
                );
            }
            next += 1;
        }
        let cols = keep.1 - keep.0 + 1;
        if ot.weight_count != next as usize || ot.input_count != cols {
            return self.refuse(
                DiagCode::RewriteMismatch,
                Some(op),
                format!(
                    "output table is {}x{}, certificate implies {}x{cols}",
                    ot.weight_count, ot.input_count, next
                ),
            );
        }
        for (w, m) in row_map.iter().enumerate() {
            let Some(n) = m else { continue };
            let old = &it.row(&input.floats, w)[keep.0..=keep.1];
            let new = ot.row(&output.floats, *n as usize);
            if !bits_eq(old, new) {
                return self.refuse(
                    DiagCode::RewriteMismatch,
                    Some(op),
                    format!("table row {w} is not preserved bit-identically"),
                );
            }
        }
        Some(row_map)
    }

    /// Every input weight code must be kept by the map (it references
    /// a live row) and remapped to exactly the stated new row.
    fn check_codes(
        &mut self,
        op: usize,
        input: &[u16],
        output: &[u16],
        row_map: &[Option<u16>],
    ) -> bool {
        if input.len() != output.len() {
            return self.refuse(
                DiagCode::RewriteMismatch,
                Some(op),
                "weight-code count changed",
            );
        }
        for (j, (&ic, &oc)) in input.iter().zip(output).enumerate() {
            match row_map.get(ic as usize).copied().flatten() {
                None => {
                    return self.refuse(
                        DiagCode::RewriteUnproven,
                        Some(op),
                        format!("weight code {ic} (index {j}) references a deleted row"),
                    )
                }
                Some(n) if n != oc => {
                    return self.refuse(
                        DiagCode::RewriteMismatch,
                        Some(op),
                        format!("weight code {ic} remapped to {oc}, certificate says {n}"),
                    );
                }
                Some(_) => {}
            }
        }
        true
    }

    /// Activation step: exact kinds copy through; lookups must keep a
    /// range covering the input's reachable rows and slice both spans
    /// bit-identically.
    #[allow(clippy::too_many_arguments)]
    fn check_act(
        &mut self,
        op: usize,
        input: &Program<'_>,
        output: &Program<'_>,
        ia: &Act,
        oa: &Act,
        m: &OpRemap,
        lut_reach: Option<(usize, usize)>,
    ) -> bool {
        match (ia, oa) {
            (Act::Identity, Act::Identity) | (Act::Relu, Act::Relu) => true,
            (
                Act::Lookup {
                    inputs: ix,
                    outputs: iy,
                },
                Act::Lookup {
                    inputs: ox,
                    outputs: oy,
                },
            ) => {
                let Some((lo, hi)) = m.kept_lut_rows else {
                    return self.refuse(
                        DiagCode::CertificateInvalid,
                        Some(op),
                        "lookup activation without a kept-row range",
                    );
                };
                if hi >= ix.len {
                    return self.refuse(
                        DiagCode::CertificateInvalid,
                        Some(op),
                        "kept LUT rows exceed the table",
                    );
                }
                let (rlo, rhi) = lut_reach.unwrap_or((0, ix.len - 1));
                if lo > rlo || hi < rhi {
                    return self.refuse(
                        DiagCode::RewriteUnproven,
                        Some(op),
                        format!(
                            "kept LUT rows {lo}..={hi} do not cover the reachable rows \
                             {rlo}..={rhi}"
                        ),
                    );
                }
                let len = hi - lo + 1;
                if ox.len != len
                    || oy.len != len
                    || !bits_eq(&ix.slice(&input.floats)[lo..=hi], ox.slice(&output.floats))
                    || !bits_eq(&iy.slice(&input.floats)[lo..=hi], oy.slice(&output.floats))
                {
                    return self.refuse(
                        DiagCode::RewriteMismatch,
                        Some(op),
                        "LUT is not the certified slice of its input",
                    );
                }
                true
            }
            _ => self.refuse(
                DiagCode::RewriteMismatch,
                Some(op),
                "activation kind changed",
            ),
        }
    }

    /// Encoder step of a neuron/join op. On success returns the new
    /// flowing-domain state `(cert_keep, reach, old_domain)` when the
    /// op re-encodes, `None` when it ends in floats; `None` refuses.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn check_encoder(
        &mut self,
        op: usize,
        input: &Program<'_>,
        output: &Program<'_>,
        ie: Option<Span>,
        oe: Option<Span>,
        m: &OpRemap,
        facts: &crate::checker::OpFacts,
    ) -> Option<Option<(Keep, Keep, usize)>> {
        match (ie, oe) {
            (None, None) => Some(None),
            (Some(is), Some(os)) => {
                let Some((elo, ehi)) = m.kept_encoder else {
                    return self.refuse(
                        DiagCode::CertificateInvalid,
                        Some(op),
                        "encoder without a kept-entry range",
                    );
                };
                if ehi >= is.len {
                    return self.refuse(
                        DiagCode::CertificateInvalid,
                        Some(op),
                        "kept encoder entries exceed the book",
                    );
                }
                let reach = facts.encoder_reach.unwrap_or((0, is.len - 1));
                if elo > reach.0 || ehi < reach.1 {
                    return self.refuse(
                        DiagCode::RewriteUnproven,
                        Some(op),
                        format!(
                            "kept encoder entries {elo}..={ehi} do not cover the reachable \
                             codes {}..={}",
                            reach.0, reach.1
                        ),
                    );
                }
                let len = ehi - elo + 1;
                if os.len != len
                    || !bits_eq(
                        &is.slice(&input.floats)[elo..=ehi],
                        os.slice(&output.floats),
                    )
                {
                    return self.refuse(
                        DiagCode::RewriteMismatch,
                        Some(op),
                        "encoder book is not the certified slice of its input",
                    );
                }
                Some(Some(((elo, ehi), reach, is.len)))
            }
            _ => self.refuse(
                DiagCode::RewriteMismatch,
                Some(op),
                "encoder presence changed",
            ),
        }
    }
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ----------------------------------------------------------------------
// Synthetic degradation (test/bench utility)
// ----------------------------------------------------------------------

/// Returns a semantically identical program whose dense/conv product
/// tables carry `extra` additional rows that no weight code references.
/// Inference is bit-identical (the new rows are never fetched), but
/// the footprint — and, once serialized, the per-code bit width — grows,
/// giving tests and benchmarks a model the optimizer provably shrinks.
pub fn inject_dead_rows(program: &Program<'_>, extra: usize) -> Program<'static> {
    let mut floats = program.floats.to_vec();
    let pad_table = |floats: &mut Vec<f32>, t: &TableRef| -> TableRef {
        let start = floats.len();
        let data: Vec<f32> = floats[t.offset..t.offset + t.weight_count * t.input_count].to_vec();
        floats.extend_from_slice(&data);
        for j in 0..extra * t.input_count {
            // Arbitrary finite filler, distinct from real entries so a
            // buggy "optimizer" that kept them would be caught.
            floats.push(1.0e4 + j as f32);
        }
        TableRef {
            offset: start,
            weight_count: t.weight_count + extra,
            input_count: t.input_count,
        }
    };
    let ops = program
        .ops
        .iter()
        .map(|op| match op {
            Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                table,
                act,
                encoder,
            } => Op::Dense {
                inputs: *inputs,
                outputs: *outputs,
                weight_codes: *weight_codes,
                bias: *bias,
                table: pad_table(&mut floats, table),
                act: act.clone(),
                encoder: *encoder,
            },
            Op::Conv {
                geom,
                out_channels,
                weight_codes,
                bias,
                tables,
                zero_code,
                act,
                encoder,
            } => Op::Conv {
                geom: *geom,
                out_channels: *out_channels,
                weight_codes: *weight_codes,
                bias: *bias,
                tables: tables.iter().map(|t| pad_table(&mut floats, t)).collect(),
                zero_code: *zero_code,
                act: act.clone(),
                encoder: *encoder,
            },
            other => other.clone(),
        })
        .collect();
    Program {
        input_features: program.input_features,
        output_features: program.output_features,
        virtual_encoder: program.virtual_encoder,
        ops,
        floats: Cow::Owned(floats),
        codes: Cow::Owned(program.codes.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::analyze;

    /// Two dense layers with every kind of dead data the pass set
    /// targets: a never-referenced product-table row, columns beyond
    /// the input domain, dead LUT head/tail rows, dead outer encoder
    /// entries, and second-layer columns outside the reachable code
    /// range of that compacted encoder.
    fn deadweight() -> Program<'static> {
        let mut floats = vec![-1.0, -0.5, 0.5, 1.0]; // virtual book (4)
        let table = floats.len();
        #[rustfmt::skip]
        floats.extend_from_slice(&[
            // 4 weight rows x 6 columns; the domain is 4, so columns
            // 4..6 (the 9.0 filler) are dead. Row 2 is unreferenced.
            0.5, -0.25, 0.25, 0.75, 9.0, 9.0,
            -0.5, 0.5, -0.75, 1.0, 9.0, 9.0,
            7.0, 7.0, 7.0, 7.0, 9.0, 9.0,
            0.25, -1.0, 0.5, -0.25, 9.0, 9.0,
        ]);
        let bias = floats.len();
        floats.extend_from_slice(&[0.1, -0.1]);
        let lut_x = floats.len();
        floats.extend_from_slice(&[-100.0, -1.0, 0.0, 1.0, 100.0]);
        let lut_y = floats.len();
        // Pre-activations stay within [-2.2, 2.2]: LUT rows 0 and 4
        // (keyed at +-100) are dead.
        floats.extend_from_slice(&[-5.0, 0.1, 0.2, 0.3, 5.0]);
        let enc = floats.len();
        // Reachable LUT outputs are [0.1, 0.3]: entries 0 and 4 of the
        // re-encoder are dead (codes compact from 5 to 3 entries, so
        // the packed width narrows from 3 bits to 2).
        floats.extend_from_slice(&[-10.0, 0.0, 0.2, 0.4, 10.0]);
        let table2 = floats.len();
        #[rustfmt::skip]
        floats.extend_from_slice(&[
            // 2 rows x 5 columns; only columns 1..=3 are reachable.
            0.5, -0.5, 1.0, -1.0, 0.25,
            -1.5, 1.5, 0.75, -0.75, 3.0,
        ]);
        let bias2 = floats.len();
        floats.push(0.0625);
        Program {
            input_features: 2,
            output_features: 1,
            virtual_encoder: Span { start: 0, len: 4 },
            ops: vec![
                Op::Dense {
                    inputs: 2,
                    outputs: 2,
                    weight_codes: Span { start: 0, len: 4 },
                    bias: Span {
                        start: bias,
                        len: 2,
                    },
                    table: TableRef {
                        offset: table,
                        weight_count: 4,
                        input_count: 6,
                    },
                    act: Act::Lookup {
                        inputs: Span {
                            start: lut_x,
                            len: 5,
                        },
                        outputs: Span {
                            start: lut_y,
                            len: 5,
                        },
                    },
                    encoder: Some(Span { start: enc, len: 5 }),
                },
                Op::Dense {
                    inputs: 2,
                    outputs: 1,
                    weight_codes: Span { start: 4, len: 2 },
                    bias: Span {
                        start: bias2,
                        len: 1,
                    },
                    table: TableRef {
                        offset: table2,
                        weight_count: 2,
                        input_count: 5,
                    },
                    act: Act::Identity,
                    encoder: None,
                },
            ],
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1, 3, 3, 0, 1]),
        }
    }

    #[test]
    fn dead_data_is_compacted_and_certified() {
        let p = deadweight();
        let opt = optimize(&p).expect("input analyzes clean");
        let cert = &opt.certificate;

        // Every pass fired.
        assert!(cert.removed(Pass::RowCompaction) == 1, "{:?}", cert.log);
        assert!(cert.removed(Pass::LutPruning) == 2, "{:?}", cert.log);
        assert!(
            cert.removed(Pass::DeadEntryElimination) == 2,
            "{:?}",
            cert.log
        );
        // Layer 1 drops 2 dead columns on each of 3 kept rows; layer 2
        // drops columns 0 and 4 on each of 2 rows.
        assert!(cert.removed(Pass::ColumnCompaction) == 10, "{:?}", cert.log);

        // Structure of the rewrite.
        let Op::Dense { table, encoder, .. } = &opt.program.ops[0] else {
            panic!("op kind preserved");
        };
        assert_eq!((table.weight_count, table.input_count), (3, 4));
        assert_eq!(encoder.unwrap().len, 3);
        let Op::Dense { table, .. } = &opt.program.ops[1] else {
            panic!("op kind preserved");
        };
        assert_eq!((table.weight_count, table.input_count), (2, 3));
        // Weight codes remapped through the row map (row 2 deleted).
        assert_eq!(&opt.program.codes[..4], &[0, 1, 2, 2]);
        assert!(opt.program.floats.len() < p.floats.len());

        // The validator re-proves the rewrite...
        let vr = validate_certificate(&p, &opt.program, cert);
        assert!(!vr.has_errors(), "{vr}");
        // ...the optimized program is itself clean of liveness findings
        // (a second run is the identity)...
        let again = optimize(&opt.program).expect("optimized analyzes clean");
        assert!(
            again.certificate.log.is_empty(),
            "{:?}",
            again.certificate.log
        );
        assert_eq!(analyze(&opt.program).liveness().total(), 0);
        // ...and the licensing report counted what was removed.
        assert_eq!(opt.report.liveness().dead_codebook_entries, 2);
        assert_eq!(opt.report.liveness().dead_lut_rows, 2);
        assert!(opt.report.liveness().dead_table_rows >= 1);
    }

    #[test]
    fn clean_program_round_trips_unchanged() {
        let p = deadweight();
        let clean = optimize(&p).unwrap().program;
        let opt = optimize(&clean).unwrap();
        assert!(opt.certificate.log.is_empty());
        assert_eq!(opt.program.floats.len(), clean.floats.len());
        assert_eq!(opt.program.codes[..], clean.codes[..]);
        let vr = validate_certificate(&clean, &opt.program, &opt.certificate);
        assert!(!vr.has_errors(), "{vr}");
    }

    #[test]
    fn corrupted_certificate_is_typed_invalid() {
        let p = deadweight();
        let opt = optimize(&p).unwrap();

        // Row map reordered: no longer an order-preserving compaction.
        let mut cert = opt.certificate.clone();
        cert.ops[0].row_maps[0] = vec![Some(1), Some(0), None, Some(2)];
        let vr = validate_certificate(&p, &opt.program, &cert);
        assert!(vr.find(DiagCode::CertificateInvalid).is_some(), "{vr}");

        // Wrong op count.
        let mut cert = opt.certificate.clone();
        cert.ops.pop();
        let vr = validate_certificate(&p, &opt.program, &cert);
        assert!(vr.find(DiagCode::CertificateInvalid).is_some(), "{vr}");
    }

    #[test]
    fn unlicensed_deletion_is_typed_unproven() {
        let p = deadweight();
        let opt = optimize(&p).unwrap();
        // Claim a narrower encoder keep than the reachable range: the
        // deletion is no longer licensed by the input's facts.
        let mut cert = opt.certificate.clone();
        cert.ops[0].kept_encoder = Some((2, 3));
        let vr = validate_certificate(&p, &opt.program, &cert);
        assert!(vr.find(DiagCode::RewriteUnproven).is_some(), "{vr}");
    }

    #[test]
    fn tampered_output_is_typed_mismatch() {
        let p = deadweight();
        let opt = optimize(&p).unwrap();

        // Flip one kept table entry: projection no longer bit-equal.
        let mut out = opt.program.clone();
        let Op::Dense { table, .. } = &out.ops[0] else {
            unreachable!()
        };
        out.floats.to_mut()[table.offset] += 1.0;
        let vr = validate_certificate(&p, &out, &opt.certificate);
        assert!(vr.find(DiagCode::RewriteMismatch).is_some(), "{vr}");

        // Mis-remap one weight code (still in bounds: row 1 exists).
        let mut out = opt.program.clone();
        out.codes.to_mut()[0] = 1;
        let vr = validate_certificate(&p, &out, &opt.certificate);
        assert!(vr.find(DiagCode::RewriteMismatch).is_some(), "{vr}");
    }

    #[test]
    fn ill_formed_output_is_typed_unproven() {
        let p = deadweight();
        let opt = optimize(&p).unwrap();
        // Break the output so its re-analysis fails (weight code out of
        // range): the validator refuses before structural checks.
        let mut out = opt.program.clone();
        out.codes.to_mut()[0] = 999;
        let vr = validate_certificate(&p, &out, &opt.certificate);
        let d = vr.find(DiagCode::RewriteUnproven).expect("refused");
        assert!(!d.notes.is_empty());
    }

    #[test]
    fn injected_dead_rows_are_removed_exactly() {
        let p = deadweight();
        let clean = optimize(&p).unwrap().program;
        let padded = inject_dead_rows(&clean, 5);
        // Padding is invisible to analysis except as dead rows.
        assert!(!analyze(&padded).has_errors());
        let opt = optimize(&padded).unwrap();
        // 5 extra rows on each of the two dense tables.
        assert_eq!(opt.certificate.removed(Pass::RowCompaction), 10);
        let vr = validate_certificate(&padded, &opt.program, &opt.certificate);
        assert!(!vr.has_errors(), "{vr}");
        assert_eq!(opt.program.floats.len(), clean.floats.len());
    }
}
