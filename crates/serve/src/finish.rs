//! Tabulated finishes: an op's activation lookup and re-encode as one
//! step function, fixed when the model is built.
//!
//! Both are nearest-distance lookups in tables the model fixes (the
//! paper's RNA block), so an op writes a step function of its value: its
//! total-order key ([`total_key`]) — on the integer path the `i32`
//! accumulator — lies in one run, and the run names the output, so at
//! run time a [`Finish`] is `out[run_of(edges, probe)]`. One builder
//! ([`Finish::of`]) cuts the key space at the exact boundaries of the
//! search over the LUT inputs or the encoder book ([`build_thresholds`]),
//! finishes each interval through the scalar reference at its first
//! key and merges neighbouring runs with one output; the integer path
//! moves the edges onto its accumulator grid ([`Finish::on_grid`]).

use crate::artifact::apply_act;
use rapidnn_analyze::{Act, Boundary, Op, Program, Span};
use rapidnn_core::nearest::{build_thresholds, load_keys, nearest, total_key};

/// Edges a finish compares a probe against in one step.
pub(crate) const EDGE_LANES: usize = 8;

/// The run a `probe` lies in: how many run `edges` are at or below it,
/// counted a whole lane group at a time without a branch, as
/// `rapidnn_core::nearest` counts keys below a probe. Total over `i32`:
/// below the first edge is the first run, past the last the last.
#[inline]
pub(crate) fn run_of(edges: &[[i32; EDGE_LANES]], probe: i32) -> usize {
    let mut below = [0u32; EDGE_LANES];
    for group in edges {
        for (b, &e) in below.iter_mut().zip(group) {
            *b += u32::from(e <= probe);
        }
        // Keeps the group as the vector: without a barrier, inside an
        // AVX2 frame the loop vectorizer takes eight groups as its lanes
        // and transposes them (64-edge finishes: 37 µs for a 64-row
        // 16 → 24 op against 12 µs with it).
        std::hint::black_box(());
    }
    below.iter().sum::<u32>() as usize
}

/// A step function of an `i32` probe, kept as its runs: a probe with
/// `i` of `edges` at or below it finishes as `out[i]` ([`run_of`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Finish {
    /// Probe where each run after the first starts, ascending, in whole
    /// lane groups: the last run's edge repeats to fill the last group.
    pub(crate) edges: Vec<[i32; EDGE_LANES]>,
    /// One output per run, then one per repeated edge.
    pub(crate) out: LutOut,
}

/// The outputs of a finish's runs, in the domain the next op reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LutOut {
    /// The op re-encodes: output codes.
    Codes(Vec<u16>),
    /// The op re-encodes into an integer op: its operand `xq[code]`.
    Quants(Vec<i16>),
    /// The op does not re-encode: finished floats.
    Floats(Vec<f32>),
}

impl LutOut {
    /// Output `i`, bit for bit.
    fn bits(&self, i: usize) -> u32 {
        match self {
            LutOut::Codes(o) => u32::from(o[i]),
            LutOut::Quants(o) => u32::from(o[i] as u16),
            LutOut::Floats(o) => o[i].to_bits(),
        }
    }

    /// The outputs at `at`, in order.
    fn pick(&self, at: &[usize]) -> LutOut {
        match self {
            LutOut::Codes(o) => LutOut::Codes(at.iter().map(|&i| o[i]).collect()),
            LutOut::Quants(o) => LutOut::Quants(at.iter().map(|&i| o[i]).collect()),
            LutOut::Floats(o) => LutOut::Floats(at.iter().map(|&i| o[i]).collect()),
        }
    }
}

impl Finish {
    /// The finish of an op that looks up (over its LUT inputs' search
    /// intervals) or re-encodes (over `enc`'s), probed after the ReLU:
    /// each interval's output is the lookup's, then its `enc` code.
    /// `None` for Identity or ReLU alone, which finish as [`apply_act`].
    fn of(pool: &[f32], act: &Act, enc: Option<&[f32]>) -> Option<Finish> {
        let axis = match act {
            Act::Lookup { inputs, .. } => inputs.slice(pool),
            Act::Identity | Act::Relu => enc?,
        };
        let starts = starts(axis);
        let firsts = std::iter::once(i64::from(i32::MIN)).chain(starts.iter().copied());
        let value = firsts.map(|k| match act {
            Act::Lookup { .. } => apply_act(act, pool, value_of(k)),
            Act::Identity | Act::Relu => value_of(k),
        });
        // RNA0004 caps a codebook at 2^16 entries.
        let out = match enc {
            Some(e) => LutOut::Codes(value.map(|v| nearest(e, v) as u16).collect()),
            None => LutOut::Floats(value.collect()),
        };
        Some(Finish::runs(&starts, &out))
    }

    /// The step function whose interval `j` starts at `starts[j - 1]`
    /// (the first at `i32::MIN`) and finishes as `out[j]`, as its runs:
    /// empty intervals go and neighbours with one output merge.
    fn runs(starts: &[i64], out: &LutOut) -> Finish {
        let (mut kept, mut edges): (Vec<usize>, Vec<i32>) = (Vec::new(), Vec::new());
        for j in 0..=starts.len() {
            let start = j.checked_sub(1).map_or(i64::from(i32::MIN), |i| starts[i]);
            let empty = start > i64::from(i32::MAX) || starts.get(j).is_some_and(|&s| s <= start);
            match kept.last() {
                _ if empty => {}
                Some(&k) if out.bits(k) == out.bits(j) => {}
                Some(_) => {
                    kept.push(j);
                    edges.push(start as i32);
                }
                None => kept.push(j),
            }
        }
        // The last run repeats until its edges fill whole lane groups.
        while !edges.len().is_multiple_of(EDGE_LANES) {
            edges.push(edges[edges.len() - 1]);
            kept.push(kept[kept.len() - 1]);
        }
        Finish {
            edges: edges.as_chunks().0.to_vec(),
            out: out.pick(&kept),
        }
    }

    /// This finish writing `xq[code]` for each output code, merged again.
    pub(crate) fn to_levels(&self, xq: &[i16]) -> Finish {
        let LutOut::Codes(o) = &self.out else {
            return self.clone();
        };
        let starts: Vec<i64> = self.edges.iter().flatten().map(|&e| i64::from(e)).collect();
        let levels = o.iter().map(|&c| xq[usize::from(c)]).collect();
        Finish::runs(&starts, &LutOut::Quants(levels))
    }

    /// This finish on the plan's accumulator grid — `len` buckets of
    /// `2^shift` from `lo_q` at `scale`, each finished at its center: a
    /// run starts at the first bucket whose center's key (after the
    /// ReLU when `relu`) reaches its edge (the centers ascend).
    pub(crate) fn on_grid(&self, relu: bool, scale: f32, grid: (i32, u32, usize)) -> Finish {
        let (lo_q, shift, len) = grid;
        let step = 1i64 << shift;
        let left = |b: usize| i64::from(lo_q) + b as i64 * step;
        let key = |b: usize| {
            let center = ((left(b) + step / 2) as f64 / f64::from(scale)) as f32;
            total_key(if relu { center.max(0.0) } else { center })
        };
        let start = |&edge: &i32| {
            let (mut lo, mut hi) = (0, len);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let below = key(mid) < edge;
                (lo, hi) = if below { (mid + 1, hi) } else { (lo, mid) };
            }
            match lo {
                0 => i64::from(i32::MIN),
                b if b == len => i64::from(i32::MAX) + 1,
                // Inside `lo_q..=hi_q`, which the plan proved fits `i32`.
                b => left(b),
            }
        };
        let starts: Vec<i64> = self.edges.iter().flatten().map(start).collect();
        Finish::runs(&starts, &self.out)
    }
}

/// The key where each interval of the search over `axis` after the
/// first starts: one above its boundary.
fn starts(axis: &[f32]) -> Vec<i64> {
    let mut keys = Vec::new();
    load_keys(&mut keys, axis);
    let thresholds = build_thresholds(axis, &keys).into_iter();
    thresholds.map(|t| i64::from(t) + 1).collect()
}

/// The value whose total-order key is `k` wrapped into `i32`.
fn value_of(k: i64) -> f32 {
    f32::from_bits(total_key(f32::from_bits(k as i32 as u32)) as u32)
}

/// The activation and re-encode book an op finishes through: a pool's
/// or a residual join's value is not activated.
fn step(op: &Op) -> Option<(&Act, Option<Span>)> {
    match op {
        Op::Dense { .. } | Op::Conv { .. } => op.neuron().map(|n| (n.act, n.encoder)),
        Op::AvgPool { codebook, .. } => Some((&Act::Identity, Some(*codebook))),
        Op::ResidualEnd { encoder } => Some((&Act::Identity, *encoder)),
        Op::MaxPool(_) | Op::ResidualBegin { .. } => None,
    }
}

/// Each op's finish ([`Finish::of`] over its [`step`]); an average pool
/// over floats writes its averages.
pub(crate) fn tabulate(program: &Program<'_>) -> Vec<Option<Finish>> {
    let pool: &[f32] = &program.floats;
    let finish = |(op, at): (&Op, &Boundary)| {
        let (act, enc) = step(op)?;
        if matches!(op, Op::AvgPool { .. }) && at.book.is_none() {
            return None;
        }
        Finish::of(pool, act, enc.map(|e| e.slice(pool)))
    };
    let flow = program.flow();
    program.ops.iter().zip(&flow).map(finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CompiledModel;
    use crate::test_models as common;
    use rapidnn_analyze::{FinishPlan, OpQuant};
    use rapidnn_tensor::SeededRng;

    /// What a finish through `act` and `enc` writes for the value `y` by
    /// the scalar reference, as bits: [`apply_act`], the nearest code,
    /// then the next op's operand `xq[code]`.
    fn reference(pool: &[f32], act: &Act, enc: Option<&[f32]>, xq: Option<&[i16]>, y: f32) -> u32 {
        let a = apply_act(act, pool, y);
        let Some(code) = enc.map(|e| nearest(e, a)) else {
            return a.to_bits();
        };
        xq.map_or(code as u32, |xq| u32::from(xq[code] as u16))
    }

    /// `(accumulator, its bucket's center)` at both ends of every bucket
    /// of the grid — `len` buckets of `2^shift` from `lo_q` at `scale` —
    /// and of `i32`.
    fn grid_probes(scale: f32, (lo_q, shift, len): (i32, u32, usize)) -> Vec<(i32, f32)> {
        let (lo_q, step, last) = (i64::from(lo_q), 1i64 << shift, len as i64 - 1);
        let center = |b: i64| ((lo_q + b * step + step / 2) as f64 / f64::from(scale)) as f32;
        let lefts = (0..=last + 1).flat_map(|b| [lo_q + b * step - 1, lo_q + b * step]);
        let ends = [i64::from(i32::MIN), i64::from(i32::MAX)];
        let accs = lefts.chain(ends).filter_map(|a| i32::try_from(a).ok());
        let bucket = |acc: i32| (i64::from(acc) - lo_q).div_euclid(step).clamp(0, last);
        accs.map(|acc| (acc, center(bucket(acc)))).collect()
    }

    /// Asserts `finish` writes `want(y)` at every `(probe, y)`, its edges
    /// ascend and no two neighbouring runs share an output.
    fn assert_finish(finish: &Finish, probes: &[(i32, f32)], want: impl Fn(f32) -> u32, ctx: &str) {
        let Finish { edges, out } = finish;
        let mut real: Vec<i32> = edges.iter().flatten().copied().collect();
        real.dedup();
        let merged = (1..=real.len()).all(|i| out.bits(i - 1) != out.bits(i));
        assert!(real.is_sorted() && merged, "{ctx}: {real:?} {out:?}");
        for &(probe, y) in probes {
            let got = out.bits(run_of(edges, probe));
            assert_eq!(got, want(y), "{ctx}: {probe} ({y:e})");
        }
    }

    /// Checks every tabulated finish of `model` against its scalar
    /// reference, noting the kinds it met: an `f32` finish two keys
    /// either side of every boundary of its LUT inputs' or book's search
    /// and at special values, an integer finish at both ends of every
    /// bucket of its grid and of `i32`.
    fn check(model: &CompiledModel, name: &str, kinds: &mut Vec<&'static str>) {
        let pool: &[f32] = &model.program.floats;
        for (oi, finish) in model.finishes.iter().enumerate() {
            let Some(finish) = finish else {
                continue;
            };
            let (act, enc) = step(&model.program.ops[oi]).expect("a finish step");
            let enc = enc.map(|e| e.slice(pool));
            let xq = model.madd_levels(oi + 1).filter(|_| enc.is_some());
            let ctx = format!("{name} op {oi}");
            let held = (&finish.out, enc, xq);
            let domain = matches!(
                held,
                (LutOut::Floats(_), None, _)
                    | (LutOut::Quants(_), _, Some(_))
                    | (LutOut::Codes(_), Some(_), None)
            );
            assert!(domain, "{ctx}: {:?}", finish.out);
            kinds.extend(xq.is_some().then_some("levels"));
            let plan = model.quant_plan().map(|p| &p.ops[oi]);
            let probes = if let Some(OpQuant::Licensed(lic)) = plan {
                let FinishPlan::Lut { lo_q, shift, len } = lic.finish else {
                    panic!("{ctx}: a tabulated finish on a direct plan");
                };
                kinds.push("int16");
                grid_probes((1u64 << lic.acc_frac.min(62)) as f32, (lo_q, shift, len))
            } else {
                let axis = match act {
                    Act::Lookup { inputs, .. } => inputs.slice(pool),
                    Act::Identity | Act::Relu => enc.expect("a re-encode"),
                };
                let around = starts(axis).into_iter().flat_map(|s| s - 2..s + 2);
                let (inf, nan, tiny) = (f32::INFINITY, f32::NAN, f32::from_bits(1));
                let special = [f32::MAX, f32::MIN, inf, -inf, nan, -nan];
                let special = special.into_iter().chain([0.0, -0.0, tiny, -tiny]);
                kinds.push(match (&model.program.ops[oi], act) {
                    (Op::AvgPool { .. }, _) => "avgpool",
                    (Op::ResidualEnd { .. }, _) => "residual",
                    (_, Act::Lookup { .. }) => "lookup",
                    _ => "encode",
                });
                let relu = matches!(act, Act::Relu);
                let key = |y: f32| total_key(if relu { y.max(0.0) } else { y });
                let probes = around.map(value_of).chain(special);
                probes.map(|y| (key(y), y)).collect()
            };
            assert_finish(finish, &probes, |y| reference(pool, act, enc, xq, y), &ctx);
        }
    }

    /// `deep_program_for_tests(3)` over the book `[-1, 0.5, 0.5, 1]`,
    /// its first op looking up a LUT with a repeated input and bumpy
    /// outputs (their codes run 1, 3, 3, 0, 1).
    fn repeated_entries() -> CompiledModel {
        let mut program = CompiledModel::deep_program_for_tests(3);
        let floats = program.floats.to_mut();
        floats[..4].copy_from_slice(&[-1.0, 0.5, 0.5, 1.0]);
        let (span, at) = (|start| Span { start, len: 5 }, floats.len());
        floats.extend([-1.0, 0.0, 0.0, 1.0, 2.0, 0.5, 0.9, 0.9, -0.9, 0.5]);
        let (inputs, outputs) = (span(at), span(at + 5));
        if let Op::Dense { act, .. } = &mut program.ops[0] {
            *act = Act::Lookup { inputs, outputs };
        }
        CompiledModel::from_program(&program).expect("the chain analyzes clean")
    }

    /// Every tabulated finish — `f32` and integer; a neuron op's, an
    /// average pool's, a residual join's; as codes, floats or operands —
    /// equals its scalar reference ([`apply_act`] → [`nearest`] →
    /// `xq[code]`) at every edge, with no two neighbouring runs one:
    /// on the serve tests' MLP, CNN, strided CNN, residual and deep
    /// sigmoid MLP models at seeds 1–3, mnist-tiny at seeds 1, 2, 3, 42
    /// and 43 and a chain with a repeated LUT input and a repeated book
    /// entry, each as built and quantized.
    #[test]
    fn every_finish_equals_its_scalar_reference_at_every_edge() {
        let mut models = vec![("repeated entries".to_string(), repeated_entries())];
        for seed in 1..=3 {
            let builders: [fn(&mut SeededRng) -> _; 5] = [
                common::mlp_model,
                common::cnn_model,
                common::strided_cnn_model,
                common::residual_model,
                common::deep_mlp_model,
            ];
            for (i, build) in builders.into_iter().enumerate() {
                let net = build(&mut SeededRng::new(seed));
                let model = CompiledModel::from_reinterpreted(&net).unwrap();
                models.push((format!("model {i} seed {seed}"), model));
            }
        }
        for seed in [1, 2, 3, 42, 43] {
            let model = CompiledModel::mnist_tiny_for_tests(seed);
            models.push((format!("mnist-tiny seed {seed}"), model));
        }
        let mut kinds = Vec::new();
        for (name, mut model) in models {
            check(&model, &name, &mut kinds);
            model.quantize().unwrap();
            check(&model, &format!("{name} quantized"), &mut kinds);
        }
        for kind in ["lookup", "encode", "avgpool", "residual", "int16", "levels"] {
            assert!(kinds.contains(&kind), "no {kind} finish checked");
        }
    }

    /// Hand-built finishes moved onto a grid finish every accumulator as
    /// its bucket's center does through the scalar reference: a lookup
    /// with a repeated input and centers on its ties, with and without a
    /// re-encode or operands; ReLU writing operands; one bucket; one
    /// run; and a center at `0.0`, the first key of the run a book
    /// holding both zeros starts there.
    #[test]
    fn hand_built_grids_finish_as_their_bucket_centers() {
        let pool = [
            -1.0, 0.0, 0.0, 1.0, 0.5, -0.25, 0.75, 2.0, -1.0, 0.0, 1.0, -0.0, 0.0, 1.0,
        ];
        let span = |start| Span { start, len: 4 };
        let (inputs, enc, zeros) = (span(0), Some(&pool[8..11]), Some(&pool[11..]));
        let xq: Option<&[i16]> = Some(&[-3, 0, 7]);
        // `bumpy`'s rows encode to 1, 1, 2, 1: a short third run.
        let [lookup, bumpy] = [span(4), span(1)].map(|outputs| Act::Lookup { inputs, outputs });
        // Centers every 1/64 over [-2, 2], on each tie between inputs.
        let wide = (-514, 2, 257);
        for (act, enc, xq, grid) in [
            (&lookup, enc, None, wide),
            (&bumpy, enc, None, wide),
            (&lookup, enc, xq, wide),
            (&lookup, None, None, wide),
            (&Act::Relu, enc, xq, wide),
            (&lookup, enc, xq, (0, 0, 1)),
            (&Act::Identity, enc, None, (154, 0, 50)),
            (&Act::Identity, zeros, None, (-2, 0, 5)),
        ] {
            let relu = matches!(act, Act::Relu);
            let finish = Finish::of(&pool, act, enc).expect("a lookup or re-encode");
            let finish = finish.on_grid(relu, 256.0, grid);
            let finish = xq.map_or(finish.clone(), |xq| finish.to_levels(xq));
            let (want, ctx) = (|y| reference(&pool, act, enc, xq, y), format!("{grid:?}"));
            assert_finish(&finish, &grid_probes(256.0, grid), want, &ctx);
        }
    }
}
