//! Pipeline sharding: splitting one compiled model into balanced,
//! contiguous op-range stages.
//!
//! The paper's chip pipelines layers across 32 tiles; once full, its
//! throughput is set by the slowest stage (`pipeline_interval_ns`,
//! §4.3), not end-to-end depth. This module mirrors that at software
//! scale: [`plan_stages`] shards a [`CompiledModel`]'s op program into
//! up to N contiguous ranges, balanced over the analyzer's per-op cost
//! estimates ([`rapidnn_analyze::op_costs`]), so the engine can run one
//! worker (and one `BatchRunner` arena) per stage with bounded SPSC
//! channels between them ([`rapidnn_pool::spsc`]).
//!
//! # Legal cut points
//!
//! A stage boundary must be a point where the inter-op flow is
//! self-describing: one row-major buffer in a known domain. That rules
//! out cutting inside a residual region — the skip snapshot lives in
//! the runner executing the region — so cuts are restricted to op
//! indices at residual nesting depth zero (`Program::flow`). The
//! domain and width a stage resumes in is the model's flow state at
//! its first op, fixed when the model was built; the property tests
//! here run every legal split and check each handoff against it.
//!
//! # Determinism
//!
//! Sharding preserves bit-identical outputs structurally: stages
//! execute disjoint op ranges in program order over the same buffers a
//! single runner would use (the handoff moves buffers, never reorders
//! or re-accumulates rows), channels are strict FIFO so micro-batches
//! stay in submission order, and every kernel treats rows
//! independently. There is no cross-stage arithmetic to merge — the
//! in-order channel discipline is the whole contract.

use crate::artifact::CompiledModel;
use std::ops::Range;

/// How a model is sharded: `ranges[s]` is stage `s`'s contiguous op
/// range, `costs[s]` its per-sample cost estimate in analyzer units.
#[derive(Debug, Clone)]
pub(crate) struct StagePlan {
    pub(crate) ranges: Vec<Range<usize>>,
    pub(crate) costs: Vec<u64>,
}

/// Per-stage view reported by a pipelined engine.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Global op-index range this stage executes.
    pub ops: Range<usize>,
    /// Planner's per-sample cost estimate for the range
    /// (analyzer work units; see [`rapidnn_analyze::OpCost`]).
    pub cost_units: u64,
    /// Micro-batches currently queued at this stage's input (requests
    /// for stage 0, channel occupancy for later stages).
    pub queue_depth: usize,
    /// Bound of that input queue.
    pub queue_capacity: usize,
}

/// Snapshot of a pipelined engine's stage topology and occupancy,
/// from [`Engine::pipeline_stats`](crate::Engine::pipeline_stats).
#[derive(Debug, Clone)]
pub struct PipelineStats {
    /// One entry per stage, in flow order.
    pub stages: Vec<StageStats>,
}

/// Op indices where the program may be cut: strictly interior
/// boundaries at residual nesting depth zero.
pub(crate) fn cut_points(model: &CompiledModel) -> Vec<usize> {
    let flow = model.program.flow();
    (1..model.op_count())
        .filter(|&i| flow[i].depth == 0)
        .collect()
}

/// Shards `model` into at most `stages` contiguous op ranges, balanced
/// to minimize the maximum per-stage cost (the pipeline's throughput
/// bound). Returns `None` when fewer than two stages are possible or
/// requested — the caller then serves unsharded.
pub(crate) fn plan_stages(model: &CompiledModel, stages: usize) -> Option<StagePlan> {
    if stages < 2 || model.op_count() == 0 {
        return None;
    }
    let cuts = cut_points(model);
    let k = stages.min(cuts.len() + 1);
    if k < 2 {
        return None;
    }

    let per_op: Vec<u64> = rapidnn_analyze::op_costs(&model.program)
        .iter()
        .map(rapidnn_analyze::OpCost::units)
        .collect();

    // Boundaries the partition may use, including both ends; the ops
    // between adjacent boundaries form indivisible segments.
    let mut bounds = Vec::with_capacity(cuts.len() + 2);
    bounds.push(0);
    bounds.extend(&cuts);
    bounds.push(model.op_count());
    let m = bounds.len() - 1;
    let seg: Vec<u64> = (0..m)
        .map(|j| per_op[bounds[j]..bounds[j + 1]].iter().sum())
        .collect();
    // Prefix sums make segment-run sums O(1) in the partition DP.
    let mut prefix = vec![0u64; m + 1];
    for (j, &s) in seg.iter().enumerate() {
        prefix[j + 1] = prefix[j] + s;
    }
    let run = |a: usize, b: usize| prefix[b] - prefix[a];

    // Classic linear-partition DP: best[p][j] = minimal possible
    // maximum stage cost splitting the first j segments into p stages.
    let mut best: Vec<u64> = (0..=m)
        .map(|j| if j == 0 { u64::MAX } else { run(0, j) })
        .collect();
    let mut choice = vec![vec![0usize; m + 1]; k + 1];
    for (p, choice_row) in choice.iter_mut().enumerate().take(k + 1).skip(2) {
        // Each stage needs at least one segment, so only j >= p are
        // reachable; walk j downward so `best` still holds p-1 values.
        for j in (p..=m).rev() {
            let mut opt = u64::MAX;
            let mut at = p - 1;
            for (t, &through) in best.iter().enumerate().take(j).skip(p - 1) {
                let cand = through.max(run(t, j));
                if cand < opt {
                    opt = cand;
                    at = t;
                }
            }
            best[j] = opt;
            choice_row[j] = at;
        }
        for unreachable in best.iter_mut().take(p.min(m + 1)) {
            *unreachable = u64::MAX;
        }
    }

    // Recover the chosen boundaries.
    let mut splits = vec![m];
    let mut j = m;
    for p in (2..=k).rev() {
        j = choice[p][j];
        splits.push(j);
    }
    splits.push(0);
    splits.reverse();

    let mut ranges = Vec::with_capacity(k);
    let mut costs = Vec::with_capacity(k);
    for w in splits.windows(2) {
        ranges.push(bounds[w[0]]..bounds[w[1]]);
        costs.push(run(w[0], w[1]));
    }
    debug_assert_eq!(ranges.len(), k);
    Some(StagePlan { ranges, costs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{pad_rows, BatchRunner, Domain, FlowData};
    use crate::test_models as common;
    use rapidnn_analyze::Op;
    use rapidnn_tensor::SeededRng;

    /// Executes `model` as the staged pipeline described by `bounds`
    /// (op-index boundaries including both ends), one fresh runner per
    /// stage, asserting that every buffer handed across a boundary `b`
    /// is in the domain `model.flow[b]` names and holds
    /// `padded × model.flow[b].width` values. Returns the final decoded
    /// rows.
    fn run_split(model: &CompiledModel, bounds: &[usize], inputs: &[f32], rows: usize) -> Vec<f32> {
        let padded = pad_rows(rows);
        let mut runner = BatchRunner::new();
        runner.encode_batch(model, inputs, padded);
        let take = |runner: &mut BatchRunner, b: usize| {
            let state = model.flow[b];
            let data = runner.take_flow(state.domain);
            let (domain, len) = match &data {
                FlowData::Codes(v) => (Domain::Codes, v.len()),
                FlowData::Quants(v) => (Domain::Quants, v.len()),
                FlowData::Floats(v) => (Domain::Floats, v.len()),
            };
            assert_eq!(domain, state.domain, "handoff variant at boundary {b}");
            assert_eq!(len, padded * state.width, "handoff length at boundary {b}");
            data
        };
        let mut data = take(&mut runner, 0);
        for w in bounds.windows(2) {
            let mut runner = BatchRunner::new();
            runner.run_segment(model, w[0]..w[1], data, padded);
            data = take(&mut runner, w[1]);
        }
        let FlowData::Floats(out) = data else {
            unreachable!("the last boundary is decoded");
        };
        out[..rows * model.output_features()].to_vec()
    }

    /// Splits `model` at every legal cut — and, with `three_stage`, at
    /// every pair of cuts — and asserts each split reproduces the uncut
    /// run of `rows` rows bit for bit.
    fn assert_splits_reproduce_run(model: &CompiledModel, rows: usize, three_stage: bool) {
        let inputs: Vec<f32> = (0..rows * model.input_features())
            .map(|i| (i as f32 * 0.7).sin() * 2.0)
            .collect();
        let mut reference = Vec::new();
        BatchRunner::new()
            .run(model, &inputs, &mut reference)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (cuts, n) = (cut_points(model), model.op_count());
        assert!(!cuts.is_empty());
        let mut splits: Vec<Vec<usize>> = cuts.iter().map(|&c| vec![0, c, n]).collect();
        if three_stage {
            for (i, &a) in cuts.iter().enumerate() {
                splits.extend(cuts[i + 1..].iter().map(|&b| vec![0, a, b, n]));
            }
        }
        for bounds in splits {
            let out = run_split(model, &bounds, &inputs, rows);
            assert_eq!(bits(&out), bits(&reference), "split at {bounds:?}");
        }
    }

    /// The determinism contract, exhaustively: every legal 2-stage and
    /// 3-stage split of a deep model reproduces the uncut run bit for
    /// bit, and every stage hands off the buffer its boundary's flow
    /// state names — on the f32 path, on the integer path
    /// (where every boundary hands off `FlowData::Quants`), and on a
    /// mixed plan whose two f32 fallbacks are handed codes.
    #[test]
    fn every_legal_split_reproduces_run_bit_for_bit() {
        use Domain::{Codes, Floats, Quants};
        let mut quantized = CompiledModel::deep_for_tests(6);
        quantized.quantize().expect("the deep model verifies");
        for (model, domains) in [
            (CompiledModel::deep_for_tests(6), [Codes; 6]),
            (quantized, [Quants; 6]),
            (
                CompiledModel::deep_mixed_for_tests(6, 2, 4),
                [Quants, Quants, Codes, Quants, Codes, Quants],
            ),
        ] {
            let walked: Vec<Domain> = model.flow.iter().map(|st| st.domain).collect();
            assert_eq!(walked[..6], domains, "domain each op reads");
            assert_eq!(walked[6], Floats);
            assert_splits_reproduce_run(&model, 5, true);
        }
    }

    /// Residual regions are indivisible: no cut point may land strictly
    /// inside one (the skip snapshot lives in the executing runner),
    /// and every split of a residual model still reproduces the uncut
    /// run bit for bit.
    #[test]
    fn residual_regions_are_never_cut() {
        let net = common::residual_model(&mut SeededRng::new(23));
        let model = CompiledModel::from_reinterpreted(&net).unwrap();

        let ops = &model.program.ops;
        let begin = ops
            .iter()
            .position(|op| matches!(op, Op::ResidualBegin { .. }));
        let end = ops
            .iter()
            .position(|op| matches!(op, Op::ResidualEnd { .. }));
        let (begin, end) = (begin.unwrap(), end.unwrap());
        for c in cut_points(&model) {
            assert!(
                c <= begin || c > end,
                "cut {c} lands inside the residual region {begin}..={end}"
            );
        }
        assert_splits_reproduce_run(&model, 4, false);
    }

    /// The walk holds on conv and both pool kinds: the serve tests' CNN
    /// (conv → max pool → conv → avg pool → dense), f32 and quantized,
    /// enters every legal cut in the state the walk names and
    /// reproduces the uncut run bit for bit — the quantized dense head
    /// reading `i16` operands its avg pool wrote.
    #[test]
    fn cnn_splits_reproduce_run_bit_for_bit() {
        use Domain::{Codes, Floats, Quants};
        let net = common::cnn_model(&mut SeededRng::new(29));
        let model = CompiledModel::from_reinterpreted(&net).unwrap();
        let mut quantized = model.clone();
        quantized.quantize().expect("quantize is infallible");
        // The convolutions fall back, the dense head licenses.
        assert_eq!(quantized.kernel_path(), "mixed");

        let widths = [128, 3 * 64, 3 * 16, 2 * 16, 2 * 4, 4];
        for (model, domains) in [
            (model, [Codes, Codes, Codes, Codes, Codes, Floats]),
            (quantized, [Codes, Codes, Codes, Codes, Quants, Floats]),
        ] {
            let walked: Vec<_> = model.flow.iter().map(|st| (st.domain, st.width)).collect();
            let expected: Vec<_> = domains.into_iter().zip(widths).collect();
            assert_eq!(walked, expected, "{}", model.kernel_path());
            assert_eq!(cut_points(&model), [1, 2, 3, 4]);
            assert_splits_reproduce_run(&model, 9, false);
        }
    }

    /// A no-op-cut model (single op) cannot be sharded.
    #[test]
    fn single_op_model_refuses_to_shard() {
        let model = CompiledModel::deep_for_tests(1);
        assert_eq!(model.op_count(), 1);
        assert!(plan_stages(&model, 4).is_none());
        assert!(plan_stages(&model, 1).is_none());
    }

    /// Ranges must tile the program contiguously and enter at depth 0.
    #[test]
    fn plan_tiles_the_program() {
        let model = CompiledModel::deep_for_tests(6);
        for stages in 2..=4 {
            let plan = plan_stages(&model, stages).expect("shardable");
            assert!(plan.ranges.len() >= 2 && plan.ranges.len() <= stages);
            assert_eq!(plan.ranges[0].start, 0);
            assert_eq!(plan.ranges.last().unwrap().end, model.op_count());
            for w in plan.ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert_eq!(plan.costs.len(), plan.ranges.len());
            assert!(plan.costs.iter().all(|&c| c > 0));
        }
    }

    /// More stages than cut points clamps instead of failing.
    #[test]
    fn stage_count_clamps_to_cut_points() {
        let model = CompiledModel::deep_for_tests(3);
        let plan = plan_stages(&model, 64).expect("shardable");
        assert_eq!(plan.ranges.len(), model.op_count());
    }

    /// The balance heuristic never does worse than the trivial "one
    /// giant stage plus crumbs" split: the max stage cost is bounded
    /// by total cost, and with 2 stages it is strictly below it.
    #[test]
    fn balance_reduces_the_bottleneck() {
        let model = CompiledModel::deep_for_tests(8);
        let total: u64 = plan_stages(&model, 2)
            .expect("shardable")
            .costs
            .iter()
            .sum();
        for stages in 2..=4 {
            let plan = plan_stages(&model, stages).expect("shardable");
            let max = *plan.costs.iter().max().unwrap();
            assert!(max < total, "stage {stages}: {max} vs {total}");
        }
    }
}
