//! Synthetic degradation (test/bench utility): a program padded with
//! product-table rows no weight code references.

use crate::program::{Op, Program, TableRef};
use std::borrow::Cow;

/// Returns a semantically identical program whose dense/conv product
/// tables carry `extra` additional rows that no weight code references.
/// Inference is bit-identical (the new rows are never fetched), but
/// the footprint — and, once serialized, the per-code bit width — grows,
/// giving tests and benchmarks a larger artifact that must serve the
/// source's bits.
pub fn inject_dead_rows(program: &Program<'_>, extra: usize) -> Program<'static> {
    let mut floats = program.floats.to_vec();
    let pad_table = |floats: &mut Vec<f32>, t: &TableRef| -> TableRef {
        let start = floats.len();
        let data: Vec<f32> = floats[t.offset..t.offset + t.weight_count * t.input_count].to_vec();
        floats.extend_from_slice(&data);
        for j in 0..extra * t.input_count {
            // Arbitrary finite filler, distinct from real entries so a
            // kernel that fetched one would change the output.
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
