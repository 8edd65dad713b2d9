//! Artifact format gate for the bit-packed format (`FORMAT_VERSION`,
//! v3: packed weight codes, and each neuron op's weight books in the
//! float section; the file is named for v2, which introduced the
//! packing).
//!
//! The bit-packed artifact must be an *encoding* change only: a model
//! round-tripped through its bytes or not serialized at all must produce
//! bit-for-bit identical inference results. On top of the equivalence
//! gate, the artifact must actually compress — at least 2x smaller than
//! the wide in-memory pools on a code-dominated model — and
//! re-serializing a decoded model must reproduce the bytes exactly.

mod common;

use common::{cnn_model, mlp_model, options, residual_model};
use rapidnn_core::ReinterpretedNetwork;
use rapidnn_data::SyntheticSpec;
use rapidnn_nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn_prop::{check, usize_in, vec_f32, SeededRng};
use rapidnn_serve::{CompiledModel, FORMAT_VERSION, MAGIC};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Weight codes dominate this artifact (64*48 + 48*8 = 3456 of them),
/// so the 3-bit packing shows up in the total file size rather than
/// drowning in shared float pools.
fn code_heavy_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(64);
    net.push(Dense::new(64, 48, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(48, 8, rng));
    let data = SyntheticSpec::new(64, 8, 2.0).generate(40, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// The gate: across every op-program topology the compiler emits,
/// random inputs infer bit-for-bit identically through the in-memory
/// model and its v2 round-trip — single samples and batches both.
#[test]
fn v2_round_trip_infers_bit_identically() {
    check(6, |rng| {
        let network = match usize_in(rng, 0, 3) {
            0 => mlp_model(rng),
            1 => cnn_model(rng),
            _ => residual_model(rng),
        };
        let compiled = CompiledModel::from_reinterpreted(&network).unwrap();
        let v2_bytes = compiled.to_bytes();
        assert_eq!(
            u32::from_le_bytes(v2_bytes[4..8].try_into().unwrap()),
            FORMAT_VERSION
        );
        let v2 = CompiledModel::from_bytes(&v2_bytes).unwrap();

        let features = compiled.input_features();
        for _ in 0..4 {
            let input = vec_f32(rng, features, -2.0, 2.0);
            let base = compiled.infer(&input).unwrap();
            assert_eq!(bits(&v2.infer(&input).unwrap()), bits(&base));
        }

        let rows = usize_in(rng, 1, 5);
        let batch: Vec<f32> = (0..rows)
            .flat_map(|_| vec_f32(rng, features, -2.0, 2.0))
            .collect();
        let base = compiled.infer_batch(&batch).unwrap();
        let from_v2 = v2.infer_batch(&batch).unwrap();
        assert_eq!(base.len(), from_v2.len());
        for (a, b) in base.iter().zip(&from_v2) {
            assert_eq!(bits(a), bits(b));
        }
    });
}

/// The compression gate: the whole v2 artifact is at most half the
/// wide in-memory pools when codes dominate (8 clusters -> 3-bit codes
/// vs wide 16-bit lanes).
#[test]
fn v2_is_at_least_twice_smaller_on_code_dominated_models() {
    let mut rng = SeededRng::new(7);
    let model = CompiledModel::from_reinterpreted(&code_heavy_model(&mut rng)).unwrap();
    let wide = model.pool_bytes();
    let v2 = model.to_bytes().len();
    assert!(
        v2 * 2 <= wide,
        "v2 artifact is {v2} bytes, wide pools are {wide}: less than the gated 2x saving"
    );
    // And the packed model still infers identically after loading.
    let loaded = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
    let input = vec_f32(&mut rng, model.input_features(), -2.0, 2.0);
    assert_eq!(
        bits(&loaded.infer(&input).unwrap()),
        bits(&model.infer(&input).unwrap())
    );
}

/// Serialization is deterministic and stable across a round-trip: the
/// writer planning sections from a decoded v2 model reproduces the
/// original bytes exactly.
#[test]
fn v2_round_trip_is_byte_stable() {
    let mut rng = SeededRng::new(11);
    let model = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let bytes = model.to_bytes();
    assert_eq!(&bytes[..4], MAGIC);
    let reloaded = CompiledModel::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.to_bytes(), bytes);
    // The packed pools decode to exactly the wide in-memory ones.
    assert_eq!(reloaded, model);
}
