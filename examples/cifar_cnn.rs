//! CIFAR-class CNN through RAPIDNN, demonstrating convolution support:
//! per-output-channel weight codebooks, encoded max pooling (the
//! sorted-codebook trick) and the Type 2 energy profile.
//!
//! ```sh
//! cargo run --release --example cifar_cnn
//! ```

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{Composer, ComposerConfig, Stage};
use rapidnn::data::benchmark_dataset;
use rapidnn::nn::topology::Benchmark;
use rapidnn::nn::{Trainer, TrainerConfig};
use rapidnn::tensor::SeededRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeededRng::new(31);
    let benchmark = Benchmark::Cifar10;

    let data = benchmark_dataset(benchmark, 300, &mut rng)?;
    let (train, validation) = data.split(0.7);
    let mut network = benchmark.build_reduced(8, &mut rng)?;

    // CNN substitutes train with Adam (DESIGN.md §5).
    let mut trainer = Trainer::new(
        TrainerConfig {
            learning_rate: 0.01,
            adam: true,
            ..TrainerConfig::default()
        },
        &mut rng,
    );
    trainer.fit(&mut network, train.inputs(), train.labels(), 12)?;
    let baseline = network.evaluate(validation.inputs(), validation.labels())?;
    println!("float CNN baseline error: {:.1}%", 100.0 * baseline);

    let composer = Composer::new(
        ComposerConfig::default()
            .with_weights(16)
            .with_inputs(32)
            .with_max_iterations(3),
    );
    let outcome = composer.compose(&mut network, &train, &validation, &mut rng)?;
    println!("composed CNN: Δe = {:+.1}%", 100.0 * outcome.delta_e);

    // Convolution stages carry one codebook per output channel (§3.1).
    for stage in outcome.reinterpreted.stages() {
        if let Stage::Neuron(neuron) = stage {
            println!(
                "{}: {} weight codebook(s), input codebook of {} values, activation {}",
                stage.label(),
                neuron.weight_codebooks().len(),
                neuron.input_codebook().len(),
                if neuron.activation().is_exact() {
                    "comparator (exact ReLU)"
                } else {
                    "lookup table"
                },
            );
        } else {
            println!("{}: pooling on encoded values", stage.label());
        }
    }

    // Max pooling runs on encoded indices directly: the sorted-codebook
    // property guarantees the max code is the max value.
    let program = Program::from_reinterpreted(&outcome.reinterpreted);
    let report = Simulator::new(AcceleratorConfig::default()).simulate(&op_shapes(&program));
    let pooling_energy = report.hardware.breakdown.energy_pj[3];
    println!(
        "accelerator: {:.0} ns, {:.2} µJ ({}J of it pooling) — Type 2 profile",
        report.hardware.latency_ns,
        report.hardware.energy_uj(),
        format_args!("{:.2}n", pooling_energy / 1000.0)
    );
    Ok(())
}
