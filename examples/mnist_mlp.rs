//! MNIST-class MLP walked through the composer step by step.
//!
//! Unlike `quickstart` (which uses the one-call [`rapidnn::Pipeline`]),
//! this example drives every stage explicitly: dataset → topology →
//! training → weight clustering → reinterpretation → encoded inference →
//! accelerator simulation — the workflow of the paper's Figure 4.
//!
//! ```sh
//! cargo run --release --example mnist_mlp
//! ```

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{Composer, ComposerConfig};
use rapidnn::data::benchmark_dataset;
use rapidnn::nn::topology::Benchmark;
use rapidnn::nn::{Trainer, TrainerConfig};
use rapidnn::tensor::SeededRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeededRng::new(7);
    let benchmark = Benchmark::Mnist;

    // 1. Synthetic MNIST-shaped dataset (784 features, 10 classes).
    let data = benchmark_dataset(benchmark, 400, &mut rng)?;
    let (train, validation) = data.split(0.75);
    println!(
        "dataset: {} train / {} validation rows, {} features",
        train.len(),
        validation.len(),
        train.features()
    );

    // 2. The Table 2 topology, reduced 4x for a fast example.
    let mut network = benchmark.build_reduced(4, &mut rng)?;

    // 3. Train the float baseline with SGD + momentum (§5.2). The
    //    trainer only trains; an epoch at a time, so the training error
    //    can be measured in between (same run as one `fit(.., 10)`).
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    for epoch in 0..10 {
        let report = trainer.fit(&mut network, train.inputs(), train.labels(), 1)?[0];
        if epoch % 3 == 0 {
            let train_error = network.evaluate(train.inputs(), train.labels())?;
            println!(
                "epoch {epoch:2}: loss {:.3}, train error {:.1}%",
                report.mean_loss,
                100.0 * train_error
            );
        }
    }
    let baseline = network.evaluate(validation.inputs(), validation.labels())?;
    println!("float baseline error: {:.2}%", 100.0 * baseline);

    // 4. Compose: cluster weights/inputs (w = u = 16), build lookup
    //    tables, estimate error, retrain if needed (§3).
    let composer = Composer::new(
        ComposerConfig::default()
            .with_weights(16)
            .with_inputs(16)
            .with_max_iterations(4),
    );
    let outcome = composer.compose(&mut network, &train, &validation, &mut rng)?;
    println!(
        "composed: Δe = {:+.2}% after {} iteration(s)",
        100.0 * outcome.delta_e,
        outcome.iterations.len()
    );

    // 5. Inspect the reinterpreted model: every operation is now a table.
    for (i, stage) in outcome.reinterpreted.stages().iter().enumerate() {
        println!(
            "stage {i}: {:8}  {:>8} bytes of tables",
            stage.label(),
            stage.memory_bytes()
        );
    }

    // 6. Simulate one inference on the accelerator.
    let program = Program::from_reinterpreted(&outcome.reinterpreted);
    let report = Simulator::new(AcceleratorConfig::default()).simulate(&op_shapes(&program));
    println!(
        "accelerator: {:.0} ns latency, {:.3} µJ, {:.1} GOPS effective",
        report.hardware.latency_ns,
        report.hardware.energy_uj(),
        report.hardware.gops()
    );
    let fractions = report.hardware.breakdown.energy_fractions();
    println!(
        "energy breakdown: weighted acc {:.0}%, activation {:.0}%, encoding {:.0}%, other {:.0}%",
        100.0 * fractions[0],
        100.0 * fractions[1],
        100.0 * fractions[2],
        100.0 * fractions[4]
    );
    Ok(())
}
