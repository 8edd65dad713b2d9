//! Accuracy/efficiency trade-off: sweeps codebook sizes on one model —
//! the per-user view of the paper's Figures 10–12 — and shows the tree
//! codebook serving several precisions from a single clustering artifact.
//!
//! ```sh
//! cargo run --release --example accuracy_tradeoff
//! ```

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{Composer, ComposerConfig, TreeCodebook};
use rapidnn::data::benchmark_dataset;
use rapidnn::nn::topology::Benchmark;
use rapidnn::nn::{Trainer, TrainerConfig};
use rapidnn::tensor::SeededRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeededRng::new(99);
    let data = benchmark_dataset(Benchmark::Har, 400, &mut rng)?;
    let (train, validation) = data.split(0.7);
    let mut network = Benchmark::Har.build_reduced(4, &mut rng)?;
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    trainer.fit(&mut network, train.inputs(), train.labels(), 10)?;
    let baseline = network.evaluate(validation.inputs(), validation.labels())?;
    println!("HAR float baseline: {:.1}% error\n", 100.0 * baseline);

    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "w", "u", "Δe", "latency", "energy", "memory"
    );
    let simulator = Simulator::new(AcceleratorConfig::default());
    for &(w, u) in &[(4usize, 4usize), (8, 8), (16, 16), (32, 32), (64, 64)] {
        let mut net = network.clone();
        let composer = Composer::new(
            ComposerConfig::default()
                .with_weights(w)
                .with_inputs(u)
                .with_max_iterations(2),
        );
        let outcome = composer.compose(&mut net, &train, &validation, &mut rng)?;
        let program = Program::from_reinterpreted(&outcome.reinterpreted);
        let report = simulator.simulate(&op_shapes(&program));
        println!(
            "{:>6} {:>6} {:>7.1}% {:>10.0}ns {:>10.2}µJ {:>9}B",
            w,
            u,
            100.0 * outcome.delta_e,
            report.hardware.latency_ns,
            report.hardware.energy_uj(),
            outcome.reinterpreted.memory_bytes()
        );
    }

    // The multi-level (tree) codebook: one artifact, many precisions.
    println!("\ntree codebook over this layer's weights (Figure 5):");
    let mut weights = Vec::new();
    for layer in network.layers_mut() {
        if layer.kind().is_weighted() {
            weights = layer.params()[0].value.as_slice().to_vec();
            break;
        }
    }
    let tree = TreeCodebook::build(&weights, 6, &mut rng)?;
    for level in 1..=tree.depth() {
        let cb = tree.level(level)?;
        println!(
            "level {level}: {:>2} representatives, quantization MSE {:.2e}",
            cb.len(),
            cb.quantization_mse(&weights)
        );
    }
    println!("deeper level = more precision; shallower = less area/power (§3.1)");
    Ok(())
}
