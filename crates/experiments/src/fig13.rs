//! Figure 13 — energy and execution-time breakdown across the hardware
//! blocks, aggregated for Type 1 (fully connected) and Type 2
//! (convolutional) applications at w = u = 64.

use crate::context::{fmt_pct, prepare_app, render_table, Ctx};
use rapidnn::accel::{AcceleratorConfig, BlockBreakdown, BlockClass, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::nn::topology::Benchmark;
use rapidnn::tensor::SeededRng;

pub fn run(ctx: &Ctx) {
    println!("\n=== Figure 13: energy/time breakdown by block (w=u=64) ===\n");
    let simulator = Simulator::new(AcceleratorConfig::default());

    let mut type1 = BlockBreakdown::default();
    let mut type2 = BlockBreakdown::default();
    for benchmark in Benchmark::ALL {
        let mut rng = SeededRng::new(ctx.seed ^ 0xf13 ^ benchmark.name().len() as u64);
        let app = prepare_app(benchmark, ctx, &mut rng);
        let (_, model) = app.compose_with(64, 64, 1, &mut rng);
        let report = simulator.simulate(&op_shapes(&Program::from_reinterpreted(&model)));
        if benchmark.is_type2() {
            type2.merge(&report.hardware.breakdown);
        } else {
            type1.merge(&report.hardware.breakdown);
        }
    }

    for (label, breakdown) in [
        ("Type 1 (FC models)", &type1),
        ("Type 2 (CNN models)", &type2),
    ] {
        let energy = breakdown.energy_fractions();
        let time = breakdown.time_fractions();
        let rows: Vec<Vec<String>> = BlockClass::ALL
            .iter()
            .enumerate()
            .map(|(i, class)| {
                vec![
                    class.label().to_string(),
                    fmt_pct(energy[i]),
                    fmt_pct(time[i]),
                ]
            })
            .collect();
        println!("{label}");
        println!("{}", render_table(&["block", "energy", "time"], &rows));
    }
    println!(
        "shape check (paper): weighted accumulation dominates (77.1% Type 1,\n\
         81.4% Type 2); activation/encoding are small; pooling appears only in\n\
         Type 2 (~3.2% energy); buffer/controller land in 'others' (~11-15%)"
    );
}
