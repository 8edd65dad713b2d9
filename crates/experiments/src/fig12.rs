//! Figure 12 — normalized energy-delay product and memory usage of the
//! minimum-EDP configuration under each accuracy-loss budget.

use crate::context::{fmt_bytes, prepare_app, render_table, Ctx};
use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::nn::topology::Benchmark;
use rapidnn::tensor::SeededRng;

const CLUSTER_CHOICES: [usize; 4] = [4, 8, 16, 32];
const BUDGETS: [f32; 4] = [0.0, 0.01, 0.02, 0.04];

pub fn run(ctx: &Ctx) {
    println!("\n=== Figure 12: EDP and memory usage vs accuracy budget ===\n");
    let simulator = Simulator::new(AcceleratorConfig::default());

    for benchmark in Benchmark::ALL {
        let mut rng = SeededRng::new(ctx.seed ^ 0xf12 ^ benchmark.name().len() as u64);
        let app = prepare_app(benchmark, ctx, &mut rng);

        // Evaluate the whole configuration grid once.
        struct Point {
            w: usize,
            u: usize,
            delta_e: f32,
            edp: f64,
            memory: usize,
        }
        let mut grid = Vec::new();
        for &w in &CLUSTER_CHOICES {
            for &u in &CLUSTER_CHOICES {
                let (delta_e, model) = app.compose_with(w, u, 1, &mut rng);
                let report = simulator.simulate(&op_shapes(&Program::from_reinterpreted(&model)));
                grid.push(Point {
                    w,
                    u,
                    delta_e,
                    edp: report.edp(),
                    memory: model.memory_bytes(),
                });
            }
        }
        let min_delta = grid.iter().map(|p| p.delta_e).fold(f32::INFINITY, f32::min);

        // For each budget, pick the min-EDP config meeting it.
        let mut rows = Vec::new();
        let mut reference_edp = None;
        for &budget in &BUDGETS {
            let effective = budget.max(min_delta);
            let best = grid
                .iter()
                .filter(|p| p.delta_e <= effective + 1e-6)
                .min_by(|a, b| a.edp.total_cmp(&b.edp));
            if let Some(p) = best {
                let reference = *reference_edp.get_or_insert(p.edp);
                rows.push(vec![
                    format!("{:.0}%", 100.0 * budget),
                    format!("w={}, u={}", p.w, p.u),
                    format!("{:.2}", p.edp / reference),
                    fmt_bytes(p.memory),
                    format!("{:+.1}%", 100.0 * p.delta_e),
                ]);
            }
        }
        println!("{benchmark}");
        println!(
            "{}",
            render_table(
                &[
                    "Δe budget",
                    "best config",
                    "normalized EDP",
                    "memory",
                    "achieved Δe"
                ],
                &rows
            )
        );
    }
    println!(
        "shape check (paper): allowing 2-4% loss cuts EDP by ~11-15% and memory\n\
         to ~77-87% of the minimum-loss configuration; hard apps keep larger\n\
         codebooks (largest memory: ImageNet/CIFAR-100)"
    );
}
