//! Figure 11 — energy-efficiency improvement and speedup over the GPU
//! for nine (w, u) codebook configurations per application.
//!
//! This is a pure performance experiment: hardware cost depends only on
//! model structure, so the full paper topologies are simulated directly
//! (no training needed; see `PerformanceModeler`).

use crate::context::{fmt_factor, render_table, Ctx, PerformanceModeler};
use crate::fig15::rapidnn_point;
use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::baselines::gpu_gtx1080;
use rapidnn::nn::topology::Benchmark;
use rapidnn::tensor::SeededRng;

const WEIGHT_SWEEP: [usize; 3] = [8, 16, 32];
const INPUT_SWEEP: [usize; 3] = [4, 16, 64];

pub fn run(ctx: &Ctx) {
    println!("\n=== Figure 11: energy & speedup vs GPU across (w, u) ===\n");
    let gpu = gpu_gtx1080();
    let simulator = Simulator::new(AcceleratorConfig::default());

    for benchmark in Benchmark::ALL {
        let mut rng = SeededRng::new(ctx.seed ^ 0xf11 ^ benchmark.name().len() as u64);
        let modeler = PerformanceModeler::new(benchmark, &mut rng);
        let workload = modeler.workload(benchmark.name());
        let gpu_latency = gpu.latency_s(&workload);
        let gpu_energy = gpu.energy_j(&workload);

        let mut energy_rows = Vec::new();
        let mut speed_rows = Vec::new();
        for &w in &WEIGHT_SWEEP {
            let mut e_cells = vec![format!("w={w}")];
            let mut s_cells = vec![format!("w={w}")];
            for &u in &INPUT_SWEEP {
                let model = modeler.model(w, u, &mut rng);
                let report = simulator.simulate(&op_shapes(&Program::from_reinterpreted(&model)));
                // Idle RNAs carry independent inferences (replication),
                // the parallelism the paper's throughput numbers rely on.
                let (rapid_latency_s, rapid_energy_j) = rapidnn_point(&report);
                e_cells.push(fmt_factor(gpu_energy / rapid_energy_j));
                s_cells.push(fmt_factor(gpu_latency / rapid_latency_s));
            }
            energy_rows.push(e_cells);
            speed_rows.push(s_cells);
        }
        let headers: Vec<String> = std::iter::once("".to_string())
            .chain(INPUT_SWEEP.iter().map(|u| format!("u={u}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{benchmark} — energy-efficiency improvement (vs GPU)");
        println!("{}", render_table(&header_refs, &energy_rows));
        println!("{benchmark} — speedup (vs GPU, pipelined throughput)");
        println!("{}", render_table(&header_refs, &speed_rows));
    }
    println!(
        "shape check (paper): both factors are large (10x-600x) and shrink as\n\
         codebooks grow; u affects energy more than w (it sizes two memories)"
    );
}
