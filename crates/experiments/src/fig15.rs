//! Figure 15 — speedup and energy-efficiency improvement over the GPU
//! for DaDianNao, ISAAC, PipeLayer and RAPIDNN (1 chip and 8 chips).
//!
//! Pure performance experiment: the full paper topologies are simulated
//! via `PerformanceModeler` with the near-zero-loss configuration
//! (w = u = 64, as §5.5 sets per application).

use crate::context::{fmt_factor, render_table, Ctx, PerformanceModeler};
use rapidnn::accel::{AcceleratorConfig, SimulationReport, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::baselines::{dadiannao, gpu_gtx1080, isaac, pipelayer, Workload};
use rapidnn::nn::topology::Benchmark;
use rapidnn::tensor::SeededRng;

/// RAPIDNN per-inference latency and energy, exploiting idle RNAs to run
/// independent inferences in parallel (replication), which is how the
/// paper's throughput numbers use the full chip on small models. The
/// controller replicates at tile granularity, so at most one replica per
/// tile.
pub fn rapidnn_point(report: &SimulationReport) -> (f64, f64) {
    let neurons: usize = report.stages.iter().map(|s| s.neurons).sum();
    let tiles = report.config.chips * report.config.tiles_per_chip;
    let replicas =
        (report.config.effective_neuron_capacity() / neurons.max(1)).clamp(1, tiles.max(1)) as f64;
    let latency_s = report.hardware.pipeline_interval_ns * 1e-9 / replicas;
    let energy_j = report.hardware.energy_pj * 1e-12;
    (latency_s, energy_j)
}

pub fn run(ctx: &Ctx) {
    println!("\n=== Figure 15: RAPIDNN vs PIM accelerators (normalized to GPU) ===\n");
    let gpu = gpu_gtx1080();
    let baselines = [dadiannao(), isaac(), pipelayer()];
    let sim1 = Simulator::new(AcceleratorConfig::with_chips(1));
    let sim8 = Simulator::new(AcceleratorConfig::with_chips(8));

    let mut speed_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut geo_speed = [0.0f64; 5];
    let mut geo_energy = [0.0f64; 5];
    let mut apps = 0usize;

    for benchmark in Benchmark::ALL {
        let mut rng = SeededRng::new(ctx.seed ^ 0xf15 ^ benchmark.name().len() as u64);
        let modeler = PerformanceModeler::new(benchmark, &mut rng);
        let workload: Workload = modeler.workload(benchmark.name());
        let gpu_latency = gpu.latency_s(&workload);
        let gpu_energy = gpu.energy_j(&workload);

        let shapes = op_shapes(&Program::from_reinterpreted(
            &modeler.model(64, 64, &mut rng),
        ));
        let (r1_lat, r1_energy) = rapidnn_point(&sim1.simulate(&shapes));
        let (r8_lat, r8_energy) = rapidnn_point(&sim8.simulate(&shapes));

        let mut speeds = Vec::new();
        let mut energies = Vec::new();
        for model in &baselines {
            speeds.push(gpu_latency / model.latency_s(&workload));
            energies.push(gpu_energy / model.energy_j(&workload));
        }
        speeds.push(gpu_latency / r1_lat);
        speeds.push(gpu_latency / r8_lat);
        energies.push(gpu_energy / r1_energy);
        energies.push(gpu_energy / r8_energy);

        for (acc, v) in geo_speed.iter_mut().zip(&speeds) {
            *acc += v.ln();
        }
        for (acc, v) in geo_energy.iter_mut().zip(&energies) {
            *acc += v.ln();
        }
        apps += 1;

        let mut s_row = vec![benchmark.name().to_string()];
        s_row.extend(speeds.iter().map(|&v| fmt_factor(v)));
        speed_rows.push(s_row);
        let mut e_row = vec![benchmark.name().to_string()];
        e_row.extend(energies.iter().map(|&v| fmt_factor(v)));
        energy_rows.push(e_row);
    }

    let mut mean_s = vec!["geo-mean".to_string()];
    mean_s.extend(
        geo_speed
            .iter()
            .map(|&v| fmt_factor((v / apps as f64).exp())),
    );
    speed_rows.push(mean_s);
    let mut mean_e = vec!["geo-mean".to_string()];
    mean_e.extend(
        geo_energy
            .iter()
            .map(|&v| fmt_factor((v / apps as f64).exp())),
    );
    energy_rows.push(mean_e);

    let headers = [
        "app",
        "DaDianNao",
        "ISAAC",
        "PipeLayer",
        "RAPIDNN(1)",
        "RAPIDNN(8)",
    ];
    println!("speedup over GPU");
    println!("{}", render_table(&headers, &speed_rows));
    println!("energy-efficiency improvement over GPU");
    println!("{}", render_table(&headers, &energy_rows));
    println!(
        "shape check (paper): RAPIDNN-1chip beats DaDianNao/ISAAC/PipeLayer by\n\
         24.3x/5.6x/1.5x (speed) and 40.3x/13.4x/49.6x (energy); 8 chips add\n\
         ~8x more throughput (48.1x/10.9x vs ISAAC/PipeLayer)"
    );
}
