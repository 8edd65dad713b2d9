//! Figure 16 — speedup and energy efficiency versus the digital ASIC
//! accelerators Eyeriss and SnaPEA on the ImageNet-class workloads,
//! normalized to Eyeriss **at equal chip area** (the paper's framing:
//! "the results are normalized to Eyeriss when all designs are providing
//! the same chip area").
//!
//! RAPIDNN's cost comes from the shape-driven simulator over the real
//! per-layer dimensions of AlexNet / VGG-16 / GoogLeNet / ResNet-152.

use crate::context::{fmt_factor, render_table, Ctx};
use crate::fig15::rapidnn_point;
use rapidnn::accel::{AcceleratorConfig, OpShape, Simulator};
use rapidnn::baselines::{eyeriss, imagenet_layer_shapes, imagenet_workloads, snapea};

pub fn run(_ctx: &Ctx) {
    println!(
        "\n=== Figure 16: RAPIDNN vs ASIC accelerators (normalized to Eyeriss, iso-area) ===\n"
    );
    let eyeriss = eyeriss();
    let snapea = snapea();
    let config = AcceleratorConfig::default();
    let simulator = Simulator::new(config);

    // Iso-area scaling: replicate the small ASICs to RAPIDNN's chip area.
    let eyeriss_copies = (config.total_area_mm2() / eyeriss.area_mm2()).max(1.0);
    let snapea_copies = (config.total_area_mm2() / snapea.area_mm2()).max(1.0);

    let mut speed_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut geo = [0.0f64; 4];
    for workload in imagenet_workloads() {
        let layers = imagenet_layer_shapes(workload.name());
        let shapes: Vec<OpShape> = layers
            .iter()
            .enumerate()
            .map(|(i, s)| OpShape::Neuron {
                neurons: s.neurons,
                edges: s.edges,
                weight_rows: 64,
                input_rows: 64,
                activation_rows: 0,
                // Every layer but the last re-encodes its outputs.
                encoder_rows: if i + 1 == layers.len() { 0 } else { 64 },
            })
            .collect();
        let report = simulator.simulate(&shapes);
        let (rapid_latency, rapid_energy) = rapidnn_point(&report);

        let e_lat = eyeriss.latency_s(&workload) / eyeriss_copies;
        let e_energy = eyeriss.energy_j(&workload);
        let s_lat = snapea.latency_s(&workload) / snapea_copies;
        let s_energy = snapea.energy_j(&workload);

        let speed_snapea = e_lat / s_lat;
        let speed_rapid = e_lat / rapid_latency;
        let energy_snapea = e_energy / s_energy;
        let energy_rapid = e_energy / rapid_energy;
        geo[0] += speed_snapea.ln();
        geo[1] += speed_rapid.ln();
        geo[2] += energy_snapea.ln();
        geo[3] += energy_rapid.ln();

        speed_rows.push(vec![
            workload.name().to_string(),
            "1.00x".to_string(),
            fmt_factor(speed_snapea),
            fmt_factor(speed_rapid),
        ]);
        energy_rows.push(vec![
            workload.name().to_string(),
            "1.00x".to_string(),
            fmt_factor(energy_snapea),
            fmt_factor(energy_rapid),
        ]);
    }
    let n = imagenet_workloads().len() as f64;
    speed_rows.push(vec![
        "geo-mean".into(),
        "1.00x".into(),
        fmt_factor((geo[0] / n).exp()),
        fmt_factor((geo[1] / n).exp()),
    ]);
    energy_rows.push(vec![
        "geo-mean".into(),
        "1.00x".into(),
        fmt_factor((geo[2] / n).exp()),
        fmt_factor((geo[3] / n).exp()),
    ]);

    let headers = ["workload", "Eyeriss", "SnaPEA", "RAPIDNN"];
    println!("speedup (normalized to iso-area Eyeriss)");
    println!("{}", render_table(&headers, &speed_rows));
    println!("energy efficiency (normalized to Eyeriss)");
    println!("{}", render_table(&headers, &energy_rows));
    println!(
        "shape check (paper): RAPIDNN averages 4.8x / 28.2x (speed/energy) over\n\
         Eyeriss and 2.3x / 14.3x over SnaPEA at equal chip area"
    );
}
