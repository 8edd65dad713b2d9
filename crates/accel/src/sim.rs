use crate::metrics::{BlockBreakdown, BlockClass, HardwareReport};
use crate::params::{AcceleratorConfig, BUFFER_POWER_MW};
use crate::rna::{neuron_cost, RnaCost};
use rapidnn_ndcam::SearchCost;

/// Hardware cost of one program op.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// Neurons mapped onto RNA blocks (0 for every op but a neuron op).
    pub neurons: usize,
    /// Number of sequential waves needed when neurons exceed the RNA
    /// capacity.
    pub waves: u64,
    /// Stage latency in nanoseconds.
    pub latency_ns: f64,
    /// Stage energy in picojoules.
    pub energy_pj: f64,
    /// Per-class breakdown.
    pub breakdown: BlockBreakdown,
}

/// Result of simulating one inference on the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Aggregate metrics.
    pub hardware: HardwareReport,
    /// Per-op costs in program order.
    pub stages: Vec<StageCost>,
    /// The configuration simulated.
    pub config: AcceleratorConfig,
}

impl SimulationReport {
    /// Energy-delay product in pJ·ns (Figure 12's metric).
    pub fn edp(&self) -> f64 {
        self.hardware.energy_pj * self.hardware.latency_ns
    }

    /// Compute efficiency in GOPS per mm².
    pub fn gops_per_mm2(&self) -> f64 {
        self.hardware.gops() / self.config.total_area_mm2()
    }

    /// Power efficiency in GOPS per watt, using the average power actually
    /// drawn during an inference.
    pub fn gops_per_w(&self) -> f64 {
        let avg_power_w = if self.hardware.latency_ns > 0.0 {
            (self.hardware.energy_pj / self.hardware.latency_ns) / 1000.0
        } else {
            return 0.0;
        };
        self.hardware.gops() / avg_power_w.max(1e-9)
    }
}

/// What the simulator prices of one program op: the shape of the work
/// the controller maps onto RNAs and tiles (§4.3), not its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpShape {
    /// A dense or convolution layer: `neurons` RNA evaluations of
    /// `edges` encoded products each.
    Neuron {
        /// Output neurons mapped onto RNA blocks.
        neurons: usize,
        /// Incoming edges per neuron (dense fan-in or conv patch length).
        edges: usize,
        /// Rows of the largest weight codebook (`w`).
        weight_rows: usize,
        /// Rows of the input codebook (`u`).
        input_rows: usize,
        /// Rows of the activation AM; 0 when the activation is exact
        /// (comparator ReLU or identity).
        activation_rows: usize,
        /// Rows of the encoder AM; 0 for an output layer.
        encoder_rows: usize,
    },
    /// Max pooling on encoded values.
    MaxPool {
        /// Pooled values produced.
        outputs: usize,
        /// Window taps per output.
        window: usize,
    },
    /// Average pooling by in-memory addition.
    AvgPool {
        /// Pooled values produced.
        outputs: usize,
        /// Window taps per output.
        window: usize,
    },
    /// Snapshot of the skip values into the residual FIFO.
    ResidualBegin {
        /// Values snapshotted.
        width: usize,
    },
    /// Residual join of the branch output and the skip snapshot.
    ResidualEnd {
        /// Values joined.
        width: usize,
        /// Rows of the join's encoder AM; 0 at the network output.
        encoder_rows: usize,
    },
}

/// Maps a program's op shapes onto the accelerator and accounts cycles
/// and energy (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulator {
    config: AcceleratorConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Simulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Simulates one inference of the program whose ops have `ops`
    /// shapes; `stages[i]` of the report prices `ops[i]`.
    pub fn simulate(&self, ops: &[OpShape]) -> SimulationReport {
        let stages: Vec<StageCost> = ops.iter().map(|op| self.stage_cost(op)).collect();
        let mac_ops = ops
            .iter()
            .map(|op| match *op {
                OpShape::Neuron { neurons, edges, .. } => (neurons * edges) as u64,
                _ => 0,
            })
            .sum();
        let (breakdown, latency_ns, energy_pj, interval) = self.aggregate(&stages);
        SimulationReport {
            hardware: HardwareReport {
                latency_ns,
                pipeline_interval_ns: interval,
                energy_pj,
                breakdown,
                mac_ops,
            },
            stages,
            config: self.config,
        }
    }

    fn stage_cost(&self, op: &OpShape) -> StageCost {
        let cycle_ns = self.config.cycle_ns();
        let (class, energy, latency) = match *op {
            OpShape::Neuron {
                neurons,
                edges,
                weight_rows,
                input_rows,
                activation_rows,
                encoder_rows,
            } => {
                let cost = neuron_cost(
                    edges,
                    weight_rows,
                    input_rows,
                    activation_rows,
                    encoder_rows,
                );
                return self.neuron_stage_cost(neurons, input_rows, &cost);
            }
            OpShape::MaxPool { outputs, window } => {
                // Write the window into the encoder CAM, then one search
                // (§4.2.1): window + 1 cycles.
                let search = SearchCost::for_search(window, 8, 1);
                let energy = outputs as f64 * (search.energy_fj / 1000.0 + 0.2);
                (BlockClass::Pooling, energy, (window + 1) as f64 * cycle_ns)
            }
            OpShape::AvgPool { outputs, window } => {
                // In-memory addition of the window (§4.2.1): reuse the
                // adder model via a tiny neuron cost.
                let cost = neuron_cost(window, window, window, 1, 1);
                let latency = cost.cycles() as f64 * cycle_ns;
                (
                    BlockClass::Pooling,
                    outputs as f64 * cost.energy_pj(),
                    latency,
                )
            }
            // The skip values wait in the FIFO; filling it is free here.
            OpShape::ResidualBegin { .. } => (BlockClass::Other, 0.0, 0.0),
            OpShape::ResidualEnd { .. } => {
                // The join is one in-memory addition over the skip FIFO
                // values (§4.3).
                let cost = neuron_cost(2, 2, 2, 1, 1);
                let latency = cost.cycles() as f64 * cycle_ns;
                (BlockClass::WeightedAccumulation, cost.energy_pj(), latency)
            }
        };
        let mut breakdown = BlockBreakdown::default();
        breakdown.add(class, energy, latency);
        StageCost {
            neurons: 0,
            waves: 1,
            latency_ns: latency,
            energy_pj: energy,
            breakdown,
        }
    }

    /// Folds per-stage costs into totals. The pipeline initiation
    /// interval is the slowest stage while every stage can be resident on
    /// its own RNAs; once the network overcommits the chip
    /// (`total neurons > capacity`), stages time-share the same RNAs and
    /// the interval degrades to the full latency (§4.3's pipeline only
    /// overlaps layers mapped to distinct blocks).
    fn aggregate(&self, stages: &[StageCost]) -> (BlockBreakdown, f64, f64, f64) {
        let mut breakdown = BlockBreakdown::default();
        let mut latency_ns = 0.0;
        let mut energy_pj = 0.0;
        let mut slowest: f64 = 0.0;
        let mut total_neurons = 0usize;
        for stage in stages {
            breakdown.merge(&stage.breakdown);
            latency_ns += stage.latency_ns;
            energy_pj += stage.energy_pj;
            slowest = slowest.max(stage.latency_ns);
            total_neurons += stage.neurons;
        }
        let interval = if total_neurons <= self.config.effective_neuron_capacity() {
            slowest
        } else {
            latency_ns
        };
        (breakdown, latency_ns, energy_pj, interval)
    }

    fn neuron_stage_cost(
        &self,
        neurons: usize,
        input_rows: usize,
        per_neuron: &RnaCost,
    ) -> StageCost {
        let capacity = self.config.effective_neuron_capacity().max(1);
        let waves = (neurons as u64).div_ceil(capacity as u64).max(1);
        // Sharing serialises the neurons multiplexed onto one RNA.
        let share_factor = 1.0 / (1.0 - self.config.rna_sharing);
        let neuron_latency = per_neuron.cycles() as f64 * self.config.cycle_ns();
        let compute_latency = waves as f64 * neuron_latency * share_factor;

        // Bit-serial broadcast of encoded outputs into the tile buffer
        // (§4.3), one bit per cycle; all RNAs of a tile write in
        // parallel. The code width is taken from the op's own input book,
        // bits = ceil(log2(input_rows)), not from the encoder it writes
        // through.
        let bits = (usize::BITS - input_rows.saturating_sub(1).leading_zeros()).max(1) as f64;
        let transfer_latency = bits * self.config.cycle_ns() * waves as f64;
        let tiles_active = (neurons as f64 / self.config.rnas_per_tile as f64)
            .ceil()
            .min((self.config.chips * self.config.tiles_per_chip) as f64)
            .max(1.0);
        let transfer_energy = BUFFER_POWER_MW * transfer_latency * tiles_active;

        let mut breakdown = BlockBreakdown::default();
        for (i, class) in crate::metrics::BlockClass::ALL.iter().enumerate() {
            let e = per_neuron.breakdown.energy_pj[i] * neurons as f64;
            let t = per_neuron.breakdown.time_ns[i] * waves as f64 * share_factor;
            if e > 0.0 || t > 0.0 {
                breakdown.add(*class, e, t);
            }
        }
        // Buffer + controller overheads land in Other.
        let compute_energy: f64 = per_neuron.energy_pj() * neurons as f64;
        let controller_energy = 0.05 * compute_energy;
        breakdown.add(
            BlockClass::Other,
            transfer_energy + controller_energy,
            transfer_latency,
        );

        StageCost {
            neurons,
            waves,
            latency_ns: compute_latency + transfer_latency,
            energy_pj: compute_energy + transfer_energy + controller_energy,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shapes of a composed `12 → 16 → 3` ReLU MLP with `(w, u)`
    /// codebooks: a hidden layer that re-encodes through `u` rows, then
    /// an output layer.
    fn mlp_shapes(w: usize, u: usize) -> [OpShape; 2] {
        let layer = |neurons, edges, encoder_rows| OpShape::Neuron {
            neurons,
            edges,
            weight_rows: w,
            input_rows: u,
            activation_rows: 0,
            encoder_rows,
        };
        [layer(16, 12, u), layer(3, 16, 0)]
    }

    fn simulate(config: AcceleratorConfig, ops: &[OpShape]) -> SimulationReport {
        Simulator::new(config).simulate(ops)
    }

    #[test]
    fn simulation_produces_positive_costs() {
        let report = simulate(AcceleratorConfig::default(), &mlp_shapes(8, 8));
        assert!(report.hardware.latency_ns > 0.0);
        assert!(report.hardware.energy_pj > 0.0);
        assert_eq!(report.hardware.mac_ops, 16 * 12 + 3 * 16);
        assert_eq!(report.stages.len(), 2);
        assert!(report.hardware.pipeline_interval_ns <= report.hardware.latency_ns);
    }

    #[test]
    fn smaller_codebooks_are_faster_and_cheaper() {
        // Figure 11's trend: smaller encoded sets → more energy-efficient
        // and faster computation.
        let small = simulate(AcceleratorConfig::default(), &mlp_shapes(4, 4));
        let large = simulate(AcceleratorConfig::default(), &mlp_shapes(64, 64));
        assert!(small.hardware.latency_ns <= large.hardware.latency_ns);
        assert!(small.hardware.energy_pj < large.hardware.energy_pj);
    }

    #[test]
    fn more_chips_do_not_slow_down() {
        let one = simulate(AcceleratorConfig::with_chips(1), &mlp_shapes(8, 8));
        let eight = simulate(AcceleratorConfig::with_chips(8), &mlp_shapes(8, 8));
        assert!(eight.hardware.latency_ns <= one.hardware.latency_ns);
    }

    #[test]
    fn sharing_trades_latency_for_density() {
        let base = simulate(AcceleratorConfig::default(), &mlp_shapes(8, 8));
        let shared = simulate(
            AcceleratorConfig::default().with_sharing(0.3),
            &mlp_shapes(8, 8),
        );
        assert!(shared.hardware.latency_ns > base.hardware.latency_ns);
        // Compute efficiency (GOPS/mm²) should not get worse by sharing at
        // fixed area... per Table 4 sharing *improves* GOPS/mm² because a
        // smaller chip serves the same net; at fixed chip size latency
        // grows, so we check density via effective capacity instead.
        assert!(
            shared.config.effective_neuron_capacity() > base.config.effective_neuron_capacity()
        );
    }

    #[test]
    fn weighted_accumulation_dominates_breakdown() {
        let report = simulate(AcceleratorConfig::default(), &mlp_shapes(64, 64));
        let fr = report.hardware.breakdown.energy_fractions();
        assert!(fr[0] > 0.5, "weighted accumulation fraction {}", fr[0]);
    }

    #[test]
    fn efficiency_metrics_are_finite_and_positive() {
        let report = simulate(AcceleratorConfig::default(), &mlp_shapes(16, 16));
        assert!(report.edp() > 0.0);
        assert!(report.gops_per_mm2() > 0.0);
        assert!(report.gops_per_w() > 0.0);
        assert!(report.hardware.throughput_per_s() > 0.0);
    }

    #[test]
    fn cnn_model_accounts_pooling() {
        // A 2×6×6 input through a 3-channel 3×3 conv, a 2×2 max pool and
        // a dense head.
        let ops = [
            OpShape::Neuron {
                neurons: 3 * 6 * 6,
                edges: 2 * 3 * 3,
                weight_rows: 8,
                input_rows: 8,
                activation_rows: 0,
                encoder_rows: 8,
            },
            OpShape::MaxPool {
                outputs: 3 * 3 * 3,
                window: 2 * 2,
            },
            OpShape::Neuron {
                neurons: 4,
                edges: 27,
                weight_rows: 8,
                input_rows: 8,
                activation_rows: 0,
                encoder_rows: 0,
            },
        ];
        let report = simulate(AcceleratorConfig::default(), &ops);
        let pooling_energy = report.hardware.breakdown.energy_pj[3];
        assert!(pooling_energy > 0.0);
        assert_eq!(report.stages[1].breakdown.energy_pj[3], pooling_energy);
    }
}
