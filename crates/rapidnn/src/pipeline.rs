use rapidnn_accel::{AcceleratorConfig, SimulationReport, Simulator};
use rapidnn_analyze::{op_shapes, Program};
use rapidnn_baselines::{workload_of, Workload};
use rapidnn_core::{ComposeOutcome, Composer, ComposerConfig};
use rapidnn_data::{benchmark_dataset, Dataset};
use rapidnn_nn::topology::Benchmark;
use rapidnn_nn::{Trainer, TrainerConfig};
use rapidnn_tensor::SeededRng;

/// Configuration of an end-to-end RAPIDNN run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Which benchmark application to run.
    pub benchmark: Benchmark,
    /// Shrink factor for the network (1 = the paper's full topology).
    pub reduction: usize,
    /// Total synthetic samples to generate.
    pub samples: usize,
    /// Baseline-training epochs before composition.
    pub train_epochs: usize,
    /// Composer settings (`w`, `u`, `q`, retraining budget).
    pub composer: ComposerConfig,
    /// Accelerator configuration (chips, sharing).
    pub accelerator: AcceleratorConfig,
}

impl PipelineConfig {
    /// A configuration sized for the paper's experiments: full topology,
    /// modest sample count (the datasets are synthetic; see DESIGN.md §5).
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        PipelineConfig {
            benchmark,
            reduction: 1,
            samples: 300,
            train_epochs: 10,
            composer: ComposerConfig::default(),
            accelerator: AcceleratorConfig::default(),
        }
    }

    /// A deliberately tiny configuration for unit tests and doctests.
    pub fn tiny_for_tests() -> Self {
        PipelineConfig {
            benchmark: Benchmark::Mnist,
            reduction: 16,
            samples: 80,
            train_epochs: 3,
            composer: ComposerConfig::default()
                .with_weights(8)
                .with_inputs(8)
                .with_max_iterations(2)
                .with_retrain_epochs(1),
            accelerator: AcceleratorConfig::default(),
        }
    }

    /// Sets the codebook sizes `(w, u)`.
    pub fn with_clusters(mut self, w: usize, u: usize) -> Self {
        self.composer = self.composer.with_weights(w).with_inputs(u);
        self
    }

    /// Sets the accelerator configuration.
    pub fn with_accelerator(mut self, accelerator: AcceleratorConfig) -> Self {
        self.accelerator = accelerator;
        self
    }
}

/// Everything an end-to-end run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The benchmark that ran.
    pub benchmark: Benchmark,
    /// Composition outcome (baseline error, Δe, iteration history, model).
    pub compose: ComposeOutcome,
    /// Hardware simulation of the composed model.
    pub simulation: SimulationReport,
    /// Op-count workload descriptor (for baseline comparisons).
    pub workload: Workload,
    /// The validation dataset used (for further analysis).
    pub validation: Dataset,
}

impl PipelineReport {
    /// Flattens the composed model into a deployable serving artifact
    /// (see [`rapidnn_serve::CompiledModel`]).
    ///
    /// `CompiledModel::to_bytes` serializes in format v4 — weight codes
    /// bit-packed at their cluster width on the wire, unpacked once at
    /// load.
    ///
    /// # Errors
    ///
    /// [`rapidnn_serve::ServeError::Rejected`] carrying the report when
    /// the lowered program fails static analysis — a compiled model is
    /// verified by construction.
    pub fn compile(&self) -> Result<rapidnn_serve::CompiledModel, rapidnn_serve::ServeError> {
        rapidnn_serve::CompiledModel::from_reinterpreted(&self.compose.reinterpreted)
    }

    /// Runs the static analyzer over the composed model's stage graph,
    /// before any artifact is compiled: the stages are lowered into the
    /// analyzer's IR ([`rapidnn_analyze::Program::from_reinterpreted`])
    /// and checked for index soundness, datapath feasibility,
    /// finiteness, and liveness. [`Self::compile`] refuses a pipeline
    /// with errors here.
    pub fn analyze(&self) -> rapidnn_analyze::Report {
        let program = rapidnn_analyze::Program::from_reinterpreted(&self.compose.reinterpreted);
        rapidnn_analyze::analyze(&program)
    }
}

/// End-to-end driver: synth data → train float model → compose → simulate.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, composition and simulation errors.
    pub fn run(&self, rng: &mut SeededRng) -> Result<PipelineReport, Box<dyn std::error::Error>> {
        let cfg = &self.config;
        let data = benchmark_dataset(cfg.benchmark, cfg.samples, rng)?;
        let (train, validation) = data.split(0.8);

        let mut network = if cfg.reduction <= 1 {
            cfg.benchmark.build(rng)?
        } else {
            cfg.benchmark.build_reduced(cfg.reduction, rng)?
        };
        let trainer_config = if cfg.benchmark.is_type2() {
            // CNN substitutes train with Adam; see DESIGN.md §5.
            TrainerConfig {
                learning_rate: 0.01,
                lr_decay: 0.97,
                adam: true,
                ..TrainerConfig::default()
            }
        } else {
            TrainerConfig::default()
        };
        let mut trainer = Trainer::new(trainer_config, rng);
        trainer.fit(
            &mut network,
            train.inputs(),
            train.labels(),
            cfg.train_epochs,
        )?;

        let composer = Composer::new(cfg.composer);
        let compose = composer.compose(&mut network, &train, &validation, rng)?;

        let simulator = Simulator::new(cfg.accelerator);
        let program = Program::from_reinterpreted(&compose.reinterpreted);
        let simulation = simulator.simulate(&op_shapes(&program));

        let workload = workload_of(cfg.benchmark.name(), &network);
        Ok(PipelineReport {
            benchmark: cfg.benchmark,
            compose,
            simulation,
            workload,
            validation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_runs_end_to_end() {
        let mut rng = SeededRng::new(11);
        let report = Pipeline::new(PipelineConfig::tiny_for_tests())
            .run(&mut rng)
            .unwrap();
        assert_eq!(report.benchmark, Benchmark::Mnist);
        assert!(report.compose.baseline_error >= 0.0);
        assert!(report.simulation.hardware.mac_ops > 0);
        assert!(report.workload.mac_ops() > 0);
        assert!(!report.validation.is_empty());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let run = |seed| {
            let mut rng = SeededRng::new(seed);
            let r = Pipeline::new(PipelineConfig::tiny_for_tests())
                .run(&mut rng)
                .unwrap();
            (r.compose.final_error, r.simulation.hardware.latency_ns)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn compiled_model_matches_pipeline_inference() {
        let mut rng = SeededRng::new(17);
        let report = Pipeline::new(PipelineConfig::tiny_for_tests())
            .run(&mut rng)
            .unwrap();
        let compiled = report.compile().unwrap();
        let model = &report.compose.reinterpreted;
        assert_eq!(compiled.input_features(), model.input_features());
        for i in 0..report.validation.len().min(8) {
            let sample = report.validation.sample(i).into_vec();
            assert_eq!(
                compiled.infer(&sample).unwrap(),
                model.infer_sample(&sample).unwrap(),
            );
        }
    }

    #[test]
    fn config_builders_compose() {
        let cfg = PipelineConfig::tiny_for_tests()
            .with_clusters(4, 16)
            .with_accelerator(AcceleratorConfig::with_chips(8));
        assert_eq!(cfg.composer.weight_clusters, 4);
        assert_eq!(cfg.composer.input_clusters, 16);
        assert_eq!(cfg.accelerator.chips, 8);
    }
}
