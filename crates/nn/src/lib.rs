//! From-scratch neural-network library used as the RAPIDNN training
//! substrate.
//!
//! The paper trains its six benchmark models with TensorFlow/Keras; this
//! crate replaces that stack with a small, deterministic implementation of
//! exactly the pieces the paper's Table 2 topologies need:
//!
//! * layers — [`Dense`], [`Conv2d`], [`MaxPool2d`], [`AvgPool2d`],
//!   [`Dropout`], [`ActivationLayer`], [`Residual`];
//! * activations — ReLU, sigmoid, tanh and softsign ([`Activation`]);
//! * softmax cross-entropy loss ([`loss`]);
//! * stochastic gradient descent with momentum ([`Sgd`]);
//! * a mini-batch training loop ([`Trainer`]) — it reports batch losses
//!   and runs no pass it does not learn from; error rates are
//!   [`Network::evaluate`] on whichever dataset the caller cares about;
//! * builders for the Table 2 topologies ([`topology`]).
//!
//! All inter-layer tensors are rank-2 `batch x features` matrices; image
//! layers carry their own [`Conv2dGeometry`] and reinterpret the feature
//! axis as `C·H·W`.
//!
//! # Examples
//!
//! ```
//! use rapidnn_nn::{Activation, Network, Dense, ActivationLayer};
//! use rapidnn_tensor::{SeededRng, Shape, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Network::new(4);
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(ActivationLayer::new(Activation::Relu));
//! net.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::from_vec(Shape::matrix(2, 4), vec![0.1; 8])?;
//! let logits = net.forward(&x)?;
//! assert_eq!(logits.shape().dims(), &[2, 3]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv2d;
mod dense;
mod dropout;
mod error;
mod layer;
pub mod loss;
mod network;
mod optimizer;
mod pool;
mod residual;
pub mod topology;
mod trainer;

pub use activation::{Activation, ActivationLayer};
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use error::NnError;
pub use layer::{Layer, LayerKind, Mode, ParamSet};
pub use network::Network;
pub use optimizer::{Adam, Sgd};
pub use pool::{AvgPool2d, MaxPool2d, PoolKind};
pub use residual::Residual;
pub use trainer::{EpochReport, Trainer, TrainerConfig};

// Re-exported so downstream crates can name convolution geometry without a
// direct tensor-crate dependency.
pub use rapidnn_tensor::{Conv2dGeometry, Padding};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
