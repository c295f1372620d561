//! Neural network layers, training, quantized inference and the model zoo.
//!
//! The paper evaluates four pretrained benchmark networks (DenseNet169,
//! ResNet50, VGG19, GoogleNet) quantized to 8-bit and 16-bit fixed point.
//! This crate rebuilds that stack from scratch for the reproduction:
//!
//! * a **floating-point training path** — layers with forward/backward passes
//!   ([`Conv2d`], [`Linear`], [`Relu`], [`MaxPool2`], [`GlobalAvgPool`],
//!   [`Add`], [`Concat`]) composed into a [`Network`] graph and trained with
//!   SGD ([`Trainer`]) on the synthetic datasets of `wgft-data`,
//! * a **model zoo** ([`models`]) with scaled-down but architecturally
//!   faithful analogues of the paper's benchmarks (plain VGG-style stack,
//!   residual blocks, dense concatenation blocks, inception modules),
//! * a **quantized inference path** ([`QuantizedNetwork`]) that runs every
//!   convolution and fully-connected layer in fixed point, selecting
//!   standard or winograd convolution per call — the execution substrate of
//!   every fault-tolerance experiment in `wgft-core`. One node loop runs
//!   every entry point, and three datapaths fill its compute layers: the
//!   instrumented one issues every operation through a
//!   [`wgft_faultsim::Arithmetic`] backend (the oracle, optionally with a
//!   neuron-level injector), the instrumented ABFT one runs the protected
//!   `wgft-abft` executors over that backend, and the fast one runs
//!   uninstrumented integer engines ([`FastInference`]), batched or with
//!   one rider: fault-site replay, fault-free ABFT checks, neuron-level
//!   injection or ABFT range calibration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod error;
mod graph;
mod join;
mod linear;
pub mod models;
mod pool;
mod quantized;
mod train;
mod zoo;

pub use activation::Relu;
pub use conv::Conv2d;
pub use error::NnError;
pub use graph::{InputRef, Layer, Network, Node};
pub use join::{Add, Concat};
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2};
pub use quantized::{FastInference, LayerOps, QuantizedNetwork, QuantizerOptions};
pub use train::{TrainConfig, TrainReport, Trainer};
pub use zoo::{evaluate_f32, train_model, TrainedModel};
