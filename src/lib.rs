//! Umbrella crate for the `winograd-ft` workspace.
//!
//! Re-exports every sub-crate of the reproduction of *"Winograd Convolution:
//! A Perspective from Fault Tolerance"* (DAC 2022) under one roof so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`abft`] — executable algorithm-based fault tolerance (checksummed
//!   GEMMs, transform guards, range restriction),
//! * [`audit`] — the determinism auditor: a token-level static-analysis
//!   pass enforcing the consensus-critical arithmetic taxonomy across the
//!   workspace (also the `wgft-audit` CLI, gated in CI),
//! * [`fixedpoint`] — Q-format fixed-point arithmetic,
//! * [`tensor`] — dense NCHW tensors, quantized im2col and the blocked
//!   GEMM (one kernel, f32 and i32 domains),
//! * [`faultsim`] — operation-level and neuron-level fault injection,
//! * [`tile`] — exact-rational F(m,r) transform generation (Lagrange
//!   interpolation over configurable point sets) feeding the winograd
//!   engines,
//! * [`winograd`] — winograd transforms and convolution kernels,
//! * [`nn`] — layers, training, quantized inference and the model zoo,
//! * [`data`] — synthetic datasets and accuracy evaluation,
//! * [`accel`] — systolic-array timing, voltage/error and power models,
//! * [`core`] — fault-tolerance campaigns, fine-grained TMR and
//!   voltage-scaling energy optimization (the paper's contribution), plus
//!   the command-line front end the `wgft-*` binaries share,
//! * [`sweep`] — sharded, checkpointable campaign orchestration with a
//!   persistent run journal, resume, and bit-identical merging,
//! * [`planner`] — the measured protection planner: executes a per-layer
//!   probe grid, solves exactly for the cheapest assignment reaching a
//!   target accuracy-under-BER, and emits versioned `ProtectionProfile`s
//!   (also the `wgft-planner` CLI),
//! * [`fabric`] — the distributed sweep fabric: a lease-based
//!   coordinator/worker protocol over TCP (or in-process) with heartbeats,
//!   work stealing, fault injection and retry — merged reports stay
//!   bit-identical to monolithic runs (also the `wgft-sweep` CLI, whose
//!   `serve`/`work` subcommands drive it),
//! * [`serve`] — a fault-tolerant inference daemon with per-tenant
//!   protection tiers, micro-batching, graceful degradation and live chaos
//!   drills (also the `wgft-serve` CLI).
//!
//! # Quickstart
//!
//! ```no_run
//! use winograd_ft::core::{CampaignConfig, FaultToleranceCampaign};
//! use winograd_ft::nn::models::ModelKind;
//! use winograd_ft::fixedpoint::BitWidth;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CampaignConfig::new(ModelKind::VggSmall, BitWidth::W16).with_images(32);
//! let campaign = FaultToleranceCampaign::prepare(&config)?;
//! let report = campaign.network_sweep(&[0.0, 1e-7, 1e-6]);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wgft_abft as abft;
pub use wgft_accel as accel;
pub use wgft_audit as audit;
pub use wgft_core as core;
pub use wgft_data as data;
pub use wgft_fabric as fabric;
pub use wgft_faultsim as faultsim;
pub use wgft_fixedpoint as fixedpoint;
pub use wgft_nn as nn;
pub use wgft_planner as planner;
pub use wgft_serve as serve;
pub use wgft_sweep as sweep;
pub use wgft_tensor as tensor;
pub use wgft_tile as tile;
pub use wgft_winograd as winograd;
