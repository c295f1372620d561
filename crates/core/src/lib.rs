//! Fault-tolerance evaluation, fine-grained TMR planning and voltage-scaling
//! energy optimization for winograd DNNs — the contribution of the DAC'22
//! paper this workspace reproduces.
//!
//! The crate wires the substrates together:
//!
//! * [`CampaignConfig`] / [`FaultToleranceCampaign`] — train (or load) a
//!   model-zoo network, quantize it, and evaluate its accuracy under
//!   operation-level or neuron-level fault injection with standard or
//!   winograd convolution (Figures 1, 2 and 4),
//! * [`SweepKind`] — the campaign table: the [`UnitCell`]s each campaign
//!   kind evaluates per bit error rate and the one reducer from per-cell
//!   sums to its [`MergedReport`], shared by the in-memory report methods
//!   and `wgft-sweep`'s journal merge,
//! * [`LayerVulnerabilityReport`] — the layer-wise fault-free analysis and
//!   per-layer multiplication counts of Figure 3,
//! * [`TmrPlanner`] — the fine-grained, operation-level triple modular
//!   redundancy planner and its overhead accounting (Figure 5 and the
//!   61.21 % / 27.49 % headline numbers),
//! * [`VoltageScalingStudy`] — the winograd-aware supply-voltage scaling
//!   study on the modelled accelerator (Figures 6 and 7 and the
//!   42.89 % / 7.19 % headline numbers).
//!
//! Every report type renders as an aligned text table via `Display`, which is
//! what the `wgft-bench` figure benches print. [`cli`] is the command-line
//! front end the `wgft-sweep`, `wgft-planner` and `wgft-serve` binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod cli;
mod config;
mod energy;
mod error;
mod report;
mod table;
mod tmr;
mod tradeoff;
mod vulnerability;

pub use campaign::{
    FaultToleranceCampaign, GranularityReport, GranularityRow, NetworkSweepReport, NetworkSweepRow,
    OpTypeReport, OpTypeRow,
};
pub use config::{CampaignConfig, DatasetSource};
pub use energy::{EnergyTableReport, ScalingScheme, VoltageScalingStudy, VoltageSweepReport};
pub use error::CoreError;
pub use report::TextTable;
pub use table::{
    CellAbft, CellProtection, CriticalBerReport, CriticalBerRow, Granularity, MergedReport,
    ReportHeader, SweepKind, UnitCell,
};
pub use tmr::{TmrPlanner, TmrReport, TmrResult, TmrScheme};
pub use tradeoff::{
    scheme_overhead, weighted_cost, ProtectionTradeoffReport, ProtectionTradeoffRow,
    TradeoffScheme, ADD_COST, MUL_COST,
};
pub use vulnerability::{LayerVulnerabilityReport, LayerVulnerabilityRow};
