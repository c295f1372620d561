//! The protection trade-off campaign: accuracy versus measured protection
//! overhead for every executable scheme, standard versus winograd.
//!
//! The paper (and its follow-up on cost-effective fault tolerance) argues
//! that winograd's inherent tolerance makes *real* low-cost protection —
//! algorithm-based fault tolerance and range restriction — dramatically
//! cheaper than blanket redundancy. This campaign makes that comparison
//! executable: every scheme but the idealized-TMR reference actually runs
//! its detection/correction machinery against injected faults, and its
//! overhead is the measured extra arithmetic, not a model.

use crate::report::{pct, sci};
use crate::{CellAbft, CellProtection, FaultToleranceCampaign, MergedReport, SweepKind, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;
use wgft_abft::AbftEvents;
use wgft_faultsim::OpCount;
use wgft_winograd::WinogradVariant;

/// Hardware cost weight of one multiplication (matches the TMR planner).
pub const MUL_COST: f64 = 1.0;
/// Hardware cost weight of one addition (matches the TMR planner).
pub const ADD_COST: f64 = 0.25;

/// Weighted hardware cost of an operation bundle under the workspace's
/// standard mul/add weights.
#[must_use]
pub fn weighted_cost(ops: OpCount) -> f64 {
    ops.weighted_cost(MUL_COST, ADD_COST)
}

/// The protection schemes the trade-off frontier compares, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TradeoffScheme {
    /// No protection at all — the floor of the frontier.
    Unprotected,
    /// Idealized full TMR: every operation masked fault-free (the
    /// `ProtectionPlan` model), charged two redundant copies of every
    /// operation. The accuracy ceiling at the overhead ceiling.
    IdealizedTmr,
    /// Executable range restriction only (`wgft-abft`, detector-free).
    RangeOnly,
    /// Executable ABFT: checksummed GEMMs + transform guards + recompute.
    Abft,
}

impl TradeoffScheme {
    /// All schemes in stable report order.
    #[must_use]
    pub const fn all() -> [TradeoffScheme; 4] {
        [
            TradeoffScheme::Unprotected,
            TradeoffScheme::IdealizedTmr,
            TradeoffScheme::RangeOnly,
            TradeoffScheme::Abft,
        ]
    }

    /// Report label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            TradeoffScheme::Unprotected => "unprotected",
            TradeoffScheme::IdealizedTmr => "ideal-TMR",
            TradeoffScheme::RangeOnly => "range-only",
            TradeoffScheme::Abft => "ABFT",
        }
    }

    /// The campaign-table tags of this scheme's cells: the idealized mask
    /// it applies inside the arithmetic and the executable policy it runs
    /// around it.
    #[must_use]
    pub const fn cell_tags(self) -> (CellProtection, CellAbft) {
        match self {
            TradeoffScheme::Unprotected => (CellProtection::Unprotected, CellAbft::Off),
            TradeoffScheme::IdealizedTmr => (CellProtection::AllFaultFree, CellAbft::Off),
            TradeoffScheme::RangeOnly => (CellProtection::Unprotected, CellAbft::RangeOnly),
            TradeoffScheme::Abft => (CellProtection::Unprotected, CellAbft::Checksum),
        }
    }
}

impl fmt::Display for TradeoffScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One (BER, scheme) cell of the frontier: accuracy, measured events and
/// per-image weighted overhead for both convolution algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectionTradeoffRow {
    /// Bit error rate.
    pub ber: f64,
    /// The scheme evaluated.
    pub scheme: TradeoffScheme,
    /// Accuracy with standard convolution.
    pub standard_accuracy: f64,
    /// Accuracy with winograd convolution.
    pub winograd_accuracy: f64,
    /// Events accumulated over the whole evaluation set, standard conv.
    pub standard_events: AbftEvents,
    /// Events accumulated over the whole evaluation set, winograd conv.
    pub winograd_events: AbftEvents,
    /// Per-image weighted protection overhead, standard conv.
    pub standard_overhead: f64,
    /// Per-image weighted protection overhead, winograd conv.
    pub winograd_overhead: f64,
}

/// The accuracy-versus-overhead frontier report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectionTradeoffReport {
    /// Model name.
    pub model: String,
    /// Quantization width label.
    pub width: String,
    /// Winograd tile variant the campaign prepared. Serialized only when
    /// non-default, so reports at the default F(2x2,3x3) stay byte-identical
    /// to ones written before the tile axis existed.
    #[serde(default, skip_serializing_if = "crate::config::tile_is_default")]
    pub tile: WinogradVariant,
    /// Fault-free accuracy.
    pub clean_accuracy: f64,
    /// Evaluation images per cell.
    pub images: usize,
    /// BER-major, then scheme order.
    pub rows: Vec<ProtectionTradeoffRow>,
}

impl fmt::Display for ProtectionTradeoffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({}, {}) — protection trade-off frontier, clean accuracy {} % \
             ({} images; overhead = weighted extra ops per image, \
             mul {MUL_COST} / add {ADD_COST})",
            self.model,
            self.width,
            self.tile,
            pct(self.clean_accuracy),
            self.images
        )?;
        let mut table = TextTable::new(&[
            "BER",
            "scheme",
            "ST %",
            "WG %",
            "ST overhead",
            "WG overhead",
            "WG detected",
            "WG corrected",
            "WG uncorrected",
            "WG clipped",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                sci(row.ber),
                row.scheme.label().to_string(),
                pct(row.standard_accuracy),
                pct(row.winograd_accuracy),
                format!("{:.0}", row.standard_overhead),
                format!("{:.0}", row.winograd_overhead),
                row.winograd_events.detected.to_string(),
                row.winograd_events.corrected.to_string(),
                row.winograd_events.uncorrected.to_string(),
                row.winograd_events.clipped.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Per-image overhead of a scheme, from measured events (executable
/// schemes), the network's operation volume (idealized TMR), or zero.
#[must_use]
pub fn scheme_overhead(
    scheme: TradeoffScheme,
    events: &AbftEvents,
    exec_ops: OpCount,
    images: usize,
) -> f64 {
    match scheme {
        TradeoffScheme::Unprotected => 0.0,
        // Two redundant copies of every operation the execution algorithm
        // performs (majority voting hardware is charged with the copies).
        TradeoffScheme::IdealizedTmr => 2.0 * weighted_cost(exec_ops),
        TradeoffScheme::RangeOnly | TradeoffScheme::Abft => {
            weighted_cost(events.overhead) / images.max(1) as f64
        }
    }
}

impl FaultToleranceCampaign {
    /// Evaluate the accuracy-versus-overhead frontier at each bit error
    /// rate: unprotected, idealized full TMR, executable range restriction
    /// and executable ABFT, for standard and winograd convolution.
    ///
    /// Every cell classifies the same evaluation images under the same
    /// per-image fault seeds as [`FaultToleranceCampaign::accuracy_under`],
    /// so schemes differ only in the protection actually running.
    #[must_use]
    pub fn protection_tradeoff(&self, bers: &[f64]) -> ProtectionTradeoffReport {
        let MergedReport::ProtectionTradeoff(report) =
            self.table_report(SweepKind::ProtectionTradeoff, bers)
        else {
            unreachable!("the protection trade-off reduces into its own report")
        };
        report
    }
}
