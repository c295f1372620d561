//! Reduce journaled unit results back into the monolithic report types.
//!
//! Merging is pure integer arithmetic: each cell's correct-prediction counts
//! are summed over its image chunks and divided by the evaluation-set size —
//! exactly the computation the in-memory campaign loops perform — so the
//! merged `NetworkSweepReport` / `GranularityReport` / `OpTypeReport` (and
//! the critical-BER search result) are bit-identical to a single-process run
//! of the same config, regardless of sharding, execution order or restarts.

use crate::error::SweepError;
use crate::journal::{CompletedSet, Manifest};
use crate::unit::SweepKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use wgft_abft::AbftEvents;
use wgft_core::{
    scheme_overhead, GranularityReport, GranularityRow, NetworkSweepReport, NetworkSweepRow,
    OpTypeReport, OpTypeRow, ProtectionTradeoffReport, ProtectionTradeoffRow, TextTable,
    TradeoffScheme,
};
use wgft_faultsim::BitErrorRate;

/// One row of the critical-BER grid walk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriticalBerRow {
    /// Bit error rate.
    pub ber: f64,
    /// Unprotected accuracy at this rate.
    pub accuracy: f64,
}

/// The merged result of a [`SweepKind::FindCriticalBer`] run: the cliff rate
/// the monolithic `find_critical_ber` would return, plus the full grid the
/// sharded sweep evaluated along the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalBerReport {
    /// Model name.
    pub model: String,
    /// Algorithm label whose cliff was located.
    pub algo: String,
    /// Margin fraction the search keeps (see `find_critical_ber`).
    pub keep_fraction: f64,
    /// Accuracy threshold derived from the clean accuracy and chance level.
    pub threshold: f64,
    /// The located critical bit error rate.
    pub critical_ber: f64,
    /// The evaluated grid (the monolithic search stops at the cliff; the
    /// sweep evaluates the whole grid, which is a superset).
    pub rows: Vec<CriticalBerRow>,
}

impl fmt::Display for CriticalBerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} accuracy cliff: critical BER {:.2e} (threshold {:.2} %)",
            self.model,
            self.algo,
            self.critical_ber,
            self.threshold * 100.0
        )?;
        let mut table = TextTable::new(&["BER", "accuracy %", "below threshold"]);
        for row in &self.rows {
            table.push_row(vec![
                format!("{:.2e}", row.ber),
                format!("{:.2}", row.accuracy * 100.0),
                if row.accuracy < self.threshold {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// The merged output of a sweep, one variant per campaign kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MergedReport {
    /// Figure 2 (`network_sweep`).
    NetworkSweep(NetworkSweepReport),
    /// Figure 1 (`injection_granularity`).
    Granularity(GranularityReport),
    /// Figure 4 (`op_type_sensitivity`).
    OpType(OpTypeReport),
    /// Accuracy-cliff search (`find_critical_ber`).
    CriticalBer(CriticalBerReport),
    /// Protection frontier (`protection_tradeoff`).
    ProtectionTradeoff(ProtectionTradeoffReport),
}

impl fmt::Display for MergedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergedReport::NetworkSweep(r) => r.fmt(f),
            MergedReport::Granularity(r) => r.fmt(f),
            MergedReport::OpType(r) => r.fmt(f),
            MergedReport::CriticalBer(r) => r.fmt(f),
            MergedReport::ProtectionTradeoff(r) => r.fmt(f),
        }
    }
}

/// Reduce a completed journal into the campaign's report.
///
/// # Errors
///
/// Returns [`SweepError::Incomplete`] if any unit is missing, or
/// [`SweepError::Journal`] if the journaled image counts do not add up to
/// the evaluation-set size.
pub fn merge(manifest: &Manifest, completed: &CompletedSet) -> Result<MergedReport, SweepError> {
    // A journal recorded under a different arithmetic mode was produced by a
    // build whose numbers this build cannot reproduce bit-identically;
    // merging it would silently mix incomparable results. This is the gate
    // the distributed fabric relies on to keep heterogeneous workers honest.
    if manifest.arithmetic_mode != crate::journal::ARITHMETIC_MODE {
        return Err(SweepError::manifest(format!(
            "journal was recorded under arithmetic mode `{}`, but this build computes \
             `{}` — the merged report would not be bit-identical to a monolithic run",
            manifest.arithmetic_mode,
            crate::journal::ARITHMETIC_MODE
        )));
    }
    let plan = manifest.plan();
    let total = plan.units().len() as u64;
    let done = completed.results.len() as u64;
    if done < total {
        return Err(SweepError::Incomplete { done, total });
    }

    // Sum per-cell correct counts. Integer addition is associative, so the
    // order units completed in (and which shard produced them) cannot change
    // the sum.
    let mut correct = vec![0u64; plan.cells().len()];
    let mut covered = vec![0u64; plan.cells().len()];
    let mut cell_events = vec![AbftEvents::new(); plan.cells().len()];
    for unit in plan.units() {
        let result = completed
            .results
            .get(&unit.id)
            .expect("presence checked above");
        correct[unit.cell_index] += result.correct;
        covered[unit.cell_index] += result.len;
        cell_events[unit.cell_index] += result.events();
    }
    for (cell_index, &images) in covered.iter().enumerate() {
        if images != plan.images() as u64 {
            return Err(SweepError::journal(format!(
                "cell {cell_index} covers {images} images, expected {}",
                plan.images()
            )));
        }
    }
    // Identical to the monolithic loops' `correct / eval_set.len().max(1)`.
    let accuracy = |cell_index: usize| correct[cell_index] as f64 / plan.images().max(1) as f64;

    // Cells of one BER are consecutive in plan order (BER-major expansion).
    let per_ber = plan
        .cells()
        .len()
        .checked_div(plan.bers().len().max(1))
        .unwrap_or(0);
    let cell_base = |ber_index: usize| ber_index * per_ber;

    let report = match manifest.kind {
        SweepKind::NetworkSweep => {
            let rows = plan
                .bers()
                .iter()
                .enumerate()
                .map(|(i, &ber)| NetworkSweepRow {
                    ber: BitErrorRate::new(ber).rate(),
                    standard: accuracy(cell_base(i)),
                    winograd: accuracy(cell_base(i) + 1),
                })
                .collect();
            MergedReport::NetworkSweep(NetworkSweepReport {
                model: manifest.model.clone(),
                width: manifest.width.clone(),
                tile: manifest.tile,
                clean_accuracy: manifest.clean_accuracy,
                rows,
            })
        }
        SweepKind::InjectionGranularity => {
            let rows = plan
                .bers()
                .iter()
                .enumerate()
                .map(|(i, &ber)| GranularityRow {
                    ber: BitErrorRate::new(ber).rate(),
                    op_level_standard: accuracy(cell_base(i)),
                    op_level_winograd: accuracy(cell_base(i) + 1),
                    neuron_level_standard: accuracy(cell_base(i) + 2),
                    neuron_level_winograd: accuracy(cell_base(i) + 3),
                })
                .collect();
            MergedReport::Granularity(GranularityReport {
                model: manifest.model.clone(),
                rows,
            })
        }
        SweepKind::OpTypeSensitivity => {
            let rows = plan
                .bers()
                .iter()
                .enumerate()
                .map(|(i, &ber)| OpTypeRow {
                    ber: BitErrorRate::new(ber).rate(),
                    st_mul_fault_free: accuracy(cell_base(i)),
                    st_add_fault_free: accuracy(cell_base(i) + 1),
                    wg_mul_fault_free: accuracy(cell_base(i) + 2),
                    wg_add_fault_free: accuracy(cell_base(i) + 3),
                    st_unprotected: accuracy(cell_base(i) + 4),
                    wg_unprotected: accuracy(cell_base(i) + 5),
                })
                .collect();
            MergedReport::OpType(OpTypeReport {
                model: manifest.model.clone(),
                rows,
            })
        }
        SweepKind::FindCriticalBer {
            algo,
            keep_fraction,
        } => {
            // Replicate `find_critical_ber` exactly: threshold from the
            // clean accuracy and chance level, then the first grid rate
            // whose accuracy falls below it (1e-2 if none does).
            let clean = manifest.clean_accuracy;
            let chance = 1.0 / manifest.config.spec.num_classes.max(1) as f64;
            let threshold = chance + keep_fraction.clamp(0.0, 1.0) * (clean - chance);
            let rows: Vec<CriticalBerRow> = plan
                .bers()
                .iter()
                .enumerate()
                .map(|(i, &ber)| CriticalBerRow {
                    ber,
                    accuracy: accuracy(cell_base(i)),
                })
                .collect();
            let critical_ber = rows
                .iter()
                .find(|row| row.accuracy < threshold)
                .map_or(1e-2, |row| row.ber);
            MergedReport::CriticalBer(CriticalBerReport {
                model: manifest.model.clone(),
                algo: algo.label().to_string(),
                keep_fraction,
                threshold,
                critical_ber,
                rows,
            })
        }
        SweepKind::ProtectionTradeoff => {
            // Cells per BER are (scheme-major, ST-then-WG) — see
            // `SweepKind::cells_for_ber` — so scheme `s` of BER `i` sits at
            // `cell_base(i) + 2s` (standard) and `+ 2s + 1` (winograd).
            // Accuracy, events and overhead reproduce the monolithic
            // `protection_tradeoff` computation exactly: integer sums, then
            // the same divisions and `scheme_overhead` formula.
            let mut rows = Vec::new();
            for (i, &ber) in plan.bers().iter().enumerate() {
                for (s, scheme) in TradeoffScheme::all().into_iter().enumerate() {
                    let st = cell_base(i) + 2 * s;
                    let wg = st + 1;
                    let standard_events = cell_events[st];
                    let winograd_events = cell_events[wg];
                    rows.push(ProtectionTradeoffRow {
                        ber: BitErrorRate::new(ber).rate(),
                        scheme,
                        standard_accuracy: accuracy(st),
                        winograd_accuracy: accuracy(wg),
                        standard_overhead: scheme_overhead(
                            scheme,
                            &standard_events,
                            manifest.standard_ops,
                            manifest.images,
                        ),
                        winograd_overhead: scheme_overhead(
                            scheme,
                            &winograd_events,
                            manifest.winograd_ops,
                            manifest.images,
                        ),
                        standard_events,
                        winograd_events,
                    });
                }
            }
            MergedReport::ProtectionTradeoff(ProtectionTradeoffReport {
                model: manifest.model.clone(),
                width: manifest.width.clone(),
                tile: manifest.tile,
                clean_accuracy: manifest.clean_accuracy,
                images: manifest.images,
                rows,
            })
        }
    };
    Ok(report)
}
