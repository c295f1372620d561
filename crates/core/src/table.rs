//! The campaign table: which cells each campaign kind evaluates at each bit
//! error rate, and the one reducer from per-cell sums to the kind's report.
//!
//! A cell is one fault configuration (algorithm, BER, injection granularity,
//! idealized protection, executable ABFT) under which every evaluation image
//! is classified once. Both routes to a report run this table. The
//! in-memory report methods of [`FaultToleranceCampaign`] sum each cell's
//! `(correct, AbftEvents)` over the evaluation set; `wgft-sweep` sums the
//! journaled image chunks of each cell. Either way [`SweepKind::report`]
//! builds the report from those sums.

use crate::campaign::{
    GranularityReport, GranularityRow, NetworkSweepReport, NetworkSweepRow, OpTypeReport, OpTypeRow,
};
use crate::tradeoff::{
    scheme_overhead, ProtectionTradeoffReport, ProtectionTradeoffRow, TradeoffScheme,
};
#[cfg(doc)]
use crate::FaultToleranceCampaign;
use crate::TextTable;
use serde::{Deserialize, Serialize};
use std::fmt;
use wgft_abft::{AbftEvents, AbftPolicy};
use wgft_faultsim::{OpCount, OpType, ProtectionPlan};
use wgft_winograd::{ConvAlgorithm, WinogradVariant};

/// Fault-injection granularity of a cell (the Figure 1 axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// Operation-level injection (every multiply/add result can flip).
    OpLevel,
    /// Neuron-level injection (only layer outputs can flip).
    NeuronLevel,
}

impl Granularity {
    /// Short label used in progress output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Granularity::OpLevel => "op",
            Granularity::NeuronLevel => "neuron",
        }
    }
}

/// The idealized protection a cell applies inside the arithmetic, as a
/// serializable tag for a [`ProtectionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellProtection {
    /// No protection.
    Unprotected,
    /// All multiplications kept fault-free (Figure 4).
    MulFaultFree,
    /// All additions kept fault-free (Figure 4).
    AddFaultFree,
    /// Every operation kept fault-free — the idealized full-TMR reference
    /// of the protection trade-off campaign.
    AllFaultFree,
}

impl CellProtection {
    /// The protection plan this tag denotes.
    #[must_use]
    pub fn plan(self) -> ProtectionPlan {
        match self {
            CellProtection::Unprotected => ProtectionPlan::none(),
            CellProtection::MulFaultFree => {
                ProtectionPlan::none().with_fault_free_op_type(OpType::Mul)
            }
            CellProtection::AddFaultFree => {
                ProtectionPlan::none().with_fault_free_op_type(OpType::Add)
            }
            CellProtection::AllFaultFree => ProtectionPlan::none()
                .with_fault_free_op_type(OpType::Mul)
                .with_fault_free_op_type(OpType::Add),
        }
    }

    /// Short label used in progress output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CellProtection::Unprotected => "none",
            CellProtection::MulFaultFree => "mul-free",
            CellProtection::AddFaultFree => "add-free",
            CellProtection::AllFaultFree => "all-free",
        }
    }
}

/// The executable ABFT a cell runs around the arithmetic, as a serializable
/// tag for an [`AbftPolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellAbft {
    /// No executable protection — the cell runs the stock datapath.
    #[default]
    Off,
    /// Range restriction only.
    RangeOnly,
    /// Checksummed GEMMs + transform guards + recompute.
    Checksum,
}

impl CellAbft {
    /// The policy this tag denotes (`None` runs the stock datapath).
    #[must_use]
    pub fn policy(self) -> Option<AbftPolicy> {
        match self {
            CellAbft::Off => None,
            CellAbft::RangeOnly => Some(AbftPolicy::range_only()),
            CellAbft::Checksum => Some(AbftPolicy::checksum()),
        }
    }

    /// Short label used in progress output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CellAbft::Off => "no-abft",
            CellAbft::RangeOnly => "range",
            CellAbft::Checksum => "checksum",
        }
    }
}

/// One accuracy cell of a campaign: every evaluation image of the campaign is
/// classified once under this exact fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitCell {
    /// Convolution algorithm under test.
    pub algo: ConvAlgorithm,
    /// Bit error rate.
    pub ber: f64,
    /// Injection granularity.
    pub granularity: Granularity,
    /// Idealized protection applied inside the arithmetic.
    pub protection: CellProtection,
    /// Executable ABFT running around the arithmetic.
    pub abft: CellAbft,
}

impl UnitCell {
    /// Compact human-readable label (progress lines and status tables).
    #[must_use]
    pub fn label(&self) -> String {
        format!("ber={:.2e} {}", self.ber, self.kind_label())
    }

    /// The BER-independent part of the label: what *kind* of cell this is
    /// (algorithm, granularity, protection, ABFT). `status` groups unit
    /// counts by this so mixed-cell journals stay debuggable.
    #[must_use]
    pub fn kind_label(&self) -> String {
        let mut label = format!(
            "{} {} {}",
            self.algo.label(),
            self.granularity.label(),
            self.protection.label()
        );
        if self.abft != CellAbft::Off {
            label.push(' ');
            label.push_str(self.abft.label());
        }
        label
    }
}

/// The rate the critical-BER search ends its grid at, and reports when no
/// grid rate falls below the threshold.
const CRITICAL_BER_CEILING: f64 = 1e-2;

/// The geometric grid the critical-BER search walks: 1e-8, doubling while
/// below [`CRITICAL_BER_CEILING`].
pub(crate) fn critical_ber_grid() -> impl Iterator<Item = f64> {
    std::iter::successors(Some(1e-8), |ber| Some(ber * 2.0))
        .take_while(|&ber| ber < CRITICAL_BER_CEILING)
}

/// The accuracy the critical-BER search compares against:
/// `chance + keep_fraction · (clean − chance)`, with the keep fraction
/// clamped to `[0, 1]` and chance one over the class count.
pub(crate) fn critical_threshold(clean: f64, num_classes: usize, keep_fraction: f64) -> f64 {
    let chance = 1.0 / num_classes.max(1) as f64;
    chance + keep_fraction.clamp(0.0, 1.0) * (clean - chance)
}

/// The first rate of the `(rate, accuracy)` walk whose accuracy falls below
/// `threshold`, or the grid's ceiling if none does. The walk is consumed
/// lazily, so a search that computes accuracies on demand stops at the
/// cliff.
pub(crate) fn first_rate_below(walk: impl IntoIterator<Item = (f64, f64)>, threshold: f64) -> f64 {
    walk.into_iter()
        .find(|&(_, accuracy)| accuracy < threshold)
        .map_or(CRITICAL_BER_CEILING, |(ber, _)| ber)
}

/// A campaign kind: the cells it evaluates at each bit error rate and the
/// report their sums reduce into.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SweepKind {
    /// Figure 2: standard vs winograd accuracy across bit error rates,
    /// reduced into a `NetworkSweepReport`.
    NetworkSweep,
    /// Figure 1: operation-level vs neuron-level injection, reduced into a
    /// `GranularityReport`.
    InjectionGranularity,
    /// Figure 4: add/mul fault-free protection, reduced into an
    /// `OpTypeReport`.
    OpTypeSensitivity,
    /// Accuracy-cliff search on the fixed geometric grid of
    /// `FaultToleranceCampaign::find_critical_ber`, reduced into a
    /// [`CriticalBerReport`].
    FindCriticalBer {
        /// Algorithm whose cliff is located.
        algo: ConvAlgorithm,
        /// Fraction of the clean-minus-chance margin to keep (clamped to
        /// `[0, 1]`, as the in-memory search clamps it).
        keep_fraction: f64,
    },
    /// The accuracy-versus-overhead protection frontier (unprotected /
    /// idealized TMR / executable range restriction / executable ABFT,
    /// standard vs winograd), reduced into a `ProtectionTradeoffReport`.
    ProtectionTradeoff,
}

/// What a report records about its campaign besides the cell sums.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportHeader {
    /// Name of the quantized network.
    pub model: String,
    /// Quantization width label.
    pub width: String,
    /// Winograd tile variant the campaign prepared.
    pub tile: WinogradVariant,
    /// Fault-free accuracy.
    pub clean_accuracy: f64,
    /// Evaluation-set size: every cell's images, the accuracy denominator.
    pub images: usize,
    /// Class count (the chance level of the critical-BER threshold).
    pub num_classes: usize,
    /// Total operation count under standard convolution.
    pub standard_ops: OpCount,
    /// Total operation count under winograd convolution.
    pub winograd_ops: OpCount,
}

impl SweepKind {
    /// Snake-case label (CLI values and status output).
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            SweepKind::NetworkSweep => "network_sweep",
            SweepKind::InjectionGranularity => "injection_granularity",
            SweepKind::OpTypeSensitivity => "op_type_sensitivity",
            SweepKind::FindCriticalBer { .. } => "find_critical_ber",
            SweepKind::ProtectionTradeoff => "protection_tradeoff",
        }
    }

    /// The bit error rates this kind evaluates: the requested grid
    /// verbatim, except for the critical-BER search, which ignores it and
    /// walks its own geometric grid (1e-8 doubling while below 1e-2).
    #[must_use]
    pub fn effective_bers(&self, requested: &[f64]) -> Vec<f64> {
        match self {
            SweepKind::FindCriticalBer { .. } => critical_ber_grid().collect(),
            _ => requested.to_vec(),
        }
    }

    /// The cells evaluated at one bit error rate, in the order
    /// [`Self::report`] reads their sums.
    #[must_use]
    pub fn cells_for_ber(&self, ber: f64) -> Vec<UnitCell> {
        use CellProtection::{AddFaultFree, MulFaultFree, Unprotected};
        let st = ConvAlgorithm::Standard;
        let wg = ConvAlgorithm::winograd_default();
        let cell = |algo, granularity, protection, abft| UnitCell {
            algo,
            ber,
            granularity,
            protection,
            abft,
        };
        let op = |algo, protection| cell(algo, Granularity::OpLevel, protection, CellAbft::Off);
        let neuron = |algo| cell(algo, Granularity::NeuronLevel, Unprotected, CellAbft::Off);
        match *self {
            SweepKind::NetworkSweep => vec![op(st, Unprotected), op(wg, Unprotected)],
            SweepKind::InjectionGranularity => vec![
                op(st, Unprotected),
                op(wg, Unprotected),
                neuron(st),
                neuron(wg),
            ],
            SweepKind::OpTypeSensitivity => vec![
                op(st, MulFaultFree),
                op(st, AddFaultFree),
                op(wg, MulFaultFree),
                op(wg, AddFaultFree),
                op(st, Unprotected),
                op(wg, Unprotected),
            ],
            SweepKind::FindCriticalBer { algo, .. } => vec![op(algo, Unprotected)],
            // Scheme-major in report order, standard then winograd.
            SweepKind::ProtectionTradeoff => TradeoffScheme::all()
                .into_iter()
                .flat_map(|scheme| {
                    let (protection, abft) = scheme.cell_tags();
                    [st, wg].map(|algo| cell(algo, Granularity::OpLevel, protection, abft))
                })
                .collect(),
        }
    }

    /// Reduce per-cell sums into this kind's report.
    ///
    /// `bers` is the effective grid ([`Self::effective_bers`]) and `sums`
    /// holds one `(correct, events)` per cell, BER-major, then in
    /// [`Self::cells_for_ber`] order. A cell's accuracy is
    /// `correct / header.images`, so any route that sums every image of
    /// every cell builds the same report, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `sums` does not hold one entry per cell of the grid.
    #[must_use]
    pub fn report(
        &self,
        header: &ReportHeader,
        bers: &[f64],
        sums: &[(u64, AbftEvents)],
    ) -> MergedReport {
        let per_ber = self.cells_for_ber(0.0).len();
        assert_eq!(sums.len(), bers.len() * per_ber, "one sum per table cell");
        let accuracy =
            |(correct, _): &(u64, AbftEvents)| *correct as f64 / header.images.max(1) as f64;
        let rows = bers.iter().copied().zip(sums.chunks(per_ber));
        match *self {
            SweepKind::NetworkSweep => MergedReport::NetworkSweep(NetworkSweepReport {
                model: header.model.clone(),
                width: header.width.clone(),
                tile: header.tile,
                clean_accuracy: header.clean_accuracy,
                rows: rows
                    .map(|(ber, c)| NetworkSweepRow {
                        ber,
                        standard: accuracy(&c[0]),
                        winograd: accuracy(&c[1]),
                    })
                    .collect(),
            }),
            SweepKind::InjectionGranularity => MergedReport::Granularity(GranularityReport {
                model: header.model.clone(),
                rows: rows
                    .map(|(ber, c)| GranularityRow {
                        ber,
                        op_level_standard: accuracy(&c[0]),
                        op_level_winograd: accuracy(&c[1]),
                        neuron_level_standard: accuracy(&c[2]),
                        neuron_level_winograd: accuracy(&c[3]),
                    })
                    .collect(),
            }),
            SweepKind::OpTypeSensitivity => MergedReport::OpType(OpTypeReport {
                model: header.model.clone(),
                rows: rows
                    .map(|(ber, c)| OpTypeRow {
                        ber,
                        st_mul_fault_free: accuracy(&c[0]),
                        st_add_fault_free: accuracy(&c[1]),
                        wg_mul_fault_free: accuracy(&c[2]),
                        wg_add_fault_free: accuracy(&c[3]),
                        st_unprotected: accuracy(&c[4]),
                        wg_unprotected: accuracy(&c[5]),
                    })
                    .collect(),
            }),
            SweepKind::FindCriticalBer {
                algo,
                keep_fraction,
            } => {
                let threshold =
                    critical_threshold(header.clean_accuracy, header.num_classes, keep_fraction);
                let rows: Vec<CriticalBerRow> = rows
                    .map(|(ber, c)| CriticalBerRow {
                        ber,
                        accuracy: accuracy(&c[0]),
                    })
                    .collect();
                MergedReport::CriticalBer(CriticalBerReport {
                    model: header.model.clone(),
                    algo: algo.label().to_string(),
                    keep_fraction,
                    threshold,
                    critical_ber: first_rate_below(
                        rows.iter().map(|row| (row.ber, row.accuracy)),
                        threshold,
                    ),
                    rows,
                })
            }
            SweepKind::ProtectionTradeoff => {
                let overhead =
                    |scheme, events, ops| scheme_overhead(scheme, events, ops, header.images);
                let rows = rows
                    .flat_map(|(ber, c)| {
                        TradeoffScheme::all().into_iter().zip(c.chunks(2)).map(
                            move |(scheme, pair)| {
                                let (st, wg) = (&pair[0], &pair[1]);
                                ProtectionTradeoffRow {
                                    ber,
                                    scheme,
                                    standard_accuracy: accuracy(st),
                                    winograd_accuracy: accuracy(wg),
                                    standard_overhead: overhead(scheme, &st.1, header.standard_ops),
                                    winograd_overhead: overhead(scheme, &wg.1, header.winograd_ops),
                                    standard_events: st.1,
                                    winograd_events: wg.1,
                                }
                            },
                        )
                    })
                    .collect();
                MergedReport::ProtectionTradeoff(ProtectionTradeoffReport {
                    model: header.model.clone(),
                    width: header.width.clone(),
                    tile: header.tile,
                    clean_accuracy: header.clean_accuracy,
                    images: header.images,
                    rows,
                })
            }
        }
    }
}

/// One row of the critical-BER grid walk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriticalBerRow {
    /// Bit error rate.
    pub ber: f64,
    /// Unprotected accuracy at this rate.
    pub accuracy: f64,
}

/// The report of a [`SweepKind::FindCriticalBer`] table: the cliff rate
/// `find_critical_ber` returns, plus the whole grid (the in-memory search
/// stops at the cliff; the table evaluates every rate).
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
    /// The evaluated grid.
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

/// The report of a campaign table, one variant per campaign kind.
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

#[cfg(test)]
mod tests {
    use super::*;

    const IMAGES: usize = 1000;
    const ST: ConvAlgorithm = ConvAlgorithm::Standard;

    fn wg() -> ConvAlgorithm {
        ConvAlgorithm::winograd_default()
    }

    fn header() -> ReportHeader {
        ReportHeader {
            model: "net".to_string(),
            width: "int8".to_string(),
            tile: WinogradVariant::default(),
            clean_accuracy: 0.9,
            images: IMAGES,
            num_classes: 4,
            standard_ops: OpCount { mul: 300, add: 200 },
            winograd_ops: OpCount { mul: 100, add: 150 },
        }
    }

    /// Cell `i` of the table gets `i + 1` correct images and events that
    /// no other cell has.
    fn distinct_sums(cells: usize) -> Vec<(u64, AbftEvents)> {
        (0..cells as u64)
            .map(|i| {
                let mut events = AbftEvents::new();
                events.detected = 10 * i + 1;
                events.corrected = 10 * i + 2;
                events.uncorrected = 10 * i + 3;
                events.recomputes = 10 * i + 4;
                events.clipped = 10 * i + 5;
                events.charge(100 * i + 6, 100 * i + 7);
                (i + 1, events)
            })
            .collect()
    }

    /// A report built from distinct per-cell sums, and a lookup of the
    /// accuracy and events of the one cell whose tags match.
    struct Reduced {
        report: MergedReport,
        cells: Vec<UnitCell>,
        sums: Vec<(u64, AbftEvents)>,
    }

    impl Reduced {
        fn new(kind: SweepKind, bers: &[f64]) -> Self {
            let cells: Vec<UnitCell> = bers.iter().flat_map(|&b| kind.cells_for_ber(b)).collect();
            let sums = distinct_sums(cells.len());
            let report = kind.report(&header(), bers, &sums);
            Self {
                report,
                cells,
                sums,
            }
        }

        fn cell(&self, want: UnitCell) -> (f64, AbftEvents) {
            let found: Vec<usize> = (0..self.cells.len())
                .filter(|&i| self.cells[i] == want)
                .collect();
            assert_eq!(found.len(), 1, "exactly one cell is tagged {want:?}");
            let (correct, events) = self.sums[found[0]];
            (correct as f64 / IMAGES as f64, events)
        }

        fn op(&self, ber: f64, algo: ConvAlgorithm, protection: CellProtection) -> f64 {
            self.tagged(ber, algo, Granularity::OpLevel, protection, CellAbft::Off)
                .0
        }

        fn tagged(
            &self,
            ber: f64,
            algo: ConvAlgorithm,
            granularity: Granularity,
            protection: CellProtection,
            abft: CellAbft,
        ) -> (f64, AbftEvents) {
            self.cell(UnitCell {
                algo,
                ber,
                granularity,
                protection,
                abft,
            })
        }
    }

    #[test]
    fn every_report_field_reads_the_cell_its_tags_name() {
        use CellProtection::{AddFaultFree, AllFaultFree, MulFaultFree, Unprotected};
        let bers = [0.0, 1e-3, 3e-3];

        let r = Reduced::new(SweepKind::NetworkSweep, &bers);
        let MergedReport::NetworkSweep(report) = &r.report else {
            panic!("network sweep report");
        };
        assert_eq!(report.rows.len(), bers.len());
        for (row, &ber) in report.rows.iter().zip(&bers) {
            assert_eq!(row.ber, ber);
            assert_eq!(row.standard, r.op(ber, ST, Unprotected));
            assert_eq!(row.winograd, r.op(ber, wg(), Unprotected));
        }

        let r = Reduced::new(SweepKind::InjectionGranularity, &bers);
        let MergedReport::Granularity(report) = &r.report else {
            panic!("granularity report");
        };
        assert_eq!(report.rows.len(), bers.len());
        let neuron = |ber, algo| {
            r.tagged(
                ber,
                algo,
                Granularity::NeuronLevel,
                Unprotected,
                CellAbft::Off,
            )
            .0
        };
        for (row, &ber) in report.rows.iter().zip(&bers) {
            assert_eq!(row.ber, ber);
            assert_eq!(row.op_level_standard, r.op(ber, ST, Unprotected));
            assert_eq!(row.op_level_winograd, r.op(ber, wg(), Unprotected));
            assert_eq!(row.neuron_level_standard, neuron(ber, ST));
            assert_eq!(row.neuron_level_winograd, neuron(ber, wg()));
        }

        let r = Reduced::new(SweepKind::OpTypeSensitivity, &bers);
        let MergedReport::OpType(report) = &r.report else {
            panic!("op-type report");
        };
        assert_eq!(report.rows.len(), bers.len());
        for (row, &ber) in report.rows.iter().zip(&bers) {
            assert_eq!(row.ber, ber);
            assert_eq!(row.st_mul_fault_free, r.op(ber, ST, MulFaultFree));
            assert_eq!(row.st_add_fault_free, r.op(ber, ST, AddFaultFree));
            assert_eq!(row.wg_mul_fault_free, r.op(ber, wg(), MulFaultFree));
            assert_eq!(row.wg_add_fault_free, r.op(ber, wg(), AddFaultFree));
            assert_eq!(row.st_unprotected, r.op(ber, ST, Unprotected));
            assert_eq!(row.wg_unprotected, r.op(ber, wg(), Unprotected));
        }

        let r = Reduced::new(SweepKind::ProtectionTradeoff, &bers);
        let MergedReport::ProtectionTradeoff(report) = &r.report else {
            panic!("trade-off report");
        };
        let schemes = [
            (TradeoffScheme::Unprotected, Unprotected, CellAbft::Off),
            (TradeoffScheme::IdealizedTmr, AllFaultFree, CellAbft::Off),
            (TradeoffScheme::RangeOnly, Unprotected, CellAbft::RangeOnly),
            (TradeoffScheme::Abft, Unprotected, CellAbft::Checksum),
        ];
        assert_eq!(report.rows.len(), bers.len() * schemes.len());
        assert_eq!(report.images, IMAGES);
        let mut rows = report.rows.iter();
        for &ber in &bers {
            for (scheme, protection, abft) in schemes {
                let row = rows.next().expect("one row per (BER, scheme)");
                assert_eq!((row.ber, row.scheme), (ber, scheme));
                let cell = |algo| r.tagged(ber, algo, Granularity::OpLevel, protection, abft);
                let (st_accuracy, st_events) = cell(ST);
                let (wg_accuracy, wg_events) = cell(wg());
                assert_eq!(row.standard_accuracy, st_accuracy);
                assert_eq!(row.winograd_accuracy, wg_accuracy);
                assert_eq!(row.standard_events, st_events);
                assert_eq!(row.winograd_events, wg_events);
                let h = header();
                assert_eq!(
                    row.standard_overhead,
                    scheme_overhead(scheme, &st_events, h.standard_ops, IMAGES)
                );
                assert_eq!(
                    row.winograd_overhead,
                    scheme_overhead(scheme, &wg_events, h.winograd_ops, IMAGES)
                );
            }
        }
    }

    #[test]
    fn the_critical_threshold_picks_the_first_grid_row_below_it() {
        let kind = SweepKind::FindCriticalBer {
            algo: wg(),
            keep_fraction: 0.5,
        };
        let grid = kind.effective_bers(&[0.5]);
        assert_eq!(grid.first(), Some(&1e-8));
        assert!(grid.iter().all(|&ber| ber < 1e-2));
        assert!(grid.last().is_some_and(|&ber| ber * 2.0 >= 1e-2));
        for &ber in &grid {
            assert_eq!(
                kind.cells_for_ber(ber),
                [UnitCell {
                    algo: wg(),
                    ber,
                    granularity: Granularity::OpLevel,
                    protection: CellProtection::Unprotected,
                    abft: CellAbft::Off,
                }]
            );
        }
        // Chance is 1/4, so the threshold is 0.25 + 0.5 * (0.9 - 0.25).
        let threshold = 0.25 + 0.5 * (0.9 - 0.25);
        // Distinct counts above the threshold, except rows 7 and 9: the
        // cliff is row 7, not the lower row 9.
        let mut sums = distinct_sums(grid.len());
        for (i, (correct, _)) in sums.iter_mut().enumerate() {
            *correct = match i {
                7 => 100,
                9 => 50,
                _ => 900 - i as u64,
            };
        }
        let MergedReport::CriticalBer(report) = kind.report(&header(), &grid, &sums) else {
            panic!("critical-BER report");
        };
        assert_eq!(report.threshold, threshold);
        assert_eq!(report.critical_ber, grid[7]);
        assert_eq!(report.keep_fraction, 0.5);
        assert_eq!(report.algo, wg().label());
        for ((row, &ber), (correct, _)) in report.rows.iter().zip(&grid).zip(&sums) {
            assert_eq!(row.ber, ber);
            assert_eq!(row.accuracy, *correct as f64 / IMAGES as f64);
        }
        // No row below the threshold: the search's ceiling.
        let above = vec![(900, AbftEvents::new()); grid.len()];
        let MergedReport::CriticalBer(report) = kind.report(&header(), &grid, &above) else {
            panic!("critical-BER report");
        };
        assert_eq!(report.critical_ber, 1e-2);
        // The keep fraction is clamped to [0, 1].
        assert_eq!(critical_threshold(0.9, 4, 7.0), 0.9);
        assert_eq!(critical_threshold(0.9, 4, -1.0), 0.25);
    }
}
