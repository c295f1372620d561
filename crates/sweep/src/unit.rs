//! Deterministic decomposition of a campaign into work units.
//!
//! The cells come from the campaign table in `wgft-core`
//! ([`SweepKind::cells_for_ber`] over [`SweepKind::effective_bers`]), the
//! same table the in-memory report methods run. A [`SweepPlan`] splits each
//! cell into a stably ordered table of [`WorkUnit`]s, one image chunk each.
//! The table depends only on the plan inputs, never on execution order,
//! sharding or restarts, so two processes that agree on the manifest agree
//! on every unit id.

use serde::{Deserialize, Serialize};
use wgft_core::{FaultToleranceCampaign, Granularity, SweepKind, UnitCell};

/// One schedulable unit of work: one cell restricted to a contiguous chunk of
/// evaluation images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkUnit {
    /// Stable unit id — the unit's position in the plan table. Results are
    /// journaled under this id, and sharding assigns units by `id % shards`.
    pub id: u64,
    /// Index of the unit's cell in [`SweepPlan::cells`].
    pub cell_index: usize,
    /// The cell this unit evaluates.
    pub cell: UnitCell,
    /// First evaluation-image index (inclusive).
    pub start: usize,
    /// Number of evaluation images in this unit.
    pub len: usize,
}

impl WorkUnit {
    /// The fault seed of image `offset` (0-based within the unit).
    ///
    /// Derived from the campaign base seed and the unit's own coordinates
    /// (`start + offset` is the global image index), so it is identical no
    /// matter which shard evaluates the unit, in which order, after how many
    /// restarts — and identical to the seed the in-memory report methods
    /// derive for the same image.
    // wgft-audit: consensus-critical -- every shard must derive the same fault seed
    #[must_use]
    pub fn image_seed(&self, base_seed: u64, offset: usize) -> u64 {
        let image_index = self.start + offset;
        match self.cell.granularity {
            Granularity::OpLevel => {
                FaultToleranceCampaign::op_level_fault_seed(base_seed, image_index)
            }
            Granularity::NeuronLevel => {
                FaultToleranceCampaign::neuron_level_fault_seed(base_seed, image_index)
            }
        }
    }
}

/// The full, stably ordered unit table of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    kind: SweepKind,
    bers: Vec<f64>,
    images: usize,
    chunk: usize,
    cells: Vec<UnitCell>,
    units: Vec<WorkUnit>,
}

impl SweepPlan {
    /// Expand `kind` over its BER grid into the unit table.
    ///
    /// `images` is the evaluation-set size and `chunk` the images per unit
    /// (floored at one). Ordering is BER-major, then report cell order, then
    /// ascending image chunks; unit ids are the positions in that order.
    #[must_use]
    pub fn new(kind: SweepKind, requested_bers: &[f64], images: usize, chunk: usize) -> Self {
        let bers = kind.effective_bers(requested_bers);
        let chunk = chunk.max(1);
        let mut cells = Vec::new();
        let mut units = Vec::new();
        for &ber in &bers {
            for cell in kind.cells_for_ber(ber) {
                let cell_index = cells.len();
                cells.push(cell);
                let mut start = 0usize;
                while start < images {
                    let len = chunk.min(images - start);
                    units.push(WorkUnit {
                        id: units.len() as u64,
                        cell_index,
                        cell,
                        start,
                        len,
                    });
                    start += len;
                }
            }
        }
        Self {
            kind,
            bers,
            images,
            chunk,
            cells,
            units,
        }
    }

    /// The campaign kind this plan decomposes.
    #[must_use]
    pub fn kind(&self) -> SweepKind {
        self.kind
    }

    /// The effective BER grid (see [`SweepKind::effective_bers`]).
    #[must_use]
    pub fn bers(&self) -> &[f64] {
        &self.bers
    }

    /// Evaluation-set size the plan was built for.
    #[must_use]
    pub fn images(&self) -> usize {
        self.images
    }

    /// Images per unit.
    #[must_use]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// All cells in stable order.
    #[must_use]
    pub fn cells(&self) -> &[UnitCell] {
        &self.cells
    }

    /// The unit table in stable id order.
    #[must_use]
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Units of one cell, in ascending image order.
    pub fn units_of_cell(&self, cell_index: usize) -> impl Iterator<Item = &WorkUnit> {
        self.units
            .iter()
            .filter(move |u| u.cell_index == cell_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_core::CellProtection;
    use wgft_faultsim::OpType;
    use wgft_winograd::ConvAlgorithm;

    #[test]
    fn plan_is_stable_and_covers_every_image_once() {
        let plan = SweepPlan::new(SweepKind::InjectionGranularity, &[0.0, 1e-4], 10, 4);
        assert_eq!(plan.cells().len(), 2 * 4);
        // 10 images in chunks of 4 -> 3 units per cell.
        assert_eq!(plan.units().len(), 8 * 3);
        for (i, unit) in plan.units().iter().enumerate() {
            assert_eq!(unit.id, i as u64, "ids are table positions");
        }
        for cell_index in 0..plan.cells().len() {
            let covered: usize = plan.units_of_cell(cell_index).map(|u| u.len).sum();
            assert_eq!(covered, 10, "every cell covers the whole eval set");
            let mut next = 0usize;
            for unit in plan.units_of_cell(cell_index) {
                assert_eq!(unit.start, next, "chunks are contiguous and ordered");
                next += unit.len;
            }
        }
        // Rebuilding the plan yields the identical table.
        let again = SweepPlan::new(SweepKind::InjectionGranularity, &[0.0, 1e-4], 10, 4);
        assert_eq!(again, plan);
    }

    #[test]
    fn critical_ber_grid_matches_the_monolithic_search() {
        let kind = SweepKind::FindCriticalBer {
            algo: ConvAlgorithm::Standard,
            keep_fraction: 0.5,
        };
        let grid = kind.effective_bers(&[123.0]);
        // The requested grid is ignored: 1e-8 doubling while < 1e-2.
        let mut expect = Vec::new();
        let mut ber = 1e-8;
        while ber < 1e-2 {
            expect.push(ber);
            ber *= 2.0;
        }
        assert_eq!(grid, expect);
        assert_eq!(kind.cells_for_ber(1e-8).len(), 1);
    }

    #[test]
    fn unit_seed_is_a_pure_function_of_global_image_index() {
        let plan = SweepPlan::new(SweepKind::NetworkSweep, &[1e-5], 9, 2);
        let base = 0xC0FFEE;
        for unit in plan.units() {
            for offset in 0..unit.len {
                let expect = match unit.cell.granularity {
                    Granularity::OpLevel => {
                        FaultToleranceCampaign::op_level_fault_seed(base, unit.start + offset)
                    }
                    Granularity::NeuronLevel => {
                        FaultToleranceCampaign::neuron_level_fault_seed(base, unit.start + offset)
                    }
                };
                assert_eq!(unit.image_seed(base, offset), expect);
            }
        }
    }

    #[test]
    fn protection_tags_rebuild_the_monolithic_plans() {
        assert!(CellProtection::Unprotected.plan().is_empty());
        assert!(CellProtection::MulFaultFree
            .plan()
            .is_op_type_fault_free(OpType::Mul));
        assert!(CellProtection::AddFaultFree
            .plan()
            .is_op_type_fault_free(OpType::Add));
    }
}
