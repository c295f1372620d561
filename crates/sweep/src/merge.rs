//! Reduce a completed journal into its campaign report.
//!
//! Merging sums each cell's journaled `(correct, AbftEvents)` over its image
//! chunks and hands the per-cell sums to [`SweepKind::report`], the reducer
//! in `wgft-core` that the in-memory report methods call too. Integer sums
//! do not depend on the order units completed in, so the merged report is
//! bit-identical to a single-process in-memory run of the same config,
//! regardless of sharding, execution order or restarts.

use crate::error::SweepError;
use crate::journal::{CompletedSet, Manifest};
use wgft_abft::AbftEvents;
#[cfg(doc)]
use wgft_core::SweepKind;
use wgft_core::{MergedReport, ReportHeader};

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

    // Integer addition is associative, so the order units completed in (and
    // which shard produced them) cannot change the sums.
    let mut sums = vec![(0u64, AbftEvents::new()); plan.cells().len()];
    let mut covered = vec![0u64; plan.cells().len()];
    for unit in plan.units() {
        let result = completed
            .results
            .get(&unit.id)
            .expect("presence checked above");
        let (correct, events) = &mut sums[unit.cell_index];
        *correct += result.correct;
        *events += result.events();
        covered[unit.cell_index] += result.len;
    }
    for (cell_index, &images) in covered.iter().enumerate() {
        if images != plan.images() as u64 {
            return Err(SweepError::journal(format!(
                "cell {cell_index} covers {images} images, expected {}",
                plan.images()
            )));
        }
    }
    let header = ReportHeader {
        model: manifest.model.clone(),
        width: manifest.width.clone(),
        tile: manifest.tile,
        clean_accuracy: manifest.clean_accuracy,
        images: manifest.images,
        num_classes: manifest.config.spec.num_classes,
        standard_ops: manifest.standard_ops,
        winograd_ops: manifest.winograd_ops,
    };
    Ok(manifest.kind.report(&header, plan.bers(), &sums))
}
