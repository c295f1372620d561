//! Shard execution: evaluate the pending work units a shard owns, appending
//! each result to the journal as soon as it completes.

use crate::error::SweepError;
use crate::journal::{Journal, Manifest, UnitResult};
use crate::progress::{ProgressSink, ProgressSnapshot};
use crate::unit::WorkUnit;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wgft_core::FaultToleranceCampaign;

/// Which slice of the unit table one process executes: units with
/// `id % shards == index`. `K` processes with indices `0..K` cover the whole
/// run; any subset covers a resumable part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: u64,
    index: u64,
}

impl ShardSpec {
    /// A shard specification.
    ///
    /// # Errors
    ///
    /// Fails if `shards` is zero or `index >= shards`.
    pub fn new(shards: u64, index: u64) -> Result<Self, SweepError> {
        if shards == 0 {
            return Err(SweepError::InvalidParameter {
                name: "shards",
                reason: "shard count must be at least 1".to_string(),
            });
        }
        if index >= shards {
            return Err(SweepError::InvalidParameter {
                name: "shard-index",
                reason: format!("index {index} out of range for {shards} shard(s)"),
            });
        }
        Ok(Self { shards, index })
    }

    /// The single-process shard (1 of 1).
    #[must_use]
    pub fn single() -> Self {
        Self {
            shards: 1,
            index: 0,
        }
    }

    /// Total shard count.
    #[must_use]
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// This process's shard index.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether this shard owns `unit_id`.
    #[must_use]
    pub fn owns(&self, unit_id: u64) -> bool {
        unit_id % self.shards == self.index
    }
}

/// Prepare the campaign a manifest describes and verify it reproduces the
/// baseline the manifest recorded at `run` time.
///
/// A mismatch means the resuming process would journal results that are not
/// comparable with the ones already on disk (different build, platform or
/// tampered manifest), so it is rejected before any unit runs.
///
/// # Errors
///
/// Fails if preparation fails or the baseline does not match.
pub fn prepare_campaign(manifest: &Manifest) -> Result<FaultToleranceCampaign, SweepError> {
    let campaign = FaultToleranceCampaign::prepare(&manifest.config)?;
    validate_baseline(manifest, &campaign)?;
    Ok(campaign)
}

/// Check that a prepared campaign reproduces the baseline a manifest
/// recorded (evaluation-set size, model name, bit-exact clean accuracy).
///
/// # Errors
///
/// Returns [`SweepError::Manifest`] describing the first mismatch.
pub fn validate_baseline(
    manifest: &Manifest,
    campaign: &FaultToleranceCampaign,
) -> Result<(), SweepError> {
    if campaign.eval_set().len() != manifest.images {
        return Err(SweepError::manifest(format!(
            "prepared campaign evaluates {} images, manifest expects {}",
            campaign.eval_set().len(),
            manifest.images
        )));
    }
    if campaign.quantized().name() != manifest.model {
        return Err(SweepError::manifest(format!(
            "prepared campaign is model `{}`, manifest expects `{}`",
            campaign.quantized().name(),
            manifest.model
        )));
    }
    if campaign.clean_accuracy().to_bits() != manifest.clean_accuracy.to_bits() {
        return Err(SweepError::manifest(format!(
            "prepared campaign's clean accuracy {} differs from the manifest's {} — \
             the environment no longer reproduces the original run",
            campaign.clean_accuracy(),
            manifest.clean_accuracy
        )));
    }
    let st_ops = campaign
        .quantized()
        .total_op_count(wgft_winograd::ConvAlgorithm::Standard);
    let wg_ops = campaign
        .quantized()
        .total_op_count(wgft_winograd::ConvAlgorithm::winograd_default());
    if st_ops != manifest.standard_ops || wg_ops != manifest.winograd_ops {
        return Err(SweepError::manifest(format!(
            "prepared campaign's operation counts (ST {st_ops:?}, WG {wg_ops:?}) differ from \
             the manifest's (ST {:?}, WG {:?})",
            manifest.standard_ops, manifest.winograd_ops
        )));
    }
    Ok(())
}

/// Evaluate one work unit against a prepared campaign: its cell
/// ([`FaultToleranceCampaign::evaluate_cell`]) on its image range.
///
/// The result depends only on `(campaign config, unit coordinates)`: the
/// per-image fault seeds derive from the campaign base seed and the unit's
/// global image indices (see [`WorkUnit::image_seed`]), never from
/// execution order.
#[must_use]
pub fn evaluate_unit(campaign: &FaultToleranceCampaign, unit: &WorkUnit) -> UnitResult {
    let (correct, events) = campaign.evaluate_cell(&unit.cell, unit.start, unit.len);
    UnitResult {
        unit: unit.id,
        correct: correct as u64,
        len: unit.len as u64,
        detected: events.detected,
        corrected: events.corrected,
        uncorrected: events.uncorrected,
        recomputes: events.recomputes,
        clipped: events.clipped,
        overhead_mul: events.overhead.mul,
        overhead_add: events.overhead.add,
    }
}

/// Summary of one shard invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Units this shard owns in total.
    pub owned: u64,
    /// Owned units already journaled before this invocation (skipped).
    pub skipped: u64,
    /// Units evaluated and journaled by this invocation.
    pub evaluated: u64,
    /// Units complete across the whole run after this invocation.
    pub run_done: u64,
    /// Total units in the plan.
    pub run_total: u64,
}

impl ShardOutcome {
    /// Whether the whole run (not just this shard) is complete.
    #[must_use]
    pub fn run_complete(&self) -> bool {
        self.run_done == self.run_total
    }
}

/// Execute every pending unit this shard owns, journaling each result as it
/// completes. Already-journaled units are skipped, which is what makes a
/// killed run resumable: re-invoking with the same (or any other) shard
/// specification finishes exactly the missing work.
///
/// Units are evaluated in parallel (vendored rayon; set
/// `RAYON_NUM_THREADS=1` for serial execution) — results are bit-identical
/// either way because every unit's fault seeds derive from its coordinates.
///
/// # Errors
///
/// Fails on journal I/O errors or a journal inconsistent with the manifest.
pub fn run_shard(
    journal: &Journal,
    campaign: &FaultToleranceCampaign,
    shard: ShardSpec,
    progress: &dyn ProgressSink,
) -> Result<ShardOutcome, SweepError> {
    let manifest = journal.manifest();
    let plan = manifest.plan();
    let completed = journal.completed()?;
    let run_done_before = completed.results.len() as u64;
    let owned: Vec<&WorkUnit> = plan.units().iter().filter(|u| shard.owns(u.id)).collect();
    let pending: Vec<&WorkUnit> = owned
        .iter()
        .copied()
        .filter(|u| !completed.results.contains_key(&u.id))
        .collect();
    let owned_count = owned.len() as u64;
    let pending_count = pending.len() as u64;
    let skipped = owned_count - pending_count;

    let appender = Mutex::new(journal.appender(shard.shards(), shard.index())?);
    let shard_done = AtomicU64::new(0);
    let run_done = AtomicU64::new(run_done_before);
    let outcomes: Vec<Result<(), SweepError>> = pending
        .into_par_iter()
        .map(|unit| {
            let result = evaluate_unit(campaign, unit);
            {
                let mut appender = appender.lock().expect("journal appender lock poisoned");
                appender.append(&result)?;
            }
            let snapshot = ProgressSnapshot {
                shards: shard.shards(),
                shard_index: shard.index(),
                shard_done: shard_done.fetch_add(1, Ordering::Relaxed) + 1,
                shard_pending: pending_count,
                run_done: run_done.fetch_add(1, Ordering::Relaxed) + 1,
                run_total: plan.units().len() as u64,
            };
            progress.unit_finished(snapshot, unit);
            Ok(())
        })
        .collect();
    for outcome in outcomes {
        outcome?;
    }
    Ok(ShardOutcome {
        owned: owned_count,
        skipped,
        evaluated: pending_count,
        run_done: run_done.load(Ordering::Relaxed),
        run_total: plan.units().len() as u64,
    })
}
