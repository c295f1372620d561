//! Sharded, checkpointable campaign orchestration for the fault-tolerance
//! sweeps of `wgft-core`.
//!
//! The paper's evidence is large fault-injection grids (BER × conv algorithm
//! × granularity × protection); run in one process, an interrupted sweep
//! loses everything. This crate splits the cells of `wgft-core`'s campaign
//! table ([`SweepKind`], [`UnitCell`]) into a deterministic, stably ordered
//! table of [`WorkUnit`]s — one image chunk of one cell each — journals
//! every completed unit to disk, and reduces the journal with the table's
//! own reducer ([`SweepKind::report`]) into the exact report the in-memory
//! campaign method produces:
//!
//! * [`SweepPlan`] — the unit table; pure function of `(kind, config, BER
//!   grid, chunk, image count)`, so every process that agrees on the
//!   manifest agrees on every unit id.
//! * [`Journal`] — a run directory holding a validated [`Manifest`]
//!   (serialized [`CampaignConfig`] + content hash) and append-only JSONL
//!   result files with partial-trailing-line recovery.
//! * [`run_shard`] / [`ShardSpec`] — `K` independent processes split one
//!   journal-compatible run by `unit.id % K`; a killed process resumes from
//!   where its journal stops.
//! * [`merge`] — sums unit results per cell and reduces them into a
//!   [`MergedReport`], bit-identical to the in-memory campaign.
//!
//! Every image's fault seed derives from the campaign base seed and the
//! image's global index alone (see [`WorkUnit::image_seed`]), which is what
//! makes results independent of execution order, sharding and restarts.
//!
//! The `wgft-sweep` binary drives all of this from the command line
//! (`run` / `status` / `resume` / `merge`, with `--shards`/`--shard-index`).
//!
//! ```no_run
//! use wgft_core::CampaignConfig;
//! use wgft_fixedpoint::BitWidth;
//! use wgft_nn::models::ModelKind;
//! use wgft_sweep::{merge_sweep, resume_sweep, run_sweep, ShardSpec, SilentProgress, SweepKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W8);
//! let dir = "target/sweeps/demo";
//! // First process: shard 0 of 2. (A second process would run shard 1.)
//! run_sweep(
//!     dir,
//!     SweepKind::NetworkSweep,
//!     &config,
//!     &[0.0, 1e-4],
//!     8,
//!     ShardSpec::new(2, 0)?,
//!     &SilentProgress,
//! )?;
//! // ... later, after a kill or on another worker: finish what's missing.
//! resume_sweep(dir, ShardSpec::new(2, 1)?, &SilentProgress)?;
//! let report = merge_sweep(dir)?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod journal;
mod merge;
mod progress;
mod runner;
mod unit;

pub use error::SweepError;
pub use journal::{
    fnv1a64, CompletedSet, Journal, Manifest, ResultAppender, UnitResult, ARITHMETIC_MODE,
    JOURNAL_VERSION, MANIFEST_FILE,
};
pub use merge::merge;
pub use progress::{render_status, ProgressSink, ProgressSnapshot, SilentProgress, TableProgress};
pub use runner::{
    evaluate_unit, prepare_campaign, run_shard, validate_baseline, ShardOutcome, ShardSpec,
};
pub use unit::{SweepPlan, WorkUnit};
pub use wgft_core::{
    CellAbft, CellProtection, CriticalBerReport, CriticalBerRow, Granularity, MergedReport,
    SweepKind, UnitCell,
};

use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_winograd::ConvAlgorithm;

/// Build the manifest for a freshly prepared campaign.
#[must_use]
pub fn manifest_for(
    kind: SweepKind,
    config: &CampaignConfig,
    bers: &[f64],
    chunk: usize,
    campaign: &FaultToleranceCampaign,
) -> Manifest {
    Manifest::new(
        kind,
        config.clone(),
        bers.to_vec(),
        chunk,
        campaign.eval_set().len(),
        campaign.quantized().name().to_string(),
        config.width.to_string(),
        campaign.clean_accuracy(),
        campaign.quantized().total_op_count(ConvAlgorithm::Standard),
        campaign
            .quantized()
            .total_op_count(ConvAlgorithm::winograd_default()),
    )
}

/// Prepare a campaign, create (or idempotently reopen) the journal at `dir`,
/// and execute one shard of the run.
///
/// If `dir` already journals the same plan, this behaves exactly like
/// [`resume_sweep`]; if it journals a *different* plan, it fails rather than
/// mixing incompatible results.
///
/// # Errors
///
/// Fails on campaign-preparation, journal or I/O errors.
pub fn run_sweep(
    dir: impl Into<std::path::PathBuf>,
    kind: SweepKind,
    config: &CampaignConfig,
    bers: &[f64],
    chunk: usize,
    shard: ShardSpec,
    progress: &dyn ProgressSink,
) -> Result<ShardOutcome, SweepError> {
    let campaign = FaultToleranceCampaign::prepare(config)?;
    let manifest = manifest_for(kind, config, bers, chunk, &campaign);
    let journal = Journal::create(dir, manifest)?;
    // `create` may have reopened an existing journal with the same plan
    // hash; the baseline fields are outside the hash, so check them too.
    validate_baseline(journal.manifest(), &campaign)?;
    run_shard(&journal, &campaign, shard, progress)
}

/// Reopen the journal at `dir`, re-prepare its campaign (validated against
/// the manifest baseline) and execute one shard of the remaining work.
///
/// # Errors
///
/// Fails on campaign-preparation, journal or I/O errors, and if the
/// re-prepared campaign does not reproduce the manifest's recorded baseline.
pub fn resume_sweep(
    dir: impl Into<std::path::PathBuf>,
    shard: ShardSpec,
    progress: &dyn ProgressSink,
) -> Result<ShardOutcome, SweepError> {
    let journal = Journal::open(dir)?;
    let campaign = prepare_campaign(journal.manifest())?;
    run_shard(&journal, &campaign, shard, progress)
}

/// Reduce the journal at `dir` into its campaign report.
///
/// # Errors
///
/// Fails if the journal is incomplete, inconsistent or unreadable.
pub fn merge_sweep(dir: impl Into<std::path::PathBuf>) -> Result<MergedReport, SweepError> {
    let journal = Journal::open(dir)?;
    let completed = journal.completed()?;
    merge(journal.manifest(), &completed)
}
