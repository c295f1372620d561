//! The worker loop: register, lease, heartbeat, evaluate, upload — until
//! the coordinator reports the campaign done.
//!
//! The loop is transport-agnostic and contains no fault handling of its
//! own beyond protocol recovery (re-register on [`Response::UnknownWorker`]
//! after a coordinator restart, drop units whose lease was lost): transient
//! transport failures are absorbed by the
//! [`RetryTransport`](crate::backoff::RetryTransport) wrapped around the
//! transport, and determinism guarantees make every recovery safe — a
//! re-run unit produces the same bits it did the first time.

use crate::clock::Sleeper;
use crate::error::FabricError;
use crate::transport::SweepTransport;
use crate::wire::{Request, Response, UploadOutcome};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wgft_core::FaultToleranceCampaign;
use wgft_sweep::{evaluate_unit, validate_baseline, Manifest, ARITHMETIC_MODE};

/// How a worker participates in a campaign.
pub struct WorkerConfig {
    /// Human-readable worker name (coordinator logs and status).
    pub name: String,
    /// Units requested per lease (the coordinator may cap this lower).
    pub max_units: u32,
    /// Local trained-model cache override. `None` keeps the directory the
    /// manifest names (which may not exist on a remote machine — workers on
    /// other hosts should set their own).
    pub cache_dir: Option<PathBuf>,
    /// How the worker waits when no work is leasable yet.
    pub sleeper: Arc<dyn Sleeper>,
}

impl WorkerConfig {
    /// A config with real sleeping and no cache override.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            max_units: 1,
            cache_dir: None,
            sleeper: Arc::new(crate::clock::ThreadSleeper),
        }
    }
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The last worker id the coordinator assigned.
    pub worker_id: u64,
    /// The coordinator's session tag.
    pub session: String,
    /// Uploads journaled first by this worker.
    pub units_completed: u64,
    /// Uploads that duplicated an identical journaled result.
    pub duplicates: u64,
    /// Leased units dropped because the lease was lost (expired and stolen,
    /// or completed elsewhere).
    pub lost_leases: u64,
    /// Registrations performed (more than one means the coordinator
    /// restarted mid-campaign and the worker reconnected).
    pub registrations: u64,
}

/// Register (or re-register) under this build's [`ARITHMETIC_MODE`] and
/// return the assigned id plus the validated manifest.
fn register(
    transport: &mut dyn SweepTransport,
    name: &str,
) -> Result<(u64, String, Manifest), FabricError> {
    let response = transport.call(&Request::Register {
        worker: name.to_string(),
        arithmetic_mode: ARITHMETIC_MODE.to_string(),
    })?;
    match response {
        Response::Registered {
            worker_id,
            session,
            manifest_json,
            ..
        } => {
            let manifest: Manifest = serde_json::from_str(&manifest_json).map_err(|e| {
                FabricError::protocol(format!("coordinator sent an unparseable manifest: {e}"))
            })?;
            manifest.validate().map_err(|e| {
                FabricError::incompatible(format!("coordinator manifest failed validation: {e}"))
            })?;
            Ok((worker_id, session, manifest))
        }
        Response::Error { message } => Err(FabricError::incompatible(message)),
        other => Err(FabricError::protocol(format!(
            "unexpected response to Register: {other:?}"
        ))),
    }
}

/// Run the worker loop, preparing the campaign from the coordinator's
/// manifest (training or loading from `config.cache_dir`).
///
/// # Errors
///
/// Fails on unrecoverable transport errors, incompatibility (arithmetic
/// mode, baseline drift, conflicting results) or protocol violations.
pub fn run_worker(
    transport: &mut dyn SweepTransport,
    config: &WorkerConfig,
) -> Result<WorkerSummary, FabricError> {
    run_worker_impl(transport, config, None)
}

/// Run the worker loop against an already-prepared campaign (validated
/// against the coordinator's manifest before any unit runs). This is the
/// entry point for in-process workers that share one expensive campaign.
///
/// # Errors
///
/// See [`run_worker`].
pub fn run_worker_prepared(
    transport: &mut dyn SweepTransport,
    config: &WorkerConfig,
    campaign: &FaultToleranceCampaign,
) -> Result<WorkerSummary, FabricError> {
    run_worker_impl(transport, config, Some(campaign))
}

fn run_worker_impl(
    transport: &mut dyn SweepTransport,
    config: &WorkerConfig,
    shared: Option<&FaultToleranceCampaign>,
) -> Result<WorkerSummary, FabricError> {
    let mut summary = WorkerSummary::default();
    let (worker_id, session, manifest) = register(transport, &config.name)?;
    summary.worker_id = worker_id;
    summary.session = session;
    summary.registrations = 1;

    let prepared;
    let campaign = match shared {
        Some(campaign) => {
            validate_baseline(&manifest, campaign).map_err(|e| {
                FabricError::incompatible(format!(
                    "prepared campaign does not reproduce the coordinator's baseline: {e}"
                ))
            })?;
            campaign
        }
        None => {
            let mut campaign_config = manifest.config.clone();
            if config.cache_dir.is_some() {
                campaign_config.cache_dir = config.cache_dir.clone();
            }
            let campaign = FaultToleranceCampaign::prepare(&campaign_config)
                .map_err(|e| FabricError::Sweep(e.into()))?;
            validate_baseline(&manifest, &campaign).map_err(|e| {
                FabricError::incompatible(format!(
                    "locally prepared campaign does not reproduce the coordinator's \
                     baseline: {e}"
                ))
            })?;
            prepared = campaign;
            &prepared
        }
    };

    let plan = manifest.plan();
    let units_table = plan.units().to_vec();
    let expected_hash = manifest.content_hash.clone();

    loop {
        let response = transport.call(&Request::Lease {
            worker_id: summary.worker_id,
            max_units: config.max_units,
        })?;
        match response {
            Response::Leased { units, .. } => {
                let mut held: Vec<u64> = units;
                while !held.is_empty() {
                    // Renew every held lease before starting the next unit;
                    // drop any the coordinator says we no longer own.
                    let ack = transport.call(&Request::Heartbeat {
                        worker_id: summary.worker_id,
                        units: held.clone(),
                    })?;
                    match ack {
                        Response::HeartbeatAck { renewed, lost } => {
                            summary.lost_leases += lost.len() as u64;
                            held.retain(|u| renewed.contains(u));
                        }
                        Response::UnknownWorker { .. } => {
                            // Coordinator restarted: re-register below and
                            // abandon the held leases (the new coordinator
                            // will re-lease anything still pending).
                            held.clear();
                            reregister(transport, config, &expected_hash, &mut summary)?;
                            continue;
                        }
                        other => {
                            return Err(FabricError::protocol(format!(
                                "unexpected response to Heartbeat: {other:?}"
                            )))
                        }
                    }
                    if held.is_empty() {
                        break;
                    }
                    let unit_id = held.remove(0);
                    let unit = units_table.get(unit_id as usize).ok_or_else(|| {
                        FabricError::protocol(format!(
                            "coordinator leased unit {unit_id}, outside the plan of {} units",
                            units_table.len()
                        ))
                    })?;
                    let result = evaluate_unit(campaign, unit);
                    let ack = transport.call(&Request::Upload {
                        worker_id: summary.worker_id,
                        result,
                    })?;
                    match ack {
                        Response::UploadAck { outcome, unit } => match outcome {
                            UploadOutcome::Journaled => summary.units_completed += 1,
                            UploadOutcome::DuplicateIdentical => summary.duplicates += 1,
                            UploadOutcome::Conflict => {
                                return Err(FabricError::incompatible(format!(
                                    "upload for unit {unit} conflicts with an \
                                     already-journaled result — this worker's arithmetic \
                                     disagrees with the campaign's"
                                )))
                            }
                        },
                        Response::UnknownWorker { .. } => {
                            // The coordinator restarted between lease and
                            // upload. Re-register and re-send: the upload is
                            // idempotent, and the result is already computed.
                            reregister(transport, config, &expected_hash, &mut summary)?;
                            let ack = transport.call(&Request::Upload {
                                worker_id: summary.worker_id,
                                result,
                            })?;
                            match ack {
                                Response::UploadAck {
                                    outcome: UploadOutcome::Conflict,
                                    unit,
                                } => {
                                    return Err(FabricError::incompatible(format!(
                                        "upload for unit {unit} conflicts with an \
                                         already-journaled result"
                                    )))
                                }
                                Response::UploadAck {
                                    outcome: UploadOutcome::Journaled,
                                    ..
                                } => summary.units_completed += 1,
                                Response::UploadAck {
                                    outcome: UploadOutcome::DuplicateIdentical,
                                    ..
                                } => summary.duplicates += 1,
                                other => {
                                    return Err(FabricError::protocol(format!(
                                        "unexpected response to re-sent Upload: {other:?}"
                                    )))
                                }
                            }
                            held.clear();
                        }
                        Response::Error { message } => {
                            return Err(FabricError::protocol(format!(
                                "coordinator refused an upload: {message}"
                            )))
                        }
                        other => {
                            return Err(FabricError::protocol(format!(
                                "unexpected response to Upload: {other:?}"
                            )))
                        }
                    }
                }
            }
            Response::NoWork { done, retry_ms } => {
                if done {
                    return Ok(summary);
                }
                // Other workers hold live leases; wait for completion or
                // expiry (work stealing) and ask again.
                config.sleeper.sleep(Duration::from_millis(retry_ms.max(1)));
            }
            Response::UnknownWorker { .. } => {
                reregister(transport, config, &expected_hash, &mut summary)?;
            }
            Response::Error { message } => {
                return Err(FabricError::protocol(format!(
                    "coordinator refused a lease: {message}"
                )))
            }
            other => {
                return Err(FabricError::protocol(format!(
                    "unexpected response to Lease: {other:?}"
                )))
            }
        }
    }
}

/// Re-register after a coordinator restart, refusing to continue if the new
/// coordinator serves a different campaign.
fn reregister(
    transport: &mut dyn SweepTransport,
    config: &WorkerConfig,
    expected_hash: &str,
    summary: &mut WorkerSummary,
) -> Result<(), FabricError> {
    let (worker_id, session, manifest) = register(transport, &config.name)?;
    if manifest.content_hash != expected_hash {
        return Err(FabricError::incompatible(format!(
            "reconnected coordinator serves content hash {}, this worker registered \
             under {expected_hash}",
            manifest.content_hash
        )));
    }
    summary.worker_id = worker_id;
    summary.session = session;
    summary.registrations += 1;
    Ok(())
}
