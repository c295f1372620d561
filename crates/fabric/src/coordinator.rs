//! The coordinator: owns the run journal, decomposes the plan into leasable
//! units, and drives the lease lifecycle
//! (pending → leased → heartbeating → completed | expired → re-leased).
//!
//! All protocol state lives here behind [`Coordinator::handle`], a total
//! function from [`Request`] to [`Response`] — transports (in-process or
//! TCP) only move frames. Correctness rests on three properties:
//!
//! * **Idempotence** — every request can be applied twice with the same
//!   observable outcome, so clients may blindly re-send after a lost
//!   response.
//! * **Single writer** — only the coordinator appends to the journal, so
//!   the on-disk format needs no distributed coordination; a coordinator
//!   restart recovers from the journal exactly like a killed local sweep.
//! * **Determinism** — unit results are pure functions of the manifest, so
//!   a duplicate upload either matches bit-for-bit (accepted) or exposes an
//!   incompatible worker (rejected, run poisoned-free).

use crate::clock::Clock;
use crate::error::FabricError;
use crate::wire::{Request, Response, UploadOutcome};
use std::collections::BTreeMap;
use std::sync::Arc;
use wgft_sweep::{Journal, ResultAppender, UnitResult};

/// Tuning knobs of a coordinator.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// How long a lease lives without a heartbeat. A lease is expired once
    /// `now > leased_at + lease_ms` — a heartbeat arriving exactly at the
    /// deadline still renews.
    pub lease_ms: u64,
    /// Most units handed out per `Lease` request.
    pub max_units_per_lease: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            lease_ms: 10_000,
            max_units_per_lease: 2,
        }
    }
}

/// One live lease.
#[derive(Debug, Clone, Copy)]
struct Lease {
    worker_id: u64,
    expires_at_ms: u64,
}

/// Counters the coordinator keeps per run (diagnostics; not part of the
/// journal or the merged report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Leases handed out (including re-leases).
    pub leases_granted: u64,
    /// Leases that expired without a completing upload.
    pub leases_expired: u64,
    /// Uploads journaled first.
    pub results_journaled: u64,
    /// Duplicate uploads that matched bit-for-bit.
    pub duplicates_identical: u64,
    /// Duplicate uploads that conflicted (rejected).
    pub conflicts_rejected: u64,
}

/// The protocol state machine around one run journal.
pub struct Coordinator {
    journal: Journal,
    manifest_json: String,
    unit_lens: Vec<u64>,
    completed: BTreeMap<u64, UnitResult>,
    appender: ResultAppender,
    leases: BTreeMap<u64, Lease>,
    workers: BTreeMap<u64, String>,
    next_worker_id: u64,
    clock: Arc<dyn Clock>,
    config: FabricConfig,
    session: String,
    stats: CoordinatorStats,
    shutdown_requested: bool,
}

impl Coordinator {
    /// Build a coordinator over an existing journal, recovering every
    /// already-completed unit (so a restarted coordinator resumes the
    /// campaign exactly where the journal stops).
    ///
    /// # Errors
    ///
    /// Fails on journal I/O or consistency errors.
    pub fn new(
        journal: Journal,
        clock: Arc<dyn Clock>,
        config: FabricConfig,
        session: impl Into<String>,
    ) -> Result<Self, FabricError> {
        let manifest_json = serde_json::to_string(journal.manifest())
            .map_err(|e| FabricError::protocol(format!("manifest serialization failed: {e}")))?;
        let unit_lens: Vec<u64> = journal
            .manifest()
            .plan()
            .units()
            .iter()
            .map(|u| u.len as u64)
            .collect();
        let completed = journal.completed()?.results;
        // The fabric coordinator is the journal's single writer, so the
        // canonical 1x0 result file is shared with (and resumable as) a
        // single-process local run.
        let appender = journal.appender(1, 0)?;
        Ok(Self {
            journal,
            manifest_json,
            unit_lens,
            completed,
            appender,
            leases: BTreeMap::new(),
            workers: BTreeMap::new(),
            next_worker_id: 1,
            clock,
            config,
            session: session.into(),
            stats: CoordinatorStats::default(),
            shutdown_requested: false,
        })
    }

    /// The journal this coordinator writes.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Whether every unit in the plan is journaled.
    #[must_use]
    pub fn done(&self) -> bool {
        self.completed.len() as u64 == self.unit_lens.len() as u64
    }

    /// Diagnostic counters.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Whether a drain ([`Request::Shutdown`]) has been recorded. The serve
    /// loop combines this with [`Coordinator::done`] to exit promptly once
    /// the plan completes, instead of lingering on a timing heuristic.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Drop every lease whose deadline has passed (strictly: expired means
    /// `now > expires_at`, so a heartbeat at the exact deadline wins).
    fn expire_leases(&mut self) {
        let now = self.clock.now_ms();
        let before = self.leases.len();
        self.leases.retain(|_, lease| now <= lease.expires_at_ms);
        self.stats.leases_expired += (before - self.leases.len()) as u64;
    }

    /// Apply one request. Never panics and never returns transport errors:
    /// anything unacceptable becomes [`Response::Error`] (or
    /// [`Response::UnknownWorker`]) so the worker can decide how to recover.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.expire_leases();
        match request {
            Request::Register {
                worker,
                arithmetic_mode,
            } => self.register(worker, arithmetic_mode),
            Request::Lease {
                worker_id,
                max_units,
            } => self.lease(*worker_id, *max_units),
            Request::Heartbeat { worker_id, units } => self.heartbeat(*worker_id, units),
            Request::Upload { worker_id, result } => self.upload(*worker_id, result),
            Request::Status => Response::Status {
                done: self.completed.len() as u64,
                total: self.unit_lens.len() as u64,
                leased: self.leases.len() as u64,
                workers: self.workers.len() as u64,
            },
            Request::Shutdown => {
                // Idempotent: the first request and every re-send flip the
                // same flag and report the same observable state.
                self.shutdown_requested = true;
                Response::ShutdownAck { done: self.done() }
            }
        }
    }

    fn register(&mut self, worker: &str, arithmetic_mode: &str) -> Response {
        // Gate on the journal's recorded mode, not this build's: a worker
        // reports the mode its build computes under, and only results
        // computed in the journal's mode merge bit-identically. A journal
        // from a build with another mode refuses every worker of this one.
        let journal_mode = &self.journal.manifest().arithmetic_mode;
        if arithmetic_mode != journal_mode {
            return Response::Error {
                message: format!(
                    "worker `{worker}` reports arithmetic mode `{arithmetic_mode}`, but \
                     this journal records `{journal_mode}` — its results would not merge \
                     bit-identically"
                ),
            };
        }
        let worker_id = self.next_worker_id;
        self.next_worker_id += 1;
        self.workers.insert(worker_id, worker.to_string());
        Response::Registered {
            worker_id,
            session: self.session.clone(),
            lease_ms: self.config.lease_ms,
            manifest_json: self.manifest_json.clone(),
        }
    }

    fn lease(&mut self, worker_id: u64, max_units: u32) -> Response {
        if !self.workers.contains_key(&worker_id) {
            return Response::UnknownWorker { worker_id };
        }
        let now = self.clock.now_ms();
        let mut units = Vec::new();
        let cap = max_units.clamp(1, self.config.max_units_per_lease) as usize;
        for unit_id in 0..self.unit_lens.len() as u64 {
            if units.len() >= cap {
                break;
            }
            if self.completed.contains_key(&unit_id) || self.leases.contains_key(&unit_id) {
                continue;
            }
            self.leases.insert(
                unit_id,
                Lease {
                    worker_id,
                    expires_at_ms: now + self.config.lease_ms,
                },
            );
            units.push(unit_id);
        }
        if units.is_empty() {
            return Response::NoWork {
                done: self.done(),
                retry_ms: (self.config.lease_ms / 4).max(1),
            };
        }
        self.stats.leases_granted += units.len() as u64;
        Response::Leased {
            units,
            expires_in_ms: self.config.lease_ms,
        }
    }

    fn heartbeat(&mut self, worker_id: u64, units: &[u64]) -> Response {
        if !self.workers.contains_key(&worker_id) {
            return Response::UnknownWorker { worker_id };
        }
        let now = self.clock.now_ms();
        let mut renewed = Vec::new();
        let mut lost = Vec::new();
        for &unit_id in units {
            match self.leases.get_mut(&unit_id) {
                // Only the holder renews; an expired lease was already
                // dropped by `expire_leases`, so reaching here means the
                // heartbeat arrived at or before the deadline.
                Some(lease) if lease.worker_id == worker_id => {
                    lease.expires_at_ms = now + self.config.lease_ms;
                    renewed.push(unit_id);
                }
                _ => lost.push(unit_id),
            }
        }
        Response::HeartbeatAck { renewed, lost }
    }

    fn upload(&mut self, worker_id: u64, result: &UnitResult) -> Response {
        if !self.workers.contains_key(&worker_id) {
            return Response::UnknownWorker { worker_id };
        }
        let Some(&expected_len) = self.unit_lens.get(result.unit as usize) else {
            return Response::Error {
                message: format!(
                    "unit id {} outside the plan (0..{})",
                    result.unit,
                    self.unit_lens.len()
                ),
            };
        };
        if result.len != expected_len || result.correct > result.len {
            return Response::Error {
                message: format!(
                    "result {result:?} inconsistent with the plan (unit len {expected_len})"
                ),
            };
        }
        if let Some(previous) = self.completed.get(&result.unit) {
            // The same duplicate rule as the journal reader: identical is
            // idempotent, a disagreement exposes a broken worker. A late
            // upload after a lease expired and the unit was re-run lands
            // here too — accepted if identical, rejected if conflicting.
            return if previous == result {
                self.stats.duplicates_identical += 1;
                Response::UploadAck {
                    unit: result.unit,
                    outcome: UploadOutcome::DuplicateIdentical,
                }
            } else {
                self.stats.conflicts_rejected += 1;
                Response::UploadAck {
                    unit: result.unit,
                    outcome: UploadOutcome::Conflict,
                }
            };
        }
        if let Err(e) = self.appender.append(result) {
            return Response::Error {
                message: format!("journal append failed: {e}"),
            };
        }
        self.completed.insert(result.unit, *result);
        // Whoever held the lease, the unit is finished.
        self.leases.remove(&result.unit);
        self.stats.results_journaled += 1;
        Response::UploadAck {
            unit: result.unit,
            outcome: UploadOutcome::Journaled,
        }
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("dir", &self.journal.dir())
            .field("session", &self.session)
            .field("done", &self.completed.len())
            .field("total", &self.unit_lens.len())
            .field("leased", &self.leases.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}
