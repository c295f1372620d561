//! The serving daemon: a [`FramedTcpServer`] front end feeding a single
//! worker thread that owns the [`ServeEngine`] exclusively.
//!
//! Handler threads (one per connection, inside the fabric's framed server)
//! decode requests, refuse malformed images (wrong length, non-finite
//! pixels) with an explicit error, apply admission control (hard-capacity
//! `Overloaded`, escalated `Degraded` sheds — both explicit, never silent),
//! enqueue jobs and block on a per-job channel for the answer. The worker
//! pops micro-batches from the [`IntakeQueue`] — whatever is queued when it
//! frees up, with no batching window — routes every job through the tier
//! the escalation level dictates, feeds protection events back into the
//! [`EscalationMonitor`], and publishes the level for the next admission
//! decisions. Each answered request's queue wait (enqueue to the start of
//! its batch) and service time land in its tenant's counters. No lock is
//! held across a forward pass.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wgft_abft::AbftEvents;
use wgft_fabric::wire::{decode, encode};
use wgft_fabric::{Clock, FrameHandler, FramedTcpServer};
use wgft_tensor::{Shape, Tensor};

use crate::counters::{ServeCounters, TenantTier};
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::monitor::{EscalationMonitor, MonitorConfig};
use crate::proto::{ServeRequest, ServeResponse};
use crate::queue::{BatchConfig, IntakeQueue, Job, PushError};
use crate::tier::ProtectionTier;

/// Everything the daemon needs besides the engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tenant tag → base protection tier.
    pub tenants: BTreeMap<String, ProtectionTier>,
    /// Tier of tenants not in the map.
    pub default_tier: ProtectionTier,
    /// Micro-batching and queue capacity.
    pub batch: BatchConfig,
    /// Escalation thresholds.
    pub monitor: MonitorConfig,
    /// How long a handler waits for the worker's answer before giving the
    /// client an explicit error.
    pub response_timeout_ms: u64,
    /// Retry delay suggested in `Overloaded`/`Degraded` responses.
    pub retry_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tenants: BTreeMap::new(),
            default_tier: ProtectionTier::Fast,
            batch: BatchConfig::default(),
            monitor: MonitorConfig::default(),
            response_timeout_ms: 30_000,
            retry_ms: 50,
        }
    }
}

impl ServeConfig {
    /// The base tier of `tenant`.
    #[must_use]
    pub fn base_tier(&self, tenant: &str) -> ProtectionTier {
        self.tenants
            .get(tenant)
            .copied()
            .unwrap_or(self.default_tier)
    }
}

/// Engine facts the handler threads need without touching the engine.
#[derive(Debug, Clone)]
struct EngineMeta {
    config_json: String,
    algo: String,
    clean_accuracy: f64,
    chaos: bool,
    profile_hash: Option<String>,
    image_shape: Shape,
    image_len: usize,
}

/// State shared between handler threads and the worker.
struct DaemonShared {
    config: ServeConfig,
    meta: EngineMeta,
    queue: IntakeQueue,
    counters: ServeCounters,
    /// Escalation level as last published by the worker (admission gauge).
    level: AtomicU32,
    shutdown: AtomicBool,
}

impl DaemonShared {
    fn level(&self) -> u32 {
        self.level.load(Ordering::Relaxed)
    }

    fn tenant_tiers(&self) -> Vec<TenantTier> {
        let level = self.level();
        self.config
            .tenants
            .iter()
            .map(|(tenant, base)| TenantTier {
                tenant: tenant.clone(),
                base: *base,
                effective: base.promoted_by(level),
            })
            .collect()
    }

    fn handle_classify(&self, request_id: u64, tenant: String, image: Vec<f32>) -> ServeResponse {
        if image.len() != self.meta.image_len {
            return ServeResponse::Error {
                message: format!(
                    "image has {} values, the served model expects {}",
                    image.len(),
                    self.meta.image_len
                ),
            };
        }
        if let Some(index) = image.iter().position(|pixel| !pixel.is_finite()) {
            return ServeResponse::Error {
                message: format!(
                    "pixel {index} is {}: the served model takes finite pixels only",
                    image[index]
                ),
            };
        }
        let level = self.level();
        let base = self.config.base_tier(&tenant);
        // Degraded mode: once escalated and over the soft watermark, shed
        // unprotected-tier traffic explicitly so protected tenants keep
        // their latency. The client's retry layer absorbs the shed.
        if level > 0
            && base == ProtectionTier::Fast
            && self.queue.depth() >= self.config.batch.soft_watermark
        {
            self.counters.note_shed(&tenant);
            return ServeResponse::Degraded {
                level,
                retry_ms: self.config.retry_ms,
            };
        }
        let image = match Tensor::from_vec(self.meta.image_shape.clone(), image) {
            Ok(tensor) => tensor,
            Err(e) => {
                return ServeResponse::Error {
                    message: format!("bad image: {e}"),
                }
            }
        };
        let (tx, rx) = mpsc::channel();
        let job = Job {
            request_id,
            tenant: tenant.clone(),
            image,
            respond: tx,
            enqueued_at: Instant::now(),
        };
        match self.queue.push(job) {
            Ok(depth) => self.counters.note_accepted(depth as u64),
            Err(PushError::Full) => {
                self.counters.note_overloaded();
                return ServeResponse::Overloaded {
                    retry_ms: self.config.retry_ms,
                };
            }
            Err(PushError::Closed) => {
                return ServeResponse::Error {
                    message: "daemon is shutting down".to_string(),
                }
            }
        }
        match rx.recv_timeout(Duration::from_millis(self.config.response_timeout_ms)) {
            Ok(response) => response,
            Err(_) => ServeResponse::Error {
                message: "timed out waiting for the inference worker".to_string(),
            },
        }
    }

    fn handle_request(&self, request: ServeRequest) -> ServeResponse {
        match request {
            ServeRequest::Classify {
                request_id,
                tenant,
                image,
            } => self.handle_classify(request_id, tenant, image),
            ServeRequest::Status => ServeResponse::Status(
                self.counters
                    .snapshot(self.queue.depth() as u64, self.level()),
            ),
            ServeRequest::Health => ServeResponse::Health {
                config_json: self.meta.config_json.clone(),
                algo: self.meta.algo.clone(),
                clean_accuracy: self.meta.clean_accuracy,
                chaos: self.meta.chaos,
                profile_hash: self.meta.profile_hash.clone(),
                escalation_level: self.level(),
                tenants: self.tenant_tiers(),
            },
            ServeRequest::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                // Jobs still queued get an explicit answer — the daemon
                // never leaves a client hanging on a silent drop.
                for job in self.queue.close() {
                    let _ = job.respond.send(ServeResponse::Error {
                        message: "daemon is shutting down".to_string(),
                    });
                }
                ServeResponse::ShutdownAck
            }
        }
    }
}

impl FrameHandler for DaemonShared {
    fn handle_frame(&self, payload: &[u8]) -> Option<Vec<u8>> {
        let request: ServeRequest = decode(payload).ok()?;
        let response = self.handle_request(request);
        encode(&response).ok()
    }
}

/// The running daemon: framed TCP front end + inference worker.
pub struct ServeDaemon {
    server: FramedTcpServer,
    shared: Arc<DaemonShared>,
    worker: Option<JoinHandle<()>>,
}

impl ServeDaemon {
    /// Bind `addr`, start the worker thread around `engine` and begin
    /// accepting connections. The monitor reads time from `clock`
    /// (pass [`wgft_fabric::SystemClock`] in production,
    /// [`wgft_fabric::ManualClock`] in tests).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if `config.batch.max_delay_ms` is not 0 (the
    /// daemon has no batching window) or `max_batch` or `max_queue` is 0 (a
    /// worker that takes no job from a queue would spin while every request
    /// times out), [`ServeError::Transport`] if the listener cannot bind.
    pub fn spawn(
        engine: ServeEngine,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        addr: &str,
    ) -> Result<Self, ServeError> {
        if config.batch.max_delay_ms != 0 {
            return Err(ServeError::config(format!(
                "batch.max_delay_ms is {}, but the daemon has no batching window: \
                 a batch takes only the requests already queued, so it must be 0",
                config.batch.max_delay_ms
            )));
        }
        for (field, value) in [
            ("max_batch", config.batch.max_batch),
            ("max_queue", config.batch.max_queue),
        ] {
            if value == 0 {
                return Err(ServeError::config(format!(
                    "batch.{field} is 0, but it must be at least 1"
                )));
            }
        }
        let meta = EngineMeta {
            config_json: engine.config_json().to_string(),
            algo: engine.algo_label().to_string(),
            clean_accuracy: engine.clean_accuracy(),
            chaos: engine.chaos_active(),
            profile_hash: engine.profile_hash().map(str::to_string),
            image_shape: engine.image_shape(),
            image_len: engine.image_len(),
        };
        let shared = Arc::new(DaemonShared {
            queue: IntakeQueue::new(config.batch),
            config,
            meta,
            counters: ServeCounters::new(),
            level: AtomicU32::new(0),
            shutdown: AtomicBool::new(false),
        });
        let monitor = EscalationMonitor::new(shared.config.monitor, clock);
        let worker = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("wgft-serve-worker".to_string())
                .spawn(move || worker_loop(engine, monitor, &shared))
                .map_err(|e| ServeError::Server(format!("spawning worker: {e}")))?
        };
        let server = FramedTcpServer::spawn(Arc::clone(&shared) as Arc<dyn FrameHandler>, addr)?;
        Ok(Self {
            server,
            shared,
            worker: Some(worker),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Whether a `Shutdown` request has been received.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Counter snapshot (same data the `Status` endpoint serves).
    #[must_use]
    pub fn snapshot(&self) -> crate::counters::CountersSnapshot {
        self.shared
            .counters
            .snapshot(self.shared.queue.depth() as u64, self.shared.level())
    }

    /// Block until a `Shutdown` request arrives, then stop.
    pub fn run_until_shutdown(&mut self) {
        while !self.shutdown_requested() {
            thread::sleep(Duration::from_millis(20));
        }
        self.stop();
    }

    /// Drain and stop everything: close the queue (answering any queued
    /// jobs explicitly), join the worker, stop the accept loop.
    pub fn stop(&mut self) {
        for job in self.shared.queue.close() {
            let _ = job.respond.send(ServeResponse::Error {
                message: "daemon is shutting down".to_string(),
            });
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        self.server.stop();
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The worker loop: pop micro-batches until the queue closes, serve every
/// job at its escalation-adjusted tier, feed the monitor, publish the level.
fn worker_loop(mut engine: ServeEngine, mut monitor: EscalationMonitor, shared: &DaemonShared) {
    let mut published_level = 0u32;
    while let Some(batch) = shared.queue.pop_batch() {
        let batch_started = Instant::now();
        let queue_us = |job: &Job| {
            batch_started
                .saturating_duration_since(job.enqueued_at)
                .as_micros() as u64
        };
        let level = monitor.level();
        if level > published_level {
            shared.counters.note_escalation();
        }
        published_level = level;
        shared.level.store(level, Ordering::Relaxed);
        shared.counters.note_batch(batch.len() as u64);

        // Split the batch: fault-free fast-tier jobs coalesce into one
        // batched forward pass; everything else (protected tiers, and the
        // fast tier under chaos, whose per-request fault streams must not
        // depend on batch composition) runs per job.
        let mut fast_batch: Vec<Job> = Vec::new();
        let mut singles: Vec<(Job, ProtectionTier, bool)> = Vec::new();
        for job in batch {
            let base = shared.config.base_tier(&job.tenant);
            let effective = base.promoted_by(level);
            if effective == ProtectionTier::Fast && !engine.chaos_active() {
                fast_batch.push(job);
            } else {
                singles.push((job, effective, effective != base));
            }
        }

        if !fast_batch.is_empty() {
            let started = Instant::now();
            let images: Vec<&Tensor> = fast_batch.iter().map(|j| &j.image).collect();
            let outcome = engine.classify_fast_batch(&images);
            let per_job_us =
                (started.elapsed().as_micros() as u64) / fast_batch.len().max(1) as u64;
            match outcome {
                Ok(predictions) => {
                    for (job, prediction) in fast_batch.into_iter().zip(predictions) {
                        shared.counters.note_served(
                            &job.tenant,
                            &AbftEvents::new(),
                            false,
                            queue_us(&job),
                            per_job_us,
                        );
                        let _ = job.respond.send(ServeResponse::Classified {
                            request_id: job.request_id,
                            prediction,
                            tier: ProtectionTier::Fast,
                            promoted: false,
                        });
                    }
                }
                Err(e) => {
                    let message = format!("inference failed: {e}");
                    for job in fast_batch {
                        let _ = job.respond.send(ServeResponse::Error {
                            message: message.clone(),
                        });
                    }
                }
            }
        }

        for (job, effective, promoted) in singles {
            let started = Instant::now();
            let outcome = if effective == ProtectionTier::Profile {
                engine.classify_profiled(job.request_id, &job.image)
            } else {
                match effective.policy() {
                    None => engine
                        .classify_fast_chaos(job.request_id, &job.image)
                        .map(|prediction| (prediction, AbftEvents::new())),
                    Some(policy) => engine.classify_protected(job.request_id, &job.image, &policy),
                }
            };
            let service_us = started.elapsed().as_micros() as u64;
            match outcome {
                Ok((prediction, events)) => {
                    monitor.observe(events.detected, events.uncorrected);
                    shared.counters.note_served(
                        &job.tenant,
                        &events,
                        promoted,
                        queue_us(&job),
                        service_us,
                    );
                    let _ = job.respond.send(ServeResponse::Classified {
                        request_id: job.request_id,
                        prediction,
                        tier: effective,
                        promoted,
                    });
                }
                Err(e) => {
                    let _ = job.respond.send(ServeResponse::Error {
                        message: format!("inference failed: {e}"),
                    });
                }
            }
        }

        // Publish any escalation the batch's own events caused, so the
        // very next admission decision sees it.
        let after = monitor.level();
        if after > published_level {
            shared.counters.note_escalation();
            published_level = after;
        }
        shared.level.store(after, Ordering::Relaxed);
    }
}
