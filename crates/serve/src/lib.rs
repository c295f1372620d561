//! `wgft-serve` — a fault-tolerant inference daemon over the quantized
//! winograd stack, with per-tenant protection SLAs.
//!
//! The daemon loads one [`wgft_core::FaultToleranceCampaign`] model, builds
//! every plan once at startup (fast winograd plans, ABFT calibration), and
//! serves classify requests over the same `WGFB`-framed TCP protocol as
//! the sweep fabric:
//!
//! * **micro-batching** — requests queued behind a busy worker coalesce
//!   into the planned winograd engine's GEMM free dimension
//!   ([`queue::IntakeQueue`]; no batching window, so an idle daemon serves
//!   each request as it arrives), bit-identical to per-request execution
//!   for any batch composition;
//! * **protection tiers** — each tenant tag maps to a
//!   [`tier::ProtectionTier`] from the unprotected fast path up to
//!   checksums + range restriction + recompute (the paper's full scheme);
//! * **graceful degradation** — a rolling [`monitor::EscalationMonitor`]
//!   watches detected/uncorrected rates, promotes tenants to stronger
//!   tiers, and sheds load with explicit `Overloaded`/`Degraded` responses
//!   (never a silent drop);
//! * **chaos drills** — `--chaos` strikes live traffic on every tier with
//!   the campaigns' operation-level fault model (the fast tier by fault-site
//!   replay, the protected tiers on the instrumented ABFT path); fault
//!   streams are keyed by request id, so retries and daemon restarts are
//!   idempotent end to end.

pub mod client;
pub mod counters;
pub mod daemon;
pub mod engine;
pub mod error;
pub mod monitor;
pub mod proto;
pub mod queue;
pub mod tier;

pub use client::{Classification, HealthReport, ServeClient};
pub use counters::{CountersSnapshot, GlobalCounters, ServeCounters, TenantCounters, TenantTier};
pub use daemon::{ServeConfig, ServeDaemon};
pub use engine::{request_fault_seed, ChaosConfig, ServeEngine};
pub use error::ServeError;
pub use monitor::{EscalationMonitor, MonitorConfig};
pub use proto::{ServeRequest, ServeResponse};
pub use queue::{BatchConfig, IntakeQueue, Job, PushError};
pub use tier::ProtectionTier;
