//! Structured serving counters: per-tenant protection events, batching and
//! queueing health, all additive and exported verbatim through the `Status`
//! endpoint (and from there into `BENCH_serve.json`).

use crate::tier::ProtectionTier;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use wgft_abft::AbftEvents;

/// Counters of one tenant (additive; merging snapshots is summation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Classify requests answered.
    pub requests: u64,
    /// Requests served at a tier stronger than the tenant's base tier
    /// (escalation promotions).
    pub promoted: u64,
    /// Requests shed with an explicit `Degraded` response.
    pub shed: u64,
    /// Checksum/guard mismatches observed.
    pub detected: u64,
    /// Errors repaired (located-and-corrected or verified recompute).
    pub corrected: u64,
    /// Detections that could not be repaired.
    pub uncorrected: u64,
    /// Recompute fallbacks taken.
    pub recomputes: u64,
    /// Values clamped by range restriction.
    pub clipped: u64,
    /// Summed server-side service time in microseconds (latency =
    /// `service_us / requests`; the load client measures percentiles).
    pub service_us: u64,
    /// Summed queue wait in microseconds: from each answered request's
    /// enqueue to the start of the batch that served it (mean wait =
    /// `queue_us / requests`). Absent from older snapshots, where it reads 0.
    #[serde(default)]
    pub queue_us: u64,
}

impl TenantCounters {
    /// Fold one request's protection events into the tally.
    pub fn absorb(&mut self, events: &AbftEvents) {
        self.detected += events.detected;
        self.corrected += events.corrected;
        self.uncorrected += events.uncorrected;
        self.recomputes += events.recomputes;
        self.clipped += events.clipped;
    }
}

/// Daemon-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GlobalCounters {
    /// Classify requests accepted into the queue.
    pub accepted: u64,
    /// Requests refused with `Overloaded` (queue at capacity).
    pub overloaded: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Images summed over executed batches (`batches > 0` implies
    /// `batch fill = batched_images / batches`).
    pub batched_images: u64,
    /// Largest micro-batch executed.
    pub max_batch: u64,
    /// Deepest queue observed at enqueue time.
    pub max_queue_depth: u64,
    /// Escalation promotions applied by the fault monitor.
    pub escalations: u64,
}

/// A point-in-time copy of every counter, as served by `Status`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CountersSnapshot {
    /// Daemon-wide counters.
    pub global: GlobalCounters,
    /// Per-tenant counters, keyed by tenant tag.
    pub tenants: BTreeMap<String, TenantCounters>,
    /// Current queue depth (gauge, not additive).
    pub queue_depth: u64,
    /// Current escalation level (gauge).
    pub escalation_level: u32,
}

impl CountersSnapshot {
    /// Sum of detected events across tenants.
    #[must_use]
    pub fn total_detected(&self) -> u64 {
        self.tenants.values().map(|t| t.detected).sum()
    }

    /// Sum of corrected events across tenants.
    #[must_use]
    pub fn total_corrected(&self) -> u64 {
        self.tenants.values().map(|t| t.corrected).sum()
    }

    /// Sum of answered requests across tenants.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.tenants.values().map(|t| t.requests).sum()
    }
}

/// The live, shared counter store. All writers go through the mutex — the
/// counters are off the per-batch hot path (one lock per batch / response),
/// so contention is negligible next to a forward pass.
#[derive(Debug, Default)]
pub struct ServeCounters {
    inner: Mutex<CountersInner>,
}

#[derive(Debug, Default)]
struct CountersInner {
    global: GlobalCounters,
    tenants: BTreeMap<String, TenantCounters>,
}

impl ServeCounters {
    /// Fresh counters, all zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a request accepted into the queue at `depth`.
    pub fn note_accepted(&self, depth: u64) {
        let mut inner = self.inner.lock().expect("counters mutex");
        inner.global.accepted += 1;
        inner.global.max_queue_depth = inner.global.max_queue_depth.max(depth);
    }

    /// Record a request refused with `Overloaded`.
    pub fn note_overloaded(&self) {
        self.inner.lock().expect("counters mutex").global.overloaded += 1;
    }

    /// Record a request shed with `Degraded` for `tenant`.
    pub fn note_shed(&self, tenant: &str) {
        let mut inner = self.inner.lock().expect("counters mutex");
        inner.tenants.entry(tenant.to_string()).or_default().shed += 1;
    }

    /// Record one executed micro-batch of `images` images.
    pub fn note_batch(&self, images: u64) {
        let mut inner = self.inner.lock().expect("counters mutex");
        inner.global.batches += 1;
        inner.global.batched_images += images;
        inner.global.max_batch = inner.global.max_batch.max(images);
    }

    /// Record an escalation promotion.
    pub fn note_escalation(&self) {
        self.inner
            .lock()
            .expect("counters mutex")
            .global
            .escalations += 1;
    }

    /// Record one answered request for `tenant`: its protection events,
    /// whether the serving tier was promoted, its queue wait and its
    /// service time.
    pub fn note_served(
        &self,
        tenant: &str,
        events: &AbftEvents,
        promoted: bool,
        queue_us: u64,
        service_us: u64,
    ) {
        let mut inner = self.inner.lock().expect("counters mutex");
        let tenant = inner.tenants.entry(tenant.to_string()).or_default();
        tenant.requests += 1;
        tenant.promoted += u64::from(promoted);
        tenant.queue_us += queue_us;
        tenant.service_us += service_us;
        tenant.absorb(events);
    }

    /// Snapshot everything, attaching the current gauges.
    #[must_use]
    pub fn snapshot(&self, queue_depth: u64, escalation_level: u32) -> CountersSnapshot {
        let inner = self.inner.lock().expect("counters mutex");
        CountersSnapshot {
            global: inner.global,
            tenants: inner.tenants.clone(),
            queue_depth,
            escalation_level,
        }
    }
}

/// Convenience: the tier a tenant maps to, shown in `Health`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantTier {
    /// Tenant tag.
    pub tenant: String,
    /// Configured base tier.
    pub base: ProtectionTier,
    /// Tier currently in effect (base promoted by the escalation level).
    pub effective: ProtectionTier,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let counters = ServeCounters::new();
        counters.note_accepted(3);
        counters.note_accepted(7);
        counters.note_overloaded();
        counters.note_batch(4);
        counters.note_batch(2);
        let mut events = AbftEvents::new();
        events.detected = 2;
        events.corrected = 1;
        counters.note_served("gold", &events, false, 40, 1_500);
        counters.note_served("gold", &AbftEvents::new(), true, 2, 500);
        counters.note_shed("free");
        counters.note_escalation();

        let snap = counters.snapshot(5, 1);
        assert_eq!(snap.global.accepted, 2);
        assert_eq!(snap.global.overloaded, 1);
        assert_eq!(snap.global.batches, 2);
        assert_eq!(snap.global.batched_images, 6);
        assert_eq!(snap.global.max_batch, 4);
        assert_eq!(snap.global.max_queue_depth, 7);
        assert_eq!(snap.global.escalations, 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.escalation_level, 1);
        let gold = &snap.tenants["gold"];
        assert_eq!(gold.requests, 2);
        assert_eq!(gold.promoted, 1);
        assert_eq!(gold.detected, 2);
        assert_eq!(gold.corrected, 1);
        assert_eq!(gold.queue_us, 42);
        assert_eq!(gold.service_us, 2_000);
        assert_eq!(snap.tenants["free"].shed, 1);
        assert_eq!(snap.total_detected(), 2);
        assert_eq!(snap.total_corrected(), 1);
        assert_eq!(snap.total_requests(), 2);

        // Snapshots are plain serde data: they survive the wire.
        let json = serde_json::to_string(&snap).unwrap();
        let back: CountersSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_without_queue_wait_still_decode() {
        let old = r#"{"requests":3,"promoted":0,"shed":0,"detected":0,"corrected":0,"uncorrected":0,"recomputes":0,"clipped":0,"service_us":900}"#;
        let tenant: TenantCounters = serde_json::from_str(old).unwrap();
        assert_eq!(tenant.requests, 3);
        assert_eq!(tenant.service_us, 900);
        assert_eq!(tenant.queue_us, 0);
    }
}
