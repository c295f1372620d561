//! Executable algorithm-based fault tolerance (ABFT) for the winograd
//! fault-injection platform.
//!
//! Every protection scheme the workspace had before this crate was
//! *idealized*: a [`wgft_faultsim::ProtectionPlan`] masks faults before they
//! corrupt anything, and the TMR planner only charges a cost model. Nothing
//! actually detected or corrected an injected fault. This crate closes that
//! gap with protection that **executes**:
//!
//! * [`checked_gemm_i64`] — classic Huang–Abraham row/column checksums
//!   around the winograd-domain (and im2col standard-conv) GEMMs: single
//!   errors are located and corrected exactly, anything messier falls back
//!   to a recompute.
//! * Transform guards — the `Bᵀ·B` / `Aᵀ·A` winograd transforms are linear,
//!   so a column checksum carried through them detects transform-stage
//!   faults at `O(t²)` cost per tile ([`abft_winograd_conv`]).
//! * Range restriction — [`AbftMode::Range`] clips winograd-domain values
//!   and output accumulators to calibrated per-layer ranges
//!   ([`AbftCalibration`]), the detector-free baseline from the
//!   fault-tolerance literature.
//! * [`AbftPolicy`] — per-layer off / range / checksum / checksum+range with
//!   a recompute-on-detect switch; composes with the idealized
//!   [`wgft_faultsim::ProtectionPlan`] (which keeps masking *inside* the
//!   arithmetic) and reports what happened through [`AbftEvents`]:
//!   detected/corrected/uncorrected counts plus the exact extra Mul/Add
//!   work as a [`wgft_faultsim::OpCount`].
//!
//! The protected executors ([`abft_winograd_conv`], [`abft_direct_conv`],
//! [`abft_linear`]) keep issuing every primitive operation through the
//! instrumented [`wgft_faultsim::Arithmetic`] backend, so soft errors strike
//! the protected datapath exactly as they strike the unprotected one — the
//! protection earns its accuracy back at runtime or not at all.
//!
//! Where no fault can strike, the same protection runs on the fast integer
//! engines instead ([`WinogradChecks`], [`fast_gemm_ok`]): every check still
//! verifies its invariant on the values actually computed, and a run whose
//! checks all hold reports exactly the instrumented run's [`AbftEvents`].
//!
//! `wgft-nn` threads an [`AbftPolicy`] through `QuantizedNetwork` forwards,
//! `wgft-core` builds the accuracy-vs-overhead `protection_tradeoff`
//! campaign on top, and `wgft-sweep` shards that campaign with journaled,
//! bit-identical-on-resume execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod engine;
mod fast;
mod policy;
mod profile;

pub use checksum::{checked_gemm_i64, plain_gemm_i64, MAX_RECOMPUTES};
pub use engine::{
    abft_direct_conv, abft_linear, abft_winograd_conv, clip_accumulators, observe_max, AbftRun,
    AbftScratch,
};
pub use fast::{fast_gemm_ok, WinogradChecks};
pub use policy::{AbftCalibration, AbftEvents, AbftMode, AbftPolicy, LayerRanges};
pub use profile::{
    LayerChoice, MeasuredDelta, ProfileError, ProfileProvenance, ProtectionProfile, PROFILE_VERSION,
};
