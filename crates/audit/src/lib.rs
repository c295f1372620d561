//! `wgft-audit` — the workspace's determinism auditor.
//!
//! The distributed sweep fabric's bit-identical merge guarantee rests on a
//! claim about *arithmetic*: every campaign-visible number is computed in
//! integer/fixed-point arithmetic (the `quantized-exact-v1` mode), or, for
//! the float training every worker runs locally, in fixed-order f32 kernels
//! whose output bits the pinned determinism vectors check, so any two builds
//! that agree on the manifest's arithmetic-mode tag produce the same bits.
//! This crate makes that claim *checkable* instead of asserted:
//!
//! * source regions carrying campaign-visible computation are annotated
//!   `// wgft-audit: consensus-critical` (item granularity) or
//!   `//! wgft-audit: consensus-critical` (whole file);
//! * inside those regions a token-level scanner ([`scan`]) flags the
//!   constructs that break cross-platform bit-identity: `f32`/`f64` types,
//!   casts and literals, `mul_add` (FMA), `HashMap`/`HashSet` iteration,
//!   `Instant`/`SystemTime` reads, unseeded RNG construction and rayon
//!   parallel reductions;
//! * a fixed-order float kernel can be carved out with
//!   `// wgft-audit: blessed(float-arith) -- why`, and anything else is
//!   suppressed only through the central allowlist ([`workspace`]), where a
//!   justification is mandatory;
//! * CI runs `wgft-audit check --deny new` against a checked-in fingerprint
//!   baseline, so any *new* finding fails the build even if historical ones
//!   are grandfathered.
//!
//! The scanner is std-only and parses nothing: it lexes comments, strings
//! and tokens (no `syn`, consistent with the workspace's vendored-deps
//! constraint) and resolves annotation extents by brace matching. See
//! [`scan::RULES`] for the taxonomy and the repo README's "Determinism"
//! section for the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod scan;
pub mod workspace;

pub use scan::{scan_source, severity_of, FileScan, Finding, Region, RULES};
pub use workspace::{
    collect_files, render_text, scan_workspace, AllowEntry, Allowlist, AuditReport, Baseline,
    ALLOWLIST_FILE, BASELINE_FILE,
};
