//! Committed journals merge to their committed reports byte for byte.
//!
//! Each directory under `tests/fixtures/` is a completed test-scale run,
//! written by `wgft-sweep run` and reduced by `wgft-sweep merge` into its
//! `merged.json`. Merging needs no model, so this pins the manifest serde,
//! the content hash and the report bytes without training anything.

use std::fs;
use std::path::Path;
use wgft_sweep::{merge_sweep, Journal, MANIFEST_FILE};

#[test]
fn committed_journals_merge_to_their_committed_reports() {
    for name in ["protection_tradeoff", "find_critical_ber"] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let read = |file: &str| fs::read_to_string(dir.join(file)).expect("committed fixture");

        let journal = Journal::open(&dir).unwrap_or_else(|e| panic!("{name}: {e}"));
        let manifest = serde_json::to_string(journal.manifest()).expect("serialize") + "\n";
        assert_eq!(manifest, read(MANIFEST_FILE), "{name}: manifest bytes");

        let report = merge_sweep(&dir).unwrap_or_else(|e| panic!("{name}: {e}"));
        let merged = serde_json::to_string(&report).expect("serialize") + "\n";
        assert_eq!(merged, read("merged.json"), "{name}: merged report bytes");
    }
}
