//! The persistent run journal: a validated manifest plus append-only JSONL
//! result files.
//!
//! Layout of a run directory:
//!
//! ```text
//! <dir>/manifest.json            # plan identity, written atomically once
//! <dir>/results-<K>x<i>.jsonl    # one per (shard count, shard index) writer
//! ```
//!
//! The manifest embeds the full serialized [`CampaignConfig`], the sweep
//! kind, BER grid, chunking and a content hash over all of them; every
//! `resume`/`status`/`merge` recomputes the hash and refuses to touch a
//! journal whose manifest does not validate. Result files are append-only
//! JSONL — one completed [`UnitResult`] per line, written with a single
//! `write_all` + flush so a killed process can lose at most a partial
//! trailing line, which both the reader and the appender detect and drop.

use crate::error::SweepError;
use crate::unit::SweepPlan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use wgft_core::{CampaignConfig, SweepKind};

/// Journal format version (bumped on any incompatible layout change).
///
/// Version 2: unit results journal ABFT event counters and manifests record
/// the network's per-algorithm operation counts (the `protection_tradeoff`
/// campaign kind needs both to merge bit-identically).
///
/// Version 3: manifests record the arithmetic mode their results were
/// computed under (merging refuses a journal whose mode this build cannot
/// reproduce bit-identically) and an optional fabric-session tag naming the
/// distributed coordinator that created the run.
///
/// Version 4: manifests record the winograd tile variant the campaign
/// prepared and its interpolation point-set id (the numerics axis of the
/// tile-size×fault frontier). Version-3 journals predate the tile axis and
/// stay readable/resumable: they load with the default F(2x2,3x3) tile, and
/// validation rejects a v3 manifest claiming anything else.
///
/// Version 5: manifests record the campaign's dataset source (synthetic vs
/// real CIFAR-10 batches). Version-3/4 journals predate the knob and stay
/// readable/resumable: they load as synthetic-data runs, and validation
/// rejects an old manifest claiming anything else.
pub const JOURNAL_VERSION: u32 = 5;

/// Oldest journal format version this build still reads and resumes.
pub const MIN_JOURNAL_VERSION: u32 = 3;

/// The arithmetic mode this build journals results under.
///
/// Every campaign-visible number is computed in quantized integer/fixed-point
/// arithmetic with order-independent integer reductions, so results are
/// bit-identical across execution orders, thread counts and machines that
/// agree on this tag. A distributed worker whose build reports a different
/// mode must not contribute results, and `merge` refuses a journal recorded
/// under a mode the merging build cannot reproduce.
pub const ARITHMETIC_MODE: &str = "quantized-exact-v1";

/// File name of the manifest inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Skip-serializing predicate for the manifest's tile fields: the default
/// F(2x2,3x3) tile stays implicit, keeping default-tile v4 manifests (and
/// their content hashes) free of fields a v3 reader never wrote.
fn tile_is_default(tile: &wgft_winograd::WinogradVariant) -> bool {
    *tile == wgft_winograd::WinogradVariant::default()
}

/// Skip-serializing predicate for the manifest's dataset field: the synthetic
/// default stays implicit, keeping default-source v5 manifests (and their
/// content hashes) free of fields a v4 reader never wrote.
fn dataset_is_default(dataset: &wgft_core::DatasetSource) -> bool {
    dataset.is_synthetic()
}

/// 64-bit FNV-1a hash (stable, dependency-free; good enough to detect a
/// mismatched or edited manifest, not a cryptographic commitment).
// wgft-audit: consensus-critical -- content hashes must agree across every build
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One completed work unit, as journaled: the unit id, the number of
/// correctly classified images out of the unit's `len`, and the ABFT events
/// the unit's protected executions accumulated (all zero for unprotected
/// cells).
///
/// Every field is an order-independent sum over the unit's images, so any
/// shard layout, execution order or restart merges to the same totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitResult {
    /// Stable unit id from the plan table.
    pub unit: u64,
    /// Correct predictions in the unit's image range.
    pub correct: u64,
    /// Images evaluated (the unit's `len`; recorded for integrity checks).
    pub len: u64,
    /// ABFT checksum/guard mismatches detected.
    pub detected: u64,
    /// ABFT errors corrected (located-and-fixed or clean recompute).
    pub corrected: u64,
    /// ABFT detections left uncorrected.
    pub uncorrected: u64,
    /// ABFT recompute fallbacks taken.
    pub recomputes: u64,
    /// Values clamped by range restriction.
    pub clipped: u64,
    /// Extra protection multiplies.
    pub overhead_mul: u64,
    /// Extra protection additions.
    pub overhead_add: u64,
}

impl UnitResult {
    /// Rebuild the event record the unit's protected executions summed to.
    #[must_use]
    pub fn events(&self) -> wgft_abft::AbftEvents {
        let mut events = wgft_abft::AbftEvents::new();
        events.detected = self.detected;
        events.corrected = self.corrected;
        events.uncorrected = self.uncorrected;
        events.recomputes = self.recomputes;
        events.clipped = self.clipped;
        events.charge(self.overhead_mul, self.overhead_add);
        events
    }
}

/// The run manifest: everything needed to rebuild the unit table and verify
/// that a resuming process is executing the same campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Journal format version.
    pub version: u32,
    /// Which campaign this run decomposes.
    pub kind: SweepKind,
    /// The full campaign configuration (embedded so resume validates against
    /// it instead of trusting the caller).
    pub config: CampaignConfig,
    /// Requested BER grid (the plan derives the effective grid from it).
    pub bers: Vec<f64>,
    /// Images per work unit.
    pub chunk: usize,
    /// Evaluation-set size of the prepared campaign.
    pub images: usize,
    /// Number of units in the plan (redundant with the derivation; checked).
    pub unit_count: u64,
    /// Name of the prepared quantized network.
    pub model: String,
    /// Quantization width label.
    pub width: String,
    /// Winograd tile variant the campaign prepared (mirrors `config.tile`;
    /// recorded at top level so status/merge tag their reports without
    /// digging into the config). Absent in version-3 journals and for the
    /// default tile, loading as F(2x2,3x3) either way.
    #[serde(default, skip_serializing_if = "tile_is_default")]
    pub tile: wgft_winograd::WinogradVariant,
    /// Interpolation point-set id of the tile variant (provenance for the
    /// generated transforms; absent when the tile is the default).
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub tile_points: String,
    /// Dataset source the campaign trained and evaluated on (mirrors
    /// `config.dataset`; recorded at top level so status/merge can tag their
    /// reports without digging into the config). Absent in version-3/4
    /// journals and for the synthetic default, loading as synthetic either
    /// way.
    #[serde(default, skip_serializing_if = "dataset_is_default")]
    pub dataset: wgft_core::DatasetSource,
    /// Fault-free baseline accuracy of the prepared campaign.
    pub clean_accuracy: f64,
    /// Total operation count of the prepared network under standard
    /// convolution (the idealized-TMR overhead of the `protection_tradeoff`
    /// merge derives from it).
    pub standard_ops: wgft_faultsim::OpCount,
    /// Total operation count under winograd convolution.
    pub winograd_ops: wgft_faultsim::OpCount,
    /// Arithmetic mode the results are computed under (see
    /// [`ARITHMETIC_MODE`]). Part of the content hash: a journal recorded
    /// under a different mode is a different, incompatible run.
    pub arithmetic_mode: String,
    /// Session tag of the distributed coordinator that created this run
    /// (`None` for single-machine journals). Metadata only — two sessions
    /// that agree on the plan hash journal interchangeable results.
    pub fabric_session: Option<String>,
    /// FNV-1a hash (hex) over the plan identity; see [`Manifest::plan_hash`].
    pub content_hash: String,
}

impl Manifest {
    /// Build a manifest for a freshly planned run.
    #[allow(clippy::too_many_arguments)] // mirrors the manifest's own field list
    #[must_use]
    pub fn new(
        kind: SweepKind,
        config: CampaignConfig,
        bers: Vec<f64>,
        chunk: usize,
        images: usize,
        model: String,
        width: String,
        clean_accuracy: f64,
        standard_ops: wgft_faultsim::OpCount,
        winograd_ops: wgft_faultsim::OpCount,
    ) -> Self {
        let tile = config.tile;
        let tile_points = if tile_is_default(&tile) {
            String::new()
        } else {
            tile.point_set_id()
        };
        let dataset = config.dataset.clone();
        let mut manifest = Self {
            version: JOURNAL_VERSION,
            kind,
            config,
            bers,
            chunk,
            images,
            unit_count: 0,
            model,
            width,
            tile,
            tile_points,
            dataset,
            clean_accuracy,
            standard_ops,
            winograd_ops,
            arithmetic_mode: ARITHMETIC_MODE.to_string(),
            fabric_session: None,
            content_hash: String::new(),
        };
        manifest.unit_count = manifest.plan().units().len() as u64;
        manifest.content_hash = manifest.plan_hash();
        manifest
    }

    /// Tag this manifest with the fabric session that created the run.
    ///
    /// The tag is metadata outside the content hash, so a fabric journal and
    /// a single-machine journal of the same plan stay interchangeable.
    #[must_use]
    pub fn with_fabric_session(mut self, session: impl Into<String>) -> Self {
        self.fabric_session = Some(session.into());
        self
    }

    /// The content hash over the fields that determine the unit table and
    /// result compatibility: kind, config, BER grid, chunking, image count
    /// and arithmetic mode, each in its canonical JSON form.
    #[must_use]
    pub fn plan_hash(&self) -> String {
        let kind = serde_json::to_string(&self.kind).unwrap_or_default();
        let config = serde_json::to_string(&self.config).unwrap_or_default();
        let bers = serde_json::to_string(&self.bers).unwrap_or_default();
        let identity = format!(
            "v{}\n{kind}\n{config}\n{bers}\nchunk={}\nimages={}\narithmetic={}",
            self.version, self.chunk, self.images, self.arithmetic_mode
        );
        format!("{:016x}", fnv1a64(identity.as_bytes()))
    }

    /// Rebuild the unit table this manifest describes.
    #[must_use]
    pub fn plan(&self) -> SweepPlan {
        SweepPlan::new(self.kind, &self.bers, self.images, self.chunk)
    }

    /// Validate version, content hash and unit count.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Manifest`] describing the first mismatch.
    pub fn validate(&self) -> Result<(), SweepError> {
        if !(MIN_JOURNAL_VERSION..=JOURNAL_VERSION).contains(&self.version) {
            return Err(SweepError::manifest(format!(
                "journal version {} is outside the supported range \
                 {MIN_JOURNAL_VERSION}..={JOURNAL_VERSION}",
                self.version
            )));
        }
        // Version 3 predates the tile axis: every tile-related field must be
        // at its default, or the manifest was edited after the fact.
        if self.version < 4
            && (!tile_is_default(&self.tile)
                || !tile_is_default(&self.config.tile)
                || !self.tile_points.is_empty())
        {
            return Err(SweepError::manifest(format!(
                "journal version {} predates the tile axis but records tile {} \
                 (config tile {}, points \"{}\")",
                self.version, self.tile, self.config.tile, self.tile_points
            )));
        }
        // Versions 3/4 predate the dataset-source knob: a non-default source
        // in an old manifest means it was edited after the fact.
        if self.version < 5
            && (!dataset_is_default(&self.dataset) || !self.config.dataset.is_synthetic())
        {
            return Err(SweepError::manifest(format!(
                "journal version {} predates the dataset-source knob but records \
                 dataset source `{}` (config source `{}`)",
                self.version,
                self.dataset.label(),
                self.config.dataset.label()
            )));
        }
        // The top-level dataset tag mirrors the embedded config; a mismatch
        // means the manifest was edited inconsistently.
        if self.dataset != self.config.dataset {
            return Err(SweepError::manifest(format!(
                "manifest dataset source `{}` disagrees with the embedded config \
                 source `{}`",
                self.dataset.label(),
                self.config.dataset.label()
            )));
        }
        // The top-level tile tag mirrors the embedded config; a mismatch
        // means the manifest was edited inconsistently.
        if self.tile != self.config.tile {
            return Err(SweepError::manifest(format!(
                "manifest tile {} disagrees with the embedded config tile {}",
                self.tile, self.config.tile
            )));
        }
        let expected_points = if tile_is_default(&self.tile) {
            String::new()
        } else {
            self.tile.point_set_id()
        };
        if self.tile_points != expected_points {
            return Err(SweepError::manifest(format!(
                "manifest records point set \"{}\" for tile {}, expected \"{expected_points}\"",
                self.tile_points, self.tile
            )));
        }
        let expect = self.plan_hash();
        if self.content_hash != expect {
            return Err(SweepError::manifest(format!(
                "content hash mismatch: expected {expect} (derived from the plan), \
                 found {} — the manifest was edited or produced by an incompatible build",
                self.content_hash
            )));
        }
        let units = self.plan().units().len() as u64;
        if self.unit_count != units {
            return Err(SweepError::manifest(format!(
                "unit count mismatch: manifest says {}, plan derives {units}",
                self.unit_count
            )));
        }
        Ok(())
    }
}

/// Completed-unit results recovered from a journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletedSet {
    /// Unit id → journaled result (first occurrence wins; duplicates must
    /// agree).
    pub results: BTreeMap<u64, UnitResult>,
    /// Partial trailing lines dropped during recovery (one per file at most).
    pub dropped_partial_lines: usize,
}

/// A run journal rooted at one directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    manifest: Manifest,
}

impl Journal {
    /// Create a new journal: write the manifest atomically into `dir`
    /// (creating it). If a manifest already exists it must describe the same
    /// plan, in which case the existing journal is opened instead — so `run`
    /// is idempotent and doubles as `resume`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on an existing manifest with a different content
    /// hash, or if `manifest` does not validate.
    pub fn create(dir: impl Into<PathBuf>, manifest: Manifest) -> Result<Self, SweepError> {
        manifest.validate()?;
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SweepError::io(&dir, e))?;
        let path = dir.join(MANIFEST_FILE);
        if path.exists() {
            let existing = Self::open(&dir)?;
            if existing.manifest.content_hash != manifest.content_hash {
                return Err(SweepError::manifest(format!(
                    "already holds a different run (found content hash {}, new plan \
                     expects {}) — choose a fresh directory or resume the existing run",
                    existing.manifest.content_hash, manifest.content_hash
                ))
                .at_path(&path));
            }
            return Ok(existing);
        }
        let json = serde_json::to_string(&manifest)
            .map_err(|e| SweepError::manifest(format!("manifest serialization failed: {e}")))?;
        // Per-process temp name: concurrent `run` invocations on a fresh
        // directory (the documented way to start K shards) each stage their
        // own file, and the final renames are atomic and idempotent because
        // every process derives the byte-identical manifest.
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp.{}", std::process::id()));
        {
            let mut file = File::create(&tmp).map_err(|e| SweepError::io(&tmp, e))?;
            file.write_all(json.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.sync_all())
                .map_err(|e| SweepError::io(&tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| SweepError::io(&path, e))?;
        Ok(Self { dir, manifest })
    }

    /// Open an existing journal and validate its manifest.
    ///
    /// # Errors
    ///
    /// Fails if the directory has no manifest, the manifest does not parse,
    /// or validation fails.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SweepError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| SweepError::io(&path, e))?;
        let manifest: Manifest = serde_json::from_str(text.trim_end()).map_err(|e| {
            SweepError::manifest(format!("manifest does not parse: {e}")).at_path(&path)
        })?;
        manifest.validate().map_err(|e| e.at_path(&path))?;
        Ok(Self { dir, manifest })
    }

    /// The run directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// All result files currently in the journal, sorted by name.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be read.
    pub fn result_files(&self) -> Result<Vec<PathBuf>, SweepError> {
        let mut files = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| SweepError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| SweepError::io(&self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("results-") && name.ends_with(".jsonl") {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    /// Read every completed unit from every result file.
    ///
    /// A partial trailing line (the footprint of a killed writer) is dropped
    /// and counted; a malformed line anywhere else, an out-of-range unit id,
    /// a result whose `len` disagrees with the plan, or two journaled results
    /// for the same unit that disagree are hard errors — the journal is
    /// corrupt beyond what a kill can produce.
    ///
    /// # Errors
    ///
    /// See above; also fails on I/O errors.
    pub fn completed(&self) -> Result<CompletedSet, SweepError> {
        let plan = self.manifest.plan();
        let units = plan.units();
        let mut set = CompletedSet::default();
        for path in self.result_files()? {
            let text = fs::read_to_string(&path).map_err(|e| SweepError::io(&path, e))?;
            let ends_complete = text.is_empty() || text.ends_with('\n');
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                if i + 1 == lines.len() && !ends_complete {
                    // Partial trailing line from a killed writer. Dropped
                    // even if it happens to parse (the kill may have landed
                    // between the JSON bytes and the newline) — a finished
                    // writer always terminates its line, and the appender's
                    // tail repair truncates exactly this line, so counting
                    // it as done here would let a resume delete it from
                    // disk after skipping it.
                    set.dropped_partial_lines += 1;
                    continue;
                }
                let result: UnitResult = serde_json::from_str(line).map_err(|e| {
                    SweepError::journal(format!(
                        "{} line {}: malformed result ({e})",
                        path.display(),
                        i + 1
                    ))
                })?;
                let unit = units.get(result.unit as usize).ok_or_else(|| {
                    SweepError::journal(format!(
                        "{} line {}: unit id {} outside the plan (0..{})",
                        path.display(),
                        i + 1,
                        result.unit,
                        units.len()
                    ))
                })?;
                if result.len != unit.len as u64 || result.correct > result.len {
                    return Err(SweepError::journal(format!(
                        "{} line {}: result {result:?} inconsistent with unit {unit:?}",
                        path.display(),
                        i + 1
                    )));
                }
                if let Some(previous) = set.results.get(&result.unit) {
                    if *previous != result {
                        return Err(SweepError::journal(format!(
                            "unit {} journaled twice with different results: {previous:?} vs {result:?}",
                            result.unit
                        )));
                    }
                } else {
                    set.results.insert(result.unit, result);
                }
            }
        }
        Ok(set)
    }

    /// Open (or create) the append-only result file for one shard writer,
    /// repairing a partial trailing line first so new appends never merge
    /// into a corrupt tail.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn appender(&self, shards: u64, index: u64) -> Result<ResultAppender, SweepError> {
        let path = self.dir.join(format!("results-{shards}x{index}.jsonl"));
        ResultAppender::open(path)
    }
}

/// Append-only writer of one result file.
#[derive(Debug)]
pub struct ResultAppender {
    path: PathBuf,
    file: File,
}

impl ResultAppender {
    fn open(path: PathBuf) -> Result<Self, SweepError> {
        // Repair a partial trailing line left by a killed writer: truncate
        // back to the end of the last complete line.
        if let Ok(existing) = fs::read(&path) {
            if !existing.is_empty() && existing.last() != Some(&b'\n') {
                let keep = existing
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| SweepError::io(&path, e))?;
                file.set_len(keep as u64)
                    .and_then(|()| file.sync_all())
                    .map_err(|e| SweepError::io(&path, e))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| SweepError::io(&path, e))?;
        Ok(Self { path, file })
    }

    /// The file this appender writes.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed unit: the full line (JSON + newline) goes out in
    /// a single `write_all` followed by a data sync, so a kill between units
    /// never leaves more than a partial trailing line.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn append(&mut self, result: &UnitResult) -> Result<(), SweepError> {
        let mut line = serde_json::to_string(result)
            .map_err(|e| SweepError::journal(format!("result serialization failed: {e}")))?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| SweepError::io(&self.path, e))
    }
}
