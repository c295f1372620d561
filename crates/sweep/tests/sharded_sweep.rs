//! Integration tests for the sharded sweep subsystem: bit-identical parity
//! with the monolithic campaign loops, kill/resume recovery (including a
//! corrupted trailing JSONL line), and journal-compatible resharding.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_sweep::{
    evaluate_unit, manifest_for, merge, merge_sweep, resume_sweep, run_shard, run_sweep, Journal,
    MergedReport, ShardSpec, SilentProgress, SweepError, SweepKind, UnitResult,
};
use wgft_winograd::ConvAlgorithm;

/// Evaluation images per campaign — small enough for CI, uneven against the
/// 3-image chunk so chunk-tail handling is exercised.
const IMAGES: usize = 8;
/// Images per work unit (deliberately not a divisor of IMAGES).
const CHUNK: usize = 3;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> CampaignConfig {
    CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W8)
        .with_images(IMAGES)
        .with_cache_dir(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("model-cache"))
}

/// One shared prepared campaign per test binary: the first caller trains and
/// populates the model cache, so every in-test `run_sweep`/`resume_sweep`
/// preparation afterwards loads from the cache.
fn campaign() -> &'static FaultToleranceCampaign {
    static CAMPAIGN: OnceLock<FaultToleranceCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        FaultToleranceCampaign::prepare(&config()).expect("campaign preparation must succeed")
    })
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization must succeed")
}

#[test]
fn range_counts_partition_the_monolithic_accuracy() {
    // The per-unit primitive must sum to the monolithic accuracy for any
    // partition and any evaluation order — this is the property every other
    // guarantee in this file rests on.
    let campaign = campaign();
    let ber = wgft_faultsim::BitErrorRate::new(3e-3);
    let protection = wgft_faultsim::ProtectionPlan::none();
    let algo = ConvAlgorithm::winograd_default();
    let full = campaign.accuracy_under(algo, ber, &protection);
    for split in [1usize, 3, 5, IMAGES] {
        // Evaluate the ranges back to front: order must not matter.
        let mut correct = 0usize;
        let mut starts: Vec<usize> = (0..IMAGES).step_by(split).collect();
        starts.reverse();
        for start in starts {
            correct += campaign.correct_op_level(algo, ber, &protection, start, split);
        }
        assert!(
            (full - correct as f64 / IMAGES as f64).abs() == 0.0,
            "partition with stride {split} must reproduce the accuracy bit for bit"
        );
    }
}

#[test]
fn sharded_network_sweep_matches_monolithic_bit_for_bit() {
    let campaign = campaign();
    let bers = [0.0, 3e-3];
    let dir = tmp_dir("network-parity");
    // Two shards, run one after the other like two independent processes.
    for index in 0..2 {
        let outcome = run_sweep(
            &dir,
            SweepKind::NetworkSweep,
            &config(),
            &bers,
            CHUNK,
            ShardSpec::new(2, index).unwrap(),
            &SilentProgress,
        )
        .expect("shard must run");
        assert_eq!(outcome.skipped, 0, "fresh run has nothing to skip");
    }
    let merged = merge_sweep(&dir).expect("complete journal must merge");
    let MergedReport::NetworkSweep(merged) = merged else {
        panic!("network sweep must merge into a NetworkSweepReport");
    };
    let monolithic = campaign.network_sweep(&bers);
    assert_eq!(json(&merged), json(&monolithic), "byte-identical report");
}

#[test]
fn sharded_granularity_and_op_type_match_monolithic_bit_for_bit() {
    let campaign = campaign();
    let bers = [3e-3];

    let dir = tmp_dir("granularity-parity");
    run_sweep(
        &dir,
        SweepKind::InjectionGranularity,
        &config(),
        &bers,
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");
    let MergedReport::Granularity(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("granularity sweep must merge into a GranularityReport");
    };
    assert_eq!(json(&merged), json(&campaign.injection_granularity(&bers)));

    let dir = tmp_dir("optype-parity");
    run_sweep(
        &dir,
        SweepKind::OpTypeSensitivity,
        &config(),
        &bers,
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");
    let MergedReport::OpType(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("op-type sweep must merge into an OpTypeReport");
    };
    assert_eq!(json(&merged), json(&campaign.op_type_sensitivity(&bers)));
}

#[test]
fn sharded_critical_ber_matches_monolithic_search() {
    let campaign = campaign();
    let kind = SweepKind::FindCriticalBer {
        algo: ConvAlgorithm::Standard,
        keep_fraction: 0.5,
    };
    let dir = tmp_dir("critical-parity");
    run_sweep(
        &dir,
        kind,
        &config(),
        &[],
        IMAGES, // one unit per grid point
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");
    let MergedReport::CriticalBer(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("critical-BER sweep must merge into a CriticalBerReport");
    };
    let monolithic = campaign.find_critical_ber(ConvAlgorithm::Standard, 0.5);
    assert_eq!(
        merged.critical_ber.to_bits(),
        monolithic.to_bits(),
        "merged cliff must equal the in-memory search bit for bit"
    );
}

#[test]
fn sharded_protection_tradeoff_matches_monolithic_bit_for_bit() {
    let campaign = campaign();
    let bers = [3e-3];
    let dir = tmp_dir("tradeoff-parity");
    // Two shards, run one after the other like two independent processes.
    for index in 0..2 {
        run_sweep(
            &dir,
            SweepKind::ProtectionTradeoff,
            &config(),
            &bers,
            CHUNK,
            ShardSpec::new(2, index).unwrap(),
            &SilentProgress,
        )
        .expect("shard must run");
    }
    let MergedReport::ProtectionTradeoff(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("protection tradeoff must merge into a ProtectionTradeoffReport");
    };
    let monolithic = campaign.protection_tradeoff(&bers);
    assert_eq!(
        json(&merged),
        json(&monolithic),
        "byte-identical frontier report, events and overheads included"
    );
    // The merged report carries real executable-protection evidence: the
    // ABFT scheme pays measured overhead at this heavy BER.
    let abft_row = merged
        .rows
        .iter()
        .find(|r| r.scheme == wgft_core::TradeoffScheme::Abft)
        .expect("ABFT row present");
    assert!(abft_row.winograd_overhead > 0.0);
}

/// The fifth campaign kind honours the same kill/resume contract as the
/// first four: a journal truncated at a line boundary *and* torn mid-line
/// resumes — under a different shard layout — to a byte-identical report.
#[test]
fn killed_tradeoff_run_resumes_to_a_bit_identical_report() {
    let campaign = campaign();
    let bers = [3e-3];
    let monolithic = json(&campaign.protection_tradeoff(&bers));
    let dir = tmp_dir("tradeoff-kill-resume");
    run_sweep(
        &dir,
        SweepKind::ProtectionTradeoff,
        &config(),
        &bers,
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");

    let results = result_file(&dir);
    let full = fs::read_to_string(&results).expect("result file exists");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "need enough units to truncate mid-way");
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n") + "\n";
    // Torn trailing line, the footprint of a SIGKILLed writer.
    truncated.push_str("{\"unit\":1,\"corr");
    fs::write(&results, truncated).unwrap();

    let outcome = resume_sweep(&dir, ShardSpec::new(3, 0).unwrap(), &SilentProgress)
        .expect("resume shard 0 must succeed");
    assert!(outcome.evaluated > 0, "resume must re-evaluate lost units");
    for index in 1..3 {
        resume_sweep(&dir, ShardSpec::new(3, index).unwrap(), &SilentProgress)
            .expect("resume must succeed");
    }
    let MergedReport::ProtectionTradeoff(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("wrong report kind");
    };
    assert_eq!(
        json(&merged),
        monolithic,
        "resumed tradeoff run must be byte-identical to the monolithic loop"
    );
}

/// Kill/resume drill: interrupt a run by truncating its journal mid-way —
/// once at a line boundary (results lost) and once mid-line (the footprint
/// of a killed writer) — then resume and require the merged report to be
/// byte-identical to an uninterrupted run.
#[test]
fn killed_run_resumes_to_a_bit_identical_report() {
    let campaign = campaign();
    let bers = [0.0, 3e-3];
    let monolithic = json(&campaign.network_sweep(&bers));

    let dir = tmp_dir("kill-resume");
    run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &bers,
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");

    let results = result_file(&dir);
    let full = fs::read_to_string(&results).expect("result file exists");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "need enough units to truncate mid-way");

    // 1. Truncate at a line boundary: half the results vanish.
    let keep = lines.len() / 2;
    fs::write(&results, lines[..keep].join("\n") + "\n").unwrap();
    let err = merge_sweep(&dir).expect_err("incomplete journal must not merge");
    assert!(matches!(err, SweepError::Incomplete { .. }), "got {err}");

    // 2. Corrupt the tail the way a kill does: a partial line with no
    //    trailing newline.
    let mut partial = fs::read_to_string(&results).unwrap();
    partial.push_str("{\"unit\":3,\"corr");
    fs::write(&results, partial).unwrap();

    // Resume with a *different* shard count than the original writer — the
    // journal is shard-agnostic.
    let outcome = resume_sweep(&dir, ShardSpec::new(2, 0).unwrap(), &SilentProgress)
        .expect("resume shard 0 must succeed");
    assert!(outcome.evaluated > 0, "resume must re-evaluate lost units");
    let outcome = resume_sweep(&dir, ShardSpec::new(2, 1).unwrap(), &SilentProgress)
        .expect("resume shard 1 must succeed");
    assert!(outcome.run_complete(), "both shards finish the run");

    let MergedReport::NetworkSweep(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("network sweep must merge into a NetworkSweepReport");
    };
    assert_eq!(
        json(&merged),
        monolithic,
        "resumed run must be byte-identical to the uninterrupted one"
    );
}

/// A kill can land between a line's JSON bytes and its newline, leaving a
/// *parseable* unterminated tail. The reader must drop it exactly like the
/// appender's tail repair does — counting it as done would let a resume
/// skip the unit and then delete its bytes from disk, wedging the journal.
#[test]
fn parseable_unterminated_tail_is_dropped_and_reevaluated() {
    let campaign = campaign();
    let bers = [0.0, 3e-3];
    let monolithic = json(&campaign.network_sweep(&bers));
    let dir = tmp_dir("parseable-tail");
    run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &bers,
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");
    let results = result_file(&dir);
    let text = fs::read_to_string(&results).unwrap();
    assert!(text.ends_with('\n'));
    // Strip only the final newline: the last line still parses.
    fs::write(&results, &text[..text.len() - 1]).unwrap();

    let journal = Journal::open(&dir).expect("journal opens");
    let completed = journal.completed().expect("read back");
    assert_eq!(completed.dropped_partial_lines, 1);
    let total = journal.manifest().plan().units().len();
    assert_eq!(completed.results.len(), total - 1, "tail unit not counted");

    // Resume with the same shard layout (the reported bug scenario): the
    // unit must be re-evaluated, not skipped-then-truncated.
    let outcome = resume_sweep(&dir, ShardSpec::single(), &SilentProgress).expect("resume");
    assert_eq!(outcome.evaluated, 1);
    assert!(outcome.run_complete());
    let MergedReport::NetworkSweep(merged) = merge_sweep(&dir).expect("merge") else {
        panic!("wrong report kind");
    };
    assert_eq!(json(&merged), monolithic);
}

/// A corrupted *complete* line (newline-terminated garbage) is beyond what a
/// kill can produce and must be a hard error, not silent recovery.
#[test]
fn corrupt_interior_line_is_a_hard_error() {
    let campaign = campaign();
    let _ = campaign; // shared cache priming
    let dir = tmp_dir("corrupt-interior");
    run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &[0.0],
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run must succeed");
    let results = result_file(&dir);
    let mut text = fs::read_to_string(&results).unwrap();
    text.insert_str(0, "not json at all\n");
    fs::write(&results, text).unwrap();
    let err = merge_sweep(&dir).expect_err("corrupt interior line must fail");
    assert!(matches!(err, SweepError::Journal { .. }), "got {err}");
}

/// Two journaled results for the same unit must agree; a disagreement means
/// the journal mixes incompatible runs and must be rejected.
#[test]
fn conflicting_duplicate_results_are_rejected() {
    let campaign = campaign();
    let cfg = config();
    let manifest = manifest_for(SweepKind::NetworkSweep, &cfg, &[0.0], CHUNK, campaign);
    let dir = tmp_dir("conflicting-dup");
    let journal = Journal::create(&dir, manifest).expect("create");
    let unit = journal.manifest().plan().units()[0].clone();
    let result = evaluate_unit(campaign, &unit);
    let mut appender = journal.appender(1, 0).expect("appender");
    appender.append(&result).unwrap();
    appender
        .append(&UnitResult {
            correct: result.correct + 1,
            ..result
        })
        .unwrap();
    let err = journal.completed().expect_err("conflict must be detected");
    assert!(matches!(err, SweepError::Journal { .. }), "got {err}");

    // An *agreeing* duplicate (e.g. overlapping shard specs) is fine.
    let dir = tmp_dir("agreeing-dup");
    let manifest = manifest_for(SweepKind::NetworkSweep, &cfg, &[0.0], CHUNK, campaign);
    let journal = Journal::create(&dir, manifest).expect("create");
    let mut appender = journal.appender(1, 0).expect("appender");
    appender.append(&result).unwrap();
    appender.append(&result).unwrap();
    let completed = journal.completed().expect("agreeing duplicates are fine");
    assert_eq!(completed.results.len(), 1);
}

/// `run` against a directory journaling a different plan must refuse.
#[test]
fn mismatched_journal_directory_is_rejected() {
    let campaign = campaign();
    let _ = campaign;
    let dir = tmp_dir("mismatched-dir");
    run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &[0.0],
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("first run must succeed");
    let err = run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &[0.0, 3e-3], // different BER grid -> different plan hash
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect_err("a different plan must not reuse the journal");
    assert!(matches!(err, SweepError::Manifest { .. }), "got {err}");

    // Re-running the *same* plan is idempotent: everything is skipped.
    let outcome = run_sweep(
        &dir,
        SweepKind::NetworkSweep,
        &config(),
        &[0.0],
        CHUNK,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("identical re-run must succeed");
    assert_eq!(outcome.evaluated, 0);
    assert_eq!(outcome.skipped, outcome.owned);
}

/// Executing units out of order (and merging from a hand-built journal) is
/// bit-identical to in-order execution: nothing about a unit depends on when
/// it runs.
#[test]
fn out_of_order_unit_execution_is_bit_identical() {
    let campaign = campaign();
    let cfg = config();
    let bers = [3e-3];
    let manifest = manifest_for(SweepKind::NetworkSweep, &cfg, &bers, CHUNK, campaign);
    let plan = manifest.plan();

    let dir = tmp_dir("out-of-order");
    let journal = Journal::create(&dir, manifest).expect("create");
    let mut units: Vec<_> = plan.units().to_vec();
    units.reverse();
    let mut appender = journal.appender(1, 0).expect("appender");
    for unit in &units {
        appender.append(&evaluate_unit(campaign, unit)).unwrap();
    }
    let completed = journal.completed().expect("read back");
    let MergedReport::NetworkSweep(merged) = merge(journal.manifest(), &completed).expect("merge")
    else {
        panic!("wrong report kind");
    };
    assert_eq!(json(&merged), json(&campaign.network_sweep(&bers)));
}

/// A journal recorded under an arithmetic mode other than the one this build
/// computes must not merge, even with a self-consistent content hash: its
/// numbers are not reproducible here. The error names both modes.
#[test]
fn foreign_arithmetic_mode_journal_is_refused_by_merge() {
    let campaign = campaign();
    let mut manifest = manifest_for(SweepKind::NetworkSweep, &config(), &[0.0], CHUNK, campaign);
    let dir = tmp_dir("foreign-mode-merge");
    let journal = Journal::create(&dir, manifest.clone()).expect("create");
    run_shard(&journal, campaign, ShardSpec::single(), &SilentProgress).expect("run_shard");
    let completed = journal.completed().expect("read back");
    merge(&manifest, &completed).expect("the build's own mode merges");

    manifest.arithmetic_mode = "f32-det".to_string();
    manifest.content_hash = manifest.plan_hash();
    let message = merge(&manifest, &completed)
        .expect_err("a foreign arithmetic mode must be refused")
        .to_string();
    assert!(
        message.contains("f32-det") && message.contains(wgft_sweep::ARITHMETIC_MODE),
        "error must name the journal's and the build's modes: {message}"
    );
}

/// Every unit belongs to exactly one shard, for any shard count.
#[test]
fn shards_partition_the_unit_table() {
    let campaign = campaign();
    let manifest = manifest_for(
        SweepKind::InjectionGranularity,
        &config(),
        &[0.0, 1e-4, 3e-3],
        CHUNK,
        campaign,
    );
    let plan = manifest.plan();
    for shards in 1..=5u64 {
        let mut owners = vec![0usize; plan.units().len()];
        for index in 0..shards {
            let shard = ShardSpec::new(shards, index).unwrap();
            for unit in plan.units() {
                if shard.owns(unit.id) {
                    owners[unit.id as usize] += 1;
                }
            }
        }
        assert!(
            owners.iter().all(|&n| n == 1),
            "{shards} shards must partition the table exactly"
        );
    }
    assert!(ShardSpec::new(0, 0).is_err());
    assert!(ShardSpec::new(2, 2).is_err());
}

/// `run_shard` with a stale manifest baseline must be rejected (the
/// environment no longer reproduces the original run).
#[test]
fn tampered_baseline_is_rejected_on_resume() {
    let campaign = campaign();
    let mut manifest = manifest_for(SweepKind::NetworkSweep, &config(), &[0.0], CHUNK, campaign);
    manifest.clean_accuracy += 0.25;
    let err = wgft_sweep::validate_baseline(&manifest, campaign)
        .expect_err("baseline mismatch must be rejected");
    assert!(matches!(err, SweepError::Manifest { .. }), "got {err}");

    // And run_shard on an agreeing journal works end to end.
    let manifest = manifest_for(SweepKind::NetworkSweep, &config(), &[0.0], CHUNK, campaign);
    let dir = tmp_dir("runshard-direct");
    let journal = Journal::create(&dir, manifest).expect("create");
    let outcome =
        run_shard(&journal, campaign, ShardSpec::single(), &SilentProgress).expect("run_shard");
    assert!(outcome.run_complete());
}

/// Manifest validation failures must name the offending file and both
/// content hashes (expected-from-plan vs found-on-disk), so a drifted or
/// hand-edited journal is diagnosable from the error alone.
#[test]
fn manifest_errors_name_the_path_and_both_content_hashes() {
    let campaign = campaign();
    let manifest = manifest_for(SweepKind::NetworkSweep, &config(), &[0.0], CHUNK, campaign);
    let expected_hash = manifest.content_hash.clone();
    let dir = tmp_dir("manifest-error-detail");
    drop(Journal::create(&dir, manifest).expect("create"));

    // Tamper with a hashed field on disk (the BER grid) without updating
    // the recorded content hash.
    let manifest_path = dir.join(wgft_sweep::MANIFEST_FILE);
    let text = fs::read_to_string(&manifest_path).expect("manifest readable");
    assert!(text.contains("[0.0]"), "fixture expects a [0.0] BER grid");
    fs::write(&manifest_path, text.replace("[0.0]", "[0.5]")).expect("manifest writable");

    let err = Journal::open(&dir).expect_err("tampered manifest must be rejected");
    let message = err.to_string();
    assert!(
        message.contains(manifest_path.display().to_string().as_str()),
        "error must name the offending file: {message}"
    );
    assert!(
        message.contains(&expected_hash) || message.contains("expected"),
        "error must state the found-on-disk hash and what was expected: {message}"
    );
    assert!(
        message.contains("content hash mismatch"),
        "error must say what kind of mismatch this is: {message}"
    );

    // Creating a *different* run over an existing journal must name both
    // hashes and the manifest path too.
    let other = manifest_for(
        SweepKind::NetworkSweep,
        &config(),
        &[0.0, 1e-4],
        CHUNK,
        campaign,
    );
    let other_hash = other.content_hash.clone();
    let dir = tmp_dir("manifest-error-conflict");
    let first = manifest_for(SweepKind::NetworkSweep, &config(), &[0.0], CHUNK, campaign);
    let first_hash = first.content_hash.clone();
    drop(Journal::create(&dir, first).expect("create"));
    let err = Journal::create(&dir, other).expect_err("conflicting plan must be rejected");
    let message = err.to_string();
    assert!(
        message.contains(&other_hash) && message.contains(&first_hash),
        "error must show the found and expected hashes: {message}"
    );
    assert!(
        message.contains(
            dir.join(wgft_sweep::MANIFEST_FILE)
                .display()
                .to_string()
                .as_str()
        ),
        "error must name the manifest path: {message}"
    );
}

/// The tile axis through the journal, both directions: a non-default tile
/// is recorded in the manifest (variant plus interpolation point set),
/// survives a disk round trip and tags the merged report; a version-3
/// journal — which predates the axis — still loads, runs and merges as the
/// default F(2x2,3x3); and a v3 manifest claiming a non-default tile is
/// rejected as tampered.
#[test]
fn tile_axis_versions_the_journal_both_directions() {
    use wgft_winograd::{WinogradVariant, F4X4_3X3};
    let bers = [0.0, 3e-3];

    // Forward: a campaign prepared with F(4x4,3x3) tiles.
    let cfg4 = config().with_tile(F4X4_3X3);
    let campaign4 = FaultToleranceCampaign::prepare(&cfg4).expect("F4x4 campaign prepares");
    let manifest = manifest_for(SweepKind::NetworkSweep, &cfg4, &bers, CHUNK, &campaign4);
    assert_eq!(manifest.tile, F4X4_3X3);
    assert_eq!(manifest.tile_points, "0,1,-1,2,-2");
    let dir = tmp_dir("tile-axis-f4x4");
    let journal = Journal::create(&dir, manifest).expect("create");
    let outcome =
        run_shard(&journal, &campaign4, ShardSpec::single(), &SilentProgress).expect("run_shard");
    assert!(outcome.run_complete());
    let reopened = Journal::open(&dir).expect("tile fields survive the disk round trip");
    assert_eq!(reopened.manifest().tile, F4X4_3X3);
    let completed = reopened.completed().expect("completed");
    let MergedReport::NetworkSweep(merged) = merge(reopened.manifest(), &completed).expect("merge")
    else {
        panic!("wrong report kind");
    };
    assert_eq!(
        merged.tile, F4X4_3X3,
        "merged report must carry the tile tag"
    );
    assert_eq!(json(&merged), json(&campaign4.network_sweep(&bers)));

    // Backward: a version-3 journal. Its manifest never grew tile fields
    // (the default tile is skip-serialized), so synthesizing one from the
    // current build is byte-compatible with what a v3 build wrote.
    let campaign = campaign();
    let mut v3 = manifest_for(SweepKind::NetworkSweep, &config(), &bers, CHUNK, campaign);
    v3.version = 3;
    v3.content_hash = v3.plan_hash();
    assert!(
        !json(&v3).contains("\"tile\""),
        "a default-tile manifest must not serialize tile fields"
    );
    let dir = tmp_dir("tile-axis-v3");
    let journal = Journal::create(&dir, v3).expect("v3 journal must stay loadable");
    assert_eq!(journal.manifest().tile, WinogradVariant::default());
    let outcome =
        run_shard(&journal, campaign, ShardSpec::single(), &SilentProgress).expect("run_shard");
    assert!(outcome.run_complete());
    let completed = journal.completed().expect("completed");
    let MergedReport::NetworkSweep(merged) = merge(journal.manifest(), &completed).expect("merge")
    else {
        panic!("wrong report kind");
    };
    assert_eq!(json(&merged), json(&campaign.network_sweep(&bers)));

    // Rejected: version 3 cannot have produced a non-default tile.
    let mut bad = manifest_for(SweepKind::NetworkSweep, &cfg4, &bers, CHUNK, &campaign4);
    bad.version = 3;
    bad.content_hash = bad.plan_hash();
    let err = bad
        .validate()
        .expect_err("a v3 manifest claiming a tile must be rejected");
    assert!(
        err.to_string().contains("predates the tile axis"),
        "got {err}"
    );
}

/// The dataset-source axis through the journal, both directions: a CIFAR-10
/// campaign records its source in the manifest (format v5) and journals,
/// resumes and merges like any other; a version-4 journal — which predates
/// the knob — still loads, runs and merges as a synthetic run; a v4 manifest
/// claiming a non-default source is rejected as tampered; and so is a
/// manifest whose top-level tag disagrees with its embedded config.
#[test]
fn dataset_source_versions_the_journal_both_directions() {
    use wgft_core::DatasetSource;
    let bers = [0.0, 3e-3];

    // Forward: a campaign over the replicated CIFAR-10 fixture.
    let cifar_dir = tmp_dir("dataset-axis-batches");
    fs::create_dir_all(&cifar_dir).expect("create batch dir");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/cifar10-tiny.bin");
    for i in 0..4 {
        fs::copy(&fixture, cifar_dir.join(format!("batch_{i}.bin"))).expect("copy fixture");
    }
    let cifar_cfg = CampaignConfig::cifar10(ModelKind::VggSmall, BitWidth::W8, &cifar_dir)
        .with_images(4)
        .with_train_config(wgft_nn::TrainConfig {
            epochs: 1,
            ..wgft_nn::TrainConfig::cifar10_recipe()
        });
    let cifar_campaign =
        FaultToleranceCampaign::prepare(&cifar_cfg).expect("CIFAR campaign prepares");
    let manifest = manifest_for(
        SweepKind::NetworkSweep,
        &cifar_cfg,
        &bers,
        CHUNK,
        &cifar_campaign,
    );
    assert_eq!(manifest.version, 5);
    assert_eq!(manifest.dataset.label(), "cifar10");
    assert!(json(&manifest).contains("\"dataset\""));
    let dir = tmp_dir("dataset-axis-cifar");
    let journal = Journal::create(&dir, manifest).expect("create");
    let outcome = run_shard(
        &journal,
        &cifar_campaign,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("run_shard");
    assert!(outcome.run_complete());
    let reopened = Journal::open(&dir).expect("dataset field survives the disk round trip");
    assert_eq!(reopened.manifest().dataset.label(), "cifar10");
    let completed = reopened.completed().expect("completed");
    let MergedReport::NetworkSweep(merged) = merge(reopened.manifest(), &completed).expect("merge")
    else {
        panic!("wrong report kind");
    };
    assert_eq!(json(&merged), json(&cifar_campaign.network_sweep(&bers)));

    // Backward: a version-4 journal. Its manifest never grew the dataset
    // field (the synthetic default is skip-serialized), so synthesizing one
    // from the current build is byte-compatible with what a v4 build wrote.
    let campaign = campaign();
    let mut v4 = manifest_for(SweepKind::NetworkSweep, &config(), &bers, CHUNK, campaign);
    v4.version = 4;
    v4.content_hash = v4.plan_hash();
    assert!(
        !json(&v4).contains("\"dataset\""),
        "a synthetic-data manifest must not serialize the dataset field"
    );
    let dir = tmp_dir("dataset-axis-v4");
    let journal = Journal::create(&dir, v4).expect("v4 journal must stay loadable");
    assert!(journal.manifest().dataset.is_synthetic());
    let outcome =
        run_shard(&journal, campaign, ShardSpec::single(), &SilentProgress).expect("run_shard");
    assert!(outcome.run_complete());
    let completed = journal.completed().expect("completed");
    let MergedReport::NetworkSweep(merged) = merge(journal.manifest(), &completed).expect("merge")
    else {
        panic!("wrong report kind");
    };
    assert_eq!(json(&merged), json(&campaign.network_sweep(&bers)));

    // Rejected: version 4 cannot have produced a non-default dataset source.
    let mut bad = manifest_for(
        SweepKind::NetworkSweep,
        &cifar_cfg,
        &bers,
        CHUNK,
        &cifar_campaign,
    );
    bad.version = 4;
    bad.content_hash = bad.plan_hash();
    let err = bad
        .validate()
        .expect_err("a v4 manifest claiming a dataset source must be rejected");
    assert!(
        err.to_string().contains("predates the dataset-source knob"),
        "got {err}"
    );

    // Rejected: the top-level tag must mirror the embedded config.
    let mut inconsistent = manifest_for(SweepKind::NetworkSweep, &config(), &bers, CHUNK, campaign);
    inconsistent.dataset = DatasetSource::Cifar10 {
        dir: "/edited/after/the/fact".into(),
    };
    inconsistent.content_hash = inconsistent.plan_hash();
    let err = inconsistent
        .validate()
        .expect_err("a mismatched dataset tag must be rejected");
    assert!(err.to_string().contains("disagrees"), "got {err}");
}

fn result_file(dir: &Path) -> PathBuf {
    let journal = Journal::open(dir).expect("journal opens");
    let files = journal.result_files().expect("listable");
    assert_eq!(files.len(), 1, "single-writer journal has one result file");
    files.into_iter().next().unwrap()
}

/// Journal parity across the fast-path routing change: a BER=0 work unit —
/// the cells that now execute on the uninstrumented quantized path — must
/// journal exactly the `correct` counts the instrumented datapath produces,
/// for both algorithms and both granularities. (A pre-routing journal
/// resumed today therefore merges bit-identically.)
#[test]
fn zero_ber_units_journal_identically_to_the_instrumented_datapath() {
    use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic, NeuronLevelInjector};
    use wgft_sweep::SweepPlan;

    let campaign = campaign();
    let plan = SweepPlan::new(SweepKind::InjectionGranularity, &[0.0], IMAGES, CHUNK);
    assert!(plan.units().iter().all(|u| u.cell.ber == 0.0));
    for unit in plan.units() {
        let result = evaluate_unit(campaign, unit);
        // Instrumented reference for exactly this unit's image range.
        let mut correct = 0u64;
        for offset in 0..unit.len {
            let image_index = unit.start + offset;
            let sample = &campaign.eval_set().samples()[image_index];
            let predicted = match unit.cell.granularity {
                wgft_sweep::Granularity::OpLevel => {
                    let config = FaultConfig {
                        ber: BitErrorRate::ZERO,
                        width: campaign.config().width,
                        model: campaign.config().fault_model,
                        protection: unit.cell.protection.plan(),
                    };
                    let seed = unit.image_seed(campaign.config().base_seed, offset);
                    let mut arith = FaultyArithmetic::new(config, seed);
                    campaign
                        .quantized()
                        .classify(&sample.image, &mut arith, unit.cell.algo)
                        .unwrap_or(usize::MAX)
                }
                wgft_sweep::Granularity::NeuronLevel => {
                    let seed = unit.image_seed(campaign.config().base_seed, offset);
                    let mut injector =
                        NeuronLevelInjector::new(BitErrorRate::ZERO, campaign.config().width, seed);
                    campaign
                        .quantized()
                        .forward_with_neuron_faults(&sample.image, &mut injector, unit.cell.algo)
                        .map_or(usize::MAX, |logits| {
                            if logits.is_empty() {
                                usize::MAX
                            } else {
                                wgft_data::argmax(&logits)
                            }
                        })
                }
            };
            correct += u64::from(predicted == sample.label);
        }
        assert_eq!(
            result.correct,
            correct,
            "unit {} ({}) diverged from the instrumented datapath",
            unit.id,
            unit.cell.label()
        );
        assert_eq!(result.len, unit.len as u64);
        assert_eq!(result.detected + result.corrected + result.uncorrected, 0);
    }
}
