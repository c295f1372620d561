//! Integration tests of the measured protection planner: the acceptance
//! frontier claim (target reached at measurably lower cost than blanket
//! protection and idealized TMR), parity against the retired idealized
//! planner, journal-driven planning with anchor cross-checks, and the
//! synthetic-to-CIFAR transfer band.
//!
//! Preparing a campaign trains a miniature network, which is the expensive
//! step, so the synthetic tests share one prepared campaign through a
//! `OnceLock` and a trained-weights cache under `CARGO_TARGET_TMPDIR`.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use wgft_abft::AbftPolicy;
use wgft_core::{CampaignConfig, FaultToleranceCampaign, TmrPlanner, TmrScheme};
use wgft_faultsim::{BitErrorRate, ProtectionPlan};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_planner::{plan_from_journal, plan_profile, LayerChoice, PlanRequest};
use wgft_sweep::{run_sweep, ShardSpec, SilentProgress, SweepKind};
use wgft_winograd::ConvAlgorithm;

/// The planning operating point all synthetic tests use.
const BER: f64 = 3e-4;
const TARGET: f64 = 0.95;

fn cache_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("model-cache")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthetic_config() -> CampaignConfig {
    CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W16)
        .with_images(16)
        .with_cache_dir(cache_dir())
}

fn campaign() -> &'static FaultToleranceCampaign {
    static CAMPAIGN: OnceLock<FaultToleranceCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        FaultToleranceCampaign::prepare(&synthetic_config())
            .expect("campaign preparation must succeed")
    })
}

/// Replicate the 8-record CIFAR-10 fixture `copies` times into `dir` (the
/// loader concatenates every `*.bin` in sorted order) so the 0.8 train/eval
/// split leaves a usable evaluation set.
fn replicate_cifar_fixture(dir: &Path, copies: usize) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/cifar10-tiny.bin");
    std::fs::create_dir_all(dir).expect("create fixture dir");
    for i in 0..copies {
        std::fs::copy(&fixture, dir.join(format!("batch_{i:02}.bin"))).expect("copy fixture");
    }
}

/// The acceptance claim end to end: at the planning BER the profile reaches
/// the target (within 0.02 of the blanket checksum+recompute ceiling) at
/// measurably lower replayed cost than both the blanket scheme and blanket
/// idealized TMR, and the exact solver's cost never exceeds the greedy's.
#[test]
fn planned_profile_reaches_target_cheaper_than_blanket_and_idealized_tmr() {
    let profile = plan_profile(campaign(), PlanRequest::new(BER, TARGET)).expect("plan");

    assert!(
        profile.achieved_accuracy >= profile.ceiling_accuracy - 0.02,
        "achieved {} is not within 0.02 of the ceiling {}",
        profile.achieved_accuracy,
        profile.ceiling_accuracy
    );
    assert!(
        profile.achieved_accuracy >= TARGET,
        "achieved {} misses the target {TARGET}",
        profile.achieved_accuracy
    );
    assert!(
        profile.total_cost < profile.ceiling_cost,
        "planned cost {} is not below the blanket ceiling {}",
        profile.total_cost,
        profile.ceiling_cost
    );
    assert!(
        profile.total_cost < profile.idealized_tmr_cost,
        "planned cost {} is not below blanket idealized TMR {}",
        profile.total_cost,
        profile.idealized_tmr_cost
    );
    assert!(profile.optimality_gap >= 0.0);
    assert!(
        profile.total_cost <= profile.greedy_cost,
        "exact cost {} exceeds greedy cost {}",
        profile.total_cost,
        profile.greedy_cost
    );
    // A planned assignment is selective: it must not blanket every layer
    // with the strongest choice (that is the ceiling, not a plan).
    assert!(
        profile
            .layers
            .iter()
            .any(|c| *c != LayerChoice::ChecksumRecompute),
        "plan degenerated into the blanket ceiling: {:?}",
        profile.layers
    );

    // The artifact round-trips through disk with a stable identity hash.
    let out = tmp_dir("planner-profile-out");
    std::fs::create_dir_all(&out).expect("create out dir");
    let path = out.join("profile.json");
    profile.save(&path).expect("save");
    let back = wgft_planner::ProtectionProfile::load(&path).expect("load");
    assert_eq!(back, profile);
    assert_eq!(back.hash(), profile.hash());
}

/// Satellite parity claim for retiring the idealized planner: on the same
/// campaign, target and BER, the measured planner's replayed cost dominates
/// (or ties) the idealized `TmrPlanner`'s modelled overhead.
#[test]
fn measured_planner_dominates_or_ties_the_idealized_tmr_planner() {
    let profile = plan_profile(campaign(), PlanRequest::new(BER, TARGET)).expect("plan");
    let tmr = TmrPlanner::default()
        .plan(campaign(), TmrScheme::WinogradAware, TARGET, BER)
        .expect("idealized plan");

    assert!(
        profile.achieved_accuracy >= TARGET,
        "measured plan misses the target the idealized planner was given"
    );
    assert!(
        profile.total_cost <= tmr.overhead_cost,
        "measured planner cost {} exceeds the idealized TmrPlanner's {} — the measured \
         planner must dominate or tie the retired baseline",
        profile.total_cost,
        tmr.overhead_cost
    );
}

/// Journal-driven planning: a `protection_tradeoff` sweep journal is
/// ingested, its floor/ceiling anchors cross-check bit-identically against
/// the fresh probe grid, and the emitted profile records the journal's full
/// BER grid as provenance. Off-grid BERs and wrong-kind journals are
/// refused by name.
#[test]
fn journal_planning_cross_checks_anchors_and_records_the_grid() {
    let grid = [1e-4, BER];
    let dir = tmp_dir("planner-journal");
    let outcome = run_sweep(
        &dir,
        SweepKind::ProtectionTradeoff,
        &synthetic_config(),
        &grid,
        4,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("tradeoff sweep");
    assert_eq!(
        outcome.run_done, outcome.run_total,
        "single shard must finish the sweep"
    );

    let algo = ConvAlgorithm::winograd_default();
    let profile = plan_from_journal(&dir, algo, BER, TARGET).expect("plan from journal");
    assert_eq!(
        profile.provenance.ber_grid, grid,
        "provenance must record the journal's full grid"
    );
    assert!(profile.achieved_accuracy >= profile.ceiling_accuracy - 0.02);

    let off_grid =
        plan_from_journal(&dir, algo, 5e-4, TARGET).expect_err("an off-grid BER must be refused");
    assert!(off_grid.to_string().contains("grid"), "got: {off_grid}");

    let wrong_kind_dir = tmp_dir("planner-journal-wrong-kind");
    run_sweep(
        &wrong_kind_dir,
        SweepKind::NetworkSweep,
        &synthetic_config().with_images(4),
        &[1e-5],
        4,
        ShardSpec::single(),
        &SilentProgress,
    )
    .expect("network sweep");
    let wrong_kind = plan_from_journal(&wrong_kind_dir, algo, 1e-5, TARGET)
        .expect_err("a non-tradeoff journal must be refused");
    assert!(
        wrong_kind.to_string().contains("protection_tradeoff"),
        "got: {wrong_kind}"
    );
}

/// The CIFAR-10 transfer claim: a profile planned on the synthetic campaign,
/// replayed unchanged on the real-data CIFAR-10 fixture campaign, stays
/// within the stated accuracy band of CIFAR's own blanket
/// checksum+recompute ceiling. Both campaigns are fully deterministic, so
/// the band is a stable regression bound, not a statistical one.
#[test]
fn synthetic_profile_transfers_to_cifar_within_the_stated_band() {
    /// Stated transfer band (documented in the README's protection-planning
    /// section): replayed CIFAR accuracy must stay within this distance of
    /// the CIFAR blanket ceiling.
    const TRANSFER_BAND: f64 = 0.25;

    let profile = plan_profile(campaign(), PlanRequest::new(BER, TARGET)).expect("plan");

    let data_dir = tmp_dir("planner-cifar-data");
    replicate_cifar_fixture(&data_dir, 8);
    let config = CampaignConfig::cifar10(ModelKind::VggSmall, BitWidth::W16, &data_dir)
        .with_images(8)
        .with_train_config(wgft_nn::TrainConfig {
            epochs: 1,
            ..wgft_nn::TrainConfig::cifar10_recipe()
        })
        .with_cache_dir(cache_dir());
    let cifar = FaultToleranceCampaign::prepare(&config).expect("CIFAR campaign");
    assert_eq!(
        cifar.quantized().compute_layer_count(),
        profile.layers.len(),
        "the per-layer assignment must transfer layer-for-layer"
    );

    let algo = ConvAlgorithm::winograd_default();
    let ber = BitErrorRate::new(BER);
    let none = ProtectionPlan::none();
    let (cifar_ceiling, _) = cifar.accuracy_under_abft(algo, ber, &none, &AbftPolicy::checksum());

    let policy = profile.policy();
    let plan = profile.plan();
    let replayed = if policy.is_off() {
        cifar.accuracy_under(algo, ber, &plan)
    } else {
        cifar.accuracy_under_abft(algo, ber, &plan, &policy).0
    };
    assert!(
        replayed >= cifar_ceiling - TRANSFER_BAND,
        "replayed CIFAR accuracy {replayed} fell more than {TRANSFER_BAND} below the \
         CIFAR blanket ceiling {cifar_ceiling}"
    );
}

#[test]
fn the_cli_refuses_a_flag_its_command_does_not_read() {
    let missing = tmp_dir("cli-missing-profile.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wgft-planner"))
        .arg("show")
        .arg("--profile")
        .arg(&missing)
        .args(["--bogus", "1"])
        .output()
        .expect("run wgft-planner");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
}
