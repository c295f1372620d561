//! Integration tests of the evaluation campaigns at test scale.
//!
//! Preparing a campaign trains a miniature network, which is the expensive
//! step, so all tests share one prepared campaign through a `OnceLock`.

use std::sync::OnceLock;
use wgft_accel::Accelerator;
use wgft_core::{
    CampaignConfig, CellAbft, CellProtection, FaultToleranceCampaign, Granularity, TmrPlanner,
    TmrScheme, UnitCell, VoltageScalingStudy,
};
use wgft_faultsim::{BitErrorRate, OpType, ProtectionPlan};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_winograd::ConvAlgorithm;

/// The campaign-table cell with no protection and no ABFT.
fn plain_cell(algo: ConvAlgorithm, ber: BitErrorRate, granularity: Granularity) -> UnitCell {
    UnitCell {
        algo,
        ber: ber.rate(),
        granularity,
        protection: CellProtection::Unprotected,
        abft: CellAbft::Off,
    }
}

fn campaign() -> &'static FaultToleranceCampaign {
    static CAMPAIGN: OnceLock<FaultToleranceCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let config = CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W16);
        FaultToleranceCampaign::prepare(&config).expect("campaign preparation must succeed")
    })
}

/// Replicate the 8-record CIFAR-10 fixture `copies` times into `dir` so the
/// 0.8 train/eval split leaves a usable evaluation set (the loader
/// concatenates every `*.bin` in sorted order).
fn replicate_cifar_fixture(dir: &std::path::Path, copies: usize) {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/cifar10-tiny.bin");
    std::fs::create_dir_all(dir).expect("create fixture dir");
    for i in 0..copies {
        std::fs::copy(&fixture, dir.join(format!("batch_{i:02}.bin"))).expect("copy fixture");
    }
}

/// A bit error rate in the middle of the accuracy cliff for the tiny model
/// (roughly a handful of damaging faults per inference).
const MID_BER: f64 = 1e-4;
/// A bit error rate high enough to thoroughly corrupt every inference.
const HIGH_BER: f64 = 1e-3;

/// The dataset-source knob end to end on the checked-in CIFAR-10 fixture:
/// preparation loads the real binary records, trains with the deterministic
/// recipe, and every downstream evaluation primitive works unchanged.
#[test]
fn cifar10_fixture_campaign_prepares_and_evaluates() {
    let dir = std::env::temp_dir().join(format!("wgft-cifar-campaign-{}", std::process::id()));
    replicate_cifar_fixture(&dir, 8);
    let config = CampaignConfig::cifar10(ModelKind::VggSmall, BitWidth::W16, &dir)
        .with_images(8)
        .with_train_config(wgft_nn::TrainConfig {
            epochs: 1,
            ..wgft_nn::TrainConfig::cifar10_recipe()
        });
    let campaign = FaultToleranceCampaign::prepare(&config).expect("CIFAR campaign must prepare");
    assert_eq!(campaign.config().dataset.label(), "cifar10");
    assert_eq!(campaign.eval_set().len(), 8);
    assert_eq!(campaign.eval_set().num_classes(), 10);
    assert!((0.0..=1.0).contains(&campaign.clean_accuracy()));
    // The evaluation primitives run on the real images.
    let acc = campaign.accuracy_under(
        ConvAlgorithm::winograd_default(),
        BitErrorRate::ZERO,
        &ProtectionPlan::none(),
    );
    assert!((acc - campaign.clean_accuracy()).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CIFAR dataset source with a non-CIFAR geometry must be rejected before
/// any training happens, with an error naming the offending parameter.
#[test]
fn cifar10_source_rejects_mismatched_spec() {
    let config = CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W16).with_dataset(
        wgft_core::DatasetSource::Cifar10 {
            dir: "/nonexistent".into(),
        },
    );
    let err = FaultToleranceCampaign::prepare(&config).expect_err("tiny spec must be rejected");
    assert!(err.to_string().contains("cifar10"), "got: {err}");
}

#[test]
fn clean_accuracy_beats_chance() {
    let campaign = campaign();
    let chance = 1.0 / campaign.config().spec.num_classes as f64;
    assert!(
        campaign.clean_accuracy() > 1.5 * chance,
        "clean accuracy {} should comfortably beat chance {}",
        campaign.clean_accuracy(),
        chance
    );
}

#[test]
fn faults_degrade_accuracy_and_zero_ber_matches_clean() {
    let campaign = campaign();
    let clean = campaign.accuracy_under(
        ConvAlgorithm::Standard,
        BitErrorRate::ZERO,
        &ProtectionPlan::none(),
    );
    assert!((clean - campaign.clean_accuracy()).abs() < 1e-9);
    let heavy = campaign.accuracy_under(
        ConvAlgorithm::Standard,
        BitErrorRate::new(HIGH_BER),
        &ProtectionPlan::none(),
    );
    assert!(
        heavy < clean,
        "heavy faults must reduce accuracy (clean {clean}, faulty {heavy})"
    );
}

#[test]
fn winograd_and_standard_tolerance_are_comparable_at_the_cliff() {
    // The paper reports a winograd accuracy advantage; on this substrate the
    // advantage depends on the fault model (see EXPERIMENTS.md), so the test
    // asserts the robust property: the two algorithms degrade on the same
    // cliff and stay within a few evaluation images of each other while the
    // winograd execution issues far fewer multiplications.
    let campaign = campaign();
    let bers = [3e-5, MID_BER, 3e-4];
    let mut st_total = 0.0;
    let mut wg_total = 0.0;
    for &ber in &bers {
        let ber = BitErrorRate::new(ber);
        st_total += campaign.accuracy_under(ConvAlgorithm::Standard, ber, &ProtectionPlan::none());
        wg_total += campaign.accuracy_under(
            ConvAlgorithm::winograd_default(),
            ber,
            &ProtectionPlan::none(),
        );
    }
    let slack = 0.75; // up to ~8 of 32 images per point
    assert!(
        (wg_total - st_total).abs() <= slack,
        "winograd ({wg_total}) and standard ({st_total}) should sit on the same accuracy cliff"
    );
    let st_muls = campaign
        .quantized()
        .total_op_count(ConvAlgorithm::Standard)
        .mul;
    let wg_muls = campaign
        .quantized()
        .total_op_count(ConvAlgorithm::winograd_default())
        .mul;
    assert!(
        wg_muls * 3 < st_muls * 2,
        "winograd must execute far fewer multiplications"
    );
}

#[test]
fn neuron_level_injection_cannot_distinguish_algorithms() {
    let campaign = campaign();
    let ber = BitErrorRate::new(MID_BER);
    let images = campaign.eval_set().len();
    let accuracy = |algo| {
        let cell = plain_cell(algo, ber, Granularity::NeuronLevel);
        campaign.evaluate_cell(&cell, 0, images).0 as f64 / images as f64
    };
    let st = accuracy(ConvAlgorithm::Standard);
    let wg = accuracy(ConvAlgorithm::winograd_default());
    // The injector sees the same neurons and the same fault budget for both
    // algorithms; only quantization noise between the two executions remains,
    // so the measured accuracies must agree to within a couple of images.
    assert!(
        (st - wg).abs() <= 0.1,
        "neuron-level FI must be (statistically) blind to the algorithm ({st} vs {wg})"
    );
}

#[test]
fn protecting_multiplications_recovers_more_accuracy_than_additions() {
    // Figure 4's central claim: multiplications are the vulnerable operation
    // type. Keeping them fault-free restores (nearly) the clean accuracy,
    // while keeping only the additions fault-free barely helps.
    let campaign = campaign();
    let critical = campaign.find_critical_ber(ConvAlgorithm::Standard, 0.5);
    let ber = BitErrorRate::new(critical);
    let mul_free = ProtectionPlan::none().with_fault_free_op_type(OpType::Mul);
    let add_free = ProtectionPlan::none().with_fault_free_op_type(OpType::Add);
    let mul = campaign.accuracy_under(ConvAlgorithm::Standard, ber, &mul_free);
    let add = campaign.accuracy_under(ConvAlgorithm::Standard, ber, &add_free);
    let unprotected =
        campaign.accuracy_under(ConvAlgorithm::Standard, ber, &ProtectionPlan::none());
    assert!(
        mul >= add,
        "fault-free multiplications ({mul}) should recover at least as much accuracy as fault-free additions ({add})"
    );
    assert!(
        mul >= campaign.clean_accuracy() - 0.1,
        "fault-free multiplications ({mul}) should nearly restore the clean accuracy"
    );
    assert!(
        mul > unprotected,
        "protecting multiplications must help at the cliff"
    );
}

#[test]
fn fully_fault_free_layers_recover_the_clean_accuracy() {
    let campaign = campaign();
    let ber = BitErrorRate::new(HIGH_BER);
    let mut plan = ProtectionPlan::none();
    for layer in 0..campaign.quantized().compute_layer_count() {
        plan = plan.with_fault_free_layer(layer);
    }
    let acc = campaign.accuracy_under(ConvAlgorithm::Standard, ber, &plan);
    assert!((acc - campaign.clean_accuracy()).abs() < 1e-9);
}

#[test]
fn network_sweep_report_renders_and_is_monotone_at_extremes() {
    let campaign = campaign();
    let report = campaign.network_sweep(&[0.0, HIGH_BER]);
    assert_eq!(report.rows.len(), 2);
    assert!(report.rows[0].standard >= report.rows[1].standard);
    let rendered = report.to_string();
    assert!(rendered.contains("ST-Conv"));
    assert!(rendered.contains("WG-Conv"));
}

#[test]
fn layer_vulnerability_reports_every_compute_layer() {
    let campaign = campaign();
    let report = campaign.layer_vulnerability(MID_BER);
    assert_eq!(
        report.rows.len(),
        campaign.quantized().compute_layer_count()
    );
    // Winograd reduces the multiplication count of every 3x3 layer.
    let st_muls: u64 = report.rows.iter().map(|r| r.standard_muls).sum();
    let wg_muls: u64 = report.rows.iter().map(|r| r.winograd_muls).sum();
    assert!(wg_muls < st_muls);
    // Factors are finite and the rendered table mentions every layer.
    let factors = report.vulnerability_factors(ConvAlgorithm::Standard);
    assert_eq!(factors.len(), report.rows.len());
    let rendered = report.to_string();
    assert!(rendered.contains("layer"));
}

#[test]
fn tmr_planner_meets_reachable_targets_and_winograd_aware_is_cheapest() {
    let campaign = campaign();
    let planner = TmrPlanner {
        step_fraction: 0.5,
        max_iterations: 20,
        ..TmrPlanner::default()
    };
    // A target halfway between the faulty and clean accuracy is reachable.
    let clean = campaign.clean_accuracy();
    let faulty = campaign.accuracy_under(
        ConvAlgorithm::Standard,
        BitErrorRate::new(HIGH_BER),
        &ProtectionPlan::none(),
    );
    let target = faulty + 0.5 * (clean - faulty);
    let report = planner
        .overhead_table(campaign, &[target], HIGH_BER)
        .expect("planning must succeed");
    assert_eq!(report.rows.len(), 1);
    let row = &report.rows[0];
    assert!(
        row.standard.overhead_cost > 0.0,
        "protection must not be free for ST-Conv"
    );
    // The fault-tolerance-unaware winograd scheme sizes its protection on the
    // same standard-convolution curve as ST-Conv but charges it against the
    // winograd operation counts, so its overhead can only be lower — this is
    // the robust part of the paper's Figure 5 ordering (see EXPERIMENTS.md for
    // the discussion of the winograd-aware scheme on this substrate).
    assert!(
        row.unaware.overhead_cost <= row.standard.overhead_cost,
        "winograd execution ({}) must not need more TMR overhead than ST-Conv ({})",
        row.unaware.overhead_cost,
        row.standard.overhead_cost
    );
    assert!(row.aware.overhead_cost > 0.0);
    let rendered = report.to_string();
    assert!(rendered.contains("WG-Conv-W/AFT"));
}

#[test]
fn voltage_scaling_study_produces_consistent_operating_points() {
    let campaign = campaign();
    let mut study =
        VoltageScalingStudy::new(campaign, Accelerator::paper_default()).with_voltage_step(0.02);
    let sweep = study
        .voltage_sweep(&[0.74, 0.78, 0.82, 0.9])
        .expect("sweep must succeed");
    assert_eq!(sweep.rows.len(), 4);
    // Higher voltage -> lower BER.
    assert!(sweep.rows[0].ber >= sweep.rows[3].ber);
    let table = study
        .energy_table(&[0.05, 0.10])
        .expect("energy table must succeed");
    assert_eq!(table.rows.len(), 2);
    for row in &table.rows {
        let st = row.scheme(wgft_core::ScalingScheme::Standard).unwrap();
        let aware = row.scheme(wgft_core::ScalingScheme::WinogradAware).unwrap();
        // Voltage scaling never exceeds the nominal-voltage baseline, and the
        // winograd-aware scheme never needs a voltage above the nominal point.
        assert!(st.normalized_energy <= 1.0 + 1e-9);
        assert!(aware.voltage <= study.accelerator().voltage_model().nominal_voltage() + 1e-9);
        assert!(aware.energy_joules > 0.0 && st.energy_joules > 0.0);
        // A larger tolerated loss can only lower (or keep) the chosen voltage.
        assert!(aware.voltage >= study.accelerator().voltage_model().min_voltage() - 1e-9);
    }
    let relaxed = table
        .rows
        .last()
        .unwrap()
        .scheme(wgft_core::ScalingScheme::Standard)
        .unwrap();
    let strict = table
        .rows
        .first()
        .unwrap()
        .scheme(wgft_core::ScalingScheme::Standard)
        .unwrap();
    assert!(relaxed.voltage <= strict.voltage + 1e-9);
    assert!(table.to_string().contains("mean energy reduction"));
}

#[test]
fn tmr_scheme_and_scaling_scheme_labels_match_the_paper() {
    assert_eq!(TmrScheme::Standard.label(), "ST-Conv");
    assert_eq!(TmrScheme::WinogradUnaware.label(), "WG-Conv-W/O-AFT");
    assert_eq!(TmrScheme::WinogradAware.label(), "WG-Conv-W/AFT");
    assert_eq!(TmrScheme::all().len(), 3);
    assert_eq!(wgft_core::ScalingScheme::all().len(), 3);
    assert_eq!(
        TmrScheme::WinogradUnaware.measurement_algorithm(),
        ConvAlgorithm::Standard
    );
    assert_eq!(
        TmrScheme::WinogradUnaware.execution_algorithm(),
        ConvAlgorithm::winograd_default()
    );
}

/// The headline acceptance test of the executable protection engine: at a
/// bit error rate where unprotected winograd accuracy measurably drops, the
/// *same* per-image fault seeds under checksum+recompute ABFT restore
/// accuracy to within noise of fault-free — because the faults are located
/// and corrected (or recomputed away) at runtime, not masked before they
/// strike.
#[test]
fn abft_restores_accuracy_the_faults_took_away() {
    let campaign = campaign();
    let clean = campaign.clean_accuracy();
    // On the accuracy cliff: faults measurably hurt, and the per-GEMM fault
    // density is in the regime ABFT is built for (far past the cliff every
    // recompute attempt is struck again and *no* executable scheme can win —
    // that regime is covered by the frontier test below).
    let cliff_ber = 3e-4;
    let ber = BitErrorRate::new(cliff_ber);
    let algo = ConvAlgorithm::winograd_default();
    let unprotected = campaign.accuracy_under(algo, ber, &ProtectionPlan::none());
    assert!(
        clean - unprotected >= 0.1,
        "BER {cliff_ber} must measurably hurt unprotected accuracy \
         (clean {clean}, unprotected {unprotected})"
    );
    let policy = wgft_abft::AbftPolicy::checksum();
    let (protected, events) =
        campaign.accuracy_under_abft(algo, ber, &ProtectionPlan::none(), &policy);
    assert!(
        events.detected > 0 && events.corrected > 0,
        "protection must actually fire: {events}"
    );
    assert!(
        protected >= clean - 0.1,
        "checksum+recompute must restore accuracy to within noise of \
         fault-free (clean {clean}, protected {protected}, events {events})"
    );
    assert!(
        protected > unprotected,
        "protected ({protected}) must beat unprotected ({unprotected})"
    );
}

/// Zero false alarms: at BER 0 every ABFT mode verifies every layer of
/// every evaluation image without a single detection or clipped value, and
/// accuracy equals the clean accuracy bit for bit.
#[test]
fn abft_never_false_positives_at_zero_ber() {
    let campaign = campaign();
    for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
        for policy in [
            wgft_abft::AbftPolicy::checksum(),
            wgft_abft::AbftPolicy::range_only(),
            wgft_abft::AbftPolicy::checksum_range(),
        ] {
            let (accuracy, events) = campaign.accuracy_under_abft(
                algo,
                BitErrorRate::ZERO,
                &ProtectionPlan::none(),
                &policy,
            );
            assert_eq!(events.detected, 0, "{algo:?}: no false detections");
            assert_eq!(events.clipped, 0, "{algo:?}: no false clips");
            assert_eq!(events.uncorrected, 0);
            assert!(
                (accuracy - campaign.clean_accuracy()).abs() < 1e-12,
                "{algo:?}: fault-free protected accuracy must equal clean"
            );
            assert!(
                events.overhead.total() > 0,
                "checksums are charged even when quiet"
            );
        }
    }
}

/// BER-0 ABFT cells run on the fast engines; their correct counts and
/// events must equal the instrumented path's — `classify_abft` over a
/// zero-rate `FaultyArithmetic` — summed over the evaluation set.
#[test]
fn zero_ber_abft_cells_match_the_instrumented_path() {
    use wgft_abft::{AbftEvents, AbftScratch};
    use wgft_faultsim::{FaultConfig, FaultyArithmetic};
    let campaign = campaign();
    let samples = campaign.eval_set().samples();
    for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
        for abft in [CellAbft::Checksum, CellAbft::RangeOnly] {
            let policy = abft.policy().expect("an ABFT cell runs a policy");
            let cell = UnitCell {
                abft,
                ..plain_cell(algo, BitErrorRate::ZERO, Granularity::OpLevel)
            };
            let (correct, events) = campaign.evaluate_cell(&cell, 0, samples.len());
            let calibration = campaign.abft_calibration(algo);
            let mut want_events = AbftEvents::new();
            let mut want_correct = 0;
            for sample in samples {
                let config = FaultConfig::new(BitErrorRate::ZERO, BitWidth::W16);
                let predicted = campaign
                    .quantized()
                    .classify_abft(
                        &sample.image,
                        &mut FaultyArithmetic::new(config, 1),
                        algo,
                        &policy,
                        Some(calibration),
                        &mut AbftScratch::new(),
                        &mut want_events,
                    )
                    .unwrap();
                want_correct += usize::from(predicted == sample.label);
            }
            assert_eq!(correct, want_correct, "{algo:?} {policy:?}");
            assert_eq!(events, want_events, "{algo:?} {policy:?}");
        }
    }
}

/// The protection trade-off frontier at two operating points. At a quiet
/// BER the overhead ordering is the paper's cost argument made executable:
/// idealized TMR pays two full redundant copies, ABFT pays its checksums —
/// and winograd ABFT pays far less than standard-conv ABFT because there
/// are fewer multiplications to checksum. At the cliff, the executable
/// schemes actually win accuracy back (TMR trivially restores everything).
#[test]
fn protection_tradeoff_frontier_orders_schemes_sensibly() {
    let campaign = campaign();
    let quiet_ber = 1e-6;
    let cliff_ber = 3e-4;
    let report = campaign.protection_tradeoff(&[quiet_ber, cliff_ber]);
    let schemes = wgft_core::TradeoffScheme::all().len();
    assert_eq!(report.rows.len(), 2 * schemes);
    let row = |ber: f64, scheme| {
        report
            .rows
            .iter()
            .find(|r| r.ber == ber && r.scheme == scheme)
            .expect("every (ber, scheme) cell present")
    };

    // Quiet BER: protection barely fires, so measured overhead is the
    // standing cost of the scheme.
    let unprotected = row(quiet_ber, wgft_core::TradeoffScheme::Unprotected);
    let tmr = row(quiet_ber, wgft_core::TradeoffScheme::IdealizedTmr);
    let abft = row(quiet_ber, wgft_core::TradeoffScheme::Abft);
    let range = row(quiet_ber, wgft_core::TradeoffScheme::RangeOnly);
    assert_eq!(unprotected.winograd_overhead, 0.0);
    assert!(abft.winograd_overhead > 0.0 && range.winograd_overhead > 0.0);
    assert!(
        tmr.winograd_overhead > 2.0 * abft.winograd_overhead,
        "idealized TMR ({}) must dwarf quiet ABFT ({})",
        tmr.winograd_overhead,
        abft.winograd_overhead
    );
    assert!(
        2.0 * abft.winograd_overhead < abft.standard_overhead,
        "winograd ABFT ({}) must be far cheaper than standard-conv ABFT ({}) — \
         fewer multiplications to checksum",
        abft.winograd_overhead,
        abft.standard_overhead
    );
    assert!(
        range.winograd_overhead < abft.winograd_overhead,
        "range restriction is the cheap detector-free baseline"
    );

    // Cliff BER: the executable schemes earn accuracy back at runtime.
    let unprotected = row(cliff_ber, wgft_core::TradeoffScheme::Unprotected);
    let tmr = row(cliff_ber, wgft_core::TradeoffScheme::IdealizedTmr);
    let abft = row(cliff_ber, wgft_core::TradeoffScheme::Abft);
    let range = row(cliff_ber, wgft_core::TradeoffScheme::RangeOnly);
    assert!((tmr.winograd_accuracy - campaign.clean_accuracy()).abs() < 1e-9);
    assert!(
        abft.winograd_accuracy > unprotected.winograd_accuracy,
        "ABFT ({}) must beat unprotected ({}) at the cliff",
        abft.winograd_accuracy,
        unprotected.winograd_accuracy
    );
    assert!(
        range.winograd_accuracy >= unprotected.winograd_accuracy,
        "range restriction ({}) must not lose to unprotected ({})",
        range.winograd_accuracy,
        unprotected.winograd_accuracy
    );
    let rendered = report.to_string();
    assert!(rendered.contains("ideal-TMR") && rendered.contains("ABFT"));
}

/// `find_critical_ber` under protection: the protected cliff sits at or
/// above the unprotected one, and the unprotected delegate matches the
/// original search bit for bit.
#[test]
fn protected_critical_ber_sits_at_or_above_the_unprotected_cliff() {
    let campaign = campaign();
    let algo = ConvAlgorithm::winograd_default();
    let unprotected = campaign.find_critical_ber(algo, 0.5);
    let delegate = campaign.find_critical_ber_under(algo, 0.5, &ProtectionPlan::none(), None);
    assert_eq!(unprotected.to_bits(), delegate.to_bits());
    let policy = wgft_abft::AbftPolicy::checksum();
    let protected =
        campaign.find_critical_ber_under(algo, 0.5, &ProtectionPlan::none(), Some(&policy));
    assert!(
        protected >= unprotected,
        "executable ABFT must push the cliff out (unprotected {unprotected:.2e}, \
         protected {protected:.2e})"
    );
}

/// The rayon-parallel `accuracy_under` must be bit-identical to a serial
/// evaluation: every image derives its own fault seed from the base seed, so
/// parallelism cannot change any per-image outcome, and the outcomes are
/// summed in image order. The serial reference runs the instrumented
/// `FaultyArithmetic` datapath, so this also pins the fault-site replay that
/// `accuracy_under` runs to its oracle at campaign level.
#[test]
fn parallel_accuracy_is_bit_identical_to_serial() {
    use wgft_faultsim::{FaultConfig, FaultyArithmetic};

    let campaign = campaign();
    let ber = BitErrorRate::new(MID_BER);
    let protection = ProtectionPlan::none();
    for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
        let parallel = campaign.accuracy_under(algo, ber, &protection);

        // Serial reference with the campaign's exact seed derivation.
        let mut correct = 0usize;
        for (i, sample) in campaign.eval_set().iter().enumerate() {
            let config = FaultConfig {
                ber,
                width: campaign.config().width,
                model: campaign.config().fault_model,
                protection: protection.clone(),
            };
            let seed = campaign.config().base_seed.wrapping_add(1 + i as u64);
            let mut arith = FaultyArithmetic::new(config, seed);
            let predicted = campaign
                .quantized()
                .classify(&sample.image, &mut arith, algo)
                .unwrap_or(usize::MAX);
            if predicted == sample.label {
                correct += 1;
            }
        }
        let serial = correct as f64 / campaign.eval_set().len().max(1) as f64;

        assert!(
            parallel.to_bits() == serial.to_bits(),
            "{algo:?}: parallel {parallel} must be bit-identical to serial {serial}"
        );
        // And repeated parallel evaluations are deterministic.
        let again = campaign.accuracy_under(algo, ber, &protection);
        assert_eq!(parallel.to_bits(), again.to_bits());
    }
}

/// The fast-path routing regression: at BER 0 every span routes onto the
/// uninstrumented quantized path, which must reproduce the instrumented
/// execution **bit for bit** — the guarantee that keeps clean baselines,
/// BER=0 sweep cells and resumed journal manifests identical to pre-routing
/// runs, for both injection granularities and both algorithms.
#[test]
fn zero_ber_fast_routing_is_bit_identical_to_instrumented_evaluation() {
    use wgft_faultsim::{FaultConfig, FaultyArithmetic, NeuronLevelInjector};

    let campaign = campaign();
    let protection = ProtectionPlan::none();
    for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
        // Instrumented reference: the exact code the op-level span ran
        // before fault-free work was routed onto the fast path.
        let mut correct = 0usize;
        for (i, sample) in campaign.eval_set().iter().enumerate() {
            let config = FaultConfig {
                ber: BitErrorRate::ZERO,
                width: campaign.config().width,
                model: campaign.config().fault_model,
                protection: protection.clone(),
            };
            let seed = campaign.config().base_seed.wrapping_add(1 + i as u64);
            let mut arith = FaultyArithmetic::new(config, seed);
            let predicted = campaign
                .quantized()
                .classify(&sample.image, &mut arith, algo)
                .unwrap_or(usize::MAX);
            if predicted == sample.label {
                correct += 1;
            }
        }

        let routed = campaign.correct_op_level(
            algo,
            BitErrorRate::ZERO,
            &protection,
            0,
            campaign.eval_set().len(),
        );
        assert_eq!(routed, correct, "{algo:?}: op-level BER-0 routing diverged");
        let accuracy = campaign.accuracy_under(algo, BitErrorRate::ZERO, &protection);
        let expect = correct as f64 / campaign.eval_set().len().max(1) as f64;
        assert_eq!(accuracy.to_bits(), expect.to_bits());

        // Neuron-level reference: a zero-rate injector never flips.
        let mut neuron_correct = 0usize;
        for (i, sample) in campaign.eval_set().iter().enumerate() {
            let seed = campaign.config().base_seed.wrapping_add(0x9000 + i as u64);
            let mut injector =
                NeuronLevelInjector::new(BitErrorRate::ZERO, campaign.config().width, seed);
            let predicted = campaign
                .quantized()
                .forward_with_neuron_faults(&sample.image, &mut injector, algo)
                .map_or(usize::MAX, |logits| {
                    if logits.is_empty() {
                        usize::MAX
                    } else {
                        wgft_data::argmax(&logits)
                    }
                });
            if predicted == sample.label {
                neuron_correct += 1;
            }
        }
        let neuron_cell = plain_cell(algo, BitErrorRate::ZERO, Granularity::NeuronLevel);
        let (routed_neuron, _) = campaign.evaluate_cell(&neuron_cell, 0, campaign.eval_set().len());
        assert_eq!(
            routed_neuron, neuron_correct,
            "{algo:?}: neuron-level BER-0 routing diverged"
        );
    }
}
