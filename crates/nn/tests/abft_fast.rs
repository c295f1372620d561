//! Fault-free protected inference on the fast engines against the
//! instrumented ABFT executors at network level.
//!
//! `QuantizedNetwork::forward_abft_fast` must return logits, predictions and
//! `AbftEvents` (every overhead count included) bit-identical to
//! `QuantizedNetwork::forward_abft` over a zero-rate `FaultyArithmetic`, and
//! must get there on the fast engines, not by falling back. Run in release
//! with `cargo test --release -p wgft-nn --test abft_fast`.

use wgft_abft::{AbftCalibration, AbftEvents, AbftMode, AbftPolicy, AbftScratch};
use wgft_data::{argmax, Dataset, SyntheticSpec};
use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_nn::{QuantizedNetwork, QuantizerOptions};
use wgft_tensor::Tensor;
use wgft_winograd::{ConvAlgorithm, WinogradVariant};

/// An untrained zoo model quantized at 16 bits for one tile variant, and
/// some images. Bit-identity does not need trained weights.
fn quantized(kind: ModelKind, variant: WinogradVariant) -> (QuantizedNetwork, Vec<Tensor>) {
    let spec = SyntheticSpec::tiny();
    let images: Vec<Tensor> = Dataset::synthetic(&spec, 2, 11)
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();
    let mut net = kind.build(&spec, 7);
    let options = QuantizerOptions {
        variant,
        ..QuantizerOptions::new(BitWidth::W16)
    };
    let qnet = QuantizedNetwork::from_network(&mut net, &images, options).unwrap();
    (qnet, images)
}

/// The policies of the grid: what every serve `ProtectionTier` resolves to
/// (`range`, `checksum` without recompute, `checksum_recompute` =
/// checksum+range with recompute), blanket checksum with recompute, and
/// profile-style policies mixing per-layer modes with `Off` overrides.
fn policies() -> Vec<AbftPolicy> {
    vec![
        AbftPolicy::range_only(),
        AbftPolicy::checksum().with_recompute(false),
        AbftPolicy::checksum_range(),
        AbftPolicy::checksum(),
        AbftPolicy::checksum_range()
            .with_layer_mode(0, AbftMode::Off)
            .with_layer_mode(2, AbftMode::Range),
        AbftPolicy::off()
            .with_layer_mode(1, AbftMode::Checksum)
            .with_layer_mode(3, AbftMode::ChecksumRange)
            .with_layer_mode(4, AbftMode::Range)
            .with_recompute(true),
    ]
}

/// The algorithms of the grid: ST, WG F(2x2) and WG F(4x4).
fn algorithms() -> [(ConvAlgorithm, WinogradVariant); 3] {
    [
        (ConvAlgorithm::Standard, WinogradVariant::F2x2),
        (
            ConvAlgorithm::Winograd(WinogradVariant::F2x2),
            WinogradVariant::F2x2,
        ),
        (
            ConvAlgorithm::Winograd(WinogradVariant::F4x4),
            WinogradVariant::F4x4,
        ),
    ]
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// The instrumented reference: `forward_abft` over a zero-rate
/// `FaultyArithmetic`.
fn instrumented(
    qnet: &QuantizedNetwork,
    image: &Tensor,
    algo: ConvAlgorithm,
    policy: &AbftPolicy,
    calibration: Option<&AbftCalibration>,
) -> (Vec<f32>, AbftEvents) {
    let config = FaultConfig::new(BitErrorRate::new(0.0), BitWidth::W16);
    let mut arith = FaultyArithmetic::new(config, 5);
    let mut events = AbftEvents::new();
    let logits = qnet
        .forward_abft(
            image,
            &mut arith,
            algo,
            policy,
            calibration,
            &mut AbftScratch::new(),
            &mut events,
        )
        .unwrap();
    (logits, events)
}

/// Every policy, uncalibrated and calibrated, over both models: the fast
/// protected pass equals the instrumented one in logit bits, prediction
/// and every event field, without a single fallback. The third
/// calibration covers only the first image, so range restriction clips on
/// the others; its policies carry a margin below 1.0, which
/// `LayerRanges::bound` floors at 1.0 — the tightest bound there is.
fn assert_fast_matches_instrumented(algo: ConvAlgorithm, variant: WinogradVariant) {
    let mut clipped = 0;
    for kind in [ModelKind::VggSmall, ModelKind::ResNetSmall] {
        let (qnet, images) = quantized(kind, variant);
        let full = qnet.calibrate_abft(&images, algo).unwrap();
        let first = qnet.calibrate_abft(&images[..1], algo).unwrap();
        let cases: [(Option<&AbftCalibration>, f64); 3] =
            [(None, 2.0), (Some(&full), 2.0), (Some(&first), 0.5)];
        let mut fast = qnet.prepare_fast().unwrap();
        let mut scratch = AbftScratch::new();
        for (calibration, margin) in cases {
            for mut policy in policies() {
                // Set directly: `with_range_margin` would floor it first.
                policy.range_margin = margin;
                for (i, image) in images.iter().enumerate() {
                    let (want, want_events) =
                        instrumented(&qnet, image, algo, &policy, calibration);
                    let mut events = AbftEvents::new();
                    let got = qnet
                        .forward_abft_fast(
                            image,
                            algo,
                            &policy,
                            calibration,
                            &mut fast,
                            &mut scratch,
                            &mut events,
                        )
                        .unwrap();
                    let case = format!("{kind:?} {algo} {policy:?} cal {calibration:?} image {i}");
                    assert_eq!(bits(&want), bits(&got), "{case}");
                    assert_eq!(want_events, events, "{case}");
                    let mut events = AbftEvents::new();
                    let predicted = qnet
                        .classify_abft_fast(
                            image,
                            algo,
                            &policy,
                            calibration,
                            &mut fast,
                            &mut scratch,
                            &mut events,
                        )
                        .unwrap();
                    assert_eq!(argmax(&want), predicted, "{case}");
                    assert_eq!(want_events, events, "{case}");
                    clipped += events.clipped;
                }
            }
        }
        assert_eq!(
            fast.abft_fallbacks(),
            0,
            "{kind:?} {algo}: no check may fail"
        );
    }
    assert!(clipped > 0, "{algo}: the grid must exercise clipping");
}

#[test]
fn fast_abft_matches_the_instrumented_standard() {
    let (algo, variant) = algorithms()[0];
    assert_fast_matches_instrumented(algo, variant);
}

#[test]
fn fast_abft_matches_the_instrumented_winograd_f2x2() {
    let (algo, variant) = algorithms()[1];
    assert_fast_matches_instrumented(algo, variant);
}

#[test]
fn fast_abft_matches_the_instrumented_winograd_f4x4() {
    let (algo, variant) = algorithms()[2];
    assert_fast_matches_instrumented(algo, variant);
}
