//! Fault-site replay against its oracle at network level.
//!
//! `QuantizedNetwork::forward_replay` (fast engines plus replayed strikes)
//! must produce logits bit-identical to `QuantizedNetwork::forward` over a
//! `FaultyArithmetic` with the same configuration and seed, and its
//! per-layer operation maps must be exactly the sequences the instrumented
//! kernels issue. Run in release with
//! `cargo test --release -p wgft-nn --test fault_replay`.

use wgft_abft::{AbftEvents, AbftPolicy, AbftScratch};
use wgft_data::{argmax, Dataset, SyntheticSpec};
use wgft_faultsim::{
    Arithmetic, BitErrorRate, ExactArithmetic, FaultConfig, FaultModel, FaultyArithmetic,
    OpCounters, OpSequence, OpType, ProtectionPlan, StrikeEnumerator,
};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_nn::{QuantizedNetwork, QuantizerOptions};
use wgft_tensor::Tensor;
use wgft_winograd::{ConvAlgorithm, WinogradVariant};

/// An untrained zoo model quantized for one tile variant, and some images.
/// Bit-identity does not need trained weights.
fn quantized(
    kind: ModelKind,
    width: BitWidth,
    variant: WinogradVariant,
) -> (QuantizedNetwork, Vec<Tensor>) {
    let spec = SyntheticSpec::tiny();
    let images: Vec<Tensor> = Dataset::synthetic(&spec, 3, 11)
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();
    let mut net = kind.build(&spec, 7);
    let options = QuantizerOptions {
        variant,
        ..QuantizerOptions::new(width)
    };
    let qnet = QuantizedNetwork::from_network(&mut net, &images, options).unwrap();
    (qnet, images)
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

/// The four sweep-cell protection plans plus one fractional plan.
fn protections() -> Vec<ProtectionPlan> {
    vec![
        ProtectionPlan::none(),
        ProtectionPlan::none().with_fault_free_op_type(OpType::Mul),
        ProtectionPlan::none().with_fault_free_op_type(OpType::Add),
        ProtectionPlan::none()
            .with_fault_free_op_type(OpType::Mul)
            .with_fault_free_op_type(OpType::Add),
        ProtectionPlan::none()
            .with_fraction(1, OpType::Mul, 0.6)
            .unwrap()
            .with_fraction(2, OpType::Add, 0.3)
            .unwrap(),
    ]
}

const SEEDS: u64 = 8;

/// Replay logits equal the instrumented oracle's bit for bit, and so do the
/// predictions, for one algorithm over a model without joins (VggSmall)
/// and one with residual `Add` joins (ResNetSmall): every fault model,
/// every protection kind, BER 1e-5 / 3e-4 / 1e-2 and eight seeds per case.
/// BER 1e-2 runs on 8-bit words: there, compounded W16 flips of F(4x4)
/// transform coefficients overflow i64 in the oracle itself.
fn assert_replay_matches_oracle(algo: ConvAlgorithm, variant: WinogradVariant) {
    let cases = [
        (BitWidth::W16, 1e-5),
        (BitWidth::W16, 3e-4),
        (BitWidth::W8, 1e-2),
    ];
    for kind in [ModelKind::VggSmall, ModelKind::ResNetSmall] {
        for width in [BitWidth::W16, BitWidth::W8] {
            let (qnet, images) = quantized(kind, width, variant);
            let mut fast = qnet.prepare_fast().unwrap();
            for &(_, ber) in cases.iter().filter(|(w, _)| *w == width) {
                for model in FaultModel::all() {
                    for protection in protections() {
                        let config = FaultConfig::new(BitErrorRate::new(ber), width)
                            .with_model(model)
                            .with_protection(protection);
                        for seed in 0..SEEDS {
                            let image = &images[seed as usize % images.len()];
                            let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                            let want = qnet.forward(image, &mut oracle, algo).unwrap();
                            let mut faults = StrikeEnumerator::new(&config, seed);
                            let got = qnet
                                .forward_replay(image, algo, &mut fast, &mut faults)
                                .unwrap();
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&want),
                                bits(&got),
                                "{kind:?} {algo} {config:?} seed {seed}"
                            );
                            // Equal logit bits imply equal predictions; the
                            // classifying entry point is checked once per case.
                            if seed == 0 {
                                let mut faults = StrikeEnumerator::new(&config, seed);
                                assert_eq!(
                                    argmax(&want),
                                    qnet.classify_replay(image, algo, &mut fast, &mut faults)
                                        .unwrap()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn replay_matches_the_oracle_standard() {
    assert_replay_matches_oracle(ConvAlgorithm::Standard, WinogradVariant::F2x2);
}

#[test]
fn replay_matches_the_oracle_winograd_f2x2() {
    assert_replay_matches_oracle(
        ConvAlgorithm::Winograd(WinogradVariant::F2x2),
        WinogradVariant::F2x2,
    );
}

#[test]
fn replay_matches_the_oracle_winograd_f4x4() {
    assert_replay_matches_oracle(
        ConvAlgorithm::Winograd(WinogradVariant::F4x4),
        WinogradVariant::F4x4,
    );
}

/// Dense 16-bit faults under F(4x4): at BER 1e-2, compounded flips of
/// transform coefficients push the instrumented datapath past `i64`. The
/// oracle and replay both wrap in two's complement — in debug builds too,
/// where the oracle's plain arithmetic used to panic — and stay
/// bit-identical.
#[test]
fn replay_matches_the_oracle_past_i64_at_dense_w16_rates() {
    let algo = ConvAlgorithm::Winograd(WinogradVariant::F4x4);
    for kind in [ModelKind::VggSmall, ModelKind::ResNetSmall] {
        let (qnet, images) = quantized(kind, BitWidth::W16, WinogradVariant::F4x4);
        let mut fast = qnet.prepare_fast().unwrap();
        for model in FaultModel::all() {
            let config = FaultConfig::new(BitErrorRate::new(1e-2), BitWidth::W16).with_model(model);
            for seed in 0..4u64 {
                let image = &images[seed as usize % images.len()];
                let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                let want = qnet.forward(image, &mut oracle, algo).unwrap();
                let mut faults = StrikeEnumerator::new(&config, seed);
                let got = qnet
                    .forward_replay(image, algo, &mut fast, &mut faults)
                    .unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want), bits(&got), "{kind:?} {config:?} seed {seed}");
            }
        }
    }
}

/// The same dense 16-bit F(4x4) faults under calibrated checksum+range
/// protection: struck transform coefficients push the ABFT transform
/// guard's column sums past `i64`. The guard accumulates in `i128`, as the
/// GEMM checksums do, so debug builds do not panic, release builds do not
/// wrap (which could hide a detection or invent one), and the run stays
/// deterministic.
#[test]
fn abft_transform_guard_survives_dense_w16_faults_past_i64() {
    let algo = ConvAlgorithm::Winograd(WinogradVariant::F4x4);
    let (qnet, images) = quantized(ModelKind::VggSmall, BitWidth::W16, WinogradVariant::F4x4);
    let calibration = qnet.calibrate_abft(&images, algo).unwrap();
    let policy = AbftPolicy::checksum_range();
    let config = FaultConfig::new(BitErrorRate::new(1e-2), BitWidth::W16);
    for seed in 0..4u64 {
        let image = &images[seed as usize % images.len()];
        let run = || {
            let mut arith = FaultyArithmetic::new(config.clone(), seed);
            let mut events = AbftEvents::new();
            let predicted = qnet
                .classify_abft(
                    image,
                    &mut arith,
                    algo,
                    &policy,
                    Some(&calibration),
                    &mut AbftScratch::new(),
                    &mut events,
                )
                .unwrap();
            (predicted, events)
        };
        let (predicted, events) = run();
        assert!(predicted < qnet.num_classes(), "seed {seed}");
        assert!(
            events.detected > 0,
            "seed {seed}: dense faults must be detected"
        );
        assert_eq!((predicted, events), run(), "seed {seed}");
    }
}

/// `ExactArithmetic` wrapper recording every operation's type per layer.
#[derive(Default)]
struct Recorder {
    exact: ExactArithmetic,
    layer: usize,
    ops: Vec<Vec<OpType>>,
}

impl Recorder {
    fn record(&mut self, op: OpType) {
        if self.ops.len() <= self.layer {
            self.ops.resize(self.layer + 1, Vec::new());
        }
        self.ops[self.layer].push(op);
    }
}

impl Arithmetic for Recorder {
    fn begin_layer(&mut self, layer: usize) {
        self.layer = layer;
        self.exact.begin_layer(layer);
    }
    fn mul(&mut self, a: i64, b: i64) -> i64 {
        self.record(OpType::Mul);
        self.exact.mul(a, b)
    }
    fn add(&mut self, a: i64, b: i64) -> i64 {
        self.record(OpType::Add);
        self.exact.add(a, b)
    }
    fn counters(&self) -> &OpCounters {
        self.exact.counters()
    }
    fn reset_counters(&mut self) {
        self.exact.reset_counters();
    }
}

/// The op map replay enumerates strikes over is exactly what the
/// instrumented forward issues: per layer of every zoo model, under ST,
/// F(2x2) and F(4x4), the same mul count, add count and order — padding
/// skips of direct convolution included (which the analytic
/// `ConvOpModel::count` deliberately ignores).
#[test]
fn layer_op_maps_match_the_instrumented_op_sequence() {
    for kind in ModelKind::all() {
        for (algo, variant) in algorithms() {
            let (qnet, images) = quantized(kind, BitWidth::W16, variant);
            let mut recorder = Recorder::default();
            qnet.forward(&images[0], &mut recorder, algo).unwrap();
            let maps = qnet.layer_ops(algo).unwrap();
            assert_eq!(maps.len(), qnet.compute_layer_count());
            assert_eq!(recorder.ops.len(), maps.len(), "{kind:?} {algo}");
            let mut padded = false;
            for (layer, (map, ops)) in maps.iter().zip(recorder.ops.iter()).enumerate() {
                let counted = recorder.counters().layer(layer).executed;
                let muls = (0..map.op_count())
                    .filter(|&i| map.op_type(i) == OpType::Mul)
                    .count();
                assert_eq!(
                    map.op_count(),
                    counted.total(),
                    "{kind:?} {algo} layer {layer}"
                );
                assert_eq!(muls as u64, counted.mul, "{kind:?} {algo} layer {layer}");
                assert_eq!(map.op_count(), ops.len() as u64);
                for (i, &op) in ops.iter().enumerate() {
                    assert_eq!(
                        map.op_type(i as u64),
                        op,
                        "{kind:?} {algo} layer {layer} op {i}"
                    );
                }
                let modelled = qnet.layer_op_counts(algo)[layer];
                padded |= modelled.total() != counted.total();
            }
            if algo == ConvAlgorithm::Standard {
                assert!(
                    padded,
                    "{kind:?}: padded direct layers skip taps the model prices"
                );
            }
        }
    }
}

/// Neuron-level injection on the fast engines equals the instrumented
/// oracle bit for bit: `forward_neuron_level` (a neuron rider on the fast
/// pass) against `forward_with_neuron_faults` (the instrumented kernels
/// over exact arithmetic), per zoo model with and without joins, under ST,
/// F(2x2) and F(4x4), at sparse rates and in the dense regime (5e-2, where
/// the injector visits every neuron), three seeds each.
#[test]
fn neuron_rider_matches_the_oracle() {
    use wgft_faultsim::NeuronLevelInjector;
    for kind in [ModelKind::VggSmall, ModelKind::ResNetSmall] {
        for (algo, variant) in algorithms() {
            let (qnet, images) = quantized(kind, BitWidth::W16, variant);
            let mut fast = qnet.prepare_fast().unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for ber in [1e-4, 1e-3, 5e-2] {
                let ber = BitErrorRate::new(ber);
                for seed in 0..3u64 {
                    let image = &images[seed as usize % images.len()];
                    let mut oracle = NeuronLevelInjector::new(ber, BitWidth::W16, seed);
                    let want = qnet
                        .forward_with_neuron_faults(image, &mut oracle, algo)
                        .unwrap();
                    let mut injector = NeuronLevelInjector::new(ber, BitWidth::W16, seed);
                    let got = qnet
                        .forward_neuron_level(image, algo, &mut fast, &mut injector)
                        .unwrap();
                    assert_eq!(bits(&want), bits(&got), "{kind:?} {algo} {ber} seed {seed}");
                    if ber.rate() >= 5e-2 {
                        let clean = qnet.forward_fast(image, algo, &mut fast).unwrap();
                        assert_ne!(bits(&clean), bits(&got), "{kind:?} {algo} seed {seed}");
                    }
                }
            }
        }
    }
}
