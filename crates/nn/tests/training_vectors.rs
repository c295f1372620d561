//! Pinned bits of float training.
//!
//! Every campaign, serve daemon and sweep worker trains its model locally,
//! so the trained weights are campaign-visible: two machines that train the
//! same zoo model from the same seed must hold the same bits, or their
//! journaled results disagree. These vectors pin FNV-1a hashes of
//!
//! * the trained weights and the per-epoch loss bits of every zoo model at
//!   test scale (the tiny task, 40 images per class, five epochs), and
//! * one convolution layer's forward outputs, input gradients and the
//!   weight and bias gradients accumulated over two samples, for a padded
//!   3x3 layer on a ragged map and for a 1x1 layer.
//!
//! The same constants must hold under the workspace's `target-cpu=native`
//! build and under `RUSTFLAGS=""`. A changed hash means the float training
//! path reassociated its arithmetic.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wgft_data::{Dataset, SyntheticSpec};
use wgft_nn::models::ModelKind;
use wgft_nn::{Conv2d, Network, TrainConfig, Trainer};
use wgft_tensor::{Shape, Tensor};

/// 64-bit FNV-1a (the journal's content-hash function).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hash_f32<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn assert_pinned(actual: u64, pinned: u64, what: &str) {
    assert_eq!(
        actual, pinned,
        "{what}: training bits drifted — got 0x{actual:016x}, pinned 0x{pinned:016x}. \
         A changed hash means the float training path reassociated its arithmetic; \
         trained weights are campaign-visible, so this must not be re-pinned without \
         understanding why."
    );
}

/// Pinned `(weights, epoch losses)` hashes per zoo model.
const TRAINED_HASHES: [(ModelKind, u64, u64); 4] = [
    (
        ModelKind::VggSmall,
        0xe38b_89c6_c459_ceb3,
        0xafa4_8f6e_d523_5aa2,
    ),
    (
        ModelKind::ResNetSmall,
        0x19d1_42a7_c5d5_3f81,
        0xb928_3844_647e_5370,
    ),
    (
        ModelKind::DenseNetSmall,
        0x367c_3fde_1cfc_dc23,
        0xf333_b63e_212e_c007,
    ),
    (
        ModelKind::GoogLeNetSmall,
        0xf07e_2e67_36ce_163d,
        0x94d3_b1b2_d34f_03df,
    ),
];

/// Hash of every parameter, in node order (weights before bias).
fn weight_hash(network: &mut Network) -> u64 {
    let params = network.params_and_grads();
    hash_f32(params.iter().flat_map(|(p, _)| p.data()))
}

/// Train `kind` the way a test-scale campaign does: the tiny task, 40 images
/// per class, an 80/20 split, five epochs of the fast recipe.
fn train_at_test_scale(kind: ModelKind) -> (u64, u64) {
    let spec = SyntheticSpec::tiny();
    let base_seed = 0xC0FFEE;
    let data = Dataset::synthetic(&spec, 40, base_seed);
    let (train, _test) = data.split(0.8);
    let mut network = kind.build(&spec, base_seed ^ 0x5EED);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 5,
        ..TrainConfig::fast()
    });
    let report = trainer.fit(&mut network, &train).expect("training");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    (weight_hash(&mut network), hash_f32(&report.epoch_losses))
}

#[test]
fn trained_zoo_weights_and_losses_are_bit_pinned() {
    for (kind, weights, losses) in TRAINED_HASHES {
        let (got_weights, got_losses) = train_at_test_scale(kind);
        assert_pinned(
            got_weights,
            weights,
            &format!("{} trained weights", kind.label()),
        );
        assert_pinned(
            got_losses,
            losses,
            &format!("{} epoch losses", kind.label()),
        );
    }
}

/// Deterministic integer LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A float in `[-2, 2)` whose bits are identical on every platform.
    fn next_f32(&mut self) -> f32 {
        let raw = (self.next_u64() >> 33) as i64 % 1024;
        (raw - 512) as f32 / 256.0
    }

    /// An upstream gradient word: about 60 % zeros, a sixth of them `-0.0`
    /// (ReLU masks and max-pool routing leave most of a conv's upstream
    /// gradient zero).
    fn next_grad(&mut self) -> f32 {
        match (self.next_u64() >> 33) % 10 {
            0 => -0.0,
            1..=5 => 0.0,
            _ => self.next_f32(),
        }
    }
}

fn tensor(shape: Shape, lcg: &mut Lcg, draw: fn(&mut Lcg) -> f32) -> Tensor {
    let data = (0..shape.volume()).map(|_| draw(lcg)).collect();
    Tensor::from_vec(shape, data).expect("shape and data agree")
}

/// A conv-layer vector's `(in_c, out_c, size, kernel, padding)`.
type LayerGeometry = (usize, usize, usize, usize, usize);

/// Pinned `(outputs, input gradients, weight gradients, bias gradients)`
/// hashes of the conv-layer vectors, one row per geometry.
const CONV_LAYER_HASHES: [(LayerGeometry, [u64; 4]); 2] = [
    (
        (3, 4, 10, 3, 1),
        [
            0x40b9_8003_e0af_db01,
            0xec2a_6df6_a701_5eb6,
            0x9279_e6e9_5791_2792,
            0x36f6_ffbe_2ed6_f384,
        ],
    ),
    (
        (5, 3, 7, 1, 0),
        [
            0x0999_2bc0_208d_a167,
            0xd8a7_2050_e3e7_5027,
            0xf1b7_5acd_9586_b436,
            0x86f0_a991_6501_3671,
        ],
    ),
];

#[test]
fn conv_layer_forward_and_backward_are_bit_pinned() {
    for ((in_c, out_c, size, kernel, padding), pinned) in CONV_LAYER_HASHES {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut conv = Conv2d::new(in_c, out_c, size, kernel, padding, &mut rng);
        let mut lcg = Lcg(0x5eed_0101 + kernel as u64);
        for (param, _) in conv.params_and_grads() {
            for v in param.data_mut() {
                *v = lcg.next_f32();
            }
        }
        conv.zero_grad();
        let (mut outs, mut grads_in) = (Vec::new(), Vec::new());
        for _sample in 0..2 {
            let input = tensor(Shape::nchw(1, in_c, size, size), &mut lcg, Lcg::next_f32);
            let out = conv.forward(&input).expect("forward");
            let grad_out = tensor(out.shape().clone(), &mut lcg, Lcg::next_grad);
            grads_in.extend_from_slice(conv.backward(&grad_out).expect("backward").data());
            outs.extend_from_slice(out.data());
        }
        let params = conv.params_and_grads();
        let what = format!("conv {in_c}->{out_c} k{kernel} p{padding} on {size}x{size}");
        assert_pinned(hash_f32(&outs), pinned[0], &format!("{what} outputs"));
        assert_pinned(
            hash_f32(&grads_in),
            pinned[1],
            &format!("{what} input gradients"),
        );
        assert_pinned(
            hash_f32(params[0].1.data()),
            pinned[2],
            &format!("{what} weight gradients"),
        );
        assert_pinned(
            hash_f32(params[1].1.data()),
            pinned[3],
            &format!("{what} bias gradients"),
        );
    }
}
