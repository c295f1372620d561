//! Canonical cross-platform determinism vectors.
//!
//! Each vector fixes an input (derived from an integer LCG, so the input
//! bits themselves are platform-independent), runs one of the
//! consensus-capable engines, and compares an FNV-1a hash of the output's
//! exact bit patterns against a pinned constant. The same constants must
//! hold on every IEEE-754 platform and under every codegen flag set — CI
//! runs this file both with the workspace's default `target-cpu=native`
//! build and with `RUSTFLAGS=""` — because:
//!
//! * the quantized fast path (`quantized-exact-v1`) is integer end to end;
//! * the f32 GEMM (`gemm_f32`, and `gemm_f32_acc` continuing a preloaded
//!   output) accumulates every output in a fixed increasing-`k` order with
//!   one rounding step per multiply and add, and Rust never contracts
//!   `a*b + c` into an FMA;
//! * the planned f32 engine (`PreparedConvF32`) keeps that order for every
//!   image chunking and thread count, which the batched-vs-per-image
//!   cross-assertions here make executable.
//!
//! If a hash ever changes, a kernel reassociated its arithmetic — that is a
//! consensus break for distributed sweeps, not a tolerable perturbation.

use wgft_tensor::{gemm_f32, gemm_f32_acc, ConvGeometry};
use wgft_winograd::{
    ConvShape, PreparedConvF32, PreparedConvQuantizedFast, WinogradVariant, WinogradWeights,
};

/// 64-bit FNV-1a (the journal's content-hash function).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hash_f32(values: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn hash_i64(values: &[i64]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Deterministic integer LCG (Knuth MMIX constants); the float streams are
/// derived from its integer output by exact power-of-two scaling.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A float in `[-2, 2)` whose bits are identical on every platform:
    /// small-integer → f32 conversion and division by 256 are exact.
    fn next_f32(&mut self) -> f32 {
        let raw = (self.next_u64() >> 33) as i64 % 1024;
        (raw - 512) as f32 / 256.0
    }

    /// A quantized word in `[-100, 100]`.
    fn next_i32(&mut self) -> i32 {
        ((self.next_u64() >> 33) as i64 % 201 - 100) as i32
    }
}

fn f32_stream(seed: u64, len: usize) -> Vec<f32> {
    let mut lcg = Lcg(seed);
    (0..len).map(|_| lcg.next_f32()).collect()
}

fn i32_stream(seed: u64, len: usize) -> Vec<i32> {
    let mut lcg = Lcg(seed);
    (0..len).map(|_| lcg.next_i32()).collect()
}

/// Pinned output hash of the `gemm_f32` vector.
const GEMM_F32_VECTOR_HASH: u64 = 0xb0aa_1ee4_fc86_9bde;
/// Pinned output hash of the ragged `gemm_f32` vector: `m` is not a
/// multiple of the 4-row register tile, `n` is not a multiple of the
/// 16-lane f32 tile and `k` spans two k-panels.
const GEMM_F32_RAGGED_HASH: u64 = 0xc1ae_149f_cf92_7035;
/// Pinned output hash of the accumulating `gemm_f32_acc` vector: the ragged
/// shape over an output preloaded with nonzero values.
const GEMM_F32_ACC_HASH: u64 = 0xfa93_a2d3_eb82_d3c9;
/// Pinned output hash of the planned f32 F(2x2) convolution vector.
const CONV_F32_F2X2_HASH: u64 = 0x7551_9c9d_aad2_0ab8;
/// Pinned output hash of the planned f32 F(4x4) convolution vector
/// (generated transforms, fractional points).
const CONV_F32_F4X4_HASH: u64 = 0x6b5a_7222_8eb6_2ea4;
/// Pinned output hash of the quantized fast-path F(2x2) vector.
const CONV_QUANTIZED_FAST_HASH: u64 = 0x0f87_efa5_72ad_c0d1;
/// Pinned output hashes of the ragged planned f32 vectors, F(2x2), F(4x4)
/// and F(6x6) in that order.
const RAGGED_F32_HASHES: [u64; 3] = [
    0xa509_2441_d3ce_ba19,
    0x2a83_f677_a9c0_2bd8,
    0xc786_e935_1839_b3b6,
];
/// Pinned output hashes of the ragged quantized fast-path vectors, F(2x2),
/// F(4x4) and F(6x6) in that order.
const RAGGED_QUANTIZED_HASHES: [u64; 3] = [
    0x22b3_344d_f998_279a,
    0x2a42_6bb4_4344_c5cb,
    0x45d1_adb4_1aa7_99bc,
];

fn assert_pinned(actual: u64, pinned: u64, what: &str) {
    assert_eq!(
        actual, pinned,
        "{what}: output bits drifted — got 0x{actual:016x}, pinned 0x{pinned:016x}. \
         A changed hash means a kernel reassociated its arithmetic; that breaks the \
         distributed merge guarantee and must not be waved through by re-pinning \
         without understanding why."
    );
}

/// The naive fixed-order `i-j-k` GEMM: one rounding per multiply and add,
/// accumulated in increasing `k`. `gemm_f32`'s blocked kernel must keep
/// exactly this order.
fn gemm_spec(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

#[test]
fn gemm_vector_is_bit_pinned_for_det_and_blocked_kernels() {
    for (m, k, n, seed, pinned, what) in [
        (
            48usize,
            96usize,
            160usize,
            0x5eed_0001u64,
            GEMM_F32_VECTOR_HASH,
            "gemm_f32 vector",
        ),
        (
            45,
            300,
            167,
            0x5eed_0003,
            GEMM_F32_RAGGED_HASH,
            "ragged gemm_f32 vector",
        ),
    ] {
        let a = f32_stream(seed, m * k);
        let b = f32_stream(seed + 1, k * n);
        let mut blocked = vec![0.0f32; m * n];
        gemm_f32(&a, &b, &mut blocked, m, k, n);
        assert_pinned(hash_f32(&blocked), pinned, what);
        assert_eq!(
            blocked,
            gemm_spec(&a, &b, m, k, n),
            "{what}: the blocked kernel must reproduce the fixed-order spec loop bit for bit"
        );
    }
}

#[test]
fn accumulating_gemm_vector_is_bit_pinned() {
    let (m, k, n) = (45usize, 300usize, 167usize);
    let a = f32_stream(0x5eed_000b, m * k);
    let b = f32_stream(0x5eed_000c, k * n);
    let preload = f32_stream(0x5eed_000d, m * n);
    let mut c = preload.clone();
    gemm_f32_acc(&a, &b, &mut c, m, k, n);
    assert_pinned(
        hash_f32(&c),
        GEMM_F32_ACC_HASH,
        "accumulating gemm_f32_acc vector",
    );
    let mut spec = preload;
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                spec[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
    assert_eq!(
        c, spec,
        "gemm_f32_acc must continue each preloaded output in the fixed-order spec loop"
    );
}

/// The vector's output from per-image `execute_into` calls (the serial
/// single-chunk schedule) and from one `execute_batch_into` call (image
/// chunks fanned out across the rayon pool).
fn conv_f32_vector(variant: WinogradVariant) -> (Vec<f32>, Vec<f32>) {
    let (c, o, size, images) = (3usize, 4usize, 16usize, 2usize);
    let shape = ConvShape::new(c, o, ConvGeometry::square(size, 3, 1, 1));
    let weights = f32_stream(0x5eed_0003, o * c * 9);
    let input = f32_stream(0x5eed_0004, images * shape.input_len());

    let mut plan = PreparedConvF32::new(&weights, &shape, variant).expect("plan");
    let mut serial = vec![0.0f32; images * shape.output_len()];
    for (image, out) in input
        .chunks(shape.input_len())
        .zip(serial.chunks_mut(shape.output_len()))
    {
        plan.execute_into(image, out).expect("serial execute");
    }

    let mut batched = vec![0.0f32; images * shape.output_len()];
    plan.execute_batch_into(&input, images, &mut batched)
        .expect("batched execute");
    (serial, batched)
}

#[test]
fn conv_f2x2_det_vector_is_bit_pinned_and_matched_by_the_fast_path() {
    let (serial, batched) = conv_f32_vector(WinogradVariant::F2x2);
    assert_pinned(hash_f32(&serial), CONV_F32_F2X2_HASH, "F(2x2) conv vector");
    assert_eq!(
        serial, batched,
        "batched/parallel engine must match the serial schedule bit for bit"
    );
}

#[test]
fn conv_f4x4_det_vector_is_bit_pinned_and_matched_by_the_fast_path() {
    let (serial, batched) = conv_f32_vector(WinogradVariant::F4x4);
    assert_pinned(hash_f32(&serial), CONV_F32_F4X4_HASH, "F(4x4) conv vector");
    assert_eq!(
        serial, batched,
        "batched/parallel engine must match the serial schedule bit for bit"
    );
}

#[test]
fn quantized_fast_vector_is_bit_pinned() {
    let (c, o, size, images) = (3usize, 4usize, 16usize, 2usize);
    let variant = WinogradVariant::F2x2;
    let t2 = variant.input_tile() * variant.input_tile();
    let shape = ConvShape::new(c, o, ConvGeometry::square(size, 3, 1, 1));
    let weights =
        WinogradWeights::new(variant, o, c, i32_stream(0x5eed_0005, o * c * t2)).expect("weights");
    let input = i32_stream(0x5eed_0006, images * shape.input_len());
    let mut plan = PreparedConvQuantizedFast::new(&weights, &shape).expect("plan");
    let output = plan.execute_batch(&input, images).expect("execute");
    assert_pinned(
        hash_i64(&output),
        CONV_QUANTIZED_FAST_HASH,
        "quantized fast-path vector",
    );
}

/// The ragged vectors: a 10×10 map with padding 1 has 25, 9 and 4 tiles per
/// image for F(2x2), F(4x4) and F(6x6), so every block of a single image and
/// of the 3-image batch ends in a partial group of tiles.
const RAGGED: (usize, usize, usize, usize) = (3, 4, 10, 3);
const VARIANTS: [WinogradVariant; 3] = [
    WinogradVariant::F2x2,
    WinogradVariant::F4x4,
    WinogradVariant::F6x6,
];

#[test]
fn ragged_f32_vectors_are_bit_pinned_for_every_tile_size() {
    let (c, o, size, images) = RAGGED;
    let shape = ConvShape::new(c, o, ConvGeometry::square(size, 3, 1, 1));
    let weights = f32_stream(0x5eed_0007, o * c * 9);
    let input = f32_stream(0x5eed_0008, images * shape.input_len());
    for (variant, pinned) in VARIANTS.into_iter().zip(RAGGED_F32_HASHES) {
        let mut plan = PreparedConvF32::new(&weights, &shape, variant).expect("plan");
        let mut serial = vec![0.0f32; images * shape.output_len()];
        for (image, out) in input
            .chunks(shape.input_len())
            .zip(serial.chunks_mut(shape.output_len()))
        {
            plan.execute_into(image, out).expect("serial execute");
        }
        let mut batched = vec![0.0f32; images * shape.output_len()];
        plan.execute_batch_into(&input, images, &mut batched)
            .expect("batched execute");
        let what = format!("ragged {variant} f32 vector");
        assert_pinned(hash_f32(&serial), pinned, &what);
        assert_pinned(hash_f32(&batched), pinned, &what);
    }
}

#[test]
fn ragged_quantized_vectors_are_bit_pinned_for_every_tile_size() {
    let (c, o, size, images) = RAGGED;
    let shape = ConvShape::new(c, o, ConvGeometry::square(size, 3, 1, 1));
    let input = i32_stream(0x5eed_0009, images * shape.input_len());
    for (variant, pinned) in VARIANTS.into_iter().zip(RAGGED_QUANTIZED_HASHES) {
        let t2 = variant.input_tile() * variant.input_tile();
        let weights = WinogradWeights::new(variant, o, c, i32_stream(0x5eed_000a, o * c * t2))
            .expect("weights");
        let mut plan = PreparedConvQuantizedFast::new(&weights, &shape).expect("plan");
        let mut serial = vec![0i64; images * shape.output_len()];
        for (image, out) in input
            .chunks(shape.input_len())
            .zip(serial.chunks_mut(shape.output_len()))
        {
            plan.execute_into(image, out).expect("serial execute");
        }
        let mut batched = vec![0i64; images * shape.output_len()];
        plan.execute_batch_into(&input, images, &mut batched)
            .expect("batched execute");
        let what = format!("ragged {variant} quantized vector");
        assert_pinned(hash_i64(&serial), pinned, &what);
        assert_pinned(hash_i64(&batched), pinned, &what);
    }
}
