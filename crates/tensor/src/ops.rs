//! Shape-checked dense operations: matrix multiply, zero padding, convolution geometry.

use crate::{Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Spatial geometry of a 2-D convolution.
///
/// Convolution kernels in several crates (direct conv, winograd conv, the
/// systolic-array timing model) all need the same output-size arithmetic;
/// this type is the single source of truth for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Input height (before padding).
    pub in_h: usize,
    /// Input width (before padding).
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Geometry of a square-kernel, square-input convolution.
    #[must_use]
    pub fn square(in_size: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        Self {
            in_h: in_size,
            in_w: in_size,
            k_h: kernel,
            k_w: kernel,
            stride,
            padding,
        }
    }

    /// Output height.
    #[must_use]
    pub fn out_h(&self) -> usize {
        conv_out_dim(self.in_h, self.k_h, self.stride, self.padding)
    }

    /// Output width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        conv_out_dim(self.in_w, self.k_w, self.stride, self.padding)
    }

    /// Number of output pixels per channel.
    #[must_use]
    pub fn out_pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Whether this geometry is the winograd-friendly 3x3 / stride-1 case that
    /// the paper evaluates ("3x3 filter with unit stride" incurs no accuracy
    /// penalty).
    #[must_use]
    pub fn is_unit_stride_3x3(&self) -> bool {
        self.k_h == 3 && self.k_w == 3 && self.stride == 1
    }
}

/// Output size of one convolution dimension.
#[must_use]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return 0;
    }
    (padded - kernel) / stride + 1
}

/// Rows of `c` computed per register tile of the GEMM microkernel.
const GEMM_MR: usize = 4;
/// Columns of `c` computed per register tile of the GEMM microkernel: four
/// rows of 16 f32 lanes map onto 4×(2×ymm) with AVX2 or 4×zmm with AVX-512.
const GEMM_NR: usize = 16;
/// Depth of one k-block: a `GEMM_KC × GEMM_NR` panel of `b` (~8 KiB) stays
/// L1-resident while a register tile runs over it.
const GEMM_KC: usize = 256;
/// Minimum `m·k·n` before [`par_gemm_f32`] bothers spawning workers; below
/// this the fork/join and stripe-stitch overhead dominates.
const PAR_GEMM_MIN_WORK: usize = 1 << 18;

/// Dense row-major matrix multiply on raw slices: `c = a (m×k) · b (k×n)`,
/// overwriting `c`.
///
/// This is the hot inner kernel of the planned winograd scatter–GEMM path
/// (one call per winograd-domain coordinate), so it avoids all allocation. It
/// is cache-blocked: `k` is split into [`GEMM_KC`]-deep panels and each panel
/// is consumed by a [`GEMM_MR`]`×`[`GEMM_NR`] register-tiled microkernel that
/// touches each `c` element once per panel instead of once per `k` step.
///
/// Every `c[i][j]` accumulates its `k` products in strictly increasing-`p`
/// order (the register tile is loaded from and stored back to `c` around each
/// panel), so results are bit-identical to a naive `i-j-k` triple loop — and
/// independent of how callers block or shard the free dimension.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical -- campaign-visible through float training,
// which every sweep worker runs locally; output bits pinned by the
// determinism vectors
pub fn gemm_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_f32: lhs too short");
    assert!(b.len() >= k * n, "gemm_f32: rhs too short");
    assert!(c.len() >= m * n, "gemm_f32: out too short");
    c[..m * n].fill(0.0);
    gemm_stripe(a, b, c, m, k, n, n, 0);
}

/// Parallel [`gemm_f32`]: rayon-splits the free dimension `n` into column
/// stripes, one worker per stripe, and stitches the stripes back into `c`.
///
/// Falls back to the serial kernel when the pool has one thread or the
/// product is too small to amortize the fork/join. Because the serial kernel
/// accumulates each output element in a fixed `k` order regardless of column
/// blocking, the parallel result is bit-identical to the serial one for any
/// thread count.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
pub fn par_gemm_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "par_gemm_f32: lhs too short");
    assert!(b.len() >= k * n, "par_gemm_f32: rhs too short");
    assert!(c.len() >= m * n, "par_gemm_f32: out too short");
    let threads = rayon::current_num_threads();
    if threads <= 1 || n < 2 * GEMM_NR || m * k * n < PAR_GEMM_MIN_WORK {
        gemm_f32(a, b, c, m, k, n);
        return;
    }
    gemm_f32_striped(a, b, c, m, k, n, threads.min(n / GEMM_NR));
}

/// Compute `c = a·b` by splitting `n` into `stripes` column stripes, each
/// computed into an owned buffer in parallel and copied back in stripe order.
///
/// The stripe buffers are the one allocation of the parallel path; the
/// stitch copy is `O(m·n)` against `O(m·k·n)` compute.
pub(crate) fn gemm_f32_striped(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    stripes: usize,
) {
    use rayon::prelude::*;
    let stripes = stripes.clamp(1, n.max(1));
    if stripes == 1 {
        gemm_f32(a, b, c, m, k, n);
        return;
    }
    let width = n.div_ceil(stripes);
    let jobs: Vec<(usize, usize)> = (0..n)
        .step_by(width)
        .map(|j0| (j0, width.min(n - j0)))
        .collect();
    let done: Vec<(usize, usize, Vec<f32>)> = jobs
        .into_par_iter()
        .map(|(j0, nb)| {
            let mut buf = vec![0.0f32; m * nb];
            gemm_stripe(a, b, &mut buf, m, k, nb, n, j0);
            (j0, nb, buf)
        })
        .collect();
    for (j0, nb, buf) in done {
        for i in 0..m {
            c[i * n + j0..i * n + j0 + nb].copy_from_slice(&buf[i * nb..(i + 1) * nb]);
        }
    }
}

/// Accumulate `a (m×k) · b[:, j0..j0+nb]` onto a column stripe `c` of row
/// stride `nb`, where `b` has row stride `ldb`. `c` must hold the stripe's
/// prior contents (zeros for a plain multiply).
#[allow(clippy::too_many_arguments)]
fn gemm_stripe(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    nb: usize,
    ldb: usize,
    j0: usize,
) {
    let mut pb = 0usize;
    while pb < k {
        let kc = GEMM_KC.min(k - pb);
        let mut i = 0usize;
        while i < m {
            let mr = GEMM_MR.min(m - i);
            let mut j = 0usize;
            while j < nb {
                let nr = GEMM_NR.min(nb - j);
                if mr == GEMM_MR && nr == GEMM_NR {
                    gemm_microkernel(a, b, c, k, nb, ldb, i, j, j0 + j, pb, kc);
                } else {
                    // Tail rows/columns: scalar register accumulation with the
                    // same strictly increasing-`p` order as the full tile.
                    for r in 0..mr {
                        let arow = &a[(i + r) * k..(i + r + 1) * k];
                        let crow = &mut c[(i + r) * nb + j..(i + r) * nb + j + nr];
                        for (q, cv) in crow.iter_mut().enumerate() {
                            let mut acc = *cv;
                            for p in pb..pb + kc {
                                acc += arow[p] * b[p * ldb + j0 + j + q];
                            }
                            *cv = acc;
                        }
                    }
                }
                j += nr;
            }
            i += mr;
        }
        pb += kc;
    }
}

/// Rows per register tile of the integer GEMM microkernel.
const GEMM_I32_MR: usize = 4;
/// Columns per register tile of the integer GEMM microkernel: four rows of
/// eight `i64` accumulator lanes map onto 4×(2×ymm) with AVX2 or 4×zmm with
/// AVX-512.
const GEMM_I32_NR: usize = 8;

/// Dense row-major integer matrix multiply on raw slices:
/// `c = a (m×k) · b (k×n)` with `i32` operands and `i64` accumulators,
/// overwriting `c`.
///
/// This is the hot inner kernel of the fast (uninstrumented) quantized
/// winograd path: one call per winograd-domain coordinate, with quantized
/// `i32` words in and wide `i64` accumulators out — the same accumulator
/// domain the instrumented scalar kernels produce. It is cache-blocked
/// exactly like [`gemm_f32`] ([`GEMM_KC`]-deep panels consumed by a
/// [`GEMM_I32_MR`]`×`[`GEMM_I32_NR`] register tile), and because integer
/// addition is associative the result is *bit-identical* to a naive `i-j-k`
/// triple loop — and to the instrumented kernels run on exact arithmetic —
/// for every blocking, provided no intermediate sum overflows `i64`
/// (full-scale `i32` operands already reach `2⁶²` per product, so only
/// trivial depths survive at full scale — but real quantized words are
/// bounded by the storage width at ≤ 2¹⁷, leaving headroom for `k` beyond
/// `2²⁸`).
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical -- the quantized campaign GEMM; integer, order-independent
pub fn gemm_i32(a: &[i32], b: &[i32], c: &mut [i64], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_i32: lhs too short");
    assert!(b.len() >= k * n, "gemm_i32: rhs too short");
    assert!(c.len() >= m * n, "gemm_i32: out too short");
    c[..m * n].fill(0);
    // A column block narrower than GEMM_I32_NR runs the register tile on a
    // copy of its panel zero-padded to GEMM_I32_NR columns: the padding
    // lanes multiply zeros and are never stored.
    let narrow = n % GEMM_I32_NR;
    let mut panel = Vec::new();
    if narrow != 0 && m >= GEMM_I32_MR {
        panel.resize(GEMM_KC.min(k) * GEMM_I32_NR, 0);
    }
    let mut pb = 0usize;
    while pb < k {
        let kc = GEMM_KC.min(k - pb);
        if !panel.is_empty() {
            let j = n - narrow;
            for (q, row) in panel.chunks_exact_mut(GEMM_I32_NR).take(kc).enumerate() {
                row[..narrow].copy_from_slice(&b[(pb + q) * n + j..][..narrow]);
            }
        }
        let mut i = 0usize;
        while i < m {
            let mr = GEMM_I32_MR.min(m - i);
            let mut j = 0usize;
            while j < n {
                let nr = GEMM_I32_NR.min(n - j);
                if mr == GEMM_I32_MR {
                    let mut tile = [[0i64; GEMM_I32_NR]; GEMM_I32_MR];
                    for (r, row) in tile.iter_mut().enumerate() {
                        row[..nr].copy_from_slice(&c[(i + r) * n + j..][..nr]);
                    }
                    if nr == GEMM_I32_NR {
                        gemm_i32_microkernel(a, k, i, &b[pb * n + j..], n, pb, kc, &mut tile);
                    } else {
                        gemm_i32_microkernel(a, k, i, &panel, GEMM_I32_NR, pb, kc, &mut tile);
                    }
                    for (r, row) in tile.iter().enumerate() {
                        c[(i + r) * n + j..][..nr].copy_from_slice(&row[..nr]);
                    }
                } else {
                    // Tail rows: scalar accumulation over the same panel
                    // depth.
                    for r in 0..mr {
                        let arow = &a[(i + r) * k..(i + r + 1) * k];
                        let crow = &mut c[(i + r) * n + j..(i + r) * n + j + nr];
                        for (q, cv) in crow.iter_mut().enumerate() {
                            let mut acc = *cv;
                            for p in pb..pb + kc {
                                acc += i64::from(arow[p]) * i64::from(b[p * n + j + q]);
                            }
                            *cv = acc;
                        }
                    }
                }
                j += nr;
            }
            i += mr;
        }
        pb += kc;
    }
}

/// The 4×8 integer register tile: widening `i32·i32 → i64` multiplies of
/// rows `i..i + 4` of `a` (depth `pb..pb + kc`) by `kc` panel rows of
/// `b` (row `q` at `b[q * ldb..]`, eight columns), accumulated in `tile`.
// wgft-audit: consensus-critical -- register tile of the quantized GEMM
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_i32_microkernel(
    a: &[i32],
    k: usize,
    i: usize,
    b: &[i32],
    ldb: usize,
    pb: usize,
    kc: usize,
    tile: &mut [[i64; GEMM_I32_NR]; GEMM_I32_MR],
) {
    let [mut acc0, mut acc1, mut acc2, mut acc3] = *tile;
    let a0 = &a[i * k + pb..][..kc];
    let a1 = &a[(i + 1) * k + pb..][..kc];
    let a2 = &a[(i + 2) * k + pb..][..kc];
    let a3 = &a[(i + 3) * k + pb..][..kc];
    for q in 0..kc {
        let brow: &[i32; GEMM_I32_NR] = b[q * ldb..q * ldb + GEMM_I32_NR]
            .try_into()
            .expect("panel row is GEMM_I32_NR wide");
        let (av0, av1, av2, av3) = (
            i64::from(a0[q]),
            i64::from(a1[q]),
            i64::from(a2[q]),
            i64::from(a3[q]),
        );
        for lane in 0..GEMM_I32_NR {
            let bv = i64::from(brow[lane]);
            acc0[lane] += av0 * bv;
            acc1[lane] += av1 * bv;
            acc2[lane] += av2 * bv;
            acc3[lane] += av3 * bv;
        }
    }
    *tile = [acc0, acc1, acc2, acc3];
}

/// `Σ a[i] · b[i]` over two equally long `i32` rows, widened to `i64` and
/// summed with two's-complement wrapping — the contiguous dot product
/// fault-site replay takes its exact chain prefixes and suffixes from.
///
/// # Panics
///
/// Panics if the rows differ in length.
// wgft-audit: consensus-critical -- exact chain sums of replayed campaign cells; integer, order-independent
#[must_use]
pub fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
    assert_eq!(a.len(), b.len(), "dot_i32: rows differ in length");
    a.iter().zip(b).fold(0i64, |acc, (&x, &y)| {
        acc.wrapping_add(i64::from(x) * i64::from(y))
    })
}

/// The 4×8 register tile: loads `c`, streams one `b` panel row per `p`, and
/// stores `c` back once per k-block. `jc` is the tile's column inside the
/// stripe, `jb` its absolute column in `b`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_microkernel(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    ldc: usize,
    ldb: usize,
    i: usize,
    jc: usize,
    jb: usize,
    pb: usize,
    kc: usize,
) {
    let mut acc0 = [0.0f32; GEMM_NR];
    let mut acc1 = [0.0f32; GEMM_NR];
    let mut acc2 = [0.0f32; GEMM_NR];
    let mut acc3 = [0.0f32; GEMM_NR];
    acc0.copy_from_slice(&c[i * ldc + jc..i * ldc + jc + GEMM_NR]);
    acc1.copy_from_slice(&c[(i + 1) * ldc + jc..(i + 1) * ldc + jc + GEMM_NR]);
    acc2.copy_from_slice(&c[(i + 2) * ldc + jc..(i + 2) * ldc + jc + GEMM_NR]);
    acc3.copy_from_slice(&c[(i + 3) * ldc + jc..(i + 3) * ldc + jc + GEMM_NR]);
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    for p in pb..pb + kc {
        // Fixed-size array view: no per-lane bounds checks in the hot loop.
        let brow: &[f32; GEMM_NR] = b[p * ldb + jb..p * ldb + jb + GEMM_NR]
            .try_into()
            .expect("panel row is GEMM_NR wide");
        let (av0, av1, av2, av3) = (a0[p], a1[p], a2[p], a3[p]);
        for q in 0..GEMM_NR {
            let bv = brow[q];
            acc0[q] += av0 * bv;
            acc1[q] += av1 * bv;
            acc2[q] += av2 * bv;
            acc3[q] += av3 * bv;
        }
    }
    c[i * ldc + jc..i * ldc + jc + GEMM_NR].copy_from_slice(&acc0);
    c[(i + 1) * ldc + jc..(i + 1) * ldc + jc + GEMM_NR].copy_from_slice(&acc1);
    c[(i + 2) * ldc + jc..(i + 2) * ldc + jc + GEMM_NR].copy_from_slice(&acc2);
    c[(i + 3) * ldc + jc..(i + 3) * ldc + jc + GEMM_NR].copy_from_slice(&acc3);
}

/// Dense row-major matrix multiply `C = A (m x k) * B (k x n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not 2-D and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.shape().rank() != 2 {
                a.shape().rank()
            } else {
                b.shape().rank()
            },
        });
    }
    let (m, k1) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k1 != k2 {
        return Err(TensorError::InnerDimMismatch {
            left: k1,
            right: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_f32(a.data(), b.data(), &mut out, m, k1, n);
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Zero-pad a single-image NCHW tensor (batch must be 1) by `padding` pixels
/// on every spatial side.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `x` is not 4-D.
pub fn pad2d(x: &Tensor, padding: usize) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    if padding == 0 {
        return Ok(x.clone());
    }
    let dims = x.shape().dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(Shape::nchw(n, c, h + 2 * padding, w + 2 * padding));
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let v = x.get4(ni, ci, hi, wi)?;
                    out.set4(ni, ci, hi + padding, wi + padding, v)?;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_dim_matches_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 1, 0), 6);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(2, 5, 1, 0), 0);
        assert_eq!(conv_out_dim(8, 3, 0, 0), 0);
    }

    #[test]
    fn geometry_helpers() {
        let g = ConvGeometry::square(16, 3, 1, 1);
        assert_eq!(g.out_h(), 16);
        assert_eq!(g.out_w(), 16);
        assert_eq!(g.out_pixels(), 256);
        assert!(g.is_unit_stride_3x3());
        let g = ConvGeometry::square(16, 5, 2, 2);
        assert!(!g.is_unit_stride_3x3());
        assert_eq!(g.out_h(), 8);
    }

    /// Naive `i-j-k` reference: each output element accumulates its products
    /// in increasing-`k` order, the association the blocked kernel promises
    /// to preserve bit-for-bit.
    fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
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

    fn gemm_fixture(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 19) as f32) * 0.21 - 1.7)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 % 23) as f32) * 0.13 - 1.1)
            .collect();
        (a, b)
    }

    /// The blocked microkernel must agree with the naive reference *exactly*
    /// across odd/prime shapes that exercise every tail-row and tail-column
    /// path, plus a depth beyond one k-block.
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 13),
            (3, 5, 9),
            (4, 8, 8),
            (5, 3, 17),
            (7, 11, 7),
            (8, 16, 24),
            (9, 13, 31),
            (13, 17, 19),
            (17, 300, 23), // k spans two GEMM_KC blocks
            (33, 5, 41),
        ] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut c = vec![f32::NAN; m * n]; // stale values must be overwritten
            gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(
                c,
                naive_gemm(&a, &b, m, k, n),
                "blocked gemm diverged at m={m} k={k} n={n}"
            );
        }
    }

    /// Column-stripe sharding (the parallel decomposition) must not change a
    /// single bit, for any stripe count including ones that leave ragged
    /// stripes.
    #[test]
    fn striped_gemm_is_bit_identical_to_serial() {
        for &(m, k, n) in &[(5usize, 7usize, 23usize), (16, 32, 64), (3, 300, 17)] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut serial = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut serial, m, k, n);
            for stripes in [1usize, 2, 3, 5, 8] {
                let mut sharded = vec![f32::NAN; m * n];
                gemm_f32_striped(&a, &b, &mut sharded, m, k, n, stripes);
                assert_eq!(serial, sharded, "stripes={stripes} m={m} k={k} n={n}");
            }
        }
    }

    /// The public parallel entry point (whatever the ambient thread count)
    /// must match the serial kernel exactly, including above the
    /// work-threshold where it actually shards.
    #[test]
    fn par_gemm_matches_serial_bit_for_bit() {
        for &(m, k, n) in &[(4usize, 6usize, 10usize), (64, 64, 96), (96, 96, 96)] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut serial = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut serial, m, k, n);
            let mut par = vec![f32::NAN; m * n];
            par_gemm_f32(&a, &b, &mut par, m, k, n);
            assert_eq!(serial, par, "m={m} k={k} n={n}");
        }
    }

    /// Degenerate shapes — `m` or `n` (or both) smaller than the 4×16
    /// register tile, GEMV-shaped products, single elements — must take the
    /// tail paths without misindexing, for the serial, striped and parallel
    /// entry points alike.
    #[test]
    fn degenerate_shapes_are_bit_identical_to_naive_for_every_entry_point() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 5, 17),
            (1, 300, 17), // one row, k spans two GEMM_KC panels
            (3, 5, 5),
            (2, 9, 1), // GEMV: single output column
            (5, 7, 1),
            (17, 3, 1),
            (1, 1, 16),
            (16, 1, 1),
            (4, 300, 3),
            (3, 7, 15), // one short of the full tile width
            (5, 2, 16), // exactly one tile wide, ragged rows
        ] {
            let (a, b) = gemm_fixture(m, k, n);
            let expect = naive_gemm(&a, &b, m, k, n);
            let mut c = vec![f32::NAN; m * n];
            gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(c, expect, "gemm_f32 m={m} k={k} n={n}");
            let mut c = vec![f32::NAN; m * n];
            par_gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(c, expect, "par_gemm_f32 m={m} k={k} n={n}");
            for stripes in [1usize, 2, 3, 7] {
                let mut c = vec![f32::NAN; m * n];
                gemm_f32_striped(&a, &b, &mut c, m, k, n, stripes);
                assert_eq!(c, expect, "striped({stripes}) m={m} k={k} n={n}");
            }
        }
    }

    /// Naive integer reference for [`gemm_i32`].
    fn naive_gemm_i32(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut c = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = (0..k)
                    .map(|p| i64::from(a[i * k + p]) * i64::from(b[p * n + j]))
                    .sum();
            }
        }
        c
    }

    fn gemm_i32_fixture(m: usize, k: usize, n: usize) -> (Vec<i32>, Vec<i32>) {
        let a: Vec<i32> = (0..m * k).map(|i| ((i * 31 % 19) as i32) - 9).collect();
        let b: Vec<i32> = (0..k * n).map(|i| ((i * 17 % 23) as i32) - 11).collect();
        (a, b)
    }

    /// The blocked integer kernel must agree with the naive reference exactly
    /// over the same degenerate and tail-exercising shape grid as the f32
    /// kernel, plus a depth beyond one k-block.
    #[test]
    fn blocked_gemm_i32_matches_naive_across_shape_grid() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 13),
            (1, 5, 17),
            (3, 5, 9),
            (2, 9, 1), // GEMV
            (5, 7, 1),
            (4, 8, 8),
            (5, 3, 17),
            (7, 11, 7),
            (8, 16, 24),
            (9, 13, 31),
            (17, 300, 23), // k spans two GEMM_KC blocks
            (33, 5, 41),
        ] {
            let (a, b) = gemm_i32_fixture(m, k, n);
            let mut c = vec![i64::MIN; m * n]; // stale values must be overwritten
            gemm_i32(&a, &b, &mut c, m, k, n);
            assert_eq!(
                c,
                naive_gemm_i32(&a, &b, m, k, n),
                "gemm_i32 diverged at m={m} k={k} n={n}"
            );
        }
    }

    /// Column blocks narrower than the register tile (every `n` not a
    /// multiple of eight) run on a zero-padded panel: bit-identical to the
    /// naive reference for every narrow width and row count, and at a depth
    /// spanning two k-blocks.
    #[test]
    fn narrow_gemm_i32_tails_match_naive() {
        for n in 1..=9usize {
            for m in 1..=5usize {
                for k in [1usize, 7, 300] {
                    let (a, b) = gemm_i32_fixture(m, k, n);
                    let mut c = vec![i64::MIN; m * n];
                    gemm_i32(&a, &b, &mut c, m, k, n);
                    assert_eq!(c, naive_gemm_i32(&a, &b, m, k, n), "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn dot_i32_matches_a_widening_sum_and_wraps() {
        let (a, b) = gemm_i32_fixture(1, 37, 37);
        let want: i64 = a
            .iter()
            .zip(&b[..37])
            .map(|(&x, &y)| i64::from(x) * i64::from(y))
            .sum();
        assert_eq!(dot_i32(&a, &b[..37]), want);
        assert_eq!(dot_i32(&[], &[]), 0);
        let big = vec![i32::MIN; 4];
        let wrapped = (i64::from(i32::MIN) * i64::from(i32::MIN)).wrapping_mul(4);
        assert_eq!(dot_i32(&big, &big), wrapped);
    }

    /// Extreme magnitudes: the widening multiply itself must not overflow
    /// for full-scale `i32` operands (the shallowest depth where the `i64`
    /// accumulator still holds the sum).
    #[test]
    fn gemm_i32_survives_full_scale_operands() {
        let (m, k, n) = (3usize, 2usize, 9usize);
        let a = vec![i32::MAX; m * k];
        let b = vec![i32::MIN + 1; k * n];
        let mut c = vec![0i64; m * n];
        gemm_i32(&a, &b, &mut c, m, k, n);
        let expect = i64::from(i32::MAX) * i64::from(i32::MIN + 1) * k as i64;
        assert!(c.iter().all(|&v| v == expect));
    }

    #[test]
    fn gemm_overwrites_and_matches_matmul() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32) * 0.5 - 2.0).collect();
        let mut c = vec![7.0f32; 2 * 4]; // stale values must be overwritten
        gemm_f32(&a, &b, &mut c, 2, 3, 4);
        let at = Tensor::from_vec(Shape::d2(2, 3), a).unwrap();
        let bt = Tensor::from_vec(Shape::d2(3, 4), b).unwrap();
        assert_eq!(c, matmul(&at, &bt).unwrap().data());
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &Shape::d2(2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn pad2d_places_values_centrally() {
        let mut x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        x.set4(0, 0, 0, 0, 1.0).unwrap();
        x.set4(0, 0, 1, 1, 2.0).unwrap();
        let p = pad2d(&x, 1).unwrap();
        assert_eq!(p.shape(), &Shape::nchw(1, 1, 4, 4));
        assert_eq!(p.get4(0, 0, 1, 1).unwrap(), 1.0);
        assert_eq!(p.get4(0, 0, 2, 2).unwrap(), 2.0);
        assert_eq!(p.get4(0, 0, 0, 0).unwrap(), 0.0);
        // Zero padding is the identity for padding == 0.
        assert_eq!(pad2d(&x, 0).unwrap(), x);
    }

    #[test]
    fn pad2d_rejects_non_4d() {
        let x = Tensor::zeros(Shape::d2(2, 2));
        assert!(pad2d(&x, 1).is_err());
    }
}
