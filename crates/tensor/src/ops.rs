//! Dense operations: the blocked GEMM in both number domains and
//! convolution geometry.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul};

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
fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return 0;
    }
    (padded - kernel) / stride + 1
}

/// Rows of `c` computed per register tile of the GEMM kernel.
const GEMM_MR: usize = 4;
/// Columns per f32 register tile: four rows of 16 f32 lanes map onto
/// 4×(2×ymm) with AVX2 or 4×zmm with AVX-512.
const GEMM_F32_NR: usize = 16;
/// Columns per integer register tile: four rows of eight `i64` accumulator
/// lanes map onto 4×(2×ymm) with AVX2 or 4×zmm with AVX-512.
const GEMM_I32_NR: usize = 8;
/// Depth of one k-block: a `GEMM_KC`-deep panel of `b` (~8–16 KiB) stays
/// L1-resident while a register tile runs over it.
const GEMM_KC: usize = 256;

/// Dense row-major matrix multiply on raw slices: `c = a (m×k) · b (k×n)`,
/// overwriting `c`.
///
/// This is the hot inner kernel of the planned winograd scatter–GEMM path
/// (one call per winograd-domain coordinate), and the float domain of the
/// blocked kernel behind [`gemm_i32`]: `k` is split into 256-deep panels,
/// each consumed by a 4×16 register tile that touches each `c` element once
/// per panel instead of once per `k` step.
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
    assert!(c.len() >= m * n, "gemm_f32: out too short");
    c[..m * n].fill(Default::default());
    gemm_f32_acc(a, b, c, m, k, n);
}

/// Accumulating row-major matrix multiply: `c += a (m×k) · b (k×n)`.
///
/// [`gemm_f32`] without its zero fill, on the same blocked loop: every
/// `c[i][j]` continues from its current value and adds its `k` products in
/// strictly increasing-`p` order. Accumulating several products into one
/// `c` is therefore bit-identical to one naive loop over their concatenated
/// `k` — how the float conv layer sums its weight gradient over the samples
/// of a mini-batch.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical -- campaign-visible through float training
// (the weight gradient of every conv layer); output bits pinned by the
// determinism vectors
pub fn gemm_f32_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_f32: lhs too short");
    assert!(b.len() >= k * n, "gemm_f32: rhs too short");
    assert!(c.len() >= m * n, "gemm_f32: out too short");
    gemm::<_, GEMM_F32_NR>(a, b, c, m, k, n);
}

/// Dense row-major integer matrix multiply on raw slices:
/// `c = a (m×k) · b (k×n)` with `i32` operands and `i64` accumulators,
/// overwriting `c`.
///
/// This is the hot inner kernel of the fast (uninstrumented) quantized
/// winograd path: one call per winograd-domain coordinate, with quantized
/// `i32` words in and wide `i64` accumulators out — the same accumulator
/// domain the instrumented scalar kernels produce. It is the integer domain
/// of the blocked kernel behind [`gemm_f32`], with a 4×8 register tile, and
/// because integer addition is associative the result is *bit-identical* to
/// a naive `i-j-k` triple loop — and to the instrumented kernels run on
/// exact arithmetic — for every blocking, provided no intermediate sum
/// overflows `i64` (full-scale `i32` operands already reach `2⁶²` per
/// product, so only trivial depths survive at full scale — but real
/// quantized words are bounded by the storage width at ≤ 2¹⁷, leaving
/// headroom for `k` beyond `2²⁸`).
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
    gemm::<_, GEMM_I32_NR>(a, b, c, m, k, n);
}

/// A number domain of the blocked GEMM: operand words of type `Self`,
/// widened into accumulators of type [`GemmWord::Acc`]. Zero (`Default`) is
/// the padding word of a narrow column tail.
// wgft-audit: consensus-critical -- the operand and accumulator types of the blocked GEMM
trait GemmWord: Copy + Default {
    /// Accumulator type: one multiply and one add per `k` step.
    type Acc: Copy + Default + Add<Output = Self::Acc> + Mul<Output = Self::Acc>;
    /// The operand as an accumulator.
    fn widen(self) -> Self::Acc;
}

// wgft-audit: consensus-critical -- the float domain of the blocked GEMM
// wgft-audit: blessed(float-arith) -- `tile` rounds once per multiply and once per add, in the fixed increasing-`k` order the determinism vectors pin; Rust never contracts `a * b + c` into an FMA
impl GemmWord for f32 {
    type Acc = f32;
    #[inline]
    fn widen(self) -> f32 {
        self
    }
}

// wgft-audit: consensus-critical -- the integer domain of the blocked GEMM; widening `i32 → i64`, order-independent
impl GemmWord for i32 {
    type Acc = i64;
    #[inline]
    fn widen(self) -> i64 {
        i64::from(self)
    }
}

/// The blocked loop behind [`gemm_f32`], [`gemm_f32_acc`] and
/// [`gemm_i32`]: `c += a · b` in [`GEMM_KC`]-deep panels, each swept by
/// [`GEMM_MR`]`×NR` register tiles. The overwriting entry points zero `c`
/// first.
///
/// A full tile runs in place on `c`. A ragged one runs on a padded copy of
/// its rows and lanes: a column block narrower than `NR` reads a copy of its
/// panel zero-padded to `NR` columns, and a row block shorter than
/// [`GEMM_MR`] repeats its last row of `a`. Padding lanes and repeated rows
/// are computed but never stored.
// wgft-audit: consensus-critical -- the blocked loop of every campaign GEMM; fixed increasing-`k` order per output
fn gemm<W: GemmWord, const NR: usize>(
    a: &[W],
    b: &[W],
    c: &mut [W::Acc],
    m: usize,
    k: usize,
    n: usize,
) {
    let narrow = n % NR;
    let mut panel = Vec::new();
    if narrow != 0 {
        panel.resize(GEMM_KC.min(k) * NR, W::default());
    }
    let mut part = [[W::Acc::default(); NR]; GEMM_MR];
    let mut pb = 0usize;
    while pb < k {
        let kc = GEMM_KC.min(k - pb);
        for (q, row) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
            row[..narrow].copy_from_slice(&b[(pb + q) * n + n - narrow..][..narrow]);
        }
        for i in (0..m).step_by(GEMM_MR) {
            let mr = GEMM_MR.min(m - i);
            // A literal array (not `array::from_fn`) keeps the four row
            // slices in registers through the tile's loop.
            let a_row = |r: usize| &a[(i + r.min(mr - 1)) * k + pb..][..kc];
            let rows = [a_row(0), a_row(1), a_row(2), a_row(3)];
            for j in (0..n).step_by(NR) {
                let nr = NR.min(n - j);
                let full = mr == GEMM_MR && nr == NR;
                if !full {
                    // Fresh zeros, so repeated rows never carry a sum over
                    // from an earlier ragged tile.
                    part = [[W::Acc::default(); NR]; GEMM_MR];
                    for (r, row) in part.iter_mut().enumerate().take(mr) {
                        row[..nr].copy_from_slice(&c[(i + r) * n + j..][..nr]);
                    }
                }
                let (panel_b, ldb) = if nr == NR {
                    (&b[pb * n + j..], n)
                } else {
                    (&panel[..], NR)
                };
                let (dst, ldc) = if full {
                    (&mut c[i * n + j..], n)
                } else {
                    (part.as_flattened_mut(), NR)
                };
                tile::<W, NR>(rows, panel_b, ldb, dst, ldc);
                if !full {
                    for (r, row) in part.iter().enumerate().take(mr) {
                        c[(i + r) * n + j..][..nr].copy_from_slice(&row[..nr]);
                    }
                }
            }
        }
        pb += kc;
    }
}

/// The `GEMM_MR×NR` register tile: loads four `NR`-wide rows of `c` (row
/// stride `ldc`), accumulates one `b` panel row (row `q` at `b[q * ldb..]`)
/// per step `q` along the `a` rows, in increasing `q`, and stores the rows
/// back.
// wgft-audit: consensus-critical -- register tile of every campaign GEMM; fixed increasing-`k` order per output
#[inline]
fn tile<W: GemmWord, const NR: usize>(
    a: [&[W]; GEMM_MR],
    b: &[W],
    ldb: usize,
    c: &mut [W::Acc],
    ldc: usize,
) {
    // Rows resliced to one known length: no per-step bounds checks on `a`.
    let kc = a[0].len();
    let (a0, a1, a2, a3) = (&a[0][..kc], &a[1][..kc], &a[2][..kc], &a[3][..kc]);
    // Fixed-size array views: no per-lane bounds checks in the hot loop.
    let load =
        |r: usize| -> [W::Acc; NR] { c[r * ldc..][..NR].try_into().expect("tile row is NR wide") };
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (load(0), load(1), load(2), load(3));
    for q in 0..kc {
        let brow: &[W; NR] = b[q * ldb..][..NR].try_into().expect("panel row is NR wide");
        let (av0, av1, av2, av3) = (a0[q].widen(), a1[q].widen(), a2[q].widen(), a3[q].widen());
        for lane in 0..NR {
            let bv = brow[lane].widen();
            acc0[lane] = acc0[lane] + av0 * bv;
            acc1[lane] = acc1[lane] + av1 * bv;
            acc2[lane] = acc2[lane] + av2 * bv;
            acc3[lane] = acc3[lane] + av3 * bv;
        }
    }
    for (r, row) in [acc0, acc1, acc2, acc3].iter().enumerate() {
        c[r * ldc..][..NR].copy_from_slice(row);
    }
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

    /// Run `m×k×n` through both entry points, each over an output full of
    /// stale values, and require their naive loops' bits exactly.
    fn assert_both_domains_match_naive(m: usize, k: usize, n: usize) {
        let (a, b) = gemm_fixture(m, k, n);
        let mut c = vec![f32::NAN; m * n];
        gemm_f32(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive_gemm(&a, &b, m, k, n), "gemm_f32 m={m} k={k} n={n}");
        let (a, b) = gemm_i32_fixture(m, k, n);
        let mut c = vec![i64::MIN; m * n];
        gemm_i32(&a, &b, &mut c, m, k, n);
        assert_eq!(
            c,
            naive_gemm_i32(&a, &b, m, k, n),
            "gemm_i32 m={m} k={k} n={n}"
        );
    }

    /// Odd and prime shapes that exercise every tail-row and tail-column
    /// path of both tile widths, plus a depth beyond one k-block.
    const BLOCKED_GRID: &[(usize, usize, usize)] = &[
        (1, 1, 1),
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
        (13, 17, 19),
        (17, 300, 23), // k spans two GEMM_KC blocks
        (33, 5, 41),
    ];

    /// The blocked f32 kernel must agree with the naive reference *exactly*
    /// over the shared shape grid.
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive_reference() {
        for &(m, k, n) in BLOCKED_GRID {
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

    /// The accumulating entry point must continue every preloaded output
    /// exactly as a naive loop that starts from it does, over the shared
    /// shape grid; and two accumulated products must equal one product over
    /// their concatenated depth.
    #[test]
    fn accumulating_gemm_continues_preloaded_outputs_bit_for_bit() {
        for &(m, k, n) in BLOCKED_GRID {
            let (a, b) = gemm_fixture(m, k, n);
            let preload: Vec<f32> = (0..m * n)
                .map(|i| ((i * 7 % 13) as f32) * 0.37 - 2.1)
                .collect();
            let mut c = preload.clone();
            gemm_f32_acc(&a, &b, &mut c, m, k, n);
            let mut want = preload;
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        want[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            assert_eq!(c, want, "gemm_f32_acc diverged at m={m} k={k} n={n}");

            // Split the depth at `k / 2`: `c = a₁·b₁` then `c += a₂·b₂`.
            let half = k / 2;
            let cols = |range: std::ops::Range<usize>| -> Vec<f32> {
                (0..m)
                    .flat_map(|i| a[i * k..][range.clone()].to_vec())
                    .collect()
            };
            let mut split = vec![f32::NAN; m * n];
            gemm_f32(&cols(0..half), &b[..half * n], &mut split, m, half, n);
            gemm_f32_acc(&cols(half..k), &b[half * n..], &mut split, m, k - half, n);
            assert_eq!(
                split,
                naive_gemm(&a, &b, m, k, n),
                "split depth m={m} k={k} n={n}"
            );
        }
    }

    /// Column-stripe sharding of the free dimension (what the planned
    /// engine's image chunks do to `n`) must not change a single bit in
    /// either domain, for stripe widths that move columns between full
    /// tiles and the padded narrow tail.
    #[test]
    fn striped_gemm_is_bit_identical_to_serial() {
        fn stripe<T: Copy>(b: &[T], k: usize, n: usize, j0: usize, nb: usize) -> Vec<T> {
            (0..k)
                .flat_map(|p| b[p * n + j0..p * n + j0 + nb].iter().copied())
                .collect()
        }
        for &(m, k, n) in &[(5usize, 7usize, 23usize), (16, 32, 64), (3, 300, 17)] {
            let (a, b) = gemm_fixture(m, k, n);
            let (ai, bi) = gemm_i32_fixture(m, k, n);
            let mut serial = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut serial, m, k, n);
            let mut serial_i = vec![0i64; m * n];
            gemm_i32(&ai, &bi, &mut serial_i, m, k, n);
            for width in [1usize, 5, 8, 13, 16, 21] {
                for j0 in (0..n).step_by(width) {
                    let nb = width.min(n - j0);
                    let mut c = vec![f32::NAN; m * nb];
                    gemm_f32(&a, &stripe(&b, k, n, j0, nb), &mut c, m, k, nb);
                    let mut ci = vec![i64::MIN; m * nb];
                    gemm_i32(&ai, &stripe(&bi, k, n, j0, nb), &mut ci, m, k, nb);
                    for i in 0..m {
                        let whole = i * n + j0..i * n + j0 + nb;
                        let part = i * nb..(i + 1) * nb;
                        let what = format!("width={width} j0={j0} m={m} k={k} n={n}");
                        assert_eq!(serial[whole.clone()], c[part.clone()], "f32 {what}");
                        assert_eq!(serial_i[whole], ci[part], "i32 {what}");
                    }
                }
            }
        }
    }

    /// Degenerate shapes — `m` or `n` (or both) smaller than the register
    /// tile, GEMV-shaped products, single elements — must take the padded
    /// tail paths without misindexing, through both entry points.
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
            (3, 7, 15), // one short of the f32 tile width
            (5, 2, 16), // exactly one f32 tile wide, ragged rows
            (5, 2, 8),  // exactly one i32 tile wide, ragged rows
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
        ] {
            assert_both_domains_match_naive(m, k, n);
        }
    }

    /// The blocked integer kernel must agree with the naive reference
    /// exactly over the shared shape grid.
    #[test]
    fn blocked_gemm_i32_matches_naive_across_shape_grid() {
        for &(m, k, n) in BLOCKED_GRID {
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

    /// Column blocks narrower than the register tile run on a zero-padded
    /// panel in both domains: bit-identical to the naive references for
    /// every width up to one past the f32 tile (a partial panel alone, a
    /// full tile plus a tail, for both the 8- and the 16-lane tile), every
    /// row count around the 4-row tile, and a depth spanning two k-blocks.
    #[test]
    fn narrow_gemm_i32_tails_match_naive() {
        for n in 1..=17usize {
            for m in 1..=5usize {
                for k in [1usize, 7, 300] {
                    assert_both_domains_match_naive(m, k, n);
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
}
