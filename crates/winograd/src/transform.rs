//! Winograd transform matrices and tile geometry.
//!
//! The minimal filtering algorithm F(m x m, r x r) computes an `m x m` output
//! tile from an `(m + r - 1) x (m + r - 1)` input tile with
//! `(m + r - 1)^2` multiplications. The F(2x2) and F(4x4) matrices below are
//! the standard Lavin & Gray constructions; the F(6x6) matrices are generated
//! at first use by [`wgft_tile`]'s exact-rational pipeline on the canonical
//! point set (which reproduces the hand-coded F(2x2)/F(4x4) constants
//! bit-for-bit — regression-asserted in the tests).
//!
//! The input transform `Bᵀ d B` and output transform `Aᵀ M A` have integer
//! coefficients and are therefore executed exactly on the quantized datapath
//! (through the instrumented [`wgft_faultsim::Arithmetic`] backend); the
//! filter transform `G g Gᵀ` has fractional coefficients and is applied
//! offline to the floating-point weights before they are quantized.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// F(2x2, 3x3): 4x4 input tile, 2x2 output tile, 16 multiplications
/// (2.25x fewer than the 36 a direct 3x3 convolution would need).
pub const F2X2_3X3: WinogradVariant = WinogradVariant::F2x2;

/// F(4x4, 3x3): 6x6 input tile, 4x4 output tile, 36 multiplications
/// (4x fewer than direct convolution) at the cost of a wider dynamic range in
/// the transformed domain.
pub const F4X4_3X3: WinogradVariant = WinogradVariant::F4x4;

/// F(6x6, 3x3): 8x8 input tile, 6x6 output tile, 64 multiplications
/// (5.06x fewer than direct convolution). Its transform matrices are
/// generated from the canonical fractional point set rather than hand-coded.
pub const F6X6_3X3: WinogradVariant = WinogradVariant::F6x6;

/// Supported winograd tile sizes for 3x3 kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WinogradVariant {
    /// F(2x2, 3x3) — the variant the paper (and most int8/int16 deployments)
    /// uses because its transforms only involve additions and halving.
    #[default]
    F2x2,
    /// F(4x4, 3x3) — larger tiles, fewer multiplications, larger numeric range.
    F4x4,
    /// F(6x6, 3x3) — largest supported tile: fewest multiplications, widest
    /// numeric range and strongest fault amplification. Generated by
    /// [`wgft_tile`] on the canonical point set (±1/2 fractional points).
    F6x6,
}

impl WinogradVariant {
    /// Output tile size `m`.
    #[must_use]
    pub const fn output_tile(&self) -> usize {
        match self {
            WinogradVariant::F2x2 => 2,
            WinogradVariant::F4x4 => 4,
            WinogradVariant::F6x6 => 6,
        }
    }

    /// Input tile size `m + r - 1`.
    #[must_use]
    pub const fn input_tile(&self) -> usize {
        self.output_tile() + 2
    }

    /// Kernel size `r` (always 3).
    #[must_use]
    pub const fn kernel(&self) -> usize {
        3
    }

    /// Number of element-wise multiplications per tile.
    #[must_use]
    pub const fn muls_per_tile(&self) -> usize {
        self.input_tile() * self.input_tile()
    }

    /// The input transform matrix `Bᵀ` (row-major, `input_tile x input_tile`),
    /// with exactly representable integer coefficients.
    #[must_use]
    pub fn bt(&self) -> &'static [i32] {
        match self {
            WinogradVariant::F2x2 => &BT_F2X2,
            WinogradVariant::F4x4 => &BT_F4X4,
            WinogradVariant::F6x6 => &f6x6_generated().bt,
        }
    }

    /// The output transform matrix `Aᵀ` (row-major,
    /// `output_tile x input_tile`), with integer coefficients.
    #[must_use]
    pub fn at(&self) -> &'static [i32] {
        match self {
            WinogradVariant::F2x2 => &AT_F2X2,
            WinogradVariant::F4x4 => &AT_F4X4,
            WinogradVariant::F6x6 => &f6x6_generated().at,
        }
    }

    /// Column sums `eᵀ·Bᵀ` of the input transform (length `input_tile`):
    /// the constant vector the ABFT transform guard carries through
    /// `Bᵀ d B`. Computed once per variant.
    #[must_use]
    pub fn bt_col_sums(&self) -> &'static [i64] {
        static SUMS: [OnceLock<Vec<i64>>; 3] = [const { OnceLock::new() }; 3];
        SUMS[*self as usize].get_or_init(|| col_sums(self.bt(), self.input_tile()))
    }

    /// Column sums `eᵀ·Aᵀ` of the output transform (length `input_tile`),
    /// the output-side twin of [`WinogradVariant::bt_col_sums`].
    #[must_use]
    pub fn at_col_sums(&self) -> &'static [i64] {
        static SUMS: [OnceLock<Vec<i64>>; 3] = [const { OnceLock::new() }; 3];
        SUMS[*self as usize].get_or_init(|| col_sums(self.at(), self.input_tile()))
    }

    /// The filter transform matrix `G` (row-major, `input_tile x 3`),
    /// applied to floating-point weights offline.
    #[must_use]
    pub fn g(&self) -> &'static [f32] {
        match self {
            WinogradVariant::F2x2 => &G_F2X2,
            WinogradVariant::F4x4 => &G_F4X4,
            WinogradVariant::F6x6 => &f6x6_generated().g,
        }
    }

    /// The [`wgft_tile::TileSpec`] whose generated matrices this variant
    /// executes (canonical point set for every variant).
    ///
    /// # Panics
    ///
    /// Never — every supported variant has a canonical spec.
    #[must_use]
    pub fn tile_spec(&self) -> wgft_tile::TileSpec {
        wgft_tile::TileSpec::with_canonical_points(self.output_tile(), 3)
            .expect("supported variants have canonical point sets")
    }

    /// Identifier of the interpolation point set the transforms were built
    /// from (journaled alongside the tile size so a campaign's numerics are
    /// fully pinned).
    #[must_use]
    pub fn point_set_id(&self) -> String {
        self.tile_spec().point_set_id()
    }

    /// Worst-case input-to-winograd-domain magnitude amplification
    /// `(max_k Σ_l |Bᵀ[k][l]|)²` of the two-sided input transform.
    #[must_use]
    pub const fn input_amplification(&self) -> i64 {
        match self {
            WinogradVariant::F2x2 => 4,
            WinogradVariant::F4x4 => 100,
            // (max row abs-sum of the generated 8x8 Bᵀ)² = 50² — asserted
            // against `Transforms::input_amplification` in the tests.
            WinogradVariant::F6x6 => 2500,
        }
    }

    /// Largest input magnitude the uninstrumented fast quantized engine's
    /// `i32` winograd domain is exact for: amplified values must stay below
    /// `i32::MAX`. Quantized activations are bounded by the storage width
    /// (`< 2¹⁶`), leaving ample headroom for every variant.
    #[must_use]
    pub const fn max_fast_input(&self) -> i32 {
        (i32::MAX as i64 / self.input_amplification()) as i32
    }

    /// Weights divisible by this are exactly representable after the filter
    /// transform `G g Gᵀ` (the square of the lcm of `G`'s denominators), so
    /// integer winograd weights stay exact.
    #[must_use]
    pub const fn weight_divisor(&self) -> i64 {
        match self {
            WinogradVariant::F2x2 => 4,
            WinogradVariant::F4x4 => 576,
            // lcm of the generated G's denominators squared = 360² —
            // asserted against `Transforms::weight_divisor` in the tests.
            WinogradVariant::F6x6 => 129_600,
        }
    }

    /// All supported variants, smallest tile first.
    #[must_use]
    pub const fn all() -> [WinogradVariant; 3] {
        [
            WinogradVariant::F2x2,
            WinogradVariant::F4x4,
            WinogradVariant::F6x6,
        ]
    }
}

impl fmt::Display for WinogradVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WinogradVariant::F2x2 => write!(f, "F(2x2,3x3)"),
            WinogradVariant::F4x4 => write!(f, "F(4x4,3x3)"),
            WinogradVariant::F6x6 => write!(f, "F(6x6,3x3)"),
        }
    }
}

/// Column sums of a row-major integer matrix with `cols` columns.
fn col_sums(matrix: &[i32], cols: usize) -> Vec<i64> {
    let mut sums = vec![0i64; cols];
    for row in matrix.chunks(cols) {
        for (sum, &c) in sums.iter_mut().zip(row) {
            *sum += i64::from(c);
        }
    }
    sums
}

/// Integer/float views of one generated tile's transforms, cached for
/// `&'static` access.
struct GeneratedMatrices {
    bt: Vec<i32>,
    at: Vec<i32>,
    g: Vec<f32>,
}

/// F(6x6,3x3) matrices, generated once from the canonical point set. The
/// generation pipeline scales fractional rows to integers exactly, so the
/// `i32` views never lose precision.
fn f6x6_generated() -> &'static GeneratedMatrices {
    static F6X6: OnceLock<GeneratedMatrices> = OnceLock::new();
    F6X6.get_or_init(|| {
        let transforms = wgft_tile::TileSpec::with_canonical_points(6, 3)
            .expect("F(6x6,3x3) canonical spec")
            .generate();
        GeneratedMatrices {
            bt: transforms.bt_i32(),
            at: transforms.at_i32(),
            g: transforms.g_f32(),
        }
    })
}

#[rustfmt::skip]
const BT_F2X2: [i32; 16] = [
    1,  0, -1,  0,
    0,  1,  1,  0,
    0, -1,  1,  0,
    0,  1,  0, -1,
];

#[rustfmt::skip]
const G_F2X2: [f32; 12] = [
    1.0,  0.0, 0.0,
    0.5,  0.5, 0.5,
    0.5, -0.5, 0.5,
    0.0,  0.0, 1.0,
];

#[rustfmt::skip]
const AT_F2X2: [i32; 8] = [
    1, 1,  1,  0,
    0, 1, -1, -1,
];

#[rustfmt::skip]
const BT_F4X4: [i32; 36] = [
    4,  0, -5,  0, 1, 0,
    0, -4, -4,  1, 1, 0,
    0,  4, -4, -1, 1, 0,
    0, -2, -1,  2, 1, 0,
    0,  2, -1, -2, 1, 0,
    0,  4,  0, -5, 0, 1,
];

#[rustfmt::skip]
const G_F4X4: [f32; 18] = [
     1.0 / 4.0,   0.0,         0.0,
    -1.0 / 6.0,  -1.0 / 6.0,  -1.0 / 6.0,
    -1.0 / 6.0,   1.0 / 6.0,  -1.0 / 6.0,
     1.0 / 24.0,  1.0 / 12.0,  1.0 / 6.0,
     1.0 / 24.0, -1.0 / 12.0,  1.0 / 6.0,
     0.0,         0.0,         1.0,
];

#[rustfmt::skip]
const AT_F4X4: [i32; 24] = [
    1, 1,  1, 1,  1, 0,
    0, 1, -1, 2, -2, 0,
    0, 1,  1, 4,  4, 0,
    0, 1, -1, 8, -8, 1,
];

/// Multiply two small row-major f32 matrices: `C (m x n) = A (m x k) * B (k x n)`.
///
/// # Panics
///
/// Panics (debug assertion) if the slices are shorter than the declared shapes.
#[must_use]
pub(crate) fn mat_mul_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    debug_assert!(a.len() >= m * k && b.len() >= k * n);
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

/// Transpose a small row-major matrix.
#[must_use]
pub(crate) fn transpose_f32(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_geometry() {
        assert_eq!(F2X2_3X3.output_tile(), 2);
        assert_eq!(F2X2_3X3.input_tile(), 4);
        assert_eq!(F2X2_3X3.muls_per_tile(), 16);
        assert_eq!(F4X4_3X3.output_tile(), 4);
        assert_eq!(F4X4_3X3.input_tile(), 6);
        assert_eq!(F4X4_3X3.muls_per_tile(), 36);
        assert_eq!(F6X6_3X3.output_tile(), 6);
        assert_eq!(F6X6_3X3.input_tile(), 8);
        assert_eq!(F6X6_3X3.muls_per_tile(), 64);
        assert_eq!(F2X2_3X3.kernel(), 3);
        assert_eq!(WinogradVariant::all().len(), 3);
        assert_eq!(WinogradVariant::default(), WinogradVariant::F2x2);
    }

    /// The regression the generated pipeline hangs off: running the
    /// exact-rational generator on the canonical point set must reproduce the
    /// hand-coded Lavin & Gray constants **bit-for-bit** — both the integer
    /// Bᵀ/Aᵀ the quantized datapath executes and the f32 G the filter
    /// transform uses.
    #[test]
    fn generated_transforms_match_hand_coded_constants_bit_for_bit() {
        for v in [F2X2_3X3, F4X4_3X3] {
            let generated = v.tile_spec().generate();
            assert_eq!(generated.bt_i32().as_slice(), v.bt(), "{v}: Bᵀ");
            assert_eq!(generated.at_i32().as_slice(), v.at(), "{v}: Aᵀ");
            let g: Vec<f32> = generated.g_f32();
            assert_eq!(g.len(), v.g().len(), "{v}: G shape");
            for (i, (gen, hand)) in g.iter().zip(v.g().iter()).enumerate() {
                assert!(
                    gen.to_bits() == hand.to_bits(),
                    "{v}: G[{i}] generated {gen} != hand-coded {hand}"
                );
            }
        }
    }

    /// The hardcoded per-variant numeric envelopes must agree with what the
    /// generator derives from the actual matrices.
    #[test]
    fn numeric_envelopes_match_generated_transforms() {
        for v in WinogradVariant::all() {
            let generated = v.tile_spec().generate();
            assert_eq!(
                v.input_amplification(),
                generated.input_amplification(),
                "{v}: input amplification"
            );
            assert_eq!(
                v.weight_divisor(),
                generated.weight_divisor(),
                "{v}: weight divisor"
            );
            let amplified = i64::from(v.max_fast_input()) * v.input_amplification();
            assert!(amplified <= i64::from(i32::MAX), "{v}: fast input bound");
            assert!(
                i64::from(v.max_fast_input()) > 1 << 16,
                "{v}: bound must clear every quantized storage width"
            );
        }
    }

    #[test]
    fn matrix_dimensions_match_geometry() {
        for v in WinogradVariant::all() {
            let t = v.input_tile();
            let m = v.output_tile();
            assert_eq!(v.bt().len(), t * t);
            assert_eq!(v.at().len(), m * t);
            assert_eq!(v.g().len(), t * 3);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(F2X2_3X3.to_string(), "F(2x2,3x3)");
        assert_eq!(F4X4_3X3.to_string(), "F(4x4,3x3)");
        assert_eq!(F6X6_3X3.to_string(), "F(6x6,3x3)");
        assert_eq!(F6X6_3X3.point_set_id(), "0,1,-1,2,-2,1/2,-1/2");
    }

    /// The defining property of the winograd matrices: for any 1-D signal `d`
    /// (length input_tile) and kernel `g` (length 3),
    /// `Aᵀ [(G g) ⊙ (Bᵀ d)]` equals the valid 1-D convolution (correlation)
    /// of `d` with `g`.
    #[test]
    fn one_dimensional_agreement_with_direct_convolution() {
        for v in WinogradVariant::all() {
            let t = v.input_tile();
            let m = v.output_tile();
            let d: Vec<f32> = (0..t).map(|i| (i as f32) * 0.7 - 1.3).collect();
            let g = [0.4f32, -0.2, 0.9];

            // Transformed operands.
            let bt: Vec<f32> = v.bt().iter().map(|&x| x as f32).collect();
            let at: Vec<f32> = v.at().iter().map(|&x| x as f32).collect();
            let u = mat_mul_f32(v.g(), &g, t, 3, 1);
            let vdom = mat_mul_f32(&bt, &d, t, t, 1);
            let elem: Vec<f32> = u.iter().zip(&vdom).map(|(a, b)| a * b).collect();
            let y = mat_mul_f32(&at, &elem, m, t, 1);

            // Direct correlation.
            for (i, &yi) in y.iter().enumerate() {
                let direct: f32 = (0..3).map(|j| d[i + j] * g[j]).sum();
                assert!(
                    (yi - direct).abs() < 1e-4,
                    "{v}: output {i} winograd {yi} direct {direct}"
                );
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let t = transpose_f32(&a, 3, 4);
        let back = transpose_f32(&t, 4, 3);
        assert_eq!(a, back);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 4.0);
    }
}
