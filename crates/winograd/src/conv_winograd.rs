//! Winograd convolution kernels (floating point and quantized/instrumented).

use crate::conv_standard::ConvShape;
use crate::plan::WinogradScratch;
use crate::transform::{mat_mul_f32, transpose_f32, WinogradVariant};
use crate::WinogradError;
use serde::{Deserialize, Serialize};
use wgft_faultsim::Arithmetic;

/// Winograd-domain weights for the quantized datapath.
///
/// Holds the raw quantized words of `U = G g Gᵀ` for every
/// (output channel, input channel) pair, laid out as
/// `(out_channels, in_channels, tile, tile)`. The filter transform is applied
/// in floating point (it contains halving / division by 6) *before*
/// quantization, exactly as production int8/int16 winograd implementations do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WinogradWeights {
    variant: WinogradVariant,
    out_channels: usize,
    in_channels: usize,
    data: Vec<i32>,
}

impl WinogradWeights {
    /// Wrap pre-quantized winograd-domain weights.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] if `data` does not hold
    /// `out_channels * in_channels * tile * tile` words.
    pub fn new(
        variant: WinogradVariant,
        out_channels: usize,
        in_channels: usize,
        data: Vec<i32>,
    ) -> Result<Self, WinogradError> {
        let t = variant.input_tile();
        let expected = out_channels * in_channels * t * t;
        if data.len() != expected {
            return Err(WinogradError::BufferSizeMismatch {
                what: "winograd weight",
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            variant,
            out_channels,
            in_channels,
            data,
        })
    }

    /// The tile variant these weights were transformed for.
    #[must_use]
    pub fn variant(&self) -> WinogradVariant {
        self.variant
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Raw winograd-domain words.
    #[must_use]
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    fn tile(&self, oc: usize, ic: usize) -> &[i32] {
        let t2 = self.variant.input_tile() * self.variant.input_tile();
        let base = (oc * self.in_channels + ic) * t2;
        &self.data[base..base + t2]
    }
}

/// Apply the filter transform `U = G g Gᵀ` to floating-point weights laid out
/// as `(out_channels, in_channels, 3, 3)`, producing
/// `(out_channels, in_channels, tile, tile)`.
///
/// # Errors
///
/// Returns [`WinogradError::BufferSizeMismatch`] if the weight buffer does not
/// hold `out_channels * in_channels * 9` values.
pub fn transform_weights_f32(
    weights: &[f32],
    out_channels: usize,
    in_channels: usize,
    variant: WinogradVariant,
) -> Result<Vec<f32>, WinogradError> {
    let expected = out_channels * in_channels * 9;
    if weights.len() != expected {
        return Err(WinogradError::BufferSizeMismatch {
            what: "weight",
            expected,
            actual: weights.len(),
        });
    }
    let t = variant.input_tile();
    let g = variant.g();
    let gt = transpose_f32(g, t, 3);
    let mut out = vec![0.0f32; out_channels * in_channels * t * t];
    for oc in 0..out_channels {
        for ic in 0..in_channels {
            let kbase = (oc * in_channels + ic) * 9;
            let kernel = &weights[kbase..kbase + 9];
            let gg = mat_mul_f32(g, kernel, t, 3, 3);
            let u = mat_mul_f32(&gg, &gt, t, 3, t);
            let obase = (oc * in_channels + ic) * t * t;
            out[obase..obase + t * t].copy_from_slice(&u);
        }
    }
    Ok(out)
}

/// The seed's naive per-tile floating-point winograd kernel, kept as a
/// correctness and performance reference.
///
/// Unlike the planned path it re-derives the weight transform on every call
/// and allocates inside its tile loops; the `naive-vs-planned` micro-bench
/// quantifies exactly what the scatter–GEMM rewrite buys.
///
/// # Errors
///
/// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3 or strided
/// convolutions and [`WinogradError::BufferSizeMismatch`] for wrong buffer
/// lengths.
pub fn winograd_conv_f32_reference(
    input: &[f32],
    weights: &[f32],
    shape: &ConvShape,
    variant: WinogradVariant,
) -> Result<Vec<f32>, WinogradError> {
    let g = &shape.geometry;
    if !g.is_unit_stride_3x3() {
        return Err(WinogradError::UnsupportedGeometry {
            kernel: g.k_h,
            stride: g.stride,
        });
    }
    if input.len() != shape.input_len() {
        return Err(WinogradError::BufferSizeMismatch {
            what: "input",
            expected: shape.input_len(),
            actual: input.len(),
        });
    }
    let u_all = transform_weights_f32(weights, shape.out_channels, shape.in_channels, variant)?;
    let t = variant.input_tile();
    let m = variant.output_tile();
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let tiles_y = out_h.div_ceil(m);
    let tiles_x = out_w.div_ceil(m);
    let bt: Vec<f32> = variant.bt().iter().map(|&x| x as f32).collect();
    let b = transpose_f32(&bt, t, t);
    let at: Vec<f32> = variant.at().iter().map(|&x| x as f32).collect();
    let a = transpose_f32(&at, m, t);
    let pad = g.padding as isize;
    let mut output = vec![0.0f32; shape.output_len()];
    let mut v_tiles = vec![0.0f32; shape.in_channels * t * t];

    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            // Input transform for every channel of this tile.
            for ic in 0..shape.in_channels {
                let mut d = vec![0.0f32; t * t];
                for dy in 0..t {
                    for dx in 0..t {
                        let iy = (ty * m + dy) as isize - pad;
                        let ix = (tx * m + dx) as isize - pad;
                        d[dy * t + dx] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < g.in_h
                            && (ix as usize) < g.in_w
                        {
                            input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
                let tmp = mat_mul_f32(&bt, &d, t, t, t);
                let v = mat_mul_f32(&tmp, &b, t, t, t);
                v_tiles[ic * t * t..(ic + 1) * t * t].copy_from_slice(&v);
            }
            // Element-wise multiply, accumulate over channels, inverse transform.
            for oc in 0..shape.out_channels {
                let mut acc = vec![0.0f32; t * t];
                for ic in 0..shape.in_channels {
                    let u = &u_all[(oc * shape.in_channels + ic) * t * t..][..t * t];
                    let v = &v_tiles[ic * t * t..(ic + 1) * t * t];
                    for k in 0..t * t {
                        acc[k] += u[k] * v[k];
                    }
                }
                let tmp = mat_mul_f32(&at, &acc, m, t, t);
                let y = mat_mul_f32(&tmp, &a, m, t, m);
                for dy in 0..m {
                    for dx in 0..m {
                        let oy = ty * m + dy;
                        let ox = tx * m + dx;
                        if oy < out_h && ox < out_w {
                            output[(oc * out_h + oy) * out_w + ox] = y[dy * m + dx];
                        }
                    }
                }
            }
        }
    }
    Ok(output)
}

/// Quantized winograd convolution over an instrumented [`Arithmetic`] backend.
///
/// * `input` — raw Q-format activation words, layout `(C, H, W)`;
/// * `weights` — pre-transformed, pre-quantized winograd-domain weights;
/// * the output is returned in the wide accumulator domain with
///   `frac_bits = input_frac + winograd_weight_frac`.
///
/// The input transform `Bᵀ d B` and the output transform `Aᵀ M A` have small
/// integer coefficients: multiplications by ±1 are free (sign handling), and
/// the few non-unit coefficients of F(4x4,3x3) are issued as `mul` operations.
/// Element-wise products issue one `mul` and one accumulate `add` each, so the
/// multiplication count per output pixel drops from `9·C` (direct) to
/// `(t²/m²)·C` — the reduction the paper's fault-tolerance benefit stems from.
///
/// # Errors
///
/// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3 or strided
/// convolutions and [`WinogradError::BufferSizeMismatch`] for wrong buffer
/// lengths.
pub fn winograd_conv_quantized<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &WinogradWeights,
    shape: &ConvShape,
) -> Result<Vec<i64>, WinogradError> {
    let mut scratch = WinogradScratch::new();
    winograd_conv_quantized_with_scratch(arith, layer, input, weights, shape, &mut scratch)
}

/// [`winograd_conv_quantized`] with caller-owned scratch buffers.
///
/// The instrumented kernel's loop structure is part of the experiment (the
/// operation sequence determines where injected faults land), but its
/// buffers are not: this entry point lets long-running callers — the
/// quantized network forward pass, fault campaigns, benches — reuse one
/// [`WinogradScratch`] across layers and images so nothing inside the
/// per-tile loops touches the heap.
///
/// # Errors
///
/// Same as [`winograd_conv_quantized`].
pub fn winograd_conv_quantized_with_scratch<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &WinogradWeights,
    shape: &ConvShape,
    scratch: &mut WinogradScratch,
) -> Result<Vec<i64>, WinogradError> {
    let g = &shape.geometry;
    if !g.is_unit_stride_3x3() {
        return Err(WinogradError::UnsupportedGeometry {
            kernel: g.k_h,
            stride: g.stride,
        });
    }
    if input.len() != shape.input_len() {
        return Err(WinogradError::BufferSizeMismatch {
            what: "input",
            expected: shape.input_len(),
            actual: input.len(),
        });
    }
    if weights.out_channels() != shape.out_channels || weights.in_channels() != shape.in_channels {
        return Err(WinogradError::BufferSizeMismatch {
            what: "winograd weight",
            expected: shape.out_channels * shape.in_channels,
            actual: weights.out_channels() * weights.in_channels(),
        });
    }
    arith.begin_layer(layer);
    let variant = weights.variant();
    let t = variant.input_tile();
    let m = variant.output_tile();
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let tiles_y = out_h.div_ceil(m);
    let tiles_x = out_w.div_ceil(m);
    let bt = variant.bt();
    let at = variant.at();
    let pad = g.padding as isize;
    let mut output = vec![0i64; shape.output_len()];
    scratch.prepare(variant, shape.in_channels);
    let WinogradScratch {
        v_tiles,
        d,
        tmp,
        acc,
        tmp_out,
        y,
    } = scratch;

    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            // ---- Input transform: V_c = Bt d B (additions, small integer coefficients).
            for ic in 0..shape.in_channels {
                for dy in 0..t {
                    for dx in 0..t {
                        let iy = (ty * m + dy) as isize - pad;
                        let ix = (tx * m + dx) as isize - pad;
                        d[dy * t + dx] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < g.in_h
                            && (ix as usize) < g.in_w
                        {
                            i64::from(input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize])
                        } else {
                            0
                        };
                    }
                }
                // tmp = Bt * d
                integer_transform(arith, bt, d, tmp, t, t, t, MatrixSide::Left);
                // v = tmp * B  (B = Btᵀ, so v[i][j] = sum_k tmp[i][k] * Bt[j][k])
                let v_slice = &mut v_tiles[ic * t * t..(ic + 1) * t * t];
                integer_transform(
                    arith,
                    bt,
                    tmp,
                    v_slice,
                    t,
                    t,
                    t,
                    MatrixSide::RightTransposed,
                );
            }
            // ---- Element-wise multiply + channel accumulation + output transform.
            for oc in 0..shape.out_channels {
                acc.iter_mut().for_each(|v| *v = 0);
                for ic in 0..shape.in_channels {
                    let u = weights.tile(oc, ic);
                    let v = &v_tiles[ic * t * t..(ic + 1) * t * t];
                    for k in 0..t * t {
                        let product = arith.mul(i64::from(u[k]), v[k]);
                        acc[k] = arith.add(acc[k], product);
                    }
                }
                // tmp_out = At * acc  (m x t)
                integer_transform(arith, at, acc, tmp_out, m, t, t, MatrixSide::Left);
                // y = tmp_out * A  (m x m), A = Atᵀ.
                integer_transform(arith, at, tmp_out, y, m, t, m, MatrixSide::RightTransposed);
                for dy in 0..m {
                    for dx in 0..m {
                        let oy = ty * m + dy;
                        let ox = tx * m + dx;
                        if oy < out_h && ox < out_w {
                            output[(oc * out_h + oy) * out_w + ox] = y[dy * m + dx];
                        }
                    }
                }
            }
        }
    }
    Ok(output)
}

/// Which side the constant matrix sits on in an integer transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixSide {
    /// `out = Coef (rows x inner) * data (inner x cols)`.
    Left,
    /// `out = data (rows x inner) * Coefᵀ`, i.e.
    /// `out[i][j] = Σ_k data[i][k] · Coef[j][k]`, with `Coef` of shape `(cols x inner)`.
    RightTransposed,
}

/// Multiply a data tile by a constant integer matrix through the instrumented
/// backend. Coefficients 0 are skipped, ±1 are additions/subtractions, other
/// small integers are issued as multiplications (they are shift-add networks
/// in hardware, but a latch fault corrupts them the same way).
///
/// Public because the executable ABFT engine (`wgft-abft`) re-runs the same
/// instrumented transforms around its checksummed GEMMs — protected and
/// unprotected execution must corrupt the transform stage identically.
#[allow(clippy::too_many_arguments)]
pub fn integer_transform<A: Arithmetic>(
    arith: &mut A,
    coef: &[i32],
    data: &[i64],
    out: &mut [i64],
    rows: usize,
    inner: usize,
    cols: usize,
    side: MatrixSide,
) {
    for i in 0..rows {
        for j in 0..cols {
            let mut acc: Option<i64> = None;
            for k in 0..inner {
                let (c, x) = match side {
                    MatrixSide::Left => (coef[i * inner + k], data[k * cols + j]),
                    MatrixSide::RightTransposed => (coef[j * inner + k], data[i * inner + k]),
                };
                if c == 0 {
                    continue;
                }
                let term = match c {
                    1 => x,
                    -1 => x.wrapping_neg(),
                    _ => arith.mul(x, i64::from(c)),
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => arith.add(a, term),
                });
            }
            out[i * cols + j] = acc.unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_standard::direct_conv_f32;
    use crate::plan::PreparedConvF32;
    use crate::transform::{F2X2_3X3, F4X4_3X3};
    use wgft_faultsim::{Arithmetic, ExactArithmetic};
    use wgft_tensor::ConvGeometry;

    fn test_case(in_c: usize, out_c: usize, size: usize) -> (ConvShape, Vec<f32>, Vec<f32>) {
        let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, 1));
        let input: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i * 37 % 17) as f32) * 0.21 - 1.7)
            .collect();
        let weights: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i * 13 % 11) as f32) * 0.07 - 0.35)
            .collect();
        (shape, input, weights)
    }

    #[test]
    fn weight_transform_shape_and_errors() {
        let u = transform_weights_f32(&vec![0.0; 2 * 3 * 9], 2, 3, F2X2_3X3).unwrap();
        assert_eq!(u.len(), 2 * 3 * 16);
        assert!(transform_weights_f32(&[0.0; 10], 2, 3, F2X2_3X3).is_err());
    }

    #[test]
    fn winograd_weights_constructor_validates_length() {
        assert!(WinogradWeights::new(F2X2_3X3, 2, 2, vec![0; 2 * 2 * 16]).is_ok());
        assert!(WinogradWeights::new(F2X2_3X3, 2, 2, vec![0; 63]).is_err());
        let w = WinogradWeights::new(F4X4_3X3, 1, 1, vec![0; 36]).unwrap();
        assert_eq!(w.variant(), F4X4_3X3);
        assert_eq!(w.out_channels(), 1);
        assert_eq!(w.in_channels(), 1);
        assert_eq!(w.data().len(), 36);
    }

    #[test]
    fn f32_winograd_matches_direct_for_f2x2() {
        let (shape, input, weights) = test_case(3, 4, 8);
        let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
        let wino = PreparedConvF32::new(&weights, &shape, F2X2_3X3)
            .unwrap()
            .execute(&input)
            .unwrap();
        for (d, w) in direct.iter().zip(wino.iter()) {
            assert!((d - w).abs() < 1e-3, "direct {d} vs winograd {w}");
        }
    }

    #[test]
    fn f32_winograd_matches_direct_for_f4x4() {
        let (shape, input, weights) = test_case(2, 3, 9);
        let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
        let wino = PreparedConvF32::new(&weights, &shape, F4X4_3X3)
            .unwrap()
            .execute(&input)
            .unwrap();
        for (d, w) in direct.iter().zip(wino.iter()) {
            assert!((d - w).abs() < 1e-2, "direct {d} vs winograd {w}");
        }
    }

    #[test]
    fn f32_winograd_handles_non_tile_multiple_outputs() {
        // 5x5 output is not a multiple of the 2x2 (or 4x4) tile.
        let (shape, input, weights) = test_case(2, 2, 5);
        let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
        for variant in [F2X2_3X3, F4X4_3X3] {
            let wino = PreparedConvF32::new(&weights, &shape, variant)
                .unwrap()
                .execute(&input)
                .unwrap();
            for (d, w) in direct.iter().zip(wino.iter()) {
                assert!(
                    (d - w).abs() < 1e-2,
                    "{variant}: direct {d} vs winograd {w}"
                );
            }
        }
    }

    #[test]
    fn winograd_rejects_unsupported_geometry() {
        let shape = ConvShape::new(1, 1, ConvGeometry::square(8, 5, 1, 2));
        let weights = vec![0.0; shape.weight_len()];
        assert!(matches!(
            PreparedConvF32::new(&weights, &shape, F2X2_3X3),
            Err(WinogradError::UnsupportedGeometry { .. })
        ));
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 2, 1));
        let weights = vec![0.0; strided.weight_len()];
        assert!(PreparedConvF32::new(&weights, &strided, F2X2_3X3).is_err());
    }

    /// Quantized winograd with exactly-representable integer weights must
    /// reproduce the direct quantized convolution bit-for-bit (the filter
    /// transform halves sums, so weights divisible by 4 stay exact).
    #[test]
    fn quantized_winograd_matches_direct_quantized_exactly() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(6, 3, 1, 1));
        let input_q: Vec<i32> = (0..shape.input_len())
            .map(|i| ((i * 7 % 23) as i32) - 11)
            .collect();
        let weights_q: Vec<i32> = (0..shape.weight_len())
            .map(|i| 4 * (((i * 5 % 9) as i32) - 4))
            .collect();

        // Direct reference.
        let mut exact = ExactArithmetic::new();
        let direct =
            crate::direct_conv_quantized(&mut exact, 0, &input_q, &weights_q, &shape).unwrap();

        // Winograd path: transform the (integer-valued) weights in f32 — every
        // entry of U is an integer because the weights are multiples of 4.
        let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
        let u = transform_weights_f32(&weights_f, 3, 2, F2X2_3X3).unwrap();
        let u_q: Vec<i32> = u.iter().map(|&x| x.round() as i32).collect();
        for (uf, uq) in u.iter().zip(u_q.iter()) {
            assert!(
                (uf - *uq as f32).abs() < 1e-4,
                "transformed weight must be integral"
            );
        }
        let wino_weights = WinogradWeights::new(F2X2_3X3, 3, 2, u_q).unwrap();
        let mut exact2 = ExactArithmetic::new();
        let wino =
            winograd_conv_quantized(&mut exact2, 0, &input_q, &wino_weights, &shape).unwrap();

        assert_eq!(direct, wino);
    }

    #[test]
    fn quantized_winograd_uses_fewer_multiplications() {
        let shape = ConvShape::new(4, 4, ConvGeometry::square(8, 3, 1, 1));
        let input_q = vec![3i32; shape.input_len()];
        let weights_q = vec![2i32; shape.weight_len()];
        let mut direct_arith = ExactArithmetic::new();
        crate::direct_conv_quantized(&mut direct_arith, 0, &input_q, &weights_q, &shape).unwrap();

        let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
        let u = transform_weights_f32(&weights_f, 4, 4, F2X2_3X3).unwrap();
        let u_q: Vec<i32> = u.iter().map(|&x| x.round() as i32).collect();
        let wino_weights = WinogradWeights::new(F2X2_3X3, 4, 4, u_q).unwrap();
        let mut wino_arith = ExactArithmetic::new();
        winograd_conv_quantized(&mut wino_arith, 0, &input_q, &wino_weights, &shape).unwrap();

        let direct_mul = direct_arith.counters().total().mul;
        let wino_mul = wino_arith.counters().total().mul;
        assert!(
            (wino_mul as f64) < 0.55 * direct_mul as f64,
            "winograd should use far fewer multiplications: {wino_mul} vs {direct_mul}"
        );
    }

    #[test]
    fn quantized_winograd_validates_channel_mismatch() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let wino_weights = WinogradWeights::new(F2X2_3X3, 1, 1, vec![0; 16]).unwrap();
        let input = vec![0i32; shape.input_len()];
        let mut arith = ExactArithmetic::new();
        assert!(winograd_conv_quantized(&mut arith, 0, &input, &wino_weights, &shape).is_err());
    }

    #[test]
    fn quantized_winograd_records_ops_in_the_given_layer() {
        let shape = ConvShape::new(1, 1, ConvGeometry::square(4, 3, 1, 1));
        let input = vec![1i32; shape.input_len()];
        let u = transform_weights_f32(&[4.0; 9], 1, 1, F2X2_3X3).unwrap();
        let wino_weights =
            WinogradWeights::new(F2X2_3X3, 1, 1, u.iter().map(|&x| x as i32).collect()).unwrap();
        let mut arith = ExactArithmetic::new();
        winograd_conv_quantized(&mut arith, 7, &input, &wino_weights, &shape).unwrap();
        assert!(arith.counters().layer(7).executed.mul > 0);
        assert!(arith.counters().layer(7).executed.add > 0);
        assert_eq!(arith.counters().layer(0).executed.mul, 0);
    }
}
