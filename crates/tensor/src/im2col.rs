//! im2col lowering of quantized convolution inputs to patch matrices.

use crate::ConvGeometry;

/// Padding-aware im2col for raw quantized words: expand a `(C, H, W)` input
/// into the `(C·k_h·k_w, out_h·out_w)` patch matrix, widening each word with
/// `T::from` (`i32` for the fast uninstrumented direct-conv path, `i64` for
/// the protected ABFT executors). Out-of-image taps become zeros, so a dense
/// GEMM over the result computes exactly the padding-skipping scalar
/// kernel's accumulators.
///
/// This is the single copy of the integer patch-extraction loop — the fast
/// and protected direct-conv paths must index patches identically or their
/// documented bit-identity breaks.
pub fn im2col_quantized<T: Copy + Default + From<i32>>(
    input: &[i32],
    in_channels: usize,
    g: &ConvGeometry,
    out: &mut Vec<T>,
) {
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let p = out_h * out_w;
    let kdim = in_channels * g.k_h * g.k_w;
    let pad = g.padding as isize;
    out.clear();
    out.resize(kdim * p, T::default());
    for ic in 0..in_channels {
        for ky in 0..g.k_h {
            for kx in 0..g.k_w {
                let row = (ic * g.k_h + ky) * g.k_w + kx;
                for oy in 0..out_h {
                    let iy = (oy * g.stride + ky) as isize - pad;
                    for ox in 0..out_w {
                        let ix = (ox * g.stride + kx) as isize - pad;
                        out[row * p + oy * out_w + ox] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < g.in_h
                            && (ix as usize) < g.in_w
                        {
                            T::from(input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize])
                        } else {
                            T::default()
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_i32;

    /// The patch matrix has one row per (input channel, kernel row, kernel
    /// col) tap and one column per output pixel.
    #[test]
    fn layout_dimensions() {
        let geom = ConvGeometry::square(8, 3, 1, 1);
        let input = vec![1i32; 4 * 8 * 8];
        let mut out: Vec<i32> = vec![7; 3];
        im2col_quantized(&input, 4, &geom, &mut out);
        assert_eq!(out.len(), (4 * 3 * 3) * (8 * 8));
    }

    #[test]
    fn im2col_identity_kernel_position() {
        // 1x3x3 input, 3x3 kernel, no padding -> one output pixel whose
        // column is exactly the flattened input.
        let input: Vec<i32> = (1..=9).collect();
        let geom = ConvGeometry::square(3, 3, 1, 0);
        let mut out: Vec<i64> = Vec::new();
        im2col_quantized(&input, 1, &geom, &mut out);
        let want: Vec<i64> = input.iter().map(|&v| i64::from(v)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn im2col_padding_introduces_zero_border() {
        let input = vec![1i32; 2 * 2];
        let geom = ConvGeometry::square(2, 3, 1, 1);
        let mut out: Vec<i32> = Vec::new();
        im2col_quantized(&input, 1, &geom, &mut out);
        // Output 2x2, kernel 3x3 -> 9 taps x 4 pixels. The first column is
        // the top-left output pixel, whose top and left kernel taps fall on
        // padding.
        assert_eq!(out.len(), 9 * 4);
        let first_column: Vec<i32> = (0..9).map(|tap| out[tap * 4]).collect();
        assert_eq!(first_column, [0, 0, 0, 0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn im2col_then_gemm_equals_direct_convolution() {
        // Convolve a 2x4x4 input with 3 output channels via im2col + GEMM
        // and compare with a hand-rolled direct convolution.
        let input: Vec<i32> = (0..32).map(|i| i - 12).collect();
        let geom = ConvGeometry::square(4, 3, 1, 1);
        let kernel: Vec<i32> = (0..3 * 2 * 9).map(|i| i % 7 - 3).collect();

        // GEMM path: (out_channels x taps) * (taps x out_pixels).
        let mut patches: Vec<i32> = Vec::new();
        im2col_quantized(&input, 2, &geom, &mut patches);
        let mut gemm_out = vec![0i64; 3 * 16];
        gemm_i32(&kernel, &patches, &mut gemm_out, 3, 18, 16);

        // Direct path.
        for oc in 0..3 {
            for oy in 0..4usize {
                for ox in 0..4usize {
                    let mut acc = 0i64;
                    for ic in 0..2 {
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let iy = oy as isize + ky as isize - 1;
                                let ix = ox as isize + kx as isize - 1;
                                if iy >= 0 && ix >= 0 && iy < 4 && ix < 4 {
                                    let x = input[(ic * 4 + iy as usize) * 4 + ix as usize];
                                    let w = kernel[((oc * 2 + ic) * 3 + ky) * 3 + kx];
                                    acc += i64::from(x) * i64::from(w);
                                }
                            }
                        }
                    }
                    assert_eq!(
                        gemm_out[oc * 16 + oy * 4 + ox],
                        acc,
                        "mismatch at oc={oc} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }
}
