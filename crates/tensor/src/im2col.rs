//! im2col lowering of convolution inputs to patch matrices.

use crate::ConvGeometry;

/// Padding-aware im2col: expand a `(C, H, W)` input into the
/// `(C·k_h·k_w, out_h·out_w)` patch matrix, converting each word with
/// `T::from` — `f32` to `f32` for the float conv layer's forward and
/// backward GEMMs, `i32` to `i32` for the fast uninstrumented direct-conv
/// path, `i32` to `i64` for the protected ABFT executors. Out-of-image taps
/// become zeros, so a dense GEMM over the result computes exactly the
/// padding-skipping scalar kernel's accumulators (for floats: exactly,
/// provided the GEMM's sums start at +0 and every value is finite — see the
/// conv layer).
///
/// This is the single copy of the patch-extraction loop — the float
/// training, fast and protected direct-conv paths must index patches
/// identically or their documented bit-identity breaks.
pub fn im2col<S: Copy, T: Copy + Default + From<S>>(
    input: &[S],
    in_channels: usize,
    g: &ConvGeometry,
    out: &mut Vec<T>,
) {
    let (out_w, p) = (g.out_w(), g.out_pixels());
    let plane = g.in_h * g.in_w;
    assert!(
        input.len() >= in_channels * plane,
        "im2col: input too short"
    );
    out.clear();
    out.resize(in_channels * g.k_h * g.k_w * p, T::default());
    if p == 0 || plane == 0 {
        return;
    }
    let mut rows = out.chunks_exact_mut(p);
    for channel in input.chunks_exact(plane).take(in_channels) {
        for ky in 0..g.k_h {
            for kx in 0..g.k_w {
                let row = rows.next().expect("one patch row per tap");
                let (lo, hi) = taps_inside(kx, g, out_w);
                if lo >= hi {
                    continue;
                }
                // Rows whose tap falls on padding stay zero; in the others the
                // columns `lo..hi` read one strided run of an input row.
                for (oy, dst) in row.chunks_exact_mut(out_w).enumerate() {
                    let Some(iy) = (oy * g.stride + ky).checked_sub(g.padding) else {
                        continue;
                    };
                    if iy >= g.in_h {
                        break;
                    }
                    let run = &channel[iy * g.in_w + lo * g.stride + kx - g.padding..];
                    let dst = &mut dst[lo..hi];
                    if g.stride == 1 {
                        // A contiguous run: the copy vectorizes.
                        for (d, &x) in dst.iter_mut().zip(run) {
                            *d = T::from(x);
                        }
                    } else {
                        for (d, &x) in dst.iter_mut().zip(run.iter().step_by(g.stride)) {
                            *d = T::from(x);
                        }
                    }
                }
            }
        }
    }
}

/// The output columns `lo..hi` whose kernel column `kx` lands inside the
/// input row: `0 <= ox·stride + kx − padding < in_w`.
fn taps_inside(kx: usize, g: &ConvGeometry, out_w: usize) -> (usize, usize) {
    let lo = g.padding.saturating_sub(kx).div_ceil(g.stride);
    let hi = (g.in_w + g.padding)
        .checked_sub(kx)
        .map_or(0, |end| end.div_ceil(g.stride));
    (lo, hi.min(out_w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_i32;

    /// The per-element patch loop: every tap bounds-checked on its own.
    fn reference_im2col(input: &[i32], in_channels: usize, g: &ConvGeometry) -> Vec<i64> {
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let pad = g.padding as isize;
        let mut out = Vec::new();
        for ic in 0..in_channels {
            for ky in 0..g.k_h {
                for kx in 0..g.k_w {
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let iy = (oy * g.stride + ky) as isize - pad;
                            let ix = (ox * g.stride + kx) as isize - pad;
                            let inside = iy >= 0
                                && ix >= 0
                                && (iy as usize) < g.in_h
                                && (ix as usize) < g.in_w;
                            out.push(if inside {
                                i64::from(input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize])
                            } else {
                                0
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The run-copying loop must equal the per-element one for every
    /// stride, padding (including padding at least as wide as the kernel)
    /// and input smaller than the kernel, over a stale output buffer.
    #[test]
    fn im2col_matches_the_per_element_loop_over_strides_and_paddings() {
        for size in [1usize, 2, 4, 5, 7] {
            for kernel in [1usize, 2, 3, 5] {
                for stride in [1usize, 2, 3] {
                    for padding in [0usize, 1, 2, 4] {
                        let g = ConvGeometry {
                            in_h: size,
                            in_w: size + 1,
                            k_h: kernel,
                            k_w: kernel,
                            stride,
                            padding,
                        };
                        let input: Vec<i32> =
                            (0..2 * size * (size + 1)).map(|i| i as i32 + 1).collect();
                        let mut out = vec![-7i64; 5];
                        im2col(&input, 2, &g, &mut out);
                        assert_eq!(
                            out,
                            reference_im2col(&input, 2, &g),
                            "size {size} kernel {kernel} stride {stride} padding {padding}"
                        );
                    }
                }
            }
        }
    }

    /// The patch matrix has one row per (input channel, kernel row, kernel
    /// col) tap and one column per output pixel.
    #[test]
    fn layout_dimensions() {
        let geom = ConvGeometry::square(8, 3, 1, 1);
        let input = vec![1i32; 4 * 8 * 8];
        let mut out: Vec<i32> = vec![7; 3];
        im2col(&input, 4, &geom, &mut out);
        assert_eq!(out.len(), (4 * 3 * 3) * (8 * 8));
    }

    #[test]
    fn im2col_identity_kernel_position() {
        // 1x3x3 input, 3x3 kernel, no padding -> one output pixel whose
        // column is exactly the flattened input.
        let input: Vec<i32> = (1..=9).collect();
        let geom = ConvGeometry::square(3, 3, 1, 0);
        let mut out: Vec<i64> = Vec::new();
        im2col(&input, 1, &geom, &mut out);
        let want: Vec<i64> = input.iter().map(|&v| i64::from(v)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn im2col_padding_introduces_zero_border() {
        let input = vec![1i32; 2 * 2];
        let geom = ConvGeometry::square(2, 3, 1, 1);
        let mut out: Vec<i32> = Vec::new();
        im2col(&input, 1, &geom, &mut out);
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
        im2col(&input, 2, &geom, &mut patches);
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
