//! Decomposable winograd method (DWM) for kernels larger than 3x3.
//!
//! Winograd's minimal filtering algorithm only covers small kernels with unit
//! stride. The paper notes that larger filters and strides "can also be split
//! to small ones according to the decomposable winograd method" (Huang et al.,
//! AAAI 2020), so that winograd convolution — and with it the fault-tolerance
//! benefit — applies without accuracy penalty. This module implements the
//! kernel-splitting half of DWM: a `K x K` kernel is zero-padded to a multiple
//! of 3 and split into 3x3 tiles; each tile convolves a shifted view of the
//! input with the ordinary F(m,3x3) algorithm and the partial outputs are
//! summed.

use crate::conv_standard::ConvShape;
use crate::plan::PreparedConvF32;
use crate::transform::WinogradVariant;
use crate::WinogradError;
use serde::{Deserialize, Serialize};
use wgft_tensor::ConvGeometry;

/// One 3x3 tile of a decomposed larger kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelTile {
    /// Row offset of this tile inside the original kernel.
    pub dy: usize,
    /// Column offset of this tile inside the original kernel.
    pub dx: usize,
    /// The 3x3 tile weights (row-major, zero-padded where the original kernel
    /// ends).
    pub weights: Vec<f32>,
}

/// Split a single-channel `k x k` kernel into 3x3 tiles.
///
/// # Errors
///
/// Returns [`WinogradError::NothingToDecompose`] if `k <= 3` — such kernels
/// run directly on the winograd datapath.
pub fn decompose_kernel(kernel: &[f32], k: usize) -> Result<Vec<KernelTile>, WinogradError> {
    if k <= 3 {
        return Err(WinogradError::NothingToDecompose { kernel: k });
    }
    if kernel.len() != k * k {
        return Err(WinogradError::BufferSizeMismatch {
            what: "kernel",
            expected: k * k,
            actual: kernel.len(),
        });
    }
    let tiles_per_side = k.div_ceil(3);
    let mut tiles = Vec::with_capacity(tiles_per_side * tiles_per_side);
    for ty in 0..tiles_per_side {
        for tx in 0..tiles_per_side {
            let mut weights = vec![0.0f32; 9];
            let mut non_zero = false;
            for ry in 0..3 {
                for rx in 0..3 {
                    let ky = ty * 3 + ry;
                    let kx = tx * 3 + rx;
                    if ky < k && kx < k {
                        let w = kernel[ky * k + kx];
                        weights[ry * 3 + rx] = w;
                        non_zero |= w != 0.0;
                    }
                }
            }
            if non_zero {
                tiles.push(KernelTile {
                    dy: ty * 3,
                    dx: tx * 3,
                    weights,
                });
            }
        }
    }
    Ok(tiles)
}

/// Convolve with a kernel larger than 3x3 by decomposing it into 3x3 tiles and
/// running each tile through the winograd kernel on a shifted input.
///
/// Only unit stride is supported (the stride half of DWM decomposes the input
/// into interleaved sub-grids and is out of scope for this reproduction — the
/// model zoo uses stride-2 only on 1x1/pooling paths, which never ride the
/// winograd datapath).
///
/// # Errors
///
/// Returns [`WinogradError::UnsupportedGeometry`] for strided convolutions,
/// [`WinogradError::NothingToDecompose`] for kernels that fit winograd
/// directly, and [`WinogradError::BufferSizeMismatch`] for wrong buffer sizes.
pub fn dwm_conv_f32(
    input: &[f32],
    weights: &[f32],
    shape: &ConvShape,
    variant: WinogradVariant,
) -> Result<Vec<f32>, WinogradError> {
    let g = &shape.geometry;
    if g.stride != 1 {
        return Err(WinogradError::UnsupportedGeometry {
            kernel: g.k_h,
            stride: g.stride,
        });
    }
    if g.k_h <= 3 {
        return Err(WinogradError::NothingToDecompose { kernel: g.k_h });
    }
    if input.len() != shape.input_len() {
        return Err(WinogradError::BufferSizeMismatch {
            what: "input",
            expected: shape.input_len(),
            actual: input.len(),
        });
    }
    if weights.len() != shape.weight_len() {
        return Err(WinogradError::BufferSizeMismatch {
            what: "weight",
            expected: shape.weight_len(),
            actual: weights.len(),
        });
    }

    let k = g.k_h;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let mut output = vec![0.0f32; shape.output_len()];

    // Decompose each (oc, ic) kernel plane and group the tiles by offset so
    // that each shifted input is convolved once per offset with a 3x3 kernel
    // covering all channels.
    let tiles_per_side = k.div_ceil(3);
    for ty in 0..tiles_per_side {
        for tx in 0..tiles_per_side {
            let dy = ty * 3;
            let dx = tx * 3;
            // Build the 3x3 sub-kernel bank (O, C, 3, 3) for this offset.
            let mut sub_weights = vec![0.0f32; shape.out_channels * shape.in_channels * 9];
            let mut any = false;
            for oc in 0..shape.out_channels {
                for ic in 0..shape.in_channels {
                    let kbase = (oc * shape.in_channels + ic) * k * k;
                    let sbase = (oc * shape.in_channels + ic) * 9;
                    for ry in 0..3 {
                        for rx in 0..3 {
                            let ky = dy + ry;
                            let kx = dx + rx;
                            if ky < k && kx < k {
                                let w = weights[kbase + ky * k + kx];
                                sub_weights[sbase + ry * 3 + rx] = w;
                                any |= w != 0.0;
                            }
                        }
                    }
                }
            }
            if !any {
                continue;
            }
            // Build the shifted view the 3x3 sub-kernel convolves:
            // shifted[y][x] = input[y + dy - pad][x + dx - pad] (zero outside),
            // sized (out_h + 2) x (out_w + 2) so an un-padded 3x3 convolution
            // over it produces exactly out_h x out_w partial outputs that line
            // up with the final output grid.
            let (sh, sw) = (out_h + 2, out_w + 2);
            let pad = g.padding as isize;
            let mut shifted = vec![0.0f32; shape.in_channels * sh * sw];
            for ic in 0..shape.in_channels {
                for y in 0..sh {
                    for x in 0..sw {
                        let sy = y as isize + dy as isize - pad;
                        let sx = x as isize + dx as isize - pad;
                        if sy >= 0 && sx >= 0 && (sy as usize) < g.in_h && (sx as usize) < g.in_w {
                            shifted[(ic * sh + y) * sw + x] =
                                input[(ic * g.in_h + sy as usize) * g.in_w + sx as usize];
                        }
                    }
                }
            }
            let sub_geom = ConvGeometry {
                in_h: sh,
                in_w: sw,
                k_h: 3,
                k_w: 3,
                stride: 1,
                padding: 0,
            };
            let sub_shape = ConvShape::new(shape.in_channels, shape.out_channels, sub_geom);
            let partial =
                PreparedConvF32::new(&sub_weights, &sub_shape, variant)?.execute(&shifted)?;
            let (sub_h, sub_w) = (sub_geom.out_h(), sub_geom.out_w());
            debug_assert_eq!((sub_h, sub_w), (out_h, out_w));
            for oc in 0..shape.out_channels {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        output[(oc * out_h + oy) * out_w + ox] +=
                            partial[(oc * sub_h + oy) * sub_w + ox];
                    }
                }
            }
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_standard::direct_conv_f32;
    use crate::transform::F2X2_3X3;

    #[test]
    fn decompose_rejects_small_kernels_and_bad_buffers() {
        assert!(matches!(
            decompose_kernel(&[0.0; 9], 3),
            Err(WinogradError::NothingToDecompose { .. })
        ));
        assert!(matches!(
            decompose_kernel(&[0.0; 10], 5),
            Err(WinogradError::BufferSizeMismatch { .. })
        ));
    }

    #[test]
    fn decompose_5x5_produces_four_tiles_covering_all_taps() {
        let kernel: Vec<f32> = (1..=25).map(|x| x as f32).collect();
        let tiles = decompose_kernel(&kernel, 5).unwrap();
        assert_eq!(tiles.len(), 4);
        let total: f32 = tiles.iter().map(|t| t.weights.iter().sum::<f32>()).sum();
        assert_eq!(total, kernel.iter().sum::<f32>());
        assert!(tiles.iter().any(|t| t.dy == 0 && t.dx == 0));
        assert!(tiles.iter().any(|t| t.dy == 3 && t.dx == 3));
    }

    #[test]
    fn decompose_skips_all_zero_tiles() {
        // A 5x5 kernel whose only non-zero taps live in the top-left 3x3.
        let mut kernel = vec![0.0f32; 25];
        kernel[0] = 1.0;
        kernel[6] = 2.0;
        let tiles = decompose_kernel(&kernel, 5).unwrap();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].dy, 0);
        assert_eq!(tiles[0].dx, 0);
    }

    #[test]
    fn dwm_matches_direct_convolution_for_5x5_kernel() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(10, 5, 1, 2));
        let input: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i * 31 % 13) as f32) * 0.17 - 1.0)
            .collect();
        let weights: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i * 7 % 9) as f32) * 0.11 - 0.4)
            .collect();
        let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
        let dwm = dwm_conv_f32(&input, &weights, &shape, F2X2_3X3).unwrap();
        assert_eq!(direct.len(), dwm.len());
        for (d, w) in direct.iter().zip(dwm.iter()) {
            assert!((d - w).abs() < 1e-3, "direct {d} vs dwm {w}");
        }
    }

    #[test]
    fn dwm_matches_direct_convolution_for_7x7_kernel_without_padding() {
        let shape = ConvShape::new(1, 2, ConvGeometry::square(12, 7, 1, 0));
        let input: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i % 19) as f32) * 0.05 - 0.4)
            .collect();
        let weights: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i % 5) as f32) * 0.2 - 0.4)
            .collect();
        let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
        let dwm = dwm_conv_f32(&input, &weights, &shape, F2X2_3X3).unwrap();
        for (d, w) in direct.iter().zip(dwm.iter()) {
            assert!((d - w).abs() < 1e-3, "direct {d} vs dwm {w}");
        }
    }

    #[test]
    fn dwm_rejects_strided_and_small_kernels() {
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 5, 2, 2));
        let input = vec![0.0; strided.input_len()];
        let weights = vec![0.0; strided.weight_len()];
        assert!(matches!(
            dwm_conv_f32(&input, &weights, &strided, F2X2_3X3),
            Err(WinogradError::UnsupportedGeometry { .. })
        ));
        let small = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 1, 1));
        let input = vec![0.0; small.input_len()];
        let weights = vec![0.0; small.weight_len()];
        assert!(matches!(
            dwm_conv_f32(&input, &weights, &small, F2X2_3X3),
            Err(WinogradError::NothingToDecompose { .. })
        ));
    }
}
