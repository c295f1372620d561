//! Standard (direct / im2col-equivalent) convolution kernels.
//!
//! These are the baseline the paper compares winograd convolution against
//! ("ST-Conv"). The quantized kernel executes every multiply and add through
//! the instrumented [`Arithmetic`] backend so soft errors can be injected at
//! operation level; the float kernel is the test oracle of the float engines.

use crate::WinogradError;
use serde::{Deserialize, Serialize};
use wgft_faultsim::Arithmetic;
use wgft_tensor::ConvGeometry;

/// Channel and spatial configuration of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShape {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Spatial geometry (input size, kernel, stride, padding).
    pub geometry: ConvGeometry,
}

impl ConvShape {
    /// Create a shape.
    #[must_use]
    pub fn new(in_channels: usize, out_channels: usize, geometry: ConvGeometry) -> Self {
        Self {
            in_channels,
            out_channels,
            geometry,
        }
    }

    /// Number of elements in the (C, H, W) input buffer.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.in_channels * self.geometry.in_h * self.geometry.in_w
    }

    /// Number of elements in the (O, C, kh, kw) weight buffer.
    #[must_use]
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.geometry.k_h * self.geometry.k_w
    }

    /// Number of elements in the (O, out_h, out_w) output buffer.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.out_channels * self.geometry.out_pixels()
    }

    fn check_buffers(&self, input_len: usize, weight_len: usize) -> Result<(), WinogradError> {
        if input_len != self.input_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "input",
                expected: self.input_len(),
                actual: input_len,
            });
        }
        if weight_len != self.weight_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "weight",
                expected: self.weight_len(),
                actual: weight_len,
            });
        }
        Ok(())
    }
}

/// Direct floating-point convolution (cross-correlation, as in every DNN
/// framework): the scalar oracle the float winograd engines are tested
/// against. Input is `(C, H, W)`, weights `(O, C, kh, kw)`, output
/// `(O, out_h, out_w)`.
///
/// # Errors
///
/// Returns [`WinogradError::BufferSizeMismatch`] if buffer lengths disagree
/// with `shape`.
#[cfg(test)]
pub(crate) fn direct_conv_f32(
    input: &[f32],
    weights: &[f32],
    shape: &ConvShape,
) -> Result<Vec<f32>, WinogradError> {
    shape.check_buffers(input.len(), weights.len())?;
    let g = &shape.geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let mut output = vec![0.0f32; shape.output_len()];
    let pad = g.padding as isize;
    for oc in 0..shape.out_channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0f32;
                for ic in 0..shape.in_channels {
                    for ky in 0..g.k_h {
                        for kx in 0..g.k_w {
                            let iy = (oy * g.stride + ky) as isize - pad;
                            let ix = (ox * g.stride + kx) as isize - pad;
                            if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize {
                                continue;
                            }
                            let xin = input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize];
                            let w =
                                weights[((oc * shape.in_channels + ic) * g.k_h + ky) * g.k_w + kx];
                            acc += xin * w;
                        }
                    }
                }
                output[(oc * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
    Ok(output)
}

/// Direct quantized convolution over an instrumented [`Arithmetic`] backend.
///
/// Input and weights are raw Q-format words; the output is returned in the
/// wide accumulator domain (`frac_bits = input_frac + weight_frac`), ready to
/// be requantized by the caller.
///
/// Every multiply-accumulate issues exactly one `mul` and one `add` on the
/// backend, which is what makes the operation-level fault injection (and the
/// operation counting used by Figures 3 and 5) possible.
///
/// # Errors
///
/// Returns [`WinogradError::BufferSizeMismatch`] if buffer lengths disagree
/// with `shape`.
pub fn direct_conv_quantized<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &[i32],
    shape: &ConvShape,
) -> Result<Vec<i64>, WinogradError> {
    shape.check_buffers(input.len(), weights.len())?;
    arith.begin_layer(layer);
    let g = &shape.geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let mut output = vec![0i64; shape.output_len()];
    let pad = g.padding as isize;
    for oc in 0..shape.out_channels {
        let wbase = oc * shape.in_channels * g.k_h * g.k_w;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0i64;
                for ic in 0..shape.in_channels {
                    for ky in 0..g.k_h {
                        let iy = (oy * g.stride + ky) as isize - pad;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        let irow = (ic * g.in_h + iy as usize) * g.in_w;
                        let wrow = wbase + (ic * g.k_h + ky) * g.k_w;
                        for kx in 0..g.k_w {
                            let ix = (ox * g.stride + kx) as isize - pad;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let xin = i64::from(input[irow + ix as usize]);
                            let w = i64::from(weights[wrow + kx]);
                            let product = arith.mul(xin, w);
                            acc = arith.add(acc, product);
                        }
                    }
                }
                output[(oc * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_faultsim::ExactArithmetic;

    fn small_shape() -> ConvShape {
        ConvShape::new(2, 3, ConvGeometry::square(5, 3, 1, 1))
    }

    fn ramp(n: usize, scale: f32, offset: f32) -> Vec<f32> {
        (0..n).map(|i| i as f32 * scale + offset).collect()
    }

    #[test]
    fn shape_lengths() {
        let s = small_shape();
        assert_eq!(s.input_len(), 2 * 25);
        assert_eq!(s.weight_len(), 3 * 2 * 9);
        assert_eq!(s.output_len(), 3 * 25);
    }

    #[test]
    fn buffer_checks_reject_wrong_sizes() {
        let s = small_shape();
        let input = vec![0.0f32; 3];
        let weights = vec![0.0f32; s.weight_len()];
        assert!(matches!(
            direct_conv_f32(&input, &weights, &s),
            Err(WinogradError::BufferSizeMismatch { what: "input", .. })
        ));
        let input = vec![0.0f32; s.input_len()];
        let weights = vec![0.0f32; 1];
        assert!(matches!(
            direct_conv_f32(&input, &weights, &s),
            Err(WinogradError::BufferSizeMismatch { what: "weight", .. })
        ));
    }

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        // One input channel, one output channel, kernel = delta at centre.
        let geometry = ConvGeometry::square(4, 3, 1, 1);
        let shape = ConvShape::new(1, 1, geometry);
        let input = ramp(16, 1.0, 0.0);
        let mut weights = vec![0.0f32; 9];
        weights[4] = 1.0; // centre tap
        let out = direct_conv_f32(&input, &weights, &shape).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn known_small_convolution() {
        // 1x1x3x3 input, no padding, single 3x3 kernel of all ones -> sum.
        let geometry = ConvGeometry::square(3, 3, 1, 0);
        let shape = ConvShape::new(1, 1, geometry);
        let input = ramp(9, 1.0, 1.0); // 1..9
        let weights = vec![1.0f32; 9];
        let out = direct_conv_f32(&input, &weights, &shape).unwrap();
        assert_eq!(out, vec![45.0]);
    }

    #[test]
    fn quantized_matches_f32_for_integer_data() {
        let shape = small_shape();
        let input_f: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i % 11) as f32) - 5.0)
            .collect();
        let weights_f: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i % 7) as f32) - 3.0)
            .collect();
        let input_q: Vec<i32> = input_f.iter().map(|&x| x as i32).collect();
        let weights_q: Vec<i32> = weights_f.iter().map(|&x| x as i32).collect();

        let fref = direct_conv_f32(&input_f, &weights_f, &shape).unwrap();
        let mut arith = ExactArithmetic::new();
        let qout = direct_conv_quantized(&mut arith, 0, &input_q, &weights_q, &shape).unwrap();
        for (f, q) in fref.iter().zip(qout.iter()) {
            assert_eq!(*f as i64, *q);
        }
    }

    #[test]
    fn quantized_counts_one_mul_and_one_add_per_mac() {
        let geometry = ConvGeometry::square(4, 3, 1, 0);
        let shape = ConvShape::new(2, 3, geometry);
        let input = vec![1i32; shape.input_len()];
        let weights = vec![1i32; shape.weight_len()];
        let mut arith = ExactArithmetic::new();
        direct_conv_quantized(&mut arith, 5, &input, &weights, &shape).unwrap();
        // out 2x2, 3 out channels, 2 in channels, 9 taps, no padding skips.
        let macs = (2 * 2 * 3 * 2 * 9) as u64;
        let counts = arith.counters().layer(5).executed;
        assert_eq!(counts.mul, macs);
        assert_eq!(counts.add, macs);
    }

    #[test]
    fn stride_two_convolution_downsamples() {
        let geometry = ConvGeometry::square(4, 3, 2, 1);
        let shape = ConvShape::new(1, 1, geometry);
        assert_eq!(geometry.out_h(), 2);
        let input = ramp(16, 1.0, 0.0);
        let mut weights = vec![0.0f32; 9];
        weights[4] = 2.0;
        let out = direct_conv_f32(&input, &weights, &shape).unwrap();
        // Centre taps land on input pixels (0,0), (0,2), (2,0), (2,2).
        assert_eq!(out, vec![0.0, 4.0, 16.0, 20.0]);
    }
}
