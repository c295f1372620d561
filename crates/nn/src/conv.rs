//! Floating-point 2-D convolution layer with backward pass.

use crate::NnError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use wgft_tensor::{gemm_f32, gemm_f32_acc, im2col, ConvGeometry, Shape, Tensor, TensorError};
use wgft_winograd::{ConvShape, PreparedConvF32, WinogradError, F2X2_3X3};

/// A 2-D convolution layer (square kernel, unit stride, cross-correlation
/// convention) for the floating-point training path.
///
/// Training works on single-image batches shaped `(1, C, H, W)`; the trainer
/// accumulates gradients across the samples of a mini-batch. The forward
/// pass and both backward products run as GEMMs over im2col patch matrices
/// on the blocked [`gemm_f32`] / [`gemm_f32_acc`], and are bit-identical to
/// the direct scalar loops (see [`Conv2d::backward`] for why).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    shape: ConvShape,
    weights: Tensor,
    bias: Tensor,
    #[serde(skip)]
    cached_input: Option<Tensor>,
    #[serde(skip, default = "empty_tensor")]
    grad_weights: Tensor,
    #[serde(skip, default = "empty_tensor")]
    grad_bias: Tensor,
    /// Planned F(2x2,3x3) winograd execution for the *current* weights;
    /// rebuilt lazily by [`Conv2d::forward_planned_batch`] and dropped
    /// whenever the optimizer gets mutable access to the weights.
    #[serde(skip)]
    prepared: Option<PreparedConvF32>,
}

/// Working memory of the conv GEMM passes, reused across calls.
#[derive(Default)]
struct Scratch {
    /// A patch matrix `(C·k², P)`: the forward's right operand, then the
    /// backward's, transposed into `work`.
    patches: Vec<f32>,
    /// The transposed patch matrix `(P, C·k²)`, then the padded upstream
    /// gradient's patch matrix `(O·k², H·W)`.
    work: Vec<f32>,
    /// The weights flipped and channel-transposed, `(C, O·k²)`.
    flipped: Vec<f32>,
}

thread_local! {
    /// One [`Scratch`] per thread, shared by every conv layer: a network in
    /// training holds one set of patch buffers, not one per layer, and keeps
    /// only its layers' inputs between forward and backward (a patch matrix
    /// is `k²` times larger, and rebuilding it costs a copy against the
    /// GEMMs' `O` multiply-adds per element).
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Placeholder used when deserializing a layer (gradients are rebuilt lazily).
pub(crate) fn empty_tensor() -> Tensor {
    Tensor::zeros(Shape::d1(0))
}

impl Conv2d {
    /// Create a convolution layer with He-uniform initial weights. Only
    /// `padding < kernel` trains: [`Conv2d::backward`] pads the upstream
    /// gradient by `kernel - 1 - padding`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        in_size: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let geometry = ConvGeometry::square(in_size, kernel, 1, padding);
        let shape = ConvShape::new(in_channels, out_channels, geometry);
        let fan_in = in_channels * kernel * kernel;
        let weights = Tensor::he_uniform(
            Shape::new(vec![out_channels, in_channels, kernel, kernel]),
            fan_in,
            rng,
        );
        let bias = Tensor::zeros(Shape::d1(out_channels));
        Self {
            shape,
            grad_weights: Tensor::zeros(weights.shape().clone()),
            grad_bias: Tensor::zeros(bias.shape().clone()),
            weights,
            bias,
            cached_input: None,
            prepared: None,
        }
    }

    /// The layer's convolution shape (channels and spatial geometry).
    #[must_use]
    pub fn conv_shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Weight tensor, laid out `(out_channels, in_channels, k, k)`.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Per-output-channel bias.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Spatial size of the produced feature map.
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.shape.geometry.out_h()
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.shape.out_channels
    }

    /// Forward pass on a `(1, C, H, W)` input: `out = W (O×C·k²) · col
    /// (C·k²×P)` plus the bias. The input stays cached for
    /// [`Conv2d::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input size does not match the layer.
    // wgft-audit: consensus-critical -- trained weights are campaign-visible:
    // every sweep worker trains its model locally; products run on the
    // fixed-order blocked GEMM, output bits pinned by the training vectors
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let g = &self.shape.geometry;
        let (out_c, out_h, out_w) = (self.shape.out_channels, g.out_h(), g.out_w());
        let mut out = Tensor::zeros(Shape::nchw(1, out_c, out_h, out_w));
        SCRATCH.with_borrow_mut(|s| {
            conv_image(
                &self.shape,
                self.weights.data(),
                input.data(),
                &mut s.patches,
                out.data_mut(),
            )
        })?;
        self.add_bias(&mut out);
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// Inference-only forward pass on a whole `(N, C, H, W)` batch.
    ///
    /// Winograd-eligible layers (3x3, unit stride) run the batch through a
    /// cached F(2x2,3x3) [`PreparedConvF32::execute_batch_into`], folding
    /// all `N·P` tiles into the GEMM free dimension so the weight transform
    /// is paid once per layer and block scheduling once per batch; other
    /// geometries fall back to the per-image im2col GEMM of
    /// [`Conv2d::forward`]. The result is bit-identical to `N` single-image
    /// calls. The plan is invalidated whenever the optimizer takes mutable
    /// access to the weights, so it is always consistent with the current
    /// parameters. Unlike [`Conv2d::forward`] this keeps nothing for a
    /// backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input is not a 4-D batch matching the
    /// layer's geometry.
    pub fn forward_planned_batch(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                expected: 4,
                actual: dims.len(),
            }));
        }
        let (n, in_len) = (dims[0], self.shape.input_len());
        // Validate before either path slices: the per-image volume must be
        // exactly the layer's input plane set.
        let image_len = dims[1] * dims[2] * dims[3];
        if image_len != in_len {
            return Err(size_mismatch("batched input image", in_len, image_len));
        }
        let g = &self.shape.geometry;
        let (out_c, out_h, out_w) = (self.shape.out_channels, g.out_h(), g.out_w());
        let mut out_t = Tensor::zeros(Shape::nchw(n, out_c, out_h, out_w));
        if g.is_unit_stride_3x3() {
            let prepared = match &mut self.prepared {
                Some(prepared) => prepared,
                empty => empty.insert(PreparedConvF32::new(
                    self.weights.data(),
                    &self.shape,
                    F2X2_3X3,
                )?),
            };
            prepared.execute_batch_into(input.data(), n, out_t.data_mut())?;
        } else {
            // Non-winograd geometry: per-image GEMM. This is an *announced*
            // fallback — the layer's batched-kernel counter does not
            // advance, which is what the silent-fallback guard checks.
            let out_len = self.shape.output_len();
            SCRATCH.with_borrow_mut(|s| {
                input
                    .data()
                    .chunks_exact(in_len.max(1))
                    .zip(out_t.data_mut().chunks_exact_mut(out_len.max(1)))
                    .try_for_each(|(image, out)| {
                        conv_image(&self.shape, self.weights.data(), image, &mut s.patches, out)
                    })
            })?;
        }
        self.add_bias(&mut out_t);
        Ok(out_t)
    }

    /// How many times this layer's winograd plan has executed through the
    /// batched engine. Zero until a [`Conv2d::forward_planned_batch`] call
    /// reaches [`PreparedConvF32::execute_batch_into`]; the batched
    /// inference path asserts on the delta to catch a silent fallback to
    /// per-image execution.
    #[must_use]
    pub fn batched_kernel_executions(&self) -> u64 {
        self.prepared
            .as_ref()
            .map_or(0, PreparedConvF32::batched_executions)
    }

    /// Add the per-channel bias to every image of a `(N, O, H', W')` buffer.
    // wgft-audit: consensus-critical -- the bias of every trained conv output
    // wgft-audit: blessed(float-arith) -- one rounded add per output, no reassociation
    fn add_bias(&self, out_t: &mut Tensor) {
        // `max(1)`: an empty map has no chunks, and zero would panic.
        let pixels = self.shape.geometry.out_pixels().max(1);
        for image in out_t
            .data_mut()
            .chunks_exact_mut(self.shape.output_len().max(1))
        {
            for (plane, &b) in image.chunks_exact_mut(pixels).zip(self.bias.data()) {
                for v in plane {
                    *v += b;
                }
            }
        }
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input.
    ///
    /// Both products are GEMMs over patch matrices:
    ///
    /// * weight gradient, accumulated over the mini-batch's samples:
    ///   `gw += go (O×P) · colᵀ (P×C·k²)`, with `col` the cached input's
    ///   patch matrix;
    /// * input gradient: `gi = W_flip (C×O·k²) · col(go) (O·k²×H·W)`, where
    ///   `col(go)` pads the upstream gradient by `k − 1 − padding` and
    ///   `W_flip[c][(o, a, b)] = W[o][c][k−1−a][k−1−b]`.
    ///
    /// Each sum runs in the order of the direct scalar loop it replaces:
    /// the weight gradient over output pixels in increasing order, the input
    /// gradient over `(o, ky desc, kx desc)`, which is that loop's
    /// `(o, oy asc, ox asc)`. The GEMMs also add products the loop skipped —
    /// padding taps and zero upstream entries — and those change no bit:
    /// every accumulator starts at +0 (the gradients after
    /// [`Conv2d::zero_grad`], `gi` fresh), a round-to-nearest sum that starts
    /// at +0 never becomes −0, and adding a ±0 product to a value that is
    /// not −0 returns it unchanged. The premise is that every weight,
    /// activation and gradient is finite (an infinite one would turn a
    /// skipped zero product into NaN).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass ran,
    /// [`NnError::UntrainableConv`] for a geometry without a backward pass
    /// (padding not below the kernel, or a non-unit stride from a checkpoint),
    /// or a size error if `grad_out` does not match the layer's output.
    // wgft-audit: consensus-critical -- trained weights are campaign-visible:
    // every sweep worker trains its model locally; products run on the
    // fixed-order blocked GEMM, output bits pinned by the training vectors
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        let g = self.shape.geometry;
        if g.stride != 1 || g.k_h != g.k_w || g.padding >= g.k_h {
            return Err(NnError::UntrainableConv {
                kernel: (g.k_h, g.k_w),
                stride: g.stride,
                padding: g.padding,
            });
        }
        let out_len = self.shape.output_len();
        if grad_out.len() != out_len {
            return Err(size_mismatch("output gradient", out_len, grad_out.len()));
        }
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = Tensor::zeros(self.weights.shape().clone());
            self.grad_bias = Tensor::zeros(self.bias.shape().clone());
        }
        let (in_c, out_c) = (self.shape.in_channels, self.shape.out_channels);
        let taps = g.k_h * g.k_w;
        let (kdim, pixels) = (in_c * taps, g.out_pixels());
        let go = grad_out.data();
        let w = self.weights.data();
        let mut gi = Tensor::zeros(input.shape().clone());
        SCRATCH.with_borrow_mut(|s| {
            im2col(input.data(), in_c, &g, &mut s.patches);
            transpose(&s.patches, kdim, pixels, &mut s.work);
            gemm_f32_acc(
                go,
                &s.work,
                self.grad_weights.data_mut(),
                out_c,
                pixels,
                kdim,
            );
            sum_rows(go, pixels, self.grad_bias.data_mut());

            s.flipped.clear();
            for ic in 0..in_c {
                for oc in 0..out_c {
                    s.flipped
                        .extend(w[(oc * in_c + ic) * taps..][..taps].iter().rev());
                }
            }
            let back = ConvGeometry {
                in_h: g.out_h(),
                in_w: g.out_w(),
                padding: g.k_h - 1 - g.padding,
                ..g
            };
            im2col(go, out_c, &back, &mut s.work);
            let in_pixels = g.in_h * g.in_w;
            gemm_f32(
                &s.flipped,
                &s.work,
                gi.data_mut(),
                in_c,
                out_c * taps,
                in_pixels,
            );
        });
        Ok(gi)
    }

    /// Parameters and their accumulated gradients, for the optimizer.
    ///
    /// Handing out mutable weight references invalidates the cached winograd
    /// plan — it will be rebuilt from the updated weights on the next
    /// [`Conv2d::forward_planned_batch`].
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.prepared = None;
        if self.grad_weights.len() != self.weights.len() {
            self.zero_grad();
        }
        vec![
            (&mut self.weights, &mut self.grad_weights),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_weights = Tensor::zeros(self.weights.shape().clone());
        self.grad_bias = Tensor::zeros(self.bias.shape().clone());
    }
}

/// A size error naming the buffer that does not fit the layer.
fn size_mismatch(what: &'static str, expected: usize, actual: usize) -> NnError {
    NnError::Winograd(WinogradError::BufferSizeMismatch {
        what,
        expected,
        actual,
    })
}

/// One image through the patch matrix and the blocked GEMM:
/// `out = W (O×C·k²) · col (C·k²×P)`, with `col` rebuilt in `patches`.
/// Padding taps add `w·0` products to sums that start at +0, which leaves
/// them bit-identical to the padding-skipping direct loop.
// wgft-audit: consensus-critical -- the forward product of every trained conv layer
// wgft-audit: blessed(float-arith) -- the f32 slices are only copied into patches; every product runs in gemm_f32's fixed increasing-k order
fn conv_image(
    shape: &ConvShape,
    weights: &[f32],
    image: &[f32],
    patches: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<(), NnError> {
    if image.len() != shape.input_len() {
        return Err(size_mismatch("input", shape.input_len(), image.len()));
    }
    let (g, in_c) = (&shape.geometry, shape.in_channels);
    im2col(image, in_c, g, patches);
    let (kdim, pixels) = (in_c * g.k_h * g.k_w, g.out_pixels());
    gemm_f32(weights, patches, out, shape.out_channels, kdim, pixels);
    Ok(())
}

/// `dst = srcᵀ` for a row-major `rows × cols` source.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    dst.clear();
    dst.resize(rows * cols, 0.0);
    for (i, row) in src.chunks_exact(cols.max(1)).take(rows).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// `sums[r] += Σ_j m[r][j]` in increasing `j`, for a row-major `m` with
/// `cols` columns: the bias gradient.
// wgft-audit: consensus-critical -- the bias gradient of every trained conv layer
// wgft-audit: blessed(float-arith) -- one rounded add per element in increasing column order; zero entries add ±0 to sums that start at +0
fn sum_rows(m: &[f32], cols: usize, sums: &mut [f32]) {
    for (sum, row) in sums.iter_mut().zip(m.chunks_exact(cols.max(1))) {
        for &v in row {
            *sum += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn layer(in_c: usize, out_c: usize, size: usize, kernel: usize, pad: usize) -> Conv2d {
        let mut rng = SmallRng::seed_from_u64(3);
        Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng)
    }

    /// The direct scalar forward loop the GEMM forward replaced (bias
    /// included), kept as the oracle.
    fn reference_forward(conv: &Conv2d, input: &[f32]) -> Vec<f32> {
        let (shape, w) = (&conv.shape, conv.weights.data());
        let g = &shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let pad = g.padding as isize;
        let mut output = vec![0.0f32; shape.output_len()];
        for oc in 0..shape.out_channels {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = 0.0f32;
                    for ic in 0..shape.in_channels {
                        for ky in 0..g.k_h {
                            for kx in 0..g.k_w {
                                let iy = (oy * g.stride + ky) as isize - pad;
                                let ix = (ox * g.stride + kx) as isize - pad;
                                if iy < 0
                                    || ix < 0
                                    || iy >= g.in_h as isize
                                    || ix >= g.in_w as isize
                                {
                                    continue;
                                }
                                let x = input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize];
                                acc += x * w
                                    [((oc * shape.in_channels + ic) * g.k_h + ky) * g.k_w + kx];
                            }
                        }
                    }
                    output[(oc * out_h + oy) * out_w + ox] = acc;
                }
            }
        }
        for (oc, plane) in output.chunks_exact_mut(g.out_pixels()).enumerate() {
            for v in plane {
                *v += conv.bias.data()[oc];
            }
        }
        output
    }

    /// The direct scalar backward loop the GEMM backward replaced, kept as
    /// the oracle: accumulates into `gw`/`gb` and returns the input
    /// gradient. It skips zero upstream entries and padding taps.
    fn reference_backward(
        conv: &Conv2d,
        input: &[f32],
        go: &[f32],
        gw: &mut [f32],
        gb: &mut [f32],
    ) -> Vec<f32> {
        let (shape, w) = (&conv.shape, conv.weights.data());
        let g = &shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let (in_c, out_c) = (shape.in_channels, shape.out_channels);
        let pad = g.padding as isize;
        let mut gi = vec![0.0f32; input.len()];
        for oc in 0..out_c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let go_v = go[(oc * out_h + oy) * out_w + ox];
                    if go_v == 0.0 {
                        continue;
                    }
                    gb[oc] += go_v;
                    for ic in 0..in_c {
                        for ky in 0..g.k_h {
                            let iy = (oy * g.stride + ky) as isize - pad;
                            if iy < 0 || iy >= g.in_h as isize {
                                continue;
                            }
                            for kx in 0..g.k_w {
                                let ix = (ox * g.stride + kx) as isize - pad;
                                if ix < 0 || ix >= g.in_w as isize {
                                    continue;
                                }
                                let in_idx = (ic * g.in_h + iy as usize) * g.in_w + ix as usize;
                                let w_idx = ((oc * in_c + ic) * g.k_h + ky) * g.k_w + kx;
                                gw[w_idx] += go_v * input[in_idx];
                                gi[in_idx] += go_v * w[w_idx];
                            }
                        }
                    }
                }
            }
        }
        gi
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The GEMM forward and backward must reproduce the direct scalar loops
    /// bit for bit — signed zeros included — over 1x1 and padded 3x3
    /// kernels, every map size from 1 to 17, channel counts 1/3/12/32 and
    /// two accumulated samples whose upstream gradients are mostly zeros,
    /// some of them −0.0.
    #[test]
    fn gemm_passes_match_the_direct_loops_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(41);
        for (kernel, pad) in [(1usize, 0usize), (3, 1)] {
            for size in 1..=17usize {
                for (in_c, out_c) in [(1usize, 3usize), (3, 12), (12, 32), (32, 1)] {
                    let what = format!("k{kernel} s{size} c{in_c}->{out_c}");
                    let mut conv = Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng);
                    conv.bias = Tensor::uniform(Shape::d1(out_c), 0.5, &mut rng);
                    let (mut gw, mut gb) = (vec![0.0f32; conv.weights.len()], vec![0.0f32; out_c]);
                    for sample in 0..2 {
                        let input =
                            Tensor::uniform(Shape::nchw(1, in_c, size, size), 1.0, &mut rng);
                        let out = conv.forward(&input).unwrap();
                        assert_eq!(
                            bits(out.data()),
                            bits(&reference_forward(&conv, input.data())),
                            "{what} sample {sample}: forward"
                        );
                        let mut go = Tensor::uniform(out.shape().clone(), 1.0, &mut rng);
                        for v in go.data_mut() {
                            match rng.gen_range(0..10usize) {
                                0..=1 => *v = -0.0,
                                2..=5 => *v = 0.0,
                                _ => {}
                            }
                        }
                        let gi = conv.backward(&go).unwrap();
                        let want =
                            reference_backward(&conv, input.data(), go.data(), &mut gw, &mut gb);
                        assert_eq!(
                            bits(gi.data()),
                            bits(&want),
                            "{what} sample {sample}: grad_input"
                        );
                    }
                    assert_eq!(
                        bits(conv.grad_weights.data()),
                        bits(&gw),
                        "{what}: grad_weights"
                    );
                    assert_eq!(bits(conv.grad_bias.data()), bits(&gb), "{what}: grad_bias");
                }
            }
        }
    }

    #[test]
    fn backward_refuses_a_geometry_without_a_backward_pass() {
        let mut conv = layer(1, 1, 6, 3, 1);
        conv.shape.geometry.stride = 2;
        let _ = conv
            .forward(&Tensor::zeros(Shape::nchw(1, 1, 6, 6)))
            .unwrap();
        let grad = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(matches!(
            conv.backward(&grad),
            Err(NnError::UntrainableConv { stride: 2, .. })
        ));
        // Padding as wide as the kernel runs forward but cannot train.
        let mut wide = layer(1, 1, 4, 1, 1);
        let out = wide
            .forward(&Tensor::zeros(Shape::nchw(1, 1, 4, 4)))
            .unwrap();
        assert_eq!(out.shape(), &Shape::nchw(1, 1, 6, 6));
        assert!(matches!(
            wide.backward(&out),
            Err(NnError::UntrainableConv { padding: 1, .. })
        ));
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut conv = layer(2, 4, 8, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 2, 8, 8), 0.0);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &Shape::nchw(1, 4, 8, 8));
        // Zero input -> output equals the (zero) bias everywhere.
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert_eq!(conv.out_channels(), 4);
        assert_eq!(conv.output_size(), 8);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let grad = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            conv.backward(&grad),
            Err(NnError::BackwardBeforeForward)
        ));
    }

    /// Numerical gradient check on a tiny convolution.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 2, 4, 3, 1, &mut rng);
        let input = Tensor::uniform(Shape::nchw(1, 1, 4, 4), 1.0, &mut rng);
        // Scalar objective: sum of outputs weighted by fixed coefficients.
        let coeffs = Tensor::uniform(Shape::nchw(1, 2, 4, 4), 1.0, &mut rng);
        let objective = |conv: &mut Conv2d, input: &Tensor| -> f32 {
            let out = conv.forward(input).unwrap();
            out.data()
                .iter()
                .zip(coeffs.data())
                .map(|(a, b)| a * b)
                .sum()
        };

        // Analytic gradients.
        let _ = objective(&mut conv, &input);
        conv.zero_grad();
        let _ = conv.forward(&input).unwrap();
        let grad_in = conv.backward(&coeffs).unwrap();

        // Finite differences on a few weights.
        let eps = 1e-3f32;
        for &idx in &[0usize, 5, 10, 17] {
            let orig = conv.weights.data()[idx];
            conv.weights.data_mut()[idx] = orig + eps;
            let plus = objective(&mut conv, &input);
            conv.weights.data_mut()[idx] = orig - eps;
            let minus = objective(&mut conv, &input);
            conv.weights.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = conv.grad_weights.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Finite differences on a few input pixels.
        let mut input_var = input.clone();
        for &idx in &[0usize, 7, 15] {
            let orig = input_var.data()[idx];
            input_var.data_mut()[idx] = orig + eps;
            let plus = objective(&mut conv, &input_var);
            input_var.data_mut()[idx] = orig - eps;
            let minus = objective(&mut conv, &input_var);
            input_var.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Bias gradient: derivative of the objective w.r.t. bias oc is the sum
        // of that channel's coefficients.
        for oc in 0..2 {
            let expected: f32 = coeffs.data()[oc * 16..(oc + 1) * 16].iter().sum();
            let got = conv.grad_bias.data()[oc];
            assert!(
                (expected - got).abs() < 1e-3,
                "bias {oc}: {expected} vs {got}"
            );
        }
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 1, 4, 4), 1.0);
        let grad = Tensor::full(Shape::nchw(1, 1, 4, 4), 1.0);
        let _ = conv.forward(&input).unwrap();
        let _ = conv.backward(&grad).unwrap();
        assert!(conv.grad_weights.max_abs() > 0.0);
        conv.zero_grad();
        assert_eq!(conv.grad_weights.max_abs(), 0.0);
        assert_eq!(conv.params_and_grads().len(), 2);
    }

    #[test]
    fn planned_forward_matches_direct_forward() {
        let mut rng = SmallRng::seed_from_u64(21);
        for (in_c, out_c, size, kernel, pad) in [
            (2usize, 3usize, 8usize, 3usize, 1usize),
            (1, 2, 5, 3, 1),
            (3, 2, 6, 1, 0),
        ] {
            let mut conv = Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng);
            let input = Tensor::uniform(Shape::nchw(1, in_c, size, size), 1.0, &mut rng);
            let direct = conv.forward(&input).unwrap();
            let planned = conv.forward_planned_batch(&input).unwrap();
            assert_eq!(direct.shape(), planned.shape());
            for (d, p) in direct.data().iter().zip(planned.data()) {
                assert!((d - p).abs() < 1e-3, "direct {d} vs planned {p}");
            }
            // Second call reuses the cached plan and stays deterministic.
            let planned2 = conv.forward_planned_batch(&input).unwrap();
            assert_eq!(planned.data(), planned2.data());
        }
    }

    #[test]
    fn planned_cache_is_invalidated_when_weights_change() {
        let mut conv = layer(1, 1, 6, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 1, 6, 6), 1.0);
        let before = conv.forward_planned_batch(&input).unwrap();
        // Mutate the weights the way the optimizer does.
        for (param, _) in conv.params_and_grads() {
            if param.len() == 9 {
                for v in param.data_mut() {
                    *v += 0.5;
                }
            }
        }
        let after = conv.forward_planned_batch(&input).unwrap();
        assert_ne!(
            before.data(),
            after.data(),
            "stale plan served after weight update"
        );
        // And the refreshed plan agrees with direct convolution.
        let direct = conv.forward(&input).unwrap();
        for (d, p) in direct.data().iter().zip(after.data()) {
            assert!((d - p).abs() < 1e-3);
        }
    }

    /// The batched planned forward must be bit-identical to running each
    /// image through it alone, for winograd-eligible layers and for
    /// the announced 1x1 direct fallback, including N=1 and ragged sizes.
    #[test]
    fn batched_planned_forward_matches_per_image_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(31);
        for (in_c, out_c, size, kernel, pad) in [
            (2usize, 3usize, 8usize, 3usize, 1usize),
            (1, 2, 5, 3, 1),
            (3, 2, 6, 1, 0), // non-winograd geometry: direct fallback
        ] {
            for n in [1usize, 2, 5] {
                let mut conv = Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng);
                let images: Vec<Tensor> = (0..n)
                    .map(|_| Tensor::uniform(Shape::nchw(1, in_c, size, size), 1.0, &mut rng))
                    .collect();
                let mut stacked = Vec::new();
                for image in &images {
                    stacked.extend_from_slice(image.data());
                }
                let batch = Tensor::from_vec(Shape::nchw(n, in_c, size, size), stacked).unwrap();
                let batched = conv.forward_planned_batch(&batch).unwrap();
                let out_size = conv.output_size();
                assert_eq!(batched.shape(), &Shape::nchw(n, out_c, out_size, out_size));
                let per_len = out_c * out_size * out_size;
                for (img, image) in images.iter().enumerate() {
                    let single = conv.forward_planned_batch(image).unwrap();
                    assert_eq!(
                        single.data(),
                        &batched.data()[img * per_len..(img + 1) * per_len],
                        "k{kernel} c{in_c}->{out_c} s{size} n{n} image {img}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernel_counter_flags_fallbacks() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Winograd-eligible layer: the counter must advance on a batch.
        let mut conv = Conv2d::new(1, 1, 6, 3, 1, &mut rng);
        let batch = Tensor::uniform(Shape::nchw(2, 1, 6, 6), 1.0, &mut rng);
        assert_eq!(conv.batched_kernel_executions(), 0);
        let _ = conv.forward_planned_batch(&batch).unwrap();
        assert_eq!(conv.batched_kernel_executions(), 1);
        // 1x1 layer: announced direct fallback, counter stays put.
        let mut one = Conv2d::new(1, 1, 6, 1, 0, &mut rng);
        let _ = one.forward_planned_batch(&batch).unwrap();
        assert_eq!(one.batched_kernel_executions(), 0);
    }

    #[test]
    fn batched_forward_rejects_non_batched_input() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let flat = Tensor::zeros(Shape::d2(4, 4));
        assert!(conv.forward_planned_batch(&flat).is_err());
    }

    /// A size-mismatched batch must be an error (not a slice panic) on both
    /// the winograd path and the direct fallback.
    #[test]
    fn batched_forward_rejects_wrong_image_size_on_both_paths() {
        let wrong = Tensor::zeros(Shape::nchw(2, 1, 5, 5));
        let mut wino = layer(1, 1, 6, 3, 1);
        assert!(wino.forward_planned_batch(&wrong).is_err());
        let mut direct = layer(1, 1, 6, 1, 0);
        assert!(direct.forward_planned_batch(&wrong).is_err());
    }

    /// Checkpoints written while layers still carried a tile-variant field
    /// load, and plan F(2x2,3x3) like every other layer.
    #[test]
    fn checkpoints_with_a_tile_variant_field_still_load() {
        let conv = layer(1, 1, 6, 3, 1);
        let json = serde_json::to_string(&conv).unwrap();
        let old = json.replacen('{', r#"{"winograd_variant":"F6x6","#, 1);
        let back: Conv2d = serde_json::from_str(&old).unwrap();
        let plain: Conv2d = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
        assert_eq!(back.weights(), conv.weights());
    }

    #[test]
    fn one_by_one_convolution_is_supported() {
        let mut conv = layer(3, 5, 6, 1, 0);
        let input = Tensor::full(Shape::nchw(1, 3, 6, 6), 0.5);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &Shape::nchw(1, 5, 6, 6));
    }
}
