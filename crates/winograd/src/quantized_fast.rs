//! The integer domain of the planned winograd engine: fast,
//! **uninstrumented** quantized winograd execution.
//!
//! The instrumented quantized kernel
//! ([`crate::winograd_conv_quantized_with_scratch`]) issues every primitive
//! multiply and add through an [`wgft_faultsim::Arithmetic`] backend so that
//! soft errors can strike individual operations — which makes it inherently
//! scalar and by far the slowest path in the system. Most of that cost buys
//! nothing: fault-free evaluation (campaign clean baselines, ABFT range
//! calibration, BER=0 sweep cells, zero-rate protected inference) has no
//! faults to inject, and even at the swept bit error rates only a small
//! share of a layer's operations is struck.
//!
//! [`PreparedConvQuantizedFast`] is the planned engine of [`crate::plan`]
//! (the one the float evaluation runs, [`crate::PreparedConvF32`]) in the
//! integer domain: cached `(t², O, C)` winograd-domain weights, the
//! cache-blocked scatter→GEMM→gather schedule, lane-per-tile transforms in
//! `i32` (scatter) and wrapping `i64` (gather), the blocked
//! [`wgft_tensor::gemm_i32`] microkernel (`i32` operands, `i64`
//! accumulators) and rayon batch chunking. Only this domain has hooks into
//! the block loop: a [`RangeStage`] sees each block's winograd-domain values
//! between the stages, which is where calibration records ranges and
//! protected inference checks and clips them, and fault-site replay patches
//! each block's struck operations.
//!
//! # Bit-identity guarantee
//!
//! Integer arithmetic is exact and associative, so the fast path computes
//! **bit-identical** `i64` accumulators to the instrumented kernel running on
//! [`wgft_faultsim::ExactArithmetic`] — for every block size, batch chunking
//! and thread count — provided no intermediate overflows. Inputs bounded by
//! the per-variant [`WinogradVariant::max_fast_input`] (far above any
//! quantized storage width for every tile size) keep the `i32` winograd
//! domain exact; the bound is checked by a debug assertion. This is the
//! property that lets fault-free campaign work route onto this engine
//! without perturbing a single journaled result — and, with fault-site
//! replay ([`PreparedConvQuantizedFast::execute_replay_into`]) patching the
//! struck operations into the exact values of each block, BER>0
//! operation-level work as well.
//!
//! [`WinogradVariant::max_fast_input`]: crate::WinogradVariant::max_fast_input

use crate::conv_standard::ConvShape;
use crate::conv_winograd::WinogradWeights;
use crate::plan::{Block, Domain, PreparedConv, WinogradPlan};
use crate::replay::{TileReplay, WinogradOpMap};
use crate::transform::WinogradVariant;
use crate::WinogradError;
use wgft_faultsim::Strike;
use wgft_tensor::gemm_i32;

/// Largest input magnitude the fast engine's `i32` winograd domain is exact
/// for on the classic small tiles: F(4x4,3x3) row coefficient sums reach 10,
/// so a two-sided transform scales magnitudes by at most 100 — `2²⁴ · 100 <
/// 2³¹`. The engine itself enforces the tighter per-variant
/// [`WinogradVariant::max_fast_input`] (F(6x6)'s scaled transforms amplify
/// by 5184); quantized activations are bounded by the storage width
/// (`< 2¹⁶`), leaving ample headroom for every tile size.
pub const MAX_FAST_INPUT: i32 = 1 << 24;

/// One scatter→GEMM→gather block as a [`RangeStage`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct StageBlock<'a> {
    /// The repacked `(t², O, C)` winograd-domain weights the block's GEMMs
    /// multiply by.
    pub weights: &'a [i32],
    /// Index of the block's first tile in the image's row-major tile grid.
    pub first_tile: usize,
    /// Tiles in the block: the innermost extent of the `V` and `M` buffers.
    pub tiles: usize,
}

/// The range-stage hook of the fast engine's block loop: it sees each
/// block's winograd-domain inputs `V` right after the input transform and
/// its products `M` right after the GEMMs, and may rewrite either before
/// the next stage reads it. ABFT range calibration observes the maxima
/// there ([`QuantizedRangeRecord`]); fault-free protected inference
/// verifies its checksums and clips there (`wgft_abft`).
pub trait RangeStage {
    /// `v` holds the block's `V = Bᵀ d B`, laid out `(t², C, tiles)`,
    /// before the GEMMs read it.
    fn transformed_inputs(&mut self, block: &StageBlock<'_>, v: &mut [i32]);

    /// `prod` holds the block's products `M = U·V`, laid out
    /// `(t², O, tiles)`, before the output transform reads them; `v` is
    /// the `V` the GEMMs multiplied.
    fn products(&mut self, block: &StageBlock<'_>, v: &[i32], prod: &mut [i64]);
}

/// Fault-free value maxima observed by one
/// `PreparedConvQuantizedFast::execute_into_staged` call — exactly the
/// winograd-stage quantities the executable ABFT range calibration records
/// (`wgft_abft::LayerRanges::v_max` / `gemm_max`); output-accumulator maxima
/// are the caller's to take from the output buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantizedRangeRecord {
    /// Max |value| of winograd-domain transformed inputs (`V = Bᵀ d B`).
    pub v_max: i64,
    /// Max |value| of winograd-domain GEMM products (before `Aᵀ M A`).
    pub gemm_max: i64,
}

impl QuantizedRangeRecord {
    /// Fresh record with zero maxima.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RangeStage for QuantizedRangeRecord {
    fn transformed_inputs(&mut self, _block: &StageBlock<'_>, v: &mut [i32]) {
        let block_max = v.iter().map(|&x| i64::from(x).abs()).max().unwrap_or(0);
        self.v_max = self.v_max.max(block_max);
    }

    fn products(&mut self, _block: &StageBlock<'_>, _v: &[i32], prod: &mut [i64]) {
        let block_max = prod
            .iter()
            .map(|&x| x.unsigned_abs().min(i64::MAX as u64) as i64)
            .max()
            .unwrap_or(0);
        self.gemm_max = self.gemm_max.max(block_max);
    }
}

/// The engine's block hooks, one type for both domains; the float domain
/// leaves them empty and ignores them. With `stage`, each block's `V`
/// passes through it before the GEMMs and its products before the gather.
/// With `replay` (one image), each block's products are patched between the
/// GEMMs (and the stage) and the gather, and its struck output transforms
/// rerun after the gather.
#[derive(Default)]
pub struct Hooks<'h, 'r> {
    stage: Option<&'h mut dyn RangeStage>,
    replay: Option<&'h mut TileReplay<'r>>,
}

impl Hooks<'_, '_> {
    /// Whether no hook is set (the only case the chunked schedule runs).
    pub(crate) fn is_empty(&self) -> bool {
        self.stage.is_none() && self.replay.is_none()
    }
}

/// The integer domain: i32 scatter lanes, [`gemm_i32`] into i64
/// accumulators, a wrapping i64 gather, and the [`Hooks`].
#[derive(Debug, Clone)]
pub struct Integer;

impl Domain for Integer {
    type Value = i32;
    type Acc = i64;

    fn gemm(a: &[i32], b: &[i32], c: &mut [i64], m: usize, k: usize, n: usize) {
        gemm_i32(a, b, c, m, k, n);
    }

    fn debug_check_input(variant: WinogradVariant, input: &[i32]) {
        debug_assert!(
            {
                let bound = variant.max_fast_input();
                input.iter().all(|&x| x.abs() <= bound)
            },
            "fast quantized winograd input exceeds the exact i32 winograd domain"
        );
    }

    fn scattered(hooks: &mut Hooks<'_, '_>, block: &Block<'_, Self>, v: &mut [i32]) {
        if let Some(stage) = hooks.stage.as_deref_mut() {
            stage.transformed_inputs(&stage_block(block), v);
        }
    }

    fn multiplied(hooks: &mut Hooks<'_, '_>, block: &Block<'_, Self>, v: &[i32], prod: &mut [i64]) {
        if let Some(stage) = hooks.stage.as_deref_mut() {
            stage.products(&stage_block(block), v, prod);
        }
        if let Some(replay) = hooks.replay.as_deref_mut() {
            replay.products(block.plan, block.u, v, prod, block.first_tile, block.tiles);
        }
    }

    fn gathered(
        hooks: &mut Hooks<'_, '_>,
        block: &Block<'_, Self>,
        prod: &[i64],
        output: &mut [i64],
    ) {
        if let Some(replay) = hooks.replay.as_deref_mut() {
            replay.outputs(block.plan, prod, block.tiles, output);
        }
    }
}

fn stage_block<'a>(block: &Block<'a, Integer>) -> StageBlock<'a> {
    StageBlock {
        weights: block.u,
        first_tile: block.first_tile,
        tiles: block.tiles,
    }
}

/// The planned, uninstrumented quantized winograd convolution: the integer
/// domain of `PreparedConv`, with cached repacked weights and owned
/// scratch buffers.
///
/// Prepare once per layer, execute once per image (or batch):
///
/// ```
/// use wgft_tensor::ConvGeometry;
/// use wgft_winograd::{
///     ConvShape, PreparedConvQuantizedFast, WinogradWeights, F2X2_3X3,
/// };
///
/// # fn main() -> Result<(), wgft_winograd::WinogradError> {
/// let shape = ConvShape::new(2, 3, ConvGeometry::square(8, 3, 1, 1));
/// let weights = WinogradWeights::new(F2X2_3X3, 3, 2, vec![1; 3 * 2 * 16])?;
/// let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape)?;
/// let input = vec![7i32; shape.input_len()];
/// let output = prepared.execute(&input)?;
/// assert_eq!(output.len(), shape.output_len());
/// # Ok(())
/// # }
/// ```
pub type PreparedConvQuantizedFast = PreparedConv<Integer>;

impl PreparedConv<Integer> {
    /// Repack pre-quantized winograd-domain weights for the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3/strided
    /// layers and [`WinogradError::BufferSizeMismatch`] if the weights
    /// disagree with the shape's channel counts.
    pub fn new(weights: &WinogradWeights, shape: &ConvShape) -> Result<Self, WinogradError> {
        let plan = WinogradPlan::new(shape, weights.variant())?;
        if weights.out_channels() != shape.out_channels
            || weights.in_channels() != shape.in_channels
        {
            return Err(WinogradError::BufferSizeMismatch {
                what: "winograd weight",
                expected: shape.out_channels * shape.in_channels,
                actual: weights.out_channels() * weights.in_channels(),
            });
        }
        Ok(Self::repack(plan, weights.data()))
    }

    /// [`PreparedConvQuantizedFast::execute_into`] with a [`RangeStage`]
    /// hooked into every block between the input transform and the GEMMs
    /// and between the GEMMs and the output transform. A stage that
    /// rewrites nothing leaves the accumulators bit-identical to the plain
    /// execution. Runs the single-chunk schedule.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into_staged(
        &mut self,
        input: &[i32],
        output: &mut [i64],
        stage: &mut dyn RangeStage,
    ) -> Result<(), WinogradError> {
        let mut hooks = Hooks {
            stage: Some(stage),
            replay: None,
        };
        self.execute_hooked(input, output, &mut hooks)
    }

    /// [`PreparedConvQuantizedFast::execute_into`] under fault-site replay:
    /// `strikes` are one layer's strikes (sorted by op index, as a
    /// [`wgft_faultsim::StrikeEnumerator`] emits them for `map`, which must
    /// describe this engine's shape and tile variant). Each scatter→GEMM→
    /// gather block is patched while its scratch holds the exact `V` and
    /// `M` (see the `replay` module docs), so `output` receives the
    /// accumulators the instrumented kernel computes on a
    /// [`wgft_faultsim::FaultyArithmetic`] with the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_replay_into(
        &mut self,
        input: &[i32],
        map: &WinogradOpMap,
        strikes: &[Strike],
        output: &mut [i64],
    ) -> Result<(), WinogradError> {
        debug_assert!(map.describes(self.plan()), "op map of another layer");
        let mut replay = TileReplay::new(map, input, strikes);
        let mut hooks = Hooks {
            stage: None,
            replay: (!strikes.is_empty()).then_some(&mut replay),
        };
        self.execute_hooked(input, output, &mut hooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_winograd::{integer_transform, winograd_conv_quantized, MatrixSide};
    use crate::transform::{WinogradVariant, F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use wgft_faultsim::ExactArithmetic;
    use wgft_tensor::ConvGeometry;

    fn weights_for(variant: WinogradVariant, o: usize, c: usize) -> WinogradWeights {
        let t2 = variant.input_tile() * variant.input_tile();
        let data: Vec<i32> = (0..o * c * t2)
            .map(|i| ((i * 13 % 29) as i32) - 14)
            .collect();
        WinogradWeights::new(variant, o, c, data).unwrap()
    }

    fn input_for(shape: &ConvShape, salt: usize) -> Vec<i32> {
        (0..shape.input_len())
            .map(|i| (((i * 7 + salt * 31) % 47) as i32) - 23)
            .collect()
    }

    /// The tentpole guarantee: the fast engine is bit-identical to the
    /// instrumented kernel on exact arithmetic, over the full shape grid —
    /// channels, odd spatial sizes, non-tile-multiple outputs, padding, both
    /// variants.
    #[test]
    fn fast_path_is_bit_identical_to_instrumented_across_shape_grid() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2), (4, 4)] {
                for &size in &[4usize, 5, 6, 7, 9, 12] {
                    for &pad in &[0usize, 1] {
                        let shape =
                            ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
                        if shape.geometry.out_h() == 0 {
                            continue;
                        }
                        let weights = weights_for(variant, out_c, in_c);
                        let input = input_for(&shape, size + pad);
                        let mut exact = ExactArithmetic::new();
                        let reference =
                            winograd_conv_quantized(&mut exact, 0, &input, &weights, &shape)
                                .unwrap();
                        let mut fast = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        let out = fast.execute(&input).unwrap();
                        assert_eq!(
                            reference, out,
                            "{variant} c{in_c}->{out_c} s{size} p{pad}: fast path diverged"
                        );
                        // Scratch reuse across images must not leak state.
                        let again = fast.execute(&input).unwrap();
                        assert_eq!(out, again);
                    }
                }
            }
        }
    }

    /// Batched execution must be bit-identical to per-image execution,
    /// including ragged sizes where tile blocks straddle image boundaries.
    #[test]
    fn batched_execution_matches_per_image_bit_for_bit() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3)] {
                for &size in &[5usize, 9] {
                    let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, 1));
                    let weights = weights_for(variant, out_c, in_c);
                    for n in [1usize, 2, 3, 5] {
                        let batch: Vec<i32> =
                            (0..n).flat_map(|img| input_for(&shape, img)).collect();
                        let mut prepared =
                            PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        let batched = prepared.execute_batch(&batch, n).unwrap();
                        let mut single = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        for img in 0..n {
                            let out = single
                                .execute(&batch[img * shape.input_len()..][..shape.input_len()])
                                .unwrap();
                            assert_eq!(
                                out,
                                &batched[img * shape.output_len()..][..shape.output_len()],
                                "{variant} c{in_c}->{out_c} s{size} n{n} image {img}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every image-chunking of a batch — including ragged tail chunks — must
    /// produce identical accumulators, since chunking is exactly what the
    /// parallel path does.
    #[test]
    fn batch_chunking_is_bit_identical_for_every_chunk_size() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(9, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        let n = 5usize;
        let batch: Vec<i32> = (0..n).flat_map(|img| input_for(&shape, img)).collect();
        let mut reference = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let expected = reference.execute_batch(&batch, n).unwrap();
        for chunk in 1..=n + 1 {
            let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
            let mut out = vec![i64::MIN; n * shape.output_len()];
            prepared.execute_batch_chunked(&batch, n, &mut out, chunk, &mut Hooks::default());
            assert_eq!(expected, out, "chunk size {chunk}");
        }
    }

    /// The range recorder must observe exactly the maxima of the
    /// winograd-domain values the instrumented ABFT calibration observes —
    /// recomputed here with an independent naive reference.
    #[test]
    fn recording_observes_the_naive_winograd_stage_maxima() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            let shape = ConvShape::new(2, 3, ConvGeometry::square(7, 3, 1, 1));
            let weights = weights_for(variant, 3, 2);
            let input = input_for(&shape, 3);
            let mut fast = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
            let mut output = vec![0i64; shape.output_len()];
            let mut record = QuantizedRangeRecord::new();
            fast.execute_into_staged(&input, &mut output, &mut record)
                .unwrap();
            // Recording must not perturb the accumulators.
            let plain = fast.execute(&input).unwrap();
            assert_eq!(plain, output);

            // Naive reference maxima: transform every tile/channel.
            let t = variant.input_tile();
            let t2 = t * t;
            let m = variant.output_tile();
            let plan = WinogradPlan::new(&shape, variant).unwrap();
            let (mut v_max, mut gemm_max) = (0i64, 0i64);
            let mut v_tiles = vec![0i64; shape.in_channels * t2];
            for tile in 0..plan.num_tiles() {
                for ic in 0..shape.in_channels {
                    let mut d = vec![0i32; t2];
                    plan.load_tile(&input, tile, ic, &mut d);
                    let d64: Vec<i64> = d.iter().map(|&x| i64::from(x)).collect();
                    let mut tmp = vec![0i64; t2];
                    let mut vt = vec![0i64; t2];
                    let mut exact = ExactArithmetic::new();
                    let bt = variant.bt();
                    integer_transform(&mut exact, bt, &d64, &mut tmp, t, t, t, MatrixSide::Left);
                    integer_transform(
                        &mut exact,
                        bt,
                        &tmp,
                        &mut vt,
                        t,
                        t,
                        t,
                        MatrixSide::RightTransposed,
                    );
                    for (k, &value) in vt.iter().enumerate() {
                        v_max = v_max.max(value.abs());
                        v_tiles[ic * t2 + k] = value;
                    }
                }
                for oc in 0..shape.out_channels {
                    for k in 0..t2 {
                        let mut acc = 0i64;
                        for ic in 0..shape.in_channels {
                            let w = weights.data()[(oc * shape.in_channels + ic) * t2 + k];
                            acc += i64::from(w) * v_tiles[ic * t2 + k];
                        }
                        gemm_max = gemm_max.max(acc.abs());
                    }
                }
            }
            assert!(m <= t);
            assert_eq!(record.v_max, v_max, "{variant}: v_max");
            assert_eq!(record.gemm_max, gemm_max, "{variant}: gemm_max");
        }
    }

    #[test]
    fn constructor_validates_channel_mismatch_and_geometry() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let wrong = weights_for(F2X2_3X3, 1, 1);
        assert!(PreparedConvQuantizedFast::new(&wrong, &shape).is_err());
        let strided = ConvShape::new(2, 3, ConvGeometry::square(8, 3, 2, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        assert!(PreparedConvQuantizedFast::new(&weights, &strided).is_err());
    }

    #[test]
    fn validates_buffer_lengths_and_counts_batches() {
        let shape = ConvShape::new(1, 2, ConvGeometry::square(5, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 2, 1);
        let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let input = input_for(&shape, 0);
        assert!(prepared.execute(&input[..input.len() - 1]).is_err());
        let mut short = vec![0i64; shape.output_len() - 1];
        assert!(prepared.execute_into(&input, &mut short).is_err());
        assert_eq!(prepared.batched_executions(), 0);
        let batch: Vec<i32> = (0..2).flat_map(|img| input_for(&shape, img)).collect();
        assert!(prepared.execute_batch(&batch, 3).is_err());
        let _ = prepared.execute_batch(&batch, 2).unwrap();
        assert_eq!(prepared.batched_executions(), 1);
        // Zero images is a no-op, not an error.
        assert!(prepared.execute_batch(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn repacked_weight_layout_is_coordinate_major() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        let prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let t2 = 16;
        for k in 0..t2 {
            for oc in 0..3 {
                for ic in 0..2 {
                    assert_eq!(
                        prepared.transformed_weights()[(k * 3 + oc) * 2 + ic],
                        weights.data()[(oc * 2 + ic) * t2 + k]
                    );
                }
            }
        }
    }
}
