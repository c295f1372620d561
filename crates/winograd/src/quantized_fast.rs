//! Fast, **uninstrumented** quantized winograd execution.
//!
//! The instrumented quantized kernel
//! ([`crate::winograd_conv_quantized_with_scratch`]) issues every primitive
//! multiply and add through an [`wgft_faultsim::Arithmetic`] backend so that
//! soft errors can strike individual operations — which makes it inherently
//! scalar and by far the slowest path in the system. Most of that cost buys
//! nothing: fault-free evaluation (campaign clean baselines, ABFT range
//! calibration, BER=0 sweep cells, zero-rate protected inference) has no
//! faults to inject, and even at the swept bit error rates only a small
//! share of a layer's operations is struck. A [`RangeStage`] sees each
//! block's winograd-domain values between the stages, which is where
//! calibration records ranges and protected inference checks and clips
//! them.
//!
//! [`PreparedConvQuantizedFast`] is the uninstrumented twin, mirroring the
//! planned `f32` engine ([`crate::PreparedConvF32`]): cached `(t², O, C)`
//! winograd-domain weights, a cache-blocked scatter→GEMM→gather schedule with
//! zero per-tile allocation, lane-per-tile SoA F(2x2) transforms, the blocked
//! [`wgft_tensor::gemm_i32`] microkernel (`i32` operands, `i64` accumulators)
//! and rayon batch chunking.
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

use crate::conv_standard::ConvShape;
use crate::conv_winograd::WinogradWeights;
use crate::plan::{
    store_output_tile, WinogradPlan, BLOCK_BUDGET, MAX_TILE, PAR_GEMM_MIN_BLOCK, SOA_GROUP,
};
use crate::replay::{TileReplay, WinogradOpMap};
use crate::WinogradError;
use std::sync::Arc;
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
/// [`PreparedConvQuantizedFast::execute_into_staged`] call — exactly the
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

/// A planned, uninstrumented quantized winograd convolution with cached
/// repacked weights and owned scratch buffers.
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
#[derive(Debug, Clone)]
pub struct PreparedConvQuantizedFast {
    plan: WinogradPlan,
    /// Winograd-domain weights repacked `(t², O, C)`: one `(O×C)` GEMM
    /// operand per winograd coordinate. Shared between clones (`Arc`), so a
    /// per-worker clone of a prepared plan costs scratch buffers only — not
    /// a copy of every layer's weights.
    u: Arc<Vec<i32>>,
    /// Cache-budget tile count per scatter→GEMM→gather block (see
    /// [`crate::PreparedConvF32`]).
    block_budget: usize,
    /// Scatter buffer for one block, `(t², C, block)`; grown on demand.
    v: Vec<i32>,
    /// GEMM product buffer for one block, `(t², O, block)`; grown on demand.
    prod: Vec<i64>,
    /// Number of times the batched entry point has run (silent-fallback
    /// guard, mirroring the f32 engine).
    batched_executions: u64,
}

impl PreparedConvQuantizedFast {
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
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t = weights.variant().input_tile();
        let t2 = t * t;
        // (O, C, t²) -> (t², O, C)
        let data = weights.data();
        let mut u = vec![0i32; t2 * o * c];
        for oc in 0..o {
            for ic in 0..c {
                let src = &data[(oc * c + ic) * t2..(oc * c + ic + 1) * t2];
                for (k, &value) in src.iter().enumerate() {
                    u[(k * o + oc) * c + ic] = value;
                }
            }
        }
        let p = plan.num_tiles();
        let block_budget = (BLOCK_BUDGET / (t2 * c.max(o)).max(1)).max(8);
        let block = block_budget.min(p.max(8));
        Ok(Self {
            plan,
            u: Arc::new(u),
            block_budget,
            v: vec![0; t2 * c * block],
            prod: vec![0; t2 * o * block],
            batched_executions: 0,
        })
    }

    /// The plan geometry.
    #[must_use]
    pub fn plan(&self) -> &WinogradPlan {
        &self.plan
    }

    /// The repacked `(t², O, C)` winograd-domain weights.
    #[must_use]
    pub fn transformed_weights(&self) -> &[i32] {
        &self.u
    }

    /// How many times the batched entry point has run.
    #[must_use]
    pub fn batched_executions(&self) -> u64 {
        self.batched_executions
    }

    /// Execute the convolution into a freshly allocated wide-accumulator
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute(&mut self, input: &[i32]) -> Result<Vec<i64>, WinogradError> {
        let mut output = vec![0i64; self.plan.shape().output_len()];
        self.execute_into(input, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution into a caller-provided accumulator buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into(&mut self, input: &[i32], output: &mut [i64]) -> Result<(), WinogradError> {
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1, None, None);
        Ok(())
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
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1, Some(stage), None);
        Ok(())
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
        self.validate_batch(input, 1, output)?;
        debug_assert!(map.describes(&self.plan), "op map of another layer");
        let mut replay = TileReplay::new(map, input, strikes);
        let patch = (!strikes.is_empty()).then_some(&mut replay);
        self.execute_batch_chunked(input, 1, output, 1, None, patch);
        Ok(())
    }

    /// Execute the convolution on a batch of `n_images` images into a
    /// freshly allocated `(N, O, H', W')` accumulator buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute_batch(
        &mut self,
        input: &[i32],
        n_images: usize,
    ) -> Result<Vec<i64>, WinogradError> {
        let mut output = vec![0i64; n_images * self.plan.shape().output_len()];
        self.execute_batch_into(input, n_images, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution on `n_images` contiguous `(N, C, H, W)`
    /// images, writing `(N, O, H', W')` accumulators to `output`.
    ///
    /// All `N·P` tiles share the scatter→GEMM→gather schedule (tile blocks
    /// span image boundaries); with a multi-thread rayon pool the batch
    /// splits into image-aligned chunks with worker-local scratch. Because
    /// the kernel is exact integer arithmetic, results are bit-identical to
    /// `n_images` single-image executions for every chunking and thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_batch_into(
        &mut self,
        input: &[i32],
        n_images: usize,
        output: &mut [i64],
    ) -> Result<(), WinogradError> {
        self.validate_batch(input, n_images, output)?;
        self.batched_executions += 1;
        if n_images == 0 {
            return Ok(());
        }
        let threads = rayon::current_num_threads();
        let chunk = if threads <= 1 {
            n_images
        } else {
            n_images.div_ceil(threads)
        };
        self.execute_batch_chunked(input, n_images, output, chunk, None, None);
        Ok(())
    }

    fn validate_batch(
        &self,
        input: &[i32],
        n_images: usize,
        output: &[i64],
    ) -> Result<(), WinogradError> {
        let shape = self.plan.shape();
        if input.len() != n_images * shape.input_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "input",
                expected: n_images * shape.input_len(),
                actual: input.len(),
            });
        }
        if output.len() != n_images * shape.output_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "output",
                expected: n_images * shape.output_len(),
                actual: output.len(),
            });
        }
        debug_assert!(
            {
                let bound = self.plan.variant().max_fast_input();
                input.iter().all(|&x| x.abs() <= bound)
            },
            "fast quantized winograd input exceeds the exact i32 winograd domain"
        );
        Ok(())
    }

    /// Effective tiles-per-block for a range holding `total_tiles`.
    fn block_for(&self, total_tiles: usize) -> usize {
        self.block_budget.min(total_tiles.max(1))
    }

    /// Run the batch split into chunks of `images_per_chunk` images (the
    /// same schedule as [`crate::PreparedConvF32`]). Range stages and replay
    /// run single images on the single-chunk schedule.
    fn execute_batch_chunked(
        &mut self,
        input: &[i32],
        n_images: usize,
        output: &mut [i64],
        images_per_chunk: usize,
        stage: Option<&mut dyn RangeStage>,
        replay: Option<&mut TileReplay<'_>>,
    ) {
        let shape = *self.plan.shape();
        let (in_len, out_len) = (shape.input_len(), shape.output_len());
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant().input_tile() * self.plan.variant().input_tile();
        let images_per_chunk = images_per_chunk.clamp(1, n_images.max(1));
        if images_per_chunk >= n_images || in_len == 0 || out_len == 0 {
            let bp = self.block_for(n_images * self.plan.num_tiles());
            grow(&mut self.v, t2 * c * bp);
            grow(&mut self.prod, t2 * o * bp);
            let parallel_gemms =
                rayon::current_num_threads() > 1 && o * c * bp >= PAR_GEMM_MIN_BLOCK;
            run_images_q(
                &self.plan,
                &self.u,
                bp,
                &mut self.v,
                &mut self.prod,
                input,
                n_images,
                output,
                parallel_gemms,
                stage,
                replay,
            );
            return;
        }
        debug_assert!(
            stage.is_none(),
            "range stages run the single-chunk schedule"
        );
        debug_assert!(replay.is_none(), "replay runs the serial schedule");
        use rayon::prelude::*;
        let plan = &self.plan;
        let u = &self.u;
        let bp = self.block_for(images_per_chunk * plan.num_tiles());
        let jobs: Vec<(&[i32], &mut [i64])> = input
            .chunks(images_per_chunk * in_len)
            .zip(output.chunks_mut(images_per_chunk * out_len))
            .collect();
        jobs.into_par_iter()
            .map(|(in_chunk, out_chunk)| {
                let images = in_chunk.len() / in_len.max(1);
                let mut v = vec![0i32; t2 * c * bp];
                let mut prod = vec![0i64; t2 * o * bp];
                run_images_q(
                    plan, u, bp, &mut v, &mut prod, in_chunk, images, out_chunk, false, None, None,
                );
            })
            .collect::<Vec<()>>();
    }
}

fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Scatter→GEMM→gather over all `n_images · P` tiles of a contiguous image
/// range — the integer twin of the f32 engine's block loop. `block` bounds
/// the tiles per buffer fill; `v` and `prod` must hold `t²·C·block` and
/// `t²·O·block` elements. With `stage`, each block's `V` passes through
/// it before the GEMMs and its products before the gather. With `replay`
/// (one image), each block's products are patched between the GEMM (and
/// the stage) and the gather, and its struck output transforms rerun after
/// the gather.
#[allow(clippy::too_many_arguments)]
fn run_images_q(
    plan: &WinogradPlan,
    u: &[i32],
    block: usize,
    v: &mut [i32],
    prod: &mut [i64],
    input: &[i32],
    n_images: usize,
    output: &mut [i64],
    parallel_gemms: bool,
    mut stage: Option<&mut dyn RangeStage>,
    mut replay: Option<&mut TileReplay<'_>>,
) {
    let shape = *plan.shape();
    let (o, c) = (shape.out_channels, shape.in_channels);
    let (in_len, out_len) = (shape.input_len(), shape.output_len());
    let variant = plan.variant();
    let t = variant.input_tile();
    let m = variant.output_tile();
    let t2 = t * t;
    let p = plan.num_tiles();
    let total_tiles = n_images * p;
    let (out_h, out_w) = (shape.geometry.out_h(), shape.geometry.out_w());
    let bt = variant.bt();
    let at = variant.at();

    let mut tile_d = [0i32; MAX_TILE];
    let mut tile_d64 = [0i64; MAX_TILE];
    let mut tile_tmp = [0i64; MAX_TILE];
    let mut tile_tmp2 = [0i64; MAX_TILE];
    let mut tile_y = [0i64; MAX_TILE];

    let mut block_start = 0usize;
    while block_start < total_tiles {
        let bp = block.min(total_tiles - block_start);

        // ---- Scatter: V[k][ic][b] = (Bᵀ d B)[k] for every tile/channel of
        // the block, tile-innermost so the t² destination streams are
        // written sequentially. Full groups of SOA_GROUP tiles take the
        // lane-per-tile runtime-t kernel (i32 adds and mul-adds, exact under
        // the input bound); ragged tails take the per-tile path in i64 with
        // an exact narrowing store.
        for ic in 0..c {
            let mut b = 0usize;
            while b < bp {
                if b + SOA_GROUP <= bp {
                    scatter_group_q(plan, input, in_len, block_start + b, ic, v, c, bp, b, bt);
                    b += SOA_GROUP;
                    continue;
                }
                let g = block_start + b;
                let image_input = &input[(g / p) * in_len..(g / p + 1) * in_len];
                plan.load_tile(image_input, g % p, ic, &mut tile_d[..t2]);
                for (wide, &narrow) in tile_d64[..t2].iter_mut().zip(tile_d[..t2].iter()) {
                    *wide = i64::from(narrow);
                }
                // tmp = Bᵀ d, v = tmp B (B = Bᵀᵀ).
                int_mat_mul_left(bt, &tile_d64, &mut tile_tmp, t, t, t);
                int_mat_mul_rt(bt, &tile_tmp, &mut tile_tmp2, t, t, t);
                for (k, &value) in tile_tmp2[..t2].iter().enumerate() {
                    debug_assert!(
                        i32::try_from(value).is_ok(),
                        "winograd-domain value {value} exceeds i32"
                    );
                    v[(k * c + ic) * bp + b] = value as i32;
                }
                b += 1;
            }
        }
        let stage_block = StageBlock {
            weights: u,
            first_tile: block_start,
            tiles: bp,
        };
        if let Some(stage) = stage.as_deref_mut() {
            stage.transformed_inputs(&stage_block, &mut v[..t2 * c * bp]);
        }

        // ---- Batched integer GEMM: one (O×C)·(C×bp) multiply per winograd
        // coordinate; `i64` accumulators exactly as the instrumented kernel
        // produces. In parallel mode the t² independent GEMMs fan out across
        // the pool (disjoint `prod` chunks).
        if parallel_gemms {
            use rayon::prelude::*;
            let v_ro: &[i32] = v;
            let jobs: Vec<(usize, &mut [i64])> =
                prod[..t2 * o * bp].chunks_mut(o * bp).enumerate().collect();
            jobs.into_par_iter()
                .map(|(k, prod_k)| {
                    gemm_i32(
                        &u[k * o * c..(k + 1) * o * c],
                        &v_ro[k * c * bp..(k + 1) * c * bp],
                        prod_k,
                        o,
                        c,
                        bp,
                    );
                })
                .collect::<Vec<()>>();
        } else {
            for k in 0..t2 {
                gemm_i32(
                    &u[k * o * c..(k + 1) * o * c],
                    &v[k * c * bp..(k + 1) * c * bp],
                    &mut prod[k * o * bp..(k + 1) * o * bp],
                    o,
                    c,
                    bp,
                );
            }
        }
        if let Some(stage) = stage.as_deref_mut() {
            stage.products(&stage_block, &v[..t2 * c * bp], &mut prod[..t2 * o * bp]);
        }
        if let Some(replay) = replay.as_deref_mut() {
            replay.products(plan, u, v, prod, block_start, bp);
        }

        // ---- Gather: inverse-transform each (oc, tile) fibre, tile
        // innermost; full groups use the lane-per-tile runtime-t i64 kernel.
        for oc in 0..o {
            let mut b = 0usize;
            while b < bp {
                if b + SOA_GROUP <= bp {
                    gather_group_q(
                        plan,
                        prod,
                        o,
                        bp,
                        oc,
                        b,
                        block_start + b,
                        out_len,
                        output,
                        at,
                    );
                    b += SOA_GROUP;
                    continue;
                }
                let g = block_start + b;
                let tile = g % p;
                let out_base = (g / p) * out_len;
                let ty = tile / plan.tiles_x();
                let tx = tile % plan.tiles_x();
                for (k, value) in tile_tmp2[..t2].iter_mut().enumerate() {
                    *value = prod[(k * o + oc) * bp + b];
                }
                // tmp = Aᵀ M, y = tmp A (A = Aᵀᵀ).
                int_mat_mul_left(at, &tile_tmp2, &mut tile_tmp, m, t, t);
                int_mat_mul_rt(at, &tile_tmp, &mut tile_y, m, t, m);
                store_output_tile(output, out_base, &tile_y, oc, ty, tx, m, out_h, out_w);
                b += 1;
            }
        }
        if let Some(replay) = replay.as_deref_mut() {
            replay.outputs(plan, prod, bp, output);
        }

        block_start += bp;
    }
}

/// `out (rows×cols) = coef (rows×inner) · data (inner×cols)` on plain
/// integer arithmetic — the uninstrumented twin of
/// [`crate::integer_transform`] with [`crate::MatrixSide::Left`]; exact
/// integer sums, so the results are identical.
pub(crate) fn int_mat_mul_left(
    coef: &[i32],
    data: &[i64],
    out: &mut [i64],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0i64;
            for k in 0..inner {
                acc = acc
                    .wrapping_add(i64::from(coef[i * inner + k]).wrapping_mul(data[k * cols + j]));
            }
            out[i * cols + j] = acc;
        }
    }
}

/// `out (rows×cols) = data (rows×inner) · coefᵀ` with `coef (cols×inner)` —
/// the uninstrumented twin of [`crate::integer_transform`] with
/// [`crate::MatrixSide::RightTransposed`].
pub(crate) fn int_mat_mul_rt(
    coef: &[i32],
    data: &[i64],
    out: &mut [i64],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0i64;
            for k in 0..inner {
                acc = acc
                    .wrapping_add(data[i * inner + k].wrapping_mul(i64::from(coef[j * inner + k])));
            }
            out[i * cols + j] = acc;
        }
    }
}

/// Lane-wise `acc += coef · src` in `i32`, specialized on the coefficient:
/// transform matrices are dominated by 0/±1 entries, so most terms are a
/// skipped column, a vector add or a vector subtract. Integer arithmetic is
/// exact, so this is bit-identical to the per-tile i64 path under the
/// [`WinogradVariant::max_fast_input`] bound (which keeps every intermediate
/// in i32 range).
#[inline]
fn lane_axpy_i32(acc: &mut [i32; SOA_GROUP], coef: i32, src: &[i32; SOA_GROUP]) {
    match coef {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += s;
            }
        }
        -1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a -= s;
            }
        }
        _ => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += coef * s;
            }
        }
    }
}

/// Lane-wise `acc += coef · src` in `i64` for the gather side, wrapping:
/// under fault-site replay the products it transforms may carry struck
/// values past `i64`, which the instrumented datapath wraps the same way.
#[inline]
fn lane_axpy_i64(acc: &mut [i64; SOA_GROUP], coef: i64, src: &[i64; SOA_GROUP]) {
    match coef {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a = a.wrapping_add(s);
            }
        }
        -1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a = a.wrapping_sub(s);
            }
        }
        _ => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a = a.wrapping_add(coef.wrapping_mul(s));
            }
        }
    }
}

/// Input transform `Bᵀ d B` for [`SOA_GROUP`] consecutive tiles of one
/// channel, lane-per-tile in `i32` at any tile size. Identical arithmetic to
/// the per-tile path — integer ops are exact, so the results are
/// bit-identical.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scatter_group_q(
    plan: &WinogradPlan,
    input: &[i32],
    in_len: usize,
    g0: usize,
    ic: usize,
    v: &mut [i32],
    c: usize,
    bp: usize,
    b0: usize,
    bt: &[i32],
) {
    let p = plan.num_tiles();
    let t = plan.variant().input_tile();
    let t2 = t * t;
    let mut dsoa = [[0i32; SOA_GROUP]; MAX_TILE];
    let mut tile_d = [0i32; MAX_TILE];
    #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
    for gi in 0..SOA_GROUP {
        let g = g0 + gi;
        let image_input = &input[(g / p) * in_len..(g / p + 1) * in_len];
        plan.load_tile(image_input, g % p, ic, &mut tile_d[..t2]);
        for (pos, &value) in tile_d[..t2].iter().enumerate() {
            dsoa[pos][gi] = value;
        }
    }
    // tmp = Bᵀ d, lane-wise: tmp[i][j] = Σ_k Bᵀ[i][k] · d[k][j].
    let mut tmp = [[0i32; SOA_GROUP]; MAX_TILE];
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0i32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i32(&mut acc, bt[i * t + k], &dsoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // v_rows = tmp B (B = Bᵀᵀ), lane-wise, stored straight into the scatter
    // buffer: out[i][j] = Σ_k tmp[i][k] · Bᵀ[j][k].
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0i32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i32(&mut acc, bt[j * t + k], &tmp[i * t + k]);
            }
            v[((i * t + j) * c + ic) * bp + b0..][..SOA_GROUP].copy_from_slice(&acc);
        }
    }
}

/// Output transform `Aᵀ m A` for [`SOA_GROUP`] consecutive tiles of one
/// output channel, lane-per-tile in `i64` at any tile size. Identical
/// arithmetic to the per-tile path.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gather_group_q(
    plan: &WinogradPlan,
    prod: &[i64],
    o: usize,
    bp: usize,
    oc: usize,
    b0: usize,
    g0: usize,
    out_len: usize,
    output: &mut [i64],
    at: &[i32],
) {
    let p = plan.num_tiles();
    let g = plan.shape().geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let t = plan.variant().input_tile();
    let m = plan.variant().output_tile();
    let t2 = t * t;
    let mut msoa = [[0i64; SOA_GROUP]; MAX_TILE];
    for (k, row) in msoa.iter_mut().enumerate().take(t2) {
        row.copy_from_slice(&prod[(k * o + oc) * bp + b0..][..SOA_GROUP]);
    }
    // tmp = Aᵀ m (m×t rows), lane-wise.
    let mut tmp = [[0i64; SOA_GROUP]; MAX_TILE];
    for i in 0..m {
        for j in 0..t {
            let mut acc = [0i64; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i64(&mut acc, i64::from(at[i * t + k]), &msoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // y = tmp A (m×m), lane-wise.
    let mut ysoa = [[0i64; SOA_GROUP]; MAX_TILE];
    for i in 0..m {
        for j in 0..m {
            let mut acc = [0i64; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i64(&mut acc, i64::from(at[j * t + k]), &tmp[i * t + k]);
            }
            ysoa[i * m + j] = acc;
        }
    }
    let mut tile_y = [0i64; MAX_TILE];
    #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
    for gi in 0..SOA_GROUP {
        let gt = g0 + gi;
        let tile = gt % p;
        let out_base = (gt / p) * out_len;
        let ty = tile / plan.tiles_x();
        let tx = tile % plan.tiles_x();
        for (pos, value) in tile_y[..m * m].iter_mut().enumerate() {
            *value = ysoa[pos][gi];
        }
        store_output_tile(
            output,
            out_base,
            &tile_y[..m * m],
            oc,
            ty,
            tx,
            m,
            out_h,
            out_w,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_winograd::winograd_conv_quantized;
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
            prepared.execute_batch_chunked(&batch, n, &mut out, chunk, None, None);
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
                    int_mat_mul_left(variant.bt(), &d64, &mut tmp, t, t, t);
                    int_mat_mul_rt(variant.bt(), &tmp, &mut vt, t, t, t);
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
