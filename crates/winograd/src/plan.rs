//! The planned winograd engine: cached transforms, scatter–GEMM–gather
//! scheduling and reusable scratch buffers, for both number domains.
//!
//! The naive kernels in [`crate::conv_winograd`] re-derive the filter
//! transform `U = G g Gᵀ` on every call and walk the image tile by tile,
//! which is fine for correctness tests but far too slow for fault-injection
//! campaigns that run thousands of inferences. The planned engine splits the
//! work the way production winograd implementations (cuDNN, oneDNN, NNPACK)
//! do:
//!
//! 1. **Prepare** (once per layer): validate the geometry and repack the
//!    winograd-domain weights as a `(t², O, C)` tensor;
//! 2. **Scatter** (per block of tiles): transform every input tile into a
//!    `(t², C, tiles)` tensor, `V = Bᵀ d B`;
//! 3. **GEMM**: `t²` independent `(O×C)·(C×tiles)` matrix multiplies — the
//!    only O(C·O·P) work;
//! 4. **Gather**: inverse-transform each `(t², 1, 1)` fibre of the products
//!    `M` back to an `m×m` output tile, `Y = Aᵀ M A`.
//!
//! One engine, [`PreparedConv`], runs this schedule in two number domains:
//!
//! * **float** ([`crate::PreparedConvF32`]): f32 lanes and accumulators and
//!   [`wgft_tensor::gemm_f32`]; float evaluation runs it;
//! * **integer** ([`crate::PreparedConvQuantizedFast`]): i32 lanes for the
//!   scatter, [`wgft_tensor::gemm_i32`] into i64 accumulators and a wrapping
//!   i64 gather; every fast quantized pass runs it (see
//!   [`crate::quantized_fast`](crate::RangeStage) for its hooks and its
//!   bit-identity guarantee).
//!
//! Tiles are processed in blocks whose scatter and product buffers stay
//! cache-resident; blocks span image boundaries, so batched calls keep the
//! GEMM free dimension full. The scatter and gather transform groups of
//! [`SOA_GROUP`] tiles lane-per-tile (one vector lane per tile); a block's
//! ragged tail is one partial group through the same kernels.
//! No step allocates inside its per-tile loop; all scratch lives in the
//! prepared object and is reused across calls.

use crate::conv_standard::ConvShape;
use crate::conv_winograd::transform_weights_f32;
use crate::quantized_fast::Hooks;
use crate::transform::WinogradVariant;
use crate::WinogradError;
use std::fmt::Debug;
use std::sync::Arc;
use wgft_tensor::gemm_f32;

/// Tile-level execution geometry of one planned winograd convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinogradPlan {
    shape: ConvShape,
    variant: WinogradVariant,
    tiles_y: usize,
    tiles_x: usize,
}

impl WinogradPlan {
    /// Plan a winograd execution for the given convolution shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] unless the layer is a
    /// unit-stride 3x3 convolution.
    pub fn new(shape: &ConvShape, variant: WinogradVariant) -> Result<Self, WinogradError> {
        let g = &shape.geometry;
        if !g.is_unit_stride_3x3() {
            return Err(WinogradError::UnsupportedGeometry {
                kernel: g.k_h,
                stride: g.stride,
            });
        }
        let m = variant.output_tile();
        Ok(Self {
            shape: *shape,
            variant,
            tiles_y: g.out_h().div_ceil(m),
            tiles_x: g.out_w().div_ceil(m),
        })
    }

    /// The convolution shape this plan executes.
    #[must_use]
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The tile variant.
    #[must_use]
    pub fn variant(&self) -> WinogradVariant {
        self.variant
    }

    /// Tile grid rows.
    #[must_use]
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Tile grid columns.
    #[must_use]
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Total number of tiles `P` (the GEMM free dimension).
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.tiles_y * self.tiles_x
    }

    /// Extract one `t×t` input tile (with zero padding) into `out` — shared
    /// by the engine and the replay kernels, so the border/padding logic
    /// cannot desynchronize between them.
    ///
    /// `tile` indexes the row-major tile grid; `channel` selects the input
    /// feature map.
    pub(crate) fn load_tile<T: Copy + Default>(
        &self,
        input: &[T],
        tile: usize,
        channel: usize,
        out: &mut [T],
    ) {
        let g = &self.shape.geometry;
        let t = self.variant.input_tile();
        let m = self.variant.output_tile();
        let ty = tile / self.tiles_x;
        let tx = tile % self.tiles_x;
        let pad = g.padding as isize;
        let base_y = (ty * m) as isize - pad;
        let base_x = (tx * m) as isize - pad;
        let plane = &input[channel * g.in_h * g.in_w..(channel + 1) * g.in_h * g.in_w];
        // Fast path: the tile lies fully inside the image (the overwhelmingly
        // common case away from the border) — plain row copies, no
        // per-element bounds checks.
        if base_y >= 0
            && base_x >= 0
            && base_y as usize + t <= g.in_h
            && base_x as usize + t <= g.in_w
        {
            let (y0, x0) = (base_y as usize, base_x as usize);
            for dy in 0..t {
                let src = &plane[(y0 + dy) * g.in_w + x0..(y0 + dy) * g.in_w + x0 + t];
                out[dy * t..(dy + 1) * t].copy_from_slice(src);
            }
            return;
        }
        for dy in 0..t {
            let iy = base_y + dy as isize;
            let row = &mut out[dy * t..(dy + 1) * t];
            if iy < 0 || iy >= g.in_h as isize {
                row.fill(T::default());
                continue;
            }
            let irow = &plane[(iy as usize) * g.in_w..(iy as usize + 1) * g.in_w];
            for (dx, value) in row.iter_mut().enumerate() {
                let ix = base_x + dx as isize;
                *value = if ix >= 0 && ix < g.in_w as isize {
                    irow[ix as usize]
                } else {
                    T::default()
                };
            }
        }
    }
}

/// One lane of a transform group: the arithmetic the scatter and gather
/// kernels run, per number type.
pub trait Lane: Copy + Default + PartialEq + Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `-1`.
    const NEG_ONE: Self;
    /// A transform-matrix coefficient as a lane value.
    fn coef(c: i32) -> Self;
    /// `self + x` in the lane's arithmetic.
    fn add(self, x: Self) -> Self;
    /// `self - x` in the lane's arithmetic.
    fn sub(self, x: Self) -> Self;
    /// `self · x` in the lane's arithmetic.
    fn mul(self, x: Self) -> Self;
}

impl Lane for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_ONE: Self = -1.0;
    #[inline]
    fn coef(c: i32) -> Self {
        c as f32
    }
    #[inline]
    fn add(self, x: Self) -> Self {
        self + x
    }
    #[inline]
    fn sub(self, x: Self) -> Self {
        self - x
    }
    #[inline]
    fn mul(self, x: Self) -> Self {
        self * x
    }
}

/// Scatter lanes of the integer domain: plain (debug-checked) `i32`
/// arithmetic, exact under [`WinogradVariant::max_fast_input`].
impl Lane for i32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const NEG_ONE: Self = -1;
    #[inline]
    fn coef(c: i32) -> Self {
        c
    }
    #[inline]
    fn add(self, x: Self) -> Self {
        self + x
    }
    #[inline]
    fn sub(self, x: Self) -> Self {
        self - x
    }
    #[inline]
    fn mul(self, x: Self) -> Self {
        self * x
    }
}

/// Gather lanes of the integer domain, wrapping: under fault-site replay
/// the products they transform may carry struck values past `i64`, which
/// the instrumented datapath wraps the same way.
impl Lane for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const NEG_ONE: Self = -1;
    #[inline]
    fn coef(c: i32) -> Self {
        i64::from(c)
    }
    #[inline]
    fn add(self, x: Self) -> Self {
        self.wrapping_add(x)
    }
    #[inline]
    fn sub(self, x: Self) -> Self {
        self.wrapping_sub(x)
    }
    #[inline]
    fn mul(self, x: Self) -> Self {
        self.wrapping_mul(x)
    }
}

/// A number domain of the planned engine. The trait is not exported, so
/// the float and integer domains below are the only ones.
pub trait Domain: Debug + Clone + 'static {
    /// Input, weight and transformed-input (`V`) lane.
    type Value: Lane;
    /// GEMM product (`M`) and output lane.
    type Acc: Lane;

    /// `c (m×n) = a (m×k) · b (k×n)`.
    fn gemm(
        a: &[Self::Value],
        b: &[Self::Value],
        c: &mut [Self::Acc],
        m: usize,
        k: usize,
        n: usize,
    );

    /// Debug-build check that `input` lies where the domain is exact.
    fn debug_check_input(_variant: WinogradVariant, _input: &[Self::Value]) {}

    /// Sees a block's transformed inputs `v`, `(t², C, tiles)`, before the
    /// GEMMs read them.
    fn scattered(_hooks: &mut Hooks<'_, '_>, _block: &Block<'_, Self>, _v: &mut [Self::Value]) {}

    /// Sees a block's products `prod`, `(t², O, tiles)`, before the gather
    /// reads them; `v` is what the GEMMs multiplied.
    fn multiplied(
        _hooks: &mut Hooks<'_, '_>,
        _block: &Block<'_, Self>,
        _v: &[Self::Value],
        _prod: &mut [Self::Acc],
    ) {
    }

    /// Sees a block's products after the gather wrote its outputs.
    fn gathered(
        _hooks: &mut Hooks<'_, '_>,
        _block: &Block<'_, Self>,
        _prod: &[Self::Acc],
        _output: &mut [Self::Acc],
    ) {
    }
}

/// The float domain: f32 lanes, f32 accumulators, [`gemm_f32`], no hooks.
#[derive(Debug, Clone)]
pub struct Float;

impl Domain for Float {
    type Value = f32;
    type Acc = f32;

    fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        gemm_f32(a, b, c, m, k, n);
    }
}

/// One scatter→GEMM→gather block as the domain hooks see it.
pub struct Block<'a, D: Domain> {
    /// The layer's plan.
    pub(crate) plan: &'a WinogradPlan,
    /// The repacked `(t², O, C)` weights.
    pub(crate) u: &'a [D::Value],
    /// Index of the block's first tile across the image range.
    pub(crate) first_tile: usize,
    /// Tiles in the block: the innermost extent of the `V` and `M` buffers.
    pub(crate) tiles: usize,
}

/// A planned winograd convolution with cached `(t², O, C)` weights and owned
/// scratch buffers, in number domain `D`. Exported as
/// [`crate::PreparedConvF32`] and [`crate::PreparedConvQuantizedFast`].
#[derive(Debug, Clone)]
pub struct PreparedConv<D: Domain> {
    plan: WinogradPlan,
    /// Winograd-domain weights repacked `(t², O, C)`: one `(O×C)` GEMM
    /// operand per winograd coordinate. Shared between clones (`Arc`), so a
    /// per-worker clone of a prepared plan costs scratch buffers only — not
    /// a copy of every layer's weights.
    u: Arc<Vec<D::Value>>,
    /// Cache-budget tile count per scatter→GEMM→gather block: how many tiles
    /// keep one block's scatter and product buffers cache-resident. The
    /// effective block of a call is this clamped to the tiles actually
    /// available, so batched calls get full blocks where a single small image
    /// would leave a ragged tail.
    block_budget: usize,
    /// Scatter buffer for one block, `(t², C, block)`; grown on demand.
    v: Vec<D::Value>,
    /// GEMM product buffer for one block, `(t², O, block)`; grown on demand.
    prod: Vec<D::Acc>,
    /// Number of times the batched engine entry point has run (the
    /// silent-fallback guard of the batched inference paths checks this).
    batched_executions: u64,
}

/// Largest per-tile buffer any variant needs (`t² = 64` for F(6x6,3x3)).
pub(crate) const MAX_TILE: usize = 64;

/// Target size (in elements) of the per-block scatter buffer — roughly half
/// a typical L2 so the product buffer fits alongside it.
const BLOCK_BUDGET: usize = 64 * 1024;

/// Minimum `O·C·bp` per GEMM before a block's t² GEMMs fan out across the
/// rayon pool; below this the fork/join costs more than the multiply.
const PAR_GEMM_MIN_BLOCK: usize = 1 << 16;

/// Tiles per SoA transform group: one lane per tile, sized to a full
/// AVX-512 f32 register (and two AVX2 registers) so the transforms' adds and
/// mul-adds vectorize across tiles.
const SOA_GROUP: usize = 16;

/// Equality is defined by what the plan *computes* — the geometry and the
/// cached transformed weights — not by whatever a previous `execute` left in
/// the scratch buffers.
impl<D: Domain> PartialEq for PreparedConv<D> {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan && self.u == other.u
    }
}

/// The planned floating-point winograd convolution: the float domain of
/// `PreparedConv`, with cached transformed weights and owned scratch.
///
/// Prepare once per layer, execute once per image:
///
/// ```
/// use wgft_tensor::ConvGeometry;
/// use wgft_winograd::{ConvShape, PreparedConvF32, F2X2_3X3};
///
/// # fn main() -> Result<(), wgft_winograd::WinogradError> {
/// let shape = ConvShape::new(2, 4, ConvGeometry::square(8, 3, 1, 1));
/// let weights = vec![0.1f32; shape.weight_len()];
/// let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3)?;
/// let input = vec![1.0f32; shape.input_len()];
/// let output = prepared.execute(&input)?;
/// assert_eq!(output.len(), shape.output_len());
/// # Ok(())
/// # }
/// ```
pub type PreparedConvF32 = PreparedConv<Float>;

impl PreparedConv<Float> {
    /// Transform and cache `(O, C, 3, 3)` weights for the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3/strided
    /// layers and [`WinogradError::BufferSizeMismatch`] for a wrong weight
    /// buffer length.
    pub fn new(
        weights: &[f32],
        shape: &ConvShape,
        variant: WinogradVariant,
    ) -> Result<Self, WinogradError> {
        let plan = WinogradPlan::new(shape, variant)?;
        let u_oc = transform_weights_f32(weights, shape.out_channels, shape.in_channels, variant)?;
        Ok(Self::repack(plan, &u_oc))
    }
}

impl<D: Domain> PreparedConv<D> {
    /// Repack `(O, C, t²)` winograd-domain weights as `(t², O, C)` and size
    /// the scratch for one image.
    pub(crate) fn repack(plan: WinogradPlan, u_oc: &[D::Value]) -> Self {
        let (o, c) = (plan.shape.out_channels, plan.shape.in_channels);
        let t2 = plan.variant.input_tile() * plan.variant.input_tile();
        let mut u = vec![D::Value::ZERO; t2 * o * c];
        for oc in 0..o {
            for ic in 0..c {
                let src = &u_oc[(oc * c + ic) * t2..(oc * c + ic + 1) * t2];
                for (k, &value) in src.iter().enumerate() {
                    u[(k * o + oc) * c + ic] = value;
                }
            }
        }
        let block_budget = (BLOCK_BUDGET / (t2 * c.max(o)).max(1)).max(8);
        let block = block_budget.min(plan.num_tiles().max(8));
        Self {
            plan,
            u: Arc::new(u),
            block_budget,
            v: vec![D::Value::ZERO; t2 * c * block],
            prod: vec![D::Acc::ZERO; t2 * o * block],
            batched_executions: 0,
        }
    }

    /// The plan geometry.
    #[must_use]
    pub fn plan(&self) -> &WinogradPlan {
        &self.plan
    }

    /// The cached winograd-domain weights in `(t², O, C)` layout.
    #[must_use]
    pub fn transformed_weights(&self) -> &[D::Value] {
        &self.u
    }

    /// How many times the batched entry point
    /// ([`PreparedConv::execute_batch_into`]) has run. The batched inference
    /// layers assert on this to catch a silent fallback to per-image
    /// execution.
    #[must_use]
    pub fn batched_executions(&self) -> u64 {
        self.batched_executions
    }

    /// Execute the convolution into a freshly allocated output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute(&mut self, input: &[D::Value]) -> Result<Vec<D::Acc>, WinogradError> {
        let mut output = vec![D::Acc::ZERO; self.plan.shape.output_len()];
        self.execute_into(input, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution into a caller-provided output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into(
        &mut self,
        input: &[D::Value],
        output: &mut [D::Acc],
    ) -> Result<(), WinogradError> {
        self.execute_hooked(input, output, &mut Hooks::default())
    }

    /// [`PreparedConv::execute_into`] with `hooks` seeing every block.
    pub(crate) fn execute_hooked(
        &mut self,
        input: &[D::Value],
        output: &mut [D::Acc],
        hooks: &mut Hooks<'_, '_>,
    ) -> Result<(), WinogradError> {
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1, hooks);
        Ok(())
    }

    /// Execute the convolution on a batch of `n_images` images into a
    /// freshly allocated `(N, O, H', W')` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute_batch(
        &mut self,
        input: &[D::Value],
        n_images: usize,
    ) -> Result<Vec<D::Acc>, WinogradError> {
        let mut output = vec![D::Acc::ZERO; n_images * self.plan.shape.output_len()];
        self.execute_batch_into(input, n_images, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution on a batch of `n_images` images laid out
    /// contiguously as `(N, C, H, W)`, writing `(N, O, H', W')` to `output`.
    ///
    /// All `N·P` input tiles share the scatter→GEMM→gather schedule: tile
    /// blocks span image boundaries, so the `t²` GEMMs always run with a full
    /// free dimension even when one image yields few tiles, and the cached
    /// weights plus block scheduling are paid once for the whole batch. When
    /// the rayon pool has threads to spare the batch is split into
    /// image-aligned chunks processed in parallel with worker-local scratch.
    /// Results are bit-identical to `n_images` single-image
    /// [`PreparedConv::execute_into`] calls for every chunking and thread
    /// count: each output element's accumulation order is independent of
    /// both (and integer arithmetic is exact anyway).
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_batch_into(
        &mut self,
        input: &[D::Value],
        n_images: usize,
        output: &mut [D::Acc],
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
        self.execute_batch_chunked(input, n_images, output, chunk, &mut Hooks::default());
        Ok(())
    }

    fn validate_batch(
        &self,
        input: &[D::Value],
        n_images: usize,
        output: &[D::Acc],
    ) -> Result<(), WinogradError> {
        let shape = self.plan.shape;
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
        D::debug_check_input(self.plan.variant, input);
        Ok(())
    }

    /// Effective tiles-per-block for a range holding `total_tiles`.
    fn block_for(&self, total_tiles: usize) -> usize {
        self.block_budget.min(total_tiles.max(1))
    }

    /// Run the batch split into chunks of `images_per_chunk` images.
    ///
    /// A single chunk executes in place on the plan's own scratch (no
    /// allocation; with a multi-thread pool each block's t² independent
    /// GEMMs fan out across it) and is the only schedule hooks run on;
    /// multiple chunks fan out across the rayon pool, each worker with its
    /// own scratch, writing disjoint image ranges of `output`.
    pub(crate) fn execute_batch_chunked(
        &mut self,
        input: &[D::Value],
        n_images: usize,
        output: &mut [D::Acc],
        images_per_chunk: usize,
        hooks: &mut Hooks<'_, '_>,
    ) {
        let shape = self.plan.shape;
        let (in_len, out_len) = (shape.input_len(), shape.output_len());
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant.input_tile() * self.plan.variant.input_tile();
        let images_per_chunk = images_per_chunk.clamp(1, n_images.max(1));
        // Degenerate geometries (empty input or output planes) cannot be
        // chunked by slice length; they carry no per-image work anyway.
        if images_per_chunk >= n_images || in_len == 0 || out_len == 0 {
            // One chunk: reuse the plan's scratch, growing it if batching
            // enlarged the effective block beyond the single-image size.
            let bp = self.block_for(n_images * self.plan.num_tiles());
            grow(&mut self.v, t2 * c * bp);
            grow(&mut self.prod, t2 * o * bp);
            // No image chunks to fan out: parallelize across the block's t²
            // independent GEMMs instead (the low-latency single-image path).
            let parallel_gemms =
                rayon::current_num_threads() > 1 && o * c * bp >= PAR_GEMM_MIN_BLOCK;
            Schedule::<D>::new(&self.plan, &self.u, bp, parallel_gemms).run(
                &mut self.v,
                &mut self.prod,
                input,
                n_images,
                output,
                hooks,
            );
            return;
        }
        debug_assert!(hooks.is_empty(), "hooks run the single-chunk schedule");
        use rayon::prelude::*;
        let bp = self.block_for(images_per_chunk * self.plan.num_tiles());
        // Workers are the parallelism here; their GEMMs stay serial.
        let schedule = Schedule::<D>::new(&self.plan, &self.u, bp, false);
        let jobs: Vec<_> = input
            .chunks(images_per_chunk * in_len)
            .zip(output.chunks_mut(images_per_chunk * out_len))
            .collect();
        jobs.into_par_iter()
            .map(|(in_chunk, out_chunk)| {
                let images = in_chunk.len() / in_len.max(1);
                let mut v = vec![D::Value::ZERO; t2 * c * bp];
                let mut prod = vec![D::Acc::ZERO; t2 * o * bp];
                schedule.run(
                    &mut v,
                    &mut prod,
                    in_chunk,
                    images,
                    out_chunk,
                    &mut Hooks::default(),
                );
            })
            .collect::<Vec<()>>();
    }
}

fn grow<T: Lane>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
}

/// One call's read-only schedule: the plan, the repacked weights, the
/// transform matrices `Bᵀ` and `Aᵀ` as lane values and the block size.
struct Schedule<'a, D: Domain> {
    plan: &'a WinogradPlan,
    u: &'a [D::Value],
    bt: [D::Value; MAX_TILE],
    at: [D::Acc; MAX_TILE],
    block: usize,
    parallel_gemms: bool,
}

impl<'a, D: Domain> Schedule<'a, D> {
    fn new(plan: &'a WinogradPlan, u: &'a [D::Value], block: usize, parallel_gemms: bool) -> Self {
        let mut bt = [D::Value::ZERO; MAX_TILE];
        for (lane, &c) in bt.iter_mut().zip(plan.variant.bt()) {
            *lane = D::Value::coef(c);
        }
        let mut at = [D::Acc::ZERO; MAX_TILE];
        for (lane, &c) in at.iter_mut().zip(plan.variant.at()) {
            *lane = D::Acc::coef(c);
        }
        Self {
            plan,
            u,
            bt,
            at,
            block,
            parallel_gemms,
        }
    }

    /// Scatter→GEMM→gather over all `n_images · P` tiles of a contiguous
    /// image range. `v` and `prod` must hold `t²·C·block` and `t²·O·block`
    /// elements. The domain's hooks see each block after each stage.
    fn run(
        &self,
        v: &mut [D::Value],
        prod: &mut [D::Acc],
        input: &[D::Value],
        n_images: usize,
        output: &mut [D::Acc],
        hooks: &mut Hooks<'_, '_>,
    ) {
        let shape = self.plan.shape;
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant.input_tile() * self.plan.variant.input_tile();
        let total_tiles = n_images * self.plan.num_tiles();

        // Tiles are processed in blocks so that one block's scatter buffer,
        // GEMM product and cached weights all stay cache-resident across the
        // three phases. Blocks deliberately span image boundaries: the GEMM
        // free dimension stays full even when one image has few tiles.
        let mut first_tile = 0usize;
        while first_tile < total_tiles {
            let bp = self.block.min(total_tiles - first_tile);
            let block = Block {
                plan: self.plan,
                u: self.u,
                first_tile,
                tiles: bp,
            };
            let (v, prod) = (&mut v[..t2 * c * bp], &mut prod[..t2 * o * bp]);

            // ---- Scatter: V[k][ic][b] = (Bᵀ d B)[k] for every tile/channel
            // of the block. The tile index is innermost so each of the t²
            // destination streams `v[(k·C + ic)·bp ..]` is written
            // contiguously. Tiles run lane-per-tile in groups of SOA_GROUP;
            // the ragged tail is one partial group.
            for ic in 0..c {
                for b0 in (0..bp).step_by(SOA_GROUP) {
                    self.scatter_group(input, &block, ic, b0, (bp - b0).min(SOA_GROUP), v);
                }
            }
            D::scattered(hooks, &block, v);

            // ---- Batched GEMM: one (O×C)·(C×bp) multiply per winograd
            // coordinate, with the batch folded into the free dimension. In
            // parallel mode the t² independent GEMMs fan out across the pool
            // in a single fork/join per block (disjoint `prod` chunks);
            // striping inside each GEMM would pay t² fork/joins plus stitch
            // copies.
            let u = self.u;
            let gemm = |k: usize, v: &[D::Value], prod_k: &mut [D::Acc]| {
                let (u_k, v_k) = (&u[k * o * c..][..o * c], &v[k * c * bp..][..c * bp]);
                D::gemm(u_k, v_k, prod_k, o, c, bp);
            };
            if self.parallel_gemms {
                use rayon::prelude::*;
                let v_ro: &[D::Value] = v;
                let jobs: Vec<_> = prod.chunks_mut(o * bp).enumerate().collect();
                jobs.into_par_iter()
                    .map(|(k, prod_k)| gemm(k, v_ro, prod_k))
                    .collect::<Vec<()>>();
            } else {
                for (k, prod_k) in prod.chunks_mut(o * bp).enumerate() {
                    gemm(k, v, prod_k);
                }
            }
            D::multiplied(hooks, &block, v, prod);

            // ---- Gather: inverse-transform each (oc, tile) fibre. Tile is
            // again innermost so the t² source streams are read sequentially.
            for oc in 0..o {
                for b0 in (0..bp).step_by(SOA_GROUP) {
                    self.gather_group(prod, &block, oc, b0, (bp - b0).min(SOA_GROUP), output);
                }
            }
            D::gathered(hooks, &block, prod, output);

            first_tile += bp;
        }
    }

    /// Input transform `V = Bᵀ d B` for the `lanes ≤ SOA_GROUP` consecutive
    /// tiles from column `b0` of `block`, channel `ic`, one lane per tile:
    /// each transform term is a group-wide vector op (unused lanes carry
    /// zeros), and the t² winograd-domain rows are stored contiguously into
    /// the scatter buffer `v`. A full group copies fixed-size rows, which
    /// compile to inline vector moves rather than `memcpy` calls.
    #[inline]
    fn scatter_group(
        &self,
        input: &[D::Value],
        block: &Block<'_, D>,
        ic: usize,
        b0: usize,
        lanes: usize,
        v: &mut [D::Value],
    ) {
        let shape = self.plan.shape;
        let (c, in_len) = (shape.in_channels, shape.input_len());
        let p = self.plan.num_tiles();
        let t = self.plan.variant.input_tile();
        let mut d = [[D::Value::ZERO; SOA_GROUP]; MAX_TILE];
        let mut tile = [D::Value::ZERO; MAX_TILE];
        #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
        for gi in 0..lanes {
            let g = block.first_tile + b0 + gi;
            let image_input = &input[(g / p) * in_len..(g / p + 1) * in_len];
            self.plan
                .load_tile(image_input, g % p, ic, &mut tile[..t * t]);
            for (pos, &value) in tile[..t * t].iter().enumerate() {
                d[pos][gi] = value;
            }
        }
        let bp = block.tiles;
        sandwich(&self.bt, t, t, &d, |k, acc| {
            let dst = &mut v[(k * c + ic) * bp + b0..];
            if lanes == SOA_GROUP {
                dst[..SOA_GROUP].copy_from_slice(acc);
            } else {
                dst[..lanes].copy_from_slice(&acc[..lanes]);
            }
        });
    }

    /// Output transform `Y = Aᵀ M A` for the `lanes ≤ SOA_GROUP` consecutive
    /// tiles from column `b0` of `block`, out-channel `oc`, one lane per
    /// tile: the reads from the GEMM product `prod` are contiguous (fixed-size
    /// for a full group) and every transform term is a group-wide vector op.
    #[inline]
    fn gather_group(
        &self,
        prod: &[D::Acc],
        block: &Block<'_, D>,
        oc: usize,
        b0: usize,
        lanes: usize,
        output: &mut [D::Acc],
    ) {
        let shape = self.plan.shape;
        let (o, out_len) = (shape.out_channels, shape.output_len());
        let (out_h, out_w) = (shape.geometry.out_h(), shape.geometry.out_w());
        let p = self.plan.num_tiles();
        let t = self.plan.variant.input_tile();
        let m = self.plan.variant.output_tile();
        let bp = block.tiles;
        let mut msoa = [[D::Acc::ZERO; SOA_GROUP]; MAX_TILE];
        for (k, row) in msoa.iter_mut().enumerate().take(t * t) {
            let src = &prod[(k * o + oc) * bp + b0..];
            if lanes == SOA_GROUP {
                row.copy_from_slice(&src[..SOA_GROUP]);
            } else {
                row[..lanes].copy_from_slice(&src[..lanes]);
            }
        }
        let mut ysoa = [[D::Acc::ZERO; SOA_GROUP]; MAX_TILE];
        sandwich(&self.at, m, t, &msoa, |pos, acc| ysoa[pos] = *acc);
        let mut tile_y = [D::Acc::ZERO; MAX_TILE];
        #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
        for gi in 0..lanes {
            let g = block.first_tile + b0 + gi;
            let tile = g % p;
            for (pos, value) in tile_y[..m * m].iter_mut().enumerate() {
                *value = ysoa[pos][gi];
            }
            store_output_tile(
                output,
                (g / p) * out_len,
                &tile_y[..m * m],
                oc,
                tile / self.plan.tiles_x,
                tile % self.plan.tiles_x,
                m,
                out_h,
                out_w,
            );
        }
    }
}

/// The two-sided transform `X ↦ C X Cᵀ` of a `t×t` lane group `x` for a
/// `rows×t` coefficient matrix `coef` (`Bᵀ` in the scatter, `Aᵀ` in the
/// gather), handing each of the `rows×rows` result lane groups to `store`
/// with its row-major position. Accumulates in increasing `k` from zero, one
/// [`lane_axpy`] per term.
#[inline]
fn sandwich<T: Lane>(
    coef: &[T; MAX_TILE],
    rows: usize,
    t: usize,
    x: &[[T; SOA_GROUP]; MAX_TILE],
    mut store: impl FnMut(usize, &[T; SOA_GROUP]),
) {
    // tmp = C x (rows×t): tmp[i][j] = Σ_k C[i][k] · x[k][j].
    let mut tmp = [[T::ZERO; SOA_GROUP]; MAX_TILE];
    for i in 0..rows {
        for j in 0..t {
            let mut acc = [T::ZERO; SOA_GROUP];
            for k in 0..t {
                lane_axpy(&mut acc, coef[i * t + k], &x[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // out = tmp Cᵀ (rows×rows): out[i][j] = Σ_k tmp[i][k] · C[j][k].
    for i in 0..rows {
        for j in 0..rows {
            let mut acc = [T::ZERO; SOA_GROUP];
            for k in 0..t {
                lane_axpy(&mut acc, coef[j * t + k], &tmp[i * t + k]);
            }
            store(i * rows + j, &acc);
        }
    }
}

/// Lane-wise `acc += coef · src`, specialized on the coefficient: winograd
/// transform matrices are dominated by 0/±1 entries, so most terms are a
/// skipped column, a vector add or a vector subtract; only other entries pay
/// a multiply. `1·x`, `(-1)·x` and skipping `0·x` are exact in IEEE f32 (an
/// accumulator that starts at `+0` never becomes `-0`) and in integers, so
/// this equals the plain multiply-accumulate bit for bit.
#[inline]
fn lane_axpy<T: Lane>(acc: &mut [T; SOA_GROUP], coef: T, src: &[T; SOA_GROUP]) {
    if coef == T::ZERO {
        // 0·x: nothing to add.
    } else if coef == T::ONE {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a = a.add(s);
        }
    } else if coef == T::NEG_ONE {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a = a.sub(s);
        }
    } else {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a = a.add(coef.mul(s));
        }
    }
}

/// Write one `m×m` output tile, clipping at the feature-map border — shared
/// by the engine and the replay kernels, so the border-clipping logic cannot
/// desynchronize between them.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn store_output_tile<T: Copy>(
    output: &mut [T],
    out_base: usize,
    tile_y: &[T],
    oc: usize,
    ty: usize,
    tx: usize,
    m: usize,
    out_h: usize,
    out_w: usize,
) {
    if (ty + 1) * m <= out_h && (tx + 1) * m <= out_w {
        // Full interior tile: contiguous row copies.
        for dy in 0..m {
            let dst = out_base + (oc * out_h + ty * m + dy) * out_w + tx * m;
            output[dst..dst + m].copy_from_slice(&tile_y[dy * m..(dy + 1) * m]);
        }
    } else {
        for dy in 0..m {
            let oy = ty * m + dy;
            if oy >= out_h {
                break;
            }
            for dx in 0..m {
                let ox = tx * m + dx;
                if ox >= out_w {
                    break;
                }
                output[out_base + (oc * out_h + oy) * out_w + ox] = tile_y[dy * m + dx];
            }
        }
    }
}

/// Reusable scratch buffers for the quantized winograd kernel.
///
/// The quantized kernel streams every primitive operation through an
/// instrumented [`wgft_faultsim::Arithmetic`] backend, so its loop structure
/// is part of the experiment (the op sequence determines where faults
/// land) — but its scratch allocation is not. This object hoists every
/// buffer out of the per-tile/per-channel loops; it grows on demand and can
/// be reused across layers and images.
#[derive(Debug, Clone, Default)]
pub struct WinogradScratch {
    /// Transformed input tiles for all channels, `(C, t, t)`.
    pub(crate) v_tiles: Vec<i64>,
    /// Raw input tile, `t×t`.
    pub(crate) d: Vec<i64>,
    /// Transform intermediate, `t×t`.
    pub(crate) tmp: Vec<i64>,
    /// Channel-accumulated element-wise products, `t×t`.
    pub(crate) acc: Vec<i64>,
    /// Output-transform intermediate, `m×t`.
    pub(crate) tmp_out: Vec<i64>,
    /// Output tile, `m×m`.
    pub(crate) y: Vec<i64>,
}

impl WinogradScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the buffers for one kernel invocation.
    pub(crate) fn prepare(&mut self, variant: WinogradVariant, in_channels: usize) {
        let t = variant.input_tile();
        let m = variant.output_tile();
        resize_fill(&mut self.v_tiles, in_channels * t * t);
        resize_fill(&mut self.d, t * t);
        resize_fill(&mut self.tmp, t * t);
        resize_fill(&mut self.acc, t * t);
        resize_fill(&mut self.tmp_out, m * t);
        resize_fill(&mut self.y, m * m);
    }
}

fn resize_fill(buf: &mut Vec<i64>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_standard::direct_conv_f32;
    use crate::conv_winograd::{winograd_conv_quantized_with_scratch, WinogradWeights};
    use crate::transform::{F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use wgft_tensor::ConvGeometry;

    fn fixture(
        in_c: usize,
        out_c: usize,
        size: usize,
        pad: usize,
    ) -> (ConvShape, Vec<f32>, Vec<f32>) {
        let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
        let input: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i * 31 % 23) as f32) * 0.17 - 1.9)
            .collect();
        let weights: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i * 17 % 13) as f32) * 0.11 - 0.7)
            .collect();
        (shape, input, weights)
    }

    #[test]
    fn plan_rejects_unsupported_geometry() {
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 2, 1));
        assert!(WinogradPlan::new(&strided, F2X2_3X3).is_err());
        let five = ConvShape::new(1, 1, ConvGeometry::square(8, 5, 1, 1));
        assert!(WinogradPlan::new(&five, F2X2_3X3).is_err());
    }

    #[test]
    fn plan_tile_grid_covers_output() {
        let shape = ConvShape::new(1, 1, ConvGeometry::square(5, 3, 1, 1));
        let plan = WinogradPlan::new(&shape, F2X2_3X3).unwrap();
        // 5x5 output, 2x2 tiles -> 3x3 grid.
        assert_eq!(plan.tiles_y(), 3);
        assert_eq!(plan.tiles_x(), 3);
        assert_eq!(plan.num_tiles(), 9);
        assert_eq!(plan.variant(), F2X2_3X3);
        assert_eq!(plan.shape(), &shape);
    }

    /// The planned scatter-GEMM path must agree with direct convolution over
    /// a grid of shapes: odd sizes, non-tile-multiple outputs, padding 0/1
    /// and every tile variant.
    ///
    /// F(6x6) runs its transforms with integer-scaled matrices whose row
    /// sums reach 72, so winograd-domain intermediates are ~3 decimal orders
    /// larger than the outputs and the f32 round-off budget is accordingly
    /// wider than for the small tiles.
    #[test]
    fn planned_f32_matches_direct_across_shape_grid() {
        for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2)] {
            for &size in &[4usize, 5, 6, 7, 9, 11] {
                for &pad in &[0usize, 1] {
                    let (shape, input, weights) = fixture(in_c, out_c, size, pad);
                    if shape.geometry.out_h() == 0 {
                        continue;
                    }
                    let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
                    for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
                        let tol = match variant {
                            WinogradVariant::F6x6 => 2e-1,
                            _ => 2e-2,
                        };
                        let mut prepared = PreparedConvF32::new(&weights, &shape, variant).unwrap();
                        let out = prepared.execute(&input).unwrap();
                        for (i, (d, w)) in direct.iter().zip(out.iter()).enumerate() {
                            assert!(
                                (d - w).abs() < tol,
                                "{variant} c{in_c}->{out_c} s{size} p{pad} idx {i}: direct {d} vs planned {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Exact integer filter transform `G g Gᵀ` through the generator's
    /// rational `G`: weights divisible by [`WinogradVariant::weight_divisor`]
    /// transform to exactly integral winograd-domain weights. The f32 path
    /// cannot express this for F(6x6) (scaled weights exceed the 24-bit
    /// mantissa), so exact tests go through rationals.
    pub(super) fn exact_winograd_weights(
        weights_q: &[i32],
        o: usize,
        c: usize,
        variant: WinogradVariant,
    ) -> Vec<i32> {
        use wgft_tile::Rational;
        let transforms = variant.tile_spec().generate();
        let g = transforms.g();
        let t = variant.input_tile();
        let mut out = vec![0i32; o * c * t * t];
        for filt in 0..o * c {
            let w = &weights_q[filt * 9..(filt + 1) * 9];
            for i in 0..t {
                for j in 0..t {
                    let mut acc = Rational::ZERO;
                    for a in 0..3 {
                        for b in 0..3 {
                            acc = acc
                                + g[i * 3 + a]
                                    * Rational::integer(i64::from(w[a * 3 + b]))
                                    * g[j * 3 + b];
                        }
                    }
                    let exact = acc
                        .as_integer()
                        .expect("divisor-multiple weights transform exactly");
                    out[filt * t * t + i * t + j] =
                        i32::try_from(exact).expect("winograd weight fits i32");
                }
            }
        }
        out
    }

    /// Planned quantized winograd must reproduce direct quantized convolution
    /// bit-for-bit across the same shape grid, for every tile variant.
    ///
    /// Exactness requires winograd-domain weights that are exactly integral,
    /// i.e. raw weights divisible by the per-variant
    /// [`WinogradVariant::weight_divisor`] (4 / 576 / 360²).
    #[test]
    fn planned_quantized_matches_direct_across_shape_grid() {
        use crate::conv_standard::direct_conv_quantized;
        use wgft_faultsim::ExactArithmetic;

        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            let scale = i32::try_from(variant.weight_divisor()).unwrap();
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3)] {
                for &size in &[4usize, 5, 7, 8] {
                    for &pad in &[0usize, 1] {
                        let shape =
                            ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
                        if shape.geometry.out_h() == 0 {
                            continue;
                        }
                        let input_q: Vec<i32> = (0..shape.input_len())
                            .map(|i| ((i * 7 % 23) as i32) - 11)
                            .collect();
                        let weights_q: Vec<i32> = (0..shape.weight_len())
                            .map(|i| scale.saturating_mul(((i * 5 % 9) as i32) - 4))
                            .collect();

                        let mut exact = ExactArithmetic::new();
                        let direct =
                            direct_conv_quantized(&mut exact, 0, &input_q, &weights_q, &shape)
                                .unwrap();

                        let u_q = exact_winograd_weights(&weights_q, out_c, in_c, variant);
                        if variant != WinogradVariant::F6x6 {
                            // The f32 transform stays exact for the small
                            // divisors; pin the two paths to each other.
                            let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
                            let u =
                                transform_weights_f32(&weights_f, out_c, in_c, variant).unwrap();
                            for (uf, &uq) in u.iter().zip(u_q.iter()) {
                                assert!(
                                    (uf - uq as f32).abs() < 1e-3,
                                    "{variant}: f32 transform diverged ({uf} vs {uq})"
                                );
                            }
                        }
                        let wino = WinogradWeights::new(variant, out_c, in_c, u_q).unwrap();
                        let mut scratch = WinogradScratch::new();
                        let mut exact2 = ExactArithmetic::new();
                        let out = winograd_conv_quantized_with_scratch(
                            &mut exact2,
                            0,
                            &input_q,
                            &wino,
                            &shape,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(
                            direct, out,
                            "{variant} c{in_c}->{out_c} s{size} p{pad}: quantized mismatch"
                        );

                        // Scratch reuse across images must not leak state.
                        let mut exact3 = ExactArithmetic::new();
                        let again = winograd_conv_quantized_with_scratch(
                            &mut exact3,
                            0,
                            &input_q,
                            &wino,
                            &shape,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(out, again);
                    }
                }
            }
        }
    }

    /// Prepared (pre-quantized) winograd weights whose channel counts
    /// disagree with the layer shape are refused before the reused scratch
    /// is touched.
    #[test]
    fn prepared_quantized_validates_channel_mismatch() {
        use wgft_faultsim::{Arithmetic, ExactArithmetic};
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let weights = WinogradWeights::new(F2X2_3X3, 1, 1, vec![0; 16]).unwrap();
        let input = vec![0i32; shape.input_len()];
        let mut scratch = WinogradScratch::new();
        let mut arith = ExactArithmetic::new();
        assert!(winograd_conv_quantized_with_scratch(
            &mut arith,
            0,
            &input,
            &weights,
            &shape,
            &mut scratch
        )
        .is_err());
        assert_eq!(arith.counters().total().total(), 0, "no op ran");
    }

    #[test]
    fn prepared_conv_is_reusable_across_images() {
        let (shape, input, weights) = fixture(2, 2, 8, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let first = prepared.execute(&input).unwrap();
        let other: Vec<f32> = input.iter().map(|x| x * 0.5 + 0.1).collect();
        let _ = prepared.execute(&other).unwrap();
        let again = prepared.execute(&input).unwrap();
        assert_eq!(
            first, again,
            "scratch reuse must not leak state between images"
        );
    }

    /// Build a batch of `n` distinct images for a shape.
    fn batch_input(shape: &ConvShape, n: usize) -> Vec<f32> {
        (0..n * shape.input_len())
            .map(|i| ((i * 29 % 31) as f32) * 0.23 - 2.1)
            .collect()
    }

    /// The batched engine must be bit-identical to N independent
    /// single-image executions across the shape/padding/variant grid,
    /// including ragged sizes where tile blocks straddle image boundaries.
    #[test]
    fn batched_execution_matches_per_image_bit_for_bit() {
        for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2)] {
            for &size in &[4usize, 5, 7, 9] {
                for &pad in &[0usize, 1] {
                    let (shape, _, weights) = fixture(in_c, out_c, size, pad);
                    if shape.geometry.out_h() == 0 {
                        continue;
                    }
                    for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
                        for n in [1usize, 2, 3, 5] {
                            let batch = batch_input(&shape, n);
                            let mut prepared =
                                PreparedConvF32::new(&weights, &shape, variant).unwrap();
                            let batched = prepared.execute_batch(&batch, n).unwrap();
                            let mut single =
                                PreparedConvF32::new(&weights, &shape, variant).unwrap();
                            for img in 0..n {
                                let out = single
                                    .execute(&batch[img * shape.input_len()..][..shape.input_len()])
                                    .unwrap();
                                assert_eq!(
                                    out,
                                    &batched[img * shape.output_len()..][..shape.output_len()],
                                    "{variant} c{in_c}->{out_c} s{size} p{pad} n{n} image {img}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every image-chunking of a batch — including ragged tail chunks (N not
    /// a multiple of the chunk size) — must produce identical bits, since
    /// chunking is exactly what the parallel path does.
    #[test]
    fn batch_chunking_is_bit_identical_for_every_chunk_size() {
        let (shape, _, weights) = fixture(2, 3, 9, 1);
        let n = 5usize;
        let batch = batch_input(&shape, n);
        let mut reference = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let expected = reference.execute_batch(&batch, n).unwrap();
        for chunk in 1..=n + 1 {
            let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
            let mut out = vec![f32::NAN; n * shape.output_len()];
            prepared.execute_batch_chunked(&batch, n, &mut out, chunk, &mut Hooks::default());
            assert_eq!(expected, out, "chunk size {chunk}");
        }
    }

    #[test]
    fn batched_executions_counter_tracks_batch_entry_point() {
        let (shape, input, weights) = fixture(1, 1, 6, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        assert_eq!(prepared.batched_executions(), 0);
        let _ = prepared.execute(&input).unwrap();
        assert_eq!(
            prepared.batched_executions(),
            0,
            "single-image execute is not the batched entry point"
        );
        let batch = batch_input(&shape, 3);
        let _ = prepared.execute_batch(&batch, 3).unwrap();
        assert_eq!(prepared.batched_executions(), 1);
    }

    #[test]
    fn batch_validates_lengths_and_accepts_empty() {
        let (shape, _, weights) = fixture(1, 2, 5, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let batch = batch_input(&shape, 2);
        // Wrong image count for the buffer length.
        assert!(prepared.execute_batch(&batch, 3).is_err());
        let mut short = vec![0.0f32; 2 * shape.output_len() - 1];
        assert!(prepared.execute_batch_into(&batch, 2, &mut short).is_err());
        // Zero images is a no-op, not an error.
        assert!(prepared.execute_batch(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn execute_into_validates_buffer_lengths() {
        let (shape, input, weights) = fixture(1, 1, 4, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let mut short = vec![0.0f32; shape.output_len() - 1];
        assert!(prepared.execute_into(&input, &mut short).is_err());
        assert!(prepared.execute(&input[..input.len() - 1]).is_err());
    }

    #[test]
    fn transformed_weight_layout_is_coordinate_major() {
        let (shape, _, weights) = fixture(2, 3, 4, 1);
        let prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let u_oc = transform_weights_f32(&weights, 3, 2, F2X2_3X3).unwrap();
        let t2 = 16;
        // u[(k, oc, ic)] must equal u_oc[(oc, ic, k)].
        for k in 0..t2 {
            for oc in 0..3 {
                for ic in 0..2 {
                    assert_eq!(
                        prepared.transformed_weights()[(k * 3 + oc) * 2 + ic],
                        u_oc[(oc * 2 + ic) * t2 + k]
                    );
                }
            }
        }
    }
}
