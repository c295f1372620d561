//! Fault-site replay kernels: apply one layer's enumerated strikes to the
//! fast path's exact accumulators.
//!
//! The instrumented kernels ([`crate::direct_conv_quantized`],
//! [`crate::winograd_conv_quantized_with_scratch`]) issue a fixed operation
//! sequence. [`DirectOpMap`] and [`WinogradOpMap`] describe that sequence —
//! its length, the type of every operation and where each one sits in the
//! kernel's loop order — so a [`wgft_faultsim::StrikeEnumerator`] can draw
//! the layer's strikes without running it. The replay kernels then start
//! from the exact values the fast engines computed and recompute only what
//! each struck operation touches, applying the flips in the instrumented
//! order.
//!
//! **Direct convolution** ([`DirectReplay`]). A struck output pixel is one
//! accumulation chain over its non-padding taps, replayed by
//! [`wgft_faultsim::MacChainReplay`] from the pixel's exact accumulator: a
//! struck `mul` moves the chain by an O(1) delta, and a struck `add` takes
//! the chain's exact prefix as one [`wgft_tensor::dot_i32`] over the
//! contiguous weight row and the pixel's patch row, from whichever end of
//! the chain is nearer. Patch rows are pixel-major im2col columns (zero on
//! padding), built once per struck pixel per layer and shared by all its
//! out-channels.
//!
//! **Winograd convolution** ([`PreparedConvQuantizedFast::execute_replay_into`]).
//! The patch runs inside the engine's scatter→GEMM→gather block loop, on
//! the exact `V = Bᵀ d B` and GEMM products `M` the block just left in its
//! scratch, before the gather turns `M` into outputs:
//!
//! * input-transform strikes: the struck channel's `V` is recomputed under
//!   its strikes, and the struck channels' `ΔV` is applied to every
//!   out-channel's `M` of the tile in one pass (`ΔM = U ΔV`);
//! * GEMM strikes: each struck chain (one winograd coordinate of one
//!   (tile, out-channel) block) is replayed like a direct chain over
//!   `V + ΔV`, its exact value read from `M`;
//! * output-transform strikes: after the gather, the block's output
//!   transform reruns under its strikes on the patched `M`.
//!
//! Everything else is exact linear algebra, so the gather's own `Aᵀ M A`
//! carries every patch to the outputs. All replay arithmetic wraps in two's
//! complement like the instrumented datapath, so results are bit-identical
//! to the instrumented kernel on a [`wgft_faultsim::FaultyArithmetic`] with
//! the same seed even where dense faults pass `i64` — tested below and at
//! network level in `wgft-nn`.
//!
//! [`PreparedConvQuantizedFast::execute_replay_into`]: crate::PreparedConvQuantizedFast::execute_replay_into

use crate::conv_standard::ConvShape;
use crate::conv_winograd::{integer_transform, MatrixSide};
use crate::plan::{store_output_tile, WinogradPlan, MAX_TILE};
use crate::transform::WinogradVariant;
use crate::WinogradError;
use std::ops::Range;
use wgft_faultsim::{
    split_strikes, Arithmetic, MacChain, MacChainReplay, MacOps, OpCounters, OpSequence, OpType,
    Strike, StrikeCursor,
};
use wgft_tensor::dot_i32;

/// Records the operation types a kernel issues (builds the transform maps).
#[derive(Default)]
struct OpRecorder {
    ops: Vec<OpType>,
    counters: OpCounters,
}

impl Arithmetic for OpRecorder {
    fn begin_layer(&mut self, _layer: usize) {}
    fn mul(&mut self, a: i64, b: i64) -> i64 {
        self.ops.push(OpType::Mul);
        a * b
    }
    fn add(&mut self, a: i64, b: i64) -> i64 {
        self.ops.push(OpType::Add);
        a + b
    }
    fn counters(&self) -> &OpCounters {
        &self.counters
    }
    fn reset_counters(&mut self) {}
}

/// The operation sequence of [`crate::direct_conv_quantized`]: for each
/// output pixel (channel-major, then row, then column) one `mul`, `add`
/// pair per tap that does not fall on padding, taps in (in-channel, ky, kx)
/// order.
///
/// Unlike [`crate::ConvOpModel::count`], which prices interior pixels, this
/// counts exactly the taps the kernel executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectOpMap {
    shape: ConvShape,
    /// Non-padding tap window of each output pixel (row-major).
    windows: Vec<TapWindow>,
    /// Per output pixel: one past its chain's last operation, counted from
    /// the first operation of its out-channel.
    ends: Vec<u64>,
}

/// The non-padding taps of one output pixel: kernel rows
/// `ky_lo..ky_lo + rows` and columns `kx_lo..kx_lo + cols` of every
/// in-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapWindow {
    ky_lo: u32,
    kx_lo: u32,
    rows: u32,
    cols: u32,
}

/// Where a struck direct-convolution operation sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirectChain {
    oc: usize,
    /// Index of the output pixel within its out-channel's plane.
    spatial: usize,
    /// Layer op index of the chain's first `mul`.
    first_op: u64,
    /// One past the chain's last op.
    end_op: u64,
}

/// The kernel offsets `lo..lo + count` that land inside `0..size` for the
/// output position `pos`.
fn valid_taps(pos: usize, stride: usize, pad: usize, kernel: usize, size: usize) -> (u32, u32) {
    let origin = (pos * stride) as isize - pad as isize;
    let lo = (-origin).clamp(0, kernel as isize);
    let hi = (size as isize - origin).clamp(lo, kernel as isize);
    (lo as u32, (hi - lo) as u32)
}

impl DirectOpMap {
    /// The map of a direct convolution of this shape.
    #[must_use]
    pub fn new(shape: &ConvShape) -> Self {
        let g = &shape.geometry;
        let mut windows = Vec::with_capacity(g.out_pixels());
        let mut ends = Vec::with_capacity(g.out_pixels());
        let mut end = 0u64;
        for oy in 0..g.out_h() {
            let (ky_lo, rows) = valid_taps(oy, g.stride, g.padding, g.k_h, g.in_h);
            for ox in 0..g.out_w() {
                let (kx_lo, cols) = valid_taps(ox, g.stride, g.padding, g.k_w, g.in_w);
                windows.push(TapWindow {
                    ky_lo,
                    kx_lo,
                    rows,
                    cols,
                });
                end += 2 * shape.in_channels as u64 * u64::from(rows * cols);
                ends.push(end);
            }
        }
        Self {
            shape: *shape,
            windows,
            ends,
        }
    }

    /// Operations per out-channel.
    fn channel_ops(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The chain holding layer op `op`, which lies at or after the chain
    /// `after` (strikes come sorted, so the next struck chain is usually in
    /// the same out-channel a few pixels on).
    fn chain(&self, op: u64, after: Option<DirectChain>) -> DirectChain {
        let per_channel = self.channel_ops();
        let (oc, from) = match after {
            Some(prev) if op < (prev.oc as u64 + 1) * per_channel => (prev.oc as u64, prev.spatial),
            _ => (op / per_channel, 0),
        };
        let base = oc * per_channel;
        let r = op - base;
        let ends = &self.ends[from..];
        let near = ends.len().min(4);
        let spatial = from
            + match ends[..near].iter().position(|&end| end > r) {
                Some(step) => step,
                None => near + ends[near..].partition_point(|&end| end <= r),
            };
        let start = spatial.checked_sub(1).map_or(0, |p| self.ends[p]);
        DirectChain {
            oc: oc as usize,
            spatial,
            first_op: base + start,
            end_op: base + self.ends[spatial],
        }
    }
}

impl OpSequence for DirectOpMap {
    fn op_count(&self) -> u64 {
        self.shape.out_channels as u64 * self.channel_ops()
    }

    fn op_type(&self, op: u64) -> OpType {
        MacOps(0).op_type(op)
    }
}

/// One struck pixel's accumulation chain over its weight row and patch row
/// (both `C·k_h·k_w` long, in im2col order; the patch row is zero on
/// padding, so sums may run over padding taps unchanged).
struct PixelChain<'a> {
    weights: &'a [i32],
    patch: &'a [i32],
    window: TapWindow,
    k_h: u32,
    k_w: u32,
    pairs: usize,
}

impl PixelChain<'_> {
    /// Index in the weight/patch rows of pair `pair` (`pairs` maps past
    /// the end).
    fn column(&self, pair: usize) -> usize {
        let w = &self.window;
        if pair == self.pairs {
            return self.weights.len();
        }
        if w.rows == self.k_h && w.cols == self.k_w {
            // An interior pixel: every tap is a pair.
            return pair;
        }
        let pair = pair as u32;
        let per_channel = w.rows * w.cols;
        let (ic, r) = (pair / per_channel, pair % per_channel);
        ((ic * self.k_h + w.ky_lo + r / w.cols) * self.k_w + w.kx_lo + r % w.cols) as usize
    }
}

// wgft-audit: consensus-critical -- exact chain sums of replayed campaign cells
impl MacChain for PixelChain<'_> {
    fn pairs(&self) -> usize {
        self.pairs
    }

    fn operands(&self, pair: usize) -> (i64, i64) {
        let column = self.column(pair);
        (
            i64::from(self.patch[column]),
            i64::from(self.weights[column]),
        )
    }

    fn dot(&self, pairs: Range<usize>) -> i64 {
        let columns = self.column(pairs.start)..self.column(pairs.end);
        dot_i32(&self.weights[columns.clone()], &self.patch[columns])
    }
}

/// Direct-convolution replay with its scratch: the pixel-major patch rows
/// of the struck pixels, reused across layers and images.
#[derive(Debug, Clone, Default)]
pub struct DirectReplay {
    /// `(out pixels, C·k_h·k_w)`; row `p` is valid once `built[p]`.
    rows: Vec<i32>,
    built: Vec<bool>,
}

// wgft-audit: consensus-critical -- patches the accumulators of replayed direct-convolution cells
impl DirectReplay {
    /// Apply one direct-convolution layer's strikes (sorted by op index, as
    /// a [`wgft_faultsim::StrikeEnumerator`] emits them for `map`) to
    /// `output`, which must hold the layer's exact accumulators. Each
    /// struck pixel's chain is replayed from its exact accumulator.
    pub fn replay(
        &mut self,
        map: &DirectOpMap,
        input: &[i32],
        weights: &[i32],
        strikes: &[Strike],
        output: &mut [i64],
    ) {
        let shape = &map.shape;
        let g = &shape.geometry;
        let (k_h, k_w) = (g.k_h, g.k_w);
        let kdim = shape.in_channels * k_h * k_w;
        let pixels = g.out_pixels();
        self.built.clear();
        self.built.resize(pixels, false);
        if self.rows.len() < pixels * kdim {
            self.rows.resize(pixels * kdim, 0);
        }
        let mut rest = strikes;
        let mut last = None;
        while let Some(first) = rest.first() {
            let chain = map.chain(first.op, last);
            last = Some(chain);
            let (chain_strikes, tail) = split_strikes(rest, chain.end_op);
            rest = tail;
            let window = map.windows[chain.spatial];
            let patch = &mut self.rows[chain.spatial * kdim..(chain.spatial + 1) * kdim];
            if !self.built[chain.spatial] {
                let (oy, ox) = (chain.spatial / g.out_w(), chain.spatial % g.out_w());
                let (ky_lo, kx_lo) = (window.ky_lo as usize, window.kx_lo as usize);
                let (ky_hi, kx_hi) = (ky_lo + window.rows as usize, kx_lo + window.cols as usize);
                if (ky_hi - ky_lo, kx_hi - kx_lo) != (k_h, k_w) {
                    patch.fill(0);
                }
                let iy0 = oy * g.stride + ky_lo - g.padding;
                let ix0 = ox * g.stride + kx_lo - g.padding;
                for ic in 0..shape.in_channels {
                    for ky in ky_lo..ky_hi {
                        let irow = (ic * g.in_h + iy0 + ky - ky_lo) * g.in_w + ix0;
                        let at = (ic * k_h + ky) * k_w;
                        for (slot, &x) in patch[at + kx_lo..at + kx_hi]
                            .iter_mut()
                            .zip(&input[irow..irow + kx_hi - kx_lo])
                        {
                            *slot = x;
                        }
                    }
                }
                self.built[chain.spatial] = true;
            }
            let pixel = PixelChain {
                weights: &weights[chain.oc * kdim..(chain.oc + 1) * kdim],
                patch,
                window,
                k_h: k_h as u32,
                k_w: k_w as u32,
                pairs: shape.in_channels * (window.rows * window.cols) as usize,
            };
            let at = chain.oc * pixels + chain.spatial;
            output[at] =
                MacChainReplay::new(chain.first_op, 2).replay(&pixel, chain_strikes, output[at]);
        }
    }
}

/// Operation types of a two-sided transform `C X Cᵀ` (`C` is `rows × t`) as
/// the instrumented kernel issues it: `C X`, then `(C X) Cᵀ`.
fn two_sided_ops(coef: &[i32], rows: usize, t: usize) -> Vec<OpType> {
    let zeros = vec![0i64; t * t];
    let mut half = vec![0i64; rows * t];
    let mut out = vec![0i64; rows * rows];
    let mut recorder = OpRecorder::default();
    integer_transform(
        &mut recorder,
        coef,
        &zeros,
        &mut half,
        rows,
        t,
        t,
        MatrixSide::Left,
    );
    integer_transform(
        &mut recorder,
        coef,
        &half,
        &mut out,
        rows,
        t,
        rows,
        MatrixSide::RightTransposed,
    );
    recorder.ops
}

/// The operation sequence of [`crate::winograd_conv_quantized_with_scratch`]:
/// per tile (row-major), the input transform `Bᵀ d B` of every in-channel,
/// then per out-channel the element-wise products accumulated over
/// in-channels (one `mul`, `add` pair per in-channel and winograd
/// coordinate, in-channel outer) followed by the output transform `Aᵀ M A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinogradOpMap {
    shape: ConvShape,
    variant: WinogradVariant,
    /// Operation types of one channel's input transform.
    input_ops: Vec<OpType>,
    /// Operation types of one block's output transform.
    output_ops: Vec<OpType>,
}

impl WinogradOpMap {
    /// The map of a winograd convolution of this shape and tile variant.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3 or strided
    /// convolutions.
    pub fn new(shape: &ConvShape, variant: WinogradVariant) -> Result<Self, WinogradError> {
        let g = &shape.geometry;
        if !g.is_unit_stride_3x3() {
            return Err(WinogradError::UnsupportedGeometry {
                kernel: g.k_h,
                stride: g.stride,
            });
        }
        let t = variant.input_tile();
        Ok(Self {
            shape: *shape,
            variant,
            input_ops: two_sided_ops(variant.bt(), t, t),
            output_ops: two_sided_ops(variant.at(), variant.output_tile(), t),
        })
    }

    /// Whether this is the map of `plan`'s shape and tile variant.
    pub(crate) fn describes(&self, plan: &WinogradPlan) -> bool {
        self.shape == *plan.shape() && self.variant == plan.variant()
    }

    fn t2(&self) -> u64 {
        let t = self.variant.input_tile() as u64;
        t * t
    }

    /// Ops of one in-channel's input transform.
    fn input_len(&self) -> u64 {
        self.input_ops.len() as u64
    }

    /// Ops of all in-channels' input transforms of one tile.
    fn inputs_len(&self) -> u64 {
        self.shape.in_channels as u64 * self.input_len()
    }

    /// Ops of one out-channel's element-wise products.
    fn gemm_len(&self) -> u64 {
        2 * self.t2() * self.shape.in_channels as u64
    }

    /// Ops of one (tile, out-channel) block: products plus output transform.
    fn block_len(&self) -> u64 {
        self.gemm_len() + self.output_ops.len() as u64
    }

    fn tile_len(&self) -> u64 {
        self.inputs_len() + self.shape.out_channels as u64 * self.block_len()
    }

    fn tiles(&self) -> (usize, usize) {
        let m = self.variant.output_tile();
        let g = &self.shape.geometry;
        (g.out_h().div_ceil(m), g.out_w().div_ceil(m))
    }
}

impl OpSequence for WinogradOpMap {
    fn op_count(&self) -> u64 {
        let (tiles_y, tiles_x) = self.tiles();
        (tiles_y * tiles_x) as u64 * self.tile_len()
    }

    fn op_type(&self, op: u64) -> OpType {
        let r = op % self.tile_len();
        if r < self.inputs_len() {
            return self.input_ops[(r % self.input_len()) as usize];
        }
        let s = (r - self.inputs_len()) % self.block_len();
        if s < self.gemm_len() {
            MacOps(0).op_type(s)
        } else {
            self.output_ops[(s - self.gemm_len()) as usize]
        }
    }
}

/// One struck winograd GEMM chain: coordinate `k` of one (tile,
/// out-channel) block, `Σ_ic U[k][oc][ic] · V'[k][ic]` over the tile's
/// (possibly struck) transformed inputs `V' = V + ΔV`, read in place from
/// the engine's block scratch (`V[k][ic]` at `v[ic · stride]`).
struct GemmChain<'a> {
    u: &'a [i32],
    v: &'a [i32],
    stride: usize,
    /// `ΔV[k]` when some in-channel's transform of the tile was struck.
    dv: Option<&'a [i64]>,
}

impl GemmChain<'_> {
    fn v(&self, ic: usize) -> i64 {
        let exact = i64::from(self.v[ic * self.stride]);
        self.dv.map_or(exact, |dv| exact.wrapping_add(dv[ic]))
    }
}

// wgft-audit: consensus-critical -- exact chain sums of replayed campaign cells
impl MacChain for GemmChain<'_> {
    fn pairs(&self) -> usize {
        self.u.len()
    }

    fn operands(&self, pair: usize) -> (i64, i64) {
        (i64::from(self.u[pair]), self.v(pair))
    }

    fn dot(&self, pairs: Range<usize>) -> i64 {
        pairs.fold(0i64, |acc, ic| {
            acc.wrapping_add(i64::from(self.u[ic]).wrapping_mul(self.v(ic)))
        })
    }
}

/// An output transform to rerun under its strikes once the gather has
/// written the block's exact outputs.
struct StruckOutput<'a> {
    /// Tile index in the layer and column in the block scratch.
    tile: usize,
    column: usize,
    oc: usize,
    /// Layer op index of the transform's first operation.
    first_op: u64,
    strikes: &'a [Strike],
}

/// Patches one image's winograd layer into [`crate::PreparedConvQuantizedFast`]'s
/// block scratch, block by block as the engine produces it (see the module
/// docs).
pub(crate) struct TileReplay<'a> {
    map: &'a WinogradOpMap,
    input: &'a [i32],
    /// Strikes of the blocks not yet patched.
    rest: &'a [Strike],
    /// The current block's struck output transforms.
    outputs: Vec<StruckOutput<'a>>,
    /// `V' - V` of the current tile's struck in-channels, `(t², C)`; zero
    /// elsewhere.
    dv: Vec<i64>,
    dv_channels: Vec<usize>,
    /// Coordinates `k` where some struck in-channel's `V' - V` is nonzero.
    dv_coords: Vec<usize>,
    /// One block's GEMM strikes keyed by chain, and one chain's strikes.
    keyed: Vec<(usize, Strike)>,
    group: Vec<Strike>,
}

// wgft-audit: consensus-critical -- patches the accumulators of replayed winograd cells
impl<'a> TileReplay<'a> {
    pub(crate) fn new(map: &'a WinogradOpMap, input: &'a [i32], strikes: &'a [Strike]) -> Self {
        let t2 = map.t2() as usize;
        let c = map.shape.in_channels;
        Self {
            map,
            input,
            rest: strikes,
            outputs: Vec::new(),
            dv: vec![0; t2 * c],
            dv_channels: Vec::new(),
            dv_coords: Vec::new(),
            keyed: Vec::new(),
            group: Vec::new(),
        }
    }

    /// Patch the GEMM products `prod` (`(t², O, bp)`) of tiles
    /// `first_tile..first_tile + bp`, whose exact transformed inputs are in
    /// `v` (`(t², C, bp)`); `u` is the engine's `(t², O, C)` weights. Queues
    /// the block's struck output transforms for [`TileReplay::outputs`].
    pub(crate) fn products(
        &mut self,
        plan: &WinogradPlan,
        u: &[i32],
        v: &[i32],
        prod: &mut [i64],
        first_tile: usize,
        bp: usize,
    ) {
        let tile_len = self.map.tile_len();
        let (block, rest) = split_strikes(self.rest, (first_tile + bp) as u64 * tile_len);
        self.rest = rest;
        self.outputs.clear();
        let mut strikes = block;
        while let Some(first) = strikes.first() {
            let tile = (first.op / tile_len) as usize;
            let (tile_strikes, tail) = split_strikes(strikes, (tile as u64 + 1) * tile_len);
            strikes = tail;
            self.tile(plan, u, v, prod, bp, tile, tile - first_tile, tile_strikes);
        }
    }

    /// Patch one struck tile, column `column` of the block scratch.
    #[allow(clippy::too_many_arguments)]
    fn tile(
        &mut self,
        plan: &WinogradPlan,
        u: &[i32],
        v: &[i32],
        prod: &mut [i64],
        bp: usize,
        tile: usize,
        column: usize,
        strikes: &'a [Strike],
    ) {
        let map = self.map;
        let (o, c) = (map.shape.out_channels, map.shape.in_channels);
        let t2 = map.t2() as usize;
        let inputs_end = tile as u64 * map.tile_len() + map.inputs_len();
        let (input_strikes, mut rest) = split_strikes(strikes, inputs_end);
        self.input_deltas(
            plan,
            v,
            bp,
            tile,
            column,
            inputs_end - map.inputs_len(),
            input_strikes,
        );
        // ΔM = U ΔV for every out-channel of the tile at once.
        for &k in &self.dv_coords {
            let dv = &self.dv[k * c..(k + 1) * c];
            for oc in 0..o {
                let row = &u[(k * o + oc) * c..(k * o + oc + 1) * c];
                let delta = self.dv_channels.iter().fold(0i64, |acc, &ic| {
                    acc.wrapping_add(i64::from(row[ic]).wrapping_mul(dv[ic]))
                });
                let m = &mut prod[(k * o + oc) * bp + column];
                *m = m.wrapping_add(delta);
            }
        }
        let (block_len, gemm_len) = (map.block_len(), map.gemm_len());
        while let Some(first) = rest.first() {
            let oc = ((first.op - inputs_end) / block_len) as usize;
            let block_base = inputs_end + oc as u64 * block_len;
            let (block, tail) = split_strikes(rest, block_base + block_len);
            rest = tail;
            let (gemm, output) = split_strikes(block, block_base + gemm_len);
            if !gemm.is_empty() {
                self.chains(u, v, prod, bp, column, oc, block_base, gemm);
            }
            if !output.is_empty() {
                self.outputs.push(StruckOutput {
                    tile,
                    column,
                    oc,
                    first_op: block_base + gemm_len,
                    strikes: output,
                });
            }
        }
        for &ic in &self.dv_channels {
            for k in 0..t2 {
                self.dv[k * c + ic] = 0;
            }
        }
        self.dv_channels.clear();
        self.dv_coords.clear();
    }

    /// Recompute each struck in-channel's `V = Bᵀ d B` under its strikes
    /// and keep the difference from the exact `V` in the block scratch.
    #[allow(clippy::too_many_arguments)]
    fn input_deltas(
        &mut self,
        plan: &WinogradPlan,
        v: &[i32],
        bp: usize,
        tile: usize,
        column: usize,
        base: u64,
        mut strikes: &[Strike],
    ) {
        let map = self.map;
        let c = map.shape.in_channels;
        let t = map.variant.input_tile();
        let t2 = t * t;
        let bt = map.variant.bt();
        let mut d32 = [0i32; MAX_TILE];
        let mut d = [0i64; MAX_TILE];
        let mut tmp = [0i64; MAX_TILE];
        let mut struck = [0i64; MAX_TILE];
        while let Some(first) = strikes.first() {
            let ic = ((first.op - base) / map.input_len()) as usize;
            let first_op = base + ic as u64 * map.input_len();
            let (channel_strikes, tail) = split_strikes(strikes, first_op + map.input_len());
            strikes = tail;
            plan.load_tile(self.input, tile, ic, &mut d32[..t2]);
            for (wide, &narrow) in d.iter_mut().zip(&d32[..t2]) {
                *wide = i64::from(narrow);
            }
            let mut cursor = StrikeCursor::new(channel_strikes, first_op);
            integer_transform(
                &mut cursor,
                bt,
                &d[..t2],
                &mut tmp,
                t,
                t,
                t,
                MatrixSide::Left,
            );
            integer_transform(
                &mut cursor,
                bt,
                &tmp,
                &mut struck,
                t,
                t,
                t,
                MatrixSide::RightTransposed,
            );
            debug_assert!(cursor.remaining().is_empty());
            let mut moved = false;
            for (k, &value) in struck[..t2].iter().enumerate() {
                let delta = value.wrapping_sub(i64::from(v[(k * c + ic) * bp + column]));
                self.dv[k * c + ic] = delta;
                moved |= delta != 0;
            }
            if moved {
                self.dv_channels.push(ic);
            }
        }
        for k in 0..t2 {
            if self.dv_channels.iter().any(|&ic| self.dv[k * c + ic] != 0) {
                self.dv_coords.push(k);
            }
        }
    }

    /// Replay the struck GEMM chains of out-channel `oc`'s block, writing
    /// each chain's struck value over its product in `prod`.
    #[allow(clippy::too_many_arguments)]
    fn chains(
        &mut self,
        u: &[i32],
        v: &[i32],
        prod: &mut [i64],
        bp: usize,
        column: usize,
        oc: usize,
        block_base: u64,
        strikes: &[Strike],
    ) {
        let map = self.map;
        let (o, c) = (map.shape.out_channels, map.shape.in_channels);
        let t2 = map.t2();
        // Chain `k` issues its in-channel `ic` pair at `block_base + ic·2t² + 2k`.
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        keyed.extend(
            strikes
                .iter()
                .map(|s| (((s.op - block_base) % (2 * t2) / 2) as usize, *s)),
        );
        keyed.sort_unstable_by_key(|&(k, s)| (k, s.op));
        let struck_inputs = !self.dv_channels.is_empty();
        for chain in keyed.chunk_by(|a, b| a.0 == b.0) {
            let k = chain[0].0;
            self.group.clear();
            self.group.extend(chain.iter().map(|&(_, s)| s));
            let gemm = GemmChain {
                u: &u[(k * o + oc) * c..(k * o + oc + 1) * c],
                v: &v[k * c * bp + column..],
                stride: bp,
                dv: struck_inputs.then(|| &self.dv[k * c..(k + 1) * c]),
            };
            let m = &mut prod[(k * o + oc) * bp + column];
            *m = MacChainReplay::new(block_base + 2 * k as u64, 2 * t2).replay(
                &gemm,
                &self.group,
                *m,
            );
        }
        self.keyed = keyed;
    }

    /// Rerun the current block's struck output transforms on the patched
    /// products, over the exact outputs the gather just wrote.
    pub(crate) fn outputs(
        &mut self,
        plan: &WinogradPlan,
        prod: &[i64],
        bp: usize,
        output: &mut [i64],
    ) {
        let map = self.map;
        let o = map.shape.out_channels;
        let t = map.variant.input_tile();
        let m = map.variant.output_tile();
        let at = map.variant.at();
        let g = &map.shape.geometry;
        let mut acc = [0i64; MAX_TILE];
        let mut tmp = [0i64; MAX_TILE];
        let mut y = [0i64; MAX_TILE];
        for struck in &self.outputs {
            for (k, value) in acc[..t * t].iter_mut().enumerate() {
                *value = prod[(k * o + struck.oc) * bp + struck.column];
            }
            let mut cursor = StrikeCursor::new(struck.strikes, struck.first_op);
            integer_transform(&mut cursor, at, &acc, &mut tmp, m, t, t, MatrixSide::Left);
            integer_transform(
                &mut cursor,
                at,
                &tmp,
                &mut y,
                m,
                t,
                m,
                MatrixSide::RightTransposed,
            );
            debug_assert!(cursor.remaining().is_empty());
            let (ty, tx) = (struck.tile / plan.tiles_x(), struck.tile % plan.tiles_x());
            store_output_tile(
                output,
                0,
                &y[..m * m],
                struck.oc,
                ty,
                tx,
                m,
                g.out_h(),
                g.out_w(),
            );
        }
        self.outputs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use crate::{
        direct_conv_quantized, winograd_conv_quantized, PreparedConvQuantizedFast, WinogradWeights,
    };
    use wgft_faultsim::{
        BitErrorRate, ExactArithmetic, FaultConfig, FaultModel, FaultyArithmetic, ProtectionPlan,
        StrikeEnumerator,
    };
    use wgft_fixedpoint::BitWidth;
    use wgft_tensor::{gemm_i32, im2col_quantized, ConvGeometry};

    /// Records the op sequence of a real kernel run.
    #[derive(Default)]
    struct Trace(OpRecorder);

    fn traced<F: FnOnce(&mut OpRecorder)>(run: F) -> Vec<OpType> {
        let mut t = Trace::default();
        run(&mut t.0);
        t.0.ops
    }

    fn input_for(shape: &ConvShape, salt: usize) -> Vec<i32> {
        (0..shape.input_len())
            .map(|i| (((i * 7919 + salt * 31) % 65_521) as i32) - 32_760)
            .collect()
    }

    fn weights_for(n: usize, salt: usize) -> Vec<i32> {
        (0..n)
            .map(|i| (((i * 104_729 + salt * 17) % 65_521) as i32) - 32_760)
            .collect()
    }

    fn wino_weights(variant: WinogradVariant, shape: &ConvShape) -> WinogradWeights {
        let t2 = variant.input_tile() * variant.input_tile();
        let n = shape.out_channels * shape.in_channels * t2;
        WinogradWeights::new(
            variant,
            shape.out_channels,
            shape.in_channels,
            weights_for(n, 3).iter().map(|&w| w / 64).collect(),
        )
        .unwrap()
    }

    fn shapes() -> Vec<ConvShape> {
        let mut out = Vec::new();
        for &(c, o) in &[(1usize, 1usize), (2, 3), (3, 2)] {
            for &size in &[4usize, 5, 7] {
                for &pad in &[0usize, 1] {
                    out.push(ConvShape::new(c, o, ConvGeometry::square(size, 3, 1, pad)));
                }
            }
        }
        out
    }

    /// Every fault model and protection kind, at rates from sparse to
    /// several strikes per chain. The densest rate runs on 8-bit words: W16
    /// flips of transform coefficients compound past i64 in the oracle
    /// itself at that rate (a debug-build overflow panic, a wrap in release).
    fn configs(wide: BitWidth) -> Vec<FaultConfig> {
        let mut out = Vec::new();
        for model in FaultModel::all() {
            for protection in [
                ProtectionPlan::none(),
                ProtectionPlan::none().with_fault_free_op_type(OpType::Mul),
                ProtectionPlan::none().with_fault_free_op_type(OpType::Add),
                ProtectionPlan::none()
                    .with_fraction(0, OpType::Mul, 0.5)
                    .unwrap(),
            ] {
                for (ber, width) in [(1e-4, wide), (3e-3, wide), (3e-2, BitWidth::W8)] {
                    out.push(
                        FaultConfig::new(BitErrorRate::new(ber), width)
                            .with_model(model)
                            .with_protection(protection.clone()),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn direct_op_map_matches_the_kernel_trace() {
        let mut shapes = shapes();
        shapes.push(ConvShape::new(2, 2, ConvGeometry::square(7, 3, 2, 1)));
        shapes.push(ConvShape::new(3, 2, ConvGeometry::square(6, 1, 1, 0)));
        shapes.push(ConvShape::new(1, 2, ConvGeometry::square(8, 5, 2, 2)));
        for shape in shapes {
            let input = input_for(&shape, 0);
            let weights = weights_for(shape.weight_len(), 0);
            let ops = traced(|rec| {
                direct_conv_quantized(rec, 0, &input, &weights, &shape).unwrap();
            });
            let map = DirectOpMap::new(&shape);
            assert_eq!(map.op_count(), ops.len() as u64, "{shape:?}");
            for (i, &op) in ops.iter().enumerate() {
                assert_eq!(map.op_type(i as u64), op);
            }
        }
    }

    #[test]
    fn winograd_op_map_matches_the_kernel_trace() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for shape in shapes() {
                let input = input_for(&shape, 0);
                let weights = wino_weights(variant, &shape);
                let ops = traced(|rec| {
                    winograd_conv_quantized(rec, 0, &input, &weights, &shape).unwrap();
                });
                let map = WinogradOpMap::new(&shape, variant).unwrap();
                assert_eq!(map.op_count(), ops.len() as u64, "{variant} {shape:?}");
                for (i, &op) in ops.iter().enumerate() {
                    assert_eq!(map.op_type(i as u64), op, "{variant} {shape:?} op {i}");
                }
            }
        }
    }

    fn strikes_for(config: &FaultConfig, seed: u64, ops: &impl OpSequence) -> Vec<Strike> {
        let mut strikes = Vec::new();
        StrikeEnumerator::new(config, seed).layer(0, ops, &mut strikes);
        strikes
    }

    /// Fast path + replay == instrumented kernel on `FaultyArithmetic`, for
    /// strided, padded and 1x1 direct layers.
    #[test]
    fn direct_replay_matches_the_instrumented_kernel() {
        let mut shapes = shapes();
        shapes.push(ConvShape::new(2, 2, ConvGeometry::square(7, 3, 2, 1)));
        shapes.push(ConvShape::new(3, 2, ConvGeometry::square(6, 1, 1, 0)));
        for (s, shape) in shapes.iter().enumerate() {
            let input = input_for(shape, s);
            let weights = weights_for(shape.weight_len(), s);
            let map = DirectOpMap::new(shape);
            let mut exact = vec![0i64; shape.output_len()];
            let mut patches = Vec::new();
            im2col_quantized(&input, shape.in_channels, &shape.geometry, &mut patches);
            let g = &shape.geometry;
            let kdim = shape.in_channels * g.k_h * g.k_w;
            gemm_i32(
                &weights,
                &patches,
                &mut exact,
                shape.out_channels,
                kdim,
                g.out_pixels(),
            );
            let mut scratch = DirectReplay::default();
            for config in configs(BitWidth::W16) {
                for seed in 0..3u64 {
                    let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                    let want =
                        direct_conv_quantized(&mut oracle, 0, &input, &weights, shape).unwrap();
                    let strikes = strikes_for(&config, seed, &map);
                    let mut got = exact.clone();
                    scratch.replay(&map, &input, &weights, &strikes, &mut got);
                    assert_eq!(want, got, "{shape:?} {config:?} seed {seed}");
                }
            }
        }
    }

    /// Fast path + replay == instrumented kernel on `FaultyArithmetic`, for
    /// every tile size, including edge tiles and padding.
    #[test]
    fn winograd_replay_matches_the_instrumented_kernel() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for (s, shape) in shapes().iter().enumerate() {
                // F(6x6)'s scaled transforms amplify by up to 5184: keep a
                // flipped transform coefficient's product inside i64.
                let input: Vec<i32> = input_for(shape, s).iter().map(|&x| x / 64).collect();
                let weights = wino_weights(variant, shape);
                let map = WinogradOpMap::new(shape, variant).unwrap();
                let mut engine = PreparedConvQuantizedFast::new(&weights, shape).unwrap();
                let exact = engine.execute(&input).unwrap();
                let mut reference = ExactArithmetic::new();
                assert_eq!(
                    exact,
                    winograd_conv_quantized(&mut reference, 0, &input, &weights, shape).unwrap()
                );
                // F(6x6)'s transform coefficients are large enough that
                // compounded W16 flips overflow the oracle at any rate here.
                let width = if variant == F6X6_3X3 {
                    BitWidth::W8
                } else {
                    BitWidth::W16
                };
                for config in configs(width) {
                    for seed in 0..3u64 {
                        let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                        let want = winograd_conv_quantized(&mut oracle, 0, &input, &weights, shape)
                            .unwrap();
                        let strikes = strikes_for(&config, seed, &map);
                        let mut got = exact.clone();
                        engine
                            .execute_replay_into(&input, &map, &strikes, &mut got)
                            .unwrap();
                        assert_eq!(want, got, "{variant} {shape:?} {config:?} seed {seed}");
                    }
                }
            }
        }
    }

    /// The three strike mixes a chain can see: both kinds, `add` only (the
    /// prefix path) and `mul` only (O(1) deltas).
    fn strike_mixes() -> [ProtectionPlan; 3] {
        [
            ProtectionPlan::none(),
            ProtectionPlan::none().with_fault_free_op_type(OpType::Mul),
            ProtectionPlan::none().with_fault_free_op_type(OpType::Add),
        ]
    }

    /// One `DirectReplay` scratch reused across layers of different shapes —
    /// border pixels of padded layers, strided layers, 1x1 layers — and
    /// across seeds, fault models and strike mixes equals the oracle.
    #[test]
    fn direct_replay_reuses_its_scratch_across_layers_and_strike_mixes() {
        let shapes = [
            ConvShape::new(3, 4, ConvGeometry::square(6, 3, 1, 1)),
            ConvShape::new(2, 3, ConvGeometry::square(7, 3, 2, 1)),
            ConvShape::new(4, 2, ConvGeometry::square(5, 1, 1, 0)),
            ConvShape::new(1, 2, ConvGeometry::square(8, 5, 2, 2)),
        ];
        let mut scratch = DirectReplay::default();
        for model in FaultModel::all() {
            for protection in strike_mixes() {
                let config = FaultConfig::new(BitErrorRate::new(3e-3), BitWidth::W16)
                    .with_model(model)
                    .with_protection(protection);
                for seed in 0..4u64 {
                    for (s, shape) in shapes.iter().enumerate() {
                        let input = input_for(shape, s + seed as usize);
                        let weights = weights_for(shape.weight_len(), s);
                        let map = DirectOpMap::new(shape);
                        let mut exact = ExactArithmetic::new();
                        let mut got =
                            direct_conv_quantized(&mut exact, 0, &input, &weights, shape).unwrap();
                        let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                        let want =
                            direct_conv_quantized(&mut oracle, 0, &input, &weights, shape).unwrap();
                        let mut strikes = strikes_for(&config, seed, &map);
                        strikes.retain(Strike::injects);
                        scratch.replay(&map, &input, &weights, &strikes, &mut got);
                        assert_eq!(want, got, "{shape:?} {config:?} seed {seed}");
                    }
                }
            }
        }
    }

    /// One prepared engine replays image after image, including dense
    /// 16-bit F(4x4) faults that pass `i64` (both sides wrap), and a clean
    /// execution afterwards is still exact: patched blocks leave no state
    /// behind.
    #[test]
    fn winograd_engine_replays_image_after_image() {
        for variant in [F2X2_3X3, F4X4_3X3] {
            let shape = ConvShape::new(3, 4, ConvGeometry::square(9, 3, 1, 1));
            let weights = wino_weights(variant, &shape);
            let map = WinogradOpMap::new(&shape, variant).unwrap();
            let mut engine = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
            let mut got = vec![0i64; shape.output_len()];
            for model in FaultModel::all() {
                for protection in strike_mixes() {
                    for ber in [3e-3, 1e-2] {
                        let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16)
                            .with_model(model)
                            .with_protection(protection.clone());
                        for seed in 0..3u64 {
                            let input = input_for(&shape, seed as usize);
                            let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                            let want =
                                winograd_conv_quantized(&mut oracle, 0, &input, &weights, &shape)
                                    .unwrap();
                            let strikes = strikes_for(&config, seed, &map);
                            engine
                                .execute_replay_into(&input, &map, &strikes, &mut got)
                                .unwrap();
                            assert_eq!(want, got, "{variant} {config:?} seed {seed}");
                        }
                    }
                }
            }
            let input = input_for(&shape, 7);
            engine.execute_into(&input, &mut got).unwrap();
            let mut exact = ExactArithmetic::new();
            assert_eq!(
                got,
                winograd_conv_quantized(&mut exact, 0, &input, &weights, &shape).unwrap()
            );
        }
    }

    #[test]
    fn winograd_op_map_rejects_unsupported_geometry() {
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 2, 1));
        assert!(WinogradOpMap::new(&strided, F2X2_3X3).is_err());
    }
}
