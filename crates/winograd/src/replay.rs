//! Fault-site replay kernels: apply one layer's enumerated strikes to the
//! fast path's exact accumulators.
//!
//! The instrumented kernels ([`crate::direct_conv_quantized`],
//! [`crate::winograd_conv_quantized_with_scratch`]) issue a fixed operation
//! sequence. [`DirectOpMap`] and [`WinogradOpMap`] describe that sequence —
//! its length, the type of every operation and where each one sits in the
//! kernel's loop order — so a [`wgft_faultsim::StrikeEnumerator`] can draw
//! the layer's strikes without running it. The replay functions then take
//! the exact accumulators the fast engines computed and recompute only what
//! each struck operation touches, applying the flips in the instrumented
//! order:
//!
//! * direct convolution: the struck output pixel's accumulation chain;
//! * winograd GEMM or output-transform strike: its (tile, out-channel)
//!   block — the struck accumulation chains, then the output transform;
//! * winograd input-transform strike: the tile's transformed input `V` for
//!   the struck channel, whose change feeds every out-channel block of that
//!   tile.
//!
//! Everything the flips do not touch is linear in exact integers, so an
//! unstruck part's effect is added as a difference (`Aᵀ ΔM A`) instead of
//! recomputed. The results are bit-identical to the instrumented kernel on a
//! [`wgft_faultsim::FaultyArithmetic`] with the same seed — tested below and
//! at network level in `wgft-nn`.

use crate::conv_standard::ConvShape;
use crate::conv_winograd::{integer_transform, MatrixSide, WinogradWeights};
use crate::plan::MAX_TILE;
use crate::quantized_fast::{int_mat_mul_left, int_mat_mul_rt};
use crate::transform::WinogradVariant;
use crate::WinogradError;
use wgft_faultsim::{
    split_strikes, Arithmetic, MacChainReplay, MacOps, OpCounters, OpSequence, OpType, Strike,
    StrikeCursor,
};

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
    /// Valid (non-padding) kernel rows per output row.
    row_taps: Vec<u64>,
    /// Prefix sums of `row_taps` (`out_h + 1` entries).
    row_start: Vec<u64>,
    /// Valid kernel columns per output column.
    col_taps: Vec<u64>,
    /// Prefix sums of `col_taps` (`out_w + 1` entries).
    col_start: Vec<u64>,
}

/// Where a struck direct-convolution operation sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirectChain {
    /// Index of the output pixel in the `(O, out_h, out_w)` buffer.
    pixel: usize,
    oc: usize,
    oy: usize,
    ox: usize,
    /// Layer op index of the chain's first `mul`.
    first_op: u64,
    /// One past the chain's last op.
    end_op: u64,
}

/// Number of kernel offsets `k` in `0..kernel` with `pos * stride + k - pad`
/// inside `0..size`.
fn valid_taps(pos: usize, stride: usize, pad: usize, kernel: usize, size: usize) -> u64 {
    (0..kernel)
        .filter(|&k| {
            let at = (pos * stride + k) as isize - pad as isize;
            at >= 0 && at < size as isize
        })
        .count() as u64
}

fn prefix(values: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(values.len() + 1);
    let mut sum = 0;
    out.push(0);
    for &v in values {
        sum += v;
        out.push(sum);
    }
    out
}

impl DirectOpMap {
    /// The map of a direct convolution of this shape.
    #[must_use]
    pub fn new(shape: &ConvShape) -> Self {
        let g = &shape.geometry;
        let row_taps: Vec<u64> = (0..g.out_h())
            .map(|oy| valid_taps(oy, g.stride, g.padding, g.k_h, g.in_h))
            .collect();
        let col_taps: Vec<u64> = (0..g.out_w())
            .map(|ox| valid_taps(ox, g.stride, g.padding, g.k_w, g.in_w))
            .collect();
        Self {
            shape: *shape,
            row_start: prefix(&row_taps),
            col_start: prefix(&col_taps),
            row_taps,
            col_taps,
        }
    }

    /// Multiply-accumulates per output channel.
    fn macs_per_channel(&self) -> u64 {
        self.shape.in_channels as u64
            * self.row_start[self.row_taps.len()]
            * self.col_start[self.col_taps.len()]
    }

    /// The chain holding layer op `op`.
    fn chain(&self, op: u64) -> DirectChain {
        let c = self.shape.in_channels as u64;
        let cols = self.col_start[self.col_taps.len()];
        let mac = op / 2;
        let per_channel = self.macs_per_channel();
        let oc = (mac / per_channel) as usize;
        let r = mac % per_channel;
        // Rows before `oy` hold `c * row_start[oy] * cols` MACs.
        let oy = self.row_start.partition_point(|&s| s <= r / (c * cols)) - 1;
        let row_taps = self.row_taps[oy];
        let r = r - c * self.row_start[oy] * cols;
        let ox = self.col_start.partition_point(|&s| s <= r / (c * row_taps)) - 1;
        let first_mac = oc as u64 * per_channel
            + c * (self.row_start[oy] * cols + row_taps * self.col_start[ox]);
        let macs = c * row_taps * self.col_taps[ox];
        let (out_h, out_w) = (self.row_taps.len(), self.col_taps.len());
        DirectChain {
            pixel: (oc * out_h + oy) * out_w + ox,
            oc,
            oy,
            ox,
            first_op: 2 * first_mac,
            end_op: 2 * (first_mac + macs),
        }
    }
}

impl OpSequence for DirectOpMap {
    fn op_count(&self) -> u64 {
        2 * self.shape.out_channels as u64 * self.macs_per_channel()
    }

    fn op_type(&self, op: u64) -> OpType {
        MacOps(0).op_type(op)
    }
}

/// Apply one direct-convolution layer's strikes (sorted by op index, as a
/// [`wgft_faultsim::StrikeEnumerator`] emits them for `map`) to `output`,
/// which must hold the layer's exact accumulators. Each struck pixel's chain
/// is replayed up to its last strike; the exact tail comes from `output`.
// wgft-audit: consensus-critical -- patches the accumulators of replayed direct-convolution cells
pub fn replay_direct_conv(
    map: &DirectOpMap,
    input: &[i32],
    weights: &[i32],
    strikes: &[Strike],
    output: &mut [i64],
) {
    let shape = &map.shape;
    let g = &shape.geometry;
    // The valid taps of a pixel form a ky × kx rectangle.
    let valid = |origin: isize, kernel: usize, size: usize| {
        let lo = (-origin).clamp(0, kernel as isize) as usize;
        let hi = (size as isize - origin).clamp(lo as isize, kernel as isize) as usize;
        (lo, hi)
    };
    let mut rest = strikes;
    while let Some(first) = rest.first() {
        let chain = map.chain(first.op);
        let (chain_strikes, tail) = split_strikes(rest, chain.end_op);
        rest = tail;
        let iy0 = (chain.oy * g.stride) as isize - g.padding as isize;
        let ix0 = (chain.ox * g.stride) as isize - g.padding as isize;
        let (ky_lo, ky_hi) = valid(iy0, g.k_h, g.in_h);
        let (kx_lo, kx_hi) = valid(ix0, g.k_w, g.in_w);
        let mut walk = MacChainReplay::new(chain_strikes, chain.first_op, 2);
        'taps: for ic in 0..shape.in_channels {
            for ky in ky_lo..ky_hi {
                let irow = (ic * g.in_h + (iy0 + ky as isize) as usize) * g.in_w;
                let xs = &input[irow + (ix0 + kx_lo as isize) as usize..][..kx_hi - kx_lo];
                let wrow = ((chain.oc * shape.in_channels + ic) * g.k_h + ky) * g.k_w;
                let ws = &weights[wrow + kx_lo..wrow + kx_hi];
                let pairs = xs
                    .iter()
                    .zip(ws)
                    .map(|(&x, &w)| (i64::from(x), i64::from(w)));
                if walk.clean_for(xs.len() as u64) {
                    walk.skip(xs.len() as u64, pairs.map(|(x, w)| x * w).sum());
                } else {
                    for (x, w) in pairs {
                        walk.step(x, w);
                    }
                }
                if !walk.pending() {
                    break 'taps;
                }
            }
        }
        output[chain.pixel] = walk.with_exact_tail(output[chain.pixel]);
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
    /// Per winograd coordinate `k = (i, j)`: the `(d position, coefficient)`
    /// terms of `V[k] = Σ Bᵀ[i][a] · d[a][b] · Bᵀ[j][b]`.
    coord_terms: Vec<Vec<(usize, i64)>>,
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
        let bt = variant.bt();
        let input_ops = two_sided_ops(bt, t, t);
        let output_ops = two_sided_ops(variant.at(), variant.output_tile(), t);
        let coord_terms = (0..t * t)
            .map(|k| {
                let (i, j) = (k / t, k % t);
                let mut terms = Vec::new();
                for a in 0..t {
                    for b in 0..t {
                        let coef = i64::from(bt[i * t + a]) * i64::from(bt[j * t + b]);
                        if coef != 0 {
                            terms.push((a * t + b, coef));
                        }
                    }
                }
                terms
            })
            .collect();
        Ok(Self {
            shape: *shape,
            variant,
            input_ops,
            output_ops,
            coord_terms,
        })
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

/// Apply one winograd layer's strikes (sorted by op index, as a
/// [`wgft_faultsim::StrikeEnumerator`] emits them for `map`) to `output`,
/// which must hold the layer's exact accumulators from
/// [`crate::PreparedConvQuantizedFast`]. `weights` must be the layer's
/// winograd weights for `map`'s variant.
pub fn replay_winograd_conv(
    map: &WinogradOpMap,
    input: &[i32],
    weights: &WinogradWeights,
    strikes: &[Strike],
    output: &mut [i64],
) {
    debug_assert_eq!(weights.variant(), map.variant);
    let tile_len = map.tile_len();
    let mut tile = TileReplay::new(map, input, weights.data());
    let mut rest = strikes;
    while let Some(first) = rest.first() {
        let index = first.op / tile_len;
        let (tile_strikes, tail) = split_strikes(rest, (index + 1) * tile_len);
        rest = tail;
        tile.replay(index as usize, tile_strikes, output);
    }
}

/// Replays the struck tiles of one winograd layer, one at a time, with
/// scratch reused across tiles.
struct TileReplay<'a> {
    map: &'a WinogradOpMap,
    input: &'a [i32],
    /// Winograd weights, `(O, C, t²)`.
    u: &'a [i32],
    ty: usize,
    tx: usize,
    /// Layer op index of the tile's first operation.
    base: u64,
    /// The tile's input words, position-major `(t², C)` (0 on padding);
    /// position `pos` is valid once `d_ready[pos]`.
    d: Vec<i64>,
    d_ready: Vec<bool>,
    /// Exact `V = Bᵀ d B`, coordinate-major `(t², C)`; column `k` is valid
    /// once `v_ready[k]`.
    v: Vec<i64>,
    v_ready: Vec<bool>,
    /// `V' - V` of the struck in-channels, `(t², C)`; zero elsewhere.
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
    fn new(map: &'a WinogradOpMap, input: &'a [i32], u: &'a [i32]) -> Self {
        let t2 = map.t2() as usize;
        let c = map.shape.in_channels;
        Self {
            map,
            input,
            u,
            ty: 0,
            tx: 0,
            base: 0,
            d: vec![0; t2 * c],
            d_ready: vec![false; t2],
            v: vec![0; t2 * c],
            v_ready: vec![false; t2],
            dv: vec![0; t2 * c],
            dv_channels: Vec::new(),
            dv_coords: Vec::new(),
            keyed: Vec::new(),
            group: Vec::new(),
        }
    }

    fn replay(&mut self, tile: usize, strikes: &[Strike], output: &mut [i64]) {
        let map = self.map;
        let (_, tiles_x) = map.tiles();
        self.ty = tile / tiles_x;
        self.tx = tile % tiles_x;
        self.base = tile as u64 * map.tile_len();
        self.d_ready.fill(false);
        self.v_ready.fill(false);
        let inputs_end = self.base + map.inputs_len();
        let (input_strikes, mut rest) = split_strikes(strikes, inputs_end);
        self.replay_input_transforms(input_strikes);
        let block_len = map.block_len();
        for oc in 0..map.shape.out_channels {
            let block_base = inputs_end + oc as u64 * block_len;
            let (block_strikes, tail) = split_strikes(rest, block_base + block_len);
            rest = tail;
            if !block_strikes.is_empty() || !self.dv_channels.is_empty() {
                self.replay_block(oc, block_base, block_strikes, output);
            }
        }
        let c = map.shape.in_channels;
        for &ic in &self.dv_channels {
            for k in 0..map.t2() as usize {
                self.dv[k * c + ic] = 0;
            }
        }
        self.dv_channels.clear();
        self.dv_coords.clear();
    }

    /// Gather the tile's input word at position `pos` for every in-channel
    /// if not done yet.
    fn ensure_d(&mut self, pos: usize) {
        if self.d_ready[pos] {
            return;
        }
        let g = &self.map.shape.geometry;
        let t = self.map.variant.input_tile();
        let m = self.map.variant.output_tile();
        let c = self.map.shape.in_channels;
        let iy = (self.ty * m + pos / t) as isize - g.padding as isize;
        let ix = (self.tx * m + pos % t) as isize - g.padding as isize;
        let d = &mut self.d[pos * c..(pos + 1) * c];
        if iy >= 0 && ix >= 0 && (iy as usize) < g.in_h && (ix as usize) < g.in_w {
            let plane = g.in_h * g.in_w;
            let at = iy as usize * g.in_w + ix as usize;
            for (ic, value) in d.iter_mut().enumerate() {
                *value = i64::from(self.input[ic * plane + at]);
            }
        } else {
            d.fill(0);
        }
        self.d_ready[pos] = true;
    }

    /// Fill column `k` of the exact `V` (every in-channel) if not done yet.
    fn ensure_v_column(&mut self, k: usize) {
        if self.v_ready[k] {
            return;
        }
        let c = self.map.shape.in_channels;
        let terms = &self.map.coord_terms[k];
        for &(pos, _) in terms {
            self.ensure_d(pos);
        }
        let v = &mut self.v[k * c..(k + 1) * c];
        v.fill(0);
        for &(pos, coef) in terms {
            for (v, &d) in v.iter_mut().zip(&self.d[pos * c..(pos + 1) * c]) {
                *v += coef * d;
            }
        }
        self.v_ready[k] = true;
    }

    /// Recompute each struck in-channel's `V = Bᵀ d B` under its strikes and
    /// keep the difference from the exact transform.
    fn replay_input_transforms(&mut self, mut strikes: &[Strike]) {
        let map = self.map;
        let c = map.shape.in_channels;
        let t = map.variant.input_tile();
        let t2 = t * t;
        let bt = map.variant.bt();
        let mut d = [0i64; MAX_TILE];
        let mut tmp = [0i64; MAX_TILE];
        let mut exact = [0i64; MAX_TILE];
        let mut struck = [0i64; MAX_TILE];
        if !strikes.is_empty() {
            for pos in 0..t2 {
                self.ensure_d(pos);
            }
        }
        while let Some(first) = strikes.first() {
            let ic = ((first.op - self.base) / map.input_len()) as usize;
            let first_op = self.base + ic as u64 * map.input_len();
            let (channel_strikes, tail) = split_strikes(strikes, first_op + map.input_len());
            strikes = tail;
            for (pos, value) in d[..t2].iter_mut().enumerate() {
                *value = self.d[pos * c + ic];
            }
            let d = &d[..t2];
            int_mat_mul_left(bt, d, &mut tmp, t, t, t);
            int_mat_mul_rt(bt, &tmp, &mut exact, t, t, t);
            let mut cursor = StrikeCursor::new(channel_strikes, first_op);
            integer_transform(&mut cursor, bt, d, &mut tmp, t, t, t, MatrixSide::Left);
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
            if struck[..t2] != exact[..t2] {
                for k in 0..t2 {
                    self.dv[k * c + ic] = struck[k] - exact[k];
                }
                self.dv_channels.push(ic);
            }
        }
        for k in 0..t2 {
            if self.dv_channels.iter().any(|&ic| self.dv[k * c + ic] != 0) {
                self.dv_coords.push(k);
            }
        }
    }

    /// Replay one (tile, out-channel) block: its struck accumulation chains,
    /// the struck input channels' contribution, and its output transform.
    fn replay_block(&mut self, oc: usize, block_base: u64, strikes: &[Strike], output: &mut [i64]) {
        let map = self.map;
        let t = map.variant.input_tile();
        let m = map.variant.output_tile();
        let t2 = t * t;
        let gemm_end = block_base + map.gemm_len();
        let (gemm_strikes, output_strikes) = split_strikes(strikes, gemm_end);
        // Chain `k` issues its in-channel `ic` pair at `block_base + ic·2t² + 2k`.
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        keyed.extend(
            gemm_strikes
                .iter()
                .map(|s| (((s.op - block_base) % (2 * t2 as u64) / 2) as usize, *s)),
        );
        keyed.sort_unstable_by_key(|&(k, s)| (k, s.op));
        // With output-transform strikes the transform needs the whole
        // struck M; otherwise ΔM = M' - M suffices (the rest is linear).
        let full = !output_strikes.is_empty();
        let mut acc = [0i64; MAX_TILE];
        let mut done = [false; MAX_TILE];
        let mut group = std::mem::take(&mut self.group);
        for chain in keyed.chunk_by(|a, b| a.0 == b.0) {
            let k = chain[0].0;
            group.clear();
            group.extend(chain.iter().map(|&(_, s)| s));
            let (value, exact) = self.replay_chain(oc, k, block_base, &group);
            acc[k] = if full { value } else { value - exact };
            done[k] = true;
        }
        self.keyed = keyed;
        self.group = group;
        if full {
            for k in 0..t2 {
                if !done[k] {
                    acc[k] = self.replay_chain(oc, k, block_base, &[]).0;
                }
            }
        } else {
            // Unstruck chains move only by the struck input channels.
            let c = map.shape.in_channels;
            let u = &self.u[oc * c * t2..(oc + 1) * c * t2];
            for &k in &self.dv_coords {
                if !done[k] {
                    acc[k] = self
                        .dv_channels
                        .iter()
                        .map(|&ic| i64::from(u[ic * t2 + k]) * self.dv[k * c + ic])
                        .sum();
                }
            }
        }
        let g = &map.shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let at = map.variant.at();
        let mut y = [0i64; MAX_TILE];
        if full {
            let mut tmp = [0i64; MAX_TILE];
            let mut cursor = StrikeCursor::new(output_strikes, gemm_end);
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
        } else {
            // ΔY = Aᵀ ΔM A, one outer product per nonzero ΔM entry.
            let mut moved = false;
            for (k, &delta) in acc[..t2].iter().enumerate().filter(|(_, &x)| x != 0) {
                moved = true;
                let (k1, k2) = (k / t, k % t);
                for i in 0..m {
                    let left = i64::from(at[i * t + k1]) * delta;
                    if left != 0 {
                        for j in 0..m {
                            y[i * m + j] += left * i64::from(at[j * t + k2]);
                        }
                    }
                }
            }
            if !moved {
                return;
            }
        }
        for dy in 0..m {
            let oy = self.ty * m + dy;
            for dx in 0..m {
                let ox = self.tx * m + dx;
                if oy < out_h && ox < out_w {
                    let out = &mut output[(oc * out_h + oy) * out_w + ox];
                    *out = if full {
                        y[dy * m + dx]
                    } else {
                        *out + y[dy * m + dx]
                    };
                }
            }
        }
    }

    /// Replay accumulation chain `k` of out-channel `oc`'s block under its
    /// `strikes`, over the struck input transforms. Returns the struck value
    /// `M'[k]` and the exact `M[k]`.
    fn replay_chain(
        &mut self,
        oc: usize,
        k: usize,
        block_base: u64,
        strikes: &[Strike],
    ) -> (i64, i64) {
        let c = self.map.shape.in_channels;
        let t2 = self.map.t2() as usize;
        self.ensure_v_column(k);
        let v = &self.v[k * c..(k + 1) * c];
        let dv = &self.dv[k * c..(k + 1) * c];
        let u = &self.u[oc * c * t2..(oc + 1) * c * t2];
        let weight = |ic: usize| i64::from(u[ic * t2 + k]);
        let exact: i64 = (0..c).map(|ic| weight(ic) * v[ic]).sum();
        let shifted = exact
            + self
                .dv_channels
                .iter()
                .map(|&ic| weight(ic) * dv[ic])
                .sum::<i64>();
        let mut chain = MacChainReplay::new(strikes, block_base + 2 * k as u64, 2 * t2 as u64);
        for ic in 0..c {
            if !chain.pending() {
                break;
            }
            chain.step(weight(ic), v[ic] + dv[ic]);
        }
        (chain.with_exact_tail(shifted), exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use crate::{direct_conv_quantized, winograd_conv_quantized, PreparedConvQuantizedFast};
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
            for config in configs(BitWidth::W16) {
                for seed in 0..3u64 {
                    let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                    let want =
                        direct_conv_quantized(&mut oracle, 0, &input, &weights, shape).unwrap();
                    let strikes = strikes_for(&config, seed, &map);
                    let mut got = exact.clone();
                    replay_direct_conv(&map, &input, &weights, &strikes, &mut got);
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
                let exact = PreparedConvQuantizedFast::new(&weights, shape)
                    .unwrap()
                    .execute(&input)
                    .unwrap();
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
                        replay_winograd_conv(&map, &input, &weights, &strikes, &mut got);
                        assert_eq!(want, got, "{variant} {shape:?} {config:?} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn winograd_op_map_rejects_unsupported_geometry() {
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 2, 1));
        assert!(WinogradOpMap::new(&strided, F2X2_3X3).is_err());
    }
}
