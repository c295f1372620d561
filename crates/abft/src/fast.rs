//! Fault-free ABFT on the fast integer engines.
//!
//! At a zero fault rate the instrumented executors ([`crate::abft_winograd_conv`],
//! [`crate::abft_direct_conv`], [`crate::abft_linear`]) compute exact
//! integers, yet issue every primitive operation through an
//! [`wgft_faultsim::Arithmetic`] backend. The checks here run the same
//! protection on the uninstrumented engines instead: the same invariants,
//! verified on the values those engines actually computed, in blocked form.
//!
//! * Winograd layers ([`WinogradChecks`], a [`RangeStage`] of
//!   [`wgft_winograd::PreparedConvQuantizedFast`]): every input tile's
//!   transform guard against the `V` each block scattered, every winograd
//!   coordinate's GEMM column checksum per tile and row checksum per
//!   output channel (the row sums accumulate across blocks), and every
//!   output tile's transform guard against the accumulators the gather
//!   stored. `V` and `M` are clipped in the block loop where the
//!   instrumented executor clips the whole layer.
//! * im2col and fully-connected layers ([`fast_gemm_ok`]): the row and
//!   column checksums of `out = a · b` (the column checksum alone for a
//!   GEMV), exactly as [`crate::checked_gemm_i64`] forms them.
//!
//! Every check compares exact integer sums, so none is coarser than its
//! instrumented twin: they run in `i64` where magnitude bounds taken from
//! the data prove no sum can wrap, and a product whose bounds do not hold
//! fails its checks. Output tiles cut by the image border are verified on
//! the rows and columns the engine stores. Overhead is charged by the
//! instrumented executors' own formulas, so a run whose checks all hold
//! reports [`AbftEvents`] identical to the instrumented run. A failed check
//! means the fast engine did not compute what the instrumented one would:
//! the caller must then rerun the image on the instrumented executors.

use crate::checksum::clean_check_charge;
use crate::engine::{clip_slice, guard_charge, guard_expected, AbftRun, AbftScratch, MAX_EDGE};
use crate::policy::AbftEvents;
use wgft_faultsim::OpCount;
use wgft_winograd::{RangeStage, StageBlock, WinogradPlan};

/// Buffers of the fast checks, kept in [`AbftScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FastBuffers {
    /// `eᵀU_k` per winograd coordinate, `(t², C)`; `a`'s column sums for
    /// an im2col GEMM.
    col_sums: Vec<i64>,
    /// Per coordinate: `Σ_ic |eᵀU_k[ic]|` and `max_oc Σ_ic |U_k[oc][ic]|`,
    /// the factors bounding the checksum sums.
    col_bound: Vec<i64>,
    row_bound: Vec<i64>,
    /// Expected and actual GEMM row checksums, `(t², O)`.
    exp_rows: Vec<i128>,
    act_rows: Vec<i128>,
    /// Expected output-guard column sums, `(O, m, P)`.
    out_exp: Vec<i64>,
    /// Lane scratch over one block's tiles (or one product's columns).
    exp_cols: Vec<i64>,
    act_cols: Vec<i64>,
    lanes: Vec<i64>,
    /// Row sums of one coordinate's `V` (or of `b`).
    row_sums: Vec<i64>,
    /// One padded image row of the input guards and a tile row's
    /// expectations.
    rows: Vec<i64>,
    /// Pixel-major `(H, W, C)` copy of the layer input.
    pixels: Vec<i32>,
}

fn reset<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.resize(len, T::default());
}

/// `n` repetitions of a charge.
fn times(op: OpCount, n: usize) -> OpCount {
    OpCount {
        mul: op.mul * n as u64,
        add: op.add * n as u64,
    }
}

/// Largest magnitude in a slice, as `i64` (`i64::MAX` for `i64::MIN`).
fn max_abs<T: Copy + Into<i64>>(values: &[T]) -> i64 {
    values
        .iter()
        .map(|&x| x.into().checked_abs().unwrap_or(i64::MAX))
        .max()
        .unwrap_or(0)
}

/// Whether `factor · magnitude` stays clear of the `i64` range, so sums
/// bounded by it are exact in `i64`.
fn fits(factor: i64, magnitude: i64) -> bool {
    factor
        .checked_mul(magnitude)
        .is_some_and(|bound| bound < i64::MAX / 2)
}

/// The fault-free protection of one winograd layer on the fast engine:
/// pass it to [`wgft_winograd::PreparedConvQuantizedFast::execute_into_staged`],
/// then call [`WinogradChecks::finish`] on the accumulators it produced.
///
/// The checks' sums run in `i64` where per-block magnitude bounds prove
/// them exact; a block whose bounds do not hold fails its checks (the
/// caller reruns the image on the instrumented executors), so no sum ever
/// wraps.
#[derive(Debug)]
pub struct WinogradChecks<'a> {
    plan: WinogradPlan,
    input: &'a [i32],
    run: AbftRun<'a>,
    buf: &'a mut FastBuffers,
    events: AbftEvents,
    ok: bool,
}

impl<'a> WinogradChecks<'a> {
    /// Checks for one execution of the layer `plan` describes on `input`
    /// (one image), under `run`.
    pub fn new(
        plan: WinogradPlan,
        input: &'a [i32],
        run: AbftRun<'a>,
        scratch: &'a mut AbftScratch,
    ) -> Self {
        let buf = &mut scratch.fast;
        if run.mode.checks() {
            let o = plan.shape().out_channels;
            let t = plan.variant().input_tile();
            // The weight sums are taken by the first block, which carries
            // the weights.
            reset(&mut buf.col_sums, 0);
            reset(&mut buf.exp_rows, t * t * o);
            reset(&mut buf.act_rows, t * t * o);
            reset(
                &mut buf.out_exp,
                o * plan.variant().output_tile() * plan.num_tiles(),
            );
        }
        Self {
            plan,
            input,
            run,
            buf,
            events: AbftEvents::new(),
            ok: true,
        }
    }

    /// Verify what only the finished accumulators show — the GEMM row
    /// checksums and the output-transform guards — and charge the layer's
    /// check overhead into `events`, along with the clip events of `V` and
    /// `M`. Returns whether every check of the layer held. The output
    /// accumulators are not clipped here ([`crate::clip_accumulators`]).
    pub fn finish(self, output: &[i64], events: &mut AbftEvents) -> bool {
        let mut ok = self.ok;
        *events += self.events;
        if !self.run.mode.checks() {
            return ok;
        }
        let plan = &self.plan;
        let shape = plan.shape();
        let (o, c, p) = (shape.out_channels, shape.in_channels, plan.num_tiles());
        let variant = plan.variant();
        let (t, m) = (variant.input_tile(), variant.output_tile());
        ok = ok && (p == 1 || self.buf.exp_rows == self.buf.act_rows);
        ok = ok && output_guards_hold(plan, &self.buf.out_exp, output, &mut self.buf.lanes);
        events.overhead += times(guard_charge(t, t), p * c)
            + times(clean_check_charge(o, c, p), t * t)
            + times(guard_charge(m, t), o * p);
        ok
    }

    /// Input-transform guards of one block: every tile and channel's `V`
    /// column sums against `(eᵀBᵀ)·d·B` of the tile it was scattered from.
    ///
    /// The expectations are separable and run over all channels at once,
    /// on a pixel-major copy of the image: per tile row,
    /// `R[x] = Σ_q (eᵀBᵀ)[q] · X[y₀+q][x]` along the padded image row, then
    /// `exp_j[tx] = Σ_r Bᵀ[j][r] · R[tx·m + r]`. Exact in `i64` for any
    /// `i32` input, because `|eᵀBᵀ|₁ · max_j |Bᵀ_j|₁ < 2¹⁶` for every
    /// supported variant.
    // wgft-audit: consensus-critical -- verifies the fast engine's input transforms
    fn input_guards(&mut self, block: &StageBlock<'_>, v: &[i32]) -> bool {
        let variant = self.plan.variant();
        let (bt, sums) = (variant.bt(), variant.bt_col_sums());
        let (t, m) = (variant.input_tile(), variant.output_tile());
        let shape = self.plan.shape();
        let c = shape.in_channels;
        let g = shape.geometry;
        let (in_h, in_w, pad) = (g.in_h, g.in_w, g.padding);
        let tiles_x = self.plan.tiles_x();
        let (first, tiles) = (block.first_tile, block.tiles);
        let FastBuffers {
            lanes,
            rows,
            pixels,
            ..
        } = &mut *self.buf;
        if first == 0 {
            reset(pixels, c * in_h * in_w);
            for (ic, plane) in self.input.chunks(in_h * in_w).enumerate() {
                for (pixel, &x) in plane.iter().enumerate() {
                    pixels[pixel * c + ic] = x;
                }
            }
        }
        // Every tile's actual column sums, `(t, C, tiles)`.
        let plane = c * tiles;
        reset(lanes, t * plane);
        for (k, v_k) in v.chunks(plane).enumerate() {
            for (a, &x) in lanes[(k % t) * plane..][..plane].iter_mut().zip(v_k) {
                *a += i64::from(x);
            }
        }
        // One padded image row of every channel, `(x, C)`, and a tile
        // row's expectations, `(j, tx, C)`.
        let span = (tiles_x - 1) * m + t;
        reset(rows, (span + t * tiles_x) * c);
        let (row, expected) = rows.split_at_mut(span * c);
        for ty in first / tiles_x..=(first + tiles - 1) / tiles_x {
            row.fill(0);
            for (q, &sum) in sums.iter().enumerate() {
                let y = (ty * m + q).wrapping_sub(pad);
                if sum == 0 || y >= in_h {
                    continue;
                }
                let image_row = &pixels[y * in_w * c..(y + 1) * in_w * c];
                for (r, &x) in row[pad * c..].iter_mut().zip(image_row) {
                    *r += sum * i64::from(x);
                }
            }
            expected.fill(0);
            for (j, coef) in bt.chunks(t).enumerate() {
                for tx in 0..tiles_x {
                    let exp = &mut expected[(j * tiles_x + tx) * c..][..c];
                    for (r, &w) in coef.iter().enumerate() {
                        let w = i64::from(w);
                        if w != 0 {
                            for (e, &x) in exp.iter_mut().zip(&row[(tx * m + r) * c..][..c]) {
                                *e += w * x;
                            }
                        }
                    }
                }
            }
            let row_tiles = (ty * tiles_x).max(first)..((ty + 1) * tiles_x).min(first + tiles);
            for tile in row_tiles {
                let (b, tx) = (tile - first, tile % tiles_x);
                for j in 0..t {
                    let exp = &expected[(j * tiles_x + tx) * c..][..c];
                    let actual = lanes[j * plane + b..].iter().step_by(tiles);
                    if exp.iter().zip(actual).any(|(e, a)| e != a) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The weight sums the GEMM checks need, from the first block's
    /// weights: `eᵀU_k` and the two bounding factors per coordinate.
    // wgft-audit: consensus-critical -- weight checksums of the fast engine's winograd-domain GEMMs
    fn weight_sums(&mut self, weights: &[i32]) {
        let shape = self.plan.shape();
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant().input_tile().pow(2);
        let buf = &mut *self.buf;
        reset(&mut buf.col_sums, t2 * c);
        reset(&mut buf.col_bound, t2);
        reset(&mut buf.row_bound, t2);
        for k in 0..t2 {
            let u_k = &weights[k * o * c..(k + 1) * o * c];
            let cols = &mut buf.col_sums[k * c..(k + 1) * c];
            for row in u_k.chunks(c) {
                for (sum, &w) in cols.iter_mut().zip(row) {
                    *sum += i64::from(w);
                }
                let row_abs: i64 = row.iter().map(|&w| i64::from(w).abs()).sum();
                buf.row_bound[k] = buf.row_bound[k].max(row_abs);
            }
            buf.col_bound[k] = cols.iter().map(|s| s.abs()).sum();
        }
    }

    /// GEMM checksums of one block: each coordinate's column checksum per
    /// tile, and its row checksums folded into the layer-wide sums.
    /// `max_m` bounds the block's products.
    // wgft-audit: consensus-critical -- verifies the fast engine's winograd-domain GEMMs
    fn gemm_checks(&mut self, block: &StageBlock<'_>, v: &[i32], prod: &[i64], max_m: i64) -> bool {
        let shape = self.plan.shape();
        let (o, c, p) = (shape.out_channels, shape.in_channels, self.plan.num_tiles());
        let t2 = self.plan.variant().input_tile().pow(2);
        let tiles = block.tiles;
        if self.buf.col_sums.is_empty() {
            self.weight_sums(block.weights);
        }
        let max_v = max_abs(v);
        // `O·max|M|` bounds a column sum and `tiles·max|M|` a row sum of
        // `M`; `tiles·max|V|` a row sum of `V`.
        if !fits(o.max(tiles) as i64, max_m) || !fits(tiles as i64, max_v) {
            return false;
        }
        let FastBuffers {
            col_sums,
            col_bound,
            row_bound,
            exp_rows,
            act_rows,
            exp_cols,
            act_cols,
            row_sums,
            ..
        } = &mut *self.buf;
        reset(exp_cols, tiles);
        reset(act_cols, tiles);
        reset(row_sums, c);
        for k in 0..t2 {
            if !fits(col_bound[k], max_v) || !fits(row_bound[k], tiles as i64 * max_v) {
                return false;
            }
            let v_k = &v[k * c * tiles..(k + 1) * c * tiles];
            let m_k = &prod[k * o * tiles..(k + 1) * o * tiles];
            let u_k = &block.weights[k * o * c..(k + 1) * o * c];
            // One pass over each of V and M takes both their column and
            // their row sums.
            exp_cols.fill(0);
            act_cols.fill(0);
            let cols = &col_sums[k * c..(k + 1) * c];
            for ((&col, v_row), row_sum) in
                cols.iter().zip(v_k.chunks(tiles)).zip(row_sums.iter_mut())
            {
                let mut sum = 0;
                for (e, &x) in exp_cols.iter_mut().zip(v_row) {
                    let x = i64::from(x);
                    *e += col * x;
                    sum += x;
                }
                *row_sum = sum;
            }
            for (oc, (u_row, m_row)) in u_k.chunks(c).zip(m_k.chunks(tiles)).enumerate() {
                let mut sum = 0;
                for (a, &x) in act_cols.iter_mut().zip(m_row) {
                    *a += x;
                    sum += x;
                }
                // A single tile makes the product a GEMV: the column
                // checksum is its only invariant, as in `checked_gemm_i64`.
                if p > 1 {
                    let expected: i64 = u_row
                        .iter()
                        .zip(row_sums.iter())
                        .map(|(&w, &s)| i64::from(w) * s)
                        .sum();
                    exp_rows[k * o + oc] += i128::from(expected);
                    act_rows[k * o + oc] += i128::from(sum);
                }
            }
            if exp_cols != act_cols {
                return false;
            }
        }
        true
    }

    /// Expected output-guard column sums of one block's tiles, from the
    /// (clipped) products the gather will transform, lane by lane: for
    /// tiles cut by the image's bottom edge, over the rows the engine
    /// stores. `max_m` bounds the products.
    // wgft-audit: consensus-critical -- expectations of the fast engine's output-transform guards
    fn output_expectations(&mut self, block: &StageBlock<'_>, prod: &[i64], max_m: i64) -> bool {
        let plan = &self.plan;
        let variant = plan.variant();
        let (at, full) = (variant.at(), variant.at_col_sums());
        let (t, m) = (variant.input_tile(), variant.output_tile());
        let o = plan.shape().out_channels;
        let p = plan.num_tiles();
        let tiles = block.tiles;
        // Any sum of `Aᵀ` rows has `|·|₁` at most `|Aᵀ|₁`, which with the
        // largest row norm bounds every expectation, cut tiles' included.
        let row_abs = at
            .chunks(t)
            .map(|row| row.iter().map(|&a| i64::from(a).abs()).sum());
        let total_abs: i64 = at.iter().map(|&a| i64::from(a).abs()).sum();
        if !fits(row_abs.max().unwrap_or(0) * total_abs, max_m) {
            return false;
        }
        // Lane by lane over the block's `(O, tiles)` plane of each
        // coordinate: s[r] = Σ_q (eᵀAᵀ)[q] · M[q][r], then
        // exp[j] = Σ_r s[r] · Aᵀ[j][r].
        let plane = o * tiles;
        let FastBuffers {
            lanes,
            exp_cols,
            out_exp,
            ..
        } = &mut *self.buf;
        reset(lanes, t * plane);
        for (k, (q, r)) in (0..t * t).map(|k| (k, (k / t, k % t))) {
            let sum = full[q];
            if sum != 0 {
                let m_k = &prod[k * plane..(k + 1) * plane];
                for (sr, &x) in lanes[r * plane..(r + 1) * plane].iter_mut().zip(m_k) {
                    *sr += sum * x;
                }
            }
        }
        reset(exp_cols, plane);
        for (j, coef) in at.chunks(t).enumerate() {
            exp_cols.fill(0);
            for (r, &w) in coef.iter().enumerate() {
                let w = i64::from(w);
                if w != 0 {
                    for (e, &sr) in exp_cols.iter_mut().zip(&lanes[r * plane..(r + 1) * plane]) {
                        *e += w * sr;
                    }
                }
            }
            for (oc, exp) in exp_cols.chunks(tiles).enumerate() {
                out_exp[(oc * m + j) * p + block.first_tile..][..tiles].copy_from_slice(exp);
            }
        }
        // Tiles cut by the bottom edge sum fewer rows.
        let mut partial = [0i64; MAX_EDGE];
        let mut fibre = [0i64; MAX_EDGE * MAX_EDGE];
        let mut exp = [0i128; MAX_EDGE];
        for b in 0..tiles {
            let tile = block.first_tile + b;
            let (rows, cols) = stored_extent(plan, tile);
            if rows == m {
                continue;
            }
            partial.fill(0);
            for row in at[..rows * t].chunks(t) {
                for (s, &a) in partial.iter_mut().zip(row) {
                    *s += i64::from(a);
                }
            }
            for oc in 0..o {
                for (k, value) in fibre[..t * t].iter_mut().enumerate() {
                    *value = prod[(k * o + oc) * tiles + b];
                }
                guard_expected(at, &partial[..t], &fibre[..t * t], &mut exp[..cols]);
                for (j, &e) in exp[..cols].iter().enumerate() {
                    // Within the bound checked above, so it fits.
                    self.buf.out_exp[(oc * m + j) * p + tile] =
                        i64::try_from(e).unwrap_or(i64::MAX);
                }
            }
        }
        true
    }
}

/// Rows and columns of output tile `tile` that lie inside the image.
fn stored_extent(plan: &WinogradPlan, tile: usize) -> (usize, usize) {
    let g = plan.shape().geometry;
    let m = plan.variant().output_tile();
    let (ty, tx) = (tile / plan.tiles_x(), tile % plan.tiles_x());
    (m.min(g.out_h() - ty * m), m.min(g.out_w() - tx * m))
}

/// Output-transform guards of a whole layer: every stored tile column's
/// sum against its expectation. The column sums of a tile row run lane by
/// lane over the stored image row, in `i64` once `m·max|output|` is known
/// to fit.
// wgft-audit: consensus-critical -- verifies the fast engine's output transforms
fn output_guards_hold(
    plan: &WinogradPlan,
    out_exp: &[i64],
    output: &[i64],
    col_sums: &mut Vec<i64>,
) -> bool {
    let g = plan.shape().geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let m = plan.variant().output_tile();
    let (p, tiles_x) = (plan.num_tiles(), plan.tiles_x());
    if !fits(m as i64, max_abs(output)) {
        return false;
    }
    reset(col_sums, out_w);
    for (oc, channel) in output.chunks(out_h * out_w).enumerate() {
        for (ty, rows) in channel.chunks(m * out_w).enumerate() {
            col_sums.fill(0);
            for row in rows.chunks(out_w) {
                for (s, &x) in col_sums.iter_mut().zip(row) {
                    *s += x;
                }
            }
            for (x, &actual) in col_sums.iter().enumerate() {
                let (tx, j) = (x / m, x % m);
                if actual != out_exp[(oc * m + j) * p + ty * tiles_x + tx] {
                    return false;
                }
            }
        }
    }
    true
}

impl RangeStage for WinogradChecks<'_> {
    fn transformed_inputs(&mut self, block: &StageBlock<'_>, v: &mut [i32]) {
        if self.ok && self.run.mode.checks() {
            self.ok = self.input_guards(block, v);
        }
        if let Some(bound) = self.run.clip_bound(|r| r.v_max) {
            clip_slice(v, bound, &mut self.events);
        }
    }

    fn products(&mut self, block: &StageBlock<'_>, v: &[i32], prod: &mut [i64]) {
        let checks = self.ok && self.run.mode.checks();
        // Clipping only shrinks magnitudes, so the bound taken before it
        // covers the clipped products too.
        let max_m = if checks { max_abs(prod) } else { 0 };
        if checks {
            self.ok = self.gemm_checks(block, v, prod, max_m);
        }
        if let Some(bound) = self.run.clip_bound(|r| r.gemm_max) {
            clip_slice(prod, bound, &mut self.events);
        }
        if self.ok && checks {
            self.ok = self.output_expectations(block, prod, max_m);
        }
    }
}

/// Verify `out = a · b` (`a (m×k)`, `b (k×p)`, both as the fast engines
/// hold them) by the row and column checksums [`crate::checked_gemm_i64`]
/// forms — the column checksum alone when `p == 1` — and charge their
/// overhead. Returns whether every checksum held. The sums run in `i64`
/// under magnitude bounds that prove them exact; a product whose bounds do
/// not hold fails, like one whose checksums do not.
// wgft-audit: consensus-critical -- verifies the fast im2col and fully-connected GEMMs
#[allow(clippy::too_many_arguments)]
pub fn fast_gemm_ok(
    a: &[i32],
    b: &[i32],
    out: &[i64],
    m: usize,
    k: usize,
    p: usize,
    scratch: &mut AbftScratch,
    events: &mut AbftEvents,
) -> bool {
    events.overhead += clean_check_charge(m, k, p);
    let (a, b, out) = (&a[..m * k], &b[..k * p], &out[..m * p]);
    let buf = &mut scratch.fast;
    reset(&mut buf.col_sums, k);
    let mut row_bound = 0i64;
    for row in a.chunks(k) {
        for (sum, &x) in buf.col_sums.iter_mut().zip(row) {
            *sum += i64::from(x);
        }
        row_bound = row_bound.max(row.iter().map(|&x| i64::from(x).abs()).sum());
    }
    let col_bound: i64 = buf.col_sums.iter().map(|s| s.abs()).sum();
    let (max_b, max_out) = (max_abs(b), max_abs(out));
    if !fits(col_bound, max_b) || !fits(m.max(p) as i64, max_out) {
        return false;
    }
    // Column checksums: Σ_o out[o][j] == Σ_q (eᵀa)[q] · b[q][j].
    reset(&mut buf.exp_cols, p);
    reset(&mut buf.act_cols, p);
    for (&col, b_row) in buf.col_sums.iter().zip(b.chunks(p)) {
        for (e, &x) in buf.exp_cols.iter_mut().zip(b_row) {
            *e += col * i64::from(x);
        }
    }
    for out_row in out.chunks(p) {
        for (s, &x) in buf.act_cols.iter_mut().zip(out_row) {
            *s += x;
        }
    }
    if buf.exp_cols != buf.act_cols {
        return false;
    }
    if p == 1 {
        return true;
    }
    // Row checksums: Σ_j out[o][j] == Σ_q a[o][q] · (b e)[q].
    if !fits(row_bound, p as i64 * max_b) {
        return false;
    }
    reset(&mut buf.row_sums, k);
    for (sum, b_row) in buf.row_sums.iter_mut().zip(b.chunks(p)) {
        *sum = b_row.iter().map(|&x| i64::from(x)).sum();
    }
    a.chunks(k).zip(out.chunks(p)).all(|(a_row, out_row)| {
        let exp: i64 = a_row
            .iter()
            .zip(&buf.row_sums)
            .map(|(&x, &s)| i64::from(x) * s)
            .sum();
        exp == out_row.iter().sum::<i64>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{abft_direct_conv, abft_winograd_conv, clip_accumulators};
    use crate::policy::{AbftMode, LayerRanges};
    use wgft_faultsim::ExactArithmetic;
    use wgft_tensor::{gemm_i32, im2col_quantized, ConvGeometry};
    use wgft_winograd::{
        transform_weights_f32, ConvShape, PreparedConvQuantizedFast, WinogradVariant,
        WinogradWeights,
    };

    /// A 2→3 channel layer on 7x7 images (ragged edge tiles for every
    /// variant), integer winograd weights, and two inputs of different
    /// scale: ranges calibrated on the small one clip the large one.
    fn fixture(variant: WinogradVariant) -> (ConvShape, Vec<i32>, Vec<i32>, WinogradWeights) {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(7, 3, 1, 1));
        let input = |scale: i32| -> Vec<i32> {
            (0..shape.input_len())
                .map(|i| scale * (((i * 7 % 23) as i32) - 11))
                .collect()
        };
        let weights_q: Vec<i32> = (0..shape.weight_len())
            .map(|i| 4 * (((i * 5 % 9) as i32) - 4))
            .collect();
        let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
        let u = transform_weights_f32(&weights_f, 3, 2, variant).unwrap();
        let wino =
            WinogradWeights::new(variant, 3, 2, u.iter().map(|&x| x.round() as i32).collect())
                .unwrap();
        (shape, input(1), input(3), wino)
    }

    fn run(mode: AbftMode, ranges: &LayerRanges) -> AbftRun<'_> {
        AbftRun {
            mode,
            recompute: true,
            margin: 1.0,
            ranges: Some(ranges),
        }
    }

    /// A stage that corrupts one `V` or `M` word before the checks see it;
    /// with `m_swap` the `M` corruption moves one unit to the next output
    /// channel of the same tile instead, which keeps every column checksum
    /// and leaves the row checksums to notice.
    struct Corrupting<'a> {
        checks: WinogradChecks<'a>,
        v_word: Option<usize>,
        m_word: Option<usize>,
        m_swap: bool,
    }

    impl RangeStage for Corrupting<'_> {
        fn transformed_inputs(&mut self, block: &StageBlock<'_>, v: &mut [i32]) {
            if let Some(i) = self.v_word.take() {
                v[i] += 1;
            }
            self.checks.transformed_inputs(block, v);
        }

        fn products(&mut self, block: &StageBlock<'_>, v: &[i32], prod: &mut [i64]) {
            if let Some(i) = self.m_word.take() {
                prod[i] -= 1;
                if self.m_swap {
                    prod[i + block.tiles] += 1;
                }
            }
            self.checks.products(block, v, prod);
        }
    }

    /// Every variant and mode: the fast engine plus its checks yields the
    /// instrumented executor's accumulators and events exactly — clipping
    /// of `V`, `M` and the accumulators included — and every check holds.
    #[test]
    fn fast_winograd_checks_reproduce_the_instrumented_executor() {
        for variant in WinogradVariant::all() {
            let (shape, small, large, wino) = fixture(variant);
            let mut ranges = LayerRanges::default();
            abft_winograd_conv(
                &mut ExactArithmetic::new(),
                0,
                &small,
                &wino,
                &shape,
                &mut AbftScratch::new(),
                AbftRun::off(),
                Some(&mut ranges),
                &mut AbftEvents::new(),
            )
            .unwrap();
            for mode in [AbftMode::Range, AbftMode::Checksum, AbftMode::ChecksumRange] {
                let mut want_events = AbftEvents::new();
                let want = abft_winograd_conv(
                    &mut ExactArithmetic::new(),
                    0,
                    &large,
                    &wino,
                    &shape,
                    &mut AbftScratch::new(),
                    run(mode, &ranges),
                    None,
                    &mut want_events,
                )
                .unwrap();
                let mut engine = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();
                let mut scratch = AbftScratch::new();
                let mut out = vec![0i64; shape.output_len()];
                let mut events = AbftEvents::new();
                let mut checks =
                    WinogradChecks::new(*engine.plan(), &large, run(mode, &ranges), &mut scratch);
                engine
                    .execute_into_staged(&large, &mut out, &mut checks)
                    .unwrap();
                assert!(checks.finish(&out, &mut events), "{variant} {mode}");
                clip_accumulators(&mut out, &run(mode, &ranges), &mut events);
                assert_eq!(out, want, "{variant} {mode}");
                assert_eq!(events, want_events, "{variant} {mode}");
                if mode.clips() {
                    assert!(
                        events.clipped > 0,
                        "{variant} {mode}: the fixture must clip"
                    );
                }
            }
        }
    }

    /// No check is decorative: one corrupted word of `V`, of `M` or of the
    /// output accumulators, or a unit moved between two `M` words of one
    /// tile, fails the layer's checks, for every variant.
    #[test]
    fn a_corrupted_word_fails_the_fast_winograd_checks() {
        for variant in WinogradVariant::all() {
            let (shape, input, _, wino) = fixture(variant);
            let ranges = LayerRanges::default();
            let mut engine = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();
            let p = engine.plan().num_tiles();
            let (c, o) = (shape.in_channels, shape.out_channels);
            let t2 = variant.input_tile() * variant.input_tile();
            let mut scratch = AbftScratch::new();
            for word in [0, t2 * c * p / 2, t2 * c * p - 1] {
                let mut stage = Corrupting {
                    checks: WinogradChecks::new(
                        *engine.plan(),
                        &input,
                        run(AbftMode::Checksum, &ranges),
                        &mut scratch,
                    ),
                    v_word: Some(word),
                    m_word: None,
                    m_swap: false,
                };
                let mut out = vec![0i64; shape.output_len()];
                engine
                    .execute_into_staged(&input, &mut out, &mut stage)
                    .unwrap();
                assert!(
                    !stage.checks.finish(&out, &mut AbftEvents::new()),
                    "{variant}: V word {word}"
                );
            }
            // The fixture's layer runs as one block of all `p` tiles.
            let swapped = (t2 / 2 * o) * p + 1;
            for (word, m_swap) in [
                (0, false),
                (t2 * o * p / 2, false),
                (t2 * o * p - 1, false),
                (swapped, true),
            ] {
                let mut stage = Corrupting {
                    checks: WinogradChecks::new(
                        *engine.plan(),
                        &input,
                        run(AbftMode::Checksum, &ranges),
                        &mut scratch,
                    ),
                    v_word: None,
                    m_word: Some(word),
                    m_swap,
                };
                let mut out = vec![0i64; shape.output_len()];
                engine
                    .execute_into_staged(&input, &mut out, &mut stage)
                    .unwrap();
                assert!(
                    !stage.checks.finish(&out, &mut AbftEvents::new()),
                    "{variant}: M word {word}"
                );
            }
            for word in [0, shape.output_len() / 2, shape.output_len() - 1] {
                let mut checks = WinogradChecks::new(
                    *engine.plan(),
                    &input,
                    run(AbftMode::Checksum, &ranges),
                    &mut scratch,
                );
                let mut out = vec![0i64; shape.output_len()];
                engine
                    .execute_into_staged(&input, &mut out, &mut checks)
                    .unwrap();
                out[word] += 1 << 40;
                assert!(
                    !checks.finish(&out, &mut AbftEvents::new()),
                    "{variant}: output word {word}"
                );
            }
        }
    }

    /// The im2col GEMM check: a clean product holds and charges what
    /// `checked_gemm_i64` charges; one corrupted word fails it, in the
    /// checksummed GEMM (`p > 1`) and the GEMV (`p == 1`) forms.
    #[test]
    fn fast_gemm_check_holds_clean_and_fails_corrupted() {
        for size in [5usize, 1] {
            let shape = ConvShape::new(2, 3, ConvGeometry::square(size, 3, 1, 1));
            let input: Vec<i32> = (0..shape.input_len())
                .map(|i| ((i * 11 % 19) as i32) - 9)
                .collect();
            let weights: Vec<i32> = (0..shape.weight_len())
                .map(|i| ((i * 3 % 13) as i32) - 6)
                .collect();
            let g = &shape.geometry;
            let (o, k, p) = (3, 2 * 9, g.out_pixels());
            let mut want_events = AbftEvents::new();
            let want = abft_direct_conv(
                &mut ExactArithmetic::new(),
                0,
                &input,
                &weights,
                &shape,
                &mut AbftScratch::new(),
                AbftRun {
                    mode: AbftMode::Checksum,
                    ..AbftRun::off()
                },
                None,
                &mut want_events,
            )
            .unwrap();
            let mut patches = Vec::new();
            im2col_quantized(&input, 2, g, &mut patches);
            let mut out = vec![0i64; o * p];
            gemm_i32(&weights, &patches, &mut out, o, k, p);
            assert_eq!(out, want);
            let mut scratch = AbftScratch::new();
            let mut events = AbftEvents::new();
            assert!(fast_gemm_ok(
                &weights,
                &patches,
                &out,
                o,
                k,
                p,
                &mut scratch,
                &mut events
            ));
            assert_eq!(events, want_events, "size {size}");
            for word in [0, out.len() - 1] {
                let mut bad = out.clone();
                bad[word] ^= 1 << 33;
                assert!(!fast_gemm_ok(
                    &weights,
                    &patches,
                    &bad,
                    o,
                    k,
                    p,
                    &mut scratch,
                    &mut AbftEvents::new()
                ));
            }
        }
    }
}
