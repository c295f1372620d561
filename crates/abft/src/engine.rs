//! Protected convolution / fully-connected executors: the instrumented
//! kernels restructured around checksummed GEMMs, transform guards and
//! range restriction.
//!
//! The protected winograd executor runs the same three stages as the
//! unprotected instrumented kernel — input transform `V = Bᵀ d B`,
//! winograd-domain multiply-accumulate, output transform `Y = Aᵀ M A` —
//! with every stage's primitive operations still issued through the
//! (faulty) [`Arithmetic`] backend. What changes is the shape of the middle
//! stage: the per-tile element-wise products are batched into the `t²`
//! GEMMs `U_k (O×C) · V_k (C×P)` that production winograd engines execute,
//! which is exactly the shape classic ABFT checksums wrap. The transforms
//! are linear too, so a checksum carried through `Bᵀ·B` / `Aᵀ·A` guards
//! them at `O(t²)` cost per tile.
//!
//! The protected standard-convolution executor performs the im2col
//! factorization — weights `(O × C·k²)` times patches `(C·k² × P)` — and
//! wraps that single GEMM; a real GEMM engine multiplies the padding zeros
//! too, so the operation count is the dense `O·C·k²·P` rather than the
//! scalar kernel's padding-skipping count.

use crate::checksum::{checked_gemm_i64, plain_gemm_i64};
use crate::fast::FastBuffers;
use crate::policy::{AbftCalibration, AbftEvents, AbftMode, AbftPolicy, LayerRanges};
use wgft_faultsim::{Arithmetic, OpCount};
use wgft_winograd::{
    integer_transform, ConvShape, MatrixSide, WinogradError, WinogradScratch, WinogradWeights,
};

/// Largest transform edge `t` of any supported tile variant (F(6x6,3x3)).
pub(crate) const MAX_EDGE: usize = 8;

/// Per-layer protection parameters, resolved from an
/// [`crate::AbftPolicy`] by the caller.
#[derive(Debug, Clone, Copy)]
pub struct AbftRun<'a> {
    /// The layer's protection mode.
    pub mode: AbftMode,
    /// Whether uncorrectable detections trigger a recompute.
    pub recompute: bool,
    /// Headroom multiplier for range clipping.
    pub margin: f64,
    /// Calibrated ranges of this layer (`None` disables clipping even in a
    /// clipping mode).
    pub ranges: Option<&'a LayerRanges>,
}

impl<'a> AbftRun<'a> {
    /// The run `policy` prescribes for compute layer `layer`, clipping
    /// against that layer's ranges in `calibration` (none without one).
    #[must_use]
    pub fn for_layer(
        policy: &AbftPolicy,
        calibration: Option<&'a AbftCalibration>,
        layer: usize,
    ) -> Self {
        Self {
            mode: policy.mode_for(layer),
            recompute: policy.recompute_on_detect,
            margin: policy.range_margin,
            ranges: calibration.and_then(|c| c.layer(layer)),
        }
    }

    /// The clipping bound of one range stage (`pick` selects its
    /// calibrated maximum), or `None` when this run does not clip.
    pub(crate) fn clip_bound(&self, pick: impl Fn(&LayerRanges) -> i64) -> Option<i64> {
        if !self.mode.clips() {
            return None;
        }
        self.ranges
            .map(|ranges| LayerRanges::bound(pick(ranges), self.margin))
    }
}

impl AbftRun<'_> {
    /// An unprotected run (used by calibration passes).
    #[must_use]
    pub fn off() -> Self {
        Self {
            mode: AbftMode::Off,
            recompute: false,
            margin: 1.0,
            ranges: None,
        }
    }
}

/// Reusable buffers for the protected executors (plus an embedded
/// [`WinogradScratch`] so `Off`-mode layers can run the stock instrumented
/// kernel without a second scratch object).
#[derive(Debug, Clone, Default)]
pub struct AbftScratch {
    /// Scratch for unprotected (`Off`-mode) winograd layers.
    pub wino: WinogradScratch,
    /// Scattered winograd-domain inputs, `(t², C, P)`.
    v: Vec<i64>,
    /// Winograd-domain GEMM products, `(t², O, P)`.
    m: Vec<i64>,
    /// Raw input tile, `t×t`.
    d: Vec<i64>,
    /// Transform intermediate, `t×t` (and `m×t` on the output side).
    tmp: Vec<i64>,
    /// One transformed tile, `t×t`.
    vtile: Vec<i64>,
    /// Per-coordinate weight matrix, `O×C`.
    u_k: Vec<i64>,
    /// One winograd-domain fibre, `t×t`.
    fibre: Vec<i64>,
    /// One output tile, `m×m`.
    y: Vec<i64>,
    /// im2col patch matrix for the standard path, `(C·k², P)`.
    im2col: Vec<i64>,
    /// Widened weight matrix for the standard/linear paths.
    a_mat: Vec<i64>,
    /// Buffers of the fault-free checks on the fast engines.
    pub(crate) fast: FastBuffers,
}

impl AbftScratch {
    /// Fresh scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare_wino(&mut self, t: usize, m: usize, c: usize, o: usize, p: usize) {
        let t2 = t * t;
        resize(&mut self.v, t2 * c * p);
        resize(&mut self.m, t2 * o * p);
        resize(&mut self.d, t2);
        resize(&mut self.tmp, t2.max(m * t));
        resize(&mut self.vtile, t2);
        resize(&mut self.u_k, o * c);
        resize(&mut self.fibre, t2);
        resize(&mut self.y, m * m);
    }
}

fn resize(buf: &mut Vec<i64>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Executed-op delta of one layer between two counter snapshots (used to
/// charge recomputed transforms to the overhead tally exactly).
fn ops_since(arith: &impl Arithmetic, layer: usize, before: OpCount) -> OpCount {
    let now = arith.counters().layer(layer).executed;
    OpCount {
        mul: now.mul - before.mul,
        add: now.add - before.add,
    }
}

/// Overhead of one transform guard over `Coef (rows×inner)`: the
/// data-dependent products `(eᵀCoef)·data` and `s·Coefᵀ`, their sums, the
/// actual column sums and the comparisons.
pub(crate) fn guard_charge(rows: usize, inner: usize) -> OpCount {
    let (r, i) = (rows as u64, inner as u64);
    OpCount {
        mul: i * i + r * i,
        add: i * i.saturating_sub(1) + r * i.saturating_sub(1) + r * r.saturating_sub(1) + r,
    }
}

/// Expected column sums of a guarded transform `Coef · data · Coefᵀ`
/// (`data` is `inner×inner`): `exp[j] = ((sums · data) · Coefᵀ)[j]` for
/// the result columns `j < exp.len()`, where `sums` is `eᵀ` over the
/// result rows being summed times `Coef` (the variant's constant
/// [`wgft_winograd::WinogradVariant::bt_col_sums`] /
/// [`wgft_winograd::WinogradVariant::at_col_sums`] when every row
/// counts). Exact: accumulated in `i128`, so struck words near the `i64`
/// extremes cannot overflow it.
// wgft-audit: consensus-critical -- the transform-guard invariant both ABFT datapaths verify
pub(crate) fn guard_expected(coef: &[i32], sums: &[i64], data: &[i64], exp: &mut [i128]) {
    let inner = sums.len();
    let mut s = [0i128; MAX_EDGE];
    for (q, &c) in sums.iter().enumerate() {
        if c != 0 {
            for (sr, &d) in s.iter_mut().zip(&data[q * inner..(q + 1) * inner]) {
                *sr += i128::from(c) * i128::from(d);
            }
        }
    }
    for (j, e) in exp.iter_mut().enumerate() {
        *e = s[..inner]
            .iter()
            .zip(&coef[j * inner..(j + 1) * inner])
            .map(|(&sr, &c)| sr * i128::from(c))
            .sum();
    }
}

/// Verify the column-checksum invariant of `result = Coef · data · Coefᵀ`
/// with `Coef (rows×inner)`, `data (inner×inner)`, `result (rows×rows)`:
/// the column sums of `result` must equal `(eᵀ Coef) · data · Coefᵀ`
/// (`sums` = `eᵀ Coef`, constant per variant), computed on hardened
/// arithmetic and charged to the overhead tally.
fn transform_guard_ok(
    coef: &[i32],
    sums: &[i64],
    rows: usize,
    data: &[i64],
    result: &[i64],
    events: &mut AbftEvents,
) -> bool {
    let mut exp = [0i128; MAX_EDGE];
    guard_expected(coef, sums, data, &mut exp[..rows]);
    let ok = exp[..rows].iter().enumerate().all(|(j, &e)| {
        let actual: i128 = (0..rows).map(|i| i128::from(result[i * rows + j])).sum();
        actual == e
    });
    events.overhead += guard_charge(rows, sums.len());
    ok
}

/// Clamp every value to `±bound`, charging one comparator (counted as an
/// add) per element and recording clip events.
// wgft-audit: consensus-critical -- range restriction of both ABFT datapaths
pub(crate) fn clip_slice<T>(values: &mut [T], bound: i64, events: &mut AbftEvents)
where
    T: Copy + Into<i64> + TryFrom<i64>,
{
    let mut clipped = 0;
    for v in values.iter_mut() {
        let x: i64 = (*v).into();
        let clamped = x.clamp(-bound, bound);
        clipped += u64::from(clamped != x);
        // `bound ≥ 1`, so the clamped value lies between `x` and zero and
        // fits whatever word held `x`.
        *v = T::try_from(clamped).unwrap_or(*v);
    }
    events.clipped += clipped;
    events.charge(0, values.len() as u64);
}

/// Max |value| of a slice of accumulator-domain words, saturating at
/// `i64::MAX` — the observation the calibration recorders fold into
/// [`LayerRanges`]. Public so the fast uninstrumented calibration pass
/// (`QuantizedNetwork::calibrate_abft`) observes *exactly* the same
/// quantity as the instrumented recorders here.
#[must_use]
pub fn observe_max(values: &[i64]) -> i64 {
    values
        .iter()
        .map(|v| v.unsigned_abs().min(i64::MAX as u64) as i64)
        .max()
        .unwrap_or(0)
}

/// A guarded instrumented transform `out = Coef · data · Coefᵀ` with
/// recompute-on-detect: the transform runs through the faulty backend, the
/// guard runs on hardened arithmetic, and a failed guard re-runs the
/// transform once (charging its ops to the overhead tally).
#[allow(clippy::too_many_arguments)]
fn guarded_transform<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    coef: &[i32],
    sums: &[i64],
    rows: usize,
    inner: usize,
    data: &[i64],
    tmp: &mut [i64],
    out: &mut [i64],
    run: &AbftRun<'_>,
    events: &mut AbftEvents,
) {
    let apply = |arith: &mut A, tmp: &mut [i64], out: &mut [i64]| {
        integer_transform(arith, coef, data, tmp, rows, inner, inner, MatrixSide::Left);
        integer_transform(
            arith,
            coef,
            tmp,
            out,
            rows,
            inner,
            rows,
            MatrixSide::RightTransposed,
        );
    };
    apply(arith, tmp, out);
    if !run.mode.checks() {
        return;
    }
    if transform_guard_ok(coef, sums, rows, data, out, events) {
        return;
    }
    events.detected += 1;
    if !run.recompute {
        events.uncorrected += 1;
        return;
    }
    // Same bounded retry loop as the checksummed GEMM: the recompute runs
    // on the faulty backend and may be struck again.
    for _ in 0..crate::checksum::MAX_RECOMPUTES {
        events.recomputes += 1;
        let before = arith.counters().layer(layer).executed;
        apply(arith, tmp, out);
        let delta = ops_since(arith, layer, before);
        events.charge(delta.mul, delta.add);
        if transform_guard_ok(coef, sums, rows, data, out, events) {
            events.corrected += 1;
            return;
        }
    }
    events.uncorrected += 1;
}

/// Protected (or calibrating) winograd convolution: same contract as
/// [`wgft_winograd::winograd_conv_quantized_with_scratch`] — raw quantized
/// input words in, wide accumulators out — with the protection described in
/// the module docs applied according to `run`.
///
/// When `record` is given, fault-free value maxima of every stage are folded
/// into it (the calibration pass that range restriction feeds on).
///
/// # Errors
///
/// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3 or strided
/// convolutions and [`WinogradError::BufferSizeMismatch`] for wrong buffer
/// lengths.
#[allow(clippy::too_many_arguments)]
pub fn abft_winograd_conv<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &WinogradWeights,
    shape: &ConvShape,
    scratch: &mut AbftScratch,
    run: AbftRun<'_>,
    mut record: Option<&mut LayerRanges>,
    events: &mut AbftEvents,
) -> Result<Vec<i64>, WinogradError> {
    let g = &shape.geometry;
    if !g.is_unit_stride_3x3() {
        return Err(WinogradError::UnsupportedGeometry {
            kernel: g.k_h,
            stride: g.stride,
        });
    }
    if input.len() != shape.input_len() {
        return Err(WinogradError::BufferSizeMismatch {
            what: "input",
            expected: shape.input_len(),
            actual: input.len(),
        });
    }
    if weights.out_channels() != shape.out_channels || weights.in_channels() != shape.in_channels {
        return Err(WinogradError::BufferSizeMismatch {
            what: "winograd weight",
            expected: shape.out_channels * shape.in_channels,
            actual: weights.out_channels() * weights.in_channels(),
        });
    }
    arith.begin_layer(layer);
    let variant = weights.variant();
    let t = variant.input_tile();
    let t2 = t * t;
    let mt = variant.output_tile();
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let tiles_y = out_h.div_ceil(mt);
    let tiles_x = out_w.div_ceil(mt);
    let p = tiles_y * tiles_x;
    let (o, c) = (shape.out_channels, shape.in_channels);
    let bt = variant.bt();
    let at = variant.at();
    let pad = g.padding as isize;
    scratch.prepare_wino(t, mt, c, o, p);
    let AbftScratch {
        v,
        m,
        d,
        tmp,
        vtile,
        u_k,
        fibre,
        y,
        ..
    } = scratch;

    // ---- Input transform + guard, scattered into the (t², C, P) layout.
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let tile = ty * tiles_x + tx;
            for ic in 0..c {
                for dy in 0..t {
                    for dx in 0..t {
                        let iy = (ty * mt + dy) as isize - pad;
                        let ix = (tx * mt + dx) as isize - pad;
                        d[dy * t + dx] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < g.in_h
                            && (ix as usize) < g.in_w
                        {
                            i64::from(input[(ic * g.in_h + iy as usize) * g.in_w + ix as usize])
                        } else {
                            0
                        };
                    }
                }
                guarded_transform(
                    arith,
                    layer,
                    bt,
                    variant.bt_col_sums(),
                    t,
                    t,
                    d,
                    &mut tmp[..t2],
                    vtile,
                    &run,
                    events,
                );
                for (k, &value) in vtile.iter().enumerate() {
                    v[(k * c + ic) * p + tile] = value;
                }
            }
        }
    }
    if let Some(record) = record.as_deref_mut() {
        record.v_max = record.v_max.max(observe_max(v));
    }
    if let Some(bound) = run.clip_bound(|r| r.v_max) {
        clip_slice(v, bound, events);
    }

    // ---- The t² winograd-domain GEMMs, checksummed when requested.
    for k in 0..t2 {
        let data = weights.data();
        for oc in 0..o {
            for ic in 0..c {
                u_k[oc * c + ic] = i64::from(data[(oc * c + ic) * t2 + k]);
            }
        }
        let b_k = &v[k * c * p..(k + 1) * c * p];
        let out_k = &mut m[k * o * p..(k + 1) * o * p];
        if run.mode.checks() {
            checked_gemm_i64(arith, u_k, b_k, out_k, o, c, p, run.recompute, events);
        } else {
            plain_gemm_i64(arith, u_k, b_k, out_k, o, c, p);
        }
    }
    if let Some(record) = record.as_deref_mut() {
        record.gemm_max = record.gemm_max.max(observe_max(m));
    }
    if let Some(bound) = run.clip_bound(|r| r.gemm_max) {
        clip_slice(m, bound, events);
    }

    // ---- Output transform + guard, gathered back to pixels.
    let mut output = vec![0i64; shape.output_len()];
    for oc in 0..o {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let tile = ty * tiles_x + tx;
                for (k, value) in fibre.iter_mut().enumerate() {
                    *value = m[(k * o + oc) * p + tile];
                }
                guarded_transform(
                    arith,
                    layer,
                    at,
                    variant.at_col_sums(),
                    mt,
                    t,
                    fibre,
                    &mut tmp[..mt * t],
                    y,
                    &run,
                    events,
                );
                for dy in 0..mt {
                    for dx in 0..mt {
                        let oy = ty * mt + dy;
                        let ox = tx * mt + dx;
                        if oy < out_h && ox < out_w {
                            output[(oc * out_h + oy) * out_w + ox] = y[dy * mt + dx];
                        }
                    }
                }
            }
        }
    }
    finish_accumulators(&mut output, &run, record, events);
    Ok(output)
}

/// Protected standard convolution via the im2col GEMM factorization: the
/// weight matrix `(O × C·k²)` times the patch matrix `(C·k² × P)`, wrapped
/// in row/column checksums. Same contract as
/// [`wgft_winograd::direct_conv_quantized`] (raw words in, accumulators
/// out); the op count is the dense GEMM's — padding taps are multiplied as
/// zeros rather than skipped, as a matrix engine would.
///
/// # Errors
///
/// Returns [`WinogradError::BufferSizeMismatch`] for wrong buffer lengths.
#[allow(clippy::too_many_arguments)]
pub fn abft_direct_conv<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &[i32],
    shape: &ConvShape,
    scratch: &mut AbftScratch,
    run: AbftRun<'_>,
    record: Option<&mut LayerRanges>,
    events: &mut AbftEvents,
) -> Result<Vec<i64>, WinogradError> {
    let g = &shape.geometry;
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
    arith.begin_layer(layer);
    let p = g.out_pixels();
    let o = shape.out_channels;
    let kdim = shape.in_channels * g.k_h * g.k_w;
    resize(&mut scratch.a_mat, o * kdim);
    for (dst, &w) in scratch.a_mat.iter_mut().zip(weights.iter()) {
        *dst = i64::from(w);
    }
    wgft_tensor::im2col(input, shape.in_channels, g, &mut scratch.im2col);
    let mut output = vec![0i64; shape.output_len()];
    if run.mode.checks() {
        checked_gemm_i64(
            arith,
            &scratch.a_mat,
            &scratch.im2col,
            &mut output,
            o,
            kdim,
            p,
            run.recompute,
            events,
        );
    } else {
        plain_gemm_i64(
            arith,
            &scratch.a_mat,
            &scratch.im2col,
            &mut output,
            o,
            kdim,
            p,
        );
    }
    finish_accumulators(&mut output, &run, record, events);
    Ok(output)
}

/// Protected fully-connected layer: the `(out_features × in_features)`
/// weight matrix times the input vector, with the GEMV column-checksum
/// (detect + recompute) applied in checksummed modes. Returns raw
/// accumulators; the caller adds bias and requantizes exactly like the
/// unprotected path.
#[allow(clippy::too_many_arguments)]
pub fn abft_linear<A: Arithmetic>(
    arith: &mut A,
    layer: usize,
    input: &[i32],
    weights: &[i32],
    in_features: usize,
    out_features: usize,
    scratch: &mut AbftScratch,
    run: AbftRun<'_>,
    record: Option<&mut LayerRanges>,
    events: &mut AbftEvents,
) -> Vec<i64> {
    arith.begin_layer(layer);
    resize(&mut scratch.a_mat, out_features * in_features);
    for (dst, &w) in scratch.a_mat.iter_mut().zip(weights.iter()) {
        *dst = i64::from(w);
    }
    resize(&mut scratch.im2col, in_features);
    for (dst, &x) in scratch.im2col.iter_mut().zip(input.iter()) {
        *dst = i64::from(x);
    }
    let mut output = vec![0i64; out_features];
    if run.mode.checks() {
        checked_gemm_i64(
            arith,
            &scratch.a_mat,
            &scratch.im2col,
            &mut output,
            out_features,
            in_features,
            1,
            run.recompute,
            events,
        );
    } else {
        plain_gemm_i64(
            arith,
            &scratch.a_mat,
            &scratch.im2col,
            &mut output,
            out_features,
            in_features,
            1,
        );
    }
    finish_accumulators(&mut output, &run, record, events);
    output
}

/// Record and/or clip a layer's output accumulators.
fn finish_accumulators(
    output: &mut [i64],
    run: &AbftRun<'_>,
    record: Option<&mut LayerRanges>,
    events: &mut AbftEvents,
) {
    if let Some(record) = record {
        record.acc_max = record.acc_max.max(observe_max(output));
    }
    clip_accumulators(output, run, events);
}

/// Range-restrict a layer's output accumulators as `run` prescribes (a
/// no-op unless it clips) — shared by the instrumented executors and the
/// fault-free fast path.
pub fn clip_accumulators(output: &mut [i64], run: &AbftRun<'_>, events: &mut AbftEvents) {
    if let Some(bound) = run.clip_bound(|r| r.acc_max) {
        clip_slice(output, bound, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_faultsim::{BitErrorRate, ExactArithmetic, FaultConfig, FaultyArithmetic};
    use wgft_fixedpoint::BitWidth;
    use wgft_tensor::ConvGeometry;
    use wgft_winograd::{
        direct_conv_quantized, transform_weights_f32, winograd_conv_quantized, WinogradVariant,
        F2X2_3X3,
    };

    fn wino_fixture(variant: WinogradVariant) -> (ConvShape, Vec<i32>, WinogradWeights) {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(6, 3, 1, 1));
        let input: Vec<i32> = (0..shape.input_len())
            .map(|i| ((i * 7 % 23) as i32) - 11)
            .collect();
        let weights_q: Vec<i32> = (0..shape.weight_len())
            .map(|i| 4 * (((i * 5 % 9) as i32) - 4))
            .collect();
        let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
        let u = transform_weights_f32(&weights_f, 3, 2, variant).unwrap();
        let wino =
            WinogradWeights::new(variant, 3, 2, u.iter().map(|&x| x.round() as i32).collect())
                .unwrap();
        (shape, input, wino)
    }

    /// The protected executor is tile-generic: for every variant, every
    /// mode's fault-free output must equal the stock kernel's exactly.
    #[test]
    fn fault_free_protected_winograd_matches_unprotected_exactly() {
        for variant in WinogradVariant::all() {
            let (shape, input, wino) = wino_fixture(variant);
            let mut exact = ExactArithmetic::new();
            let reference = winograd_conv_quantized(&mut exact, 0, &input, &wino, &shape).unwrap();
            for mode in [AbftMode::Off, AbftMode::Checksum, AbftMode::ChecksumRange] {
                let mut arith = ExactArithmetic::new();
                let mut scratch = AbftScratch::new();
                let mut events = AbftEvents::new();
                let mut ranges = LayerRanges::default();
                // Calibrate first so clipping modes have real bounds.
                let mut cal_arith = ExactArithmetic::new();
                abft_winograd_conv(
                    &mut cal_arith,
                    0,
                    &input,
                    &wino,
                    &shape,
                    &mut scratch,
                    AbftRun::off(),
                    Some(&mut ranges),
                    &mut AbftEvents::new(),
                )
                .unwrap();
                let run = AbftRun {
                    mode,
                    recompute: true,
                    margin: 2.0,
                    ranges: Some(&ranges),
                };
                let out = abft_winograd_conv(
                    &mut arith,
                    0,
                    &input,
                    &wino,
                    &shape,
                    &mut scratch,
                    run,
                    None,
                    &mut events,
                )
                .unwrap();
                assert_eq!(
                    out, reference,
                    "{variant} {mode}: fault-free output must agree"
                );
                assert_eq!(
                    events.detected, 0,
                    "{variant} {mode}: zero false detections at BER 0"
                );
                assert_eq!(
                    events.clipped, 0,
                    "{variant} {mode}: calibrated range never clips clean values"
                );
            }
        }
    }

    #[test]
    fn protected_winograd_issues_the_same_backend_ops_as_unprotected() {
        // The backend-visible op sequence of the protected executor's Off
        // mode must match the GEMM-shaped schedule (counts, not order, are
        // compared to the stock kernel: same muls, same adds).
        let (shape, input, wino) = wino_fixture(F2X2_3X3);
        let mut stock = ExactArithmetic::new();
        winograd_conv_quantized(&mut stock, 0, &input, &wino, &shape).unwrap();
        let mut engine = ExactArithmetic::new();
        let mut scratch = AbftScratch::new();
        abft_winograd_conv(
            &mut engine,
            0,
            &input,
            &wino,
            &shape,
            &mut scratch,
            AbftRun::off(),
            None,
            &mut AbftEvents::new(),
        )
        .unwrap();
        assert_eq!(
            stock.counters().layer(0).executed,
            engine.counters().layer(0).executed,
            "same backend work, just batched into GEMMs"
        );
    }

    #[test]
    fn protected_direct_matches_scalar_direct_on_values() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(5, 3, 1, 1));
        let input: Vec<i32> = (0..shape.input_len())
            .map(|i| ((i * 11 % 19) as i32) - 9)
            .collect();
        let weights: Vec<i32> = (0..shape.weight_len())
            .map(|i| ((i * 3 % 13) as i32) - 6)
            .collect();
        let mut exact = ExactArithmetic::new();
        let reference = direct_conv_quantized(&mut exact, 0, &input, &weights, &shape).unwrap();
        let mut arith = ExactArithmetic::new();
        let mut scratch = AbftScratch::new();
        let mut events = AbftEvents::new();
        let run = AbftRun {
            mode: AbftMode::Checksum,
            recompute: true,
            margin: 2.0,
            ranges: None,
        };
        let out = abft_direct_conv(
            &mut arith,
            0,
            &input,
            &weights,
            &shape,
            &mut scratch,
            run,
            None,
            &mut events,
        )
        .unwrap();
        assert_eq!(out, reference, "im2col GEMM computes the same accumulators");
        assert_eq!(events.detected, 0);
    }

    /// Checksum + recompute must restore exact accumulators under a fault
    /// storm for every tile variant — the larger tiles have more GEMMs per
    /// output and therefore more checksummed surfaces.
    #[test]
    fn heavy_faults_are_detected_and_mostly_repaired() {
        for variant in WinogradVariant::all() {
            let (shape, input, wino) = wino_fixture(variant);
            // A BER high enough that the unprotected kernel is badly
            // corrupted, but low enough that single faults dominate each
            // GEMM. F(6x6,3x3) runs ~10x the operations per layer of
            // F(2x2,3x3) (64 winograd coordinates, 8x8 inverse transform),
            // so it gets a proportionally lower rate — at 2e-4 its
            // multi-fault GEMMs routinely exceed what locate-and-fix plus a
            // recompute under the *same* faulty arithmetic can repair.
            let ber = match variant {
                WinogradVariant::F6x6 => 2e-5,
                _ => 2e-4,
            };
            let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16);
            let mut unprotected = FaultyArithmetic::new(config.clone(), 4);
            let corrupted =
                winograd_conv_quantized(&mut unprotected, 0, &input, &wino, &shape).unwrap();
            let mut exact = ExactArithmetic::new();
            let truth = winograd_conv_quantized(&mut exact, 0, &input, &wino, &shape).unwrap();
            assert!(unprotected.faults_injected() > 0);
            assert_ne!(corrupted, truth, "unprotected execution must be corrupted");

            let mut protected = FaultyArithmetic::new(config, 4);
            let mut scratch = AbftScratch::new();
            let mut events = AbftEvents::new();
            let run = AbftRun {
                mode: AbftMode::Checksum,
                recompute: true,
                margin: 2.0,
                ranges: None,
            };
            let out = abft_winograd_conv(
                &mut protected,
                0,
                &input,
                &wino,
                &shape,
                &mut scratch,
                run,
                None,
                &mut events,
            )
            .unwrap();
            assert!(
                protected.faults_injected() > 0,
                "faults must actually strike"
            );
            assert!(events.detected > 0, "{variant}: strikes must be detected");
            assert_eq!(
                out, truth,
                "{variant}: checksum + recompute must restore the exact accumulators \
             (events: {events})"
            );
            assert_eq!(events.uncorrected, 0);
        }
    }

    #[test]
    fn range_restriction_clips_out_of_range_values() {
        let (shape, input, wino) = wino_fixture(F2X2_3X3);
        let mut ranges = LayerRanges::default();
        let mut scratch = AbftScratch::new();
        abft_winograd_conv(
            &mut ExactArithmetic::new(),
            0,
            &input,
            &wino,
            &shape,
            &mut scratch,
            AbftRun::off(),
            Some(&mut ranges),
            &mut AbftEvents::new(),
        )
        .unwrap();
        assert!(ranges.v_max > 0 && ranges.gemm_max > 0 && ranges.acc_max > 0);
        // Under a heavy fault storm, range-only protection clips.
        let config = FaultConfig::new(BitErrorRate::new(1e-3), BitWidth::W16);
        let mut arith = FaultyArithmetic::new(config, 5);
        let mut events = AbftEvents::new();
        let run = AbftRun {
            mode: AbftMode::Range,
            recompute: false,
            margin: 1.5,
            ranges: Some(&ranges),
        };
        let out = abft_winograd_conv(
            &mut arith,
            0,
            &input,
            &wino,
            &shape,
            &mut scratch,
            run,
            None,
            &mut events,
        )
        .unwrap();
        assert!(events.clipped > 0, "a fault storm must trip the clipper");
        assert_eq!(events.detected, 0, "range mode has no detector");
        let bound = LayerRanges::bound(ranges.acc_max, 1.5);
        assert!(out.iter().all(|&v| v.abs() <= bound));
    }

    /// Dense 16-bit faults under F(4x4) push struck transform results to
    /// the `i64` extremes, and the transform guard's column sums past
    /// them: with `i64` sums the guard panicked in debug builds (and
    /// wrapped in release, which can hide a detection or invent one). It
    /// accumulates in `i128`, like the GEMM checksums.
    #[test]
    fn transform_guards_survive_dense_w16_faults_past_i64() {
        use wgft_faultsim::FaultModel;
        let variant = WinogradVariant::F4x4;
        let shape = ConvShape::new(8, 8, ConvGeometry::square(12, 3, 1, 1));
        let input: Vec<i32> = (0..shape.input_len())
            .map(|i| ((i * 7919 % 65521) as i32) - 32760)
            .collect();
        let weights_f: Vec<f32> = (0..shape.weight_len())
            .map(|i| (576 * (((i * 5 % 9) as i32) - 4)) as f32)
            .collect();
        let u = transform_weights_f32(&weights_f, 8, 8, variant).unwrap();
        let wino =
            WinogradWeights::new(variant, 8, 8, u.iter().map(|&x| x.round() as i32).collect())
                .unwrap();
        let run = AbftRun {
            mode: AbftMode::ChecksumRange,
            recompute: true,
            margin: 2.0,
            ranges: None,
        };
        let mut detected = 0;
        for model in FaultModel::all() {
            let config = FaultConfig::new(BitErrorRate::new(1e-2), BitWidth::W16).with_model(model);
            for seed in 0..40 {
                let conv = || {
                    let mut arith = FaultyArithmetic::new(config.clone(), seed);
                    let mut events = AbftEvents::new();
                    let out = abft_winograd_conv(
                        &mut arith,
                        0,
                        &input,
                        &wino,
                        &shape,
                        &mut AbftScratch::new(),
                        run,
                        None,
                        &mut events,
                    )
                    .unwrap();
                    (out, events)
                };
                let (out, events) = conv();
                assert_eq!((out, events), conv(), "{model:?} seed {seed}");
                detected += events.detected;
            }
        }
        assert!(detected > 0, "dense faults must be detected");
    }

    #[test]
    fn protected_linear_detects_and_recomputes() {
        let (in_f, out_f) = (12, 5);
        let input: Vec<i32> = (0..in_f).map(|i| (i as i32 % 7) - 3).collect();
        let weights: Vec<i32> = (0..in_f * out_f).map(|i| (i as i32 % 5) - 2).collect();
        let mut scratch = AbftScratch::new();
        // Exact run for truth.
        let truth = abft_linear(
            &mut ExactArithmetic::new(),
            0,
            &input,
            &weights,
            in_f,
            out_f,
            &mut scratch,
            AbftRun::off(),
            None,
            &mut AbftEvents::new(),
        );
        // Faulty run with checksums: detection fires, recompute repairs (the
        // deterministic seed gives a quiet recompute at this rate).
        let config = FaultConfig::new(BitErrorRate::new(5e-3), BitWidth::W16);
        let mut arith = FaultyArithmetic::new(config, 3);
        let mut events = AbftEvents::new();
        let run = AbftRun {
            mode: AbftMode::Checksum,
            recompute: true,
            margin: 2.0,
            ranges: None,
        };
        let out = abft_linear(
            &mut arith,
            0,
            &input,
            &weights,
            in_f,
            out_f,
            &mut scratch,
            run,
            None,
            &mut events,
        );
        if events.detected > 0 {
            assert!(events.recomputes > 0);
        }
        if events.uncorrected == 0 {
            assert_eq!(out, truth);
        }
    }
}
