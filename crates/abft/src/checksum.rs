//! Checksummed GEMM: detect, locate and correct soft errors around the
//! matrix multiplies at the heart of both convolution algorithms.
//!
//! Classic algorithm-based fault tolerance (Huang & Abraham): for
//! `C = A · B` with `A (M×K)` and `B (K×P)`, maintain the column-checksum
//! vector `e^T A` and the row-sum vector `B e`. Linearity gives two
//! invariants over the product,
//!
//! ```text
//! row o:    Σ_j C[o][j]  ==  Σ_q A[o][q] · (B e)[q]
//! column j: Σ_o C[o][j]  ==  Σ_q (e^T A)[q] · B[q][j]
//! ```
//!
//! A single corrupted output element breaks exactly one row invariant and
//! one column invariant, which both *locates* the element and yields the
//! exact correction delta. Anything messier (multiple corrupted elements,
//! a fault inside an accumulation chain that smears) falls back to a
//! recompute of the whole product when the policy allows it.
//!
//! The checksum arithmetic itself runs on hardened (exact) arithmetic —
//! the standard ABFT hardware assumption — but its cost is charged, op by
//! op, to [`AbftEvents::overhead`] so protection is never free.
//!
//! The GEMM wraps the *instrumented* quantized datapath (the
//! fault-injection experiments), so the checksums are exact integers.

use crate::policy::AbftEvents;
use wgft_faultsim::{Arithmetic, OpCount};

/// Recompute attempts before a detection is abandoned as uncorrected: the
/// recompute runs on the same faulty hardware as the original, so it may be
/// struck again; retrying until the checksum verifies (bounded) is what a
/// real ABFT recovery loop does.
pub const MAX_RECOMPUTES: usize = 3;

/// Instrumented integer GEMM `out = a · b` with `a (m×k)`, `b (k×p)`: one
/// backend `mul` and one backend `add` per multiply-accumulate, exactly like
/// the direct and winograd kernels it stands in for.
pub fn plain_gemm_i64<A: Arithmetic>(
    arith: &mut A,
    a: &[i64],
    b: &[i64],
    out: &mut [i64],
    m: usize,
    k: usize,
    p: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * p);
    debug_assert_eq!(out.len(), m * p);
    for o in 0..m {
        let arow = &a[o * k..(o + 1) * k];
        for j in 0..p {
            let mut acc = 0i64;
            for (q, &av) in arow.iter().enumerate() {
                let product = arith.mul(av, b[q * p + j]);
                acc = arith.add(acc, product);
            }
            out[o * p + j] = acc;
        }
    }
}

/// Overhead of preparing the expected row and column checksums of an
/// `m×k · k×p` product: the `eᵀA` and `Be` sums and the two expectation
/// accumulations.
fn prepare_charge(m: usize, k: usize, p: usize) -> OpCount {
    let (m, k, p) = (m as u64, k as u64, p as u64);
    OpCount {
        mul: m * k + k * p,
        add: k * m.saturating_sub(1)
            + k * p.saturating_sub(1)
            + m * k.saturating_sub(1)
            + k.saturating_sub(1) * p,
    }
}

/// Overhead of one verification pass over an `m×p` product: its actual
/// row and column sums.
fn verify_charge(m: usize, p: usize) -> OpCount {
    let (m, p) = (m as u64, p as u64);
    OpCount {
        mul: 0,
        add: m * p.saturating_sub(1) + m.saturating_sub(1) * p,
    }
}

/// Overhead of the expected column checksum `(eᵀA)·b` of an `m×k` GEMV.
fn gemv_expected_charge(m: usize, k: usize) -> OpCount {
    let (m, k) = (m as u64, k as u64);
    OpCount {
        mul: k,
        add: k * m.saturating_sub(1) + k.saturating_sub(1),
    }
}

/// Overhead of one actual-sum pass over an `m`-element GEMV result.
fn gemv_actual_charge(m: usize) -> OpCount {
    OpCount {
        mul: 0,
        add: (m as u64).saturating_sub(1),
    }
}

/// Overhead [`checked_gemm_i64`] charges for an `m×k · k×p` product whose
/// first verification passes — the charge the fault-free fast checks
/// (`crate::fast`) account per product.
pub(crate) fn clean_check_charge(m: usize, k: usize, p: usize) -> OpCount {
    if p == 1 {
        gemv_expected_charge(m, k) + gemv_actual_charge(m)
    } else {
        prepare_charge(m, k, p) + verify_charge(m, p)
    }
}

/// Failing invariants of one verification pass: `(index, expected − actual)`
/// per bad row and per bad column.
type Mismatches = (Vec<(usize, i128)>, Vec<(usize, i128)>);

/// Exact (hardened) checksum state of one `m×k · k×p` product, with every
/// checksum operation charged to the overhead tally.
///
/// All checksum sums accumulate in `i128`: a row checksum is a sum of `K·P`
/// products of worst-case accumulator-domain magnitudes, which can exceed
/// `i64` even when every individual product element fits (e.g. winograd
/// accumulators near `2⁵⁶` summed over a few hundred tiles) — in a debug
/// build the old `i64` accumulation panicked on overflow, in release it
/// wrapped and could silently mask or invent detections.
struct GemmChecksums {
    exp_row: Vec<i128>,
    exp_col: Vec<i128>,
}

impl GemmChecksums {
    fn prepare(
        a: &[i64],
        b: &[i64],
        m: usize,
        k: usize,
        p: usize,
        events: &mut AbftEvents,
    ) -> Self {
        // e^T A — column checksums of A.
        let mut col_a = vec![0i128; k];
        for o in 0..m {
            for (q, ca) in col_a.iter_mut().enumerate() {
                *ca += i128::from(a[o * k + q]);
            }
        }
        // B e — row sums of B.
        let mut row_b = vec![0i128; k];
        for (q, rb) in row_b.iter_mut().enumerate() {
            for j in 0..p {
                *rb += i128::from(b[q * p + j]);
            }
        }
        // Expected row sums: A · (B e).
        let mut exp_row = vec![0i128; m];
        for (o, er) in exp_row.iter_mut().enumerate() {
            for (q, &rb) in row_b.iter().enumerate() {
                *er += i128::from(a[o * k + q]) * rb;
            }
        }
        // Expected column sums: (e^T A) · B.
        let mut exp_col = vec![0i128; p];
        for (q, &ca) in col_a.iter().enumerate() {
            for (j, ec) in exp_col.iter_mut().enumerate() {
                *ec += ca * i128::from(b[q * p + j]);
            }
        }
        events.overhead += prepare_charge(m, k, p);
        Self { exp_row, exp_col }
    }

    /// Rows and columns whose invariant fails, with their deltas
    /// (`expected − actual`). Charges the actual-sum arithmetic.
    fn mismatches(&self, out: &[i64], m: usize, p: usize, events: &mut AbftEvents) -> Mismatches {
        let mut bad_rows = Vec::new();
        for (o, &exp) in self.exp_row.iter().enumerate() {
            let actual: i128 = out[o * p..(o + 1) * p].iter().map(|&v| i128::from(v)).sum();
            if actual != exp {
                bad_rows.push((o, exp - actual));
            }
        }
        let mut bad_cols = Vec::new();
        for (j, &exp) in self.exp_col.iter().enumerate() {
            let mut actual = 0i128;
            for o in 0..m {
                actual += i128::from(out[o * p + j]);
            }
            if actual != exp {
                bad_cols.push((j, exp - actual));
            }
        }
        events.overhead += verify_charge(m, p);
        (bad_rows, bad_cols)
    }
}

/// Try to repair `out` from a mismatch signature; returns `true` when the
/// signature names exactly one element, the two deltas agree and the
/// repaired value fits the accumulator domain (a delta that would push the
/// element out of `i64` cannot come from a single corrupted element, so it
/// falls through to the recompute path instead).
fn correct_single(
    out: &mut [i64],
    p: usize,
    bad_rows: &[(usize, i128)],
    bad_cols: &[(usize, i128)],
) -> bool {
    if let ([(o, dr)], [(j, dc)]) = (bad_rows, bad_cols) {
        if dr == dc {
            if let Ok(fixed) = i64::try_from(i128::from(out[o * p + j]) + dr) {
                out[o * p + j] = fixed;
                return true;
            }
        }
    }
    false
}

/// Checksummed instrumented GEMM: compute `out = a · b` through the (faulty)
/// backend, verify the row/column invariants on hardened arithmetic, and
/// repair what they expose.
///
/// * A single corrupted element is located and corrected **exactly** (the
///   integer deltas are exact).
/// * Any other mismatch triggers one recompute through the backend when
///   `recompute_on_detect` is set (counted in
///   [`AbftEvents::recomputes`]; the recompute can itself be struck, so it
///   is re-verified and single-corrected before giving up).
/// * For `p == 1` (the fully-connected GEMV) row checksums degenerate into
///   duplication, so only the column invariant is kept: detect + recompute,
///   no location.
///
/// Every checksum/verification/recompute operation is charged to
/// [`AbftEvents::overhead`].
#[allow(clippy::too_many_arguments)]
pub fn checked_gemm_i64<A: Arithmetic>(
    arith: &mut A,
    a: &[i64],
    b: &[i64],
    out: &mut [i64],
    m: usize,
    k: usize,
    p: usize,
    recompute_on_detect: bool,
    events: &mut AbftEvents,
) {
    plain_gemm_i64(arith, a, b, out, m, k, p);
    if p == 1 {
        checked_gemv_verify(arith, a, b, out, m, k, recompute_on_detect, events);
        return;
    }
    let sums = GemmChecksums::prepare(a, b, m, k, p, events);
    let (bad_rows, bad_cols) = sums.mismatches(out, m, p, events);
    if bad_rows.is_empty() && bad_cols.is_empty() {
        return;
    }
    events.detected += 1;
    if correct_single(out, p, &bad_rows, &bad_cols) {
        events.corrected += 1;
        return;
    }
    if !recompute_on_detect {
        events.uncorrected += 1;
        return;
    }
    // The recompute runs on the same faulty backend, so it may be struck
    // again — retry until the checksums verify (or a single stray error can
    // be patched), up to the recovery budget.
    for _ in 0..MAX_RECOMPUTES {
        events.recomputes += 1;
        plain_gemm_i64(arith, a, b, out, m, k, p);
        let mkp = (m * k * p) as u64;
        events.charge(mkp, mkp);
        let (bad_rows, bad_cols) = sums.mismatches(out, m, p, events);
        if bad_rows.is_empty() && bad_cols.is_empty()
            || correct_single(out, p, &bad_rows, &bad_cols)
        {
            events.corrected += 1;
            return;
        }
    }
    events.uncorrected += 1;
}

/// Column-checksum verification of a GEMV result (`p == 1`): the single
/// invariant `Σ out == (e^T A) · b` detects but cannot locate, so repair is
/// recompute-only.
#[allow(clippy::too_many_arguments)]
fn checked_gemv_verify<A: Arithmetic>(
    arith: &mut A,
    a: &[i64],
    b: &[i64],
    out: &mut [i64],
    m: usize,
    k: usize,
    recompute_on_detect: bool,
    events: &mut AbftEvents,
) {
    // `i128` accumulation for the same reason as `GemmChecksums`: the single
    // column checksum sums K·M products of worst-case magnitudes.
    let expected = |events: &mut AbftEvents| -> i128 {
        let mut col_a = vec![0i128; k];
        for o in 0..m {
            for (q, ca) in col_a.iter_mut().enumerate() {
                *ca += i128::from(a[o * k + q]);
            }
        }
        let exp: i128 = col_a
            .iter()
            .zip(b.iter())
            .map(|(&ca, &bv)| ca * i128::from(bv))
            .sum();
        events.overhead += gemv_expected_charge(m, k);
        exp
    };
    let actual = |out: &[i64], events: &mut AbftEvents| -> i128 {
        events.overhead += gemv_actual_charge(m);
        out.iter().map(|&v| i128::from(v)).sum()
    };
    let exp = expected(events);
    if actual(out, events) == exp {
        return;
    }
    events.detected += 1;
    if !recompute_on_detect {
        events.uncorrected += 1;
        return;
    }
    for _ in 0..MAX_RECOMPUTES {
        events.recomputes += 1;
        plain_gemm_i64(arith, a, b, out, m, k, 1);
        let mk = (m * k) as u64;
        events.charge(mk, mk);
        if actual(out, events) == exp {
            events.corrected += 1;
            return;
        }
    }
    events.uncorrected += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_faultsim::ExactArithmetic;

    fn fixture(m: usize, k: usize, p: usize) -> (Vec<i64>, Vec<i64>) {
        let a: Vec<i64> = (0..m * k).map(|i| ((i * 7 % 23) as i64) - 11).collect();
        let b: Vec<i64> = (0..k * p).map(|i| ((i * 5 % 17) as i64) - 8).collect();
        (a, b)
    }

    fn reference(a: &[i64], b: &[i64], m: usize, k: usize, p: usize) -> Vec<i64> {
        let mut out = vec![0i64; m * p];
        for o in 0..m {
            for j in 0..p {
                out[o * p + j] = (0..k).map(|q| a[o * k + q] * b[q * p + j]).sum();
            }
        }
        out
    }

    #[test]
    fn plain_gemm_matches_reference_and_counts_ops() {
        let (m, k, p) = (4, 5, 6);
        let (a, b) = fixture(m, k, p);
        let mut arith = ExactArithmetic::new();
        arith.begin_layer(2);
        let mut out = vec![0i64; m * p];
        plain_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p);
        assert_eq!(out, reference(&a, &b, m, k, p));
        assert_eq!(arith.counters().layer(2).executed.mul, (m * k * p) as u64);
        assert_eq!(arith.counters().layer(2).executed.add, (m * k * p) as u64);
    }

    #[test]
    fn clean_product_verifies_without_events() {
        let (m, k, p) = (3, 7, 5);
        let (a, b) = fixture(m, k, p);
        let mut arith = ExactArithmetic::new();
        let mut out = vec![0i64; m * p];
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p, true, &mut events);
        assert_eq!(out, reference(&a, &b, m, k, p));
        assert_eq!(events.detected, 0);
        assert_eq!(events.corrected, 0);
        assert_eq!(events.uncorrected, 0);
        assert!(events.overhead.total() > 0, "checksums are never free");
    }

    /// The acceptance-criterion property: a single corrupted GEMM output
    /// element — any element, any magnitude — is located and corrected
    /// exactly.
    #[test]
    fn single_injected_fault_is_located_and_corrected_exactly() {
        let (m, k, p) = (4, 6, 9);
        let (a, b) = fixture(m, k, p);
        let truth = reference(&a, &b, m, k, p);
        for victim in 0..m * p {
            for flip in [1i64, -1, 1 << 7, -(1 << 13), 1 << 20] {
                let mut out = truth.clone();
                out[victim] += flip;
                let sums = GemmChecksums::prepare(&a, &b, m, k, p, &mut AbftEvents::new());
                let (bad_rows, bad_cols) = sums.mismatches(&out, m, p, &mut AbftEvents::new());
                assert_eq!(bad_rows.len(), 1, "one bad row for victim {victim}");
                assert_eq!(bad_cols.len(), 1, "one bad col for victim {victim}");
                assert_eq!(bad_rows[0].0, victim / p);
                assert_eq!(bad_cols[0].0, victim % p);
                assert!(correct_single(&mut out, p, &bad_rows, &bad_cols));
                assert_eq!(
                    out, truth,
                    "victim {victim} flip {flip} must repair exactly"
                );
            }
        }
    }

    #[test]
    fn multi_error_falls_back_to_recompute() {
        use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic};
        use wgft_fixedpoint::BitWidth;
        // A backend that faults every operation: the product is corrupted far
        // beyond single-error repair, so the recompute fallback must engage
        // (and, with the fault storm still raging, report the outcome
        // honestly rather than claiming success).
        let (m, k, p) = (3, 4, 5);
        let (a, b) = fixture(m, k, p);
        let config = FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8);
        let mut arith = FaultyArithmetic::new(config, 9);
        let mut out = vec![0i64; m * p];
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p, true, &mut events);
        assert_eq!(events.detected, 1);
        assert!(events.recomputes >= 1, "the fallback must engage");
        assert_eq!(events.corrected + events.uncorrected, 1);

        // Without the fallback the detection is recorded as uncorrected.
        let config = FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8);
        let mut arith = FaultyArithmetic::new(config, 9);
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p, false, &mut events);
        assert_eq!(events.detected, 1);
        assert_eq!(events.recomputes, 0);
        assert_eq!(events.uncorrected, 1);
    }

    #[test]
    fn gemv_detects_and_recomputes() {
        let (m, k) = (6, 5);
        let (a, b) = fixture(m, k, 1);
        let truth = reference(&a, &b, m, k, 1);
        // Clean pass.
        let mut arith = ExactArithmetic::new();
        let mut out = vec![0i64; m];
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, 1, true, &mut events);
        assert_eq!(out, truth);
        assert_eq!(events.detected, 0);
        // Hand-corrupt and verify through the GEMV invariant alone.
        let mut corrupted = truth.clone();
        corrupted[2] += 1 << 9;
        let mut arith = ExactArithmetic::new();
        let mut events = AbftEvents::new();
        checked_gemv_verify(&mut arith, &a, &b, &mut corrupted, m, k, true, &mut events);
        assert_eq!(events.detected, 1);
        assert_eq!(events.recomputes, 1);
        assert_eq!(events.corrected, 1);
        assert_eq!(corrupted, truth, "recompute on exact arithmetic repairs");
    }

    #[test]
    fn checksum_overhead_is_small_relative_to_the_gemm() {
        let (m, k, p) = (16, 32, 64);
        let (a, b) = fixture(m, k, p);
        let mut arith = ExactArithmetic::new();
        let mut out = vec![0i64; m * p];
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p, true, &mut events);
        let gemm_ops = 2 * (m * k * p) as u64;
        assert!(
            events.overhead.total() * 4 < gemm_ops,
            "O(MK+KP+MP) checksums must stay well under the O(MKP) GEMM \
             ({} vs {gemm_ops})",
            events.overhead.total()
        );
    }

    /// The i128-accumulation regression: checksum sums over K·M / K·P
    /// products of extreme accumulator-domain magnitudes exceed `i64` even
    /// though every product element fits. The old `i64` accumulation
    /// panicked here in debug builds (and wrapped in release); with `i128`
    /// the clean product verifies quietly and a single injected error is
    /// still located and corrected exactly.
    #[test]
    fn checksums_survive_extreme_magnitudes_without_overflow() {
        // Every product element ≈ 2·2^60 fits i64, but a row checksum sums
        // p = 4 of them (≈ 2^63) and the expected-row accumulation sums
        // k·A·B terms of the same size — both beyond i64.
        let (m, k, p) = (3usize, 2usize, 4usize);
        let big = 1i64 << 30;
        let a: Vec<i64> = (0..m * k).map(|i| big + i as i64).collect();
        let b: Vec<i64> = (0..k * p).map(|i| big - i as i64 * 13).collect();
        let truth = reference(&a, &b, m, k, p);
        assert!(
            truth.iter().all(|&v| v > 1i64 << 60),
            "fixture must exercise near-full accumulators"
        );

        // Clean pass: no detections, no corrections.
        let mut arith = ExactArithmetic::new();
        let mut out = vec![0i64; m * p];
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &b, &mut out, m, k, p, true, &mut events);
        assert_eq!(out, truth);
        assert_eq!(events.detected, 0, "extreme magnitudes must not overflow");

        // A single injected error at extreme magnitude is repaired exactly.
        for victim in [0usize, m * p - 1] {
            let mut corrupted = truth.clone();
            corrupted[victim] ^= 1 << 37;
            let sums = GemmChecksums::prepare(&a, &b, m, k, p, &mut AbftEvents::new());
            let (bad_rows, bad_cols) = sums.mismatches(&corrupted, m, p, &mut AbftEvents::new());
            assert!(correct_single(&mut corrupted, p, &bad_rows, &bad_cols));
            assert_eq!(corrupted, truth, "victim {victim} must repair exactly");
        }

        // The GEMV invariant survives large K at extreme Q-format values:
        // each output fits (700 · 2^52 ≈ 2^61.5) but the column checksum
        // sums k·m ≈ 2^18.7 products of ~2^52 — beyond i64.
        let (m, k) = (600usize, 700usize);
        let a: Vec<i64> = (0..m * k).map(|i| (1i64 << 40) - (i as i64 % 97)).collect();
        let bvec: Vec<i64> = (0..k).map(|i| (1i64 << 12) + i as i64 % 31).collect();
        let mut out = vec![0i64; m];
        let mut arith = ExactArithmetic::new();
        let mut events = AbftEvents::new();
        checked_gemm_i64(&mut arith, &a, &bvec, &mut out, m, k, 1, true, &mut events);
        assert_eq!(out, reference(&a, &bvec, m, k, 1));
        assert_eq!(events.detected, 0);
        // And still detects a flip at those magnitudes.
        out[17] ^= 1 << 50;
        let mut arith = ExactArithmetic::new();
        let mut events = AbftEvents::new();
        checked_gemv_verify(&mut arith, &a, &bvec, &mut out, m, k, true, &mut events);
        assert_eq!(events.detected, 1);
        assert_eq!(events.corrected, 1, "recompute on exact arithmetic repairs");
        assert_eq!(out, reference(&a, &bvec, m, k, 1));
    }

    /// A delta that would push the repaired element outside `i64` cannot be
    /// a single corrupted element; the repair must refuse it (and recompute)
    /// instead of wrapping.
    #[test]
    fn out_of_domain_repair_delta_is_refused() {
        let (m, k, p) = (3usize, 2usize, 4usize);
        let (a, b) = fixture(m, k, p);
        let truth = reference(&a, &b, m, k, p);
        // Fabricate a mismatch signature whose delta overflows the element.
        let bad_rows = [(1usize, i128::from(i64::MAX))];
        let bad_cols = [(2usize, i128::from(i64::MAX))];
        let mut out = truth.clone();
        out[p + 2] = i64::MAX - 5;
        assert!(!correct_single(&mut out, p, &bad_rows, &bad_cols));
        assert_eq!(out[p + 2], i64::MAX - 5, "no partial repair");
    }
}
