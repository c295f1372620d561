//! Storage widths and symmetric Q-format descriptors.

use crate::FixedPointError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage width of a quantized word.
///
/// The paper evaluates every benchmark network quantized with both 8-bit and
/// 16-bit fixed point; these are the only widths the workspace needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BitWidth {
    /// 8-bit storage (`int8`).
    W8,
    /// 16-bit storage (`int16`).
    W16,
}

impl BitWidth {
    /// Number of bits in the storage word.
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            BitWidth::W8 => 8,
            BitWidth::W16 => 16,
        }
    }

    /// Largest representable raw integer (`2^(bits-1) - 1`).
    #[must_use]
    pub const fn max_raw(self) -> i32 {
        match self {
            BitWidth::W8 => i8::MAX as i32,
            BitWidth::W16 => i16::MAX as i32,
        }
    }

    /// Smallest representable raw integer (`-2^(bits-1)`).
    #[must_use]
    pub const fn min_raw(self) -> i32 {
        match self {
            BitWidth::W8 => i8::MIN as i32,
            BitWidth::W16 => i16::MIN as i32,
        }
    }

    /// All supported widths, in increasing order.
    #[must_use]
    pub const fn all() -> [BitWidth; 2] {
        [BitWidth::W8, BitWidth::W16]
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "int{}", self.bits())
    }
}

/// Clamp a wide accumulator value into the raw range of `width`.
// wgft-audit: consensus-critical -- range restriction on the campaign datapath
#[must_use]
pub fn saturate(value: i64, width: BitWidth) -> i32 {
    let hi = i64::from(width.max_raw());
    let lo = i64::from(width.min_raw());
    value.clamp(lo, hi) as i32
}

/// A symmetric fixed-point format: `real = raw * 2^-frac_bits`.
///
/// The format is *symmetric* (no zero point); weights and activations in the
/// quantized inference path all use symmetric Q-formats, which keeps the
/// multiply-accumulate datapath free of zero-point correction terms — the same
/// simplification the paper's fault-injection platform makes by injecting
/// faults directly into multiply and add results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    width: BitWidth,
    frac_bits: u32,
}

impl QFormat {
    /// Create a Q-format with `frac_bits` fractional bits stored in `width`.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FracBitsTooLarge`] if `frac_bits` is not
    /// strictly smaller than the storage width (at least one bit must remain
    /// for the integer part / sign).
    pub fn new(width: BitWidth, frac_bits: u32) -> Result<Self, FixedPointError> {
        if frac_bits >= width.bits() {
            return Err(FixedPointError::FracBitsTooLarge {
                frac_bits,
                width_bits: width.bits(),
            });
        }
        Ok(Self { width, frac_bits })
    }

    /// Storage width of this format.
    #[must_use]
    pub const fn width(&self) -> BitWidth {
        self.width
    }

    /// Number of fractional bits.
    #[must_use]
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Real-valued scale (`2^-frac_bits`): the value of one least-significant bit.
    #[must_use]
    pub fn resolution(&self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Largest representable real value.
    #[must_use]
    pub fn max_value(&self) -> f32 {
        self.width.max_raw() as f32 * self.resolution()
    }

    /// Largest raw integer of the storage width.
    #[must_use]
    pub const fn max_raw(&self) -> i32 {
        self.width.max_raw()
    }

    /// Smallest raw integer of the storage width.
    #[must_use]
    pub const fn min_raw(&self) -> i32 {
        self.width.min_raw()
    }

    /// Quantize a real value to the raw integer domain with saturation.
    #[must_use]
    pub fn quantize(&self, value: f32) -> i32 {
        if !value.is_finite() {
            return if value.is_sign_negative() {
                self.min_raw()
            } else {
                self.max_raw()
            };
        }
        let scaled = (value / self.resolution()).round();
        saturate(scaled as i64, self.width)
    }

    /// Convert a raw integer back to the real domain.
    #[must_use]
    pub fn dequantize(&self, raw: i32) -> f32 {
        raw as f32 * self.resolution()
    }

    /// Quantize a slice of real values.
    #[must_use]
    pub fn quantize_slice(&self, values: &[f32]) -> Vec<i32> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Dequantize a slice of raw integers.
    #[must_use]
    pub fn dequantize_slice(&self, raw: &[i32]) -> Vec<f32> {
        raw.iter().map(|&r| self.dequantize(r)).collect()
    }

    /// Requantize a wide accumulator value that carries `acc_frac_bits`
    /// fractional bits into this format (round-to-nearest, saturating).
    ///
    /// This is the "rescale" step at the end of a quantized dot product: the
    /// accumulator holds `sum(a_i * w_i)` with `frac(a) + frac(w)` fractional
    /// bits and must be brought back to the activation format.
    // wgft-audit: consensus-critical -- the rescale step of every quantized dot product
    #[must_use]
    pub fn requantize_accumulator(&self, acc: i64, acc_frac_bits: u32) -> i32 {
        let shift = acc_frac_bits as i64 - self.frac_bits as i64;
        let value = if (1..=Self::NARROW_MAX_SHIFT).contains(&shift)
            && acc.unsigned_abs() < Self::NARROW_LIMIT
        {
            round_shift_i64(acc, shift as u32)
        } else {
            round_shift_i128(acc, shift)
        };
        saturate(value, self.width)
    }

    /// Accumulators below this magnitude take the `i64` rounding path: the
    /// add-half step stays below `2⁶² + 2⁶¹` for every shift up to
    /// [`QFormat::NARROW_MAX_SHIFT`].
    const NARROW_LIMIT: u64 = 1 << 61;
    /// Largest right shift the `i64` rounding path takes.
    const NARROW_MAX_SHIFT: i64 = 62;
}

/// Round-to-nearest right shift of `acc` by `shift` (ties away from zero),
/// in `i64` — the common case of [`QFormat::requantize_accumulator`]:
/// `|acc| < 2⁶¹`, `1 ≤ shift ≤ 62`.
// wgft-audit: consensus-critical -- the rescale step of every quantized dot product
fn round_shift_i64(acc: i64, shift: u32) -> i64 {
    let half = 1i64 << (shift - 1);
    if acc >= 0 {
        (acc + half) >> shift
    } else {
        -((-acc + half) >> shift)
    }
}

/// [`round_shift_i64`] total over the whole `i64` domain and any shift
/// (negative shifts scale up), in `i128`, clamped back to `i64`.
// wgft-audit: consensus-critical -- the rescale step of every quantized dot product
fn round_shift_i128(acc: i64, shift: i64) -> i64 {
    // Fault injectors hand requantization accumulators with arbitrary high
    // bits set (including `i64::MIN`, whose negation does not exist in
    // i64), and the add-half / negate steps must stay total.
    let acc = i128::from(acc);
    let wide = if shift > 0 {
        // Round to nearest with the usual add-half trick (symmetric for
        // negative values because of arithmetic shift behaviour on the
        // magnitude).
        let half = 1i128 << (shift - 1);
        if acc >= 0 {
            (acc + half) >> shift
        } else {
            -((-acc + half) >> shift)
        }
    } else {
        acc << (-shift)
    };
    wide.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}.{} ({})",
            self.width.bits() - self.frac_bits,
            self.frac_bits,
            self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwidth_ranges() {
        assert_eq!(BitWidth::W8.bits(), 8);
        assert_eq!(BitWidth::W16.bits(), 16);
        assert_eq!(BitWidth::W8.max_raw(), 127);
        assert_eq!(BitWidth::W8.min_raw(), -128);
        assert_eq!(BitWidth::W16.max_raw(), 32767);
        assert_eq!(BitWidth::W16.min_raw(), -32768);
        assert_eq!(BitWidth::all(), [BitWidth::W8, BitWidth::W16]);
        assert_eq!(BitWidth::W8.to_string(), "int8");
        assert_eq!(BitWidth::W16.to_string(), "int16");
    }

    #[test]
    fn qformat_rejects_too_many_frac_bits() {
        assert!(QFormat::new(BitWidth::W8, 8).is_err());
        assert!(QFormat::new(BitWidth::W8, 7).is_ok());
        assert!(QFormat::new(BitWidth::W16, 16).is_err());
        assert!(QFormat::new(BitWidth::W16, 15).is_ok());
    }

    #[test]
    fn quantize_and_dequantize_are_inverse_within_resolution() {
        let fmt = QFormat::new(BitWidth::W8, 4).unwrap();
        assert_eq!(fmt.resolution(), 1.0 / 16.0);
        let q = fmt.quantize(1.5);
        assert_eq!(q, 24);
        assert!((fmt.dequantize(q) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn quantize_saturates_at_extremes() {
        let fmt = QFormat::new(BitWidth::W8, 4).unwrap();
        assert_eq!(fmt.quantize(1e9), 127);
        assert_eq!(fmt.quantize(-1e9), -128);
        assert_eq!(fmt.quantize(f32::INFINITY), 127);
        assert_eq!(fmt.quantize(f32::NEG_INFINITY), -128);
    }

    #[test]
    fn saturate_clamps_to_width() {
        assert_eq!(saturate(1_000_000, BitWidth::W8), 127);
        assert_eq!(saturate(-1_000_000, BitWidth::W8), -128);
        assert_eq!(saturate(42, BitWidth::W8), 42);
        assert_eq!(saturate(40_000, BitWidth::W16), 32767);
    }

    #[test]
    fn requantize_accumulator_rounds_to_nearest() {
        let fmt = QFormat::new(BitWidth::W8, 4).unwrap();
        // Accumulator with 8 fractional bits: value 1.5 -> 384.
        assert_eq!(fmt.requantize_accumulator(384, 8), 24);
        // A value exactly halfway (1.53125 * 256 = 392) rounds away from zero.
        assert_eq!(fmt.requantize_accumulator(392, 8), 25);
        assert_eq!(fmt.requantize_accumulator(-392, 8), -25);
    }

    #[test]
    fn requantize_accumulator_saturates() {
        let fmt = QFormat::new(BitWidth::W8, 0).unwrap();
        assert_eq!(fmt.requantize_accumulator(1 << 40, 8), 127);
        assert_eq!(fmt.requantize_accumulator(-(1 << 40), 8), -128);
    }

    #[test]
    fn requantize_accumulator_is_total_over_extreme_inputs() {
        // Dense operation-level faults can set any accumulator bit (they
        // wrap past i64), so the rescale must never overflow — even at the
        // i64 extremes.
        let fmt = QFormat::new(BitWidth::W8, 4).unwrap();
        assert_eq!(fmt.requantize_accumulator(i64::MAX, 8), 127);
        assert_eq!(fmt.requantize_accumulator(i64::MIN, 8), -128);
        assert_eq!(fmt.requantize_accumulator(i64::MIN, 2), -128);
        let wide = QFormat::new(BitWidth::W16, 8).unwrap();
        assert_eq!(
            wide.requantize_accumulator(i64::MAX, 2),
            i32::from(i16::MAX)
        );
        assert_eq!(
            wide.requantize_accumulator(i64::MIN, 2),
            i32::from(i16::MIN)
        );
    }

    /// The `i64` rounding path equals the `i128` one wherever it is taken,
    /// and the dispatch stays exact at and past its boundary.
    #[test]
    fn narrow_requantize_path_matches_the_wide_one() {
        let edge = 1i64 << 61;
        for shift in 1..=40u32 {
            for acc in [edge - 1, -(edge - 1), edge - 2, 1 - edge, 0, 1, -1] {
                assert_eq!(
                    round_shift_i64(acc, shift),
                    round_shift_i128(acc, i64::from(shift)),
                    "acc {acc} shift {shift}"
                );
            }
            for width in [BitWidth::W8, BitWidth::W16] {
                let fmt = QFormat::new(width, 0).unwrap();
                for acc in [edge, -edge, edge - 1, 1 - edge, i64::MIN, i64::MAX] {
                    assert_eq!(
                        fmt.requantize_accumulator(acc, shift),
                        saturate(round_shift_i128(acc, i64::from(shift)), width),
                        "acc {acc} shift {shift}"
                    );
                }
            }
        }
        let wide = QFormat::new(BitWidth::W16, 0).unwrap();
        for shift in 1..=40u32 {
            let acc = (1i64 << (shift + 10)) + (1i64 << (shift - 1));
            assert_eq!(
                wide.requantize_accumulator(acc, shift),
                saturate(round_shift_i128(acc, i64::from(shift)), BitWidth::W16)
            );
        }
    }

    #[test]
    fn requantize_accumulator_can_shift_left() {
        let fmt = QFormat::new(BitWidth::W16, 8).unwrap();
        // Accumulator with fewer fractional bits than the target.
        assert_eq!(fmt.requantize_accumulator(3, 2), 3 << 6);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let fmt = QFormat::new(BitWidth::W16, 8).unwrap();
        let xs = [0.25f32, -0.5, 3.0];
        let q = fmt.quantize_slice(&xs);
        let back = fmt.dequantize_slice(&q);
        for (a, b) in xs.iter().zip(back.iter()) {
            assert!((a - b).abs() <= fmt.resolution());
        }
    }

    #[test]
    fn display_format_is_readable() {
        let fmt = QFormat::new(BitWidth::W16, 10).unwrap();
        assert_eq!(fmt.to_string(), "Q6.10 (int16)");
    }
}
