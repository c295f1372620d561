//! The instrumented scalar datapath: exact and faulty arithmetic backends.

use crate::{flip_bit_within, BitErrorRate, FaultModel, OpCounters, OpType, ProtectionPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wgft_fixedpoint::BitWidth;

/// The primitive-operation datapath that every convolution and fully-connected
/// kernel in the workspace executes through.
///
/// Implementations count operations per layer so that the same execution can
/// drive the paper's operation-count analysis (Figure 3) and the TMR overhead
/// accounting (Figure 5).
///
/// Values are raw quantized words (activations, weights, winograd-transformed
/// tiles) carried in `i64`; products and running sums stay in the `i64`
/// accumulator domain until the layer requantizes them.
pub trait Arithmetic {
    /// Inform the backend which layer subsequent operations belong to.
    fn begin_layer(&mut self, layer: usize);

    /// Multiply two raw words, returning the wide product.
    fn mul(&mut self, a: i64, b: i64) -> i64;

    /// Add two accumulator values.
    fn add(&mut self, a: i64, b: i64) -> i64;

    /// Counters recorded so far.
    fn counters(&self) -> &OpCounters;

    /// Reset all counters (e.g. between evaluation images).
    fn reset_counters(&mut self);
}

/// Golden, fault-free arithmetic with operation counting.
///
/// # Example
///
/// ```
/// use wgft_faultsim::{Arithmetic, ExactArithmetic};
///
/// let mut arith = ExactArithmetic::new();
/// arith.begin_layer(0);
/// assert_eq!(arith.mul(3, -4), -12);
/// assert_eq!(arith.add(10, -12), -2);
/// assert_eq!(arith.counters().total().mul, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactArithmetic {
    counters: OpCounters,
    current_layer: usize,
}

impl ExactArithmetic {
    /// A fresh exact backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arithmetic for ExactArithmetic {
    fn begin_layer(&mut self, layer: usize) {
        self.current_layer = layer;
    }

    fn mul(&mut self, a: i64, b: i64) -> i64 {
        self.counters.record_op(self.current_layer, OpType::Mul);
        a * b
    }

    fn add(&mut self, a: i64, b: i64) -> i64 {
        self.counters.record_op(self.current_layer, OpType::Add);
        a + b
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }
}

/// Configuration of the operation-level fault injector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-bit soft error probability.
    pub ber: BitErrorRate,
    /// Storage width of the quantized words (determines both the
    /// per-operation fault probability and the bit positions a flip can hit).
    pub width: BitWidth,
    /// Where the flip lands (see [`FaultModel`]).
    pub model: FaultModel,
    /// Which operations are protected.
    pub protection: ProtectionPlan,
}

impl FaultConfig {
    /// A configuration with the default (paper) fault model and no protection.
    #[must_use]
    pub fn new(ber: BitErrorRate, width: BitWidth) -> Self {
        Self {
            ber,
            width,
            model: FaultModel::default(),
            protection: ProtectionPlan::none(),
        }
    }

    /// Replace the fault model.
    #[must_use]
    pub fn with_model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }

    /// Replace the protection plan.
    #[must_use]
    pub fn with_protection(mut self, protection: ProtectionPlan) -> Self {
        self.protection = protection;
        self
    }

    /// Per-operation fault probability implied by the BER and word width.
    #[must_use]
    pub fn fault_probability(&self) -> f64 {
        self.ber.fault_probability(self.width.bits())
    }
}

/// Operation-level fault injection backend.
///
/// The per-operation fault probability `p` is usually tiny (the paper sweeps
/// bit error rates down to 1e-11), so the injector samples the *gap* between
/// consecutive faults from a geometric distribution and only touches the RNG
/// when a fault actually strikes. The fast path per operation is a single
/// counter decrement plus the operation-count bookkeeping, which keeps
/// whole-network fault-injection campaigns tractable.
///
/// Products and sums wrap in two's complement: dense faults (compounded
/// flips of large transform coefficients) can push the datapath past
/// `i64`. Wrapping keeps debug and release builds in agreement and matches
/// fault-site replay, which wraps the same way.
#[derive(Debug, Clone)]
pub struct FaultyArithmetic {
    config: FaultConfig,
    rng: SmallRng,
    counters: OpCounters,
    current_layer: usize,
    // Cached per-layer protection probabilities.
    mul_protection: f64,
    add_protection: f64,
    gaps: GapSampler,
    ops_until_fault: u64,
}

impl FaultyArithmetic {
    /// Create a faulty backend with a deterministic seed.
    #[must_use]
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        let gaps = GapSampler::new(config.fault_probability());
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops_until_fault = gaps.sample(&mut rng);
        let mut this = Self {
            config,
            rng,
            counters: OpCounters::new(),
            current_layer: 0,
            mul_protection: 0.0,
            add_protection: 0.0,
            gaps,
            ops_until_fault,
        };
        this.refresh_protection();
        this
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of faults injected so far (unprotected strikes only).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.counters.total_faults_injected().total()
    }

    /// Number of faults that struck protected operations and were corrected.
    #[must_use]
    pub fn faults_masked(&self) -> u64 {
        self.counters.total_faults_masked().total()
    }

    fn refresh_protection(&mut self) {
        self.mul_protection = self
            .config
            .protection
            .protection_probability(self.current_layer, OpType::Mul);
        self.add_protection = self
            .config
            .protection
            .protection_probability(self.current_layer, OpType::Add);
    }

    /// Decrement the fault countdown; returns true when a fault strikes this op.
    #[inline]
    fn fault_strikes(&mut self) -> bool {
        if self.ops_until_fault == u64::MAX {
            return false;
        }
        self.ops_until_fault -= 1;
        if self.ops_until_fault == 0 {
            self.ops_until_fault = self.gaps.sample(&mut self.rng);
            true
        } else {
            false
        }
    }

    fn random_bit(&mut self, width_bits: u32) -> u32 {
        self.rng.gen_range(0..width_bits)
    }

    fn fault_is_masked(&mut self, op: OpType) -> bool {
        let protection = match op {
            OpType::Mul => self.mul_protection,
            OpType::Add => self.add_protection,
        };
        if protection <= 0.0 {
            false
        } else if protection >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < protection
        }
    }
}

impl Arithmetic for FaultyArithmetic {
    fn begin_layer(&mut self, layer: usize) {
        self.current_layer = layer;
        self.refresh_protection();
    }

    fn mul(&mut self, a: i64, b: i64) -> i64 {
        self.counters.record_op(self.current_layer, OpType::Mul);
        if !self.fault_strikes() {
            return a.wrapping_mul(b);
        }
        if self.fault_is_masked(OpType::Mul) {
            self.counters
                .record_fault_masked(self.current_layer, OpType::Mul);
            return a.wrapping_mul(b);
        }
        self.counters
            .record_fault_injected(self.current_layer, OpType::Mul);
        let w = self.config.width.bits();
        match self.config.model {
            FaultModel::OperandMulResultAdd | FaultModel::OperandOnly => {
                // Either input register of the multiplier may be struck.
                let bit = self.random_bit(w);
                if self.rng.gen::<bool>() {
                    flip_bit_within(a, bit, w).wrapping_mul(b)
                } else {
                    a.wrapping_mul(flip_bit_within(b, bit, w))
                }
            }
            FaultModel::ResultOnly => {
                // A multiplier produces a double-width product; a latch fault
                // can hit any of those bits.
                let bit = self.random_bit(2 * w);
                flip_bit_within(a.wrapping_mul(b), bit, 2 * w)
            }
        }
    }

    fn add(&mut self, a: i64, b: i64) -> i64 {
        self.counters.record_op(self.current_layer, OpType::Add);
        if !self.fault_strikes() {
            return a.wrapping_add(b);
        }
        if self.fault_is_masked(OpType::Add) {
            self.counters
                .record_fault_masked(self.current_layer, OpType::Add);
            return a.wrapping_add(b);
        }
        self.counters
            .record_fault_injected(self.current_layer, OpType::Add);
        let w = self.config.width.bits();
        match self.config.model {
            FaultModel::OperandMulResultAdd | FaultModel::ResultOnly => {
                let bit = self.random_bit(w);
                flip_bit_within(a.wrapping_add(b), bit, w)
            }
            FaultModel::OperandOnly => {
                let bit = self.random_bit(w);
                flip_bit_within(a, bit, w).wrapping_add(b)
            }
        }
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }
}

/// Sample the number of operations until the next fault (inclusive) for a
/// per-operation fault probability `p`; `u64::MAX` means "never".
///
/// A one-off draw through [`GapSampler`], which every injector holds so the
/// sampler's `ln(1 − p)` is computed once per configuration.
pub(crate) fn sample_geometric_gap<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    GapSampler::new(p).sample(rng)
}

/// The one geometric gap sampler of the crate: the operation-level
/// injector, the neuron-level injector and the fault-site replay
/// enumerator all draw their gaps here, so they share its edge cases.
/// `ln(1 − p)` is computed once at construction; every draw divides by that
/// same value, so the gaps are bit-identical to computing it per draw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapSampler {
    p: f64,
    ln_keep: f64,
}

impl GapSampler {
    pub(crate) fn new(p: f64) -> Self {
        Self {
            p,
            ln_keep: (1.0 - p).ln(),
        }
    }

    /// Operations until the next fault (inclusive); `u64::MAX` means
    /// "never".
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let p = self.p;
        // Below ~1.1e-16, `1.0 - p` rounds to 1.0 and `ln(1.0 - p)` to 0:
        // the gap is beyond any run, and dividing by that zero would
        // instead give a gap of 1 (every operation faulting).
        if p <= 0.0 || 1.0 - p == 1.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = (u.ln() / self.ln_keep).floor();
        if gap >= u64::MAX as f64 - 1.0 {
            u64::MAX
        } else {
            gap as u64 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_arithmetic_counts_and_computes() {
        let mut a = ExactArithmetic::new();
        a.begin_layer(1);
        assert_eq!(a.mul(6, 7), 42);
        assert_eq!(a.add(40, 2), 42);
        a.begin_layer(2);
        assert_eq!(a.mul(-3, 3), -9);
        assert_eq!(a.counters().layer(1).executed.mul, 1);
        assert_eq!(a.counters().layer(2).executed.mul, 1);
        assert_eq!(a.counters().total().add, 1);
        a.reset_counters();
        assert_eq!(a.counters().total().total(), 0);
    }

    #[test]
    fn zero_ber_is_exact() {
        let config = FaultConfig::new(BitErrorRate::ZERO, BitWidth::W8);
        let mut f = FaultyArithmetic::new(config, 1);
        let mut exact = ExactArithmetic::new();
        for i in -50i64..50 {
            assert_eq!(f.mul(i, 3), exact.mul(i, 3));
            assert_eq!(f.add(i, -7), exact.add(i, -7));
        }
        assert_eq!(f.faults_injected(), 0);
        assert_eq!(f.faults_masked(), 0);
    }

    #[test]
    fn certain_fault_rate_corrupts_every_operation_possible() {
        // BER of 1.0 means every op faults.
        let config = FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8);
        let mut f = FaultyArithmetic::new(config, 3);
        f.begin_layer(0);
        for i in 0..100i64 {
            let _ = f.mul(i % 100, 3);
        }
        assert_eq!(f.faults_injected(), 100);
    }

    #[test]
    fn fault_count_matches_expectation_statistically() {
        // p(op fault) = 1-(1-ber)^8; choose ber so p ~= 1e-3 and run 1e6 ops.
        let ber = BitErrorRate::new(1.25e-4);
        let config = FaultConfig::new(ber, BitWidth::W8);
        let p = config.fault_probability();
        let mut f = FaultyArithmetic::new(config, 7);
        f.begin_layer(0);
        let n = 1_000_000u64;
        for i in 0..n {
            let _ = f.mul((i % 100) as i64, 3);
        }
        let expected = p * n as f64;
        let got = f.faults_injected() as f64;
        // Poisson-ish fluctuation: allow 5 sigma.
        let sigma = expected.sqrt();
        assert!(
            (got - expected).abs() < 5.0 * sigma + 5.0,
            "expected ~{expected} faults, got {got}"
        );
    }

    #[test]
    fn protected_layer_masks_all_faults() {
        let protection = ProtectionPlan::none().with_fault_free_layer(0);
        let config =
            FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8).with_protection(protection);
        let mut f = FaultyArithmetic::new(config, 11);
        f.begin_layer(0);
        for i in 0..100i64 {
            assert_eq!(
                f.mul(i % 50, 2),
                (i % 50) * 2,
                "protected op must stay correct"
            );
        }
        assert_eq!(f.faults_injected(), 0);
        assert_eq!(f.faults_masked(), 100);
        // Layer 1 is unprotected: faults flow again.
        f.begin_layer(1);
        for i in 0..100i64 {
            let _ = f.mul(i % 50, 2);
        }
        assert_eq!(f.faults_injected(), 100);
    }

    #[test]
    fn fault_free_op_type_masks_only_that_type() {
        let protection = ProtectionPlan::none().with_fault_free_op_type(OpType::Mul);
        let config =
            FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8).with_protection(protection);
        let mut f = FaultyArithmetic::new(config, 5);
        f.begin_layer(0);
        for i in 0..50i64 {
            assert_eq!(f.mul(i, 2), i * 2);
            let _ = f.add(i, 1);
        }
        assert_eq!(f.counters().total_faults_masked().mul, 50);
        assert_eq!(f.counters().total_faults_injected().add, 50);
    }

    #[test]
    fn fractional_protection_masks_roughly_that_fraction() {
        let protection = ProtectionPlan::none()
            .with_fraction(0, OpType::Mul, 0.7)
            .unwrap();
        let config =
            FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8).with_protection(protection);
        let mut f = FaultyArithmetic::new(config, 13);
        f.begin_layer(0);
        let n = 10_000;
        for i in 0..n {
            let _ = f.mul(i % 100, 3);
        }
        let masked = f.faults_masked() as f64;
        let ratio = masked / n as f64;
        assert!(
            (ratio - 0.7).abs() < 0.03,
            "masked ratio {ratio} should be close to 0.7"
        );
    }

    #[test]
    fn corrupted_mul_differs_from_exact_product() {
        let config = FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8);
        let mut f = FaultyArithmetic::new(config, 17);
        f.begin_layer(0);
        let mut corrupted = 0;
        for i in 1..200i64 {
            let a = i % 100 + 1;
            if f.mul(a, 3) != a * 3 {
                corrupted += 1;
            }
        }
        // With operand flips and a non-zero operand, virtually every fault
        // changes the product (a flipped bit always changes the operand).
        assert!(corrupted > 150, "corrupted {corrupted} of 199 products");
    }

    #[test]
    fn deterministic_given_seed() {
        let config = FaultConfig::new(BitErrorRate::new(1e-2), BitWidth::W16);
        let run = |seed| {
            let mut f = FaultyArithmetic::new(config.clone(), seed);
            f.begin_layer(0);
            let mut acc = 0i64;
            for i in 0..10_000i64 {
                let p = f.mul(i % 31, 7);
                acc = f.add(acc, p);
            }
            (acc, f.faults_injected())
        };
        assert_eq!(run(42), run(42));
        // Different seeds virtually always see different fault patterns.
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn geometric_gap_sampler_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_geometric_gap(0.0, &mut rng), u64::MAX);
        assert_eq!(sample_geometric_gap(1.0, &mut rng), 1);
        let g = sample_geometric_gap(0.5, &mut rng);
        assert!(g >= 1);
    }

    /// Below ~1.1e-16, `1.0 - p` rounds to 1.0; the sampler must then
    /// report "never strikes" instead of dividing by `ln(1.0) = 0` and
    /// faulting every operation.
    #[test]
    fn tiny_nonzero_ber_never_faults() {
        for ber in [1e-17, 1e-18, 1e-30, f64::MIN_POSITIVE] {
            let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16);
            assert!(config.fault_probability() > 0.0);
            let mut f = FaultyArithmetic::new(config, 3);
            f.begin_layer(0);
            for i in 0..10_000i64 {
                assert_eq!(f.mul(i, 3), i * 3);
            }
            assert_eq!(f.faults_injected(), 0, "BER {ber:e} must not fault");
        }
    }

    /// The tiny-rate fix changes no draw where `1.0 - p < 1.0`: the sampler
    /// still takes one uniform draw and floors `ln u / ln(1 - p)`.
    #[test]
    fn gap_draws_are_unchanged_where_one_minus_p_is_below_one() {
        for p in [0.5f64, 1e-3, 1e-9, 2e-16] {
            assert!(1.0 - p < 1.0);
            let mut sampler = SmallRng::seed_from_u64(7);
            let mut reference = SmallRng::seed_from_u64(7);
            for _ in 0..100 {
                let u: f64 = reference.gen_range(f64::EPSILON..1.0);
                let gap = (u.ln() / (1.0 - p).ln()).floor();
                let want = if gap >= u64::MAX as f64 - 1.0 {
                    u64::MAX
                } else {
                    gap as u64 + 1
                };
                assert_eq!(sample_geometric_gap(p, &mut sampler), want, "p = {p:e}");
            }
        }
    }

    #[test]
    fn geometric_gap_mean_matches_inverse_probability() {
        let mut rng = SmallRng::seed_from_u64(99);
        let p = 0.01;
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| sample_geometric_gap(p, &mut rng) as f64)
            .sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 1.0 / p).abs() < 5.0,
            "mean gap {mean} should be near {}",
            1.0 / p
        );
    }

    #[test]
    fn fault_config_accessors() {
        let c = FaultConfig::new(BitErrorRate::new(1e-3), BitWidth::W16)
            .with_model(FaultModel::ResultOnly);
        assert_eq!(c.model, FaultModel::ResultOnly);
        assert!(c.fault_probability() > 0.0);
        let f = FaultyArithmetic::new(c.clone(), 0);
        assert_eq!(f.config(), &c);
    }
}
