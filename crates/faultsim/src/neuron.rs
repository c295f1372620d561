//! Neuron-level fault injection — the coarse baseline of Figure 1.
//!
//! Frameworks such as TensorFI and PyTorchFI flip bits in *neuron values*
//! (layer outputs) rather than in the primitive operations that computed
//! them. Because standard convolution and winograd convolution produce the
//! same neurons, such a platform reports identical resilience for both — the
//! paper's Figure 1 demonstrates exactly this blind spot. This module
//! reimplements that style of injector so the comparison can be reproduced.

use crate::arithmetic::sample_geometric_gap;
use crate::{flip_bit_within, BitErrorRate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wgft_fixedpoint::BitWidth;

/// Injects bit flips directly into quantized neuron (activation) values.
///
/// To make the neuron-level platform comparable with the operation-level
/// platform, each neuron absorbs the fault opportunities of the operations
/// that produced it: the per-neuron fault probability is
/// `1 - (1 - BER)^(W * ops_per_neuron)` where `ops_per_neuron` is derived
/// from the *standard* convolution operation count — a generic framework has
/// no visibility into the conv algorithm actually used, which is precisely
/// why it cannot differentiate the two.
#[derive(Debug, Clone)]
pub struct NeuronLevelInjector {
    ber: BitErrorRate,
    width: BitWidth,
    rng: SmallRng,
}

impl NeuronLevelInjector {
    /// Create an injector with a deterministic seed.
    #[must_use]
    pub fn new(ber: BitErrorRate, width: BitWidth, seed: u64) -> Self {
        Self {
            ber,
            width,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The configured bit error rate.
    #[must_use]
    pub fn ber(&self) -> BitErrorRate {
        self.ber
    }

    /// Corrupt a layer's quantized output values in place.
    ///
    /// `ops_per_neuron` is the number of primitive operations a standard
    /// convolution spends per output value of this layer (used to scale the
    /// per-neuron fault probability, see the type-level documentation).
    /// Returns the number of values that were corrupted.
    pub fn corrupt_layer(&mut self, values: &mut [i32], ops_per_neuron: u64) -> u64 {
        if self.ber.is_zero() || values.is_empty() {
            return 0;
        }
        let bits_per_neuron = u64::from(self.width.bits()) * ops_per_neuron.max(1);
        // Probability that a given neuron sees at least one flip.
        let p = per_neuron_probability(self.ber, bits_per_neuron);
        if p <= 0.0 {
            return 0;
        }
        let w = self.width.bits();
        let mut corrupted = 0;
        if p >= 1e-2 {
            // Dense regime: visit every neuron.
            for v in values.iter_mut() {
                if self.rng.gen::<f64>() < p {
                    let bit = self.rng.gen_range(0..w);
                    *v = flip_bit_within(i64::from(*v), bit, w) as i32;
                    corrupted += 1;
                }
            }
        } else {
            // Sparse regime: jump between corrupted neurons geometrically.
            let mut idx = sample_skip(p, &mut self.rng);
            while idx < values.len() as u64 {
                let i = idx as usize;
                let bit = self.rng.gen_range(0..w);
                values[i] = flip_bit_within(i64::from(values[i]), bit, w) as i32;
                corrupted += 1;
                idx = idx
                    .saturating_add(sample_skip(p, &mut self.rng))
                    .saturating_add(1);
            }
        }
        corrupted
    }
}

fn per_neuron_probability(ber: BitErrorRate, bits: u64) -> f64 {
    let log_no_flip = bits as f64 * (-ber.rate()).ln_1p();
    -log_no_flip.exp_m1()
}

/// Neurons skipped before the next corrupted one (`u64::MAX`: none) — the
/// shared geometric sampler's inclusive gap, made exclusive.
fn sample_skip<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    match sample_geometric_gap(p, rng) {
        u64::MAX => u64::MAX,
        gap => gap - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ber_corrupts_nothing() {
        let mut inj = NeuronLevelInjector::new(BitErrorRate::ZERO, BitWidth::W8, 1);
        let mut values = vec![5i32; 1000];
        assert_eq!(inj.corrupt_layer(&mut values, 100), 0);
        assert!(values.iter().all(|&v| v == 5));
    }

    #[test]
    fn tiny_nonzero_ber_corrupts_nothing() {
        let mut inj = NeuronLevelInjector::new(BitErrorRate::new(1e-19), BitWidth::W16, 1);
        let mut values = vec![5i32; 10_000];
        assert_eq!(inj.corrupt_layer(&mut values, 1), 0);
        assert!(values.iter().all(|&v| v == 5));
    }

    #[test]
    fn high_ber_corrupts_most_neurons() {
        let mut inj = NeuronLevelInjector::new(BitErrorRate::new(0.5), BitWidth::W8, 2);
        let mut values = vec![1i32; 1000];
        let corrupted = inj.corrupt_layer(&mut values, 10);
        assert!(
            corrupted > 900,
            "expected nearly all corrupted, got {corrupted}"
        );
    }

    #[test]
    fn corruption_count_scales_with_ops_per_neuron() {
        let run = |ops| {
            let mut inj = NeuronLevelInjector::new(BitErrorRate::new(1e-6), BitWidth::W16, 3);
            let mut values = vec![7i32; 200_000];
            inj.corrupt_layer(&mut values, ops)
        };
        let few = run(1);
        let many = run(1000);
        assert!(
            many > few * 10,
            "ops_per_neuron=1000 ({many}) should corrupt far more than 1 ({few})"
        );
    }

    #[test]
    fn corrupted_values_stay_within_storage_width() {
        let mut inj = NeuronLevelInjector::new(BitErrorRate::new(0.9), BitWidth::W8, 4);
        let mut values = vec![100i32; 500];
        inj.corrupt_layer(&mut values, 5);
        for &v in &values {
            assert!(
                (-128..=255).contains(&v),
                "value {v} escaped the modelled word width"
            );
        }
    }

    #[test]
    fn sparse_and_dense_regimes_agree_statistically() {
        // Choose parameters so p sits near the regime boundary and compare
        // the corruption fraction against the analytic expectation.
        let expect = |ber: f64, ops: u64, n: usize, seed: u64| {
            let mut inj = NeuronLevelInjector::new(BitErrorRate::new(ber), BitWidth::W8, seed);
            let mut values = vec![3i32; n];
            inj.corrupt_layer(&mut values, ops) as f64 / n as f64
        };
        let p_dense = expect(2e-3, 1, 100_000, 5); // p ~ 1.6e-2 -> dense path
        let p_sparse = expect(2e-4, 1, 100_000, 6); // p ~ 1.6e-3 -> sparse path
        assert!((p_dense - 0.016).abs() < 0.004, "dense fraction {p_dense}");
        assert!(
            (p_sparse - 0.0016).abs() < 0.0008,
            "sparse fraction {p_sparse}"
        );
    }

    #[test]
    fn accessor_returns_configured_ber() {
        let inj = NeuronLevelInjector::new(BitErrorRate::new(1e-5), BitWidth::W16, 0);
        assert_eq!(inj.ber(), BitErrorRate::new(1e-5));
    }
}
