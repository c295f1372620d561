//! Operation-level and neuron-level soft-error fault injection for DNN arithmetic.
//!
//! The DAC'22 paper observes that existing fault-injection frameworks
//! (TensorFI, PyTorchFI) inject bit flips into *neurons and weights* and can
//! therefore not distinguish standard convolution from winograd convolution —
//! the two algorithms produce the same neurons. It proposes an
//! **operation-level** platform that injects random soft errors into the
//! *primitive multiply and add operations* of the network instead.
//!
//! This crate is that platform:
//!
//! * [`Arithmetic`] — the instrumented scalar datapath every convolution and
//!   fully-connected kernel in the workspace executes through,
//! * [`ExactArithmetic`] — golden (fault-free) execution with operation
//!   counting,
//! * [`FaultyArithmetic`] — bit-flip injection at a configurable
//!   [`BitErrorRate`], using geometric skip sampling so that the common
//!   no-fault path costs a single counter decrement,
//! * [`ProtectionPlan`] — describes which operations are protected
//!   (fault-free layers, fault-free operation types, or a *fraction* of a
//!   layer's operations — the paper's fine-grained TMR),
//! * [`NeuronLevelInjector`] — the coarse neuron-level baseline used in the
//!   paper's Figure 1 comparison,
//! * [`StrikeEnumerator`] — fault-site replay: draws an image's strikes up
//!   front, bit-identically to [`FaultyArithmetic`], so kernels can run on
//!   plain integer code and recompute only the struck operations.
//!
//! Every operation-level fault in the workspace — campaign cells, planner
//! probes and the serving daemon's chaos drills — comes from this one fault
//! model: [`FaultyArithmetic`] on the instrumented datapath, or the same
//! strikes drawn by [`StrikeEnumerator`] for the fast integer engines.
//!
//! # Fault model
//!
//! Per primitive operation the probability of a soft error is
//! `1 - (1 - BER)^W` where `W` is the storage width of the quantized word
//! (8 or 16 bits). When an error strikes:
//!
//! * a **multiplication** has a uniformly chosen bit of one of its *input
//!   operands* (either register, chosen at random) flipped — the flip is then
//!   amplified by the other operand, which is the mechanism the paper
//!   identifies ("bit flip errors in input operands of multiplication
//!   typically can cause more severe computing errors"),
//! * an **addition** has a uniformly chosen bit of its *result* flipped
//!   (for a linear operation an operand flip and a result flip are
//!   equivalent).
//!
//! The model is configurable through [`FaultModel`] for ablation studies.
//!
//! # Example
//!
//! ```
//! use wgft_faultsim::{Arithmetic, BitErrorRate, FaultyArithmetic, FaultConfig};
//! use wgft_fixedpoint::BitWidth;
//!
//! let config = FaultConfig::new(BitErrorRate::new(1e-3), BitWidth::W8);
//! let mut arith = FaultyArithmetic::new(config, 42);
//! arith.begin_layer(0);
//! let mut acc = 0i64;
//! for i in 0..100 {
//!     let p = arith.mul(i % 7, 3);
//!     acc = arith.add(acc, p);
//! }
//! let counters = arith.counters();
//! assert_eq!(counters.total().mul, 100);
//! assert_eq!(counters.total().add, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arithmetic;
mod ber;
mod bitflip;
mod counter;
mod error;
mod neuron;
mod protection;
mod replay;

pub use arithmetic::{Arithmetic, ExactArithmetic, FaultConfig, FaultyArithmetic};
pub use ber::BitErrorRate;
pub use bitflip::{flip_bit_within, FaultModel};
pub use counter::{LayerOpCount, OpCount, OpCounters};
pub use error::FaultSimError;
pub use neuron::NeuronLevelInjector;
pub use protection::{OpType, ProtectionPlan};
pub use replay::{
    split_strikes, Flip, FlipSite, MacChain, MacChainReplay, MacOps, OpSequence, Strike,
    StrikeCursor, StrikeEnumerator,
};

/// Fault sampling at the scale of the fast engines' integer GEMMs, whose
/// strikes [`StrikeEnumerator`] draws through the crate's one geometric gap
/// sampler.
#[cfg(test)]
mod gemm {
    mod tests {
        use crate::arithmetic::GapSampler;
        use crate::{BitErrorRate, FaultConfig, MacOps, StrikeEnumerator};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use wgft_fixedpoint::BitWidth;

        /// The precomputed sampler the injectors hold keeps the one-off
        /// draw's edge cases, out-of-range rates included.
        #[test]
        fn gap_sampler_edge_cases() {
            let mut rng = SmallRng::seed_from_u64(1);
            assert_eq!(GapSampler::new(0.0).sample(&mut rng), u64::MAX);
            assert_eq!(GapSampler::new(-0.5).sample(&mut rng), u64::MAX);
            assert_eq!(GapSampler::new(1.0).sample(&mut rng), 1);
            assert_eq!(GapSampler::new(1.5).sample(&mut rng), 1);
            assert!(GapSampler::new(0.5).sample(&mut rng) >= 1);
        }

        /// A 16-bit GEMM layer of 10 000 multiply-accumulates per image
        /// draws no strike at rates where `1 - p` rounds to one.
        #[test]
        fn tiny_nonzero_ber_never_corrupts() {
            for ber in [1e-17, 1e-18, f64::MIN_POSITIVE] {
                let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16);
                assert!(config.fault_probability() > 0.0);
                let mut enumerator = StrikeEnumerator::new(&config, 1);
                let mut strikes = Vec::new();
                for layer in 0..4 {
                    enumerator.layer(layer, &MacOps(10_000), &mut strikes);
                }
                assert!(strikes.is_empty(), "BER {ber:e} must not strike");
            }
        }
    }
}
