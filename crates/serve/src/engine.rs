//! The inference engine behind the daemon: one prepared
//! [`FaultToleranceCampaign`] plus the plans and scratch every serving path
//! needs, owned exclusively by the worker thread (no locks on the hot path).
//!
//! Three serving paths, one per protection family:
//!
//! * **fast batch** — fault-free micro-batched fast path
//!   ([`QuantizedNetwork::forward_fast_batch`]), bit-identical to per-image
//!   execution for any coalescing schedule;
//! * **fast chaos** — the same fast path per image, struck by
//!   operation-level faults at the chaos BER through fault-site replay
//!   ([`QuantizedNetwork::classify_replay`]), seeded from
//!   `(chaos_seed, request_id)` so retries are idempotent;
//! * **protected** — the executable ABFT path under the tier's policy.
//!   With chaos off no fault can strike, so the request runs on the fast
//!   engines ([`QuantizedNetwork::classify_abft_fast`]) with every check of
//!   the policy still verified on the values they compute, and events
//!   bit-identical to the instrumented path at BER 0. With chaos on it runs
//!   the instrumented path ([`QuantizedNetwork::classify_abft`]) over a
//!   [`FaultyArithmetic`] backend carrying the chaos BER, seeded from
//!   `(chaos_seed, request_id)`.
//!
//! Both chaos paths inject the campaigns' fault model — the same BER, word
//! width, fault model and per-request seed — so a protected tier holding
//! while the fast tier degrades compares protection, not fault models.
//!
//! [`QuantizedNetwork::classify_replay`]: wgft_nn::QuantizedNetwork::classify_replay
//! [`QuantizedNetwork::classify_abft_fast`]: wgft_nn::QuantizedNetwork::classify_abft_fast
//! [`QuantizedNetwork::classify_abft`]: wgft_nn::QuantizedNetwork::classify_abft

use wgft_abft::{AbftEvents, AbftPolicy, AbftScratch, ProtectionProfile};
use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_faultsim::{
    BitErrorRate, FaultConfig, FaultyArithmetic, ProtectionPlan, StrikeEnumerator,
};
use wgft_nn::{FastInference, NnError};
use wgft_tensor::Tensor;
use wgft_winograd::ConvAlgorithm;

use crate::error::ServeError;

/// Fault-injection settings of `--chaos` mode.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Bit error rate driven into every request.
    pub ber: f64,
    /// Base seed; each request's fault stream is seeded from
    /// `mix(seed, request_id)`.
    pub seed: u64,
}

/// Mix a chaos base seed with a request id into a per-request fault seed
/// (splitmix64 finalizer — a pure function of its inputs, never of arrival
/// order, so a re-sent request replays the identical fault stream).
// wgft-audit: consensus-critical -- chaos drills must replay bit-identically
#[must_use]
pub fn request_fault_seed(seed: u64, request_id: u64) -> u64 {
    let mut z = seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker thread's prepared serving engine.
pub struct ServeEngine {
    campaign: FaultToleranceCampaign,
    algo: ConvAlgorithm,
    fast: FastInference,
    scratch: AbftScratch,
    chaos: Option<ChaosFaults>,
    config_json: String,
    /// The loaded planner profile (tier `profile`), pre-resolved into the
    /// executable policy + idealized-TMR plan it serves under, plus its
    /// identity hash for `Health`.
    profile: Option<LoadedProfile>,
}

/// Chaos settings resolved once at prepare time: the campaigns' fault
/// configuration at the chaos BER (no protection plan) and the base seed.
struct ChaosFaults {
    config: FaultConfig,
    seed: u64,
}

/// A `ProtectionProfile` resolved into its serving form once at prepare
/// time, so the hot path never re-derives policies.
struct LoadedProfile {
    policy: AbftPolicy,
    plan: ProtectionPlan,
    hash: String,
}

impl ServeEngine {
    /// Train/load the model, quantize it, and prepare every plan the
    /// serving paths use (fast winograd plans, ABFT calibration) — all the
    /// one-time cost happens here, before the daemon accepts a connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Prepare`] if the chaos BER is not a probability, or
    /// campaign preparation or planning fails.
    pub fn prepare(
        config: &CampaignConfig,
        algo: ConvAlgorithm,
        chaos: Option<ChaosConfig>,
    ) -> Result<Self, ServeError> {
        Self::prepare_with_profile(config, algo, chaos, None)
    }

    /// [`ServeEngine::prepare`] plus a planner [`ProtectionProfile`] for the
    /// `profile` tier. The profile must validate and must assign exactly the
    /// served network's compute layers; its recorded model name must match.
    ///
    /// # Errors
    ///
    /// [`ServeError::Prepare`] if the chaos BER is not a probability,
    /// campaign preparation fails or the profile does not fit the served
    /// model.
    pub fn prepare_with_profile(
        config: &CampaignConfig,
        algo: ConvAlgorithm,
        chaos: Option<ChaosConfig>,
        profile: Option<ProtectionProfile>,
    ) -> Result<Self, ServeError> {
        let chaos = chaos
            .map(|chaos| {
                let ber = BitErrorRate::try_new(chaos.ber)
                    .map_err(|e| ServeError::Prepare(format!("chaos: {e}")))?;
                Ok::<_, ServeError>(ChaosFaults {
                    config: FaultConfig::new(ber, config.width).with_model(config.fault_model),
                    seed: chaos.seed,
                })
            })
            .transpose()?;
        let config_json = serde_json::to_string(config)
            .map_err(|e| ServeError::Prepare(format!("config serialization: {e}")))?;
        let campaign = FaultToleranceCampaign::prepare(config)
            .map_err(|e| ServeError::Prepare(e.to_string()))?;
        let fast = campaign
            .quantized()
            .prepare_fast()
            .map_err(|e| ServeError::Prepare(e.to_string()))?;
        // Force the lazy ABFT calibration now: the protected tiers must not
        // pay it on their first request.
        let _ = campaign.abft_calibration(algo);
        let profile = profile
            .map(|profile| {
                profile
                    .validate()
                    .map_err(|e| ServeError::Prepare(format!("profile: {e}")))?;
                let layers = campaign.quantized().compute_layer_count();
                if profile.layers.len() != layers {
                    return Err(ServeError::Prepare(format!(
                        "profile assigns {} layers but the served model has {layers} \
                         compute layers",
                        profile.layers.len()
                    )));
                }
                if profile.model != campaign.quantized().name() {
                    return Err(ServeError::Prepare(format!(
                        "profile was planned for model `{}`, the daemon serves `{}`",
                        profile.model,
                        campaign.quantized().name()
                    )));
                }
                Ok(LoadedProfile {
                    policy: profile.policy(),
                    plan: profile.plan(),
                    hash: profile.hash(),
                })
            })
            .transpose()?;
        Ok(Self {
            campaign,
            algo,
            fast,
            scratch: AbftScratch::new(),
            chaos,
            config_json,
            profile,
        })
    }

    /// The campaign configuration, verbatim JSON (served by `Health`).
    #[must_use]
    pub fn config_json(&self) -> &str {
        &self.config_json
    }

    /// The conv algorithm label (served by `Health`).
    #[must_use]
    pub fn algo_label(&self) -> &'static str {
        wgft_core::cli::algo_label(self.algo)
    }

    /// Fault-free baseline accuracy of the served network.
    #[must_use]
    pub fn clean_accuracy(&self) -> f64 {
        self.campaign.clean_accuracy()
    }

    /// Whether chaos injection is active.
    #[must_use]
    pub fn chaos_active(&self) -> bool {
        self.chaos.is_some()
    }

    /// Flattened image length the served spec expects.
    #[must_use]
    pub fn image_len(&self) -> usize {
        self.campaign.config().spec.image_len()
    }

    /// Tensor shape of a served image.
    #[must_use]
    pub fn image_shape(&self) -> wgft_tensor::Shape {
        self.campaign.config().spec.image_shape()
    }

    /// Shape a raw flattened image into the served spec's tensor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the length is wrong.
    pub fn shape_image(&self, data: Vec<f32>) -> Result<Tensor, ServeError> {
        let expected = self.image_len();
        if data.len() != expected {
            return Err(ServeError::server(format!(
                "image has {} values, the served model expects {expected}",
                data.len()
            )));
        }
        Tensor::from_vec(self.campaign.config().spec.image_shape(), data)
            .map_err(|e| ServeError::server(format!("bad image: {e}")))
    }

    /// Classify a micro-batch on the unprotected fast path, fault-free.
    /// Bit-identical to per-image execution for any batch schedule.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast_batch`][fb].
    ///
    /// [fb]: wgft_nn::QuantizedNetwork::forward_fast_batch
    pub fn classify_fast_batch(&mut self, images: &[&Tensor]) -> Result<Vec<usize>, NnError> {
        self.campaign
            .quantized()
            .classify_fast_batch(images, self.algo, &mut self.fast)
    }

    /// Classify one image on the fast path under the chaos BER's
    /// operation-level faults, by fault-site replay: the answer equals the
    /// instrumented `classify` over a [`FaultyArithmetic`] with the
    /// campaign's word width and fault model, seeded from
    /// `(chaos_seed, request_id)`. Deterministic in `request_id`; falls
    /// back to the clean fast path when chaos is off.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast`][ff].
    ///
    /// [ff]: wgft_nn::QuantizedNetwork::forward_fast
    pub fn classify_fast_chaos(
        &mut self,
        request_id: u64,
        image: &Tensor,
    ) -> Result<usize, NnError> {
        let network = self.campaign.quantized();
        let Some(chaos) = &self.chaos else {
            return network.classify_fast(image, self.algo, &mut self.fast);
        };
        let mut faults =
            StrikeEnumerator::new(&chaos.config, request_fault_seed(chaos.seed, request_id));
        network.classify_replay(image, self.algo, &mut self.fast, &mut faults)
    }

    /// Identity hash of the loaded planner profile, if any (served by
    /// `Health`).
    #[must_use]
    pub fn profile_hash(&self) -> Option<&str> {
        self.profile.as_ref().map(|p| p.hash.as_str())
    }

    /// Classify one image under the loaded planner profile's measured
    /// per-layer assignment: its ABFT policy, plus (with chaos on) its
    /// idealized-TMR plan driven through the instrumented arithmetic.
    /// Falls back to [`ProtectionTier::ChecksumRecompute`]'s blanket policy
    /// when no profile is loaded, so the `profile` tier never serves weaker
    /// than configured. Deterministic in `request_id`.
    ///
    /// [`ProtectionTier::ChecksumRecompute`]: crate::ProtectionTier::ChecksumRecompute
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::classify_abft`][ca].
    ///
    /// [ca]: wgft_nn::QuantizedNetwork::classify_abft
    pub fn classify_profiled(
        &mut self,
        request_id: u64,
        image: &Tensor,
    ) -> Result<(usize, AbftEvents), NnError> {
        let Some(profile) = &self.profile else {
            return self.classify_protected(request_id, image, &AbftPolicy::checksum_range());
        };
        let policy = profile.policy.clone();
        let plan = profile.plan.clone();
        self.classify_under(request_id, image, &policy, plan)
    }

    /// Classify one image under an ABFT policy: on the fast engines with
    /// chaos off, on the instrumented arithmetic with the chaos BER with it
    /// on. Returns the prediction and the request's protection events.
    /// Deterministic in `request_id`.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::classify_abft`][ca].
    ///
    /// [ca]: wgft_nn::QuantizedNetwork::classify_abft
    pub fn classify_protected(
        &mut self,
        request_id: u64,
        image: &Tensor,
        policy: &AbftPolicy,
    ) -> Result<(usize, AbftEvents), NnError> {
        self.classify_under(request_id, image, policy, ProtectionPlan::none())
    }

    /// The protected serving path: `policy` around the network, plus the
    /// idealized `plan` inside the arithmetic when chaos faults can strike
    /// (at BER 0 it masks nothing, so the fast engines serve).
    fn classify_under(
        &mut self,
        request_id: u64,
        image: &Tensor,
        policy: &AbftPolicy,
        plan: ProtectionPlan,
    ) -> Result<(usize, AbftEvents), NnError> {
        let calibration = self.campaign.abft_calibration(self.algo);
        let network = self.campaign.quantized();
        let mut events = AbftEvents::new();
        let prediction = match &self.chaos {
            None => network.classify_abft_fast(
                image,
                self.algo,
                policy,
                Some(calibration),
                &mut self.fast,
                &mut self.scratch,
                &mut events,
            )?,
            Some(chaos) => {
                let fault_config = chaos.config.clone().with_protection(plan);
                let seed = request_fault_seed(chaos.seed, request_id);
                network.classify_abft(
                    image,
                    &mut FaultyArithmetic::new(fault_config, seed),
                    self.algo,
                    policy,
                    Some(calibration),
                    &mut self.scratch,
                    &mut events,
                )?
            }
        };
        Ok((prediction, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_fault_seeds_are_deterministic_and_spread() {
        assert_eq!(request_fault_seed(7, 42), request_fault_seed(7, 42));
        assert_ne!(request_fault_seed(7, 42), request_fault_seed(7, 43));
        assert_ne!(request_fault_seed(7, 42), request_fault_seed(8, 42));
        // Consecutive ids must not produce near-identical streams.
        let a = request_fault_seed(7, 1);
        let b = request_fault_seed(7, 2);
        assert!((a ^ b).count_ones() > 8, "seeds barely differ: {a:x} {b:x}");
    }
}
