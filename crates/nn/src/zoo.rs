//! Training entry points and a disk cache for trained models.
//!
//! Fault-injection campaigns need *trained* networks (an untrained network has
//! chance-level accuracy, which leaves nothing for soft errors to degrade).
//! Training a miniature zoo model at the default scale takes about a second
//! in a release build; the benchmark harness still caches trained weights as
//! JSON under a user-supplied directory (typically `target/wgft-models`), so
//! repeated figure runs skip it.

use crate::models::ModelKind;
use crate::{Network, NnError, TrainConfig, Trainer};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use wgft_data::{Dataset, SyntheticSpec};

/// A trained floating-point model together with its task and test accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Which benchmark analogue this is.
    pub kind: ModelKind,
    /// The task it was trained on.
    pub spec: SyntheticSpec,
    /// The trained network.
    pub network: Network,
    /// Floating-point accuracy on the held-out test split.
    pub clean_accuracy: f64,
    /// Mean loss of the final training epoch.
    pub final_loss: f32,
}

/// Floating-point top-1 accuracy of a network over a dataset.
///
/// Evaluates through [`Network::forward_inference_batch`] in 32-image chunks,
/// bit-identical to (and much faster than) a per-image inference loop.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn evaluate_f32(network: &mut Network, data: &Dataset) -> Result<f64, NnError> {
    crate::train::evaluate(network, data)
}

/// Train a model-zoo network on the given train/test split.
///
/// # Errors
///
/// Propagates any layer error raised during training or evaluation.
pub fn train_model(
    kind: ModelKind,
    spec: &SyntheticSpec,
    train: &Dataset,
    test: &Dataset,
    config: TrainConfig,
    seed: u64,
) -> Result<TrainedModel, NnError> {
    let mut network = kind.build(spec, seed);
    let mut trainer = Trainer::new(config);
    let report = trainer.fit(&mut network, train)?;
    let clean_accuracy = evaluate_f32(&mut network, test)?;
    Ok(TrainedModel {
        kind,
        spec: *spec,
        network,
        clean_accuracy,
        final_loss: report.epoch_losses.last().copied().unwrap_or(f32::NAN),
    })
}

impl TrainedModel {
    /// File name used by the disk cache for this model/task combination.
    #[must_use]
    pub fn cache_file_name(kind: ModelKind, spec: &SyntheticSpec) -> String {
        format!(
            "{}_{}c_{}x{}_{}cls.json",
            kind.label(),
            spec.channels,
            spec.height,
            spec.width,
            spec.num_classes
        )
    }

    /// Load a cached model if present, otherwise train and cache it.
    ///
    /// Pass `None` as `cache_dir` to force training without touching the file
    /// system (what unit tests do).
    ///
    /// # Errors
    ///
    /// Propagates training errors; cache I/O problems fall back to training.
    pub fn load_or_train(
        kind: ModelKind,
        spec: &SyntheticSpec,
        train: &Dataset,
        test: &Dataset,
        config: TrainConfig,
        seed: u64,
        cache_dir: Option<&Path>,
    ) -> Result<TrainedModel, NnError> {
        if let Some(dir) = cache_dir {
            let path = dir.join(Self::cache_file_name(kind, spec));
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(model) = serde_json::from_slice::<TrainedModel>(&bytes) {
                    if model.kind == kind && model.spec == *spec {
                        return Ok(model);
                    }
                }
            }
        }
        let model = train_model(kind, spec, train, test, config, seed)?;
        if let Some(dir) = cache_dir {
            let path = dir.join(Self::cache_file_name(kind, spec));
            if fs::create_dir_all(dir).is_ok() {
                if let Ok(json) = serde_json::to_vec(&model) {
                    // Best-effort cache write; campaigns work fine without it.
                    let _ = fs::write(path, json);
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_task() -> (SyntheticSpec, Dataset, Dataset) {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 12, 9);
        let (train, test) = data.split(0.75);
        (spec, train, test)
    }

    #[test]
    fn training_beats_chance_on_the_tiny_task() {
        let (spec, train, test) = tiny_task();
        let model = train_model(
            ModelKind::VggSmall,
            &spec,
            &train,
            &test,
            TrainConfig {
                epochs: 4,
                ..TrainConfig::fast()
            },
            1,
        )
        .unwrap();
        let chance = 1.0 / spec.num_classes as f64;
        assert!(
            model.clean_accuracy > 1.5 * chance,
            "trained accuracy {} should beat chance {}",
            model.clean_accuracy,
            chance
        );
        assert!(model.final_loss.is_finite());
    }

    #[test]
    fn cache_roundtrip_reuses_the_trained_model() {
        let (spec, train, test) = tiny_task();
        let dir = std::env::temp_dir().join(format!("wgft_zoo_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = TrainedModel::load_or_train(
            ModelKind::VggSmall,
            &spec,
            &train,
            &test,
            TrainConfig::fast(),
            2,
            Some(&dir),
        )
        .unwrap();
        let second = TrainedModel::load_or_train(
            ModelKind::VggSmall,
            &spec,
            &train,
            &test,
            TrainConfig::fast(),
            999, // different seed: must not matter because the cache is hit
            Some(&dir),
        )
        .unwrap();
        // Compare through the serialized form: runtime-only fields (gradient
        // buffers, forward caches) are skipped by serde and differ between a
        // freshly trained model and one restored from disk.
        assert_eq!(
            serde_json::to_value(&first).unwrap(),
            serde_json::to_value(&second).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_file_name_encodes_task() {
        let name = TrainedModel::cache_file_name(ModelKind::ResNetSmall, &SyntheticSpec::small());
        assert_eq!(name, "resnet_small_3c_16x16_8cls.json");
    }

    #[test]
    fn evaluate_f32_matches_training_report_scale() {
        let (spec, train, _test) = tiny_task();
        let mut net = ModelKind::VggSmall.build(&spec, 3);
        let acc = evaluate_f32(&mut net, &train).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// `evaluate_f32` runs batched inference under the hood; its verdicts
    /// must be exactly what a per-image inference loop produces.
    #[test]
    fn batched_evaluation_matches_per_image_inference() {
        let (spec, train, _test) = tiny_task();
        let mut net = ModelKind::VggSmall.build(&spec, 3);
        let batched = evaluate_f32(&mut net, &train).unwrap();
        let mut correct = 0usize;
        for sample in train.iter() {
            let logits = net.forward_inference(&sample.image).unwrap();
            if wgft_data::argmax(logits.data()) == sample.label {
                correct += 1;
            }
        }
        assert_eq!(batched, correct as f64 / train.len() as f64);
    }
}
