//! Fault-tolerance evaluation campaigns (Figures 1, 2 and 4).

use crate::report::{pct, sci};
use crate::table::{critical_ber_grid, critical_threshold, first_rate_below};
use crate::{
    CampaignConfig, CoreError, Granularity, MergedReport, ReportHeader, SweepKind, TextTable,
    UnitCell,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use wgft_abft::{AbftCalibration, AbftEvents, AbftPolicy, AbftScratch};
use wgft_data::{Dataset, Sample};
use wgft_faultsim::{
    BitErrorRate, FaultConfig, FaultyArithmetic, NeuronLevelInjector, ProtectionPlan,
    StrikeEnumerator,
};
use wgft_nn::{FastInference, QuantizedNetwork, QuantizerOptions, TrainedModel};
use wgft_tensor::Tensor;
use wgft_winograd::{ConvAlgorithm, WinogradVariant};

/// A prepared fault-tolerance campaign: a trained, quantized model-zoo network
/// plus its evaluation set.
///
/// Preparing a campaign trains the network (or loads it from the cache) and is
/// therefore the expensive step; every evaluation method afterwards reuses the
/// same quantized network.
#[derive(Debug, Clone)]
pub struct FaultToleranceCampaign {
    config: CampaignConfig,
    trained: TrainedModel,
    quantized: QuantizedNetwork,
    eval_set: Dataset,
    clean_accuracy: f64,
    /// The quantization-calibration images, retained so the ABFT value-range
    /// calibration can run lazily — most campaign kinds never touch ABFT,
    /// and `wgft-sweep` re-prepares campaigns on every resume.
    calibration_images: Vec<Tensor>,
    /// Fault-free value ranges per (algorithm, layer), computed on first use
    /// from `calibration_images` — what the executable range restriction of
    /// `wgft-abft` clips against. Deterministic, so laziness cannot change
    /// any result.
    abft_standard: std::sync::OnceLock<AbftCalibration>,
    abft_winograd: std::sync::OnceLock<AbftCalibration>,
    /// Prepared fast-inference template (plans + scratch), built on the
    /// first fault-free span and cloned per worker afterwards so repeated
    /// BER=0 spans don't repack the winograd weights every call.
    fast_template: std::sync::OnceLock<FastInference>,
}

impl FaultToleranceCampaign {
    /// Train (or load) the configured model, quantize it and evaluate the
    /// fault-free baseline accuracy.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if training, quantization or evaluation fails.
    pub fn prepare(config: &CampaignConfig) -> Result<Self, CoreError> {
        let data = match &config.dataset {
            crate::DatasetSource::Synthetic => {
                Dataset::synthetic(&config.spec, config.train_per_class, config.base_seed)
            }
            crate::DatasetSource::Cifar10 { dir } => {
                // The zoo network is built from `spec`, so the spec must
                // describe the CIFAR geometry or the loaded 3x32x32 images
                // would not fit its input layer.
                let expect = wgft_data::SyntheticSpec::cifar10();
                if config.spec.num_classes != expect.num_classes
                    || config.spec.channels != expect.channels
                    || config.spec.height != expect.height
                    || config.spec.width != expect.width
                {
                    return Err(CoreError::InvalidParameter {
                        name: "spec",
                        reason: format!(
                            "dataset source cifar10 needs the CIFAR geometry \
                             ({} classes, {}x{}x{}), got {} classes, {}x{}x{} \
                             — use SyntheticSpec::cifar10()",
                            expect.num_classes,
                            expect.channels,
                            expect.height,
                            expect.width,
                            config.spec.num_classes,
                            config.spec.channels,
                            config.spec.height,
                            config.spec.width,
                        ),
                    });
                }
                wgft_data::load_cifar10_dir(dir).map_err(|e| CoreError::InvalidParameter {
                    name: "dataset",
                    reason: e.to_string(),
                })?
            }
        };
        let (train, test) = data.split(0.8);
        // CIFAR-trained weights cache under a `cifar10/` subdirectory so a
        // real-data model can never shadow a synthetic one of the same
        // geometry (the cache file name only encodes kind and spec).
        let cache_dir = config.cache_dir.as_ref().map(|dir| {
            if config.dataset.is_synthetic() {
                dir.clone()
            } else {
                dir.join(config.dataset.label())
            }
        });
        let trained = TrainedModel::load_or_train(
            config.model,
            &config.spec,
            &train,
            &test,
            config.train_config,
            config.base_seed ^ 0x5EED,
            cache_dir.as_deref(),
        )?;
        let mut network = trained.network.clone();
        let calibration: Vec<Tensor> = train
            .samples()
            .iter()
            .take(16)
            .map(|s| s.image.clone())
            .collect();
        let quantized = QuantizedNetwork::from_network(
            &mut network,
            &calibration,
            QuantizerOptions {
                variant: config.tile,
                ..QuantizerOptions::new(config.width)
            },
        )?;
        let eval_set = test.take(config.eval_images);
        let mut campaign = Self {
            config: config.clone(),
            trained,
            quantized,
            eval_set,
            clean_accuracy: 0.0,
            calibration_images: calibration,
            abft_standard: std::sync::OnceLock::new(),
            abft_winograd: std::sync::OnceLock::new(),
            fast_template: std::sync::OnceLock::new(),
        };
        campaign.clean_accuracy = campaign.accuracy_under(
            ConvAlgorithm::Standard,
            BitErrorRate::ZERO,
            &ProtectionPlan::none(),
        );
        Ok(campaign)
    }

    /// The configuration this campaign was prepared from.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Re-tune the evaluation batch size without re-preparing (batching is
    /// bit-identical, so this only affects wall-clock).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size.max(1);
        self
    }

    /// The trained floating-point model.
    #[must_use]
    pub fn trained(&self) -> &TrainedModel {
        &self.trained
    }

    /// The quantized network every evaluation runs on.
    #[must_use]
    pub fn quantized(&self) -> &QuantizedNetwork {
        &self.quantized
    }

    /// The evaluation set.
    #[must_use]
    pub fn eval_set(&self) -> &Dataset {
        &self.eval_set
    }

    /// Fault-free accuracy of the quantized network on the evaluation set.
    #[must_use]
    pub fn clean_accuracy(&self) -> f64 {
        self.clean_accuracy
    }

    /// Accuracy under operation-level fault injection.
    ///
    /// Every evaluation image uses an independent, deterministic fault seed
    /// derived from the campaign's base seed, so repeated calls are
    /// reproducible. Evaluation is batched: rayon workers take
    /// [`CampaignConfig::batch_size`]-image chunks, and the images of a chunk
    /// share one set of fast-path plans and scratch instead of reallocating
    /// per forward pass. Per-image outcomes are summed in image order, so the
    /// result is bit-identical to a serial per-image evaluation regardless of
    /// thread count or batch size (set `RAYON_NUM_THREADS=1` to force the
    /// serial schedule).
    ///
    /// Every image runs on the fast uninstrumented quantized path:
    /// fault-free evaluation (`ber == 0`, which includes the campaign's clean
    /// baseline) as `QuantizedNetwork::forward_fast`, faulty evaluation by
    /// fault-site replay (`QuantizedNetwork::forward_replay`). Both are
    /// bit-identical to the instrumented `FaultyArithmetic` path — tested —
    /// and several times faster.
    #[must_use]
    pub fn accuracy_under(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        protection: &ProtectionPlan,
    ) -> f64 {
        let spans = self
            .spans(|start, chunk| self.correct_op_level_span(algo, ber, protection, start, chunk));
        self.fraction(spans.into_iter().sum())
    }

    /// `span` over the whole evaluation set, in parallel: rayon workers take
    /// [`CampaignConfig::batch_size`]-image chunks, each with the global
    /// index of its first image, and the results come back in image order.
    fn spans<R: Send>(&self, span: impl Fn(usize, &[Sample]) -> R + Sync + Send) -> Vec<R> {
        let batch = self.config.batch_size.max(1);
        self.eval_set
            .samples()
            .par_chunks(batch)
            .enumerate()
            .map(|(chunk_idx, chunk)| span(chunk_idx * batch, chunk))
            .collect()
    }

    /// The evaluation images `[start, start + len)`, clamped to the set.
    fn clamped(&self, start: usize, len: usize) -> &[Sample] {
        let samples = self.eval_set.samples();
        let start = start.min(samples.len());
        &samples[start..start.saturating_add(len).min(samples.len())]
    }

    /// `correct` predictions as a fraction of the evaluation set.
    fn fraction(&self, correct: usize) -> f64 {
        correct as f64 / self.eval_set.len().max(1) as f64
    }

    /// Deterministic fault seed for evaluation image `image_index` under
    /// operation-level injection.
    ///
    /// The seed is a pure function of `(base_seed, image_index)` — never of
    /// execution order, chunk schedule or shard — which is what makes
    /// campaign results bit-identical across serial, batched, multi-threaded
    /// and sharded execution.
    #[must_use]
    pub fn op_level_fault_seed(base_seed: u64, image_index: usize) -> u64 {
        base_seed.wrapping_add(1 + image_index as u64)
    }

    /// Deterministic fault seed for evaluation image `image_index` under
    /// neuron-level injection (disjoint from [`Self::op_level_fault_seed`]).
    #[must_use]
    pub fn neuron_level_fault_seed(base_seed: u64, image_index: usize) -> u64 {
        base_seed.wrapping_add(0x9000 + image_index as u64)
    }

    /// Number of correct predictions under operation-level fault injection on
    /// the evaluation-image range `[start, start + len)` (clamped to the
    /// evaluation set).
    ///
    /// This is the work-unit primitive behind [`Self::accuracy_under`]:
    /// summing the counts of any partition of `0..eval_set.len()` and
    /// dividing by the set size reproduces the full accuracy bit for bit,
    /// because every image's fault seed derives from its global index alone
    /// (see [`Self::op_level_fault_seed`]).
    #[must_use]
    pub fn correct_op_level(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        protection: &ProtectionPlan,
        start: usize,
        len: usize,
    ) -> usize {
        self.correct_op_level_span(algo, ber, protection, start, self.clamped(start, len))
    }

    /// The ABFT value-range calibration for one algorithm, computed on first
    /// use from the quantization-calibration images (a fault-free pass, so
    /// the result is deterministic no matter when — or on which thread — it
    /// is first requested).
    #[must_use]
    pub fn abft_calibration(&self, algo: ConvAlgorithm) -> &AbftCalibration {
        let cell = match algo {
            ConvAlgorithm::Standard => &self.abft_standard,
            ConvAlgorithm::Winograd(_) => &self.abft_winograd,
        };
        cell.get_or_init(|| {
            self.quantized
                .calibrate_abft(&self.calibration_images, algo)
                .expect(
                    "ABFT calibration forwards the same images that already calibrated \
                     quantization; they cannot fail",
                )
        })
    }

    /// Number of correct predictions, and the ABFT events summed over them,
    /// of one campaign-table cell on the evaluation-image range
    /// `[start, start + len)` (clamped to the evaluation set).
    ///
    /// This is the work-unit primitive behind every table report: each
    /// image's fault seed derives from its global index alone (see
    /// [`Self::op_level_fault_seed`]), and correct counts and events are
    /// plain sums, so summing the results of any partition of
    /// `0..eval_set.len()` reproduces the whole-set sums bit for bit.
    #[must_use]
    pub fn evaluate_cell(&self, cell: &UnitCell, start: usize, len: usize) -> (usize, AbftEvents) {
        let policy = cell.abft.policy();
        let samples = self.clamped(start, len);
        self.cell_span(
            cell,
            &cell.protection.plan(),
            policy.as_ref(),
            start,
            samples,
        )
    }

    /// One cell over `samples`, with its plan and policy built by the caller
    /// (once per cell, not once per span). A neuron-level cell injects at
    /// layer outputs, where neither a plan nor a policy applies.
    fn cell_span(
        &self,
        cell: &UnitCell,
        plan: &ProtectionPlan,
        policy: Option<&AbftPolicy>,
        start: usize,
        samples: &[Sample],
    ) -> (usize, AbftEvents) {
        let ber = BitErrorRate::new(cell.ber);
        match (cell.granularity, policy) {
            (Granularity::OpLevel, Some(policy)) => {
                self.correct_op_level_abft_span(cell.algo, ber, plan, policy, start, samples)
            }
            (Granularity::OpLevel, None) => (
                self.correct_op_level_span(cell.algo, ber, plan, start, samples),
                AbftEvents::new(),
            ),
            (Granularity::NeuronLevel, _) => (
                self.correct_neuron_level_span(cell.algo, ber, start, samples),
                AbftEvents::new(),
            ),
        }
    }

    /// The report of `kind` over `bers`, in memory: every cell of the
    /// campaign table summed over the evaluation set in batched parallel
    /// spans (see [`Self::accuracy_under`]), then reduced by
    /// [`SweepKind::report`], the reducer `wgft-sweep`'s merge runs too.
    pub(crate) fn table_report(&self, kind: SweepKind, bers: &[f64]) -> MergedReport {
        let bers = kind.effective_bers(bers);
        let sums: Vec<(u64, AbftEvents)> = bers
            .iter()
            .flat_map(|&ber| kind.cells_for_ber(ber))
            .map(|cell| {
                let plan = cell.protection.plan();
                let policy = cell.abft.policy();
                let spans = self.spans(|start, samples| {
                    self.cell_span(&cell, &plan, policy.as_ref(), start, samples)
                });
                spans.into_iter().fold(
                    (0, AbftEvents::new()),
                    |(correct, mut events), (span_correct, span_events)| {
                        events += span_events;
                        (correct + span_correct as u64, events)
                    },
                )
            })
            .collect();
        let header = ReportHeader {
            model: self.quantized.name().to_string(),
            width: self.config.width.to_string(),
            tile: self.config.tile,
            clean_accuracy: self.clean_accuracy,
            images: self.eval_set.len(),
            num_classes: self.config.spec.num_classes,
            standard_ops: self.quantized.total_op_count(ConvAlgorithm::Standard),
            winograd_ops: self
                .quantized
                .total_op_count(ConvAlgorithm::winograd_default()),
        };
        kind.report(&header, &bers, &sums)
    }

    /// Correct predictions and summed events over `samples` with `policy`
    /// running around operation-level faults. Per-image fault seeds are the
    /// ones [`Self::correct_op_level`] derives, so protected and unprotected
    /// accuracy are measured against the *same* fault streams.
    fn correct_op_level_abft_span(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        protection: &ProtectionPlan,
        policy: &AbftPolicy,
        start: usize,
        samples: &[Sample],
    ) -> (usize, AbftEvents) {
        let calibration = self.abft_calibration(algo);
        let mut scratch = AbftScratch::new();
        let mut events = AbftEvents::new();
        let mut correct = 0usize;
        if ber.is_zero() {
            // No fault can strike and every protection plan is a no-op, so
            // the instrumented execution reduces to exact arithmetic: the
            // fast protected pass runs every check of `policy` on the fast
            // engines and reports bit-identical events (tested in `wgft-nn`).
            let mut fast = self.fast_inference();
            for sample in samples {
                let predicted = self
                    .quantized
                    .classify_abft_fast(
                        &sample.image,
                        algo,
                        policy,
                        Some(calibration),
                        &mut fast,
                        &mut scratch,
                        &mut events,
                    )
                    .unwrap_or(usize::MAX);
                correct += usize::from(predicted == sample.label);
            }
            return (correct, events);
        }
        for (offset, sample) in samples.iter().enumerate() {
            let i = start + offset;
            let config = FaultConfig {
                ber,
                width: self.config.width,
                model: self.config.fault_model,
                protection: protection.clone(),
            };
            let seed = Self::op_level_fault_seed(self.config.base_seed, i);
            let mut arith = FaultyArithmetic::new(config, seed);
            let predicted = self
                .quantized
                .classify_abft(
                    &sample.image,
                    &mut arith,
                    algo,
                    policy,
                    Some(calibration),
                    &mut scratch,
                    &mut events,
                )
                .unwrap_or(usize::MAX);
            correct += usize::from(predicted == sample.label);
        }
        (correct, events)
    }

    /// Accuracy (and summed ABFT events) under operation-level fault
    /// injection with an executable [`AbftPolicy`]. The protected
    /// counterpart of [`Self::accuracy_under`]: same seeds, same batched
    /// parallel evaluation, bit-identical for any batch size or thread
    /// count because both the correct counts and the event counters are
    /// order-independent sums.
    #[must_use]
    pub fn accuracy_under_abft(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        protection: &ProtectionPlan,
        policy: &AbftPolicy,
    ) -> (f64, AbftEvents) {
        let spans = self.spans(|start, chunk| {
            self.correct_op_level_abft_span(algo, ber, protection, policy, start, chunk)
        });
        let mut correct = 0usize;
        let mut events = AbftEvents::new();
        for (span_correct, span_events) in spans {
            correct += span_correct;
            events += span_events;
        }
        (self.fraction(correct), events)
    }

    /// Number of correct predictions over `samples` on the fast
    /// uninstrumented path — the route every *fault-free* span takes.
    ///
    /// At BER 0 the operation-level injector can never strike (and every
    /// protection plan is a no-op), so the instrumented execution reduces to
    /// exact arithmetic — which `QuantizedNetwork::forward_fast` reproduces
    /// bit for bit (tested in `wgft-nn` and below). Routing here changes
    /// wall-clock only: clean baselines, BER=0 sweep cells and resumed
    /// journals see identical counts.
    fn correct_clean_span(&self, algo: ConvAlgorithm, samples: &[Sample]) -> usize {
        let mut fast = self.fast_inference();
        let mut correct = 0usize;
        for sample in samples {
            let predicted = self
                .quantized
                .classify_fast(&sample.image, algo, &mut fast)
                .unwrap_or(usize::MAX);
            correct += usize::from(predicted == sample.label);
        }
        correct
    }

    /// A worker-local copy of the campaign's prepared fast-path state.
    fn fast_inference(&self) -> FastInference {
        self.fast_template
            .get_or_init(|| {
                self.quantized
                    .prepare_fast()
                    .expect("a network built by from_network always prepares fast plans")
            })
            .clone()
    }

    /// Number of correct predictions over `samples` under operation-level
    /// fault injection, by fault-site replay on the fast path.
    ///
    /// The injector reads its RNG only where a fault strikes, never from
    /// operand values, so each image's strikes are a pure function of its
    /// seed, the configuration and the network's operation sequence.
    /// `QuantizedNetwork::forward_replay` draws them up front and recomputes
    /// only the struck operations on top of the fast engines — bit-identical
    /// to the instrumented `FaultyArithmetic` forward pass (tested in
    /// `wgft-nn`, and at campaign level by `parallel_accuracy_is_bit_identical_to_serial`),
    /// so journaled results do not change.
    fn correct_op_level_span(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        protection: &ProtectionPlan,
        start: usize,
        samples: &[Sample],
    ) -> usize {
        if ber.is_zero() {
            return self.correct_clean_span(algo, samples);
        }
        let mut fast = self.fast_inference();
        let config = FaultConfig {
            ber,
            width: self.config.width,
            model: self.config.fault_model,
            protection: protection.clone(),
        };
        let mut correct = 0usize;
        for (offset, sample) in samples.iter().enumerate() {
            let i = start + offset;
            let seed = Self::op_level_fault_seed(self.config.base_seed, i);
            // Guard against reintroducing run-order-dependent RNG: the seed
            // may depend on the global image index, never on how many images
            // this worker has already evaluated (`offset`).
            debug_assert_eq!(
                seed,
                Self::op_level_fault_seed(self.config.base_seed, i - offset)
                    .wrapping_add(offset as u64),
                "fault seed must be a pure affine function of the image index"
            );
            let mut faults = StrikeEnumerator::new(&config, seed);
            let predicted = self
                .quantized
                .classify_replay(&sample.image, algo, &mut fast, &mut faults)
                .unwrap_or(usize::MAX);
            correct += usize::from(predicted == sample.label);
        }
        correct
    }

    /// Number of correct predictions over `samples` under neuron-level
    /// fault injection, on the fast path: the fast engines compute each
    /// layer and the injector corrupts its output, bit-identically to the
    /// instrumented `QuantizedNetwork::forward_with_neuron_faults` (tested
    /// in `wgft-nn`), so journaled results do not change.
    fn correct_neuron_level_span(
        &self,
        algo: ConvAlgorithm,
        ber: BitErrorRate,
        start: usize,
        samples: &[Sample],
    ) -> usize {
        if ber.is_zero() {
            // A zero-rate neuron injector never flips a value, so the span
            // reduces to the same fault-free inference as the op-level one.
            return self.correct_clean_span(algo, samples);
        }
        let mut fast = self.fast_inference();
        let mut correct = 0usize;
        for (offset, sample) in samples.iter().enumerate() {
            let i = start + offset;
            let seed = Self::neuron_level_fault_seed(self.config.base_seed, i);
            debug_assert_eq!(
                seed,
                Self::neuron_level_fault_seed(self.config.base_seed, i - offset)
                    .wrapping_add(offset as u64),
                "fault seed must be a pure affine function of the image index"
            );
            let mut injector = NeuronLevelInjector::new(ber, self.config.width, seed);
            // A failed forward pass counts as a wrong prediction
            // (argmax of empty logits would alias class 0).
            let predicted = self
                .quantized
                .forward_neuron_level(&sample.image, algo, &mut fast, &mut injector)
                .map_or(usize::MAX, |logits| {
                    if logits.is_empty() {
                        usize::MAX
                    } else {
                        wgft_data::argmax(&logits)
                    }
                });
            correct += usize::from(predicted == sample.label);
        }
        correct
    }

    /// Find a bit error rate on the accuracy cliff: the smallest rate (on a
    /// geometric grid) at which the unprotected accuracy of `algo` falls below
    /// `chance + keep_fraction * (clean - chance)`.
    ///
    /// The paper quotes absolute bit error rates for full-size networks
    /// (around 3e-10 for VGG19); the miniature model zoo executes orders of
    /// magnitude fewer operations per inference, so its cliff sits at a
    /// proportionally higher rate. This helper locates it so experiments can
    /// be centred on the interesting region regardless of model size.
    #[must_use]
    pub fn find_critical_ber(&self, algo: ConvAlgorithm, keep_fraction: f64) -> f64 {
        self.find_critical_ber_under(algo, keep_fraction, &ProtectionPlan::none(), None)
    }

    /// [`Self::find_critical_ber`] under protection: the accuracy at every
    /// probe point is measured with the given (idealized)
    /// [`ProtectionPlan`] and, when supplied, an executable [`AbftPolicy`]
    /// running detection/correction around the faults. This is how the
    /// `protection_tradeoff` experiments locate the cliff a *protected*
    /// network actually falls off — protection pushes it to a higher rate.
    #[must_use]
    pub fn find_critical_ber_under(
        &self,
        algo: ConvAlgorithm,
        keep_fraction: f64,
        protection: &ProtectionPlan,
        abft: Option<&AbftPolicy>,
    ) -> f64 {
        let threshold = critical_threshold(
            self.clean_accuracy,
            self.config.spec.num_classes,
            keep_fraction,
        );
        let walk = critical_ber_grid().map(|ber| {
            let rate = BitErrorRate::new(ber);
            let accuracy = match abft {
                None => self.accuracy_under(algo, rate, protection),
                Some(policy) => self.accuracy_under_abft(algo, rate, protection, policy).0,
            };
            (ber, accuracy)
        });
        first_rate_below(walk, threshold)
    }

    /// Network-wise sweep (Figure 2): accuracy of standard vs winograd
    /// convolution across bit error rates, plus the improvement.
    #[must_use]
    pub fn network_sweep(&self, bers: &[f64]) -> NetworkSweepReport {
        let MergedReport::NetworkSweep(report) = self.table_report(SweepKind::NetworkSweep, bers)
        else {
            unreachable!("a network sweep reduces into its own report")
        };
        report
    }

    /// Injection-granularity comparison (Figure 1): operation-level vs
    /// neuron-level fault injection for both convolution algorithms.
    ///
    /// Neuron-level injection is the TensorFI/PyTorchFI-style baseline. The
    /// conv algorithm only changes the arithmetic schedule, which a
    /// neuron-level injector cannot see, so its two columns are
    /// (statistically) identical.
    #[must_use]
    pub fn injection_granularity(&self, bers: &[f64]) -> GranularityReport {
        let MergedReport::Granularity(report) =
            self.table_report(SweepKind::InjectionGranularity, bers)
        else {
            unreachable!("an injection-granularity sweep reduces into its own report")
        };
        report
    }

    /// Operation-type sensitivity (Figure 4): accuracy when all additions or
    /// all multiplications are kept fault-free, for both algorithms.
    #[must_use]
    pub fn op_type_sensitivity(&self, bers: &[f64]) -> OpTypeReport {
        let MergedReport::OpType(report) = self.table_report(SweepKind::OpTypeSensitivity, bers)
        else {
            unreachable!("an op-type sweep reduces into its own report")
        };
        report
    }
}

/// One row of the Figure 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkSweepRow {
    /// Bit error rate.
    pub ber: f64,
    /// Accuracy with standard convolution.
    pub standard: f64,
    /// Accuracy with winograd convolution.
    pub winograd: f64,
}

impl NetworkSweepRow {
    /// Accuracy improvement of winograd over standard convolution.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        self.winograd - self.standard
    }
}

/// The Figure 2 report for one (model, width) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSweepReport {
    /// Model name.
    pub model: String,
    /// Quantization width label.
    pub width: String,
    /// Winograd tile variant the campaign prepared. Serialized only when
    /// non-default, so reports at the default F(2x2,3x3) stay byte-identical
    /// to ones written before the tile axis existed.
    #[serde(default, skip_serializing_if = "crate::config::tile_is_default")]
    pub tile: WinogradVariant,
    /// Fault-free accuracy.
    pub clean_accuracy: f64,
    /// Per-BER rows.
    pub rows: Vec<NetworkSweepRow>,
}

impl fmt::Display for NetworkSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({}, {}), clean accuracy {} %",
            self.model,
            self.width,
            self.tile,
            pct(self.clean_accuracy)
        )?;
        let mut table = TextTable::new(&["BER", "ST-Conv %", "WG-Conv %", "improvement %"]);
        for row in &self.rows {
            table.push_row(vec![
                sci(row.ber),
                pct(row.standard),
                pct(row.winograd),
                pct(row.improvement()),
            ]);
        }
        write!(f, "{table}")
    }
}

/// One row of the Figure 1 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GranularityRow {
    /// Bit error rate.
    pub ber: f64,
    /// Operation-level injection, standard convolution.
    pub op_level_standard: f64,
    /// Operation-level injection, winograd convolution.
    pub op_level_winograd: f64,
    /// Neuron-level injection, standard convolution.
    pub neuron_level_standard: f64,
    /// Neuron-level injection, winograd convolution.
    pub neuron_level_winograd: f64,
}

/// The Figure 1 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityReport {
    /// Model name.
    pub model: String,
    /// Per-BER rows.
    pub rows: Vec<GranularityRow>,
}

impl fmt::Display for GranularityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — operation-level vs neuron-level fault injection",
            self.model
        )?;
        let mut table = TextTable::new(&[
            "BER",
            "op-level ST %",
            "op-level WG %",
            "neuron ST %",
            "neuron WG %",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                sci(row.ber),
                pct(row.op_level_standard),
                pct(row.op_level_winograd),
                pct(row.neuron_level_standard),
                pct(row.neuron_level_winograd),
            ]);
        }
        write!(f, "{table}")
    }
}

/// One row of the Figure 4 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpTypeRow {
    /// Bit error rate.
    pub ber: f64,
    /// Standard conv, multiplications fault-free.
    pub st_mul_fault_free: f64,
    /// Standard conv, additions fault-free.
    pub st_add_fault_free: f64,
    /// Winograd conv, multiplications fault-free.
    pub wg_mul_fault_free: f64,
    /// Winograd conv, additions fault-free.
    pub wg_add_fault_free: f64,
    /// Standard conv, nothing protected (reference).
    pub st_unprotected: f64,
    /// Winograd conv, nothing protected (reference).
    pub wg_unprotected: f64,
}

/// The Figure 4 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpTypeReport {
    /// Model name.
    pub model: String,
    /// Per-BER rows.
    pub rows: Vec<OpTypeRow>,
}

impl fmt::Display for OpTypeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} — operation-type sensitivity", self.model)?;
        let mut table = TextTable::new(&[
            "BER",
            "ST-Conv-Mul %",
            "ST-Conv-Add %",
            "WG-Conv-Mul %",
            "WG-Conv-Add %",
            "ST none %",
            "WG none %",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                sci(row.ber),
                pct(row.st_mul_fault_free),
                pct(row.st_add_fault_free),
                pct(row.wg_mul_fault_free),
                pct(row.wg_add_fault_free),
                pct(row.st_unprotected),
                pct(row.wg_unprotected),
            ]);
        }
        write!(f, "{table}")
    }
}
