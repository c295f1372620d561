//! Workspace-level integration tests exercising the public API of the
//! umbrella crate the way the examples and benches do, across crate
//! boundaries (data -> nn -> faultsim/winograd -> core -> accel).

use std::sync::OnceLock;
use winograd_ft::accel::{Accelerator, LayerWorkload};
use winograd_ft::core::{CampaignConfig, FaultToleranceCampaign, TmrPlanner, TmrScheme};
use winograd_ft::data::SyntheticSpec;
use winograd_ft::faultsim::{Arithmetic, BitErrorRate, ExactArithmetic, ProtectionPlan};
use winograd_ft::fixedpoint::BitWidth;
use winograd_ft::nn::models::ModelKind;
use winograd_ft::winograd::ConvAlgorithm;

fn campaign() -> &'static FaultToleranceCampaign {
    static CAMPAIGN: OnceLock<FaultToleranceCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let config = CampaignConfig::test_scale(ModelKind::GoogLeNetSmall, BitWidth::W8);
        FaultToleranceCampaign::prepare(&config).expect("campaign preparation must succeed")
    })
}

#[test]
fn googlenet_analogue_campaign_end_to_end() {
    let campaign = campaign();
    let chance = 1.0 / campaign.config().spec.num_classes as f64;
    assert!(
        campaign.clean_accuracy() > chance,
        "quantized int8 model must beat chance"
    );

    // The inception modules mix 1x1 and 3x3 convolutions: winograd only
    // accelerates the 3x3 ones, but that is still a large multiplication cut.
    let st = campaign.quantized().total_op_count(ConvAlgorithm::Standard);
    let wg = campaign
        .quantized()
        .total_op_count(ConvAlgorithm::winograd_default());
    assert!(wg.mul < st.mul);

    // Heavy faults break it, full protection restores it.
    let heavy = BitErrorRate::new(3e-3);
    let broken = campaign.accuracy_under(ConvAlgorithm::Standard, heavy, &ProtectionPlan::none());
    let mut full = ProtectionPlan::none();
    for layer in 0..campaign.quantized().compute_layer_count() {
        full = full.with_fault_free_layer(layer);
    }
    let protected = campaign.accuracy_under(ConvAlgorithm::Standard, heavy, &full);
    assert!(protected >= broken);
    assert!((protected - campaign.clean_accuracy()).abs() < 1e-9);
}

#[test]
fn quantized_inference_is_deterministic_across_backends() {
    let campaign = campaign();
    let sample = &campaign.eval_set().samples()[0];
    let mut a = ExactArithmetic::new();
    let mut b = ExactArithmetic::new();
    let first = campaign
        .quantized()
        .forward(&sample.image, &mut a, ConvAlgorithm::winograd_default())
        .unwrap();
    let second = campaign
        .quantized()
        .forward(&sample.image, &mut b, ConvAlgorithm::winograd_default())
        .unwrap();
    assert_eq!(first, second);
    assert_eq!(a.counters().total(), b.counters().total());
}

/// The batched campaign evaluation (rayon chunks + shared winograd scratch)
/// must reproduce the per-image serial baseline bit for bit, for both
/// operation-level and neuron-level injection.
#[test]
fn batched_campaign_evaluation_is_bit_identical_to_per_image() {
    let campaign = campaign();
    assert!(campaign.config().batch_size > 1, "default must batch");
    let per_image = campaign.clone().with_batch_size(1);
    for ber in [0.0, 1e-5, 3e-3] {
        // Neuron-level cells run through the campaign table.
        let batched_g = campaign.injection_granularity(&[ber]).rows[0];
        let serial_g = per_image.injection_granularity(&[ber]).rows[0];
        let ber = BitErrorRate::new(ber);
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let batched = campaign.accuracy_under(algo, ber, &ProtectionPlan::none());
            let serial = per_image.accuracy_under(algo, ber, &ProtectionPlan::none());
            assert_eq!(batched, serial, "op-level {algo:?} at {}", ber.rate());
            let (batched_n, serial_n) = match algo {
                ConvAlgorithm::Standard => (
                    batched_g.neuron_level_standard,
                    serial_g.neuron_level_standard,
                ),
                ConvAlgorithm::Winograd(_) => (
                    batched_g.neuron_level_winograd,
                    serial_g.neuron_level_winograd,
                ),
            };
            assert_eq!(
                batched_n,
                serial_n,
                "neuron-level {algo:?} at {}",
                ber.rate()
            );
        }
    }
}

/// The float model's batched planned inference must agree bit-for-bit with
/// per-image planned inference on real trained weights.
#[test]
fn batched_float_inference_matches_per_image_on_trained_model() {
    let campaign = campaign();
    let mut network = campaign.trained().network.clone();
    let images: Vec<_> = campaign
        .eval_set()
        .samples()
        .iter()
        .take(5)
        .map(|s| s.image.clone())
        .collect();
    let batched = network.forward_inference_batch(&images).unwrap();
    for (image, batched_logits) in images.iter().zip(&batched) {
        let single = network.forward_inference(image).unwrap();
        assert_eq!(single.data(), batched_logits.data());
    }
}

#[test]
fn tmr_scheme_pipeline_produces_consistent_overheads() {
    let campaign = campaign();
    let planner = TmrPlanner {
        max_iterations: 8,
        ..TmrPlanner::default()
    };
    let ber = campaign.find_critical_ber(ConvAlgorithm::Standard, 0.5);
    let chance = 1.0 / campaign.config().spec.num_classes as f64;
    let target = chance + 0.7 * (campaign.clean_accuracy() - chance);
    let standard = planner
        .plan(campaign, TmrScheme::Standard, target, ber)
        .unwrap();
    let unaware = planner
        .plan(campaign, TmrScheme::WinogradUnaware, target, ber)
        .unwrap();
    assert!(standard.overhead_cost >= 0.0);
    assert!(
        unaware.overhead_cost <= standard.overhead_cost,
        "winograd execution must not need more TMR overhead than standard convolution"
    );
}

#[test]
fn accelerator_energy_follows_the_workload_and_voltage() {
    let campaign = campaign();
    let accel = Accelerator::paper_default();
    let workloads = LayerWorkload::from_network(&campaign.trained().network);
    assert_eq!(workloads.len(), campaign.quantized().compute_layer_count());
    let nominal = accel
        .nominal_report(&workloads, ConvAlgorithm::Standard)
        .unwrap();
    let scaled = accel
        .report(&workloads, ConvAlgorithm::Standard, 0.75)
        .unwrap();
    assert!(scaled.energy_joules < nominal.energy_joules);
    assert!(scaled.ber > nominal.ber);
}

#[test]
fn synthetic_task_shapes_are_consistent_across_the_stack() {
    let spec = SyntheticSpec::small();
    assert_eq!(spec.image_shape().volume(), spec.image_len());
    let campaign = campaign();
    assert_eq!(
        campaign.quantized().num_classes(),
        campaign.config().spec.num_classes
    );
}
