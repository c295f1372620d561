//! End-to-end tests of the serving daemon over loopback TCP: batched
//! serving bit-identity, chaos idempotency, escalation, explicit sheds
//! and shutdown draining.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_fabric::wire::{decode, encode};
use wgft_fabric::{FramedTcpClient, ManualClock, SystemClock};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_serve::{
    BatchConfig, ChaosConfig, MonitorConfig, ProtectionTier, ServeClient, ServeConfig, ServeDaemon,
    ServeEngine, ServeRequest, ServeResponse,
};
use wgft_winograd::ConvAlgorithm;

fn tiny_config(seed: u64) -> CampaignConfig {
    CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W8)
        .with_images(8)
        .with_seed(seed)
}

fn tenant_map(pairs: &[(&str, ProtectionTier)]) -> BTreeMap<String, ProtectionTier> {
    pairs
        .iter()
        .map(|(tenant, tier)| ((*tenant).to_string(), *tier))
        .collect()
}

#[test]
fn concurrent_batched_serving_matches_the_local_fast_path_exactly() {
    let config = tiny_config(11);
    let algo = ConvAlgorithm::winograd_default();

    // Ground truth: the same deterministic campaign prepared locally.
    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let mut fast = local.quantized().prepare_fast().expect("fast plans");
    let images: Vec<_> = local
        .eval_set()
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();
    let expected: Vec<usize> = images
        .iter()
        .map(|image| {
            local
                .quantized()
                .classify_fast(image, algo, &mut fast)
                .expect("local classify")
        })
        .collect();

    let engine = ServeEngine::prepare(&config, algo, None).expect("engine");
    let serve_config = ServeConfig {
        tenants: tenant_map(&[("free", ProtectionTier::Fast)]),
        batch: BatchConfig {
            max_batch: 4,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let addr = daemon.addr().to_string();

    // Four concurrent clients hammer the daemon so requests queue up behind
    // a busy worker and batches form from that backlog; every answer must equal the sequential local fast path,
    // whatever the coalescing schedule was.
    let images = Arc::new(images);
    let expected = Arc::new(expected);
    let rounds = 3usize;
    let handles: Vec<_> = (0..4u64)
        .map(|client_idx| {
            let addr = addr.clone();
            let images = Arc::clone(&images);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut client = ServeClient::new(&addr);
                for round in 0..rounds {
                    for (i, image) in images.iter().enumerate() {
                        let request_id = (client_idx << 32) | ((round as u64) << 16) | i as u64;
                        let answer = client
                            .classify(request_id, "free", image.data())
                            .expect("classify");
                        assert_eq!(
                            answer.prediction, expected[i],
                            "batched prediction diverged from the local fast path"
                        );
                        assert_eq!(answer.tier, ProtectionTier::Fast);
                        assert!(!answer.promoted);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let total = (4 * rounds * images.len()) as u64;
    let snap = daemon.snapshot();
    assert_eq!(snap.global.accepted, total);
    assert_eq!(snap.tenants["free"].requests, total);
    assert_eq!(snap.global.batched_images, total);
    assert!(snap.global.batches > 0);
    assert!(
        snap.global.batches <= total,
        "batches cannot exceed requests"
    );
    assert_eq!(snap.global.overloaded, 0);
    assert_eq!(
        snap.escalation_level, 0,
        "fault-free traffic never escalates"
    );
}

#[test]
fn chaos_serving_is_idempotent_and_protection_tiers_report_events() {
    let config = tiny_config(23);
    let algo = ConvAlgorithm::winograd_default();
    let chaos = ChaosConfig { ber: 2e-3, seed: 7 };
    let engine = ServeEngine::prepare(&config, algo, Some(chaos)).expect("engine");
    let serve_config = ServeConfig {
        tenants: tenant_map(&[
            ("free", ProtectionTier::Fast),
            ("gold", ProtectionTier::ChecksumRecompute),
        ]),
        // Escalate on the very first detection so the test sees promotions
        // deterministically.
        monitor: MonitorConfig {
            window_ms: 3_600_000,
            detected_per_window: 1,
            uncorrected_per_window: 1_000_000,
            max_level: 3,
        },
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(ManualClock::new()) as Arc<dyn wgft_fabric::Clock>,
        "127.0.0.1:0",
    )
    .expect("daemon");
    let addr = daemon.addr().to_string();

    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let images: Vec<_> = local
        .eval_set()
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();

    let mut client = ServeClient::new(&addr);

    // Idempotency: the same request id replays the identical fault stream,
    // so re-sending must return the identical answer.
    for (i, image) in images.iter().enumerate() {
        let first = client
            .classify(1000 + i as u64, "free", image.data())
            .expect("classify");
        let again = client
            .classify(1000 + i as u64, "free", image.data())
            .expect("re-classify");
        assert_eq!(
            first.prediction, again.prediction,
            "chaos fault streams must be keyed by request id"
        );
    }

    // The protected tier detects the injected faults and reports events.
    for (i, image) in images.iter().enumerate() {
        client
            .classify(2000 + i as u64, "gold", image.data())
            .expect("gold classify");
    }
    let snap = daemon.snapshot();
    let gold = &snap.tenants["gold"];
    assert_eq!(gold.requests, images.len() as u64);
    assert!(
        gold.detected > 0,
        "BER 2e-3 over {} images produced no detections",
        images.len()
    );
    assert!(
        gold.detected >= gold.uncorrected,
        "uncorrected cannot exceed detected"
    );
    assert!(
        snap.escalation_level > 0,
        "detections past the threshold must escalate"
    );
    assert!(snap.global.escalations > 0);

    // After escalation, a fast-tier tenant is served at a promoted tier.
    let promoted = client
        .classify(3000, "free", images[0].data())
        .expect("promoted classify");
    assert!(promoted.promoted, "escalation must promote the fast tier");
    assert!(promoted.tier > ProtectionTier::Fast);
    assert!(daemon.snapshot().tenants["free"].promoted > 0);
}

#[test]
fn profile_tier_serves_the_planned_assignment_and_health_reports_its_hash() {
    let config = tiny_config(53);
    let algo = ConvAlgorithm::winograd_default();

    // Plan a real profile on the identical campaign the daemon will serve.
    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let profile = wgft_planner::plan_profile(&local, wgft_planner::PlanRequest::new(3e-4, 0.9))
        .expect("plan profile");
    let hash = profile.hash();

    let engine = ServeEngine::prepare_with_profile(&config, algo, None, Some(profile.clone()))
        .expect("engine with profile");
    let serve_config = ServeConfig {
        tenants: tenant_map(&[("planned", ProtectionTier::Profile)]),
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let addr = daemon.addr().to_string();
    let images: Vec<_> = local
        .eval_set()
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();

    let mut client = ServeClient::new(&addr);
    let health = client.health().expect("health");
    assert_eq!(
        health.profile_hash.as_deref(),
        Some(hash.as_str()),
        "health must report the loaded profile's identity hash"
    );

    // The profiled tier serves every image at its own tier, unpromoted, and
    // re-sends are idempotent (no chaos here, so the path is the fast
    // protected one).
    for (i, image) in images.iter().enumerate() {
        let answer = client
            .classify(9000 + i as u64, "planned", image.data())
            .expect("profiled classify");
        assert_eq!(answer.tier, ProtectionTier::Profile);
        assert!(!answer.promoted);
        let again = client
            .classify(9000 + i as u64, "planned", image.data())
            .expect("profiled re-classify");
        assert_eq!(answer.prediction, again.prediction);
    }
    assert_eq!(
        daemon.snapshot().tenants["planned"].requests,
        2 * images.len() as u64
    );

    // A profile that does not fit the served model is refused at prepare
    // time, not at serve time.
    let mut truncated = profile;
    truncated.layers.pop();
    let refused = ServeEngine::prepare_with_profile(&config, algo, None, Some(truncated));
    assert!(
        refused.is_err(),
        "a profile with the wrong layer count must be refused"
    );

    // Without a loaded profile, health reports no hash and the profile tier
    // still serves (blanket fallback).
    let engine = ServeEngine::prepare(&config, algo, None).expect("engine without profile");
    let daemon2 = ServeDaemon::spawn(
        engine,
        ServeConfig {
            tenants: tenant_map(&[("planned", ProtectionTier::Profile)]),
            ..ServeConfig::default()
        },
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    )
    .expect("fallback daemon");
    let mut client2 = ServeClient::new(daemon2.addr().to_string());
    assert_eq!(client2.health().expect("health").profile_hash, None);
    let fallback = client2
        .classify(9500, "planned", images[0].data())
        .expect("fallback classify");
    assert_eq!(fallback.tier, ProtectionTier::Profile);
}

/// Protected tiers answer exactly what the instrumented ABFT path answers.
/// With chaos off they run on the fast engines, and the daemon's gold and
/// profile predictions and per-tenant event counters equal direct
/// `classify_abft` runs over a zero-rate `FaultyArithmetic`. With chaos on
/// they stay on the instrumented path: the same equality holds against
/// `classify_abft` over the chaos BER and each request's fault seed.
#[test]
fn protected_tiers_match_the_instrumented_path_with_chaos_off_and_on() {
    use wgft_abft::{AbftEvents, AbftScratch};
    use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic, ProtectionPlan};
    use wgft_serve::{request_fault_seed, TenantCounters};

    let config = tiny_config(61);
    let algo = ConvAlgorithm::winograd_default();
    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let profile = wgft_planner::plan_profile(&local, wgft_planner::PlanRequest::new(3e-4, 0.9))
        .expect("plan profile");
    let calibration = local.abft_calibration(algo);
    let images: Vec<_> = local
        .eval_set()
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();
    let tenants = [
        (
            "gold",
            ProtectionTier::ChecksumRecompute,
            ProtectionTier::ChecksumRecompute
                .policy()
                .expect("protected"),
            ProtectionPlan::none(),
        ),
        (
            "planned",
            ProtectionTier::Profile,
            profile.policy(),
            profile.plan(),
        ),
    ];
    for chaos in [None, Some(ChaosConfig { ber: 2e-3, seed: 9 })] {
        let engine = ServeEngine::prepare_with_profile(&config, algo, chaos, Some(profile.clone()))
            .expect("engine");
        let serve_config = ServeConfig {
            tenants: tenants
                .iter()
                .map(|(tag, tier, ..)| ((*tag).to_string(), *tier))
                .collect(),
            // Never escalate: every request must run its own tier's policy.
            monitor: MonitorConfig {
                max_level: 0,
                ..MonitorConfig::default()
            },
            ..ServeConfig::default()
        };
        let daemon = ServeDaemon::spawn(
            engine,
            serve_config,
            Arc::new(SystemClock::new()),
            "127.0.0.1:0",
        )
        .expect("daemon");
        let mut client = ServeClient::new(daemon.addr().to_string());
        for (tag, tier, policy, plan) in &tenants {
            let mut want = TenantCounters::default();
            for (i, image) in images.iter().enumerate() {
                let request_id = 5000 + i as u64;
                let answer = client
                    .classify(request_id, tag, image.data())
                    .expect("classify");
                let (ber, seed) = chaos.map_or((0.0, 0), |c| {
                    (c.ber, request_fault_seed(c.seed, request_id))
                });
                let fault_config = FaultConfig::new(BitErrorRate::new(ber), config.width)
                    .with_model(config.fault_model)
                    .with_protection(plan.clone());
                let mut events = AbftEvents::new();
                let predicted = local
                    .quantized()
                    .classify_abft(
                        image,
                        &mut FaultyArithmetic::new(fault_config, seed),
                        algo,
                        policy,
                        Some(calibration),
                        &mut AbftScratch::new(),
                        &mut events,
                    )
                    .expect("instrumented classify");
                assert_eq!(answer.prediction, predicted, "{tag} {chaos:?} image {i}");
                assert_eq!(answer.tier, *tier);
                assert!(!answer.promoted);
                want.requests += 1;
                want.detected += events.detected;
                want.corrected += events.corrected;
                want.uncorrected += events.uncorrected;
                want.recomputes += events.recomputes;
                want.clipped += events.clipped;
            }
            let got = daemon.snapshot().tenants[*tag];
            assert_eq!(
                (
                    got.requests,
                    got.detected,
                    got.corrected,
                    got.uncorrected,
                    got.recomputes,
                    got.clipped
                ),
                (
                    want.requests,
                    want.detected,
                    want.corrected,
                    want.uncorrected,
                    want.recomputes,
                    want.clipped
                ),
                "{tag} {chaos:?}"
            );
            if chaos.is_some() && *tag == "gold" {
                assert!(want.detected > 0, "chaos faults must strike the gold tier");
            }
        }
    }
}

/// The fast tier under chaos injects the campaigns' fault model: every
/// `free` answer equals the instrumented `classify` over a
/// `FaultyArithmetic` with the chaos BER, the campaign's word width and
/// fault model, no protection plan and the request's fault seed — re-sent
/// ids included.
#[test]
fn fast_tier_chaos_matches_the_instrumented_oracle() {
    use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic};
    use wgft_serve::request_fault_seed;

    let config = tiny_config(71);
    let algo = ConvAlgorithm::winograd_default();
    let chaos = ChaosConfig {
        ber: 2e-3,
        seed: 13,
    };
    let engine = ServeEngine::prepare(&config, algo, Some(chaos)).expect("engine");
    let serve_config = ServeConfig {
        tenants: tenant_map(&[("free", ProtectionTier::Fast)]),
        monitor: MonitorConfig {
            max_level: 0,
            ..MonitorConfig::default()
        },
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let samples = local.eval_set().samples();
    let fault_config =
        FaultConfig::new(BitErrorRate::new(chaos.ber), config.width).with_model(config.fault_model);
    let mut client = ServeClient::new(daemon.addr().to_string());
    let mut injected = 0;
    // Every image once, then the first id again: a re-send replays it.
    let requests = (0..samples.len()).chain([0]);
    for i in requests {
        let request_id = 7000 + i as u64;
        let image = &samples[i].image;
        let answer = client
            .classify(request_id, "free", image.data())
            .expect("classify");
        let mut oracle = FaultyArithmetic::new(
            fault_config.clone(),
            request_fault_seed(chaos.seed, request_id),
        );
        let want = local
            .quantized()
            .classify(image, &mut oracle, algo)
            .expect("instrumented classify");
        injected += oracle.faults_injected();
        assert_eq!(answer.prediction, want, "request {request_id}");
        assert_eq!(answer.tier, ProtectionTier::Fast);
        assert!(!answer.promoted);
    }
    assert!(injected > 0, "chaos faults must strike the fast tier");
    assert_eq!(
        daemon.snapshot().tenants["free"].requests,
        samples.len() as u64 + 1
    );
}

/// A chaos BER that is not a probability is refused at prepare time with
/// an error naming the value, instead of panicking on the daemon's worker
/// thread at the first chaos request.
#[test]
fn an_invalid_chaos_ber_is_refused_at_prepare() {
    let config = tiny_config(73);
    let algo = ConvAlgorithm::winograd_default();
    for ber in [2.0, f64::NAN] {
        let chaos = ChaosConfig { ber, seed: 1 };
        match ServeEngine::prepare(&config, algo, Some(chaos)) {
            Ok(_) => panic!("chaos ber {ber} was accepted"),
            Err(e) => {
                assert!(matches!(e, wgft_serve::ServeError::Prepare(_)), "{e}");
                assert!(e.to_string().contains(&ber.to_string()), "{e}");
            }
        }
    }
}

#[test]
fn degraded_sheds_are_explicit_and_shutdown_drains_idempotently() {
    let config = tiny_config(37);
    let algo = ConvAlgorithm::winograd_default();
    let chaos = ChaosConfig { ber: 2e-3, seed: 5 };
    let engine = ServeEngine::prepare(&config, algo, Some(chaos)).expect("engine");
    let image_len = engine.image_len();
    let serve_config = ServeConfig {
        tenants: tenant_map(&[
            ("free", ProtectionTier::Fast),
            ("gold", ProtectionTier::ChecksumRecompute),
        ]),
        monitor: MonitorConfig {
            window_ms: 3_600_000,
            detected_per_window: 1,
            uncorrected_per_window: 1_000_000,
            max_level: 3,
        },
        // Watermark zero: once escalated, every fast-tier request sheds.
        batch: BatchConfig {
            soft_watermark: 0,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(ManualClock::new()) as Arc<dyn wgft_fabric::Clock>,
        "127.0.0.1:0",
    )
    .expect("daemon");
    let addr = daemon.addr().to_string();

    let local = FaultToleranceCampaign::prepare(&config).expect("local campaign");
    let images: Vec<_> = local
        .eval_set()
        .samples()
        .iter()
        .map(|s| s.image.clone())
        .collect();

    // Drive gold traffic until the monitor escalates.
    let mut client = ServeClient::new(&addr);
    for (i, image) in images.iter().enumerate() {
        client
            .classify(4000 + i as u64, "gold", image.data())
            .expect("gold classify");
        if daemon.snapshot().escalation_level > 0 {
            break;
        }
    }
    assert!(daemon.snapshot().escalation_level > 0, "never escalated");

    // A raw client (no retry layer) sees the explicit Degraded shed for
    // fast-tier traffic.
    let mut raw = FramedTcpClient::new(&addr);
    let shed_request = ServeRequest::Classify {
        request_id: 5000,
        tenant: "free".to_string(),
        image: vec![0.0; image_len],
    };
    let response: ServeResponse = decode(
        &raw.call_raw(&encode(&shed_request).expect("encode"))
            .expect("call"),
    )
    .expect("decode");
    match response {
        ServeResponse::Degraded { level, .. } => assert!(level > 0),
        other => panic!("expected Degraded, got {other:?}"),
    }
    assert!(daemon.snapshot().tenants["free"].shed > 0);

    // Gold traffic still flows while free is shed.
    client
        .classify(6000, "gold", images[0].data())
        .expect("gold still served");

    // Shutdown is idempotent; afterwards classifies are refused with an
    // explicit error, never silently dropped.
    client.shutdown().expect("first shutdown");
    assert!(daemon.shutdown_requested());
    client.shutdown().expect("second shutdown (idempotent)");
    let refused = client.classify(7000, "gold", images[0].data());
    assert!(refused.is_err(), "post-shutdown classify must be refused");

    // Wrong-sized images are refused with an explicit error too.
    let mut raw = FramedTcpClient::new(&addr);
    let bad = ServeRequest::Classify {
        request_id: 8000,
        tenant: "gold".to_string(),
        image: vec![0.0; image_len + 1],
    };
    let response: ServeResponse =
        decode(&raw.call_raw(&encode(&bad).expect("encode")).expect("call")).expect("decode");
    assert!(
        matches!(response, ServeResponse::Error { .. }),
        "expected explicit error, got {response:?}"
    );
}

#[test]
fn a_batching_window_is_refused_at_spawn() {
    let engine = ServeEngine::prepare(&tiny_config(43), ConvAlgorithm::winograd_default(), None)
        .expect("engine");
    let serve_config = ServeConfig {
        batch: BatchConfig {
            max_delay_ms: 2,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    match ServeDaemon::spawn(
        engine,
        serve_config,
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    ) {
        Ok(_) => panic!("a 2 ms batching window was accepted"),
        Err(e) => {
            assert!(matches!(e, wgft_serve::ServeError::Config(_)), "{e}");
            assert!(e.to_string().contains("max_delay_ms is 2"), "{e}");
        }
    }
}

#[test]
fn non_finite_pixels_are_refused_with_the_first_bad_index() {
    let config = tiny_config(41);
    let engine =
        ServeEngine::prepare(&config, ConvAlgorithm::winograd_default(), None).expect("engine");
    let image_len = engine.image_len();
    let daemon = ServeDaemon::spawn(
        engine,
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let mut raw = FramedTcpClient::new(daemon.addr().to_string());
    for (bad_index, bad_value) in [(5, f32::INFINITY), (17, f32::NAN), (0, f32::NEG_INFINITY)] {
        let mut image = vec![0.25; image_len];
        image[bad_index] = bad_value;
        image[image_len - 1] = f32::NAN;
        let request = ServeRequest::Classify {
            request_id: 9000 + bad_index as u64,
            tenant: "free".to_string(),
            image,
        };
        let response: ServeResponse = decode(
            &raw.call_raw(&encode(&request).expect("encode"))
                .expect("call"),
        )
        .expect("decode");
        match response {
            ServeResponse::Error { message } => assert!(
                message.contains(&format!("pixel {bad_index} ")),
                "{bad_value} at {bad_index}: {message}"
            ),
            other => panic!("{bad_value} at {bad_index} was served: {other:?}"),
        }
    }
}
