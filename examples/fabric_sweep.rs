//! Demonstrates the distributed sweep fabric end to end: a TCP coordinator
//! serving a `network_sweep` journal, several chaos-wrapped workers leasing
//! units over loopback (with injected drops, duplicated deliveries and lost
//! responses), and a final merge that is verified bit-identical to the
//! monolithic in-memory campaign.
//!
//! Run with `cargo run --release --example fabric_sweep`. The journal
//! directory, worker count, image count and chunk size are configurable via
//! `--dir/--shards/--images/--chunk` flags or the corresponding
//! `WGFT_SWEEP_{DIR,SHARDS,IMAGES,CHUNK}` environment variables — the same
//! invocation shape as the `sharded_sweep` example (`--shards` counts
//! workers here), so CI drives both through one harness.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use winograd_ft::core::{CampaignConfig, FaultToleranceCampaign};
use winograd_ft::fabric::{
    run_worker_prepared, Coordinator, FabricConfig, FabricServer, FaultConfig, FaultSchedule,
    FaultyTransport, RemoteTransport, RetryPolicy, RetryTransport, SystemClock, ThreadSleeper,
    WorkerConfig,
};
use winograd_ft::fixedpoint::BitWidth;
use winograd_ft::nn::models::ModelKind;
use winograd_ft::sweep::{manifest_for, merge_sweep, Journal, MergedReport, SweepKind};

/// `--flag value` from `args`, else `env_var`, else `default`. Shared
/// invocation shape of the sweep/fabric examples.
fn arg_or_env(args: &[String], flag: &str, env_var: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env_var).ok())
        .unwrap_or_else(|| default.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = PathBuf::from(arg_or_env(
        &args,
        "--dir",
        "WGFT_SWEEP_DIR",
        "target/sweeps/fabric_sweep_example",
    ));
    let workers: u64 = arg_or_env(&args, "--shards", "WGFT_SWEEP_SHARDS", "2").parse()?;
    let images: usize = arg_or_env(&args, "--images", "WGFT_SWEEP_IMAGES", "16").parse()?;
    let chunk: usize = arg_or_env(&args, "--chunk", "WGFT_SWEEP_CHUNK", "4").parse()?;
    let _ = fs::remove_dir_all(&dir);
    let config = CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W8)
        .with_images(images)
        .with_cache_dir("target/wgft-models");
    let bers = [0.0, 1e-4, 3e-3];

    // One campaign preparation shared by the coordinator and every worker
    // (workers on other machines would prepare their own from the manifest;
    // the baseline check guarantees bit-identical arithmetic either way).
    let campaign = Arc::new(FaultToleranceCampaign::prepare(&config)?);

    let manifest = manifest_for(SweepKind::NetworkSweep, &config, &bers, chunk, &campaign)
        .with_fabric_session("fabric-sweep-example");
    let journal = Journal::create(&dir, manifest)?;
    let coordinator = Coordinator::new(
        journal,
        Arc::new(SystemClock::new()),
        FabricConfig {
            lease_ms: 30_000,
            max_units_per_lease: 2,
        },
        "fabric-sweep-example",
    )?;
    let mut server = FabricServer::spawn(Arc::new(Mutex::new(coordinator)), "127.0.0.1:0")?;
    let addr = server.addr();
    println!("coordinator serving {} on {addr}", dir.display());

    // Chaos-wrapped TCP workers: drops, duplicated deliveries and lost
    // responses, all absorbed by idempotent retries.
    let mut threads = Vec::new();
    for index in 0..workers {
        let addr = addr.to_string();
        let campaign = Arc::clone(&campaign);
        threads.push(std::thread::spawn(move || {
            let chaos = FaultConfig {
                seed: index + 1,
                drop: 0.1,
                duplicate: 0.1,
                lost: 0.1,
                ..FaultConfig::default()
            };
            let faulty = FaultyTransport::new(
                RemoteTransport::new(addr),
                FaultSchedule::seeded(chaos),
                None,
            );
            let mut transport = RetryTransport::new(
                faulty,
                RetryPolicy {
                    base_ms: 5,
                    cap_ms: 100,
                    max_attempts: 10,
                    seed: index,
                },
                Arc::new(ThreadSleeper),
            );
            let worker_config = WorkerConfig {
                name: format!("example-w{index}"),
                max_units: 1,
                cache_dir: None,
                sleeper: Arc::new(ThreadSleeper),
            };
            let summary = run_worker_prepared(&mut transport, &worker_config, &campaign)
                .expect("worker must complete");
            (summary, transport.inner().stats())
        }));
    }
    for (index, thread) in threads.into_iter().enumerate() {
        let (summary, faults) = thread.join().expect("worker thread must not panic");
        println!(
            "worker {index}: {} unit(s) journaled, {} duplicate(s), {} injected fault(s)",
            summary.units_completed,
            summary.duplicates,
            faults.total_faults()
        );
    }
    server.stop();

    let merged = merge_sweep(&dir)?;
    println!("\nmerged report:\n{merged}");

    // The headline guarantee, distributed edition: bit-identical to the
    // monolithic campaign despite chaos, retries and work stealing.
    let monolithic = campaign.network_sweep(&bers);
    let MergedReport::NetworkSweep(report) = &merged else {
        unreachable!("network sweep merges into a NetworkSweepReport");
    };
    assert_eq!(
        serde_json::to_string(report)?,
        serde_json::to_string(&monolithic)?,
        "merged report must be byte-identical to the monolithic campaign"
    );
    println!("verified: fabric merge == monolithic, byte for byte");
    Ok(())
}
