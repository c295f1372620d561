//! `wgft-serve` — CLI for the fault-tolerant inference daemon.
//!
//! ```text
//! wgft-serve daemon --listen ADDR [--port-file FILE] [--model M] [--width 8|16]
//!                   [--scale test|full] [--images N] [--seed S] [--cache-dir DIR]
//!                   [--algo standard|winograd]
//!                   [--tenants free=fast,gold=checksum_recompute]
//!                   [--default-tier TIER] [--max-batch N]
//!                   [--max-queue N] [--soft-watermark N]
//!                   [--profile FILE] [--chaos ber=B,seed=S] [--quiet]
//! wgft-serve load   (--connect ADDR | --connect-file FILE)
//!                   [--tenants free,gold] [--threads N]
//!                   [--requests N] [--seed S] [--retry-attempts N]
//!                   [--bench-out FILE] [--quiet]
//! wgft-serve status --connect ADDR [--out FILE]
//! wgft-serve shutdown --connect ADDR
//! ```
//!
//! `daemon` trains/loads the configured model (cacheable via `--cache-dir`),
//! prepares every serving plan, and serves until a `shutdown` request. A
//! batch takes the requests already queued when the worker frees up, up to
//! `--max-batch`; there is no batching window.
//! `load` rebuilds the daemon's evaluation set locally from the `Health`
//! report (dataset generation is deterministic), drives concurrent client
//! threads per tenant, scores accuracy against ground truth, and merges
//! client-side latency percentiles with the daemon's counters into a
//! `BENCH_serve.json` report. Under `--chaos` the daemon injects seeded
//! operation-level faults into live traffic — the campaigns' fault model at
//! the chaos BER, on every tier; killing and restarting the daemon mid-load
//! is masked by the clients' retry layer (requests are idempotent end to
//! end).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use wgft_core::CampaignConfig;
use wgft_data::Dataset;
use wgft_fabric::{RetryPolicy, SystemClock};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_serve::{
    BatchConfig, ChaosConfig, CountersSnapshot, ProtectionTier, ServeClient, ServeConfig,
    ServeDaemon, ServeEngine,
};
use wgft_winograd::ConvAlgorithm;

fn usage() -> &'static str {
    concat!(
        "wgft-serve — fault-tolerant inference daemon with protection SLAs\n",
        "\n",
        "USAGE:\n",
        "wgft-serve daemon --listen ADDR [--port-file FILE] [--model vgg_small|\n",
        "                  resnet_small|densenet_small|googlenet_small]\n",
        "                  [--width 8|16] [--scale test|full] [--images N]\n",
        "                  [--seed S] [--cache-dir DIR] [--algo standard|winograd]\n",
        "                  [--tenants free=fast,gold=checksum_recompute]\n",
        "                  [--default-tier fast|range|checksum|profile|checksum_recompute]\n",
        "                  [--max-batch N] [--max-queue N]\n",
        "                  [--soft-watermark N] [--escalate-detected N]\n",
        "                  [--escalate-uncorrected N] [--escalate-window-ms MS]\n",
        "                  [--escalate-max-level N] [--profile FILE]\n",
        "                  [--chaos ber=B,seed=S] [--quiet]\n",
        "wgft-serve load   (--connect ADDR | --connect-file FILE)\n",
        "                  [--tenants free,gold] [--threads N]\n",
        "                  [--requests N] [--seed S] [--retry-attempts N]\n",
        "                  [--bench-out FILE] [--quiet]\n",
        "wgft-serve status --connect ADDR [--out FILE]\n",
        "wgft-serve shutdown --connect ADDR\n",
        "\n",
        "The daemon serves classify requests over the WGFB-framed protocol with\n",
        "per-tenant protection tiers, micro-batching, and graceful degradation.\n",
        "A batch takes the requests already queued when the worker frees up (at\n",
        "most --max-batch); there is no batching window, so an idle daemon\n",
        "serves each request as it arrives. Images travel as the hex of each\n",
        "pixel's f32 bits; non-finite pixels are refused.\n",
        "`--chaos` injects request-id-seeded operation-level faults into live\n",
        "traffic on every tier, so retries (and daemon restarts) replay\n",
        "identical fault streams."
    )
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let flag = &raw[i];
            if !flag.starts_with("--") {
                return Err(format!(
                    "unexpected argument `{flag}` (flags start with --)"
                ));
            }
            if flag == "--quiet" {
                flags.push((flag.clone(), String::new()));
                i += 1;
                continue;
            }
            let value = raw
                .get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            flags.push((flag.clone(), value.clone()));
            i += 2;
        }
        Ok(Self { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

fn parse_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    args.get(name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("flag {name}: cannot parse `{v}`"))
        })
        .transpose()
}

fn parse_model(value: &str) -> Result<ModelKind, String> {
    ModelKind::all()
        .into_iter()
        .find(|m| m.label() == value)
        .ok_or_else(|| {
            format!(
                "unknown model `{value}` (expected one of: {})",
                ModelKind::all().map(|m| m.label()).join(", ")
            )
        })
}

fn parse_width(value: &str) -> Result<BitWidth, String> {
    match value {
        "8" | "int8" => Ok(BitWidth::W8),
        "16" | "int16" => Ok(BitWidth::W16),
        other => Err(format!("unknown width `{other}` (expected 8 or 16)")),
    }
}

fn parse_algo(value: &str) -> Result<ConvAlgorithm, String> {
    match value {
        "standard" => Ok(ConvAlgorithm::Standard),
        "winograd" => Ok(ConvAlgorithm::winograd_default()),
        other => Err(format!(
            "unknown algorithm `{other}` (expected standard or winograd)"
        )),
    }
}

/// Parse `free=fast,gold=checksum_recompute` into a tenant tier map.
fn parse_tenant_tiers(value: &str) -> Result<BTreeMap<String, ProtectionTier>, String> {
    let mut tenants = BTreeMap::new();
    for entry in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (tenant, tier) = entry
            .split_once('=')
            .ok_or_else(|| format!("--tenants: `{entry}` is not TENANT=TIER"))?;
        tenants.insert(
            tenant.trim().to_string(),
            ProtectionTier::parse(tier.trim())?,
        );
    }
    Ok(tenants)
}

/// Parse `ber=3e-4,seed=7` into a chaos configuration.
fn parse_chaos(value: &str) -> Result<ChaosConfig, String> {
    let mut ber = None;
    let mut seed = 0u64;
    for entry in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (key, val) = entry
            .split_once('=')
            .ok_or_else(|| format!("--chaos: `{entry}` is not KEY=VALUE"))?;
        match key.trim() {
            "ber" => {
                let b: f64 = val
                    .trim()
                    .parse()
                    .map_err(|_| format!("--chaos: bad ber `{val}`"))?;
                if !b.is_finite() || !(0.0..=1.0).contains(&b) {
                    return Err(format!("--chaos: ber `{val}` is not in [0, 1]"));
                }
                ber = Some(b);
            }
            "seed" => {
                seed = val
                    .trim()
                    .parse()
                    .map_err(|_| format!("--chaos: bad seed `{val}`"))?;
            }
            other => return Err(format!("--chaos: unknown key `{other}`")),
        }
    }
    Ok(ChaosConfig {
        ber: ber.ok_or("--chaos needs ber=RATE")?,
        seed,
    })
}

fn build_campaign_config(args: &Args) -> Result<CampaignConfig, String> {
    let model = args
        .get("--model")
        .map(parse_model)
        .transpose()?
        .unwrap_or(ModelKind::VggSmall);
    let width = args
        .get("--width")
        .map(parse_width)
        .transpose()?
        .unwrap_or(BitWidth::W8);
    let mut config = match args.get("--scale").unwrap_or("test") {
        "test" => CampaignConfig::test_scale(model, width),
        "full" => CampaignConfig::new(model, width),
        other => return Err(format!("unknown scale `{other}` (expected test or full)")),
    };
    if let Some(images) = parse_flag::<usize>(args, "--images")? {
        config = config.with_images(images);
    }
    if let Some(seed) = parse_flag::<u64>(args, "--seed")? {
        config = config.with_seed(seed);
    }
    if let Some(dir) = args.get("--cache-dir") {
        config = config.with_cache_dir(PathBuf::from(dir));
    }
    Ok(config)
}

fn cmd_daemon(args: &Args) -> Result<(), String> {
    let quiet = args.has("--quiet");
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0");
    let algo = args
        .get("--algo")
        .map(parse_algo)
        .transpose()?
        .unwrap_or(ConvAlgorithm::winograd_default());
    let chaos = args.get("--chaos").map(parse_chaos).transpose()?;
    let campaign_config = build_campaign_config(args)?;

    let mut serve_config = ServeConfig {
        tenants: args
            .get("--tenants")
            .map(parse_tenant_tiers)
            .transpose()?
            .unwrap_or_default(),
        ..ServeConfig::default()
    };
    if let Some(tier) = args.get("--default-tier") {
        serve_config.default_tier = ProtectionTier::parse(tier)?;
    }
    let mut batch = BatchConfig::default();
    if let Some(n) = parse_flag::<usize>(args, "--max-batch")? {
        batch.max_batch = n.max(1);
    }
    if let Some(n) = parse_flag::<usize>(args, "--max-queue")? {
        batch.max_queue = n.max(1);
        batch.soft_watermark = (n * 3 / 4).max(1);
    }
    if let Some(n) = parse_flag::<usize>(args, "--soft-watermark")? {
        batch.soft_watermark = n;
    }
    serve_config.batch = batch;
    if let Some(n) = parse_flag::<u64>(args, "--escalate-detected")? {
        serve_config.monitor.detected_per_window = n;
    }
    if let Some(n) = parse_flag::<u64>(args, "--escalate-uncorrected")? {
        serve_config.monitor.uncorrected_per_window = n;
    }
    if let Some(ms) = parse_flag::<u64>(args, "--escalate-window-ms")? {
        serve_config.monitor.window_ms = ms;
    }
    if let Some(n) = parse_flag::<u32>(args, "--escalate-max-level")? {
        serve_config.monitor.max_level = n;
    }

    if !quiet {
        eprintln!(
            "[wgft-serve] preparing {} ({:?}, {}){}...",
            campaign_config.model.label(),
            campaign_config.width,
            match algo {
                ConvAlgorithm::Standard => "standard",
                ConvAlgorithm::Winograd(_) => "winograd",
            },
            if chaos.is_some() { " with chaos" } else { "" },
        );
    }
    let profile = args
        .get("--profile")
        .map(|path| {
            wgft_abft::ProtectionProfile::load(path)
                .map_err(|e| format!("loading profile `{path}`: {e}"))
        })
        .transpose()?;
    let engine = ServeEngine::prepare_with_profile(&campaign_config, algo, chaos, profile)
        .map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!(
            "[wgft-serve] model ready, clean accuracy {:.4}",
            engine.clean_accuracy()
        );
        if let Some(hash) = engine.profile_hash() {
            eprintln!("[wgft-serve] protection profile loaded (hash {hash})");
        }
    }
    let mut daemon = ServeDaemon::spawn(engine, serve_config, Arc::new(SystemClock::new()), listen)
        .map_err(|e| e.to_string())?;
    let addr = daemon.addr();
    if let Some(port_file) = args.get("--port-file") {
        let tmp = format!("{port_file}.tmp");
        std::fs::write(&tmp, addr.to_string()).map_err(|e| format!("writing port file: {e}"))?;
        std::fs::rename(&tmp, port_file).map_err(|e| format!("writing port file: {e}"))?;
    }
    if !quiet {
        eprintln!("[wgft-serve] listening on {addr}");
    }
    daemon.run_until_shutdown();
    if !quiet {
        eprintln!("[wgft-serve] shutdown complete");
    }
    Ok(())
}

/// Per-tenant client-side results of a load run.
#[derive(Debug, Default, Clone, Serialize)]
struct TenantLoadReport {
    requests: u64,
    correct: u64,
    accuracy: f64,
    promoted: u64,
    retries: u64,
    p50_us: u64,
    p99_us: u64,
    mean_us: u64,
}

/// The merged `BENCH_serve.json` payload.
#[derive(Debug, Serialize)]
struct LoadReport {
    tenants_requested: Vec<String>,
    threads_per_tenant: usize,
    requests_per_tenant: usize,
    elapsed_s: f64,
    throughput_rps: f64,
    clean_accuracy: f64,
    chaos: bool,
    algo: String,
    tenants: BTreeMap<String, TenantLoadReport>,
    server: CountersSnapshot,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

fn cmd_load(args: &Args) -> Result<(), String> {
    let quiet = args.has("--quiet");
    // --connect-file re-resolves the daemon address from its port file on
    // every reconnect, so a daemon restarted on a fresh ephemeral port is
    // picked up transparently by the retry layer (the chaos drill leans on
    // this). --connect pins one address for the whole run.
    let addr_file = args.get("--connect-file").map(std::path::PathBuf::from);
    let addr = match (args.get("--connect"), &addr_file) {
        (Some(addr), _) => addr.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .trim()
            .to_string(),
        (None, None) => return Err("load needs --connect ADDR or --connect-file FILE".into()),
    };
    let addr = addr.as_str();
    let tenants: Vec<String> = args
        .get("--tenants")
        .unwrap_or("default")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let threads = parse_flag::<usize>(args, "--threads")?.unwrap_or(2).max(1);
    let requests = parse_flag::<usize>(args, "--requests")?
        .unwrap_or(64)
        .max(1);
    let seed = parse_flag::<u64>(args, "--seed")?.unwrap_or(0);
    let retry_attempts = parse_flag::<u32>(args, "--retry-attempts")?.unwrap_or(12);

    // Learn the served configuration and rebuild the evaluation set locally
    // — generation is deterministic and cheap (no training involved).
    let policy = RetryPolicy {
        max_attempts: retry_attempts,
        seed,
        ..RetryPolicy::default()
    };
    let mut probe = ServeClient::with_policy(addr, policy);
    if let Some(path) = &addr_file {
        probe = probe.with_addr_file(path);
    }
    let health = probe.health().map_err(|e| e.to_string())?;
    let config: CampaignConfig = serde_json::from_str(&health.config_json)
        .map_err(|e| format!("cannot parse served config: {e}"))?;
    let eval = {
        let data = Dataset::synthetic(&config.spec, config.train_per_class, config.base_seed);
        let (_, test) = data.split(0.8);
        test.take(config.eval_images)
    };
    if eval.samples().is_empty() {
        return Err("served configuration yields an empty evaluation set".to_string());
    }
    if !quiet {
        eprintln!(
            "[wgft-serve] load: {} tenant(s) x {} thread(s) x {} request(s), \
             {} eval image(s), chaos={}",
            tenants.len(),
            threads,
            requests,
            eval.samples().len(),
            health.chaos,
        );
    }

    struct ThreadOutcome {
        tenant_index: usize,
        correct: u64,
        promoted: u64,
        retries: u64,
        latencies_us: Vec<u64>,
    }

    let eval = Arc::new(eval);
    let started = Instant::now();
    let mut handles = Vec::new();
    for (tenant_index, tenant) in tenants.iter().enumerate() {
        let per_thread = requests / threads + usize::from(requests % threads > 0);
        for thread_index in 0..threads {
            let lo = thread_index * per_thread;
            let hi = ((thread_index + 1) * per_thread).min(requests);
            if lo >= hi {
                continue;
            }
            let tenant = tenant.clone();
            let eval = Arc::clone(&eval);
            let addr = addr.to_string();
            let addr_file = addr_file.clone();
            let policy = RetryPolicy {
                max_attempts: retry_attempts,
                seed: seed ^ ((tenant_index as u64) << 16) ^ thread_index as u64,
                ..RetryPolicy::default()
            };
            handles.push(std::thread::spawn(
                move || -> Result<ThreadOutcome, String> {
                    let mut client = ServeClient::with_policy(&addr, policy);
                    if let Some(path) = &addr_file {
                        client = client.with_addr_file(path);
                    }
                    let mut outcome = ThreadOutcome {
                        tenant_index,
                        correct: 0,
                        promoted: 0,
                        retries: 0,
                        latencies_us: Vec::with_capacity(hi - lo),
                    };
                    for i in lo..hi {
                        let sample = &eval.samples()[i % eval.samples().len()];
                        // Request ids are globally unique per logical request
                        // and stable across retries — the idempotency key.
                        let request_id = ((tenant_index as u64) << 48)
                            | ((thread_index as u64) << 32)
                            | i as u64;
                        let sent = Instant::now();
                        let answer = client
                            .classify(request_id, &tenant, sample.image.data())
                            .map_err(|e| format!("tenant {tenant} request {request_id}: {e}"))?;
                        outcome.latencies_us.push(sent.elapsed().as_micros() as u64);
                        outcome.correct += u64::from(answer.prediction == sample.label);
                        outcome.promoted += u64::from(answer.promoted);
                    }
                    outcome.retries = client.retries();
                    Ok(outcome)
                },
            ));
        }
    }

    let mut reports: BTreeMap<String, TenantLoadReport> = BTreeMap::new();
    let mut all_latencies: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for handle in handles {
        let outcome = handle.join().map_err(|_| "load thread panicked")??;
        let tenant = &tenants[outcome.tenant_index];
        let report = reports.entry(tenant.clone()).or_default();
        report.requests += outcome.latencies_us.len() as u64;
        report.correct += outcome.correct;
        report.promoted += outcome.promoted;
        report.retries += outcome.retries;
        all_latencies
            .entry(outcome.tenant_index)
            .or_default()
            .extend(outcome.latencies_us);
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    for (tenant_index, mut latencies) in all_latencies {
        latencies.sort_unstable();
        let report = reports
            .get_mut(&tenants[tenant_index])
            .expect("report exists");
        report.accuracy = report.correct as f64 / report.requests.max(1) as f64;
        report.p50_us = percentile(&latencies, 0.50);
        report.p99_us = percentile(&latencies, 0.99);
        report.mean_us = latencies.iter().sum::<u64>() / (latencies.len() as u64).max(1);
    }

    let server = probe.status().map_err(|e| e.to_string())?;
    let total_requests: u64 = reports.values().map(|r| r.requests).sum();
    let report = LoadReport {
        tenants_requested: tenants.clone(),
        threads_per_tenant: threads,
        requests_per_tenant: requests,
        elapsed_s,
        throughput_rps: total_requests as f64 / elapsed_s.max(1e-9),
        clean_accuracy: health.clean_accuracy,
        chaos: health.chaos,
        algo: health.algo.clone(),
        tenants: reports,
        server,
    };
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    if let Some(out) = args.get("--bench-out") {
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
        if !quiet {
            eprintln!("[wgft-serve] wrote {out}");
        }
    }
    if !quiet {
        for (tenant, r) in &report.tenants {
            eprintln!(
                "[wgft-serve]   {tenant}: {} req, accuracy {:.4}, p50 {} us, \
                 p99 {} us, {} promoted, {} retries",
                r.requests, r.accuracy, r.p50_us, r.p99_us, r.promoted, r.retries
            );
        }
        eprintln!(
            "[wgft-serve] {} requests in {:.2}s ({:.1} req/s), clean accuracy {:.4}",
            total_requests, elapsed_s, report.throughput_rps, report.clean_accuracy
        );
    }
    if args.get("--bench-out").is_none() {
        println!("{json}");
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let addr = args.get("--connect").ok_or("status needs --connect ADDR")?;
    let mut client = ServeClient::new(addr);
    let snapshot = client.status().map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&snapshot).map_err(|e| e.to_string())?;
    if let Some(out) = args.get("--out") {
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    } else {
        println!("{json}");
    }
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), String> {
    let addr = args
        .get("--connect")
        .ok_or("shutdown needs --connect ADDR")?;
    let mut client = ServeClient::new(addr);
    client.shutdown().map_err(|e| e.to_string())?;
    eprintln!("[wgft-serve] shutdown acknowledged by {addr}");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        "daemon" => cmd_daemon(&args),
        "load" => cmd_load(&args),
        "status" => cmd_status(&args),
        "shutdown" => cmd_shutdown(&args),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
