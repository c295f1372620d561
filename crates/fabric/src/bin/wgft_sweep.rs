//! `wgft-sweep` — CLI driver for sharded, checkpointable fault-tolerance
//! sweeps, local or distributed.
//!
//! ```text
//! wgft-sweep run    --dir DIR [--campaign KIND] [--model M] [--width 8|16]
//!                   [--scale test|full] [--images N] [--chunk N] [--seed S]
//!                   [--bers 0,1e-5,...] [--algo standard|winograd]
//!                   [--keep-fraction F] [--shards K --shard-index I]
//!                   [--cache-dir DIR] [--quiet]
//! wgft-sweep resume --dir DIR [--shards K --shard-index I] [--quiet]
//! wgft-sweep status --dir DIR | --connect ADDR
//! wgft-sweep merge  --dir DIR [--out FILE]
//! wgft-sweep serve  --dir DIR [campaign flags] [--listen ADDR]
//!                   [--port-file F] [--lease-ms N] [--max-units N]
//!                   [--session TAG] [--quiet]
//! wgft-sweep work   --connect ADDR [--name N] [--cache-dir DIR]
//!                   [--max-units N] [--chaos SPEC]
//! wgft-sweep shutdown --connect ADDR
//! ```
//!
//! `run` creates the journal (idempotently: re-running the same plan against
//! the same directory resumes it) and executes one shard; `K` concurrent
//! processes with `--shards K --shard-index 0..K` split the same journal.
//! `resume` needs no campaign flags — everything is reloaded from the
//! manifest and validated against it. `serve` exposes the same journal to
//! TCP workers (`work --connect`) through the lease-based fabric; a served
//! run that is killed resumes with `serve` on the same directory, and its
//! merged report is bit-identical to a local run of the same plan.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use wgft_core::CampaignConfig;
use wgft_fabric::{
    run_worker, Coordinator, FabricConfig, FabricServer, FaultConfig, FaultSchedule,
    FaultyTransport, RemoteTransport, Request, Response, RetryPolicy, RetryTransport,
    SweepTransport, SystemClock, ThreadSleeper, WorkerConfig,
};
use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_sweep::{
    manifest_for, merge_sweep, render_status, resume_sweep, run_sweep, Journal, ProgressSink,
    ShardOutcome, ShardSpec, SilentProgress, SweepKind, TableProgress,
};
use wgft_winograd::ConvAlgorithm;

/// Default BER grid for report-style sweeps (ignored by
/// `find_critical_ber`, which walks its own geometric grid).
const DEFAULT_BERS: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 3e-3];

fn usage() -> &'static str {
    concat!(
        "wgft-sweep — sharded, checkpointable fault-tolerance sweeps\n",
        "\n",
        "USAGE:\n",
        "wgft-sweep run    --dir DIR [--campaign network_sweep|injection_granularity|\n",
        "                   op_type_sensitivity|find_critical_ber|protection_tradeoff]\n",
        "                   [--model vgg_small|\n",
        "                   resnet_small|densenet_small|googlenet_small] [--width 8|16]\n",
        "                   [--scale test|full] [--images N] [--chunk N] [--seed S]\n",
        "                   [--bers 0,1e-5,1e-4] [--algo standard|winograd]\n",
        "                   [--keep-fraction F] [--shards K --shard-index I]\n",
        "                   [--cache-dir DIR] [--quiet]\n",
        "wgft-sweep resume --dir DIR [--shards K --shard-index I] [--quiet]\n",
        "wgft-sweep status --dir DIR | --connect ADDR\n",
        "wgft-sweep merge  --dir DIR [--out FILE]\n",
        "wgft-sweep serve  --dir DIR [campaign flags as for run] [--listen ADDR]\n",
        "                  [--port-file FILE] [--lease-ms N] [--max-units N]\n",
        "                  [--session TAG] [--quiet]\n",
        "wgft-sweep work   --connect ADDR [--name NAME] [--cache-dir DIR]\n",
        "                  [--max-units N] [--chaos seed=S,drop=P,torn=P,dup=P,\n",
        "                  lost=P,delay=P:MS]\n",
        "wgft-sweep shutdown --connect ADDR\n",
        "\n",
        "A killed run (or shard) resumes from its journal; `merge` reduces the\n",
        "completed journal into the campaign report, bit-identical to a\n",
        "single-process in-memory run of the same configuration. `serve` leases\n",
        "units of the same journal to TCP `work` processes (heartbeats renew\n",
        "leases; missed heartbeats expire them so other workers steal the unit)\n",
        "and exits once every unit is journaled. `--chaos` injects seeded\n",
        "transport faults into a worker for drills."
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
        self.flags.iter().any(|(flag, _)| flag == name)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for (flag, _) in &self.flags {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag `{flag}`"));
            }
        }
        Ok(())
    }

    fn dir(&self) -> Result<PathBuf, String> {
        self.get("--dir")
            .map(PathBuf::from)
            .ok_or_else(|| "--dir is required".to_string())
    }

    fn shard(&self) -> Result<ShardSpec, String> {
        let shards: u64 = parse_flag(self, "--shards")?.unwrap_or(1);
        let index: u64 = parse_flag(self, "--shard-index")?.unwrap_or(0);
        ShardSpec::new(shards, index).map_err(|e| e.to_string())
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

fn parse_bers(value: &str) -> Result<Vec<f64>, String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            let ber: f64 = s.parse().map_err(|_| format!("--bers: bad number `{s}`"))?;
            if !ber.is_finite() || !(0.0..=1.0).contains(&ber) {
                return Err(format!("--bers: `{s}` is not a probability in [0, 1]"));
            }
            Ok(ber)
        })
        .collect()
}

fn parse_kind(args: &Args) -> Result<SweepKind, String> {
    let algo = args.get("--algo").map(parse_algo).transpose()?;
    let keep_fraction: Option<f64> = parse_flag(args, "--keep-fraction")?;
    match args.get("--campaign").unwrap_or("network_sweep") {
        "network_sweep" => Ok(SweepKind::NetworkSweep),
        "injection_granularity" => Ok(SweepKind::InjectionGranularity),
        "op_type_sensitivity" => Ok(SweepKind::OpTypeSensitivity),
        "find_critical_ber" => Ok(SweepKind::FindCriticalBer {
            algo: algo.unwrap_or(ConvAlgorithm::Standard),
            keep_fraction: keep_fraction.unwrap_or(0.5),
        }),
        "protection_tradeoff" => Ok(SweepKind::ProtectionTradeoff),
        other => Err(format!(
            "unknown campaign `{other}` (expected network_sweep, \
             injection_granularity, op_type_sensitivity, find_critical_ber \
             or protection_tradeoff)"
        )),
    }
}

fn build_config(args: &Args, dir: &std::path::Path) -> Result<CampaignConfig, String> {
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
    // Cache the trained model inside the run directory by default, so
    // resumes and sibling shards skip training.
    let cache_dir = args
        .get("--cache-dir")
        .map_or_else(|| dir.join("model-cache"), PathBuf::from);
    Ok(config.with_cache_dir(cache_dir))
}

fn report_outcome(outcome: &ShardOutcome, shard: ShardSpec) {
    eprintln!(
        "[wgft-sweep] shard {}/{}: {} unit(s) evaluated, {} already journaled; \
         run {}/{} complete{}",
        shard.index(),
        shard.shards(),
        outcome.evaluated,
        outcome.skipped,
        outcome.run_done,
        outcome.run_total,
        if outcome.run_complete() {
            " — ready to merge"
        } else {
            ""
        }
    );
}

fn progress_for(args: &Args) -> Box<dyn ProgressSink> {
    if args.has("--quiet") {
        Box::new(SilentProgress)
    } else {
        Box::new(TableProgress::default())
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--dir",
        "--campaign",
        "--model",
        "--width",
        "--scale",
        "--images",
        "--chunk",
        "--seed",
        "--bers",
        "--algo",
        "--keep-fraction",
        "--shards",
        "--shard-index",
        "--cache-dir",
        "--quiet",
    ])?;
    let dir = args.dir()?;
    let kind = parse_kind(args)?;
    let config = build_config(args, &dir)?;
    let bers = args
        .get("--bers")
        .map(parse_bers)
        .transpose()?
        .unwrap_or_else(|| DEFAULT_BERS.to_vec());
    let chunk = parse_flag::<usize>(args, "--chunk")?.unwrap_or(8);
    let shard = args.shard()?;
    let progress = progress_for(args);
    let outcome = run_sweep(&dir, kind, &config, &bers, chunk, shard, progress.as_ref())
        .map_err(|e| e.to_string())?;
    report_outcome(&outcome, shard);
    Ok(())
}

fn cmd_resume(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--dir", "--shards", "--shard-index", "--quiet"])?;
    let dir = args.dir()?;
    let shard = args.shard()?;
    let progress = progress_for(args);
    let outcome = resume_sweep(&dir, shard, progress.as_ref()).map_err(|e| e.to_string())?;
    report_outcome(&outcome, shard);
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--dir",
        "--campaign",
        "--model",
        "--width",
        "--scale",
        "--images",
        "--chunk",
        "--seed",
        "--bers",
        "--algo",
        "--keep-fraction",
        "--cache-dir",
        "--listen",
        "--port-file",
        "--lease-ms",
        "--max-units",
        "--session",
        "--quiet",
    ])?;
    let dir = args.dir()?;
    let kind = parse_kind(args)?;
    let config = build_config(args, &dir)?;
    let bers = args
        .get("--bers")
        .map(parse_bers)
        .transpose()?
        .unwrap_or_else(|| DEFAULT_BERS.to_vec());
    let chunk = parse_flag::<usize>(args, "--chunk")?.unwrap_or(8);
    let session = args
        .get("--session")
        .map_or_else(|| format!("serve-pid{}", std::process::id()), String::from);
    let fabric_config = FabricConfig {
        lease_ms: parse_flag::<u64>(args, "--lease-ms")?.unwrap_or(10_000),
        max_units_per_lease: parse_flag::<u32>(args, "--max-units")?.unwrap_or(2),
    };
    let quiet = args.has("--quiet");

    let campaign =
        wgft_core::FaultToleranceCampaign::prepare(&config).map_err(|e| e.to_string())?;
    let manifest =
        manifest_for(kind, &config, &bers, chunk, &campaign).with_fabric_session(&session);
    let journal = Journal::create(&dir, manifest).map_err(|e| e.to_string())?;
    wgft_sweep::validate_baseline(journal.manifest(), &campaign).map_err(|e| e.to_string())?;
    drop(campaign);

    let coordinator = Coordinator::new(
        journal,
        Arc::new(SystemClock::new()),
        fabric_config,
        &session,
    )
    .map_err(|e| e.to_string())?;
    let coordinator = Arc::new(Mutex::new(coordinator));
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0");
    let mut server =
        FabricServer::spawn(Arc::clone(&coordinator), listen).map_err(|e| e.to_string())?;
    let addr = server.addr();
    eprintln!(
        "[wgft-sweep] serving {} on {addr} (session {session})",
        dir.display()
    );
    if let Some(port_file) = args.get("--port-file") {
        // Written atomically (write + rename) so a watcher never reads a
        // half-written address.
        let tmp = PathBuf::from(format!("{port_file}.tmp"));
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, port_file))
            .map_err(|e| format!("cannot write {port_file}: {e}"))?;
    }

    let mut last_done = u64::MAX;
    loop {
        let (done, total, complete, stats) = {
            let coordinator = coordinator
                .lock()
                .map_err(|_| "coordinator mutex poisoned".to_string())?;
            let completed = coordinator
                .journal()
                .completed()
                .map_err(|e| e.to_string())?;
            let total = coordinator.journal().manifest().unit_count;
            (
                completed.results.len() as u64,
                total,
                coordinator.done(),
                coordinator.stats(),
            )
        };
        if !quiet && done != last_done {
            eprintln!("[wgft-sweep] {done}/{total} unit(s) journaled");
            last_done = done;
        }
        if complete {
            eprintln!(
                "[wgft-sweep] campaign complete: {} journaled, {} duplicate(s), \
                 {} expired lease(s), {} conflict(s) — ready to merge",
                stats.results_journaled,
                stats.duplicates_identical,
                stats.leases_expired,
                stats.conflicts_rejected
            );
            // Keep serving until a `shutdown` request arrives: workers
            // idling in their NoWork poll loop observe `done` and exit, and
            // the drill driver (or an operator) sends the explicit drain —
            // no timing heuristic. A bounded fallback (3 lease periods)
            // still ends an unattended run.
            let deadline = std::time::Instant::now()
                + std::time::Duration::from_millis(fabric_config.lease_ms.saturating_mul(3));
            while !server.shutdown_requested().map_err(|e| e.to_string())?
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            server.stop();
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn cmd_shutdown(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--connect"])?;
    let addr = args
        .get("--connect")
        .ok_or_else(|| "--connect is required".to_string())?;
    let mut transport = RemoteTransport::new(addr);
    match transport
        .call(&Request::Shutdown)
        .map_err(|e| e.to_string())?
    {
        Response::ShutdownAck { done } => {
            eprintln!(
                "[wgft-sweep] shutdown acknowledged ({})",
                if done {
                    "plan complete — server draining"
                } else {
                    "plan incomplete — server drains once every unit is journaled"
                }
            );
            Ok(())
        }
        other => Err(format!("unexpected response to Shutdown: {other:?}")),
    }
}

fn cmd_work(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--connect",
        "--name",
        "--cache-dir",
        "--max-units",
        "--chaos",
    ])?;
    let addr = args
        .get("--connect")
        .ok_or_else(|| "--connect is required".to_string())?;
    let name = args
        .get("--name")
        .map_or_else(|| format!("worker-pid{}", std::process::id()), String::from);
    let chaos = args.get("--chaos").map(FaultConfig::parse).transpose()?;

    let remote = RemoteTransport::new(addr);
    let faulty = FaultyTransport::new(
        remote,
        chaos.map_or(FaultSchedule::None, FaultSchedule::seeded),
        None,
    );
    let policy = RetryPolicy {
        seed: chaos.map_or(0, |c| c.seed),
        ..RetryPolicy::default()
    };
    let mut transport = RetryTransport::new(faulty, policy, Arc::new(ThreadSleeper));

    let worker_config = WorkerConfig {
        name: name.clone(),
        max_units: parse_flag::<u32>(args, "--max-units")?.unwrap_or(1),
        cache_dir: args.get("--cache-dir").map(PathBuf::from),
        sleeper: Arc::new(ThreadSleeper),
    };
    let summary = run_worker(&mut transport, &worker_config).map_err(|e| e.to_string())?;
    let faults = transport.inner().stats();
    eprintln!(
        "[wgft-sweep] worker {name} (id {}) done: {} unit(s) journaled, \
         {} duplicate(s), {} lost lease(s), {} registration(s), {} retry(ies), \
         {} injected fault(s)",
        summary.worker_id,
        summary.units_completed,
        summary.duplicates,
        summary.lost_leases,
        summary.registrations,
        transport.retries(),
        faults.total_faults(),
    );
    Ok(())
}

fn cmd_remote_status(args: &Args, addr: &str) -> Result<(), String> {
    args.reject_unknown(&["--connect"])?;
    let mut transport = RemoteTransport::new(addr);
    match transport
        .call(&Request::Status)
        .map_err(|e| e.to_string())?
    {
        Response::Status {
            done,
            total,
            leased,
            workers,
        } => {
            println!(
                "{done}/{total} unit(s) journaled, {leased} under lease, \
                 {workers} worker(s) registered"
            );
            Ok(())
        }
        other => Err(format!("unexpected response to Status: {other:?}")),
    }
}

fn cmd_status(args: &Args) -> Result<(), String> {
    if let Some(addr) = args.get("--connect") {
        return cmd_remote_status(args, addr);
    }
    args.reject_unknown(&["--dir"])?;
    let dir = args.dir()?;
    // A directory holding several run journals (one per campaign kind, say)
    // gets a per-kind summary table; a single journal gets the full view.
    if !dir.join(wgft_sweep::MANIFEST_FILE).exists() {
        let mut sub_journals = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            let mut subdirs: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join(wgft_sweep::MANIFEST_FILE).exists())
                .collect();
            subdirs.sort();
            for sub in subdirs {
                let journal = Journal::open(&sub).map_err(|e| e.to_string())?;
                let completed = journal.completed().map_err(|e| e.to_string())?;
                sub_journals.push((sub, journal, completed));
            }
        }
        if sub_journals.is_empty() {
            return Err(format!(
                "{} holds neither a run journal nor subdirectories with one",
                dir.display()
            ));
        }
        let mut table =
            wgft_core::TextTable::new(&["campaign", "run", "units done", "units total"]);
        for (sub, journal, completed) in &sub_journals {
            let total = journal.manifest().plan().units().len();
            table.push_row(vec![
                journal.manifest().kind.label().to_string(),
                sub.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                completed.results.len().to_string(),
                total.to_string(),
            ]);
        }
        print!("{table}");
        return Ok(());
    }
    let journal = Journal::open(dir).map_err(|e| e.to_string())?;
    let completed = journal.completed().map_err(|e| e.to_string())?;
    print!("{}", render_status(&journal, &completed));
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--dir", "--out"])?;
    let dir = args.dir()?;
    let report = merge_sweep(&dir).map_err(|e| e.to_string())?;
    let out = args
        .get("--out")
        .map_or_else(|| dir.join("merged.json"), PathBuf::from);
    let json =
        serde_json::to_string(&report).map_err(|e| format!("report serialization failed: {e}"))?;
    std::fs::write(&out, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("{report}");
    eprintln!("[wgft-sweep] merged report written to {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(&raw[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "resume" => cmd_resume(&args),
        "status" => cmd_status(&args),
        "merge" => cmd_merge(&args),
        "serve" => cmd_serve(&args),
        "work" => cmd_work(&args),
        "shutdown" => cmd_shutdown(&args),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
