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
//!
//! Every command refuses a flag it does not read, a flag given twice and a
//! flag with no value, naming the flag (`wgft_core::cli`); `status` takes
//! `--dir` or `--connect`, not both. `--algo` and `--keep-fraction` (a
//! fraction in [0, 1]) are read only by `--campaign find_critical_ber`,
//! which walks its own BER grid and so refuses `--bers`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use wgft_core::cli::{self, Args, CliError, Command, CAMPAIGN_FLAGS, QUIET};
use wgft_core::CampaignConfig;
use wgft_fabric::{
    run_worker, Coordinator, FabricConfig, FabricServer, FaultConfig, FaultSchedule,
    FaultyTransport, RemoteTransport, Request, Response, RetryPolicy, RetryTransport,
    SweepTransport, SystemClock, ThreadSleeper, WorkerConfig,
};
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
        "transport faults into a worker for drills.\n",
        "\n",
        "Every command refuses a flag it does not read and a flag given twice.\n",
        "Only find_critical_ber reads --algo and --keep-fraction (in [0, 1]);\n",
        "it walks its own BER grid and refuses --bers."
    )
}

/// The flags that define a sweep plan, read by `run` and `serve`.
const PLAN_FLAGS: &[&str] = &[
    "--dir",
    "--campaign",
    "--chunk",
    "--bers",
    "--algo",
    "--keep-fraction",
];

const SHARD_FLAGS: &[&str] = &["--shards", "--shard-index"];

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        flags: &[CAMPAIGN_FLAGS, PLAN_FLAGS, SHARD_FLAGS, &[QUIET]],
        run: cmd_run,
    },
    Command {
        name: "resume",
        flags: &[&["--dir", QUIET], SHARD_FLAGS],
        run: cmd_resume,
    },
    Command {
        name: "status",
        flags: &[&["--dir", "--connect"]],
        run: cmd_status,
    },
    Command {
        name: "merge",
        flags: &[&["--dir", "--out"]],
        run: cmd_merge,
    },
    Command {
        name: "serve",
        flags: &[
            CAMPAIGN_FLAGS,
            PLAN_FLAGS,
            &[
                "--listen",
                "--port-file",
                "--lease-ms",
                "--max-units",
                "--session",
                QUIET,
            ],
        ],
        run: cmd_serve,
    },
    Command {
        name: "work",
        flags: &[&[
            "--connect",
            "--name",
            "--cache-dir",
            "--max-units",
            "--chaos",
        ]],
        run: cmd_work,
    },
    Command {
        name: "shutdown",
        flags: &[&["--connect"]],
        run: cmd_shutdown,
    },
];

fn shard(args: &Args) -> Result<ShardSpec, String> {
    let shards = args.value("--shards")?.unwrap_or(1);
    let index = args.value("--shard-index")?.unwrap_or(0);
    ShardSpec::new(shards, index).map_err(|e| e.to_string())
}

fn parse_bers(value: &str) -> Result<Vec<f64>, String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            let ber: f64 = s.parse().map_err(|_| format!("bad number `{s}`"))?;
            if !ber.is_finite() || !(0.0..=1.0).contains(&ber) {
                return Err(format!("`{s}` is not a probability in [0, 1]"));
            }
            Ok(ber)
        })
        .collect()
}

/// The campaign `--campaign` names. Only `find_critical_ber` reads `--algo`
/// and `--keep-fraction`, and it walks its own BER grid instead of `--bers`;
/// a plan flag the campaign would ignore is refused by name.
fn parse_kind(args: &Args) -> Result<SweepKind, CliError> {
    let (unread, reason) = if args.get("--campaign") == Some("find_critical_ber") {
        (&["--bers"][..], "find_critical_ber walks its own BER grid")
    } else {
        (
            &["--algo", "--keep-fraction"][..],
            "only --campaign find_critical_ber reads it",
        )
    };
    if let Some(flag) = unread.iter().find(|flag| args.has(flag)) {
        return Err(CliError::BadValue {
            flag: (*flag).to_string(),
            reason: reason.to_string(),
        });
    }
    let algo = args.algo()?.unwrap_or(ConvAlgorithm::Standard);
    let keep_fraction = args
        .parsed("--keep-fraction", parse_keep_fraction)?
        .unwrap_or(0.5);
    let kind = args.parsed("--campaign", |campaign| match campaign {
        "network_sweep" => Ok(SweepKind::NetworkSweep),
        "injection_granularity" => Ok(SweepKind::InjectionGranularity),
        "op_type_sensitivity" => Ok(SweepKind::OpTypeSensitivity),
        "find_critical_ber" => Ok(SweepKind::FindCriticalBer {
            algo,
            keep_fraction,
        }),
        "protection_tradeoff" => Ok(SweepKind::ProtectionTradeoff),
        other => Err(format!(
            "unknown campaign `{other}` (expected network_sweep, \
             injection_granularity, op_type_sensitivity, find_critical_ber \
             or protection_tradeoff)"
        )),
    })?;
    Ok(kind.unwrap_or(SweepKind::NetworkSweep))
}

fn parse_keep_fraction(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(keep) if (0.0..=1.0).contains(&keep) => Ok(keep),
        _ => Err(format!("`{value}` is not a fraction in [0, 1]")),
    }
}

fn build_config(args: &Args, dir: &Path) -> Result<CampaignConfig, CliError> {
    let config = args.campaign_config()?;
    // Cache the trained model inside the run directory by default, so
    // resumes and sibling shards skip training.
    Ok(if args.has("--cache-dir") {
        config
    } else {
        config.with_cache_dir(dir.join("model-cache"))
    })
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
    if args.has(QUIET) {
        Box::new(SilentProgress)
    } else {
        Box::new(TableProgress::default())
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let dir: PathBuf = args.required("--dir")?;
    let kind = parse_kind(args)?;
    let config = build_config(args, &dir)?;
    let bers = args
        .parsed("--bers", parse_bers)?
        .unwrap_or_else(|| DEFAULT_BERS.to_vec());
    let chunk = args.value("--chunk")?.unwrap_or(8);
    let shard = shard(args)?;
    let progress = progress_for(args);
    let outcome = run_sweep(&dir, kind, &config, &bers, chunk, shard, progress.as_ref())
        .map_err(|e| e.to_string())?;
    report_outcome(&outcome, shard);
    Ok(())
}

fn cmd_resume(args: &Args) -> Result<(), String> {
    let dir: PathBuf = args.required("--dir")?;
    let shard = shard(args)?;
    let progress = progress_for(args);
    let outcome = resume_sweep(&dir, shard, progress.as_ref()).map_err(|e| e.to_string())?;
    report_outcome(&outcome, shard);
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let dir: PathBuf = args.required("--dir")?;
    let kind = parse_kind(args)?;
    let config = build_config(args, &dir)?;
    let bers = args
        .parsed("--bers", parse_bers)?
        .unwrap_or_else(|| DEFAULT_BERS.to_vec());
    let chunk = args.value("--chunk")?.unwrap_or(8);
    let session = args
        .get("--session")
        .map_or_else(|| format!("serve-pid{}", std::process::id()), String::from);
    let fabric_config = FabricConfig {
        lease_ms: args.value("--lease-ms")?.unwrap_or(10_000),
        max_units_per_lease: args.value("--max-units")?.unwrap_or(2),
    };
    let quiet = args.has(QUIET);

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
    let addr: String = args.required("--connect")?;
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
    let addr: String = args.required("--connect")?;
    let name = args
        .get("--name")
        .map_or_else(|| format!("worker-pid{}", std::process::id()), String::from);
    let chaos = args.parsed("--chaos", FaultConfig::parse)?;

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
        max_units: args.value("--max-units")?.unwrap_or(1),
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

fn cmd_remote_status(addr: &str) -> Result<(), String> {
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
        if args.has("--dir") {
            return Err("status takes --dir DIR or --connect ADDR, not both".to_string());
        }
        return cmd_remote_status(addr);
    }
    let dir: PathBuf = args.required("--dir")?;
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
    let dir: PathBuf = args.required("--dir")?;
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
    cli::run(usage(), COMMANDS)
}
