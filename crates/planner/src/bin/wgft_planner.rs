//! `wgft-planner` — synthesize measured per-layer protection profiles.
//!
//! ```text
//! wgft-planner plan --ber B --target A [--algo standard|winograd]
//!                   [--model vgg_small|resnet_small|densenet_small|googlenet_small]
//!                   [--width 8|16] [--scale test|full] [--images N] [--seed S]
//!                   [--cache-dir DIR] [--cifar DIR] [--journal DIR]
//!                   [--out FILE] [--quiet]
//! wgft-planner show --profile FILE
//! ```
//!
//! `plan` measures the per-layer cost/benefit table on the configured
//! campaign (or on the campaign a `protection_tradeoff` sweep journal was
//! recorded under, cross-checking the journaled anchors bit-identically),
//! solves for the minimum-measured-cost assignment reaching `--target` at
//! `--ber`, replays the chosen composition, and writes the resulting
//! versioned `ProtectionProfile` JSON. `show` pretty-prints a saved profile.
//!
//! Both commands refuse a flag they do not read, a flag given twice and a
//! flag with no value, naming the flag (`wgft_core::cli`). With `--journal`
//! the journal fixes the campaign, so `plan` refuses the campaign flags
//! (`--model`, `--width`, `--scale`, `--images`, `--seed`, `--cache-dir`,
//! `--cifar`) next to it.

use std::process::ExitCode;

use wgft_core::cli::{self, Args, Command, CAMPAIGN_FLAGS, QUIET};
use wgft_planner::{
    plan_from_journal, plan_profile, FaultToleranceCampaign, PlanRequest, ProtectionProfile,
};
use wgft_winograd::ConvAlgorithm;

fn usage() -> &'static str {
    concat!(
        "wgft-planner — measured per-layer protection planner\n",
        "\n",
        "USAGE:\n",
        "wgft-planner plan --ber B --target A [--algo standard|winograd]\n",
        "                  [--model vgg_small|resnet_small|densenet_small|\n",
        "                  googlenet_small] [--width 8|16] [--scale test|full]\n",
        "                  [--images N] [--seed S] [--cache-dir DIR]\n",
        "                  [--cifar DIR] [--journal DIR] [--out FILE] [--quiet]\n",
        "wgft-planner show --profile FILE\n",
        "\n",
        "`plan` executes the per-layer probe grid (off/range/checksum/\n",
        "checksum+recompute/TMR per compute layer) under injected faults,\n",
        "solves exactly for the cheapest assignment reaching --target at\n",
        "--ber, replays it, and writes a versioned ProtectionProfile that\n",
        "`wgft-serve --profile` can load. With --journal the campaign\n",
        "identity and anchors come from a protection_tradeoff sweep journal\n",
        "(anchors are cross-checked bit-identically before planning).\n",
        "With --cifar the campaign trains and evaluates on real CIFAR-10\n",
        "batches from the given directory.\n",
        "\n",
        "Both commands refuse a flag they do not read and a flag given twice;\n",
        "`plan` refuses campaign flags next to --journal."
    )
}

const COMMANDS: &[Command] = &[
    Command {
        name: "plan",
        flags: &[
            CAMPAIGN_FLAGS,
            &[
                "--ber",
                "--target",
                "--algo",
                "--cifar",
                "--journal",
                "--out",
                QUIET,
            ],
        ],
        run: cmd_plan,
    },
    Command {
        name: "show",
        flags: &[&["--profile"]],
        run: cmd_show,
    },
];

fn cmd_plan(args: &Args) -> Result<(), String> {
    let quiet = args.has(QUIET);
    let ber = args.required("--ber")?;
    let target = args.required("--target")?;
    let algo = args.algo()?.unwrap_or(ConvAlgorithm::winograd_default());

    let profile = if let Some(journal_dir) = args.get("--journal") {
        // The journal's manifest fixes the campaign, so a campaign flag
        // next to it would be ignored.
        if let Some(flag) = CAMPAIGN_FLAGS
            .iter()
            .chain(&["--cifar"])
            .find(|f| args.has(f))
        {
            return Err(format!("{flag} cannot be combined with --journal"));
        }
        if !quiet {
            eprintln!("[wgft-planner] planning from journal {journal_dir}");
        }
        plan_from_journal(journal_dir, algo, ber, target).map_err(|e| e.to_string())?
    } else {
        let config = args.campaign_config()?;
        if !quiet {
            eprintln!(
                "[wgft-planner] preparing {} ({:?}, {} data)...",
                config.model.label(),
                config.width,
                config.dataset.label(),
            );
        }
        let campaign = FaultToleranceCampaign::prepare(&config).map_err(|e| e.to_string())?;
        if !quiet {
            eprintln!(
                "[wgft-planner] campaign ready, clean accuracy {:.4}; probing {} layers...",
                campaign.clean_accuracy(),
                campaign.quantized().compute_layer_count(),
            );
        }
        plan_profile(
            &campaign,
            PlanRequest {
                algo,
                ber,
                target_accuracy: target,
            },
        )
        .map_err(|e| e.to_string())?
    };

    if !quiet {
        eprint!("{profile}");
        if profile.achieved_accuracy < profile.target_accuracy {
            eprintln!(
                "[wgft-planner] warning: replayed accuracy {:.4} is below the target {:.4}",
                profile.achieved_accuracy, profile.target_accuracy
            );
        }
    }
    if let Some(out) = args.get("--out") {
        profile.save(out).map_err(|e| e.to_string())?;
        if !quiet {
            eprintln!("[wgft-planner] wrote {out} (hash {})", profile.hash());
        }
    } else {
        println!(
            "{}",
            serde_json::to_string(&profile).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let path: String = args.required("--profile")?;
    let profile = ProtectionProfile::load(path).map_err(|e| e.to_string())?;
    print!("{profile}");
    println!("provenance:");
    println!("  config hash: {}", profile.provenance.config_hash);
    println!("  dataset:     {}", profile.provenance.dataset);
    println!("  BER grid:    {:?}", profile.provenance.ber_grid);
    println!(
        "  images:      {} ({} measured cells)",
        profile.provenance.images,
        profile.provenance.deltas.len()
    );
    println!(
        "  solver:      exact cost {:.1}, greedy cost {:.1}, gap {:.1} ops/image",
        profile.total_cost, profile.greedy_cost, profile.optimality_gap
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::run(usage(), COMMANDS)
}
