//! The command-line front end shared by `wgft-sweep`, `wgft-planner` and
//! `wgft-serve`.
//!
//! Each binary lists its [`Command`]s, and each command declares the flags
//! it reads, once. [`run`] parses the command line against that
//! declaration and refuses, by name, a flag the command does not declare,
//! a flag given twice, a flag without its value and a positional argument.
//! The typed readers ([`Args::value`], [`Args::parsed`],
//! [`Args::campaign_config`]) refuse a value that does not parse. A stale or
//! misspelt flag is therefore an error, never a silently ignored one.
//!
//! `--quiet` is the one switch; every other flag takes a value. The model,
//! width and algorithm spellings live here and nowhere else.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use wgft_fixedpoint::BitWidth;
use wgft_nn::models::ModelKind;
use wgft_winograd::ConvAlgorithm;

use crate::CampaignConfig;

/// The one flag that takes no value.
pub const QUIET: &str = "--quiet";

/// The flags [`Args::campaign_config`] reads (`--cifar` too, for the
/// commands that declare it).
pub const CAMPAIGN_FLAGS: &[&str] = &[
    "--model",
    "--width",
    "--scale",
    "--images",
    "--seed",
    "--cache-dir",
];

/// A command-line error, naming the flag or argument at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The binary has no such command.
    UnknownCommand(String),
    /// The command does not declare this flag.
    UnknownFlag(String),
    /// The flag was given more than once.
    RepeatedFlag(String),
    /// The flag takes a value, and none follows it.
    MissingValue(String),
    /// An argument that is not a flag.
    UnexpectedArgument(String),
    /// The command needs this flag, and it was not given.
    MissingFlag(String),
    /// The flag's value does not parse.
    BadValue {
        /// The flag.
        flag: String,
        /// What is wrong with the value.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(command) => write!(f, "unknown command `{command}`"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::RepeatedFlag(flag) => write!(f, "flag `{flag}` is given more than once"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::UnexpectedArgument(arg) => {
                write!(f, "unexpected argument `{arg}` (flags start with --)")
            }
            CliError::MissingFlag(flag) => write!(f, "flag `{flag}` is required"),
            CliError::BadValue { flag, reason } => write!(f, "flag `{flag}`: {reason}"),
        }
    }
}

impl Error for CliError {}

impl From<CliError> for String {
    fn from(e: CliError) -> Self {
        e.to_string()
    }
}

/// One command of a binary: its name, the flags it reads and its body.
pub struct Command {
    /// The command word (`run`, `plan`, `daemon`, ...).
    pub name: &'static str,
    /// Every flag the command reads, in groups; any other flag is refused.
    pub flags: &'static [&'static [&'static str]],
    /// The command body.
    pub run: fn(&Args) -> Result<(), String>,
}

/// A command's flags, parsed against its declaration.
#[derive(Debug)]
pub struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `raw` (the arguments after the command word) against the
    /// `declared` flag groups.
    ///
    /// # Errors
    ///
    /// The first undeclared, repeated or valueless flag, or the first
    /// positional argument. A value flag followed by another `--flag` is
    /// valueless: no value starts with `--`.
    pub fn parse(raw: &[String], declared: &[&[&str]]) -> Result<Self, CliError> {
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut rest = raw.iter();
        while let Some(flag) = rest.next() {
            if !flag.starts_with("--") {
                return Err(CliError::UnexpectedArgument(flag.clone()));
            }
            if !declared.iter().any(|group| group.contains(&flag.as_str())) {
                return Err(CliError::UnknownFlag(flag.clone()));
            }
            if flags.iter().any(|(seen, _)| seen == flag) {
                return Err(CliError::RepeatedFlag(flag.clone()));
            }
            let value = if flag == QUIET {
                String::new()
            } else {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return Err(CliError::MissingValue(flag.clone())),
                }
            };
            flags.push((flag.clone(), value));
        }
        Ok(Self { flags })
    }

    /// The value of `name`, if given.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// Whether `name` was given (the way to read `--quiet`).
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a flag the command cannot run without, read through
    /// [`FromStr`].
    ///
    /// # Errors
    ///
    /// [`CliError::MissingFlag`] if `name` was not given,
    /// [`CliError::BadValue`] if its value does not parse as a `T`.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.value(name)?
            .ok_or_else(|| CliError::MissingFlag(name.to_string()))
    }

    /// The value of `name` read through `parse`, if given.
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] carrying `parse`'s message.
    pub fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|value| {
                parse(value).map_err(|reason| CliError::BadValue {
                    flag: name.to_string(),
                    reason,
                })
            })
            .transpose()
    }

    /// The value of `name` read through [`FromStr`], if given.
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] if the value does not parse as a `T`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.parsed(name, |value| {
            value.parse().map_err(|_| format!("cannot parse `{value}`"))
        })
    }

    /// The campaign the [`CAMPAIGN_FLAGS`] describe: `--model` (default
    /// `vgg_small`), `--width` (default 8), `--scale test|full` (default
    /// `test`), `--images`, `--seed` and `--cache-dir`. `--cifar DIR`
    /// replaces the scale with real CIFAR-10 batches from `DIR`.
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] naming the first flag whose value does not
    /// parse.
    pub fn campaign_config(&self) -> Result<CampaignConfig, CliError> {
        let model = self
            .parsed("--model", parse_model)?
            .unwrap_or(ModelKind::VggSmall);
        let width = self.parsed("--width", parse_width)?.unwrap_or(BitWidth::W8);
        let full = self.parsed("--scale", |scale| match scale {
            "test" => Ok(false),
            "full" => Ok(true),
            other => Err(format!("unknown scale `{other}` (expected test or full)")),
        })?;
        let mut config = match self.get("--cifar") {
            Some(dir) => CampaignConfig::cifar10(model, width, PathBuf::from(dir)),
            None if full == Some(true) => CampaignConfig::new(model, width),
            None => CampaignConfig::test_scale(model, width),
        };
        if let Some(images) = self.value("--images")? {
            config = config.with_images(images);
        }
        if let Some(seed) = self.value("--seed")? {
            config = config.with_seed(seed);
        }
        if let Some(dir) = self.get("--cache-dir") {
            config = config.with_cache_dir(PathBuf::from(dir));
        }
        Ok(config)
    }

    /// `--algo standard|winograd`, if given.
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] for any other spelling.
    pub fn algo(&self) -> Result<Option<ConvAlgorithm>, CliError> {
        self.parsed("--algo", parse_algo)
    }
}

/// A model's command-line spelling is its [`ModelKind::label`].
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
    [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()]
        .into_iter()
        .find(|algo| algo_label(*algo) == value)
        .ok_or_else(|| format!("unknown algorithm `{value}` (expected standard or winograd)"))
}

/// The spelling of `algo` on the command line and in served reports.
#[must_use]
pub fn algo_label(algo: ConvAlgorithm) -> &'static str {
    match algo {
        ConvAlgorithm::Standard => "standard",
        ConvAlgorithm::Winograd(_) => "winograd",
    }
}

/// The whole front end of a binary: dispatch the command word of the
/// process's arguments to one of `commands`, print `usage` for `help` and
/// for a command line that does not parse, and report a failed command on
/// stderr with a nonzero exit code.
#[must_use]
pub fn run(usage: &str, commands: &[Command]) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(word) = raw.first() else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    if matches!(word.as_str(), "--help" | "-h" | "help") {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    let parsed = commands
        .iter()
        .find(|command| command.name == word)
        .ok_or_else(|| CliError::UnknownCommand(word.clone()))
        .and_then(|command| Ok((command, Args::parse(&raw[1..], command.flags)?)));
    let (command, args) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            return ExitCode::FAILURE;
        }
    };
    match (command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&[&str]] = &[CAMPAIGN_FLAGS, &["--dir", QUIET]];

    fn parse(raw: &[&str]) -> Result<Args, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| (*s).to_string()).collect();
        Args::parse(&raw, FLAGS)
    }

    #[test]
    fn declared_flags_parse_and_quiet_takes_no_value() {
        let args = parse(&["--quiet", "--dir", "d", "--images", "4"]).unwrap();
        assert!(args.has("--quiet"));
        assert_eq!(args.get("--dir"), Some("d"));
        assert_eq!(args.value::<usize>("--images").unwrap(), Some(4));
        assert_eq!(args.get("--seed"), None);
        assert_eq!(
            args.required::<u64>("--seed").unwrap_err().to_string(),
            "flag `--seed` is required"
        );
    }

    #[test]
    fn each_malformed_command_line_is_refused_by_name() {
        for (raw, expected) in [
            (
                &["--dir", "a", "--bogus", "1"][..],
                CliError::UnknownFlag("--bogus".into()),
            ),
            (
                &["--seed", "1", "--dir", "a", "--seed", "2"][..],
                CliError::RepeatedFlag("--seed".into()),
            ),
            (
                &["--quiet", "--quiet"][..],
                CliError::RepeatedFlag("--quiet".into()),
            ),
            (&["--dir"][..], CliError::MissingValue("--dir".into())),
            (
                &["--dir", "--quiet"][..],
                CliError::MissingValue("--dir".into()),
            ),
            (
                &["--quiet", "yes"][..],
                CliError::UnexpectedArgument("yes".into()),
            ),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err, expected, "{raw:?}");
        }
    }

    #[test]
    fn an_unparseable_value_names_its_flag() {
        let args = parse(&["--images", "many", "--model", "vgg", "--width", "12"]).unwrap();
        let err = args.value::<usize>("--images").unwrap_err();
        assert_eq!(err.to_string(), "flag `--images`: cannot parse `many`");
        let err = args.campaign_config().unwrap_err();
        assert!(
            matches!(&err, CliError::BadValue { flag, .. } if flag == "--model"),
            "{err}"
        );
        let args = parse(&["--scale", "huge"]).unwrap();
        assert!(args
            .campaign_config()
            .unwrap_err()
            .to_string()
            .contains("--scale"));
    }

    #[test]
    fn campaign_flags_build_the_configured_campaign() {
        let args = parse(&[
            "--model",
            "resnet_small",
            "--width",
            "16",
            "--images",
            "5",
            "--seed",
            "9",
            "--cache-dir",
            "c",
        ])
        .unwrap();
        let expected = CampaignConfig::test_scale(ModelKind::ResNetSmall, BitWidth::W16)
            .with_images(5)
            .with_seed(9)
            .with_cache_dir("c");
        assert_eq!(args.campaign_config().unwrap(), expected);
        let defaults = parse(&[]).unwrap().campaign_config().unwrap();
        assert_eq!(
            defaults,
            CampaignConfig::test_scale(ModelKind::VggSmall, BitWidth::W8)
        );
        let full = parse(&["--scale", "full"]).unwrap().campaign_config();
        assert_eq!(
            full.unwrap(),
            CampaignConfig::new(ModelKind::VggSmall, BitWidth::W8)
        );
    }

    #[test]
    fn algorithm_spellings_round_trip() {
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            assert_eq!(parse_algo(algo_label(algo)), Ok(algo));
        }
        assert!(parse_algo("wino").is_err());
    }
}
