//! Umbrella crate for the GlueFL reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so examples and integration
//! tests can `use gluefl_suite::...`. See the individual crates for the
//! substance:
//!
//! * [`gluefl_core`] — strategies, simulator, metrics, theory.
//! * [`gluefl_ml`] — flat-parameter MLP + BatchNorm substrate.
//! * [`gluefl_data`] — synthetic non-IID federated datasets.
//! * [`gluefl_compress`] — STC, mask shifting, APF, error comp.
//! * [`gluefl_sampling`] — uniform/MD/sticky samplers.
//! * [`gluefl_net`] — bandwidth, device, availability simulation.
//! * [`gluefl_tensor`] — bitmasks, top-k, sparse updates.
//! * [`gluefl_telemetry`] — counters, histograms, phase spans, text
//!   exposition, structured logging.
//! * [`gluefl_wire`] — framed binary wire codec for round messages.
//! * [`gluefl_transport`] — real-socket client/server round loop with
//!   streaming aggregation.

#![forbid(unsafe_code)]

pub use gluefl_compress as compress;
pub use gluefl_core as core;
pub use gluefl_data as data;
pub use gluefl_ml as ml;
pub use gluefl_net as net;
pub use gluefl_sampling as sampling;
pub use gluefl_telemetry as telemetry;
pub use gluefl_tensor as tensor;
pub use gluefl_transport as transport;
pub use gluefl_wire as wire;

/// Looks up `flag`'s value in `args` for the `gluefl-server`,
/// `gluefl-client` and `expt` command lines: `default` when the flag is
/// absent.
///
/// # Errors
/// Returns a message naming the flag when it is present but its value is
/// missing (end of arguments, or another `--flag` follows) or does not
/// parse as `T` — a mistyped `--seed` must not silently train a
/// different model.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {flag}"))
}

/// Why [`check_args`] refused a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `-h` or `--help`: the caller prints its usage and succeeds.
    Help,
    /// An argument that is neither one of the known flags nor the value
    /// right after one — a typo such as `--round 5` must not start a run
    /// with defaults.
    Unknown(String),
    /// A known flag given a second time: [`parse_flag`] reads only the
    /// first, so `--rounds 3 --rounds 5` would silently run 3 rounds.
    Repeated(String),
}

/// Checks that every argument in `args` is one of `flags`, at most once,
/// or the value right after one, under [`parse_flag`]'s rule that a value
/// never starts with `--`. The flags also named in `switches` never take
/// a value: what follows one is checked as an argument of its own.
///
/// # Errors
/// [`ArgsError::Help`] at the first `-h` / `--help` in flag position,
/// [`ArgsError::Repeated`] at the second occurrence of a flag,
/// [`ArgsError::Unknown`] at the first argument that is anything else.
pub fn check_args(args: &[String], flags: &[&str], switches: &[&str]) -> Result<(), ArgsError> {
    let mut seen = Vec::new();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(ArgsError::Help),
            flag if seen.contains(&flag) => return Err(ArgsError::Repeated(flag.to_owned())),
            flag if flags.contains(&flag) => {
                seen.push(flag);
                if !switches.contains(&flag) {
                    let _ = rest.next_if(|v| !v.starts_with("--"));
                }
            }
            other => return Err(ArgsError::Unknown(other.to_owned())),
        }
    }
    Ok(())
}

/// The `gluefl-server` / `gluefl-client` / `expt` command line: the
/// process's arguments after the program name (and after `expt`'s
/// experiment id), checked against the binary's flags ([`check_args`])
/// before anything reads them. Every refusal ends the process: `--help`
/// prints the usage and exits 0; an unknown or repeated argument, a
/// malformed or missing value ([`parse_flag`]), or whatever the binary
/// [`refuse`](Self::refuse)s, prints `error: …` and the usage and exits 2.
#[derive(Debug)]
pub struct CommandLine {
    args: Vec<String>,
    usage: String,
}

impl CommandLine {
    /// `args`, checked against `flags`, of which `switches` take no value.
    #[must_use]
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
        switches: &[&str],
        usage: &str,
    ) -> Self {
        let cli = Self {
            args: args.into_iter().collect(),
            usage: usage.to_owned(),
        };
        match check_args(&cli.args, flags, switches) {
            Ok(()) => cli,
            Err(ArgsError::Help) => {
                println!("{usage}");
                std::process::exit(0)
            }
            Err(ArgsError::Unknown(arg)) => cli.refuse(&format!("unknown argument '{arg}'")),
            Err(ArgsError::Repeated(flag)) => cli.refuse(&format!("{flag} given more than once")),
        }
    }

    /// `flag`'s value, or `default` when it is absent.
    pub fn flag<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        parse_flag(&self.args, flag, default).unwrap_or_else(|e| self.refuse(&e))
    }

    /// Whether `switch` is given.
    #[must_use]
    pub fn switch(&self, switch: &str) -> bool {
        self.args.iter().any(|a| a == switch)
    }

    /// Prints `error: {message}` and the usage line, and exits 2.
    pub fn refuse(&self, message: &str) -> ! {
        eprintln!("error: {message}\n{}", self.usage);
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::{check_args, parse_flag, ArgsError};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn absent_flag_yields_the_default() {
        assert_eq!(
            parse_flag(&args(&["--rounds", "5"]), "--seed", 42u64),
            Ok(42)
        );
        assert_eq!(
            parse_flag(&args(&["--rounds", "5"]), "--rounds", 3u32),
            Ok(5)
        );
    }

    #[test]
    fn unparsable_value_is_an_error_naming_the_flag() {
        let e = parse_flag(&args(&["--seed", "4x2"]), "--seed", 42u64).unwrap_err();
        assert!(e.contains("--seed") && e.contains("4x2"), "{e}");
        assert!(parse_flag(&args(&["--rounds", "1e2"]), "--rounds", 3u32).is_err());
    }

    #[test]
    fn missing_value_is_an_error_naming_the_flag() {
        let e = parse_flag(&args(&["--id", "0", "--seed"]), "--seed", 42u64).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        let swallowed = args(&["--metrics-out", "--rounds", "3"]);
        assert!(parse_flag(&swallowed, "--metrics-out", String::new()).is_err());
    }

    const FLAGS: &[&str] = &["--rounds", "--seed", "--metrics-out", "--quick"];

    /// [`check_args`] over `FLAGS`, of which `--quick` is a switch.
    fn check(list: &[&str]) -> Result<(), ArgsError> {
        check_args(&args(list), FLAGS, &["--quick"])
    }

    fn unknown(arg: &str) -> Result<(), ArgsError> {
        Err(ArgsError::Unknown(arg.to_owned()))
    }

    #[test]
    fn known_flags_with_their_values_pass() {
        assert_eq!(check(&[]), Ok(()));
        let line = ["--rounds", "5", "--seed", "-h", "--metrics-out", "x.prom"];
        assert_eq!(check(&line), Ok(()), "`-h` is --seed's value");
        // A missing value is parse_flag's error to report, not an
        // unknown argument.
        assert_eq!(check(&["--metrics-out", "--rounds", "3"]), Ok(()));
    }

    #[test]
    fn an_unknown_flag_is_named() {
        assert_eq!(check(&["--round", "5"]), unknown("--round"));
        assert_eq!(check(&["--seed", "1", "--rounds=5"]), unknown("--rounds=5"));
    }

    #[test]
    fn a_repeated_flag_is_named() {
        let twice = ["--rounds", "3", "--seed", "1", "--rounds", "5"];
        assert_eq!(check(&twice), Err(ArgsError::Repeated("--rounds".into())));
        let valueless = ["--metrics-out", "--metrics-out", "x.prom"];
        let repeated = Err(ArgsError::Repeated("--metrics-out".into()));
        assert_eq!(check(&valueless), repeated);
    }

    #[test]
    fn a_stray_positional_is_named() {
        assert_eq!(check(&["--rounds", "3", "5"]), unknown("5"));
    }

    #[test]
    fn a_switch_never_takes_a_value() {
        assert_eq!(check(&["--quick", "--rounds", "3"]), Ok(()));
        assert_eq!(check(&["--quick", "5"]), unknown("5"));
    }

    #[test]
    fn help_wins_in_flag_position() {
        for help in ["-h", "--help"] {
            let line = ["--rounds", "3", help, "--bogus"];
            assert_eq!(check(&line), Err(ArgsError::Help), "{help}");
        }
    }
}
