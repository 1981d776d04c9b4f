//! `bench` — the round benchmark of the GlueFL reproduction.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measured run; last stdout line is the result
//! bench run [--seed n] [--seconds s] [--quick] [--out dir]         every workload, every metric, results.json + trace.json
//! bench compare <A.json> <B.json>                                  two result files against the bounds
//! bench manifest                                                   the text of BENCHMARK.json
//! ```
//!
//! The benchmark is the yardstick for later changes to the program, so
//! it calls only the program's stable public surface (see README.md).

mod estimator;
mod json;
mod measure;
mod metrics;
mod pass;
mod probes;
mod procfs;
mod report;
mod tcp;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail-out <file>]
  bench run [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
  bench compare <A.json> <B.json>
  bench manifest
workloads: sim_paper_gluefl sim_wide_gluefl sim_wide_fedavg tcp_paper_gluefl";

/// `--flag value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                flag if flag.starts_with("--") => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    out.pairs.push((flag.to_owned(), value.clone()));
                }
                other => out.positional.push(other.to_owned()),
            }
        }
        Ok(out)
    }

    fn take(&mut self, flag: &str) -> Option<String> {
        let at = self.pairs.iter().position(|(f, _)| f == flag)?;
        Some(self.pairs.remove(at).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn finish(self, positional: usize) -> Result<Vec<String>, String> {
        if let Some((flag, _)) = self.pairs.first() {
            return Err(format!("unknown option {flag}"));
        }
        if self.positional.len() != positional {
            return Err(format!(
                "expected {positional} file argument(s), got {}",
                self.positional.len()
            ));
        }
        Ok(self.positional)
    }
}

fn seconds_arg(args: &mut Args) -> Result<Option<f64>, String> {
    match args.take_parsed::<f64>("--seconds")? {
        Some(s) if !(s.is_finite() && s > 0.0) => Err("--seconds must be positive".into()),
        other => Ok(other),
    }
}

/// One measured run of one workload (the form the driver calls).
fn measure_one(mut args: Args) -> Result<ExitCode, String> {
    let name = args.take("--workload").ok_or("missing --workload")?;
    let workload = workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.take_parsed("--seed")?.ok_or("missing --seed")?;
    let seconds = seconds_arg(&mut args)?.ok_or("missing --seconds")?;
    let trace = match args.take("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let detail_out = args.take("--detail-out").map(PathBuf::from);
    let quick = args.quick;
    args.finish(0)?;

    let outcome = measure::measure(&measure::Options {
        workload,
        seed,
        seconds,
        trace,
        quick,
    })?;
    if let Some(path) = detail_out {
        std::fs::write(&path, outcome.detail.to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if !outcome.correct {
        for failure in outcome
            .detail
            .get("gate_failures")
            .and_then(json::Value::as_arr)
            .unwrap_or(&[])
        {
            eprintln!("gate failed: {}", failure.as_str().unwrap_or("?"));
        }
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run_all(mut args: Args) -> Result<ExitCode, String> {
    let opts = report::RunOptions {
        seed: args.take_parsed("--seed")?.unwrap_or(42),
        seconds: seconds_arg(&mut args)?.unwrap_or(f64::from(report::RUN_SECONDS)),
        quick: args.quick,
        out: args
            .take("--out")
            .map_or_else(|| PathBuf::from("bench-out"), PathBuf::from),
    };
    args.finish(0)?;
    Ok(if report::run(&opts)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => run_all(Args::parse(&argv[1..])?),
        Some("compare") => {
            let files = Args::parse(&argv[1..])?.finish(2)?;
            let agree = report::compare(Path::new(&files[0]), Path::new(&files[1]))?;
            Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("manifest") => {
            Args::parse(&argv[1..])?.finish(0)?;
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") && flag != "--help" => measure_one(Args::parse(argv)?),
        _ => {
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
