//! Command-line options shared by all experiments.

use std::path::PathBuf;

/// Options accepted by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExptOpts {
    /// Communication rounds per run.
    pub rounds: u32,
    /// Fraction of the paper's client population to simulate.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Report bandwidth at paper-scale model sizes (multiply by
    /// `reference_params / simulated_params`).
    pub paper_scale: bool,
    /// Quick mode: fewer rounds / smaller sweeps for smoke testing.
    pub quick: bool,
    /// Wire policy override (`--wire SPEC`): applied to every experiment
    /// configuration built through `setup`. `SPEC` is
    /// `{legacy|entropy}-{f32|f16|quant-u8}[-no-ec]`, e.g.
    /// `entropy-quant-u8` or `legacy-quant-u8-no-ec`. `None` keeps each
    /// experiment's own default (the byte-identical legacy F32 policy, or
    /// the sweep arms of `expt wire`).
    pub wire: Option<gluefl_core::WirePolicy>,
}

/// Parses a `--wire` policy spec:
/// `{legacy|entropy}-{f32|f16|quant-u8}[-no-ec]`.
///
/// # Errors
/// Returns a message naming the malformed spec.
pub fn parse_wire_policy(spec: &str) -> Result<gluefl_core::WirePolicy, String> {
    use gluefl_core::{WireCodec, WirePolicy};
    let (body, quant_ec) = match spec.strip_suffix("-no-ec") {
        Some(body) => (body, false),
        None => (spec, true),
    };
    let (layout, codec_name) = body
        .split_once('-')
        .ok_or_else(|| format!("--wire '{spec}': expected LAYOUT-CODEC[-no-ec]"))?;
    let codec = match codec_name {
        "f32" => WireCodec::F32,
        "f16" => WireCodec::F16,
        "quant-u8" => WireCodec::QuantU8,
        other => return Err(format!("--wire '{spec}': unknown codec '{other}'")),
    };
    let mut policy = match layout {
        "legacy" => WirePolicy::legacy(codec),
        "entropy" => WirePolicy::entropy(codec),
        other => return Err(format!("--wire '{spec}': unknown layout '{other}'")),
    };
    policy.quant_ec = quant_ec;
    Ok(policy)
}

impl Default for ExptOpts {
    fn default() -> Self {
        Self {
            rounds: 150,
            scale: 0.1,
            seed: 42,
            out_dir: PathBuf::from("results"),
            paper_scale: false,
            quick: false,
            wire: None,
        }
    }
}

impl ExptOpts {
    /// Parses `--rounds N --scale F --seed N --out DIR --paper-scale
    /// --quick --wire SPEC` from raw arguments.
    ///
    /// # Errors
    /// Returns a message naming the offending flag or value: an unknown
    /// flag, a flag given twice, or a missing value — a value never starts
    /// with `--`, so `--out --quick` is `--out` without one.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if seen.contains(&arg.as_str()) {
                return Err(format!("{arg} given more than once"));
            }
            seen.push(arg);
            match arg.as_str() {
                "--rounds" => {
                    opts.rounds = next_value(&mut it, "--rounds")?;
                    if opts.rounds == 0 {
                        return Err("--rounds must be positive".into());
                    }
                }
                "--scale" => {
                    opts.scale = next_value(&mut it, "--scale")?;
                    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                        return Err("--scale must be in (0,1]".into());
                    }
                }
                "--seed" => opts.seed = next_value(&mut it, "--seed")?,
                "--out" => opts.out_dir = PathBuf::from(next_str(&mut it, "--out")?),
                "--paper-scale" => opts.paper_scale = true,
                "--wire" => opts.wire = Some(parse_wire_policy(next_str(&mut it, "--wire")?)?),
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        // After the loop, so the caps hold wherever `--quick` stands.
        if opts.quick {
            opts.rounds = opts.rounds.min(20);
            opts.scale = opts.scale.min(0.02);
        }
        Ok(opts)
    }
}

fn next_str<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn next_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    next_str(it, flag)?
        .parse()
        .map_err(|_| format!("invalid value for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExptOpts, String> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        ExptOpts::parse(&v)
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, ExptOpts::default());
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--rounds",
            "99",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--out",
            "/tmp/x",
            "--paper-scale",
        ])
        .unwrap();
        assert_eq!(o.rounds, 99);
        assert!((o.scale - 0.5).abs() < 1e-12);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert!(o.paper_scale);
    }

    #[test]
    fn parses_wire_policy_specs() {
        use gluefl_core::{LayoutMenu, WireCodec};
        let o = parse(&["--wire", "entropy-quant-u8"]).unwrap();
        let w = o.wire.unwrap();
        assert_eq!(w.codec, WireCodec::QuantU8);
        assert_eq!(w.menu, LayoutMenu::Entropy);
        assert!(w.quant_ec);

        let w = parse(&["--wire", "legacy-f32"]).unwrap().wire.unwrap();
        assert_eq!(w, gluefl_core::WirePolicy::default());

        let w = parse(&["--wire", "legacy-quant-u8-no-ec"])
            .unwrap()
            .wire
            .unwrap();
        assert_eq!(w.codec, WireCodec::QuantU8);
        assert!(!w.quant_ec);

        assert!(parse(&["--wire", "f32"]).is_err());
        assert!(parse(&["--wire", "entropy-f64"]).is_err());
        assert!(parse(&["--wire", "modern-f32"]).is_err());
        assert!(parse(&["--wire"]).is_err());
    }

    #[test]
    fn quick_caps_rounds_and_scale() {
        let o = parse(&["--quick"]).unwrap();
        assert!(o.rounds <= 20);
        assert!(o.scale <= 0.02);
        let flags = ["--rounds", "99", "--scale", "0.5"];
        let before = parse(&[&["--quick"][..], &flags[..]].concat()).unwrap();
        let after = parse(&[&flags[..], &["--quick"][..]].concat()).unwrap();
        assert_eq!(before, after);
        assert_eq!((before.rounds, before.scale), (20, 0.02));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--rounds", "zero"]).is_err());
        assert!(parse(&["--rounds", "0"]).is_err());
        assert!(parse(&["--scale", "2.0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--rounds"]).is_err());
        assert_eq!(
            parse(&["--seed", "1", "--seed", "2"]),
            Err("--seed given more than once".into())
        );
        assert_eq!(
            parse(&["--quick", "--quick"]),
            Err("--quick given more than once".into())
        );
        assert_eq!(
            parse(&["--out", "--quick"]),
            Err("--out needs a value".into())
        );
        assert_eq!(
            parse(&["--wire", "--quick"]),
            Err("--wire needs a value".into())
        );
        assert_eq!(
            parse(&["--seed", "--quick"]),
            Err("--seed needs a value".into())
        );
    }
}
