//! The options every experiment reads; `expt` fills them from its
//! command line.

use std::path::PathBuf;

/// What an experiment reads besides its id. There is no population
/// knob: [`setup`](crate::experiments::common::setup) builds every
/// simulation at the paper's client count.
#[derive(Debug, Clone, PartialEq)]
pub struct ExptOpts {
    /// Communication rounds per run (`expt --quick` caps them at 20).
    pub rounds: u32,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Report bandwidth at paper-scale model sizes (multiply by
    /// `reference_params / simulated_params`).
    pub paper_scale: bool,
    /// Quick mode, for smoke testing: the experiment's smaller sweep
    /// (fewer task pairs, arms, sampled links or Monte Carlo rounds).
    pub quick: bool,
    /// The wire policy of every configuration built through
    /// [`setup`](crate::experiments::common::setup) (`--wire SPEC`, see
    /// [`parse_wire_policy`]); `expt wire` sweeps its own arms instead.
    pub wire: gluefl_core::WirePolicy,
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
            seed: 42,
            out_dir: PathBuf::from("results"),
            paper_scale: false,
            quick: false,
            wire: gluefl_core::WirePolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_wire_policy_specs() {
        use gluefl_core::{LayoutMenu, WireCodec};
        let w = parse_wire_policy("entropy-quant-u8").unwrap();
        assert_eq!(w.codec, WireCodec::QuantU8);
        assert_eq!(w.menu, LayoutMenu::Entropy);
        assert!(w.quant_ec);

        // `expt`'s default spec is the default policy.
        let w = parse_wire_policy("legacy-f32").unwrap();
        assert_eq!(w, ExptOpts::default().wire);
        assert_eq!(w, gluefl_core::WirePolicy::default());

        let w = parse_wire_policy("legacy-quant-u8-no-ec").unwrap();
        assert_eq!(w.codec, WireCodec::QuantU8);
        assert!(!w.quant_ec);

        assert!(parse_wire_policy("f32").is_err());
        assert!(parse_wire_policy("entropy-f64").is_err());
        assert!(parse_wire_policy("modern-f32").is_err());
    }
}
