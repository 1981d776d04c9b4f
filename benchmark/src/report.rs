//! `bench run` (every workload, untraced then traced, in child
//! processes; prints every metric, writes `results.json` and
//! `trace.json`), `bench compare` (two result files against the bounds)
//! and `bench manifest` (the text of `BENCHMARK.json`).

use crate::estimator::median;
use crate::json::Value;
use crate::metrics::{per_layer, workload_layer_metrics, Better, END_TO_END};
use crate::workloads;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// How long one measured run lasts unless `--seconds` says otherwise;
/// also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 24;

/// Set-up times closer than this are the same, whatever their ratio:
/// a simulator set-up is ~5 ms.
const SETUP_FLOOR_S: f64 = 0.010;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
}

/// Runs one workload in a fresh child process — so peak memory and
/// allocator state belong to that workload alone — and returns its
/// result line and its detail file, parsed.
fn run_child(
    opts: &RunOptions,
    workload: &str,
    trace: bool,
    detail_path: &Path,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail-out")
        .arg(detail_path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and collects its stdout.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let result = Value::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail_text = std::fs::read_to_string(detail_path)
        .map_err(|e| format!("{}: {e}", detail_path.display()))?;
    let detail =
        Value::parse(&detail_text).map_err(|e| format!("{}: {e}", detail_path.display()))?;
    Ok((result, detail))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where the numbers came from.
fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Value::obj()
        .with("nproc", nproc)
        .with("cpu_model", cpu_model())
        .with("rustc", command_line("rustc", &["--version"]))
        .with(
            "features",
            if cfg!(feature = "parallel") {
                "parallel"
            } else {
                "default (serial leg)"
            },
        )
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// One metric as `results.json` records it: the value, its unit and
/// how many samples are behind it.
fn metric_row(result: &Value, detail: &Value, name: &str, unit: &str) -> Value {
    let samples = detail
        .get("samples")
        .and_then(|s| s.get(name))
        .cloned()
        .unwrap_or(Value::Null);
    Value::obj()
        .with("value", metric_value(result, name))
        .with("unit", unit)
        .with("samples", samples)
}

fn text<'a>(detail: &'a Value, key: &str) -> &'a str {
    detail.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn number(detail: &Value, key: &str) -> f64 {
    detail.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// `bench run`: exit status 0 only when every gate of every workload
/// passed.
///
/// # Errors
/// A message when a child could not be run or a file not written.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let wall = Instant::now();
    let detail_dir = opts.out.join("detail");
    std::fs::create_dir_all(&detail_dir).map_err(|e| format!("{}: {e}", detail_dir.display()))?;
    let mut failures: Vec<String> = Vec::new();

    // Untraced runs first, for every workload; then the traced ones.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for trace in [false, true] {
        for w in workloads::ALL {
            eprintln!(
                "[bench] {} ({})",
                w.name,
                if trace { "traced + probes" } else { "untraced" }
            );
            let path = detail_dir.join(format!("{}.trace{}.json", w.name, u8::from(trace)));
            let pair = run_child(opts, w.name, trace, &path)?;
            if trace { &mut traced } else { &mut untraced }.push(pair);
        }
    }

    // --- Gates: each child's own, then the ones across workloads. ---
    for (result, detail) in untraced.iter().chain(&traced) {
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            for msg in detail
                .get("gate_failures")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
            {
                failures.push(format!(
                    "{} (trace {}): {}",
                    text(detail, "workload"),
                    detail
                        .get("trace")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                    msg.as_str().unwrap_or("?")
                ));
            }
        }
    }
    let detail_of = |name: &str| {
        untraced
            .iter()
            .map(|(_, d)| d)
            .find(|d| text(d, "workload") == name)
    };
    if let (Some(sim), Some(tcp)) = (detail_of("sim_paper_gluefl"), detail_of("tcp_paper_gluefl")) {
        for key in ["records_fnv", "params_fnv"] {
            if text(sim, key) != text(tcp, key) {
                failures.push(format!(
                    "tcp_paper_gluefl {key} {} != sim_paper_gluefl {}",
                    text(tcp, key),
                    text(sim, key)
                ));
            }
        }
    }

    // --- Print and collect. ---
    let mut end_to_end = Value::obj();
    let mut layers = Value::obj();
    let mut workload_info = Value::obj();
    let mut spans = Value::obj();
    println!("\n== end-to-end (tracing off) ==");
    for ((result, detail), (traced_result, traced_detail)) in untraced.iter().zip(&traced) {
        let name = text(detail, "workload");
        println!(
            "{name}: {} rounds x {} passes, ops_failed {} / ops_total {}",
            number(detail, "rounds"),
            number(detail, "passes"),
            number(detail, "ops_failed") + number(traced_detail, "ops_failed"),
            number(detail, "ops_total") + number(traced_detail, "ops_total"),
        );
        let mut row = Value::obj();
        for m in END_TO_END {
            println!(
                "  {:<28} {:>16.6} {}",
                m.name,
                metric_value(result, m.name),
                m.unit
            );
            row.set(m.name, metric_row(result, detail, m.name, m.unit));
        }
        end_to_end.set(name, row);
        let overhead = metric_value(traced_result, "telemetry.overhead_pct");
        workload_info.set(
            name,
            Value::obj()
                .with("rounds", number(detail, "rounds"))
                .with("timed_rounds", number(detail, "timed_rounds"))
                .with("passes", number(detail, "passes"))
                .with("setup_samples", number(detail, "setup_samples"))
                .with(
                    "ops_total",
                    number(detail, "ops_total") + number(traced_detail, "ops_total"),
                )
                .with(
                    "ops_failed",
                    number(detail, "ops_failed") + number(traced_detail, "ops_failed"),
                )
                .with("params_fnv", text(detail, "params_fnv"))
                .with("records_fnv", text(detail, "records_fnv"))
                .with("untraced_wall_s", number(detail, "wall_s"))
                .with("traced_wall_s", number(traced_detail, "wall_s"))
                .with("tracing_overhead_pct", overhead)
                .with(
                    "round_ms_by_index",
                    detail
                        .get("round_ms_by_index")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
        );
        spans.set(
            name,
            traced_detail
                .get("spans")
                .cloned()
                .unwrap_or(Value::Arr(Vec::new())),
        );
    }

    println!("\n== per layer (traced pass) ==");
    let workload_metrics = workload_layer_metrics();
    for (result, detail) in &traced {
        let name = text(detail, "workload");
        println!("{name}:");
        let mut row = Value::obj();
        for m in &workload_metrics {
            println!(
                "  {:<44} {:>16.4} {}",
                m.name,
                metric_value(result, &m.name),
                m.unit
            );
            row.set(&m.name, metric_row(result, detail, &m.name, m.unit));
        }
        layers.set(name, row);
    }
    // The probes do not depend on the workload; each traced child ran
    // them once, so the median across children is reported.
    println!("\n== layer probes (median of {} runs) ==", traced.len());
    let mut probes = Value::obj();
    for m in &per_layer()[workload_metrics.len()..] {
        let values: Vec<f64> = traced
            .iter()
            .map(|(r, _)| metric_value(r, &m.name))
            .collect();
        let value = median(&values);
        println!("  {:<44} {:>16.4} {}", m.name, value, m.unit);
        probes.set(
            &m.name,
            Value::obj().with("value", value).with("unit", m.unit).with(
                "runs",
                Value::Arr(values.into_iter().map(Value::Num).collect()),
            ),
        );
    }

    println!();
    for f in &failures {
        println!("GATE FAILED: {f}");
    }
    let total_wall_s = wall.elapsed().as_secs_f64();
    println!(
        "{} — {} gate failure(s), {:.1} s",
        if failures.is_empty() { "ok" } else { "FAILED" },
        failures.len(),
        total_wall_s
    );

    let results = Value::obj()
        .with("benchmark", "gluefl round benchmark")
        .with("environment", environment())
        .with("seed", opts.seed.to_string())
        .with("seconds_per_run", opts.seconds)
        .with("quick", opts.quick)
        .with("total_wall_s", total_wall_s)
        .with("workloads", workload_info)
        .with("end_to_end", end_to_end)
        .with("per_layer", layers)
        .with("probes", probes)
        .with(
            "gate_failures",
            Value::Arr(failures.iter().map(|s| Value::from(s.as_str())).collect()),
        );
    let write = |name: &str, value: &Value| {
        let path = opts.out.join(name);
        std::fs::write(&path, value.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("results.json", &results)?;
    write("trace.json", &spans)?;
    Ok(failures.is_empty())
}

/// `bench compare A.json B.json`: every end-to-end metric of every
/// workload, B against A. Byte counts, failure counts and the record and
/// parameter fingerprints (which cover modeled time and accuracy) are
/// pure functions of the seed and must be identical; measured metrics
/// must differ by no more than the metric's bound — wider is
/// `unresolved` (two single sets of runs cannot tell noise from a
/// regression). Returns whether every row agreed.
///
/// # Errors
/// A message when a file cannot be read or is not a results file.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (file, path) in [(&a, a_path), (&b, b_path)] {
        if file.get("end_to_end").and_then(Value::members).is_none() {
            return Err(format!("{}: no end_to_end table", path.display()));
        }
    }
    if a.get("seed") != b.get("seed") {
        println!(
            "note: seeds differ ({:?} vs {:?}); seed-determined metrics will not match",
            a.get("seed").and_then(Value::as_str),
            b.get("seed").and_then(Value::as_str)
        );
    }
    let mut all_agree = true;
    println!(
        "{:<18} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for w in workloads::ALL {
        let value = |file: &Value, metric: &str| {
            file.get("end_to_end")
                .and_then(|t| t.get(w.name))
                .and_then(|t| t.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (value(&a, m.name), value(&b, m.name)) else {
                println!("{:<18} {:<22} missing in one file", w.name, m.name);
                all_agree = false;
                continue;
            };
            let rel = (vb - va) / va;
            let verdict = if m.deterministic {
                if va == vb {
                    "identical"
                } else {
                    "DIFFERS"
                }
            } else if rel.abs() <= m.bound
                || (m.name == "setup_s" && (vb - va).abs() <= SETUP_FLOOR_S)
            {
                "within bound"
            } else {
                "UNRESOLVED"
            };
            all_agree &= matches!(verdict, "identical" | "within bound");
            println!(
                "{:<18} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%  {verdict}{}",
                w.name,
                m.name,
                va,
                vb,
                rel * 100.0,
                m.bound * 100.0,
                match (m.better, rel > 0.0) {
                    _ if verdict != "UNRESOLVED" => "",
                    (Better::Lower, true) | (Better::Higher, false) => " (B worse)",
                    _ => " (B better)",
                }
            );
        }
        // Counts and fingerprints of what was computed: identical on one
        // seed, or the change altered the program's results.
        let info = |file: &Value, key: &str| -> Option<String> {
            match file.get("workloads")?.get(w.name)?.get(key)? {
                Value::Num(n) => Some(n.to_string()),
                Value::Str(s) => Some(s.clone()),
                _ => None,
            }
        };
        for key in ["ops_total", "ops_failed", "records_fnv", "params_fnv"] {
            let (ia, ib) = (info(&a, key), info(&b, key));
            let same = ia.is_some() && ia == ib;
            // How many passes fit in a run depends on the box's speed, so
            // the slot total may differ; it is shown, not judged.
            let judged = key != "ops_total";
            all_agree &= same || !judged;
            println!(
                "{:<18} {:<22} {:>16} {:>16} {:>9} {:>7}  {}",
                w.name,
                key,
                ia.as_deref().unwrap_or("missing"),
                ib.as_deref().unwrap_or("missing"),
                "",
                "",
                match (same, judged) {
                    (true, _) => "identical",
                    (false, true) => "DIFFERS",
                    (false, false) => "pass counts differ",
                }
            );
        }
    }
    println!(
        "{}",
        if all_agree {
            "the two sets of runs agree"
        } else {
            "the two sets of runs do NOT agree (see UNRESOLVED / DIFFERS rows)"
        }
    );
    Ok(all_agree)
}

/// The text of `BENCHMARK.json`, from the tables.
pub fn manifest() -> String {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    Value::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        )
        .with("paths", strings(&["benchmark"]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Value::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Value::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.name())
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::obj()
                            .with("name", m.name.as_str())
                            .with("unit", m.unit)
                            .with("better", m.better.name())
                    })
                    .collect(),
            ),
        )
        .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(round_ms: f64, down_bytes: f64, failed: f64) -> Value {
        results_with(round_ms, down_bytes, failed, "00000000deadbeef")
    }

    fn results_with(round_ms: f64, down_bytes: f64, failed: f64, records_fnv: &str) -> Value {
        let mut end_to_end = Value::obj();
        let mut info = Value::obj();
        for w in workloads::ALL {
            let mut row = Value::obj();
            for m in END_TO_END {
                let value = match m.name {
                    "round_ms_p50" => round_ms,
                    "down_bytes_per_round" => down_bytes,
                    "setup_s" => 0.004,
                    _ => 1.5,
                };
                row.set(
                    m.name,
                    Value::obj().with("value", value).with("unit", m.unit),
                );
            }
            end_to_end.set(w.name, row);
            info.set(
                w.name,
                Value::obj()
                    .with("ops_total", 1800.0)
                    .with("ops_failed", failed)
                    .with("records_fnv", records_fnv)
                    .with("params_fnv", "0123456789abcdef"),
            );
        }
        Value::obj()
            .with("seed", "42")
            .with("workloads", info)
            .with("end_to_end", end_to_end)
    }

    fn compare_values(tag: &str, a: &Value, b: &Value) -> Result<bool, String> {
        let dir =
            std::env::temp_dir().join(format!("roundbench-compare-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a.to_pretty()).unwrap();
        std::fs::write(&pb, b.to_pretty()).unwrap();
        let verdict = compare(&pa, &pb);
        std::fs::remove_dir_all(&dir).unwrap();
        verdict
    }

    #[test]
    fn compare_accepts_noise_and_flags_the_rest() {
        let base = results(90.0, 2_411_939.0, 0.0);
        // Inside the timing bound, identical bytes: agree.
        assert_eq!(
            compare_values("ok", &base, &results(99.0, 2_411_939.0, 0.0)),
            Ok(true)
        );
        // Wider than the bound: unresolved.
        assert_eq!(
            compare_values("slow", &base, &results(120.0, 2_411_939.0, 0.0)),
            Ok(false)
        );
        // Different round records (modeled time, accuracy, …): differs.
        let other = results_with(90.0, 2_411_939.0, 0.0, "00000000deadbeee");
        assert_eq!(compare_values("records", &base, &other), Ok(false));
        // A seed-determined metric may not move at all.
        assert_eq!(
            compare_values("bytes", &base, &results(90.0, 2_411_940.0, 0.0)),
            Ok(false)
        );
        // Nor may the failure count.
        assert_eq!(
            compare_values("ops", &base, &results(90.0, 2_411_939.0, 3.0)),
            Ok(false)
        );
        // A file that is not a results file is an error, not a verdict.
        assert!(compare_values("bad", &base, &Value::obj()).is_err());
    }

    #[test]
    fn setup_difference_under_the_floor_agrees() {
        let a = results(90.0, 1.0, 0.0);
        let mut b = results(90.0, 1.0, 0.0);
        // 4 ms → 8 ms doubles the ratio but is far under 10 ms.
        let Value::Obj(tables) = &mut b else {
            unreachable!()
        };
        let e2e = &mut tables
            .iter_mut()
            .find(|(k, _)| k == "end_to_end")
            .unwrap()
            .1;
        let Value::Obj(rows) = e2e else {
            unreachable!()
        };
        for (_, row) in rows {
            row.set(
                "setup_s",
                Value::obj().with("value", 0.008).with("unit", "s"),
            );
        }
        assert_eq!(compare_values("setup", &a, &b), Ok(true));
    }

    #[test]
    fn manifest_is_the_contract_shape() {
        let m = Value::parse(&manifest()).unwrap();
        let keys: Vec<&str> = m
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(m.get("workloads").and_then(Value::as_arr).unwrap().len(), 4);
        assert!(manifest().len() < 64 * 1024);
        let runs = 4 + 22 * workloads::ALL.len();
        // The driver's time cap with ~6 s of set-up, checks and probes
        // slack per run and two ~2 min builds.
        assert!(runs as f64 * (f64::from(RUN_SECONDS) + 6.0) + 240.0 < 3420.0);
    }

    /// The committed manifest is the printed one (skipped where the
    /// benchmark directory is checked out alone).
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            assert_eq!(
                Value::parse(&text).unwrap(),
                Value::parse(&manifest()).unwrap()
            );
        }
    }
}
