//! `tawa-bench suite`: every workload, end-to-end run and traced run,
//! each in a fresh child process, gathered into one results file.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::manifest::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use crate::run::out_dir;

/// Prefix of the detail line a run prints before its result line.
pub const DETAIL_PREFIX: &str = "#detail ";

/// Schema tag of a results file.
pub const RESULTS_SCHEMA: &str = "tawa-bench-results 1";

struct SuiteArgs {
    seed: u64,
    seconds: u64,
    runs: usize,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<SuiteArgs, String> {
    let mut out = SuiteArgs {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        runs: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--runs" => out.runs = value()?.parse().map_err(|_| "--runs: not a number")?,
            "--out" => out.out = Some(value()?.clone()),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.runs == 0 || out.seconds == 0 {
        return Err("--runs and --seconds must be at least 1".to_string());
    }
    Ok(out)
}

/// Output of `cmd args…`, trimmed; `unknown` when it cannot run.
fn tool_version(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One child run: echoes its report and returns (result, detail).
fn child(workload: &str, args: &SuiteArgs, seed: u64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .unwrap_or("{}");
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    Ok((Json::parse(result)?, Json::parse(detail)?))
}

/// Folds the runs of one workload and mode into `name → {unit, values,
/// samples}`.
fn fold_metrics(runs: &[(Json, Json)]) -> Json {
    let Some((first, _)) = runs.first() else {
        return Json::obj::<&str>([]);
    };
    let names = first.get("metrics").map_or(&[][..], Json::members);
    Json::obj(names.iter().map(|(name, metric)| {
        let values = runs
            .iter()
            .filter_map(|(r, _)| r.get("metrics")?.get(name)?.get("value").cloned())
            .collect();
        let samples = runs
            .iter()
            .filter_map(|(_, d)| d.get("samples")?.get(name).cloned())
            .collect();
        (
            name.as_str(),
            Json::obj([
                ("unit", metric.get("unit").cloned().unwrap_or(Json::Null)),
                ("values", Json::Arr(values)),
                ("samples", Json::Arr(samples)),
            ]),
        )
    }))
}

/// Runs the whole suite and writes the results file.
///
/// # Errors
/// A child that cannot start, exits non-zero or prints no result; also
/// (after writing the file) any workload that reported `correct: false`.
pub fn main(args: &[String]) -> Result<(), String> {
    let args = parse(args)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("smoke", Json::Bool(args.smoke)),
    ]);
    println!("environment: {}", env.render());

    let mut workloads = Vec::new();
    let mut incorrect = Vec::new();
    for spec in WORKLOADS {
        let (mut e2e, mut traced) = (Vec::new(), Vec::new());
        for run in 0..args.runs {
            // Every run of the suite gets a seed of its own; A/A
            // comparisons of deterministic metrics hold across seeds.
            let seed = args.seed + run as u64;
            e2e.push(child(spec.name, &args, seed, false)?);
            traced.push(child(spec.name, &args, seed, true)?);
        }
        let all = e2e.iter().chain(&traced);
        let sum = |key: &str| -> f64 {
            e2e.iter()
                .filter_map(|(r, _)| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        let correct = all
            .clone()
            .all(|(r, _)| r.get("correct") == Some(&Json::Bool(true)));
        if !correct {
            incorrect.push(spec.name);
        }
        let first_traced_detail = traced.first().map(|(_, d)| d);
        let first_e2e_detail = e2e.first().map(|(_, d)| d);
        workloads.push((
            spec.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                (
                    "passes",
                    first_e2e_detail
                        .and_then(|d| d.get("passes").cloned())
                        .unwrap_or(Json::Null),
                ),
                (
                    "measured_s",
                    first_e2e_detail
                        .and_then(|d| d.get("measured_s").cloned())
                        .unwrap_or(Json::Null),
                ),
                ("end_to_end", fold_metrics(&e2e)),
                ("per_layer", fold_metrics(&traced)),
                (
                    "layer_shares",
                    first_traced_detail
                        .and_then(|d| d.get("layer_shares").cloned())
                        .unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let results = Json::obj([
        ("schema", Json::str(RESULTS_SCHEMA)),
        ("env", env),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = match args.out {
        Some(path) => path.into(),
        None => out_dir()?.join("results.json"),
    };
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("incorrect results on: {}", incorrect.join(", ")))
    }
}
