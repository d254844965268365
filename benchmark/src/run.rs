//! One run of one workload in this process: the entry point the driver
//! calls (`--workload W --seed N --seconds S --trace 0|1`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_sim::Device;

use crate::gate::{interpreter_equivalence, Golden};
use crate::json::Json;
use crate::layers::{peak_rss_mb, run_for, traced_run, Metrics};
use crate::manifest::{metric, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{geomean, percentile_supported, Samples};
use crate::workloads::{setup, Ctx, Workload};

/// Parsed command line of a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, one pass per stretch.
    pub smoke: bool,
}

impl RunArgs {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]`.
    ///
    /// # Errors
    /// Unknown flags, missing or malformed values, an unknown workload.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?.clone(),
                "--seed" => out.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if !WORKLOADS.iter().any(|w| w.name == out.workload) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "--workload must be one of {names:?}, not '{}'",
                out.workload
            ));
        }
        if !(out.seconds.is_finite() && out.seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(out)
    }
}

/// The benchmark's output directory inside the checkout.
///
/// # Errors
/// When the process does not run from the repository root.
pub fn out_dir() -> Result<PathBuf, String> {
    // Relative on purpose: the daemon's Unix-socket path must stay under
    // the ~100-byte `sun_path` limit wherever the checkout lives.
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run tawa-bench from the repository root (benchmark/ not found)".to_string());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// This process's scratch directory; removed when dropped, also on the
/// failure paths.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = out_dir()?.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_metrics(metrics: &Metrics) {
    for (name, (value, n)) in metrics {
        let unit = metric(name).map_or("", |m| m.unit);
        println!("  {name:<44} {value:>16.6} {unit:<8} n={n}");
    }
}

/// Runs one workload and returns the result line and the detail line.
///
/// # Errors
/// Set-up failures (no result is printed and the exit code is non-zero).
pub fn run(args: &RunArgs) -> Result<(Json, Json), String> {
    let scratch = Scratch::create()?;
    let ctx = Ctx {
        dev: Device::h100_sxm5(),
        golden: Golden::embedded(),
        seed: args.seed,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
    };
    println!(
        "tawa-bench: workload={} seed={} seconds={} trace={} smoke={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );

    // Correctness gate, untimed: the compiler's output against an
    // independent interpreter.
    let start = Instant::now();
    let gate = interpreter_equivalence();
    match &gate {
        Ok(n) => println!(
            "gate: {n} kernel families bit-equal before/after warp specialization ({:.3} s)",
            start.elapsed().as_secs_f64()
        ),
        Err(why) => println!("gate: FAILED: {why}"),
    }

    // Set-up, several times: its time is a metric of its own, calibrated
    // by the chunks that ran between its warm-up ops.
    let reps = if args.trace || args.smoke { 1 } else { 3 };
    let (mut setup_s, mut setup_measured_s) = (Samples::default(), Samples::default());
    let mut workload: Option<Box<dyn Workload>> = None;
    for rep in 0..reps {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let start = Instant::now();
        let (w, warm_up) = setup(&args.workload, &ctx, &scratch.0.join(format!("s{rep}")))?;
        let chunks = &warm_up.calibration;
        let measured =
            start.elapsed().as_secs_f64() - (chunks.big_us.sum() + chunks.small_us.sum()) / 1e6;
        setup_measured_s.push(measured);
        setup_s.push(measured * chunks.time_factor());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up repetition");
    println!(
        "setup: median {:.4} s calibrated ({:.4} s measured) of {} repetitions; peak RSS after set-up {:.2} MB",
        setup_s.p50(),
        setup_measured_s.p50(),
        setup_s.n(),
        peak_rss_mb(),
    );

    let (metrics, sink, detail) = if args.trace {
        let traced = traced_run(workload.as_mut(), &ctx, args.seconds);
        workload.teardown();
        let traced = traced?;
        let path = out_dir()?.join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, traced.recorder.to_chrome_trace().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            traced.recorder.spans().len(),
            path.display()
        );
        if !traced.shares.is_empty() {
            println!("share of op time per layer (self time, traced stretch):");
            for (name, share) in &traced.shares {
                println!("  {name:<44} {:>7.2} %", share * 100.0);
            }
        }
        let shares = Json::obj(
            traced
                .shares
                .iter()
                .map(|(name, share)| (name.as_str(), Json::Num(*share))),
        );
        (traced.metrics, traced.sink, shares)
    } else {
        let sink = run_for(workload.as_mut(), args.seconds, args.smoke, None);
        workload.teardown();
        // Each op kind's time is the median over its repetitions, so a
        // burst of interference does not move it; the workload's metrics
        // aggregate those, in calibrated time (see `calib`). The plain
        // measured values are printed beside them.
        let factor = sink.calibration.time_factor();
        let typical = sink.typical_ms();
        println!(
            "measured: ops_per_s {:.3} (ops / op time), op_ms_p50 {:.6}, op_ms_p90 {:.6} over all {} ops",
            sink.ops as f64 / (sink.pass_ms.sum() / 1e3),
            sink.op_ms.p50(),
            sink.op_ms.percentile(90.0),
            sink.op_ms.n(),
        );
        println!(
            "typical pass {:.4} ms over {} op kinds; calibration chunk {:.1} us over {} chunks, time factor {factor:.4}",
            typical.sum(),
            typical.n(),
            sink.calibration.chunk_us(),
            sink.calibration.big_us.n(),
        );
        let fewest = sink.kind_ms.iter().map(Samples::n).min().unwrap_or(0);
        if !percentile_supported(fewest, 50.0) {
            println!("note: an op kind was repeated only {fewest} times; the sample-count rule wants 20 for a median");
        }
        let mut m = Metrics::new();
        m.insert("setup_s".into(), (setup_s.p50(), setup_s.n()));
        m.insert(
            "ops_per_s".into(),
            (
                typical.n() as f64 / (typical.sum() * factor / 1e3),
                sink.op_ms.n(),
            ),
        );
        m.insert("op_ms_p50".into(), (typical.p50() * factor, sink.op_ms.n()));
        m.insert(
            "op_ms_p90".into(),
            (typical.percentile(90.0) * factor, sink.op_ms.n()),
        );
        assert_eq!(m.len(), END_TO_END.len(), "end-to-end metrics vs manifest");
        println!(
            "deterministic: sim_tflops={:.3} TFLOP/s over {} kernels, compiles_per_op={}, sim_runs_per_op={}",
            geomean(sink.tflops.values().copied()),
            sink.tflops.len(),
            sink.compiles as f64 / sink.ops.max(1) as f64,
            sink.sim_runs as f64 / sink.ops.max(1) as f64,
        );
        (m, sink, Json::obj::<&str>([]))
    };

    println!(
        "ops: {} attempted in {} passes ({:.3} s of op time, median pass {:.3} ms), {} failed",
        sink.ops,
        sink.pass_ms.n(),
        sink.pass_ms.sum() / 1e3,
        sink.pass_ms.p50(),
        sink.failed,
    );
    for why in &sink.failures {
        println!("  failure: {why}");
    }
    print_metrics(&metrics);

    // Invariants a traced run must meet beyond per-op checks.
    let value = |name: &str| metrics.get(name).map(|(v, _)| *v);
    let mut broken = Vec::new();
    if value("core.autotune.winner_match_share").is_some_and(|v| v != 1.0) {
        broken.push("guided and exhaustive sweeps disagree on a winner");
    }
    if value("sim.analytic.unsound_count").is_some_and(|v| v != 0.0) {
        broken.push("the analytic bound is below a simulated throughput");
    }
    for why in &broken {
        println!("  invariant broken: {why}");
    }

    let correct = gate.is_ok() && sink.failed == 0 && sink.ops > 0 && broken.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(sink.ops as f64)),
        ("failed", Json::Num(sink.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, (value, _))| {
                let unit = metric(name).map_or("", |m| m.unit);
                (
                    name.as_str(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    let detail = Json::obj([
        (
            "samples",
            Json::obj(
                metrics
                    .iter()
                    .map(|(name, (_, n))| (name.as_str(), Json::Num(*n as f64))),
            ),
        ),
        ("passes", Json::Num(sink.pass_ms.n() as f64)),
        ("measured_s", Json::Num(sink.pass_ms.sum() / 1e3)),
        ("layer_shares", detail),
    ]);
    Ok((result, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = RunArgs::parse(&args(&[
            "--workload",
            "cold_long",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            RunArgs {
                workload: "cold_long".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false,
            }
        );
        let defaults = RunArgs::parse(&args(&["--workload", "cold_short"])).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (2026, 10.0, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "cold_short", "--trace", "2"],
            &["--workload", "cold_short", "--seconds", "0"],
            &["--workload", "cold_short", "--seed"],
            &["--workload", "cold_short", "--frobnicate"],
        ] {
            assert!(RunArgs::parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
