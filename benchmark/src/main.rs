//! `tawa-bench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! tawa-bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! tawa-bench suite [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//! tawa-bench diff A.json B.json
//! tawa-bench manifest          # prints BENCHMARK.json
//! tawa-bench bless             # rewrites benchmark/golden/sim_reports.txt
//! ```

#![warn(missing_docs)]

mod calib;
mod diff;
mod gate;
mod json;
mod layers;
mod manifest;
mod run;
mod stage;
mod stats;
mod suite;
mod trace;
mod workloads;
mod zoo;

use std::process::ExitCode;

use gpu_sim::Device;
use tawa_core::autotune::SweepStrategy;
use tawa_core::{CompileSession, DISK_CACHE_ENV, REMOTE_CACHE_ENV};
use tawa_serve::{generate, Replay, TraceParams};

use crate::gate::{Golden, GOLDEN_PATH};
use crate::workloads::{fleet_key, run_sweep};
use crate::zoo::{build_program, fig11_sweeps, long_zoo, short_zoo, SweepCase};

/// Regenerates the golden file from the current compiler and simulator.
fn bless() -> Result<(), String> {
    let dev = Device::h100_sxm5();
    let mut golden = Golden::default();
    for case in short_zoo().iter().chain(&long_zoo()) {
        let report = CompileSession::in_memory(&dev)
            .compile_and_simulate_program(&build_program(&case.shape), &case.opts)
            .map_err(|e| format!("{}: {e}", case.id()))?;
        golden.insert(case.id(), &case.opts, &report);
    }
    for sweep in fig11_sweeps() {
        let (session, result) = run_sweep(&dev, &sweep, SweepStrategy::Exhaustive);
        let best = result
            .best_options(&sweep.base)
            .ok_or(format!("{}: no feasible configuration", sweep.id()))?;
        let report = session
            .compile_and_simulate_program(&build_program(&sweep.shape), &best)
            .map_err(|e| format!("{}: {e}", sweep.id()))?;
        golden.insert(SweepCase::id(&sweep), &best, &report);
    }
    // Every shape either trace family can draw (the seed only orders them).
    for params in [
        TraceParams::llama_mix("bless", 1, 4096),
        TraceParams::quick("bless", 1, 1024),
    ] {
        let trace = generate(&params);
        let session = CompileSession::in_memory(&dev);
        let mut replay = Replay::new(&session);
        replay.run(&trace).map_err(|e| e.to_string())?;
        for request in &trace.requests {
            let line = request.to_line();
            let opts = &replay.winners()[&line];
            let report = session
                .compile_and_simulate_program(&build_program(request), opts)
                .map_err(|e| format!("{line}: {e}"))?;
            golden.insert(fleet_key(request), opts, &report);
        }
    }
    std::fs::write(GOLDEN_PATH, golden.render()).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    println!(
        "{} kernels written to {GOLDEN_PATH}; rebuild, and review the diff by hand",
        golden.0.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    // The program must see only what the benchmark hands it: a stray
    // cache directory, daemon address, worker cap or analysis budget in
    // the environment would change what is measured.
    for var in [
        DISK_CACHE_ENV,
        REMOTE_CACHE_ENV,
        tawa_core::COMPILE_WORKERS_ENV,
        tawa_core::ANALYZE_FUEL_ENV,
    ] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::main(&args[1..]),
        Some("diff") => diff::main(&args[1..]),
        Some("bless") => bless(),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().render_pretty());
            Ok(())
        }
        _ => run::RunArgs::parse(&args)
            .and_then(|args| run::run(&args))
            .map(|(result, detail)| {
                println!("{}{}", suite::DETAIL_PREFIX, detail.render());
                println!("{}", result.render());
            }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("tawa-bench: {why}");
            ExitCode::FAILURE
        }
    }
}
