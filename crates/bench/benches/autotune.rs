//! Criterion wrapper for the autotune and simulator hot paths:
//!
//! - multi-class grid simulation (64 CTA classes walked as one family),
//! - a cold Fig. 11 sweep, exhaustive vs model-guided,
//! - `compile_batch` worker scaling at 1 vs 16 workers over a
//!   sweep-shaped job list (the sharded-cache regime).
//!
//! After the criterion groups run, a report section re-measures the same
//! scenarios with a plain median-of-N timer and writes the results to
//! `BENCH_autotune.json` at the repository root (override the path with
//! `TAWA_BENCH_OUT`). The report asserts that the guided sweep issues
//! fewer simulator runs than the exhaustive one. (It used to assert that
//! simulating CTA classes on worker threads beat the sequential fold; the
//! classes now run as one family on the calling thread and that path is
//! gone — `SimOptions::parallel_classes` no longer does anything.)

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use gpu_sim::{simulate, Device};
use tawa_core::autotune::{
    autotune_with_session_strategy, SweepStrategy, TuneSpace, DEFAULT_PRUNE_SLACK,
};
use tawa_core::{CompileJob, CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, Tile};
use tawa_frontend::kernels::gemm;
use tawa_ir::types::DType;
use tawa_kernels::templates::{ws_attention, AttentionStrategy};
use tawa_wsir::Kernel;

/// A causal-attention zoo kernel with one CTA class per distinct diagonal
/// trip count. `seq = 8192` with 128-row blocks yields dozens of classes.
fn multiclass_kernel(device: &Device) -> Kernel {
    let cfg = AttentionConfig::paper(8192, true, DType::F16);
    let strat = AttentionStrategy {
        coop: 2,
        d: 2,
        overlap: true,
        softmax_exposure: 1.0,
        launch_ns: 900,
        iter_bubble: 0.0,
    };
    ws_attention(&cfg, &strat, device).expect("zoo attention template is feasible")
}

fn fig11_workload() -> (GemmConfig, CompileOptions) {
    (
        GemmConfig::new(8192, 8192, 4096).with_tile(Tile::LARGE),
        CompileOptions {
            cooperative: 2,
            ..CompileOptions::default()
        },
    )
}

/// Runs a cold Fig. 11 persistent-panel sweep and returns the simulator
/// runs it issued.
fn cold_sweep(device: &Device, strategy: SweepStrategy) -> u64 {
    let (cfg, base) = fig11_workload();
    let session = CompileSession::in_memory(device);
    let (module, spec) = gemm(&cfg).into_parts();
    let result = autotune_with_session_strategy(
        &session,
        &module,
        &spec,
        &base,
        &TuneSpace::fig11(true),
        strategy,
    );
    black_box(result.best);
    session.cache_stats().sim_misses
}

/// Compiles a fig11-shaped 9-job batch on a cold session capped at
/// `workers` threads.
fn cold_batch(device: &Device, workers: usize) {
    let cfg = GemmConfig::new(4096, 4096, 4096).with_tile(Tile::LARGE);
    let (module, spec) = gemm(&cfg).into_parts();
    let mut jobs = Vec::new();
    for d in 1..=3usize {
        for p in 1..=3usize {
            jobs.push(CompileJob {
                module: &module,
                spec: &spec,
                opts: CompileOptions {
                    aref_depth: d,
                    mma_depth: p,
                    cooperative: 2,
                    ..CompileOptions::default()
                },
            });
        }
    }
    let session = CompileSession::in_memory(device).with_workers(workers);
    black_box(session.compile_batch(&jobs));
}

fn bench(c: &mut Criterion) {
    let device = Device::h100_sxm5();
    let kernel = multiclass_kernel(&device);

    let mut g = c.benchmark_group("autotune");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.bench_function("sim_multiclass", |b| {
        b.iter(|| simulate(black_box(&kernel), &device))
    });
    g.bench_function("fig11_cold_exhaustive", |b| {
        b.iter(|| cold_sweep(&device, SweepStrategy::Exhaustive))
    });
    g.bench_function("fig11_cold_guided", |b| {
        b.iter(|| {
            cold_sweep(
                &device,
                SweepStrategy::ModelGuided {
                    slack: DEFAULT_PRUNE_SLACK,
                },
            )
        })
    });
    g.bench_function("compile_batch_1worker", |b| {
        b.iter(|| cold_batch(&device, 1))
    });
    g.bench_function("compile_batch_16workers", |b| {
        b.iter(|| cold_batch(&device, 16))
    });
    g.finish();
}

/// Median wall-clock of `runs` calls to `f`, after one warm-up call.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn emit_report() {
    let device = Device::h100_sxm5();
    let kernel = multiclass_kernel(&device);
    let classes = kernel.classes.len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let sim_ms = median_ms(99, || {
        black_box(simulate(&kernel, &device)).ok();
    });

    let mut ex_sims = 0;
    let ex_ms = median_ms(3, || {
        ex_sims = cold_sweep(&device, SweepStrategy::Exhaustive);
    });
    let mut g_sims = 0;
    let g_ms = median_ms(3, || {
        g_sims = cold_sweep(
            &device,
            SweepStrategy::ModelGuided {
                slack: DEFAULT_PRUNE_SLACK,
            },
        );
    });

    let batch1_ms = median_ms(3, || cold_batch(&device, 1));
    let batch16_ms = median_ms(3, || cold_batch(&device, 16));

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"sim_multiclass\": {{");
    let _ = writeln!(json, "    \"classes\": {classes},");
    let _ = writeln!(json, "    \"simulate_ms\": {sim_ms:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fig11_cold_sweep\": {{");
    let _ = writeln!(json, "    \"exhaustive_ms\": {ex_ms:.3},");
    let _ = writeln!(json, "    \"exhaustive_sim_runs\": {ex_sims},");
    let _ = writeln!(json, "    \"guided_ms\": {g_ms:.3},");
    let _ = writeln!(json, "    \"guided_sim_runs\": {g_sims}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"compile_batch\": {{");
    let _ = writeln!(json, "    \"jobs\": 9,");
    let _ = writeln!(json, "    \"workers1_ms\": {batch1_ms:.3},");
    let _ = writeln!(json, "    \"workers16_ms\": {batch16_ms:.3},");
    let _ = writeln!(json, "    \"speedup\": {:.3}", batch1_ms / batch16_ms);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out = std::env::var("TAWA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json").into()
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    print!("{json}");
    println!("wrote {out}");

    assert!(
        g_sims < ex_sims,
        "guided sweep must issue fewer simulator runs ({g_sims} vs {ex_sims})"
    );
}

criterion_group!(benches, bench);

fn main() {
    let _args: Vec<String> = std::env::args().collect();
    benches();
    emit_report();
}
