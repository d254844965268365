//! Criterion wrapper for the autotune and simulator hot paths:
//!
//! - multi-class grid simulation, parallel per-CTA-class vs sequential
//!   (the paths are bit-identical; the bench shows the wall-clock win),
//! - a cold Fig. 11 sweep, exhaustive vs model-guided,
//! - `compile_batch` worker scaling at 1 vs 16 workers over a
//!   sweep-shaped job list (the sharded-cache regime).
//!
//! After the criterion groups run, a report section re-measures the same
//! scenarios with a plain median-of-N timer and writes the results to
//! `BENCH_autotune.json` at the repository root (override the path with
//! `TAWA_BENCH_OUT`). On a multi-core host the report asserts the
//! parallel multi-class path is actually faster than sequential — that
//! speedup is an acceptance criterion, not just a number in a table.
//! Since the engine skips the steady state the 64-class simulation is
//! well under a millisecond of work, so one busy neighbour core can spoil
//! a single reading: the speedup is the median ratio over alternating
//! sequential/parallel rounds and must reach 1.1×. On a single-core host
//! (`available_parallelism() == 1`) the parallel path degenerates to one
//! worker and a speedup is physically impossible, so the report only
//! bounds the overhead instead.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use gpu_sim::{simulate_with, Device, SimOptions};
use tawa_core::autotune::{
    autotune_with_session_strategy, SweepStrategy, TuneSpace, DEFAULT_PRUNE_SLACK,
};
use tawa_core::{CompileJob, CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, Tile};
use tawa_frontend::kernels::gemm;
use tawa_ir::types::DType;
use tawa_kernels::templates::{ws_attention, AttentionStrategy};
use tawa_wsir::Kernel;

const SEQ_OPTS: SimOptions = SimOptions {
    parallel_classes: false,
};
const PAR_OPTS: SimOptions = SimOptions {
    parallel_classes: true,
};

/// A causal-attention zoo kernel with one CTA class per distinct diagonal
/// trip count — the many-class grid the parallel path shards across
/// threads. `seq = 8192` with 128-row blocks yields dozens of classes.
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
    g.bench_function("sim_multiclass_sequential", |b| {
        b.iter(|| simulate_with(black_box(&kernel), &device, &SEQ_OPTS))
    });
    g.bench_function("sim_multiclass_parallel", |b| {
        b.iter(|| simulate_with(black_box(&kernel), &device, &PAR_OPTS))
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

/// Sequential and parallel wall-clock of one multi-class simulation and
/// their ratio, each the median over alternating rounds (a round times
/// both paths back to back, so a disturbance hits one round's ratio, not
/// one path's median).
fn multiclass_speedup(kernel: &Kernel, device: &Device) -> (f64, f64, f64) {
    const ROUNDS: usize = 11;
    let (mut seq, mut par, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let s = median_ms(9, || {
            black_box(simulate_with(kernel, device, &SEQ_OPTS)).ok();
        });
        let p = median_ms(9, || {
            black_box(simulate_with(kernel, device, &PAR_OPTS)).ok();
        });
        seq.push(s);
        par.push(p);
        ratio.push(s / p);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(seq), median(par), median(ratio))
}

fn emit_report() {
    let device = Device::h100_sxm5();
    let kernel = multiclass_kernel(&device);
    let classes = kernel.classes.len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let (seq_ms, par_ms, speedup) = multiclass_speedup(&kernel, &device);

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
    let _ = writeln!(json, "    \"sequential_ms\": {seq_ms:.3},");
    let _ = writeln!(json, "    \"parallel_ms\": {par_ms:.3},");
    let _ = writeln!(json, "    \"speedup\": {speedup:.3}");
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
    if cores > 1 {
        assert!(
            speedup >= 1.1,
            "parallel multi-class simulation must beat sequential by 1.1x on \
             a {cores}-core host ({classes} classes: {seq_ms:.2} ms sequential \
             vs {par_ms:.2} ms parallel, median ratio {speedup:.2})"
        );
    } else {
        // One worker, same work: only the spawn/handoff overhead differs.
        println!("single-core host: skipping the speedup assertion");
        assert!(
            speedup > 0.5,
            "single-worker parallel path overhead out of bounds \
             ({seq_ms:.2} ms sequential vs {par_ms:.2} ms parallel)"
        );
    }
}

criterion_group!(benches, bench);

fn main() {
    let _args: Vec<String> = std::env::args().collect();
    benches();
    emit_report();
}
