//! End-to-end tests of the staged compile-session layer: content-addressed
//! cache correctness (a hit is byte-identical to a cold compile, property-
//! tested over random configurations), batch-vs-sequential equivalence, and
//! the warm-sweep speedup the cache exists for.

use std::time::Instant;

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::{CompileError, CompileOptions};
use tawa::frontend::config::{GemmConfig, Tile};
use tawa::frontend::kernels::gemm;
use tawa::sim::Device;
use tawa::wsir::print_kernel;
use tawa::{CompileJob, CompileSession};

fn dev() -> Device {
    Device::h100_sxm5()
}

/// Strategy over GEMM problem shapes (kept small: every case compiles).
fn gemm_configs() -> impl Strategy<Value = GemmConfig> {
    (
        prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        prop_oneof![Just(1024usize), Just(2048)],
        prop_oneof![Just(512usize), Just(2048), Just(8192)],
    )
        .prop_map(|(m, n, k)| GemmConfig::new(m, n, k))
}

/// Strategy over compile options spanning the autotuner's axes.
fn compile_options() -> impl Strategy<Value = CompileOptions> {
    (
        1usize..4,
        1usize..4,
        1usize..3,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |(aref_depth, mma_depth, cooperative, persistent)| CompileOptions {
                aref_depth,
                mma_depth,
                cooperative,
                persistent,
                ..CompileOptions::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A cache hit returns a kernel byte-identical (via `print_kernel`) to
    /// a cold compile of the same inputs — across random shapes and
    /// options, and with the session's cleanup prefix shared in between.
    #[test]
    fn cache_hit_is_byte_identical_to_cold_compile(
        cfg in gemm_configs(),
        opts in compile_options(),
    ) {
        let device = dev();
        let (m, spec) = gemm(&cfg).into_parts();
        let cold = CompileSession::in_memory(&device).compile(&m, &spec, &opts);
        let session = CompileSession::in_memory(&device);
        match (cold, session.compile(&m, &spec, &opts)) {
            (Ok(cold), Ok(warm_miss)) => {
                // Second session compile: guaranteed cache hit.
                let hit = session.compile(&m, &spec, &opts).unwrap();
                prop_assert_eq!(session.cache_stats().kernel_hits, 1);
                let cold_text = print_kernel(&cold);
                prop_assert_eq!(&cold_text, &print_kernel(&warm_miss));
                prop_assert_eq!(&cold_text, &print_kernel(&hit));
            }
            // Infeasible configurations must be infeasible both ways.
            (Err(CompileError::Infeasible(_)), e) => {
                prop_assert!(matches!(e, Err(CompileError::Infeasible(_))));
            }
            (a, b) => {
                return Err(format!("outcome diverged: fresh session {a:?} vs session {b:?}"));
            }
        }
    }
}

#[test]
fn compile_batch_equals_sequential_compiles() {
    let device = dev();
    let (m, spec) = gemm(&GemmConfig::new(2048, 2048, 2048)).into_parts();
    let (m_large, spec_large) =
        gemm(&GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE)).into_parts();
    // N heterogeneous jobs: two modules, several option points, one
    // infeasible (P > D) and one register-infeasible (large tile, coop 1).
    let mut jobs = Vec::new();
    for d in 1..=3usize {
        for p in 1..=2usize {
            jobs.push(CompileJob {
                module: &m,
                spec: &spec,
                opts: CompileOptions {
                    aref_depth: d,
                    mma_depth: p,
                    ..CompileOptions::default()
                },
            });
        }
    }
    jobs.push(CompileJob {
        module: &m_large,
        spec: &spec_large,
        opts: CompileOptions {
            cooperative: 2,
            ..CompileOptions::default()
        },
    });
    jobs.push(CompileJob {
        module: &m_large,
        spec: &spec_large,
        opts: CompileOptions {
            cooperative: 1,
            ..CompileOptions::default()
        },
    });

    let batch_session = CompileSession::in_memory(&device);
    let batch = batch_session.compile_batch(&jobs);

    let seq_session = CompileSession::in_memory(&device);
    assert_eq!(batch.len(), jobs.len());
    for (job, outcome) in jobs.iter().zip(&batch) {
        let sequential = seq_session.compile(job.module, job.spec, &job.opts);
        match (outcome, sequential) {
            (Ok(b), Ok(s)) => assert_eq!(print_kernel(b), print_kernel(&s)),
            (Err(CompileError::Infeasible(_)), Err(CompileError::Infeasible(_))) => {}
            (b, s) => panic!("batch/sequential diverged: {b:?} vs {s:?}"),
        }
    }
    // Both large-tile jobs and all six small-tile jobs share one module
    // fingerprint each: exactly two cleanup-prefix entries.
    assert_eq!(batch_session.cache_stats().module_entries, 2);
}

#[test]
fn warm_autotune_sweep_hits_cache_and_is_faster() {
    let device = dev();
    let session = CompileSession::in_memory(&device);
    let cfg = GemmConfig::new(4096, 4096, 4096).with_tile(Tile::LARGE);
    let (m, spec) = gemm(&cfg).into_parts();
    let base = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let space = TuneSpace::fig11(false);

    let cold_start = Instant::now();
    let cold = autotune_with_session(&session, &m, &spec, &base, &space);
    let cold_time = cold_start.elapsed();
    let stats_after_cold = session.cache_stats();

    let warm_start = Instant::now();
    let warm = autotune_with_session(&session, &m, &spec, &base, &space);
    let warm_time = warm_start.elapsed();
    let stats_after_warm = session.cache_stats();

    // Identical results out of the cache.
    assert_eq!(cold.points.len(), warm.points.len());
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(c.tflops, w.tflops);
    }
    // Every feasible point of the second sweep was a report-cache hit.
    let feasible = cold.points.iter().filter(|p| p.tflops.is_some()).count();
    assert!(feasible > 0, "the fig11 grid has feasible points");
    assert_eq!(
        stats_after_warm.sim_hits - stats_after_cold.sim_hits,
        feasible as u64,
    );
    assert!(stats_after_warm.hits() > 0);
    // And measurably faster: the warm sweep skips compilation and
    // simulation entirely, so even a conservative 2x bound is safe.
    assert!(
        warm_time < cold_time / 2,
        "warm sweep {warm_time:?} should be far under cold sweep {cold_time:?}"
    );
}

#[test]
fn simulation_failures_are_not_reported_as_infeasible() {
    // A kernel with a poisoned launch overhead still compiles; force a
    // deadlock-like failure path by simulating an unplaceable kernel:
    // large tile + cooperative=1 fails at *compile* time (Infeasible),
    // while a well-formed compile followed by simulation never yields
    // Infeasible — the variants are distinct by construction.
    let device = dev();
    let session = CompileSession::in_memory(&device);
    let (m, spec) = gemm(&GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE)).into_parts();
    let compile_err = session
        .compile(
            &m,
            &spec,
            &CompileOptions {
                cooperative: 1,
                ..CompileOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(compile_err, CompileError::Infeasible(_)));
    let ok = session.compile_and_simulate(
        &m,
        &spec,
        &CompileOptions {
            cooperative: 2,
            ..CompileOptions::default()
        },
    );
    assert!(ok.is_ok(), "{ok:?}");
}
