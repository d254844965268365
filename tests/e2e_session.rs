//! End-to-end tests of the staged compile-session layer: content-addressed
//! cache correctness (a hit is byte-identical to a cold compile, property-
//! tested over random configurations), sweep-vs-sequential equivalence, and
//! the warm-sweep speedup the cache exists for.

use std::time::Instant;

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::{CompileError, CompileOptions};
use tawa::frontend::config::{GemmConfig, Tile};
use tawa::frontend::kernels::gemm;
use tawa::sim::Device;
use tawa::wsir::serialize_kernel;
use tawa::CompileSession;

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

    /// A cache hit returns a kernel byte-identical (via `serialize_kernel`) to
    /// a cold compile of the same inputs — across random shapes and
    /// options, and with the session's cleanup prefix shared in between.
    #[test]
    fn cache_hit_is_byte_identical_to_cold_compile(
        cfg in gemm_configs(),
        opts in compile_options(),
    ) {
        let device = dev();
        let p = gemm(&cfg);
        let cold = CompileSession::in_memory(&device).compile_program(&p, &opts);
        let session = CompileSession::in_memory(&device);
        match (cold, session.compile_program(&p, &opts)) {
            (Ok(cold), Ok(warm_miss)) => {
                // Second session compile: guaranteed cache hit.
                let hit = session.compile_program(&p, &opts).unwrap();
                prop_assert_eq!(session.cache_stats().kernel_hits, 1);
                let cold_text = serialize_kernel(&cold);
                prop_assert_eq!(&cold_text, &serialize_kernel(&warm_miss));
                prop_assert_eq!(&cold_text, &serialize_kernel(&hit));
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
fn autotune_sweeps_equal_sequential_compiles() {
    let device = dev();
    let small = gemm(&GemmConfig::new(2048, 2048, 2048));
    let large = gemm(&GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE));
    // Two sweeps over one session: the small tile's grid holds a P > D
    // point, the large tile's a register-infeasible single consumer.
    let sweeps = [
        (
            &small,
            TuneSpace {
                aref_depths: vec![1, 2, 3],
                mma_depths: vec![1, 2],
                cooperative: vec![1],
                persistent: vec![false],
            },
        ),
        (
            &large,
            TuneSpace {
                aref_depths: vec![2],
                mma_depths: vec![2],
                cooperative: vec![2, 1],
                persistent: vec![false],
            },
        ),
    ];
    let base = CompileOptions::default();
    let batch_session = CompileSession::in_memory(&device);
    let seq_session = CompileSession::in_memory(&device);
    let mut infeasible = 0;
    for (program, space) in &sweeps {
        let result = autotune_with_session(
            &batch_session,
            program.module(),
            program.spec(),
            &base,
            space,
        );
        for point in &result.points {
            let opts = CompileOptions {
                aref_depth: point.aref_depth,
                mma_depth: point.mma_depth,
                cooperative: point.cooperative,
                persistent: point.persistent,
                ..base.clone()
            };
            let sequential = seq_session
                .compile_and_simulate_program(program, &opts)
                .ok()
                .map(|r| r.tflops.to_bits());
            assert_eq!(
                point.tflops.map(f64::to_bits),
                sequential,
                "{} D={} P={} coop={}",
                program.name(),
                point.aref_depth,
                point.mma_depth,
                point.cooperative
            );
        }
        infeasible += result.stats.infeasible;
    }
    assert_eq!(
        infeasible, 2,
        "one P > D point and one register-infeasible point"
    );
    // All six small-tile points and both large-tile points share one
    // module fingerprint each: exactly two cleanup-prefix entries.
    assert_eq!(batch_session.cache_stats().module_entries, 2);
}

#[test]
fn warm_autotune_sweep_hits_cache_and_is_faster() {
    let device = dev();
    let session = CompileSession::in_memory(&device);
    let cfg = GemmConfig::new(4096, 4096, 4096).with_tile(Tile::LARGE);
    let p = gemm(&cfg);
    let base = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let space = TuneSpace::fig11(false);

    let cold_start = Instant::now();
    let cold = autotune_with_session(&session, p.module(), p.spec(), &base, &space);
    let cold_time = cold_start.elapsed();
    let stats_after_cold = session.cache_stats();

    let warm_start = Instant::now();
    let warm = autotune_with_session(&session, p.module(), p.spec(), &base, &space);
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
    let p = gemm(&GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE));
    let compile_err = session
        .compile_program(
            &p,
            &CompileOptions {
                cooperative: 1,
                ..CompileOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(compile_err, CompileError::Infeasible(_)));
    let ok = session.compile_and_simulate_program(
        &p,
        &CompileOptions {
            cooperative: 2,
            ..CompileOptions::default()
        },
    );
    assert!(ok.is_ok(), "{ok:?}");
}
