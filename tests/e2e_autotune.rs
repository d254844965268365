//! End-to-end tests of the autotune sweep and of the parallel
//! per-CTA-class simulation path: every kernel simulates bit-identically
//! with and without it.

use proptest::prelude::*;

use tawa::core::autotune::{autotune_with_session, TuneSpace};
use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::gemm;
use tawa::ir::types::DType;
use tawa::kernels::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};
use tawa::sim::{simulate_with, Device, SimOptions};
use tawa::CompileSession;

fn dev() -> Device {
    Device::h100_sxm5()
}

/// A sweep-order walk over the zoo's GEMM strategy grid: every feasible
/// template kernel simulates bit-identically on the parallel per-class
/// path and the sequential reference.
#[test]
fn zoo_gemm_grid_parallel_sim_is_bit_identical() {
    let device = dev();
    let cfg = GemmConfig::new(4096, 4096, 4096);
    let mut checked = 0;
    for persistent in [false, true] {
        for d in 1..=3usize {
            for p in 1..=d {
                let strat = GemmStrategy {
                    coop: 2,
                    d,
                    p,
                    persistent,
                    launch_ns: 900,
                    iter_bubble: 0.0,
                };
                let Ok(kernel) = ws_gemm(&cfg, &strat, &device) else {
                    continue;
                };
                let seq = simulate_with(
                    &kernel,
                    &device,
                    &SimOptions {
                        parallel_classes: false,
                    },
                );
                let par = simulate_with(
                    &kernel,
                    &device,
                    &SimOptions {
                        parallel_classes: true,
                    },
                );
                match (seq, par) {
                    (Ok(s), Ok(pr)) => {
                        assert_eq!(s, pr, "D={d} P={p} persistent={persistent}");
                        assert_eq!(s.tflops.to_bits(), pr.tflops.to_bits());
                        checked += 1;
                    }
                    (Err(se), Err(pe)) => {
                        assert_eq!(format!("{se:?}"), format!("{pe:?}"));
                    }
                    (s, pr) => panic!("paths diverged: {s:?} vs {pr:?}"),
                }
            }
        }
    }
    assert!(checked >= 6, "only {checked} zoo kernels simulated");
}

/// Strategy over attention shapes and schedules (the multi-class corner
/// of the zoo: causal attention lowers to several CTA classes, which is
/// exactly what the parallel path shards across threads).
fn attention_cases() -> impl Strategy<Value = (AttentionConfig, AttentionStrategy)> {
    (
        prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        prop_oneof![Just(false), Just(true)],
        1usize..4,
        1usize..3,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(seq, causal, d, coop, overlap)| {
            (
                AttentionConfig::paper(seq, causal, DType::F16),
                AttentionStrategy {
                    coop,
                    d,
                    overlap,
                    softmax_exposure: 1.0,
                    launch_ns: 900,
                    iter_bubble: 0.0,
                },
            )
        })
}

/// Strategy over DSL-built GEMM programs (random shape × lowering
/// options), compiled through the full frontend → WSIR pipeline.
fn dsl_gemm_cases() -> impl Strategy<Value = (GemmConfig, CompileOptions)> {
    (
        prop_oneof![Just(1024usize), Just(2048), Just(4096)],
        prop_oneof![Just(1024usize), Just(2048)],
        prop_oneof![Just(512usize), Just(2048), Just(8192)],
        1usize..4,
        1usize..4,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(m, n, k, d, p, persistent)| {
            (
                GemmConfig::new(m, n, k),
                CompileOptions {
                    aref_depth: d,
                    mma_depth: p.min(d),
                    persistent,
                    ..CompileOptions::default()
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel per-class simulation is `SimReport`-equal to the
    /// sequential reference over random zoo attention kernels.
    #[test]
    fn parallel_sim_matches_sequential_on_zoo_attention(
        (cfg, strat) in attention_cases(),
    ) {
        let device = dev();
        let Ok(kernel) = ws_attention(&cfg, &strat, &device) else {
            return Ok(());
        };
        let seq = simulate_with(&kernel, &device, &SimOptions { parallel_classes: false });
        let par = simulate_with(&kernel, &device, &SimOptions { parallel_classes: true });
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(&s, &p);
                prop_assert_eq!(s.tflops.to_bits(), p.tflops.to_bits());
            }
            (Err(se), Err(pe)) => prop_assert_eq!(format!("{se:?}"), format!("{pe:?}")),
            (s, p) => return Err(format!("paths diverged: {s:?} vs {p:?}")),
        }
    }

    /// Same property over random DSL-built GEMM programs run through the
    /// real compile pipeline (cleanup, lowering, placement).
    #[test]
    fn parallel_sim_matches_sequential_on_dsl_programs(
        (cfg, opts) in dsl_gemm_cases(),
    ) {
        let device = dev();
        let session = CompileSession::in_memory(&device);
        let program = gemm(&cfg);
        let Ok(kernel) = session.compile_program(&program, &opts) else {
            return Ok(()); // infeasible shapes are out of scope here
        };
        let seq = simulate_with(&kernel, &device, &SimOptions { parallel_classes: false });
        let par = simulate_with(&kernel, &device, &SimOptions { parallel_classes: true });
        match (seq, par) {
            (Ok(s), Ok(p)) => prop_assert_eq!(&s, &p),
            (Err(se), Err(pe)) => prop_assert_eq!(format!("{se:?}"), format!("{pe:?}")),
            (s, p) => return Err(format!("paths diverged: {s:?} vs {p:?}")),
        }
    }
}

/// Strategy over GEMM shapes and Fig. 11 panels for whole sweeps.
fn sweep_cases() -> impl Strategy<Value = (GemmConfig, bool)> {
    (
        prop_oneof![Just(2048usize), Just(4096), Just(8192)],
        prop_oneof![Just(2048usize), Just(4096)],
        prop_oneof![Just(1024usize), Just(4096), Just(16384)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(m, n, k, persistent)| (GemmConfig::new(m, n, k), persistent))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sweep's winner is the first point of the highest simulated
    /// throughput, and its options, compiled and simulated on a fresh
    /// session, reproduce that throughput bit for bit.
    #[test]
    fn sweep_winner_is_the_first_best_point_and_reproduces(
        (cfg, persistent) in sweep_cases(),
    ) {
        let device = dev();
        let session = CompileSession::in_memory(&device);
        let program = gemm(&cfg);
        let base = CompileOptions::default();
        let r = autotune_with_session(
            &session,
            program.module(),
            program.spec(),
            &base,
            &TuneSpace::fig11(persistent),
        );
        prop_assert_eq!(r.points.len(), 9);
        let Some(best) = r.best else {
            prop_assert!(r.points.iter().all(|p| p.tflops.is_none()));
            return Ok(());
        };
        let top = r.points[best].tflops.unwrap_or(f64::NAN);
        for (i, p) in r.points.iter().enumerate() {
            if let Some(t) = p.tflops {
                prop_assert!(t <= top, "point {} beats the winner {}", i, best);
                prop_assert!(i >= best || t < top, "point {} ties the later winner {}", i, best);
            }
        }
        let opts = r.best_options(&base).unwrap();
        let fresh = CompileSession::in_memory(&device);
        let report = fresh.compile_and_simulate_program(&program, &opts);
        prop_assert_eq!(report.map(|rep| rep.tflops.to_bits()).ok(), Some(top.to_bits()));
    }
}
