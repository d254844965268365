//! The Tawa compile driver end to end — Fig. 2a's flow from tile IR to
//! executable warp-specialized WSIR — through an in-memory
//! [`CompileSession`]: warp-specialized and SIMT paths, resource
//! infeasibilities, and the throughput relations the paper reports.

use gpu_sim::Device;
use tawa_core::{CompileError, CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, Tile};
use tawa_frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa_ir::types::DType;
use tawa_wsir::serialize_kernel;

fn dev() -> Device {
    Device::h100_sxm5()
}

fn session() -> CompileSession {
    CompileSession::in_memory(&dev())
}

#[test]
fn gemm_compiles_and_runs_ws() {
    let p = gemm(&GemmConfig::new(2048, 2048, 2048));
    let opts = CompileOptions::default();
    let report = session()
        .compile_and_simulate_program(&p, &opts)
        .expect("compile+sim");
    assert!(report.tflops > 100.0, "ws gemm too slow: {}", report.tflops);
    assert!(report.tflops < 989.0, "faster than peak: {}", report.tflops);
}

#[test]
fn gemm_compiles_and_runs_simt() {
    let p = gemm(&GemmConfig::new(2048, 2048, 2048));
    let opts = CompileOptions {
        warp_specialize: false,
        ..CompileOptions::default()
    };
    let report = session()
        .compile_and_simulate_program(&p, &opts)
        .expect("simt path");
    assert!(report.tflops > 10.0);
}

#[test]
fn ws_beats_simt_on_gemm() {
    let p = gemm(&GemmConfig::new(4096, 4096, 8192));
    let session = session();
    let ws = session
        .compile_and_simulate_program(&p, &CompileOptions::default())
        .unwrap();
    let simt = session
        .compile_and_simulate_program(
            &p,
            &CompileOptions {
                warp_specialize: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
    assert!(
        ws.tflops > simt.tflops,
        "warp specialization must win: ws={} simt={}",
        ws.tflops,
        simt.tflops
    );
}

#[test]
fn attention_compiles_causal_and_noncausal() {
    let session = session();
    for causal in [false, true] {
        let cfg = AttentionConfig {
            block_m: 64,
            ..AttentionConfig::paper(2048, causal, DType::F16)
        };
        let p = attention(&cfg);
        let report = session
            .compile_and_simulate_program(&p, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("causal={causal}: {e}"));
        assert!(report.tflops > 20.0, "causal={causal}: {}", report.tflops);
    }
}

#[test]
fn coarse_pipeline_beats_serial_attention() {
    // FA3-style configuration: Br=128 with two cooperative consumer
    // warp groups (the register-feasible large tile).
    let cfg = AttentionConfig::paper(4096, false, DType::F16);
    let p = attention(&cfg);
    let coop = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let session = session();
    let coarse = session.compile_and_simulate_program(&p, &coop).unwrap();
    let serial = session
        .compile_and_simulate_program(
            &p,
            &CompileOptions {
                coarse_pipeline: false,
                ..coop
            },
        )
        .unwrap();
    assert!(
        coarse.tflops > serial.tflops,
        "coarse={} serial={}",
        coarse.tflops,
        serial.tflops
    );
}

#[test]
fn small_qtile_attention_is_load_bound() {
    // Br=64 with a single consumer doubles bytes-per-flop: the kernel
    // becomes memory-bound — the mechanism behind the paper's
    // +Cooperative-WGs ablation jump (Fig. 12, 232 → 593 TFLOP/s).
    let small = AttentionConfig {
        block_m: 64,
        ..AttentionConfig::paper(4096, false, DType::F16)
    };
    let large = AttentionConfig::paper(4096, false, DType::F16);
    let small = attention(&small);
    let large = attention(&large);
    let session = session();
    let r_small = session
        .compile_and_simulate_program(&small, &CompileOptions::default())
        .unwrap();
    let r_large = session
        .compile_and_simulate_program(
            &large,
            &CompileOptions {
                cooperative: 2,
                ..CompileOptions::default()
            },
        )
        .unwrap();
    assert!(
        r_large.tflops > r_small.tflops * 1.5,
        "large tile + coop ({}) must far exceed small tile ({})",
        r_large.tflops,
        r_small.tflops
    );
}

#[test]
fn p_greater_than_d_is_infeasible() {
    let p = gemm(&GemmConfig::new(2048, 2048, 2048));
    let opts = CompileOptions {
        aref_depth: 1,
        mma_depth: 2,
        ..CompileOptions::default()
    };
    match session().compile_program(&p, &opts) {
        Err(CompileError::Infeasible(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn large_tile_needs_cooperative_warp_groups() {
    let p = gemm(&GemmConfig::new(2048, 2048, 2048).with_tile(Tile::LARGE));
    let single = CompileOptions {
        cooperative: 1,
        ..CompileOptions::default()
    };
    let session = session();
    assert!(
        matches!(
            session.compile_program(&p, &single),
            Err(CompileError::Infeasible(_))
        ),
        "128x256 tile must blow the register budget for one warp group"
    );
    let coop = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let report = session
        .compile_and_simulate_program(&p, &coop)
        .expect("coop path");
    assert!(report.tflops > 100.0);
}

#[test]
fn persistent_kernel_single_wave() {
    let p = gemm(&GemmConfig::new(8192, 8192, 4096));
    let opts = CompileOptions {
        persistent: true,
        aref_depth: 3,
        ..CompileOptions::default()
    };
    let session = session();
    let report = session
        .compile_and_simulate_program(&p, &opts)
        .expect("persistent");
    assert_eq!(report.waves, 1);
    let non = session
        .compile_and_simulate_program(
            &p,
            &CompileOptions {
                persistent: false,
                aref_depth: 3,
                ..CompileOptions::default()
            },
        )
        .unwrap();
    assert!(
        report.tflops > non.tflops,
        "persistent {} must beat non-persistent {}",
        report.tflops,
        non.tflops
    );
}

#[test]
fn persistent_grid_fills_each_sm_to_its_occupancy() {
    let p = gemm(&GemmConfig::new(8192, 8192, 4096));
    let opts = CompileOptions {
        persistent: true,
        aref_depth: 3,
        ..CompileOptions::default()
    };
    let kernel = session().compile_program(&p, &opts).expect("persistent");
    let d = dev();
    let resident = (d.sms as u64 * u64::from(d.occupancy(&kernel))).min(p.spec().grid_size());
    let ctas: u64 = kernel.classes.iter().map(|c| c.multiplicity).sum();
    assert_eq!(ctas, resident);
    // The resident CTAs loop over the grid's tiles between them.
    let tiles: u64 = kernel
        .classes
        .iter()
        .map(|c| c.params[0] * c.multiplicity)
        .sum();
    assert_eq!(tiles, p.spec().grid_size());
}

#[test]
fn deeper_aref_rings_help() {
    let p = gemm(&GemmConfig::new(8192, 8192, 8192));
    let session = session();
    let t = |d: usize| {
        session
            .compile_and_simulate_program(
                &p,
                &CompileOptions {
                    aref_depth: d,
                    mma_depth: 1,
                    ..CompileOptions::default()
                },
            )
            .unwrap()
            .tflops
    };
    let d1 = t(1);
    let d2 = t(2);
    let d3 = t(3);
    assert!(d2 > d1, "D=2 ({d2}) must beat D=1 ({d1})");
    // D=3 costs 50% more staging smem, which at this tile halves
    // occupancy — the shared-memory trade-off §V-E describes. It must
    // still clearly beat D=1 and stay near D=2.
    assert!(d3 > d1, "D=3 ({d3}) must beat D=1 ({d1})");
    assert!(
        d3 >= d2 * 0.9,
        "D=3 ({d3}) should not collapse vs D=2 ({d2})"
    );
}

#[test]
fn batched_and_grouped_compile() {
    let session = session();
    let p = batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(8));
    let r = session
        .compile_and_simulate_program(&p, &CompileOptions::default())
        .unwrap();
    assert!(r.tflops > 50.0);
    let p2 = grouped_gemm(&tawa_frontend::GroupedGemmConfig::paper_sweep(4));
    let r2 = session
        .compile_and_simulate_program(&p2, &CompileOptions::default())
        .unwrap();
    assert!(r2.tflops > 50.0);
}

#[test]
fn fp8_doubles_headroom() {
    let cfg16 = GemmConfig::new(4096, 4096, 8192);
    let cfg8 = cfg16.with_dtype(DType::F8E4M3);
    let p16 = gemm(&cfg16);
    let p8 = gemm(&cfg8);
    let opts = CompileOptions::default();
    let session = session();
    let r16 = session.compile_and_simulate_program(&p16, &opts).unwrap();
    let r8 = session.compile_and_simulate_program(&p8, &opts).unwrap();
    assert!(
        r8.tflops > r16.tflops * 1.2,
        "fp8 ({}) must clearly beat fp16 ({})",
        r8.tflops,
        r16.tflops
    );
}

#[test]
fn aref_programs_port_to_blackwell_projection() {
    // §VI: the same aref program should carry to newer architectures —
    // only the device model changes, not the compiler output shape.
    let p = gemm(&GemmConfig::new(8192, 8192, 8192));
    let opts = CompileOptions {
        aref_depth: 3,
        ..CompileOptions::default()
    };
    let h100 = CompileSession::in_memory(&Device::h100_sxm5())
        .compile_and_simulate_program(&p, &opts)
        .unwrap();
    let b200 = CompileSession::in_memory(&Device::b200_projection())
        .compile_and_simulate_program(&p, &opts)
        .unwrap();
    assert!(
        b200.tflops > h100.tflops * 1.3,
        "projection must scale: {} vs {}",
        b200.tflops,
        h100.tflops
    );
}

#[test]
fn generated_wsir_prints() {
    let p = gemm(&GemmConfig::new(1024, 1024, 512));
    let k = session()
        .compile_program(&p, &CompileOptions::default())
        .unwrap();
    let s = serialize_kernel(&k);
    assert!(s.contains("wgmma.issue"), "{s}");
    assert!(s.contains("tma.load"), "{s}");
    assert!(s.contains("mbar.wait"), "{s}");
}
