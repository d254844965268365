//! End-to-end GEMM: frontend → Tawa compiler → simulator, checking the
//! paper's headline GEMM claims hold across shapes and precisions.

use tawa::core::{CompileOptions, CompileSession};
use tawa::frontend::config::{GemmConfig, Tile};
use tawa::frontend::kernels::{batched_gemm, gemm};
use tawa::ir::types::DType;
use tawa::kernels::frameworks as fw;
use tawa::sim::{simulate, Device};

fn dev() -> Device {
    Device::h100_sxm5()
}

#[test]
fn full_pipeline_produces_valid_wsir() {
    let p = gemm(&GemmConfig::new(4096, 4096, 4096));
    let k = CompileSession::in_memory(&dev())
        .compile_program(&p, &CompileOptions::default())
        .unwrap();
    tawa::wsir::validate(&k).unwrap();
    assert_eq!(k.warp_groups.len(), 2); // producer + 1 consumer
    let r = simulate(&k, &dev()).unwrap();
    assert!(r.tflops > 100.0);
}

#[test]
fn warp_specialization_beats_software_pipelining_across_k() {
    let session = CompileSession::in_memory(&dev());
    for k in [1024usize, 4096, 16384] {
        let cfg = GemmConfig::new(8192, 8192, k).with_tile(Tile::LARGE);
        let p = gemm(&cfg);
        let ws = session
            .compile_and_simulate_program(
                &p,
                &CompileOptions {
                    cooperative: 2,
                    aref_depth: 3,
                    ..CompileOptions::default()
                },
            )
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
            "K={k}: ws {} vs simt {}",
            ws.tflops,
            simt.tflops
        );
    }
}

#[test]
fn tawa_matches_cublas_at_large_k_within_10pct() {
    let d = dev();
    let session = CompileSession::in_memory(&d);
    let cfg = GemmConfig::new(8192, 8192, 16384);
    let tawa = fw::tawa_gemm(&cfg, &session).unwrap().tflops;
    let cublas = fw::cublas_gemm(&cfg, &d).unwrap().tflops;
    let ratio = tawa / cublas;
    assert!(
        (0.9..=1.15).contains(&ratio),
        "tawa {tawa} vs cublas {cublas}"
    );
}

#[test]
fn fp8_roughly_doubles_large_k_throughput() {
    let session = CompileSession::in_memory(&dev());
    let f16 = fw::tawa_gemm(&GemmConfig::new(8192, 8192, 16384), &session)
        .unwrap()
        .tflops;
    let f8 = fw::tawa_gemm(
        &GemmConfig::new(8192, 8192, 16384).with_dtype(DType::F8E4M3),
        &session,
    )
    .unwrap()
    .tflops;
    let ratio = f8 / f16;
    assert!(
        (1.3..=2.2).contains(&ratio),
        "fp8/fp16 = {ratio} ({f8} vs {f16})"
    );
}

#[test]
fn batched_gemm_full_pipeline() {
    let cfg = GemmConfig::new(2048, 2048, 2048).with_batch(8);
    let p = batched_gemm(&cfg);
    let r = CompileSession::in_memory(&dev())
        .compile_and_simulate_program(&p, &CompileOptions::default())
        .unwrap();
    assert!(r.tflops > 100.0, "{}", r.tflops);
    // Conservation: loaded bytes = batch × k-tiles × (A tile + B tile).
    let expected = 8 * (2048 / 64) * (128 * 64 + 128 * 64) * 2 * (cfg.grid() / 8);
    assert_eq!(r.bytes_loaded, expected);
}

#[test]
fn hardware_utilization_is_plausible() {
    // The paper reports up to ~79% utilization; the simulator must keep
    // every framework in a physically sensible band.
    let d = dev();
    let session = CompileSession::in_memory(&d);
    let cfg = GemmConfig::new(8192, 8192, 8192);
    for (name, r) in [
        ("tawa", fw::tawa_gemm(&cfg, &session)),
        ("cublas", fw::cublas_gemm(&cfg, &d)),
    ] {
        let util = r.unwrap().tflops / 989.4;
        assert!((0.4..=0.95).contains(&util), "{name} utilization {util}");
    }
}
