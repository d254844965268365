//! End-to-end coverage of the `tawa::dsl` redesign:
//!
//! * DSL-authored zoo programs hit the *same* cache entries as a program
//!   reassembled from their (module, spec) parts — fingerprints ignore
//!   source spans;
//! * a DSL-authored kernel that is NOT in the zoo (fused bias+GELU GEMM,
//!   mirroring `examples/dsl_custom_kernel.rs`) compiles, simulates, and
//!   round-trips the disk cache across a session restart byte-for-byte;
//! * compiler diagnostics for DSL-built IR carry the author's source
//!   location.

use std::path::PathBuf;

use tawa::core::{CompileError, CompileOptions};
use tawa::dsl::Program;
use tawa::frontend::config::GemmConfig;
use tawa::frontend::kernels::gemm;
use tawa::ir::types::DType;
use tawa::sim::Device;
use tawa::wsir::print_kernel;
use tawa::CompileSession;

/// The fused kernel under test IS the shipped example — included by
/// path so the e2e coverage cannot drift from what the example
/// demonstrates (its `main` is unused here).
#[path = "../examples/dsl_custom_kernel.rs"]
#[allow(dead_code)]
mod custom;
use custom::{bias_gelu_gemm, FusedGemmCfg};

fn dev() -> Device {
    Device::h100_sxm5()
}

fn fused(m: usize, n: usize, k: usize) -> Program {
    bias_gelu_gemm(&FusedGemmCfg {
        m,
        n,
        k,
        dtype: DType::F16,
    })
}

fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tawa-e2e-dsl-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn programs_and_reassembled_parts_share_cache_entries() {
    let session = CompileSession::in_memory(&dev());
    let program = gemm(&GemmConfig::new(1024, 1024, 512));
    let opts = CompileOptions::default();
    let a = session.compile_program(&program, &opts).unwrap();
    let (module, spec) = program.into_parts();
    let b = session
        .compile_program(&Program::from_parts(module, spec), &opts)
        .unwrap();
    assert_eq!(print_kernel(&a), print_kernel(&b));
    let stats = session.cache_stats();
    assert_eq!(
        (stats.kernel_misses, stats.kernel_hits),
        (1, 1),
        "one compile, one hit: the DSL program addresses the same entry"
    );
}

#[test]
fn custom_kernel_compiles_simulates_and_beats_simt() {
    let session = CompileSession::in_memory(&dev());
    let program = fused(4096, 4096, 4096);
    let ws = session
        .compile_and_simulate_program(&program, &CompileOptions::default())
        .expect("fused kernel must compile and simulate");
    assert!(ws.tflops > 100.0, "implausible throughput {}", ws.tflops);
    let simt = session
        .compile_and_simulate_program(
            &program,
            &CompileOptions {
                warp_specialize: false,
                ..CompileOptions::default()
            },
        )
        .expect("SIMT baseline must run too");
    assert!(
        ws.tflops > simt.tflops,
        "warp specialization must win: {} vs {}",
        ws.tflops,
        simt.tflops
    );
}

#[test]
fn custom_kernel_round_trips_the_disk_cache() {
    let dir = cache_dir("fused");
    let opts = CompileOptions::default();

    let cold_session = CompileSession::in_memory(&dev())
        .with_disk_cache(&dir)
        .unwrap();
    let program = fused(2048, 2048, 1024);
    let cold = cold_session.compile_program(&program, &opts).unwrap();
    assert_eq!(cold_session.cache_stats().disk.writes, 1);

    // Restarted session, rebuilt program (fresh ValueIds, fresh spans):
    // the content fingerprint matches, so the kernel comes from disk
    // byte-identically without a recompile.
    let warm_session = CompileSession::in_memory(&dev())
        .with_disk_cache(&dir)
        .unwrap();
    let rebuilt = fused(2048, 2048, 1024);
    assert_eq!(program.fingerprint(), rebuilt.fingerprint());
    let warm = warm_session.compile_program(&rebuilt, &opts).unwrap();
    let stats = warm_session.cache_stats();
    assert_eq!(stats.disk.hits, 1, "{stats:?}");
    assert_eq!(stats.kernel_misses, 0, "disk hit must skip the compile");
    assert_eq!(print_kernel(&cold), print_kernel(&warm));
    assert_eq!(*cold, *warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn infeasible_configuration_still_reported_for_dsl_programs() {
    let session = CompileSession::in_memory(&dev());
    let program = gemm(&GemmConfig::new(1024, 1024, 512));
    let bad = CompileOptions {
        aref_depth: 1,
        mma_depth: 3,
        ..CompileOptions::default()
    };
    assert!(matches!(
        session.compile_program(&program, &bad),
        Err(CompileError::Infeasible(_))
    ));
}

#[test]
fn dsl_spans_survive_into_compiler_ir() {
    // The warp-specialization pass clones user ops into producer/consumer
    // regions; the clones keep the author's spans, which is what lets
    // late diagnostics point at kernel source.
    let program = gemm(&GemmConfig::new(1024, 1024, 512));
    let mut module = program.module().clone();
    tawa::core::partition::warp_specialize_func(&mut module.funcs[0], 2).unwrap();
    let f = &module.funcs[0];
    let located = f.walk().iter().filter(|&&o| f.loc(o).is_some()).count();
    assert!(
        located > 10,
        "cloned warp-group bodies must keep source spans, found {located}"
    );
    assert!(f
        .walk()
        .iter()
        .filter_map(|&o| f.loc(o))
        .all(|l| l.file.ends_with("gemm.rs")));
}
