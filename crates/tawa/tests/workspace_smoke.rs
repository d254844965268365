//! Workspace smoke test: every kernel family in the frontend zoo must
//! compile through an in-memory `CompileSession` into non-empty WSIR.
//!
//! This is deliberately shallow — it asserts only that the frontend →
//! compiler → WSIR path stays wired together for each family, so a
//! refactor that silently breaks a whole kernel family fails fast here
//! even if no deeper numeric or performance test happens to cover it.

use std::sync::Arc;

use tawa::core::{CompileOptions, CompileSession};
use tawa::frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::sim::Device;
use tawa::wsir::Kernel;
use tawa::Program;

/// Compile one frontend program and assert the resulting WSIR is usable.
fn compile_nonempty(family: &str, program: &Program) -> Arc<Kernel> {
    compile_nonempty_with(family, program, &CompileOptions::default())
}

/// [`compile_nonempty`] with explicit compile options.
fn compile_nonempty_with(family: &str, program: &Program, opts: &CompileOptions) -> Arc<Kernel> {
    let kernel = CompileSession::in_memory(&Device::h100_sxm5())
        .compile_program(program, opts)
        .unwrap_or_else(|e| panic!("{family}: compilation failed: {e}"));
    assert!(
        !kernel.warp_groups.is_empty(),
        "{family}: compiled kernel has no warp groups"
    );
    assert!(
        kernel.warp_groups.iter().any(|wg| !wg.body.is_empty()),
        "{family}: every warp group body is empty"
    );
    assert!(
        kernel.grid_size() > 0,
        "{family}: compiled kernel launches an empty grid"
    );
    kernel
}

#[test]
fn gemm_family_compiles_to_nonempty_wsir() {
    let program = gemm(&GemmConfig::new(4096, 4096, 1024));
    compile_nonempty("gemm", &program);
}

#[test]
fn batched_gemm_family_compiles_to_nonempty_wsir() {
    let mut cfg = GemmConfig::new(2048, 2048, 1024);
    cfg.batch = 4;
    let program = batched_gemm(&cfg);
    compile_nonempty("batched_gemm", &program);
}

#[test]
fn attention_family_compiles_to_nonempty_wsir() {
    use tawa::ir::types::DType;
    for causal in [false, true] {
        let program = attention(&AttentionConfig::paper(2048, causal, DType::F16));
        // Attention's register pressure requires the paper's cooperative
        // warp groups (§IV-A); a single consumer group does not fit.
        let coop = CompileOptions {
            cooperative: 2,
            ..CompileOptions::default()
        };
        compile_nonempty_with(
            if causal {
                "attention(causal)"
            } else {
                "attention"
            },
            &program,
            &coop,
        );
    }
}

#[test]
fn grouped_gemm_family_compiles_to_nonempty_wsir() {
    let program = grouped_gemm(&GroupedGemmConfig::paper_sweep(4));
    compile_nonempty("grouped_gemm", &program);
}

#[test]
fn warp_specialization_produces_specialized_roles() {
    use tawa::wsir::Role;
    let program = gemm(&GemmConfig::new(4096, 4096, 1024));
    let kernel = compile_nonempty("gemm", &program);
    let has_producer = kernel
        .warp_groups
        .iter()
        .any(|wg| matches!(wg.role, Role::Producer));
    let has_consumer = kernel
        .warp_groups
        .iter()
        .any(|wg| matches!(wg.role, Role::Consumer));
    assert!(
        has_producer && has_consumer,
        "warp specialization must emit at least one producer and one consumer group"
    );
}
