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
use tawa::ir::func::Module;
use tawa::ir::spec::LaunchSpec;
use tawa::sim::Device;
use tawa::wsir::Kernel;

/// Compile one frontend module and assert the resulting WSIR is usable.
fn compile_nonempty(family: &str, module: &Module, spec: &LaunchSpec) -> Arc<Kernel> {
    compile_nonempty_with(family, module, spec, &CompileOptions::default())
}

/// [`compile_nonempty`] with explicit compile options.
fn compile_nonempty_with(
    family: &str,
    module: &Module,
    spec: &LaunchSpec,
    opts: &CompileOptions,
) -> Arc<Kernel> {
    let kernel = CompileSession::in_memory(&Device::h100_sxm5())
        .compile(module, spec, opts)
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
    let (module, spec) = gemm(&GemmConfig::new(4096, 4096, 1024)).into_parts();
    compile_nonempty("gemm", &module, &spec);
}

#[test]
fn batched_gemm_family_compiles_to_nonempty_wsir() {
    let mut cfg = GemmConfig::new(2048, 2048, 1024);
    cfg.batch = 4;
    let (module, spec) = batched_gemm(&cfg).into_parts();
    compile_nonempty("batched_gemm", &module, &spec);
}

#[test]
fn attention_family_compiles_to_nonempty_wsir() {
    use tawa::ir::types::DType;
    for causal in [false, true] {
        let (module, spec) =
            attention(&AttentionConfig::paper(2048, causal, DType::F16)).into_parts();
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
            &module,
            &spec,
            &coop,
        );
    }
}

#[test]
fn grouped_gemm_family_compiles_to_nonempty_wsir() {
    let (module, spec) = grouped_gemm(&GroupedGemmConfig::paper_sweep(4)).into_parts();
    compile_nonempty("grouped_gemm", &module, &spec);
}

#[test]
fn warp_specialization_produces_specialized_roles() {
    use tawa::wsir::Role;
    let (module, spec) = gemm(&GemmConfig::new(4096, 4096, 1024)).into_parts();
    let kernel = compile_nonempty("gemm", &module, &spec);
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
