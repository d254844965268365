//! WSIR serialization round-trips for real compiler output: property-
//! tested across all four kernel families (GEMM, batched GEMM, grouped
//! GEMM, multi-head attention) and the autotuner's option axes —
//! `deserialize(serialize(k))` must reproduce the compiled kernel
//! exactly, and serialization must be a byte-level fixpoint.

use proptest::prelude::*;

use tawa::core::CompileOptions;
use tawa::frontend::config::{AttentionConfig, GemmConfig};
use tawa::frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa::frontend::GroupedGemmConfig;
use tawa::ir::types::DType;
use tawa::sim::Device;
use tawa::wsir::{deserialize_kernel, serialize_kernel};
use tawa::{CompileSession, Program};

/// Strategy over (family name, program) covering all four kernel
/// families at a mix of shapes.
fn families() -> impl Strategy<Value = (&'static str, Program)> {
    prop_oneof![
        (
            prop_oneof![Just(1024usize), Just(2048)],
            prop_oneof![Just(512usize), Just(2048)],
        )
            .prop_map(|(mn, k)| ("gemm", gemm(&GemmConfig::new(mn, mn, k)))),
        prop_oneof![Just(2usize), Just(8)].prop_map(|b| (
            "batched_gemm",
            batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(b)),
        )),
        prop_oneof![Just(2usize), Just(4)].prop_map(|g| (
            "grouped_gemm",
            grouped_gemm(&GroupedGemmConfig::paper_sweep(g)),
        )),
        (
            prop_oneof![Just(1024usize), Just(4096)],
            prop_oneof![Just(false), Just(true)],
        )
            .prop_map(|(l, causal)| {
                let cfg = AttentionConfig {
                    block_m: 64,
                    ..AttentionConfig::paper(l, causal, DType::F16)
                };
                ("attention", attention(&cfg))
            }),
    ]
}

/// Feasible compile options: `P ≤ D`, modest depths, both persistence
/// settings, with and without warp specialization.
fn feasible_options() -> impl Strategy<Value = CompileOptions> {
    (
        1usize..4,
        1usize..4,
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(d, p, persistent, warp_specialize)| CompileOptions {
            aref_depth: d.max(p),
            mma_depth: p,
            persistent,
            warp_specialize,
            ..CompileOptions::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_kernels_round_trip_through_serialization(
        (family, program) in families(),
        opts in feasible_options(),
    ) {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let kernel = match session.compile_program(&program, &opts) {
            Ok(k) => k,
            // Legitimately pruned points (e.g. persistent causal
            // attention has non-uniform trip counts) are skipped: the
            // property is about kernels that exist.
            Err(tawa::core::CompileError::Infeasible(_))
            | Err(tawa::core::CompileError::Unsupported(_)) => return Ok(()),
            Err(e) => return Err(format!("{family}: compile failed: {e}")),
        };

        let text = serialize_kernel(&kernel);
        let back = deserialize_kernel(&text)
            .map_err(|e| format!("{family}: deserialize failed: {e}\n{text}"))?;

        // Full structural equality and byte-level stability of the
        // format itself.
        prop_assert_eq!(&*kernel, &back, "{} round-trip diverged", family);
        prop_assert_eq!(serialize_kernel(&back), text);
    }
}
