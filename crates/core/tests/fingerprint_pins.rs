//! Pins behind "fingerprint once, never between passes".
//!
//! Every literal in this file was captured by running the commit *before*
//! passes started reporting `changed` themselves and before the module
//! hash started streaming, so they prove two things about any later
//! commit: a cache directory or a `tawa-cached` store written back then
//! keeps serving (module fingerprints are bit-identical), and the pass
//! manager makes the same decisions it made when it re-printed the module
//! around every pass (same `changed` bits, so the same fixpoint rounds and
//! verifier runs). The zoo rows after `grouped_gemm_f16` were captured
//! later, on the last commit that still checked the DSL zoo byte for byte
//! against hand-built reference modules, so they pin that equality too.

use gpu_sim::Device;
use tawa_core::autotune::TuneSpace;
use tawa_core::partition::WarpSpecialize;
use tawa_core::pipeline::{CoarsePipeline, FineGrainedPipeline};
use tawa_core::session::{tawa_pass_registry, CLEANUP_PIPELINE};
use tawa_core::{CompileError, CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig};
use tawa_frontend::dsl::Program;
use tawa_frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa_ir::fingerprint::{fnv1a, module_fingerprint};
use tawa_ir::func::Module;
use tawa_ir::pass::Pass;
use tawa_ir::pipeline_spec::PipelineSpec;
use tawa_ir::print::print_module;
use tawa_ir::transforms::{ConstFold, Dce};
use tawa_ir::types::DType;
use tawa_wsir::serialize_kernel;

/// One program per kernel family and dtype.
fn zoo() -> Vec<(&'static str, Program)> {
    let gemm_cfg = GemmConfig::new(8192, 8192, 512);
    let attn = |causal, dtype| attention(&AttentionConfig::paper(1024, causal, dtype));
    vec![
        ("gemm_f16", gemm(&gemm_cfg)),
        ("gemm_f8", gemm(&gemm_cfg.with_dtype(DType::F8E4M3))),
        (
            "batched_gemm_f16",
            batched_gemm(&GemmConfig::new(1024, 1024, 512).with_batch(4)),
        ),
        ("attention_f16", attn(false, DType::F16)),
        ("attention_causal_f16", attn(true, DType::F16)),
        ("attention_f8", attn(false, DType::F8E4M3)),
        ("attention_causal_f8", attn(true, DType::F8E4M3)),
        (
            "grouped_gemm_f16",
            grouped_gemm(&GroupedGemmConfig::paper_sweep(4)),
        ),
        // The configurations the DSL zoo was first checked against, byte
        // for byte, when it replaced hand-built modules.
        ("gemm_512_f16", gemm(&GemmConfig::new(512, 512, 256))),
        ("gemm_4096_f16", gemm(&GemmConfig::new(4096, 4096, 4096))),
        (
            "gemm_1024_f8",
            gemm(&GemmConfig::new(1024, 1024, 512).with_dtype(DType::F8E4M3)),
        ),
        (
            "batched_gemm_b8_f16",
            batched_gemm(&GemmConfig::new(1024, 1024, 1024).with_batch(8)),
        ),
        (
            "grouped_gemm_3_f16",
            grouped_gemm(&GroupedGemmConfig::paper_sweep(3)),
        ),
    ]
}

#[test]
fn zoo_module_fingerprints_are_the_parents() {
    // Persistence, depths and cooperation are `CompileOptions`, hashed
    // into `env_fp` (pinned in `session.rs`); problem sizes are kernel
    // arguments, so every GEMM of one dtype and tile shares a module, and
    // the grouped GEMM re-binds the fused GEMM body, hence the shared
    // values.
    let golden: [(&str, u64); 13] = [
        ("gemm_f16", 0xbd2abd278d866b2f),
        ("gemm_f8", 0x328e02ccb4afda3f),
        ("batched_gemm_f16", 0x34802cb93422b167),
        ("attention_f16", 0x926c4a0e125f65b7),
        ("attention_causal_f16", 0xc782bd632477d9a4),
        ("attention_f8", 0x074fe747abf30b45),
        ("attention_causal_f8", 0xdc56ca3fce038478),
        ("grouped_gemm_f16", 0xbd2abd278d866b2f),
        ("gemm_512_f16", 0xbd2abd278d866b2f),
        ("gemm_4096_f16", 0xbd2abd278d866b2f),
        ("gemm_1024_f8", 0x328e02ccb4afda3f),
        ("batched_gemm_b8_f16", 0x34802cb93422b167),
        ("grouped_gemm_3_f16", 0xbd2abd278d866b2f),
    ];
    assert_eq!(zoo().len(), golden.len());
    for ((name, program), (golden_name, fp)) in zoo().into_iter().zip(golden) {
        assert_eq!(name, golden_name);
        let module = program.module();
        assert_eq!(module_fingerprint(module), fp, "{name}: fingerprint moved");
        // The streamed hash is the hash of the printed text.
        assert_eq!(fnv1a(print_module(module).as_bytes()), fp, "{name}");
    }
}

#[test]
fn grouped_gemm_shares_the_fused_gemm_module() {
    let cfg = GroupedGemmConfig::paper_sweep(3);
    let fused = GemmConfig {
        m: cfg.group_ms.iter().sum(),
        n: cfg.n,
        k: cfg.k,
        batch: 1,
        dtype: cfg.dtype,
        tile: cfg.tile,
    };
    assert_eq!(
        print_module(grouped_gemm(&cfg).module()),
        print_module(gemm(&fused).module())
    );
}

#[test]
fn program_fingerprint_is_remembered_and_stable() {
    for (name, program) in zoo() {
        let fp = module_fingerprint(program.module());
        let fresh_clone = program.clone();
        assert_eq!(program.fingerprint(), fp, "{name}");
        assert_eq!(program.fingerprint(), fp, "{name}: second read");
        assert_eq!(fresh_clone.fingerprint(), fp, "{name}: cloned before use");
        assert_eq!(program.clone().fingerprint(), fp, "{name}: cloned after");
        let spec = program.spec().clone();
        assert_eq!(program.with_launch(spec).fingerprint(), fp, "{name}");
    }
}

/// `(name, changed)` per executed pass, as the manager recorded it.
fn stat_bits(spec: &PipelineSpec, module: &mut Module) -> Vec<(String, bool)> {
    let mut pm = spec.build(&tawa_pass_registry()).unwrap();
    pm.run(module).unwrap();
    pm.stats()
        .iter()
        .map(|s| (s.name.clone(), s.changed))
        .collect()
}

fn bits(expected: &[(&str, bool)]) -> Vec<(String, bool)> {
    expected.iter().map(|&(n, c)| (n.to_string(), c)).collect()
}

#[test]
fn pass_stat_sequences_are_the_parents() {
    let opts = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    let cleanup = PipelineSpec::parse(CLEANUP_PIPELINE).unwrap();
    let full = CompileSession::pipeline_spec(&opts).unwrap();
    let tail = PipelineSpec {
        stages: full.stages[cleanup.stages.len()..].to_vec(),
    };
    // Two rounds of the fixpoint group — one that cleans, one that
    // observes the fixpoint — for every kernel.
    let cleanup_bits = bits(&[
        ("const-fold", true),
        ("dce", true),
        ("const-fold", false),
        ("dce", false),
    ]);

    let mut m = gemm(&GemmConfig::new(8192, 8192, 512)).into_parts().0;
    assert_eq!(stat_bits(&cleanup, &mut m), cleanup_bits);
    assert_eq!(
        stat_bits(&tail, &mut m),
        bits(&[
            ("warp-specialize", true),
            ("fine-grained-pipeline", true),
            ("coarse-pipeline", false),
            ("dce", false),
        ])
    );

    let mut m = attention(&AttentionConfig::paper(1024, false, DType::F16))
        .into_parts()
        .0;
    assert_eq!(stat_bits(&cleanup, &mut m), cleanup_bits);
    assert_eq!(
        stat_bits(&tail, &mut m),
        bits(&[
            ("warp-specialize", true),
            ("fine-grained-pipeline", false),
            ("coarse-pipeline", true),
            ("dce", true),
        ])
    );
}

#[test]
fn builtin_passes_report_changed_exactly() {
    for (name, program) in zoo() {
        for aref_depth in 1..=3 {
            for mma_depth in 1..=3 {
                // The Fig. 11 grid: cleanup to its fixpoint (two rounds),
                // then the tail — and the tail once more, where every
                // pass but the `dot_wait` splice is idempotent.
                let passes: Vec<Box<dyn Pass>> = vec![
                    Box::new(ConstFold),
                    Box::new(Dce),
                    Box::new(ConstFold),
                    Box::new(Dce),
                    Box::new(WarpSpecialize { depth: aref_depth }),
                    Box::new(FineGrainedPipeline { depth: mma_depth }),
                    Box::new(CoarsePipeline),
                    Box::new(Dce),
                    Box::new(FineGrainedPipeline { depth: mma_depth }),
                    Box::new(CoarsePipeline),
                    Box::new(Dce),
                ];
                let mut module = program.module().clone();
                let mut fp = module_fingerprint(&module);
                for (i, pass) in passes.iter().enumerate() {
                    let reported = pass.run(&mut module).unwrap();
                    let after = module_fingerprint(&module);
                    assert_eq!(
                        reported,
                        after != fp,
                        "{name} D={aref_depth} P={mma_depth}: step {i} `{}`",
                        pass.name()
                    );
                    fp = after;
                }
            }
        }
    }
}

#[test]
fn a_memoized_program_on_a_warm_session_moves_only_sim_hits() {
    let session = CompileSession::in_memory(&Device::h100_sxm5());
    let program = gemm(&GemmConfig::new(8192, 8192, 512));
    let opts = CompileOptions::default();
    let counters = |s: &CompileSession| {
        let c = s.cache_stats();
        (c.kernel_hits, c.kernel_misses, c.sim_hits, c.sim_misses)
    };
    let cold = session
        .compile_and_simulate_program(&program, &opts)
        .unwrap();
    assert_eq!(counters(&session), (0, 1, 0, 1));
    // The fingerprint is now remembered; the repeat is one sim-slot hit
    // in memory and nothing else, exactly as when the module was
    // re-printed for its key.
    let warm = session
        .compile_and_simulate_program(&program, &opts)
        .unwrap();
    assert_eq!(counters(&session), (0, 1, 1, 1));
    assert_eq!(cold, warm);
    // A program rebuilt from its parts lands on the same key.
    let (module, spec) = program.clone().into_parts();
    session
        .compile_and_simulate_program(&Program::from_parts(module, spec), &opts)
        .unwrap();
    assert_eq!(counters(&session), (0, 1, 2, 1));
}

/// Every Fig. 11 candidate of every zoo program runs, or is pruned as
/// infeasible or unsupported. A `Pass` or `Simulation` error is a compiler
/// bug — a pass output the verifier rejects, a schedule that deadlocks —
/// which a sweep would otherwise show only as a zero cell.
#[test]
fn fig11_candidates_run_or_are_pruned_never_fail() {
    let session = CompileSession::in_memory(&Device::h100_sxm5());
    let space = TuneSpace::fig11(false);
    for (name, program) in zoo() {
        for &persistent in &space.persistent {
            for &cooperative in &space.cooperative {
                for &aref_depth in &space.aref_depths {
                    for &mma_depth in &space.mma_depths {
                        let opts = CompileOptions {
                            aref_depth,
                            mma_depth,
                            cooperative,
                            persistent,
                            ..CompileOptions::default()
                        };
                        match session.compile_and_simulate_program(&program, &opts) {
                            Ok(_)
                            | Err(CompileError::Infeasible(_) | CompileError::Unsupported(_)) => {}
                            Err(e) => panic!("{name} D={aref_depth} P={mma_depth}: {e}"),
                        }
                    }
                }
            }
        }
    }
}

/// The lowering of every zoo program over the whole option grid — warp
/// specialization, persistence, cooperation, both depths and the coarse
/// pipeline — on two devices, folded into one FNV-1a digest per (program,
/// device): each configuration contributes its `wsir 1` text, or the
/// `CompileError` message when it does not compile. The literals were
/// captured before `lower.rs` was rewritten as a per-op translation, so
/// they pin that every kernel and every refusal stayed byte for byte.
#[test]
fn zoo_lowerings_are_the_parents() {
    let golden: [(&str, u64, u64); 13] = [
        ("gemm_f16", 0x09620c51ced38923, 0x095cf5cc353d8249),
        ("gemm_f8", 0xc4f9ebc01f977f89, 0xc868c6547fcea2a1),
        ("batched_gemm_f16", 0x7ce27d77407884d5, 0x13e0b516f785b475),
        ("attention_f16", 0xcc1152e0708521d3, 0x1a5d25194ce411a3),
        (
            "attention_causal_f16",
            0x2157913d4bbe0ea7,
            0x927bf30c2139997f,
        ),
        ("attention_f8", 0x789779118f0e8fc7, 0xcd55b333273d2059),
        (
            "attention_causal_f8",
            0x77ea2cd23ed54b05,
            0x77ea2cd23ed54b05,
        ),
        ("grouped_gemm_f16", 0x0c5370c61dd391b9, 0x30d3b7fc04174beb),
        ("gemm_512_f16", 0xa63ff122c8a5ce9b, 0xa63ff122c8a5ce9b),
        ("gemm_4096_f16", 0x1948a997675d12cd, 0xc5ad5a869871d151),
        ("gemm_1024_f8", 0x28b73d2148b796d5, 0x28b73d2148b796d5),
        (
            "batched_gemm_b8_f16",
            0xf1bcb3e0a4f461cf,
            0xa54562f4558ba877,
        ),
        ("grouped_gemm_3_f16", 0x5dd296614f49a34f, 0xb5d4de3d6623507f),
    ];
    let devices = [Device::h100_sxm5(), Device::b200_projection()];
    let sessions = devices.each_ref().map(CompileSession::in_memory);
    assert_eq!(zoo().len(), golden.len());
    for ((name, program), (golden_name, h100, b200)) in zoo().into_iter().zip(golden) {
        assert_eq!(name, golden_name);
        for (session, want) in sessions.iter().zip([h100, b200]) {
            let mut texts = String::new();
            for warp_specialize in [true, false] {
                for persistent in [false, true] {
                    for cooperative in [1, 2] {
                        for aref_depth in 1..=3 {
                            for mma_depth in 1..=3 {
                                for coarse_pipeline in [true, false] {
                                    let opts = CompileOptions {
                                        warp_specialize,
                                        persistent,
                                        cooperative,
                                        aref_depth,
                                        mma_depth,
                                        coarse_pipeline,
                                        ..CompileOptions::default()
                                    };
                                    texts.push_str(&format!(
                                        "ws={warp_specialize} persistent={persistent} \
                                         coop={cooperative} D={aref_depth} P={mma_depth} \
                                         coarse={coarse_pipeline}\n"
                                    ));
                                    match session.compile_program(&program, &opts) {
                                        Ok(k) => texts.push_str(&serialize_kernel(&k)),
                                        Err(e) => texts.push_str(&format!("{e}\n")),
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let digest = fnv1a(texts.as_bytes());
            assert_eq!(
                digest,
                want,
                "{name} on {}: a lowering moved",
                session.device().name
            );
        }
    }
}
