//! Never-panic properties for the IR readers and the IR lints: arbitrary
//! bytes, and zoo texts with bytes spliced in, into the IR text parser and
//! the pipeline-spec parser; and `analyze_ir` over every printed zoo
//! module, raw and warp-specialized, with one line deleted, whenever that
//! still parses. A reader may refuse its input with an error, and a lint
//! may fire on a malformed module; neither may panic.

use std::sync::OnceLock;

use proptest::prelude::*;

use tawa_core::session::tawa_pass_registry;
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig};
use tawa_frontend::kernels::{attention, batched_gemm, gemm};
use tawa_ir::parse::parse_module;
use tawa_ir::pipeline_spec::PipelineSpec;
use tawa_ir::print::print_module;
use tawa_ir::types::DType;

/// The printed zoo modules: each distinct raw module, then the same after
/// the default warp-specialization pipeline.
fn zoo_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(print_zoo)
}

fn print_zoo() -> Vec<String> {
    let gemm_cfg = GemmConfig::new(1024, 1024, 512);
    let attn = |causal, dtype| attention(&AttentionConfig::paper(1024, causal, dtype));
    let programs = [
        gemm(&gemm_cfg),
        gemm(&gemm_cfg.with_dtype(DType::F8E4M3)),
        batched_gemm(&gemm_cfg.with_batch(4)),
        attn(false, DType::F16),
        attn(true, DType::F16),
        attn(false, DType::F8E4M3),
        attn(true, DType::F8E4M3),
    ];
    let spec = CompileSession::pipeline_spec(&CompileOptions::default()).unwrap();
    let registry = tawa_pass_registry();
    let mut texts = Vec::new();
    for program in &programs {
        let mut module = program.module().clone();
        texts.push(print_module(&module));
        spec.build(&registry).unwrap().run(&mut module).unwrap();
        texts.push(print_module(&module));
    }
    texts
}

/// The default warp-specialization pipeline, as text.
const SPEC: &str = "const-fold,dce,warp-specialize{depth=2},fine-grained-pipeline{depth=2},\
                    coarse-pipeline,dce";

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), len)
}

/// `text` with the bytes from `at` (wrapped into range) replaced by
/// `splice`, each byte cut to ASCII half the time so the text stays
/// token-like, read back lossily.
fn spliced(text: &str, at: usize, cut: usize, splice: &[u8]) -> String {
    let mut out = text.as_bytes().to_vec();
    let at = at % (out.len() + 1);
    let end = (at + cut).min(out.len());
    let splice = splice
        .iter()
        .map(|&b| if b & 1 == 0 { b & 0x7f } else { b });
    out.splice(at..end, splice);
    String::from_utf8_lossy(&out).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(raw in bytes(0..256)) {
        let text = String::from_utf8_lossy(&raw);
        let _ = parse_module(&text);
        let _ = PipelineSpec::parse(&text);
    }

    #[test]
    fn spliced_texts_never_panic_the_parsers(
        (which, at, cut, splice) in (0usize..64, 0usize..1 << 16, 0usize..16, bytes(0..12)),
    ) {
        let texts = zoo_texts();
        let text = spliced(&texts[which % texts.len()], at, cut, &splice);
        if let Ok(module) = parse_module(&text) {
            let _ = tawa_wsir::analyze_ir(&module);
        }
        let _ = PipelineSpec::parse(&spliced(SPEC, at, cut, &splice));
    }
}

#[test]
fn analyze_ir_never_panics_on_a_zoo_module_missing_a_line() {
    let mut parsed = 0;
    for text in zoo_texts() {
        let lines: Vec<&str> = text.lines().collect();
        for skip in 0..lines.len() {
            let variant: Vec<&str> = [&lines[..skip], &lines[skip + 1..]].concat();
            if let Ok(module) = parse_module(&variant.join("\n")) {
                let _ = tawa_wsir::analyze_ir(&module);
                parsed += 1;
            }
        }
    }
    // Deleting a store, a put or a yield leaves a module that parses.
    assert!(parsed > 0);
}
