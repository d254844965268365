//! End-to-end attention: the coarse-grained pipeline, causal classes and
//! the FA3 comparison (paper §V-D).

use tawa::core::{CompileOptions, CompileSession};
use tawa::frontend::config::AttentionConfig;
use tawa::frontend::kernels::attention;
use tawa::ir::types::DType;
use tawa::kernels::frameworks as fw;
use tawa::sim::Device;

fn dev() -> Device {
    Device::h100_sxm5()
}

fn coop() -> CompileOptions {
    CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    }
}

#[test]
fn attention_compiles_to_three_warp_groups() {
    let p = attention(&AttentionConfig::paper(2048, false, DType::F16));
    let k = CompileSession::in_memory(&dev())
        .compile_program(&p, &coop())
        .unwrap();
    assert_eq!(k.warp_groups.len(), 3); // producer + 2 cooperative consumers
    assert!(k.barriers.len() >= 8, "K and V rings need 2·2·D barriers");
}

#[test]
fn causal_attention_runs_all_classes() {
    let cfg = AttentionConfig::paper(4096, true, DType::F16);
    let p = attention(&cfg);
    let session = CompileSession::in_memory(&dev());
    let r = session.compile_and_simulate_program(&p, &coop()).unwrap();
    assert!(r.tflops > 100.0, "{}", r.tflops);
    // Causal throughput (counting only visited tiles) lands in the same
    // band as non-causal, slightly lower (mask work + short rows).
    let pn = attention(&AttentionConfig::paper(4096, false, DType::F16));
    let rn = session.compile_and_simulate_program(&pn, &coop()).unwrap();
    assert!(
        r.tflops < rn.tflops,
        "causal {} should trail non-causal {}",
        r.tflops,
        rn.tflops
    );
    assert!(
        r.tflops > rn.tflops * 0.5,
        "causal {} too far below non-causal {}",
        r.tflops,
        rn.tflops
    );
}

#[test]
fn tawa_attains_high_fraction_of_fa3() {
    let d = dev();
    let session = CompileSession::in_memory(&d);
    for (dtype, floor) in [(DType::F16, 0.85), (DType::F8E4M3, 0.75)] {
        let cfg = AttentionConfig::paper(16384, false, dtype);
        let tawa = fw::tawa_attention(&cfg, &session).unwrap().tflops;
        let fa3 = fw::fa3_attention(&cfg, &d).unwrap().tflops;
        let frac = tawa / fa3;
        assert!(
            frac >= floor && frac <= 1.02,
            "{dtype}: tawa/fa3 = {frac} ({tawa} vs {fa3})"
        );
    }
}

#[test]
fn tawa_beats_triton_attention_at_long_sequences() {
    let session = CompileSession::in_memory(&dev());
    let cfg = AttentionConfig::paper(16384, false, DType::F16);
    let tawa = fw::tawa_attention(&cfg, &session).unwrap().tflops;
    let triton = fw::triton_attention(&cfg, &session).unwrap().tflops;
    let speedup = tawa / triton;
    assert!(
        speedup > 1.05,
        "tawa {tawa} vs triton {triton} ({speedup}x)"
    );
}

#[test]
fn short_sequences_mute_warp_specialization() {
    // §V-D: "At short sequences, the advantage of warp specialization is
    // muted because prologue, epilogue, and barrier costs are not yet
    // amortized."
    let session = CompileSession::in_memory(&dev());
    let speedup_at = |l: usize| {
        let cfg = AttentionConfig::paper(l, false, DType::F16);
        let tawa = fw::tawa_attention(&cfg, &session).unwrap().tflops;
        let triton = fw::triton_attention(&cfg, &session).unwrap().tflops;
        tawa / triton
    };
    let short = speedup_at(1024);
    let long = speedup_at(16384);
    assert!(
        long > short,
        "speedup must grow with L: {short} at 1K vs {long} at 16K"
    );
}

#[test]
fn fp8_attention_exceeds_fp16() {
    let session = CompileSession::in_memory(&dev());
    let f16 = fw::tawa_attention(&AttentionConfig::paper(16384, false, DType::F16), &session)
        .unwrap()
        .tflops;
    let f8 = fw::tawa_attention(
        &AttentionConfig::paper(16384, false, DType::F8E4M3),
        &session,
    )
    .unwrap()
    .tflops;
    assert!(f8 > f16, "fp8 {f8} vs fp16 {f16}");
}
