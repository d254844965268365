//! Baseline-framework integration tests: relative ordering across the
//! whole framework matrix (the qualitative content of Figs. 8-10).

use gpu_sim::Device;
use tawa::frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig};
use tawa::ir::types::DType;
use tawa::kernels::frameworks as fw;
use tawa::CompileSession;

fn dev() -> Device {
    Device::h100_sxm5()
}

#[test]
fn gemm_framework_matrix_runs() {
    let d = dev();
    let session = CompileSession::in_memory(&d);
    for dtype in [DType::F16, DType::F8E4M3] {
        let cfg = GemmConfig::new(8192, 8192, 8192).with_dtype(dtype);
        let results = [
            ("cublas", fw::cublas_gemm(&cfg, &d)),
            ("tawa", fw::tawa_gemm(&cfg, &session)),
            ("triton", fw::triton_gemm(&cfg, &session)),
            ("tilelang", fw::tilelang_gemm(&cfg, &d)),
            ("tk", fw::thunderkittens_gemm(&cfg, &d)),
        ];
        for (name, r) in results {
            let r = r.unwrap_or_else(|e| panic!("{name} {dtype}: {e}"));
            assert!(r.tflops > 100.0, "{name} {dtype}: {}", r.tflops);
        }
    }
}

#[test]
fn fp8_smallk_punishes_untuned_libraries() {
    // §V-B: TileLang and ThunderKittens trail by up to ~1.6× at small K
    // in FP8.
    let d = dev();
    let session = CompileSession::in_memory(&d);
    let cfg = GemmConfig::new(8192, 8192, 1024).with_dtype(DType::F8E4M3);
    let tawa = fw::tawa_gemm(&cfg, &session).unwrap().tflops;
    let tilelang = fw::tilelang_gemm(&cfg, &d).unwrap().tflops;
    let tk = fw::thunderkittens_gemm(&cfg, &d).unwrap().tflops;
    // TK's shallow pipeline + FP8 bubble leave a clear gap; TileLang's
    // bubble is partly hidden behind the bandwidth bound in our model, so
    // it must merely not *beat* Tawa here.
    assert!(tawa / tk > 1.1, "tawa {tawa} tk {tk}");
    assert!(tawa / tilelang > 0.98, "tawa {tawa} tilelang {tilelang}");
}

#[test]
fn grouped_gemm_gap_grows_with_group_count() {
    let d = dev();
    let session = CompileSession::in_memory(&d);
    let gap = |g: usize| {
        let cfg = GroupedGemmConfig::paper_sweep(g);
        let tawa = fw::tawa_grouped_gemm(&cfg, &session).unwrap().tflops;
        let tl = fw::tilelang_grouped_gemm(&cfg, &d).unwrap().tflops;
        tawa / tl
    };
    let g2 = gap(2);
    let g6 = gap(6);
    assert!(
        g6 > 1.0 && g6 >= g2 * 0.9,
        "fusion advantage: g2 {g2}, g6 {g6}"
    );
}

#[test]
fn attention_matrix_and_unsupported_cells() {
    let d = dev();
    let session = CompileSession::in_memory(&d);
    let f16 = AttentionConfig::paper(8192, true, DType::F16);
    let f8 = AttentionConfig::paper(8192, true, DType::F8E4M3);
    // Every framework runs FP16 causal.
    for (name, r) in [
        ("fa3", fw::fa3_attention(&f16, &d)),
        ("tawa", fw::tawa_attention(&f16, &session)),
        ("triton", fw::triton_attention(&f16, &session)),
        ("tilelang", fw::tilelang_attention(&f16, &d)),
        ("tk", fw::thunderkittens_attention(&f16, &d)),
    ] {
        assert!(r.is_ok(), "{name} fp16 causal failed: {:?}", r.err());
    }
    // ThunderKittens FP8 attention fails; everyone else runs.
    assert!(fw::thunderkittens_attention(&f8, &d).is_err());
    assert!(fw::tawa_attention(&f8, &session).is_ok());
    assert!(fw::fa3_attention(&f8, &d).is_ok());
}

#[test]
fn triton_fig8_stays_competitive_unlike_ablation_baseline() {
    // Fig. 8's Triton (pipelined, tuned tiles) is a strong baseline —
    // unlike Fig. 12's unpipelined bar. Both come from the same compiler.
    let session = CompileSession::in_memory(&dev());
    let cfg = GemmConfig::new(8192, 8192, 16384);
    let triton = fw::triton_gemm(&cfg, &session).unwrap().tflops;
    let tawa = fw::tawa_gemm(&cfg, &session).unwrap().tflops;
    let ratio = tawa / triton;
    assert!(
        (1.0..=1.6).contains(&ratio),
        "tawa {tawa} vs pipelined triton {triton} ({ratio}x)"
    );
}
