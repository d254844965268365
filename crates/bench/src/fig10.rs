//! Fig. 10: multi-head attention forward, batch 4, head dim 128, sequence
//! lengths 1K..16K, FP16/FP8 × causal/non-causal, against FA3 (CUTLASS),
//! Triton, TileLang and ThunderKittens.

use gpu_sim::Device;
use tawa_core::CompileSession;
use tawa_frontend::config::AttentionConfig;
use tawa_ir::types::DType;
use tawa_kernels::frameworks as fw;

use crate::report::{Figure, Scale, Series};

/// Sequence lengths swept.
pub fn seq_lens(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![2048, 8192],
        Scale::Full => vec![1024, 2048, 4096, 8192, 16384],
    }
}

/// Runs one (precision, causality) panel; Tawa and Triton compile
/// through `session`.
pub fn run_panel(session: &CompileSession, dtype: DType, causal: bool, scale: Scale) -> Figure {
    let device = session.device();
    let ls = seq_lens(scale);
    let mk = |l: usize| AttentionConfig::paper(l, causal, dtype);
    let series_for = |label: &str, f: &dyn Fn(&AttentionConfig) -> fw::BenchOutcome| Series {
        label: label.into(),
        points: ls
            .iter()
            .map(|&l| (l as f64, f(&mk(l)).ok().map(|r| r.tflops)))
            .collect(),
    };
    Figure {
        title: format!(
            "Fig. 10: MHA {}, causal={}",
            if dtype == DType::F8E4M3 {
                "FP8"
            } else {
                "FP16"
            },
            causal
        ),
        x_label: "L".into(),
        series: vec![
            series_for("FA3 (CUTLASS)", &|c| fw::fa3_attention(c, device)),
            series_for("Tawa", &|c| fw::tawa_attention(c, session)),
            series_for("Triton", &|c| fw::triton_attention(c, session)),
            series_for("TileLang", &|c| fw::tilelang_attention(c, device)),
            series_for("ThunderKittens", &|c| {
                fw::thunderkittens_attention(c, device)
            }),
        ],
    }
}

/// All four panels of Fig. 10 over a caller-provided session.
pub fn run_with_session(session: &CompileSession, scale: Scale) -> Vec<Figure> {
    let mut out = Vec::new();
    for dtype in [DType::F16, DType::F8E4M3] {
        for causal in [false, true] {
            out.push(run_panel(session, dtype, causal, scale));
        }
    }
    out
}

/// All four panels over an in-memory session.
/// Kept only for the frozen `benchmark/`; it retires with ROADMAP 1(c).
pub fn run(device: &Device, scale: Scale) -> Vec<Figure> {
    run_with_session(&CompileSession::in_memory(device), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_panel_ordering() {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let fig = run_panel(&session, DType::F16, false, Scale::Quick);
        // At the longest L: FA3 ≥ Tawa > Triton; Tawa ≥ 85% of FA3.
        let last = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label.starts_with(label))
                .and_then(|s| s.points.last().unwrap().1)
                .unwrap()
        };
        let fa3 = last("FA3");
        let tawa = last("Tawa");
        let triton = last("Triton");
        assert!(fa3 >= tawa * 0.99, "fa3 {fa3} tawa {tawa}");
        assert!(tawa / fa3 > 0.85, "tawa/fa3 = {}", tawa / fa3);
        assert!(tawa > triton, "tawa {tawa} triton {triton}");
    }

    #[test]
    fn fp8_panel_has_tk_gap() {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let fig = run_panel(&session, DType::F8E4M3, false, Scale::Quick);
        let tk = fig
            .series
            .iter()
            .find(|s| s.label == "ThunderKittens")
            .unwrap();
        assert!(
            tk.points.iter().all(|p| p.1.is_none()),
            "TK FP8 attention must fail to run (paper §V-D)"
        );
    }
}
