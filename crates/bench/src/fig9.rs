//! Fig. 9: FP16 batched GEMM (B=8, square sizes 1K..16K) and grouped GEMM
//! (G ∈ 2..6, M_g multiples of 512) — Tawa vs Triton vs TileLang.

use tawa_core::CompileSession;
use tawa_frontend::config::{GemmConfig, GroupedGemmConfig, Tile};
use tawa_kernels::frameworks as fw;

use crate::report::{Figure, Scale, Series};

/// Batched sizes swept.
pub fn batched_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1024, 4096],
        Scale::Full => vec![1024, 2048, 4096, 8192, 16384],
    }
}

/// Group counts swept.
pub fn group_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![2, 4],
        Scale::Full => vec![2, 3, 4, 5, 6],
    }
}

/// Batched-GEMM panel; Tawa and Triton compile through `session`.
pub fn run_batched(session: &CompileSession, scale: Scale) -> Figure {
    let device = session.device();
    let sizes = batched_sizes(scale);
    let mk = |s: usize| GemmConfig::new(s, s, s).with_batch(8);
    let run_fw = |label: &str, f: &dyn Fn(&GemmConfig) -> fw::BenchOutcome| Series {
        label: label.into(),
        points: sizes
            .iter()
            .map(|&s| (s as f64, f(&mk(s)).ok().map(|r| r.tflops)))
            .collect(),
    };
    Figure {
        title: "Fig. 9 (left): FP16 batched GEMM (B=8)".into(),
        x_label: "M=N=K".into(),
        series: vec![
            run_fw("Tawa", &|c| fw::tawa_batched_gemm(c, session)),
            run_fw("Triton", &|c| fw::triton_gemm(c, session)),
            run_fw("TileLang", &|c| {
                // TileLang runs batched shapes through its WS template too.
                fw::tilelang_gemm(
                    &GemmConfig {
                        tile: Tile::LARGE,
                        ..*c
                    },
                    device,
                )
            }),
        ],
    }
}

/// Grouped-GEMM panel; Tawa and Triton compile through `session`.
pub fn run_grouped(session: &CompileSession, scale: Scale) -> Figure {
    let gs = group_counts(scale);
    Figure {
        title: "Fig. 9 (right): FP16 grouped GEMM".into(),
        x_label: "G".into(),
        series: vec![
            Series {
                label: "Tawa".into(),
                points: gs
                    .iter()
                    .map(|&g| {
                        let cfg = GroupedGemmConfig::paper_sweep(g);
                        (
                            g as f64,
                            fw::tawa_grouped_gemm(&cfg, session).ok().map(|r| r.tflops),
                        )
                    })
                    .collect(),
            },
            Series {
                label: "Triton".into(),
                points: gs
                    .iter()
                    .map(|&g| {
                        let cfg = GroupedGemmConfig::paper_sweep(g);
                        (
                            g as f64,
                            fw::triton_grouped_gemm(&cfg, session)
                                .ok()
                                .map(|r| r.tflops),
                        )
                    })
                    .collect(),
            },
            Series {
                label: "TileLang".into(),
                points: gs
                    .iter()
                    .map(|&g| {
                        let cfg = GroupedGemmConfig::paper_sweep(g);
                        (
                            g as f64,
                            fw::tilelang_grouped_gemm(&cfg, session.device())
                                .ok()
                                .map(|r| r.tflops),
                        )
                    })
                    .collect(),
            },
        ],
    }
}

/// Both panels over a caller-provided session.
pub fn run_with_session(session: &CompileSession, scale: Scale) -> Vec<Figure> {
    vec![run_batched(session, scale), run_grouped(session, scale)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    #[test]
    fn batched_tawa_beats_triton() {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let fig = run_batched(&session, Scale::Quick);
        let s = fig.geomean_speedup("Tawa", "Triton").unwrap();
        assert!(s > 1.0, "batched speedup {s}");
    }

    #[test]
    fn grouped_tilelang_degrades_with_group_count() {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let fig = run_grouped(&session, Scale::Quick);
        let tl = &fig.series[2];
        let first = tl.points.first().and_then(|p| p.1).unwrap();
        let last = tl.points.last().and_then(|p| p.1).unwrap();
        // More groups → more launches → relatively flat-to-worse efficiency
        // for the per-group baseline, while Tawa's fused kernel scales.
        let tawa = &fig.series[0];
        let tawa_last = tawa.points.last().and_then(|p| p.1).unwrap();
        assert!(tawa_last > last, "tawa {tawa_last} vs tilelang {last}");
        let _ = first;
    }
}
