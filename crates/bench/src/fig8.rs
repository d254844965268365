//! Fig. 8: GEMM throughput, `M = N = 8192`, K swept from 256 to 16384,
//! FP16 and FP8, against cuBLAS / Triton / TileLang / ThunderKittens.

use gpu_sim::Device;
use tawa_core::CompileSession;
use tawa_frontend::config::GemmConfig;
use tawa_ir::types::DType;
use tawa_kernels::frameworks as fw;
use tawa_wsir::MmaDtype;

use crate::report::{Figure, Scale, Series};

/// One framework's measurement closure in the Fig. 8 sweep.
type FrameworkRunner<'a> = Box<dyn Fn(&GemmConfig) -> fw::BenchOutcome + 'a>;

/// K values swept.
pub fn k_values(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![512, 4096, 16384],
        Scale::Full => vec![256, 512, 1024, 2048, 4096, 8192, 16384],
    }
}

/// Runs one precision panel; Tawa and Triton compile through `session`.
pub fn run_panel(session: &CompileSession, dtype: DType, scale: Scale) -> Figure {
    let device = session.device();
    let ks = k_values(scale);
    let mma = if dtype == DType::F8E4M3 {
        MmaDtype::F8
    } else {
        MmaDtype::F16
    };
    let peak = device.peak_tflops(mma);
    let mk_cfg = |k: usize| GemmConfig::new(8192, 8192, k).with_dtype(dtype);

    let frameworks: Vec<(&str, FrameworkRunner<'_>)> = vec![
        (
            "cuBLAS",
            Box::new(|c: &GemmConfig| fw::cublas_gemm(c, device)),
        ),
        ("Tawa", Box::new(|c: &GemmConfig| fw::tawa_gemm(c, session))),
        (
            "Triton",
            Box::new(|c: &GemmConfig| fw::triton_gemm(c, session)),
        ),
        (
            "TileLang",
            Box::new(|c: &GemmConfig| fw::tilelang_gemm(c, device)),
        ),
        (
            "ThunderKittens",
            Box::new(|c: &GemmConfig| fw::thunderkittens_gemm(c, device)),
        ),
    ];

    let mut series = vec![Series {
        label: "Theoretical Peak".into(),
        points: ks.iter().map(|&k| (k as f64, Some(peak))).collect(),
    }];
    for (label, run) in frameworks {
        let points = ks
            .iter()
            .map(|&k| {
                let outcome = run(&mk_cfg(k));
                (k as f64, outcome.ok().map(|r| r.tflops))
            })
            .collect();
        series.push(Series {
            label: label.into(),
            points,
        });
    }
    Figure {
        title: format!(
            "Fig. 8: GEMM {} (M=N=8192)",
            if dtype == DType::F8E4M3 {
                "FP8"
            } else {
                "FP16"
            }
        ),
        x_label: "K".into(),
        series,
    }
}

/// Runs both precision panels over a caller-provided session.
pub fn run_with_session(session: &CompileSession, scale: Scale) -> Vec<Figure> {
    vec![
        run_panel(session, DType::F16, scale),
        run_panel(session, DType::F8E4M3, scale),
    ]
}

/// Both panels over an in-memory session.
/// Kept only for the frozen `benchmark/`; it retires with ROADMAP 1(c).
pub fn run(device: &Device, scale: Scale) -> Vec<Figure> {
    run_with_session(&CompileSession::in_memory(device), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_has_expected_shape() {
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let fig = run_panel(&session, DType::F16, Scale::Quick);
        assert_eq!(fig.series.len(), 6);
        assert_eq!(fig.series[0].points.len(), 3);
        // Everyone below peak; Tawa beats Triton on geomean.
        let peak = fig.series[0].points[0].1.unwrap();
        for s in &fig.series[1..] {
            for p in &s.points {
                if let Some(v) = p.1 {
                    assert!(v < peak, "{} exceeds peak: {v}", s.label);
                    assert!(v > 50.0, "{} implausibly low: {v}", s.label);
                }
            }
        }
        let speedup = fig.geomean_speedup("Tawa", "Triton").unwrap();
        assert!(speedup > 1.0, "Tawa/Triton = {speedup}");
    }
}
