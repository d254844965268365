//! Fig. 12: the optimization ablation on the largest FP16 GEMM
//! (`K = 16384`) and MHA (`L = 16384`): each bar adds one Tawa technique
//! (paper: 104 → 393 → 395 → 572 → 632 → 718 TFLOP/s for GEMM and
//! 209 → 232 → 593 → 645 → 654 for MHA).

use tawa_core::autotune::{autotune_with_session, TuneSpace};
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, Tile};
use tawa_frontend::kernels::{attention, gemm};
use tawa_ir::types::DType;

use crate::report::Scale;

/// One ablation bar.
#[derive(Debug, Clone)]
pub struct Step {
    /// Configuration name (matches the paper's bar labels).
    pub label: String,
    /// Measured throughput.
    pub tflops: f64,
}

/// An ablation (a bar chart).
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Panel title.
    pub title: String,
    /// Bars in cumulative order.
    pub steps: Vec<Step>,
}

impl Ablation {
    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### {}\n| Configuration | TFLOP/s |\n|---|---|\n",
            self.title
        );
        for s in &self.steps {
            out.push_str(&format!("| {} | {:.0} |\n", s.label, s.tflops));
        }
        out
    }
}

fn dsl_overhead() -> u64 {
    tawa_kernels::frameworks::maturity::DSL_LAUNCH_NS
}

/// The GEMM ablation (Fig. 12 left) over a caller-provided session.
pub fn run_gemm_with_session(session: &CompileSession, scale: Scale) -> Ablation {
    let k = match scale {
        Scale::Quick => 4096,
        Scale::Full => 16384,
    };
    let small = GemmConfig::new(8192, 8192, k);
    let large = small.with_tile(Tile::LARGE);
    let mut steps = Vec::new();
    let mut run = |label: &str, cfg: &GemmConfig, opts: &CompileOptions| {
        let (m, spec) = gemm(cfg).into_parts();
        let t = session
            .compile_and_simulate(&m, &spec, opts)
            .map(|r| r.tflops)
            .unwrap_or(0.0);
        steps.push(Step {
            label: label.into(),
            tflops: t,
        });
    };

    // The ablation baseline is Triton with neither warp specialization nor
    // multi-stage software pipelining (the paper's 104 TFLOP/s bar sits far
    // below Fig. 8's pipelined Triton, which uses num_stages ≥ 3).
    run(
        "Triton w/o WS",
        &small,
        &CompileOptions {
            warp_specialize: false,
            sw_stages: 1,
            launch_overhead_ns: dsl_overhead(),
            ..CompileOptions::default()
        },
    );
    let ws1 = CompileOptions {
        aref_depth: 3,
        mma_depth: 1,
        cooperative: 1,
        launch_overhead_ns: dsl_overhead(),
        ..CompileOptions::default()
    };
    run("+Auto WS", &small, &ws1);
    let coop = CompileOptions {
        cooperative: 2,
        ..ws1.clone()
    };
    run("+Cooperative WGs", &small, &coop);
    run("+Large Tile Size", &large, &coop);
    let persistent = CompileOptions {
        persistent: true,
        ..coop.clone()
    };
    run("+Persistent Kernel", &large, &persistent);
    // +Better Aref Size: autotune D and P over the same session, so the
    // persistent-kernel bar above seeded the cache for the sweep.
    let (m, spec) = gemm(&large).into_parts();
    let tuned = autotune_with_session(
        session,
        &m,
        &spec,
        &persistent,
        &TuneSpace {
            aref_depths: vec![2, 3, 4],
            mma_depths: vec![1, 2],
            cooperative: vec![2],
            persistent: vec![true],
        },
    );
    steps.push(Step {
        label: "+Better Aref Size".into(),
        tflops: tuned.best_tflops().unwrap_or(0.0),
    });

    Ablation {
        title: format!("Fig. 12 (left): GEMM ablation (K={k}, FP16)"),
        steps,
    }
}

/// The MHA ablation (Fig. 12 right) over a caller-provided session.
pub fn run_mha_with_session(session: &CompileSession, scale: Scale) -> Ablation {
    let l = match scale {
        Scale::Quick => 4096,
        Scale::Full => 16384,
    };
    let small = AttentionConfig {
        block_m: 64,
        ..AttentionConfig::paper(l, false, DType::F16)
    };
    let large = AttentionConfig::paper(l, false, DType::F16);
    let mut steps = Vec::new();
    let mut run = |label: &str, cfg: &AttentionConfig, opts: &CompileOptions| {
        let (m, spec) = attention(cfg).into_parts();
        let t = session
            .compile_and_simulate(&m, &spec, opts)
            .map(|r| r.tflops)
            .unwrap_or(0.0);
        steps.push(Step {
            label: label.into(),
            tflops: t,
        });
    };

    run(
        "Triton w/o WS",
        &small,
        &CompileOptions {
            warp_specialize: false,
            sw_stages: 1,
            launch_overhead_ns: dsl_overhead(),
            ..CompileOptions::default()
        },
    );
    let ws1 = CompileOptions {
        cooperative: 1,
        coarse_pipeline: false,
        launch_overhead_ns: dsl_overhead(),
        ..CompileOptions::default()
    };
    run("+Auto WS", &small, &ws1);
    let coop = CompileOptions {
        cooperative: 2,
        ..ws1.clone()
    };
    run("+Cooperative WGs", &large, &coop);
    let pipelined = CompileOptions {
        coarse_pipeline: true,
        ..coop.clone()
    };
    run("+Pipeline", &large, &pipelined);
    // +Better Aref Size: sweep D for the K/V rings.
    let (m, spec) = attention(&large).into_parts();
    let best = [2usize, 3]
        .iter()
        .filter_map(|&d| {
            session
                .compile_and_simulate(
                    &m,
                    &spec,
                    &CompileOptions {
                        aref_depth: d,
                        ..pipelined.clone()
                    },
                )
                .ok()
                .map(|r| r.tflops)
        })
        .fold(0.0f64, f64::max);
    steps.push(Step {
        label: "+Better Aref Size".into(),
        tflops: best,
    });

    Ablation {
        title: format!("Fig. 12 (right): MHA ablation (L={l}, FP16)"),
        steps,
    }
}

/// Both ablations over a caller-provided session. A disk-backed session
/// (`CompileSession::with_disk_cache`, or `TAWA_DISK_CACHE` in the
/// environment) lets a regenerated figure reuse every kernel compiled by
/// previous runs.
pub fn run_with_session(session: &CompileSession, scale: Scale) -> Vec<Ablation> {
    vec![
        run_gemm_with_session(session, scale),
        run_mha_with_session(session, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    #[test]
    fn gemm_ablation_is_monotone_enough() {
        let dev = Device::h100_sxm5();
        let abl = run_gemm_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
        assert_eq!(abl.steps.len(), 6);
        let t: Vec<f64> = abl.steps.iter().map(|s| s.tflops).collect();
        // Key paper shape: WS is a big jump; coop alone ~flat; large tile
        // jumps again; persistent and tuning add more.
        assert!(t[1] > t[0] * 1.5, "+Auto WS must jump: {t:?}");
        assert!(t[2] > t[1] * 0.9, "+Coop must not regress: {t:?}");
        assert!(t[3] > t[2] * 1.05, "+Large tile must help: {t:?}");
        assert!(t[4] > t[3], "+Persistent must help: {t:?}");
        assert!(t[5] >= t[4], "+Tuning must not regress: {t:?}");
    }

    #[test]
    fn mha_ablation_shape() {
        let dev = Device::h100_sxm5();
        let abl = run_mha_with_session(&CompileSession::in_memory(&dev), Scale::Quick);
        assert_eq!(abl.steps.len(), 5);
        let t: Vec<f64> = abl.steps.iter().map(|s| s.tflops).collect();
        assert!(t[1] > t[0], "+Auto WS: {t:?}");
        assert!(t[2] > t[1] * 1.5, "+Coop is the big MHA jump: {t:?}");
        assert!(t[3] > t[2], "+Pipeline: {t:?}");
        assert!(t[4] >= t[3] * 0.99, "+Aref size: {t:?}");
    }
}
