//! Baseline framework encodings (paper §V-A).
//!
//! Each framework is its published strategy expressed over the expert
//! templates of [`crate::templates`], plus the explicit maturity constants
//! declared in [`maturity`]. The Triton baseline is *not* a template: it is
//! the Tawa compiler itself with `warp_specialize = false` (the paper
//! compares against "the baseline Triton under the same commit", i.e. the
//! same stack minus this work).
//!
//! The compiler-backed baselines — Tawa and Triton — compile through the
//! [`CompileSession`] their caller passes in, so both run on the same
//! session, with its caches and cache tiers, as the rest of the
//! caller's work. The template-backed baselines take only a [`Device`].

use gpu_sim::{simulate, Device, SimReport};
use tawa_core::autotune::autotune_with_session;
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa_frontend::kernels as zoo;
use tawa_frontend::Program;

use crate::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};

/// Documented calibration constants for library maturity differences.
/// These are the only per-framework fudge factors in the reproduction
/// (the `tawa_kernels` row of ARCHITECTURE.md's "Crate → paper-section
/// map": §V baselines); everything else emerges from scheduling.
pub mod maturity {
    /// Host launch overhead of the closed-source cuBLAS runtime (ns).
    pub const CUBLAS_LAUNCH_NS: u64 = 2_200;
    /// Host dispatch overhead of DSL runtimes (Triton, TileLang): Python
    /// launcher + argument marshalling, ns.
    pub const DSL_LAUNCH_NS: u64 = 12_000;
    /// Host launch overhead of header-only C++ libraries (TK, CUTLASS).
    pub const CPP_LAUNCH_NS: u64 = 3_000;
    /// TileLang's FP8 datapath bubble (fraction of MMA time): its FP8
    /// pipeline lacks the layout/scheduling tuning of FP16 (§V-B observes
    /// up to 1.59× deficits at small K).
    pub const TILELANG_FP8_BUBBLE: f64 = 0.35;
    /// ThunderKittens' FP8 GEMM bubble (§V-B: up to 1.61×).
    pub const TK_FP8_BUBBLE: f64 = 0.40;
    /// Fraction of softmax cost FA3's hand-tuned ping-pong schedule leaves
    /// on the critical path (Tawa's generated schedule exposes all of it;
    /// the paper measures Tawa at 96% of FA3 FP16 and 89% FP8 — the FP8
    /// regime is where the exposure difference matters, because the 2×
    /// faster WGMMAs leave the softmax relatively larger).
    pub const FA3_SOFTMAX_EXPOSURE: f64 = 0.8;
    /// TileLang's coarse pipeline exposes most of the softmax (T.pipelined
    /// without fine-grained MMA control).
    pub const TILELANG_SOFTMAX_EXPOSURE: f64 = 1.0;
    /// Per-iteration overhead of TileLang's implicit stage composition in
    /// attention (extra synchronization between `T.pipelined` stages),
    /// as a fraction of the MMA time. Keeps Tawa ~1.05-1.10× ahead at
    /// long sequences, as §V-D measures.
    pub const TILELANG_ATTENTION_BUBBLE: f64 = 0.10;
}

/// A GEMM measurement: throughput or the reason the framework cannot run
/// the shape (as in the paper, where ThunderKittens "does not provide
/// functioning kernels" for some cases).
pub type BenchOutcome = Result<SimReport, String>;

/// cuBLAS: expert warp-specialized kernels behind a fixed heuristic table,
/// with a minimal-launch-overhead closed-source runtime.
pub fn cublas_gemm(cfg: &GemmConfig, device: &Device) -> BenchOutcome {
    // Heuristic table: large cooperative tiles and persistence for
    // compute-heavy shapes; for short-K problems the library switches to
    // small tiles for parallelism and pipeline-ramp reasons (its kernel
    // zoo covers the regime Tawa's single generated kernel does not).
    let short_k = cfg.k_tiles() < 16;
    let cfg = GemmConfig {
        tile: if short_k { Tile::SMALL } else { Tile::LARGE },
        ..*cfg
    };
    let persistent = cfg.grid() > 2 * device.sms as u64;
    let s = GemmStrategy {
        coop: if short_k { 1 } else { 2 },
        d: if short_k { 2 } else { 3 },
        p: 2,
        persistent,
        launch_ns: maturity::CUBLAS_LAUNCH_NS,
        iter_bubble: 0.0,
    };
    let k = ws_gemm(&cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

/// Tawa: the automatic compiler with autotuned (D, P, persistence) — the
/// paper's methodology ("the size of the aref and the depth of the MMA
/// pipeline are selected manually to maximize performance").
pub fn tawa_gemm(cfg: &GemmConfig, session: &CompileSession) -> BenchOutcome {
    let cfg = GemmConfig {
        tile: Tile::LARGE,
        ..*cfg
    };
    let program = if cfg.batch > 1 {
        zoo::batched_gemm(&cfg)
    } else {
        zoo::gemm(&cfg)
    };
    let base = CompileOptions {
        cooperative: 2,
        launch_overhead_ns: maturity::DSL_LAUNCH_NS,
        ..CompileOptions::default()
    };
    let space = tawa_core::autotune::TuneSpace {
        aref_depths: vec![2, 3],
        mma_depths: vec![1, 2],
        cooperative: vec![2],
        persistent: vec![false, true],
    };
    // The winning configuration's report comes straight from the sweep's
    // cache.
    let tuned = autotune_with_session(session, program.module(), program.spec(), &base, &space);
    let opts = tuned
        .best_options(&base)
        .ok_or_else(|| "no feasible configuration".to_string())?;
    measure(session, &program, &opts)
}

/// Triton baseline: same compiler, warp specialization off (Ampere-style
/// `cp.async` software pipelining). Hand-tuned tiles like every baseline
/// in §V-A (the large 128×256 tile at num_warps=8).
pub fn triton_gemm(cfg: &GemmConfig, session: &CompileSession) -> BenchOutcome {
    let cfg = GemmConfig {
        tile: Tile::LARGE,
        ..*cfg
    };
    let program = if cfg.batch > 1 {
        zoo::batched_gemm(&cfg)
    } else {
        zoo::gemm(&cfg)
    };
    let opts = CompileOptions {
        warp_specialize: false,
        launch_overhead_ns: maturity::DSL_LAUNCH_NS,
        ..CompileOptions::default()
    };
    measure(session, &program, &opts)
}

/// TileLang: warp-specialized, but with a fixed coarse pipeline (P=1 — no
/// fine-grained MMA control) and large-K-oriented tiles; persistent.
pub fn tilelang_gemm(cfg: &GemmConfig, device: &Device) -> BenchOutcome {
    let cfg = GemmConfig {
        tile: Tile::LARGE,
        ..*cfg
    };
    let bubble = if cfg.dtype == tawa_ir::types::DType::F8E4M3 {
        maturity::TILELANG_FP8_BUBBLE
    } else {
        0.0
    };
    // The plain-GEMM path is extensively tuned (deep rings, persistence);
    // the batched path is not (the §V-C gap): shallow rings, one-shot grid.
    let tuned = cfg.batch == 1;
    let s = GemmStrategy {
        coop: 2,
        d: if tuned { 3 } else { 2 },
        p: 1,
        persistent: tuned,
        launch_ns: maturity::DSL_LAUNCH_NS,
        iter_bubble: bubble,
    };
    let k = ws_gemm(&cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

/// ThunderKittens: C++ tile library, warp-specialized with its fixed
/// 16×16-fragment pipeline (D=2), non-persistent launcher, tuned FP16.
/// Batched/grouped GEMM kernels are not provided (paper §V-C).
pub fn thunderkittens_gemm(cfg: &GemmConfig, device: &Device) -> BenchOutcome {
    if cfg.batch > 1 {
        return Err("ThunderKittens does not provide a batched GEMM kernel".into());
    }
    let cfg = GemmConfig {
        tile: Tile::LARGE,
        ..*cfg
    };
    let bubble = if cfg.dtype == tawa_ir::types::DType::F8E4M3 {
        maturity::TK_FP8_BUBBLE
    } else {
        0.0
    };
    // TK's simple double-buffered pipeline: two stages, synchronous MMA
    // completion per stage (P=1) — deeper MMA pipelining at D=2 would
    // recycle live slots.
    let s = GemmStrategy {
        coop: 2,
        d: 2,
        p: 1,
        persistent: false,
        launch_ns: maturity::CPP_LAUNCH_NS,
        iter_bubble: bubble,
    };
    let k = ws_gemm(&cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

/// Tawa on batched GEMM (fused, one launch).
pub fn tawa_batched_gemm(cfg: &GemmConfig, session: &CompileSession) -> BenchOutcome {
    tawa_gemm(cfg, session)
}

/// Grouped GEMM on Tawa: one fused persistent launch over all groups.
pub fn tawa_grouped_gemm(cfg: &GroupedGemmConfig, session: &CompileSession) -> BenchOutcome {
    let opts = CompileOptions {
        cooperative: 2,
        aref_depth: 3,
        mma_depth: 2,
        persistent: true,
        launch_overhead_ns: maturity::DSL_LAUNCH_NS,
        ..CompileOptions::default()
    };
    // Grouped grids use the LARGE tile like the fused kernels above.
    let cfg_large = GroupedGemmConfig {
        tile: Tile::LARGE,
        ..cfg.clone()
    };
    let program = zoo::grouped_gemm(&cfg_large);
    measure(session, &program, &opts)
}

/// Grouped GEMM on Triton: one software-pipelined launch per group.
pub fn triton_grouped_gemm(cfg: &GroupedGemmConfig, session: &CompileSession) -> BenchOutcome {
    per_group_sum(cfg, |g| triton_gemm(g, session))
}

/// Grouped GEMM on TileLang: one warp-specialized launch per group.
pub fn tilelang_grouped_gemm(cfg: &GroupedGemmConfig, device: &Device) -> BenchOutcome {
    per_group_sum(cfg, |g| tilelang_gemm(g, device))
}

/// Compiles and simulates `program` through the caller's session.
fn measure(session: &CompileSession, program: &Program, opts: &CompileOptions) -> BenchOutcome {
    session
        .compile_and_simulate_program(program, opts)
        .map_err(|e| e.to_string())
}

/// Sums per-group launches into a single aggregate report.
fn per_group_sum(
    cfg: &GroupedGemmConfig,
    run: impl Fn(&GemmConfig) -> BenchOutcome,
) -> BenchOutcome {
    let mut total_us = 0.0;
    let mut total_flops = 0.0;
    let mut last: Option<SimReport> = None;
    for g in cfg.to_gemms() {
        let r = run(&g)?;
        total_us += r.total_time_us;
        total_flops += g.flops();
        last = Some(r);
    }
    let mut agg = last.ok_or_else(|| "empty group".to_string())?;
    agg.total_time_us = total_us;
    agg.tflops = total_flops / (total_us * 1e-6) / 1e12;
    Ok(agg)
}

/// FlashAttention-3 (CUTLASS): hand-optimized warp-specialized attention
/// with ping-pong scheduling between the two consumer warp groups.
pub fn fa3_attention(cfg: &AttentionConfig, device: &Device) -> BenchOutcome {
    let s = AttentionStrategy {
        coop: 2,
        d: 2,
        overlap: true,
        softmax_exposure: maturity::FA3_SOFTMAX_EXPOSURE,
        launch_ns: maturity::CPP_LAUNCH_NS,
        iter_bubble: 0.0,
    };
    let k = ws_attention(cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

/// Tawa attention: the compiler's coarse-grained T/C/U pipeline with
/// cooperative consumer warp groups.
pub fn tawa_attention(cfg: &AttentionConfig, session: &CompileSession) -> BenchOutcome {
    let program = zoo::attention(cfg);
    let opts = CompileOptions {
        cooperative: 2,
        aref_depth: 2,
        launch_overhead_ns: maturity::DSL_LAUNCH_NS,
        ..CompileOptions::default()
    };
    measure(session, &program, &opts)
}

/// Triton attention baseline: FA2-style, no warp specialization (§V-D:
/// "the Triton baseline being effectively a FlashAttention-2 style
/// implementation").
pub fn triton_attention(cfg: &AttentionConfig, session: &CompileSession) -> BenchOutcome {
    let program = zoo::attention(cfg);
    let opts = CompileOptions {
        warp_specialize: false,
        launch_overhead_ns: maturity::DSL_LAUNCH_NS,
        ..CompileOptions::default()
    };
    measure(session, &program, &opts)
}

/// TileLang attention: warp-specialized but with the softmax largely
/// exposed (implicit pipelining without fine-grained MMA control).
pub fn tilelang_attention(cfg: &AttentionConfig, device: &Device) -> BenchOutcome {
    let fp8 = cfg.dtype == tawa_ir::types::DType::F8E4M3;
    let s = AttentionStrategy {
        coop: 2,
        d: 2,
        overlap: true,
        softmax_exposure: maturity::TILELANG_SOFTMAX_EXPOSURE,
        launch_ns: maturity::DSL_LAUNCH_NS,
        iter_bubble: maturity::TILELANG_ATTENTION_BUBBLE
            + if fp8 {
                maturity::TILELANG_FP8_BUBBLE
            } else {
                0.0
            },
    };
    let k = ws_attention(cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

/// ThunderKittens attention: FP16 only (its FP8 attention configurations
/// fail to run, as the paper observes), serial FA2-style stages within a
/// warp-specialized shell.
pub fn thunderkittens_attention(cfg: &AttentionConfig, device: &Device) -> BenchOutcome {
    if cfg.dtype == tawa_ir::types::DType::F8E4M3 {
        return Err("ThunderKittens FP8 attention fails to run (paper §V-D)".into());
    }
    let s = AttentionStrategy {
        coop: 2,
        d: 2,
        overlap: false,
        softmax_exposure: 1.0,
        launch_ns: maturity::CPP_LAUNCH_NS,
        iter_bubble: 0.0,
    };
    let k = ws_attention(cfg, &s, device)?;
    simulate(&k, device).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_ir::types::DType;

    fn dev() -> Device {
        Device::h100_sxm5()
    }

    #[test]
    fn all_gemm_frameworks_run_fp16() {
        let cfg = GemmConfig::new(8192, 8192, 4096);
        let d = dev();
        let session = CompileSession::in_memory(&d);
        for (name, r) in [
            ("cublas", cublas_gemm(&cfg, &d)),
            ("tawa", tawa_gemm(&cfg, &session)),
            ("triton", triton_gemm(&cfg, &session)),
            ("tilelang", tilelang_gemm(&cfg, &d)),
            ("tk", thunderkittens_gemm(&cfg, &d)),
        ] {
            let r = r.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.tflops > 100.0, "{name}: {}", r.tflops);
            assert!(r.tflops < 989.0, "{name} over peak: {}", r.tflops);
        }
    }

    #[test]
    fn tawa_competitive_with_cublas() {
        let d = dev();
        let cfg = GemmConfig::new(8192, 8192, 8192);
        let tawa = tawa_gemm(&cfg, &CompileSession::in_memory(&d))
            .unwrap()
            .tflops;
        let cublas = cublas_gemm(&cfg, &d).unwrap().tflops;
        let ratio = tawa / cublas;
        assert!(
            (0.9..=1.15).contains(&ratio),
            "tawa {} vs cublas {} (ratio {ratio})",
            tawa,
            cublas
        );
    }

    #[test]
    fn tawa_beats_triton_gemm() {
        let session = CompileSession::in_memory(&dev());
        let cfg = GemmConfig::new(8192, 8192, 4096);
        let tawa = tawa_gemm(&cfg, &session).unwrap().tflops;
        let triton = triton_gemm(&cfg, &session).unwrap().tflops;
        assert!(tawa > triton, "tawa {} vs triton {}", tawa, triton);
    }

    #[test]
    fn repeat_baseline_on_one_session_is_served_from_cache() {
        let session = CompileSession::in_memory(&dev());
        let cfg = GemmConfig::new(4096, 4096, 4096);
        let cold = tawa_gemm(&cfg, &session).unwrap().tflops;
        let after_cold = session.cache_stats();
        assert!(after_cold.misses() > 0);
        let warm = tawa_gemm(&cfg, &session).unwrap().tflops;
        let after_warm = session.cache_stats();
        assert_eq!(warm, cold);
        assert_eq!(
            after_warm.misses(),
            after_cold.misses(),
            "nothing recompiled"
        );
        assert!(after_warm.hits() > after_cold.hits());
    }

    #[test]
    fn cublas_wins_small_k() {
        // §V-B: "Tawa is worse than cuBLAS for small K ... the overhead of
        // Triton becomes relatively significant".
        let d = dev();
        let cfg = GemmConfig::new(8192, 8192, 256);
        let tawa = tawa_gemm(&cfg, &CompileSession::in_memory(&d))
            .unwrap()
            .tflops;
        let cublas = cublas_gemm(&cfg, &d).unwrap().tflops;
        assert!(cublas > tawa, "cublas {} vs tawa {}", cublas, tawa);
    }

    #[test]
    fn thunderkittens_rejects_batched_and_fp8_attention() {
        let d = dev();
        let batched = GemmConfig::new(1024, 1024, 1024).with_batch(8);
        assert!(thunderkittens_gemm(&batched, &d).is_err());
        let fp8_attn = AttentionConfig::paper(2048, false, DType::F8E4M3);
        assert!(thunderkittens_attention(&fp8_attn, &d).is_err());
    }

    #[test]
    fn attention_ordering_matches_paper() {
        // FA3 ≥ Tawa > Triton at long sequences (§V-D).
        let d = dev();
        let session = CompileSession::in_memory(&d);
        let cfg = AttentionConfig::paper(8192, false, DType::F16);
        let fa3 = fa3_attention(&cfg, &d).unwrap().tflops;
        let tawa = tawa_attention(&cfg, &session).unwrap().tflops;
        let triton = triton_attention(&cfg, &session).unwrap().tflops;
        assert!(fa3 >= tawa * 0.99, "fa3 {} vs tawa {}", fa3, tawa);
        assert!(
            tawa / fa3 > 0.85,
            "tawa must stay close to FA3: {} vs {}",
            tawa,
            fa3
        );
        assert!(tawa > triton * 1.05, "tawa {} vs triton {}", tawa, triton);
    }

    #[test]
    fn grouped_gemm_fusion_wins() {
        let d = dev();
        let cfg = GroupedGemmConfig::paper_sweep(5);
        let tawa = tawa_grouped_gemm(&cfg, &CompileSession::in_memory(&d))
            .unwrap()
            .tflops;
        let tilelang = tilelang_grouped_gemm(&cfg, &d).unwrap().tflops;
        assert!(
            tawa > tilelang,
            "fused {} must beat per-group {}",
            tawa,
            tilelang
        );
    }
}
