//! Hyperparameter search over the Tawa scheduling space (paper §V-E).
//!
//! The paper selects the aref ring size `D` and the MMA pipeline depth `P`
//! manually per kernel; this module automates the sweep over
//! `(D, P, cooperative, persistent)` with feasibility pruning (`D ≥ P`,
//! register and shared-memory budgets) and simulator-in-the-loop scoring —
//! and regenerates the Fig. 11 heatmaps.
//!
//! A sweep compiles and simulates every candidate as one batch through
//! the [`CompileSession`] caches: candidates share the session's
//! cleaned-module prefix, run concurrently on the session's workers, and
//! repeating a sweep over a warm session is almost free (kernel and
//! report cache hits). The winner is the first point in sweep order with
//! the highest simulated TFLOP/s.

use std::time::{Duration, Instant};

use tawa_ir::fingerprint::module_fingerprint;
use tawa_ir::func::Module;
use tawa_ir::spec::LaunchSpec;

use crate::lower::{CompileError, CompileOptions};
use crate::session::CompileSession;

/// Kept only for the frozen `benchmark/` crate; retires with ROADMAP 1(c).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SweepStrategy {
    /// Simulate every feasible candidate.
    #[default]
    Exhaustive,
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// aref depth `D`.
    pub aref_depth: usize,
    /// MMA pipeline depth `P`.
    pub mma_depth: usize,
    /// Cooperative consumer warp groups.
    pub cooperative: usize,
    /// Persistent kernel.
    pub persistent: bool,
    /// Measured throughput; `None` when the point is infeasible (the zero
    /// cells of Fig. 11).
    pub tflops: Option<f64>,
    /// Always `None`. Kept only for the frozen `benchmark/` crate; retires with ROADMAP 1(c).
    pub analytic_tflops: Option<f64>,
}

/// Search-space bounds for [`autotune_with_session`].
#[derive(Debug, Clone)]
pub struct TuneSpace {
    /// Candidate aref depths.
    pub aref_depths: Vec<usize>,
    /// Candidate MMA pipeline depths.
    pub mma_depths: Vec<usize>,
    /// Candidate cooperative consumer counts.
    pub cooperative: Vec<usize>,
    /// Whether to try persistent variants.
    pub persistent: Vec<bool>,
}

impl Default for TuneSpace {
    fn default() -> Self {
        TuneSpace {
            aref_depths: vec![1, 2, 3],
            mma_depths: vec![1, 2, 3],
            cooperative: vec![1, 2],
            persistent: vec![false, true],
        }
    }
}

impl TuneSpace {
    /// The D × P grid of Fig. 11 for a fixed cooperation/persistence.
    pub fn fig11(persistent: bool) -> TuneSpace {
        TuneSpace {
            aref_depths: vec![1, 2, 3],
            mma_depths: vec![1, 2, 3],
            cooperative: vec![2],
            persistent: vec![persistent],
        }
    }
}

/// Cost accounting for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Candidates enumerated from the tune space.
    pub candidates: usize,
    /// Compile-and-simulate requests issued, one per candidate (cache
    /// hits included — this counts sweep-side work requests, not
    /// simulator invocations; on a cold session the two coincide up to
    /// static rejections).
    pub simulate_calls: usize,
    /// Always 0. Kept only for the frozen `benchmark/` crate; retires with ROADMAP 1(c).
    pub analytic_pruned: usize,
    /// Candidates that failed to compile or simulate (`P > D`, resource
    /// budgets, unsupported shapes, deadlocks).
    pub infeasible: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

/// Result of an autotuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Every evaluated point (feasible or not), in sweep order.
    pub points: Vec<TunePoint>,
    /// Index of the best feasible point.
    pub best: Option<usize>,
    /// What the sweep cost.
    pub stats: SweepStats,
}

impl TuneResult {
    /// Options corresponding to the best point.
    pub fn best_options(&self, base: &CompileOptions) -> Option<CompileOptions> {
        let p = &self.points[self.best?];
        Some(CompileOptions {
            aref_depth: p.aref_depth,
            mma_depth: p.mma_depth,
            cooperative: p.cooperative,
            persistent: p.persistent,
            ..base.clone()
        })
    }

    /// Best throughput found.
    pub fn best_tflops(&self) -> Option<f64> {
        self.best.and_then(|i| self.points[i].tflops)
    }
}

/// Enumerates the candidate options of `space` in sweep order.
fn candidates(base: &CompileOptions, space: &TuneSpace) -> Vec<CompileOptions> {
    let mut out = Vec::new();
    for &persistent in &space.persistent {
        for &coop in &space.cooperative {
            for &d in &space.aref_depths {
                for &p in &space.mma_depths {
                    out.push(CompileOptions {
                        aref_depth: d,
                        mma_depth: p,
                        cooperative: coop,
                        persistent,
                        ..base.clone()
                    });
                }
            }
        }
    }
    out
}

/// Maps a sweep outcome to the point's `tflops`: infeasible points
/// (resource pruning, `P > D`) get `None`, as do unsupported shapes and —
/// conservatively — simulation failures, which indicate compiler bugs
/// rather than pruning.
fn outcome_tflops(outcome: &Result<gpu_sim::SimReport, CompileError>) -> Option<f64> {
    match outcome {
        Ok(report) => Some(report.tflops),
        Err(
            CompileError::Infeasible(_)
            | CompileError::Unsupported(_)
            | CompileError::Pass(_)
            | CompileError::Simulation(_),
        ) => None,
    }
}

/// Selects the best point: a sweep-order scan keeping the first point
/// that *strictly* beats the running best.
fn select_best(points: &[TunePoint]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (idx, point) in points.iter().enumerate() {
        if let Some(t) = point.tflops {
            if best
                .map(|b| t > points[b].tflops.unwrap_or(0.0))
                .unwrap_or(true)
            {
                best = Some(idx);
            }
        }
    }
    best
}

/// Sweeps `space` over `session`'s device: batch-compiles and simulates
/// every configuration and keeps the best (see [`TuneResult::best`]).
/// Infeasible configurations become points with `tflops: None`.
///
/// The one session path that still takes `(module, spec)` rather than a
/// [`tawa_frontend::dsl::Program`]: the frozen `benchmark/` crate calls
/// it in this form. It retires to a `&Program` form with ROADMAP 1(c).
pub fn autotune_with_session(
    session: &CompileSession,
    module: &Module,
    spec: &LaunchSpec,
    base: &CompileOptions,
    space: &TuneSpace,
) -> TuneResult {
    let start = Instant::now();
    let opts = candidates(base, space);
    // Every candidate compiles the same module: hash it once per sweep.
    let module_fp = module_fingerprint(module);
    let reports = session.run_batch(&opts, |o| {
        session.compile_and_simulate_fp(module_fp, module, spec, o)
    });

    let mut stats = SweepStats {
        candidates: opts.len(),
        simulate_calls: opts.len(),
        ..SweepStats::default()
    };
    let points: Vec<TunePoint> = opts
        .iter()
        .zip(&reports)
        .map(|(o, outcome)| TunePoint {
            aref_depth: o.aref_depth,
            mma_depth: o.mma_depth,
            cooperative: o.cooperative,
            persistent: o.persistent,
            tflops: outcome_tflops(outcome),
            analytic_tflops: None,
        })
        .collect();
    stats.infeasible = points.iter().filter(|p| p.tflops.is_none()).count();
    stats.wall = start.elapsed();
    TuneResult {
        best: select_best(&points),
        points,
        stats,
    }
}

/// [`autotune_with_session`]; the strategy has one value.
/// Kept only for the frozen `benchmark/` crate; retires with ROADMAP 1(c).
pub fn autotune_with_session_strategy(
    session: &CompileSession,
    module: &Module,
    spec: &LaunchSpec,
    base: &CompileOptions,
    space: &TuneSpace,
    _strategy: SweepStrategy,
) -> TuneResult {
    autotune_with_session(session, module, spec, base, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use tawa_frontend::config::GemmConfig;
    use tawa_frontend::kernels::gemm;

    #[test]
    fn fig11_grid_has_infeasible_triangle() {
        let program = gemm(&GemmConfig::new(4096, 4096, 8192));
        let (m, spec) = program.clone().into_parts();
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        let r = autotune_with_session(
            &session,
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(false),
        );
        assert_eq!(r.points.len(), 9);
        assert_eq!(r.stats.candidates, 9);
        assert_eq!(r.stats.simulate_calls, 9);
        for p in &r.points {
            if p.mma_depth > p.aref_depth {
                assert!(
                    p.tflops.is_none(),
                    "D={} P={} must be infeasible",
                    p.aref_depth,
                    p.mma_depth
                );
                // Empty because the lowering refuses to recycle a slot
                // whose WGMMA is still in flight, not for any other reason.
                let opts = CompileOptions {
                    aref_depth: p.aref_depth,
                    mma_depth: p.mma_depth,
                    cooperative: p.cooperative,
                    persistent: p.persistent,
                    ..CompileOptions::default()
                };
                match session.compile_program(&program, &opts) {
                    Err(CompileError::Infeasible(msg)) => {
                        assert!(msg.contains("exceeds aref depth"), "{msg}");
                    }
                    other => panic!("expected Infeasible, got {:?}", other.map(|_| ())),
                }
            } else {
                assert!(
                    p.tflops.is_some(),
                    "D={} P={} must be feasible",
                    p.aref_depth,
                    p.mma_depth
                );
            }
        }
    }

    #[test]
    fn best_point_is_feasible_and_deepest_helps() {
        let (m, spec) = gemm(&GemmConfig::new(8192, 8192, 8192)).into_parts();
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        let r = autotune_with_session(
            &session,
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(true),
        );
        let best = &r.points[r.best.expect("a feasible point")];
        assert!(best.tflops.is_some());
        // The paper's conclusion: larger D with moderate P wins.
        assert!(best.aref_depth >= 2, "best D = {}", best.aref_depth);
        let opts = r.best_options(&CompileOptions::default()).unwrap();
        assert_eq!(opts.aref_depth, best.aref_depth);
        assert!(opts.persistent);
    }

    #[test]
    fn full_space_includes_cooperation() {
        let (m, spec) = gemm(&GemmConfig::new(2048, 2048, 2048)).into_parts();
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        let r = autotune_with_session(
            &session,
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::default(),
        );
        assert_eq!(r.points.len(), 3 * 3 * 2 * 2);
        assert!(r.best_tflops().unwrap() > 100.0);
    }

    fn point(aref_depth: usize, tflops: Option<f64>) -> TunePoint {
        TunePoint {
            aref_depth,
            mma_depth: 1,
            cooperative: 2,
            persistent: false,
            tflops,
            analytic_tflops: None,
        }
    }

    #[test]
    fn select_best_keeps_the_first_of_equal_points() {
        let points = [
            point(1, Some(300.0)),
            point(2, Some(500.0)),
            point(3, Some(500.0)),
            point(4, Some(400.0)),
        ];
        assert_eq!(select_best(&points), Some(1));
        // A later strictly better point still takes over.
        let points = [point(1, Some(500.0)), point(2, Some(500.5))];
        assert_eq!(select_best(&points), Some(1));
    }

    #[test]
    fn select_best_skips_infeasible_points() {
        let points = [point(1, None), point(2, Some(10.0)), point(3, None)];
        assert_eq!(select_best(&points), Some(1));
        let none = TuneResult {
            points: vec![point(1, None), point(2, None)],
            best: select_best(&[point(1, None), point(2, None)]),
            stats: SweepStats::default(),
        };
        assert_eq!(none.best, None);
        assert_eq!(none.best_tflops(), None);
        assert!(none.best_options(&CompileOptions::default()).is_none());
    }

    #[test]
    fn candidates_run_persistent_outermost_and_mma_depth_innermost() {
        let space = TuneSpace {
            aref_depths: vec![1, 2],
            mma_depths: vec![1, 3],
            cooperative: vec![1, 2],
            persistent: vec![true, false],
        };
        let base = CompileOptions {
            launch_overhead_ns: 1234,
            ..CompileOptions::default()
        };
        let got: Vec<(bool, usize, usize, usize)> = candidates(&base, &space)
            .iter()
            .map(|o| (o.persistent, o.cooperative, o.aref_depth, o.mma_depth))
            .collect();
        let mut want = Vec::new();
        for persistent in [true, false] {
            for coop in [1, 2] {
                for d in [1, 2] {
                    for p in [1, 3] {
                        want.push((persistent, coop, d, p));
                    }
                }
            }
        }
        assert_eq!(got, want);
        // Every other option comes from the base.
        assert!(candidates(&base, &space)
            .iter()
            .all(|o| o.launch_overhead_ns == 1234));
    }

    #[test]
    fn an_empty_space_is_an_empty_sweep() {
        let (m, spec) = gemm(&GemmConfig::new(1024, 1024, 1024)).into_parts();
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let space = TuneSpace {
            aref_depths: Vec::new(),
            ..TuneSpace::default()
        };
        let r = autotune_with_session(&session, &m, &spec, &CompileOptions::default(), &space);
        assert!(r.points.is_empty());
        assert_eq!(r.best, None);
        assert_eq!(
            (
                r.stats.candidates,
                r.stats.simulate_calls,
                r.stats.infeasible
            ),
            (0, 0, 0)
        );
        let c = session.cache_stats();
        assert_eq!((c.kernel_misses, c.sim_misses), (0, 0));
    }

    #[test]
    fn every_point_is_its_own_compile_and_simulate_outcome() {
        let program = gemm(&GemmConfig::new(4096, 4096, 4096));
        let dev = Device::h100_sxm5();
        let base = CompileOptions::default();
        let space = TuneSpace::fig11(false);
        let r = autotune_with_session(
            &CompileSession::in_memory(&dev),
            program.module(),
            program.spec(),
            &base,
            &space,
        );
        let fresh = CompileSession::in_memory(&dev);
        for (p, opts) in r.points.iter().zip(candidates(&base, &space)) {
            let direct = fresh.compile_and_simulate_program(&program, &opts).ok();
            assert_eq!(
                p.tflops.map(f64::to_bits),
                direct.map(|rep| rep.tflops.to_bits()),
                "D={} P={}",
                p.aref_depth,
                p.mma_depth
            );
            assert_eq!(p.analytic_tflops, None);
        }
        // The winner is the first point of the highest throughput.
        let best = r.best.expect("a feasible point");
        let top = r.best_tflops().unwrap();
        assert!(r.points.iter().all(|p| p.tflops.unwrap_or(0.0) <= top));
        assert!(r.points[..best].iter().all(|p| p.tflops != Some(top)));
        assert_eq!(
            r.stats.infeasible,
            r.points.iter().filter(|p| p.tflops.is_none()).count()
        );
        assert_eq!(r.stats.analytic_pruned, 0);
    }

    #[test]
    fn a_warm_resweep_is_served_from_the_caches_bit_identically() {
        let (m, spec) = gemm(&GemmConfig::new(4096, 4096, 2048)).into_parts();
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let base = CompileOptions::default();
        let space = TuneSpace::fig11(true);
        let cold = autotune_with_session(&session, &m, &spec, &base, &space);
        let after_cold = session.cache_stats();
        assert!(after_cold.sim_misses > 0, "{after_cold:?}");
        let warm = autotune_with_session(&session, &m, &spec, &base, &space);
        let after_warm = session.cache_stats();
        assert_eq!(after_warm.kernel_misses, after_cold.kernel_misses);
        assert_eq!(after_warm.sim_misses, after_cold.sim_misses);
        assert_eq!(warm.best, cold.best);
        let bits = |r: &TuneResult| -> Vec<Option<u64>> {
            r.points
                .iter()
                .map(|p| p.tflops.map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(&warm), bits(&cold));
        assert_eq!(warm.stats.simulate_calls, cold.stats.simulate_calls);
    }
}
