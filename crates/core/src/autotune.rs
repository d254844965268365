//! Hyperparameter search over the Tawa scheduling space (paper §V-E).
//!
//! The paper selects the aref ring size `D` and the MMA pipeline depth `P`
//! manually per kernel; this module automates the sweep over
//! `(D, P, cooperative, persistent)` with feasibility pruning (`D ≥ P`,
//! register and shared-memory budgets) and simulator-in-the-loop scoring —
//! and regenerates the Fig. 11 heatmaps.
//!
//! ## Sweep strategies
//!
//! Brute force pays one full simulation per feasible candidate. The
//! default [`SweepStrategy::ModelGuided`] strategy instead compiles every
//! candidate (compilation is the cheap half and its artifacts are cached
//! anyway), scores each compiled kernel with the analytic cost model
//! ([`gpu_sim::analytic`]), simulates in descending-score order, and
//! *prunes* any candidate whose throughput upper bound — times a
//! configurable slack factor — cannot beat the best simulated result so
//! far. The winner can never be pruned: its upper bound dominates its own
//! simulated throughput, which in turn is at least the running best at
//! every step. Guided sweeps therefore return the **same winning
//! configuration and bit-identical best TFLOP/s** as
//! [`SweepStrategy::Exhaustive`], while issuing strictly fewer simulator
//! calls (asserted end-to-end in `tests/e2e_autotune_guided.rs`).
//!
//! Both strategies drive the [`CompileSession`] caches: every candidate
//! shares the session's cleaned-module prefix, candidates compile
//! concurrently, and repeating a sweep over a warm session is almost free
//! (kernel and report cache hits). Pruned candidates are recorded in
//! [`crate::CacheStats::analytic_pruned`].

use std::time::{Duration, Instant};

use gpu_sim::Device;
use tawa_ir::fingerprint::module_fingerprint;
use tawa_ir::func::Module;
use tawa_ir::spec::LaunchSpec;

use crate::lower::{CompileError, CompileOptions};
use crate::session::{CompileJob, CompileSession};

/// Default pruning slack for [`SweepStrategy::ModelGuided`].
///
/// A candidate is pruned when `upper_bound × slack < best_so_far`. The
/// analytic bound is provably optimistic per candidate, so `1.0` would
/// already preserve the winner; the default leaves 10% headroom so that
/// even a future mis-calibrated bound term keeps pruning decisions away
/// from the winner's neighborhood. Larger slack ⇒ less pruning ⇒ safer.
pub const DEFAULT_PRUNE_SLACK: f64 = 1.1;

/// How [`autotune_with_session_strategy`] explores the tune space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepStrategy {
    /// Simulate every feasible candidate (the Fig. 11 heatmap regime —
    /// figures need every cell filled, not just the winner).
    Exhaustive,
    /// Rank candidates by the analytic throughput upper bound
    /// ([`gpu_sim::analytic::estimate`]), simulate in rank order, and
    /// prune candidates whose `upper_bound × slack` cannot beat the best
    /// simulated throughput so far. Same winner and bit-identical best
    /// TFLOP/s as [`SweepStrategy::Exhaustive`]; fewer simulator runs.
    ModelGuided {
        /// Pruning slack factor, `≥ 1.0` (see [`DEFAULT_PRUNE_SLACK`]).
        slack: f64,
    },
}

impl Default for SweepStrategy {
    fn default() -> Self {
        SweepStrategy::ModelGuided {
            slack: DEFAULT_PRUNE_SLACK,
        }
    }
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
    /// cells of Fig. 11) **or** was pruned by the analytic model (check
    /// [`TunePoint::pruned`] to distinguish).
    pub tflops: Option<f64>,
    /// Analytic throughput upper bound from [`gpu_sim::analytic`], for
    /// candidates that compiled (guided sweeps score every compiled
    /// candidate; exhaustive sweeps leave this `None`).
    pub analytic_tflops: Option<f64>,
    /// Whether the analytic model pruned this candidate before
    /// simulation. Pruned points have `tflops = None` but are *not*
    /// infeasible: the model proved they cannot win, nothing more.
    pub pruned: bool,
    /// Kebab-case perf-lint ids ([`tawa_wsir::analyze_kernel`] under
    /// [`gpu_sim::perf_model`]) that fired on this candidate's compiled
    /// kernel — deduplicated, id-sorted. Guided sweeps attach them to
    /// every compiled candidate (pruned ones included) so the
    /// pruned-vs-winner report can say *why* a configuration lost —
    /// `single-buffered-pipeline` on the D=1 points, `occupancy-capped`
    /// on the smem-starved ones. Exhaustive sweeps leave this empty,
    /// matching [`TunePoint::analytic_tflops`].
    pub perf_lints: Vec<&'static str>,
}

/// Search-space bounds for [`autotune`].
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

/// Cost accounting for one sweep: what the strategy spent and what it
/// avoided. The frontier bench (`tawa_bench`) serializes these for the
/// exhaustive-vs-guided comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Candidates enumerated from the tune space.
    pub candidates: usize,
    /// `compile_and_simulate` calls issued (cache hits included — this
    /// counts sweep-side work requests, not simulator invocations; on a
    /// cold session the two coincide up to static rejections).
    pub simulate_calls: usize,
    /// Candidates pruned by the analytic model without a simulate call.
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
    /// What the sweep cost and what the strategy avoided.
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

/// Selects the best point exactly as the sweeps always have: a sweep-order
/// scan keeping the first point that *strictly* beats the running best.
/// Both strategies share this so their tie-breaking is identical.
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

/// Sweeps `space` with the default [`SweepStrategy::ModelGuided`]
/// strategy (see [`autotune_with_session_strategy`]). Heatmap harnesses
/// that need every cell simulated pass [`SweepStrategy::Exhaustive`]
/// explicitly.
pub fn autotune_with_session(
    session: &CompileSession,
    module: &Module,
    spec: &LaunchSpec,
    base: &CompileOptions,
    space: &TuneSpace,
) -> TuneResult {
    autotune_with_session_strategy(session, module, spec, base, space, SweepStrategy::default())
}

/// Sweeps `space` over `session`'s device under an explicit strategy.
///
/// [`SweepStrategy::Exhaustive`] batch-compiles and simulates every
/// configuration. [`SweepStrategy::ModelGuided`] batch-compiles every
/// configuration, ranks the compiled kernels by their analytic throughput
/// upper bound, simulates one candidate at a time in rank order (each
/// simulation itself parallelizes across CTA classes), and prunes the
/// tail the model proves hopeless — same winner, bit-identical best
/// TFLOP/s, fewer simulator runs. Pruned counts are recorded on the
/// session ([`crate::CacheStats::analytic_pruned`]).
pub fn autotune_with_session_strategy(
    session: &CompileSession,
    module: &Module,
    spec: &LaunchSpec,
    base: &CompileOptions,
    space: &TuneSpace,
    strategy: SweepStrategy,
) -> TuneResult {
    let start = Instant::now();
    let opts = candidates(base, space);
    // Every candidate compiles the same module: hash it once per sweep.
    let module_fp = module_fingerprint(module);
    let mut result = match strategy {
        SweepStrategy::Exhaustive => sweep_exhaustive(session, module_fp, module, spec, &opts),
        SweepStrategy::ModelGuided { slack } => {
            sweep_guided(session, module_fp, module, spec, &opts, slack.max(1.0))
        }
    };
    result.stats.candidates = opts.len();
    result.stats.wall = start.elapsed();
    result.best = select_best(&result.points);
    // Disk-backed sessions keep fleet-wide sweep accounting next to the
    // entries, so `tawa-cache stats` can report what pruning saved.
    if let Some(disk) = session.disk_cache() {
        disk.record_sweep(
            result.stats.analytic_pruned as u64,
            result.stats.simulate_calls as u64,
        );
    }
    result
}

fn sweep_exhaustive(
    session: &CompileSession,
    module_fp: u64,
    module: &Module,
    spec: &LaunchSpec,
    opts: &[CompileOptions],
) -> TuneResult {
    let jobs: Vec<CompileJob<'_>> = opts
        .iter()
        .map(|o| CompileJob {
            module,
            spec,
            opts: o.clone(),
        })
        .collect();
    let reports = session.run_batch(&jobs, |job| {
        session.compile_and_simulate_fp(module_fp, job.module, job.spec, &job.opts)
    });

    let mut stats = SweepStats {
        simulate_calls: opts.len(),
        ..SweepStats::default()
    };
    let mut points = Vec::new();
    for (o, outcome) in opts.iter().zip(&reports) {
        let tflops = outcome_tflops(outcome);
        if tflops.is_none() {
            stats.infeasible += 1;
        }
        points.push(TunePoint {
            aref_depth: o.aref_depth,
            mma_depth: o.mma_depth,
            cooperative: o.cooperative,
            persistent: o.persistent,
            tflops,
            analytic_tflops: None,
            pruned: false,
            perf_lints: Vec::new(),
        });
    }
    TuneResult {
        points,
        best: None,
        stats,
    }
}

fn sweep_guided(
    session: &CompileSession,
    module_fp: u64,
    module: &Module,
    spec: &LaunchSpec,
    opts: &[CompileOptions],
    slack: f64,
) -> TuneResult {
    // Compile everything up front (concurrently, sharing the cleaned
    // prefix); compilation artifacts are needed for the analytic score
    // and end up in the cache either way.
    let jobs: Vec<CompileJob<'_>> = opts
        .iter()
        .map(|o| CompileJob {
            module,
            spec,
            opts: o.clone(),
        })
        .collect();
    let compiled = session.run_batch(&jobs, |job| {
        session.compile_fp(module_fp, job.module, job.spec, &job.opts)
    });

    // Score the compiled candidates. Infeasible compiles keep score None
    // and are recorded immediately.
    let device = session.device();
    let scores: Vec<Option<f64>> = compiled
        .iter()
        .map(|outcome| {
            outcome
                .as_ref()
                .ok()
                .map(|kernel| gpu_sim::analytic::estimate(kernel, device).tflops_upper_bound)
        })
        .collect();

    // Perf-lint ids per compiled candidate: the advisory "why this
    // configuration lost" annotation. Judged against the same analytic
    // model that ranks the sweep, so a pruned point's lints explain the
    // very bound that pruned it.
    let perf: Vec<Vec<&'static str>> = compiled
        .iter()
        .map(|outcome| {
            outcome
                .as_ref()
                .ok()
                .map(|kernel| {
                    let model = gpu_sim::perf_model(kernel, device);
                    let mut ids: Vec<&'static str> = tawa_wsir::analyze_kernel(kernel, &model)
                        .iter()
                        .map(tawa_wsir::Lint::id)
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                })
                .unwrap_or_default()
        })
        .collect();

    // Rank compiled candidates by upper bound, best first; ties keep
    // sweep order (stable sort), matching the exhaustive tie-break.
    let mut ranked: Vec<usize> = (0..opts.len()).filter(|&i| scores[i].is_some()).collect();
    ranked.sort_by(|&a, &b| {
        scores[b]
            .unwrap_or(0.0)
            .partial_cmp(&scores[a].unwrap_or(0.0))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut stats = SweepStats::default();
    let mut tflops: Vec<Option<f64>> = vec![None; opts.len()];
    let mut pruned: Vec<bool> = vec![false; opts.len()];
    let mut best_so_far: Option<f64> = None;
    for &i in &ranked {
        let ub = scores[i].unwrap_or(0.0);
        if let Some(best) = best_so_far {
            // Sound by construction: the eventual winner's upper bound
            // dominates its own simulated throughput, which dominates
            // every best-so-far — so `ub × slack < best` can only hold
            // for losers (slack ≥ 1 merely widens the safety margin).
            if ub * slack < best {
                pruned[i] = true;
                stats.analytic_pruned += 1;
                continue;
            }
        }
        stats.simulate_calls += 1;
        let outcome = session.compile_and_simulate_fp(module_fp, module, spec, &opts[i]);
        tflops[i] = outcome_tflops(&outcome);
        if let Some(t) = tflops[i] {
            if best_so_far.map(|b| t > b).unwrap_or(true) {
                best_so_far = Some(t);
            }
        }
    }
    session.note_analytic_pruned(stats.analytic_pruned as u64);

    let mut points = Vec::new();
    for (i, (o, lints)) in opts.iter().zip(perf).enumerate() {
        if tflops[i].is_none() && !pruned[i] {
            stats.infeasible += 1;
        }
        points.push(TunePoint {
            aref_depth: o.aref_depth,
            mma_depth: o.mma_depth,
            cooperative: o.cooperative,
            persistent: o.persistent,
            tflops: tflops[i],
            analytic_tflops: scores[i],
            pruned: pruned[i],
            perf_lints: lints,
        });
    }
    TuneResult {
        points,
        best: None,
        stats,
    }
}

/// Sweeps `space`, compiling and simulating each feasible configuration
/// over a throwaway [`CompileSession`]. Callers running multiple sweeps
/// (figure harnesses, serving loops) should hold their own session and use
/// [`autotune_with_session`] so the caches carry across sweeps.
pub fn autotune(
    module: &Module,
    spec: &LaunchSpec,
    base: &CompileOptions,
    space: &TuneSpace,
    device: &Device,
) -> TuneResult {
    let session = CompileSession::new(device);
    autotune_with_session(&session, module, spec, base, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_frontend::config::GemmConfig;
    use tawa_frontend::kernels::gemm;

    #[test]
    fn fig11_grid_has_infeasible_triangle() {
        let (m, spec) = gemm(&GemmConfig::new(4096, 4096, 8192)).into_parts();
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        // Exhaustive: heatmaps need every feasible cell simulated.
        let r = autotune_with_session_strategy(
            &session,
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(false),
            SweepStrategy::Exhaustive,
        );
        assert_eq!(r.points.len(), 9);
        assert_eq!(r.stats.candidates, 9);
        assert_eq!(r.stats.simulate_calls, 9);
        assert_eq!(r.stats.analytic_pruned, 0);
        for p in &r.points {
            if p.mma_depth > p.aref_depth {
                assert!(
                    p.tflops.is_none(),
                    "D={} P={} must be infeasible",
                    p.aref_depth,
                    p.mma_depth
                );
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
        let r = autotune(
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(true),
            &dev,
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
        let r = autotune(
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::default(),
            &dev,
        );
        assert_eq!(r.points.len(), 3 * 3 * 2 * 2);
        assert!(r.best_tflops().unwrap() > 100.0);
    }

    #[test]
    fn guided_matches_exhaustive_and_prunes() {
        let (m, spec) = gemm(&GemmConfig::new(8192, 8192, 4096)).into_parts();
        let dev = Device::h100_sxm5();
        let base = CompileOptions::default();
        let space = TuneSpace::fig11(false);

        let ex_session = CompileSession::in_memory(&dev);
        let ex = autotune_with_session_strategy(
            &ex_session,
            &m,
            &spec,
            &base,
            &space,
            SweepStrategy::Exhaustive,
        );
        let g_session = CompileSession::in_memory(&dev);
        let guided = autotune_with_session_strategy(
            &g_session,
            &m,
            &spec,
            &base,
            &space,
            SweepStrategy::default(),
        );

        // Same winner, bit-identical best throughput.
        assert_eq!(ex.best, guided.best);
        assert_eq!(
            ex.best_tflops().unwrap().to_bits(),
            guided.best_tflops().unwrap().to_bits()
        );
        // And the model actually pruned something.
        assert!(
            guided.stats.analytic_pruned > 0,
            "guided sweep pruned nothing: {:?}",
            guided.stats
        );
        assert!(guided.stats.simulate_calls < ex.stats.simulate_calls);
        // Pruned points are marked, scored, and unsimulated.
        for p in guided.points.iter().filter(|p| p.pruned) {
            assert!(p.tflops.is_none());
            assert!(p.analytic_tflops.is_some());
        }
        // Exhaustive sweeps attach no perf lints (like analytic_tflops);
        // guided sweeps attach deduplicated, id-sorted ids to compiled
        // candidates only.
        assert!(ex.points.iter().all(|p| p.perf_lints.is_empty()));
        for p in &guided.points {
            if p.analytic_tflops.is_none() {
                assert!(p.perf_lints.is_empty(), "uncompiled point carries lints");
            }
            let mut sorted = p.perf_lints.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, p.perf_lints);
        }
        // The session surfaces the pruned count.
        assert_eq!(
            g_session.cache_stats().analytic_pruned,
            guided.stats.analytic_pruned as u64
        );
        assert_eq!(ex_session.cache_stats().analytic_pruned, 0);
    }

    #[test]
    fn slack_below_one_is_clamped() {
        // slack < 1.0 could prune the winner; the sweep clamps it.
        let (m, spec) = gemm(&GemmConfig::new(4096, 4096, 2048)).into_parts();
        let dev = Device::h100_sxm5();
        let session = CompileSession::in_memory(&dev);
        let clamped = autotune_with_session_strategy(
            &session,
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(false),
            SweepStrategy::ModelGuided { slack: 0.0 },
        );
        let reference = autotune(
            &m,
            &spec,
            &CompileOptions::default(),
            &TuneSpace::fig11(false),
            &dev,
        );
        assert_eq!(clamped.best, reference.best);
        assert_eq!(
            clamped.best_tflops().unwrap().to_bits(),
            reference.best_tflops().unwrap().to_bits()
        );
    }
}
