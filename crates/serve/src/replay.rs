//! Deterministic replay of a [`Trace`] against one [`CompileSession`].
//!
//! A [`Replay`] walks the trace **strictly sequentially** in arrival
//! order. The first time a shape appears (identified by its canonical
//! request line — see [`Request::to_line`]) the replay runs an autotune
//! sweep over the family's tune space and memoizes the winning
//! [`CompileOptions`] next to the shape's built [`Program`];
//! every repeat reuses both — nothing is rebuilt, re-printed or re-hashed
//! — and the compile + simulate behind it resolves through the
//! session's cache tiers — in-memory first, then disk when a
//! [`TAWA_DISK_CACHE`](tawa_core::DISK_CACHE_ENV) directory is attached.
//!
//! ## Determinism contract
//!
//! Replaying equal traces on fresh sessions yields bit-identical
//! [`FleetReport`] *workload aggregates* (the per-phase latency and
//! throughput sections), because every contributing piece is
//! deterministic: trace order is fixed, the autotune winner is the first
//! best point in sweep order, the simulator is bit-reproducible across
//! runs and worker counts, and the f64
//! aggregation happens in arrival order on one thread. When both
//! sessions additionally start from the same warm disk cache, the
//! *accounting* section is bit-identical too — the whole report compares
//! equal. A cold and a warm replay differ **only** in accounting
//! (compiles, simulate calls, tier hits); their workload aggregates
//! still match bit-for-bit. This is property-tested in
//! `tests/proptest_trace.rs` and end-to-end-tested in
//! `tests/e2e_serve.rs`.

use std::collections::HashMap;
use std::fmt;

use tawa_core::autotune::{autotune_with_session, TuneSpace};
use tawa_core::{CacheStats, CompileError, CompileOptions, CompileSession};
use tawa_frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa_frontend::Program;

use crate::report::{FleetAccounting, FleetReport, PhaseStats};
use crate::trace::{Phase, Request, Trace};

/// Error produced by [`Replay::run`].
#[derive(Debug)]
pub enum ReplayError {
    /// A request's autotune sweep found no feasible configuration.
    NoFeasibleConfig {
        /// The request's canonical line (its shape key).
        request: String,
    },
    /// Compiling or simulating a request failed.
    Compile {
        /// The request's canonical line (its shape key).
        request: String,
        /// The underlying compiler/simulator error.
        source: CompileError,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NoFeasibleConfig { request } => {
                write!(f, "no feasible configuration for `{request}`")
            }
            ReplayError::Compile { request, source } => {
                write!(f, "compiling `{request}` failed: {source}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::NoFeasibleConfig { .. } => None,
            ReplayError::Compile { source, .. } => Some(source),
        }
    }
}

/// What one request cost: the per-request cache-outcome breadcrumb the
/// fleet accounting is summed from. `cache` is the [`CacheStats::delta`]
/// across exactly this request (autotune sweep, when the shape was new,
/// plus the final compile + simulate).
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Position in the trace (arrival order, 0-based).
    pub index: usize,
    /// Serving phase of the request.
    pub phase: Phase,
    /// Canonical request line — the shape key the winner was memoized
    /// under.
    pub shape_key: String,
    /// Simulated end-to-end latency, microseconds
    /// ([`gpu_sim::SimReport::total_time_us`]).
    pub latency_us: f64,
    /// Useful FLOPs of the request's problem.
    pub flops: f64,
    /// Whether this request triggered the shape's autotune sweep (first
    /// sight of the shape in this replay).
    pub tuned: bool,
    /// Perf-lint ids ([`tawa_core::PerfSummary::ids`]) of the winning
    /// kernel serving this request — deduplicated, id-sorted, memoized
    /// per shape. Summed across requests into the report's
    /// [`FleetReport::perf_lints`] counts.
    pub perf_lints: Vec<&'static str>,
    /// Session cache-counter movement attributable to this request.
    pub cache: CacheStats,
}

impl RequestOutcome {
    /// Cold compiles this request caused (0 on every cache tier hit).
    pub fn compiles(&self) -> u64 {
        self.cache.kernel_misses
    }

    /// Simulator runs this request caused.
    pub fn simulate_calls(&self) -> u64 {
        self.cache.sim_misses
    }
}

/// The per-family autotune spaces the replay sweeps on first sight of a
/// shape. GEMM-shaped work gets the full Fig. 11-style space; attention
/// tunes only the aref/MMA depths (its cooperative split and tiling are
/// fixed by the config).
fn tune_space(request: &Request) -> TuneSpace {
    match request {
        Request::Prefill(_) | Request::Moe(_) => TuneSpace {
            aref_depths: vec![2, 3],
            mma_depths: vec![1, 2],
            cooperative: vec![2],
            persistent: vec![false, true],
        },
        Request::Decode(_) => TuneSpace {
            aref_depths: vec![1, 2],
            mma_depths: vec![1, 2],
            cooperative: vec![2],
            persistent: vec![false],
        },
    }
}

/// Base compile options the tuned knobs are layered over, mirroring the
/// serving defaults of the kernel zoo (cooperative consumer pairs, DSL
/// launch overhead).
fn base_options(request: &Request) -> CompileOptions {
    let mut base = CompileOptions {
        cooperative: 2,
        ..CompileOptions::default()
    };
    if let Request::Moe(_) = request {
        base.persistent = true;
    }
    base
}

/// Builds the zoo program for a request — a pure function of the
/// request's canonical line, which is what lets [`Replay`] keep one
/// program per shape key.
fn program_for(request: &Request) -> Program {
    match request {
        Request::Prefill(cfg) => {
            if cfg.batch > 1 {
                batched_gemm(cfg)
            } else {
                gemm(cfg)
            }
        }
        Request::Decode(cfg) => attention(cfg),
        Request::Moe(cfg) => grouped_gemm(cfg),
    }
}

/// A trace replay bound to one session. See the module docs for the
/// determinism contract.
pub struct Replay<'s> {
    session: &'s CompileSession,
    winners: HashMap<String, CompileOptions>,
    // Each shape's program, built on first sight; it carries its module
    // fingerprint, so a repeat is a map lookup plus a memory-tier hit.
    programs: HashMap<String, Program>,
    // Perf-lint ids of each shape's winning kernel, memoized alongside
    // the winner so repeats cost no analysis (deterministic either way).
    perf: HashMap<String, Vec<&'static str>>,
    outcomes: Vec<RequestOutcome>,
}

impl<'s> Replay<'s> {
    /// Creates a replay over `session`. The session may be cold, warm
    /// from a disk cache, or already used — the replay only ever *adds*
    /// to its caches.
    pub fn new(session: &'s CompileSession) -> Replay<'s> {
        Replay {
            session,
            winners: HashMap::new(),
            programs: HashMap::new(),
            perf: HashMap::new(),
            outcomes: Vec::new(),
        }
    }

    /// Replays `trace` sequentially and aggregates the fleet report.
    ///
    /// May be called repeatedly (e.g. several traces against one warm
    /// session); the shape-winner memo and the outcome log persist across
    /// calls, while each report covers only the requests of its own call.
    ///
    /// # Errors
    /// [`ReplayError`] on the first request whose sweep finds no feasible
    /// configuration or whose compile/simulate fails.
    pub fn run(&mut self, trace: &Trace) -> Result<FleetReport, ReplayError> {
        let start = self.outcomes.len();
        // One snapshot threads through the run: each request's `after` is
        // the next one's `before`, so the per-request breadcrumbs sum to
        // the run's accounting by construction (1 + N snapshots, each a
        // directory scan on a disk-backed session).
        let baseline = self.session.cache_stats();
        let mut last = baseline;
        for (index, request) in trace.requests.iter().enumerate() {
            last = self.run_one(index, request, &last)?;
        }
        let accounting =
            FleetAccounting::from_stats(trace.requests.len() as u64, &last.delta(&baseline));
        let phases = PhaseStats::aggregate(&self.outcomes[start..]);
        // Request-weighted per-lint-id counts: a BTreeMap sums them in
        // id order, so equal traces produce identical sections.
        let mut lint_counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for o in &self.outcomes[start..] {
            for id in &o.perf_lints {
                *lint_counts.entry(id).or_insert(0) += 1;
            }
        }
        let perf_lints = lint_counts
            .into_iter()
            .map(|(id, n)| (id.to_string(), n))
            .collect();
        Ok(FleetReport {
            name: trace.name.clone(),
            seed: trace.seed,
            requests: trace.requests.len() as u64,
            phases,
            perf_lints,
            accounting,
        })
    }

    /// Replays a single request, appending its outcome breadcrumb:
    /// `before` is the session's counters as the previous request left
    /// them, the return value as this one did.
    fn run_one(
        &mut self,
        index: usize,
        request: &Request,
        before: &CacheStats,
    ) -> Result<CacheStats, ReplayError> {
        let shape_key = request.to_line();
        if !self.programs.contains_key(&shape_key) {
            self.programs
                .insert(shape_key.clone(), program_for(request));
        }
        let program = &self.programs[&shape_key];
        let mut tuned = false;
        let opts = match self.winners.get(&shape_key) {
            Some(opts) => opts.clone(),
            None => {
                tuned = true;
                let base = base_options(request);
                let result = autotune_with_session(
                    self.session,
                    program.module(),
                    program.spec(),
                    &base,
                    &tune_space(request),
                );
                let opts =
                    result
                        .best_options(&base)
                        .ok_or_else(|| ReplayError::NoFeasibleConfig {
                            request: shape_key.clone(),
                        })?;
                self.winners.insert(shape_key.clone(), opts.clone());
                opts
            }
        };
        let report = self
            .session
            .compile_and_simulate_program(program, &opts)
            .map_err(|source| ReplayError::Compile {
                request: shape_key.clone(),
                source,
            })?;
        // Perf lints of the winning kernel, memoized per shape like the
        // winner itself. Computed after compile_and_simulate_program, so
        // the kernel compile inside perf_summary_program is always a
        // cache hit.
        let perf_lints = match self.perf.get(&shape_key) {
            Some(ids) => ids.clone(),
            None => {
                let summary =
                    self.session
                        .perf_summary_program(program, &opts)
                        .map_err(|source| ReplayError::Compile {
                            request: shape_key.clone(),
                            source,
                        })?;
                let ids = summary.ids();
                self.perf.insert(shape_key.clone(), ids.clone());
                ids
            }
        };
        let after = self.session.cache_stats();
        self.outcomes.push(RequestOutcome {
            index,
            phase: request.phase(),
            shape_key,
            latency_us: report.total_time_us,
            flops: request.flops(),
            tuned,
            perf_lints,
            cache: after.delta(before),
        });
        Ok(after)
    }

    /// The per-request outcome breadcrumbs, in replay order (across every
    /// [`Replay::run`] call on this value).
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// The memoized autotune winners, keyed by canonical request line.
    pub fn winners(&self) -> &HashMap<String, CompileOptions> {
        &self.winners
    }

    /// The session this replay drives.
    pub fn session(&self) -> &CompileSession {
        self.session
    }
}

impl fmt::Debug for Replay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replay")
            .field("winners", &self.winners.len())
            .field("outcomes", &self.outcomes.len())
            .finish()
    }
}

/// Replays `trace` on a fresh single-use replay over `session` (the
/// one-shot convenience the bin and the examples use).
///
/// # Errors
/// Same as [`Replay::run`].
pub fn replay_trace(session: &CompileSession, trace: &Trace) -> Result<FleetReport, ReplayError> {
    Replay::new(session).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, TraceParams};
    use gpu_sim::Device;

    fn quick_trace() -> Trace {
        generate(&TraceParams::quick("replay-unit", 5, 10))
    }

    #[test]
    fn replay_is_deterministic_across_fresh_sessions() {
        let device = Device::h100_sxm5();
        let trace = quick_trace();
        let a = replay_trace(&CompileSession::in_memory(&device), &trace).unwrap();
        let b = replay_trace(&CompileSession::in_memory(&device), &trace).unwrap();
        assert_eq!(a, b, "fresh in-memory replays must agree bit-for-bit");
    }

    #[test]
    fn repeats_hit_the_memo_and_the_caches() {
        let device = Device::h100_sxm5();
        let session = CompileSession::in_memory(&device);
        let trace = quick_trace();
        let mut replay = Replay::new(&session);
        let report = replay.run(&trace).unwrap();
        assert_eq!(replay.outcomes().len(), trace.requests.len());
        // Only first sightings tune; every repeat reuses the memo.
        let tuned = replay.outcomes().iter().filter(|o| o.tuned).count();
        assert_eq!(tuned, replay.winners().len());
        assert!(tuned < trace.requests.len(), "trace must repeat shapes");
        // Repeat requests must not compile or simulate anything.
        for o in replay.outcomes().iter().filter(|o| !o.tuned) {
            assert_eq!(o.compiles(), 0, "repeat of {} compiled", o.shape_key);
            assert_eq!(o.simulate_calls(), 0, "repeat of {} simulated", o.shape_key);
        }
        assert_eq!(report.requests, trace.requests.len() as u64);
        assert!(report.accounting.compiles > 0, "cold replay must compile");
    }

    #[test]
    fn phase_aggregates_cover_all_requests() {
        let device = Device::h100_sxm5();
        let trace = quick_trace();
        let report = replay_trace(&CompileSession::in_memory(&device), &trace).unwrap();
        let phase_total: u64 = report.phases.iter().map(|p| p.requests).sum();
        assert_eq!(phase_total, trace.requests.len() as u64);
        for p in &report.phases {
            assert!(p.p50_us > 0.0 && p.p99_us >= p.p50_us);
            assert!(p.tflops > 0.0);
        }
    }

    #[test]
    fn equal_request_lines_build_equal_programs() {
        // What the per-shape program memo rests on: the canonical line
        // carries every field `program_for` reads, so a request parsed
        // back from its line builds the same module and launch.
        use crate::trace::{deserialize_trace, serialize_trace};
        let trace = quick_trace();
        let reparsed = deserialize_trace(&serialize_trace(&trace)).unwrap();
        for (a, b) in trace.requests.iter().zip(&reparsed.requests) {
            assert_eq!(a.to_line(), b.to_line());
            let (pa, pb) = (program_for(a), program_for(b));
            assert_eq!(pa.fingerprint(), pb.fingerprint(), "{}", a.to_line());
            assert_eq!(pa.spec(), pb.spec(), "{}", a.to_line());
        }
    }

    #[test]
    fn per_request_breadcrumbs_sum_to_the_run_accounting() {
        // One snapshot threads through a run, so the outcome deltas are
        // exactly what the report's accounting is made of.
        let session = CompileSession::in_memory(&Device::h100_sxm5());
        let trace = quick_trace();
        let mut replay = Replay::new(&session);
        for _ in 0..2 {
            let start = replay.outcomes().len();
            let report = replay.run(&trace).unwrap();
            // `add` sums the gauges too; `from_stats` reads counters only.
            let mut sum = CacheStats::default();
            for o in &replay.outcomes()[start..] {
                sum.add(&o.cache);
            }
            let expected = FleetAccounting::from_stats(trace.requests.len() as u64, &sum);
            assert_eq!(report.accounting, expected);
            assert!(sum.kernel_hits + sum.sim_hits > 0, "the run moved counters");
        }
    }

    #[test]
    fn each_memoized_winner_is_a_fresh_sweeps_best() {
        // The memo holds exactly what one sweep of the shape's space
        // picks, whatever else the session has cached by then.
        let device = Device::h100_sxm5();
        let session = CompileSession::in_memory(&device);
        let trace = quick_trace();
        let mut replay = Replay::new(&session);
        replay.run(&trace).unwrap();
        assert!(!replay.winners().is_empty());
        for request in &trace.requests {
            let key = request.to_line();
            let program = program_for(request);
            let base = base_options(request);
            let fresh = CompileSession::in_memory(&device);
            let sweep = autotune_with_session(
                &fresh,
                program.module(),
                program.spec(),
                &base,
                &tune_space(request),
            );
            let best = sweep.best_options(&base).expect("a feasible point");
            assert_eq!(
                format!("{:?}", replay.winners()[&key]),
                format!("{best:?}"),
                "{key}"
            );
        }
    }

    #[test]
    fn a_repeated_single_request_trace_is_one_memory_sim_hit() {
        let device = Device::h100_sxm5();
        let session = CompileSession::in_memory(&device);
        let request = quick_trace().requests[0].clone();
        assert_eq!(
            request.to_line(),
            "request prefill m=4096 n=4096 k=4096 batch=1 dtype=f16 \
             tile_m=128 tile_n=256 tile_k=64"
        );
        let one = Trace::from_requests("single", 5, vec![request]);
        let counters = |c: &CacheStats| (c.kernel_hits, c.kernel_misses, c.sim_hits, c.sim_misses);
        let mut replay = Replay::new(&session);
        // The first sight compiles and simulates eight candidates in one
        // batch, then serves the winner's report from the sim slot (one
        // sim hit) and its kernel, for the perf lints, from the kernel
        // slot (one kernel hit); the repeat is a single sim-slot hit.
        let first = replay.run(&one).unwrap();
        assert_eq!(counters(&session.cache_stats()), (1, 8, 1, 8));
        let second = replay.run(&one).unwrap();
        assert_eq!(counters(&session.cache_stats()), (1, 8, 2, 8));
        assert_eq!(counters(&replay.outcomes()[1].cache), (0, 0, 1, 0));
        assert!(!replay.outcomes()[1].tuned);
        assert!(first.same_workload(&second));
        assert_eq!(replay.winners().len(), 1);
    }
}
