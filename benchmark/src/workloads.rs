//! The six workloads. Each is a closed loop on one client thread: the
//! next op starts when the previous one returns. A workload is driven in
//! whole *passes* (one shuffled cycle through its zoo, or one replay of
//! its trace), so per-op counters are exact whatever the run length.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpu_sim::Device;
use tawa_cached::{ServerHandle, ShardedStore};
use tawa_core::autotune::{
    autotune_with_session, autotune_with_session_strategy, SweepStrategy, TuneResult,
};
use tawa_core::{CacheStats, CompileOptions, CompileSession, RemoteAddr};
use tawa_serve::{generate, PhaseStats, Replay, Request, Trace, TraceParams};

use crate::calib::Calibration;
use crate::gate::Golden;
use crate::stage::{span, Stager};
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::zoo::{
    build_program, fig11_sweeps, knobs, long_zoo, shape_line, short_zoo, Case, Rng, SweepCase,
};

/// What every workload needs from the run.
pub struct Ctx {
    /// The modelled device.
    pub dev: Device,
    /// Committed simulation-report expectations.
    pub golden: Golden,
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Tiny inputs and single passes (`--smoke`).
    pub smoke: bool,
    /// Scratch directory of this process, inside the checkout.
    pub scratch: PathBuf,
}

/// Everything the passes of one stretch feed back.
#[derive(Debug, Default)]
pub struct Sink {
    /// Wall time of every op, ms.
    pub op_ms: Samples,
    /// The same, per op kind.
    pub kind_ms: Vec<Samples>,
    /// Summed op time of every pass, ms.
    pub pass_ms: Samples,
    /// Ops per pass (constant for a workload).
    pub ops_per_pass: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored or failed a correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Cold compiles (`CacheStats::kernel_misses` deltas).
    pub compiles: u64,
    /// Simulator runs (`CacheStats::sim_misses` deltas).
    pub sim_runs: u64,
    /// Disk-tier hits of any kind.
    pub disk_hits: u64,
    /// Disk-tier writes.
    pub disk_writes: u64,
    /// Remote-tier round trips.
    pub roundtrips: u64,
    /// Simulated TFLOP/s of every distinct kernel (tuned winner) seen.
    pub tflops: BTreeMap<String, f64>,
    /// Wall time of first-sight requests (fleet workloads), ms.
    pub first_sight_ms: Samples,
    /// Wall time of repeat requests (fleet workloads), us.
    pub repeat_us: Samples,
    /// Calibration chunks interleaved with the ops.
    pub calibration: Calibration,
}

impl Sink {
    /// Records the wall time of one op of kind `kind` (the index of its
    /// kernel, sweep or request within the workload), then gives the
    /// calibration loop its turn — outside the op's timed region.
    fn timed(&mut self, kind: usize, dur: Duration) {
        let ms = dur.as_secs_f64() * 1e3;
        self.op_ms.push(ms);
        if self.kind_ms.len() <= kind {
            self.kind_ms.resize_with(kind + 1, Samples::default);
        }
        self.kind_ms[kind].push(ms);
        self.calibration.after_op(dur);
    }

    /// Counts one attempted op and whether it passed its checks.
    fn verdict(&mut self, ok: Result<(), String>) {
        self.ops += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    /// The typical time of each op kind: the median over its repetitions,
    /// ms. A burst of interference that hits fewer than half of a kind's
    /// repetitions does not move it.
    pub fn typical_ms(&self) -> Samples {
        Samples(self.kind_ms.iter().map(Samples::p50).collect())
    }

    fn cache_delta(&mut self, d: &CacheStats) {
        self.compiles += d.kernel_misses;
        self.sim_runs += d.sim_misses;
        self.disk_hits += d.disk.hits + d.disk.negative_hits + d.disk.sim_hits;
        self.disk_hits += d.disk.sim_negative_hits;
        self.disk_writes += d.disk.writes;
        self.roundtrips += d.remote.roundtrips;
    }

    /// Folds another stretch into this one.
    pub fn merge(&mut self, other: Sink) {
        self.op_ms.0.extend(other.op_ms.0);
        if self.kind_ms.len() < other.kind_ms.len() {
            self.kind_ms
                .resize_with(other.kind_ms.len(), Samples::default);
        }
        for (mine, theirs) in self.kind_ms.iter_mut().zip(other.kind_ms) {
            mine.0.extend(theirs.0);
        }
        self.pass_ms.0.extend(other.pass_ms.0);
        self.ops_per_pass = other.ops_per_pass;
        self.ops += other.ops;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.compiles += other.compiles;
        self.sim_runs += other.sim_runs;
        self.disk_hits += other.disk_hits;
        self.disk_writes += other.disk_writes;
        self.roundtrips += other.roundtrips;
        self.tflops.extend(other.tflops);
        self.first_sight_ms.0.extend(other.first_sight_ms.0);
        self.repeat_us.0.extend(other.repeat_us.0);
        self.calibration.merge(other.calibration);
    }
}

/// A set-up workload.
pub trait Workload {
    /// Runs one pass: every op of the workload once, in seeded order.
    /// With a recorder, each op is also recorded as a span and (cold and
    /// sweep workloads) re-enacted stage by stage.
    fn pass(&mut self, sink: &mut Sink, rec: Option<&mut Recorder>);

    /// The distinct kernels the workload runs, with the knobs they end
    /// up compiled under — the inputs of the per-layer probes.
    fn cases(&self) -> Vec<Case>;

    /// Runs every distinct op once on `session`, so that a session with
    /// a disk or remote tier attached ends up holding what this workload
    /// would write there.
    fn populate(&self, session: &CompileSession);

    /// Stops what set-up started and removes its files.
    fn teardown(self: Box<Self>);
}

/// Sets a workload up: inputs from the seed, tiers pre-warmed, warm-up
/// passes done. Also returns what the warm-up passes fed back.
///
/// # Errors
/// An unknown name, or an I/O failure while preparing cache tiers.
pub fn setup(name: &str, ctx: &Ctx, dir: &Path) -> Result<(Box<dyn Workload>, Sink), String> {
    let warmup = |passes: usize| if ctx.smoke { 1 } else { passes };
    let mut workload: Box<dyn Workload> = match name {
        "cold_short" => Box::new(Cold::new(ctx, short_zoo())),
        "cold_long" => Box::new(Cold::new(ctx, long_zoo())),
        "sweep_fig11" => Box::new(Sweeps::new(ctx)),
        "fleet_cold_writeback" => Box::new(Fleet::new(ctx, dir, FleetMode::ColdWriteback)?),
        "fleet_restart_warm" => Box::new(Fleet::new(ctx, dir, FleetMode::RestartWarm)?),
        "fleet_remote_warm" => Box::new(Fleet::new(ctx, dir, FleetMode::RemoteWarm)?),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let passes = match name {
        "cold_short" => warmup(20),
        "cold_long" | "sweep_fig11" => warmup(8),
        _ => 1,
    };
    let mut warm_up = Sink::default();
    for _ in 0..passes {
        workload.pass(&mut warm_up, None);
    }
    if warm_up.failed > 0 {
        return Err(format!(
            "{name}: {} of {} warm-up ops failed: {}",
            warm_up.failed,
            warm_up.ops,
            warm_up.failures.join("; ")
        ));
    }
    Ok((workload, warm_up))
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------
// cold_short / cold_long

struct Cold {
    dev: Device,
    golden: Golden,
    cases: Vec<Case>,
    ids: Vec<String>,
    rng: Rng,
}

impl Cold {
    fn new(ctx: &Ctx, cases: Vec<Case>) -> Cold {
        Cold {
            dev: ctx.dev.clone(),
            golden: ctx.golden.clone(),
            ids: cases.iter().map(Case::id).collect(),
            cases,
            rng: Rng(ctx.seed),
        }
    }
}

impl Workload for Cold {
    fn pass(&mut self, sink: &mut Sink, mut rec: Option<&mut Recorder>) {
        let mut pass = Duration::ZERO;
        for i in shuffled(&mut self.rng, self.cases.len()) {
            let (case, id) = (&self.cases[i], &self.ids[i]);
            // The op: DSL build + compile + simulate on a fresh session.
            let start = Instant::now();
            let program = build_program(&case.shape);
            let session = CompileSession::in_memory(&self.dev);
            let result = session.compile_and_simulate_program(&program, &case.opts);
            let dur = start.elapsed();
            pass += dur;

            sink.cache_delta(&session.cache_stats());
            let mut ok = match &result {
                Ok(report) if self.golden.matches(id, &case.opts, report) => Ok(()),
                Ok(_) => Err(format!("{id}: report differs from the golden file")),
                Err(e) => Err(format!("{id}: {e}")),
            };
            if let Ok(report) = &result {
                if !sink.tflops.contains_key(id) {
                    sink.tflops.insert(id.clone(), report.tflops);
                }
            }
            if let (Some(rec), Ok(report)) = (rec.as_deref_mut(), &result) {
                rec.next_op();
                rec.record(span::OP, start, dur.as_nanos() as u64);
                let staged =
                    Stager::new(&self.dev, rec).compile_and_simulate(&case.shape, &case.opts);
                let same = staged.is_ok_and(|s| {
                    s.report == *report
                        && session
                            .compile_program(&program, &case.opts)
                            .is_ok_and(|k| *k == s.kernel)
                });
                if !same && ok.is_ok() {
                    ok = Err(format!(
                        "{id}: staged re-enactment differs from the session"
                    ));
                }
            }
            sink.timed(i, dur);
            sink.verdict(ok);
        }
        sink.ops_per_pass = self.cases.len() as u64;
        sink.pass_ms.push(pass.as_secs_f64() * 1e3);
    }

    fn cases(&self) -> Vec<Case> {
        self.cases.clone()
    }

    fn populate(&self, session: &CompileSession) {
        for case in &self.cases {
            let _ = session.compile_and_simulate_program(&build_program(&case.shape), &case.opts);
        }
    }

    fn teardown(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// sweep_fig11

/// The winner of a sweep: its options and exact throughput.
fn winner(sweep: &SweepCase, result: &TuneResult) -> Option<(CompileOptions, u64)> {
    Some((
        result.best_options(&sweep.base)?,
        result.best_tflops()?.to_bits(),
    ))
}

/// Runs one sweep on a fresh in-memory session.
pub fn run_sweep(
    dev: &Device,
    sweep: &SweepCase,
    strategy: SweepStrategy,
) -> (CompileSession, TuneResult) {
    let program = build_program(&sweep.shape);
    let session = CompileSession::in_memory(dev);
    let result = autotune_with_session_strategy(
        &session,
        program.module(),
        program.spec(),
        &sweep.base,
        &sweep.space,
        strategy,
    );
    (session, result)
}

struct Sweeps {
    dev: Device,
    golden: Golden,
    sweeps: Vec<SweepCase>,
    ids: Vec<String>,
    /// Winners of the exhaustive strategy: the reference the guided
    /// sweep must reproduce bit for bit.
    exhaustive: Vec<Option<(CompileOptions, u64)>>,
    rng: Rng,
}

impl Sweeps {
    fn new(ctx: &Ctx) -> Sweeps {
        let sweeps = fig11_sweeps();
        let exhaustive = sweeps
            .iter()
            .map(|s| winner(s, &run_sweep(&ctx.dev, s, SweepStrategy::Exhaustive).1))
            .collect();
        Sweeps {
            dev: ctx.dev.clone(),
            golden: ctx.golden.clone(),
            ids: sweeps.iter().map(SweepCase::id).collect(),
            sweeps,
            exhaustive,
            rng: Rng(ctx.seed),
        }
    }

    /// Re-enacts a guided sweep: the shared cleanup once, then per
    /// candidate the pipeline tail and lowering, the analytic score and
    /// perf lints, and — for the candidates the sweep simulated — the
    /// static gate and the engine.
    fn reenact(&self, sweep: &SweepCase, result: &TuneResult, rec: &mut Recorder) {
        let mut stager = Stager::new(&self.dev, rec);
        let id = stager.rec.enter(span::STAGED);
        let program = stager.build(&sweep.shape);
        stager.rec.span(span::FINGERPRINT, |_| {
            std::hint::black_box(tawa_ir::module_fingerprint(program.module()))
        });
        let mut cleaned = program.module().clone();
        let _ = stager.cleanup(&mut cleaned);
        for point in &result.points {
            let opts = CompileOptions {
                aref_depth: point.aref_depth,
                mma_depth: point.mma_depth,
                cooperative: point.cooperative,
                persistent: point.persistent,
                ..sweep.base.clone()
            };
            let Ok(kernel) = stager.compile_tail(&cleaned, program.spec(), &opts) else {
                continue;
            };
            crate::layers::model_kernel(stager.rec, &kernel, &self.dev);
            if point.tflops.is_some() {
                let _ = stager.gate_and_simulate(&kernel);
            }
        }
        stager.rec.exit(id);
    }
}

impl Workload for Sweeps {
    fn pass(&mut self, sink: &mut Sink, mut rec: Option<&mut Recorder>) {
        let mut pass = Duration::ZERO;
        for i in shuffled(&mut self.rng, self.sweeps.len()) {
            let (sweep, id) = (&self.sweeps[i], &self.ids[i]);
            // The op: DSL build + one cold guided sweep on a fresh session.
            let start = Instant::now();
            let program = build_program(&sweep.shape);
            let session = CompileSession::in_memory(&self.dev);
            let result = autotune_with_session(
                &session,
                program.module(),
                program.spec(),
                &sweep.base,
                &sweep.space,
            );
            let dur = start.elapsed();
            pass += dur;

            sink.cache_delta(&session.cache_stats());
            let ok = (|| {
                let (best, bits) = winner(sweep, &result).ok_or("no feasible configuration")?;
                match &self.exhaustive[i] {
                    Some((want, want_bits))
                        if knobs(want) == knobs(&best) && *want_bits == bits => {}
                    _ => return Err("guided winner differs from the exhaustive winner"),
                }
                let unsound = result.points.iter().any(|p| {
                    matches!((p.analytic_tflops, p.tflops), (Some(bound), Some(sim)) if bound < sim)
                });
                if unsound {
                    return Err("analytic upper bound below the simulated throughput");
                }
                // A memory hit: the sweep already simulated its winner.
                let report = session
                    .compile_and_simulate_program(&program, &best)
                    .map_err(|_| "winner does not simulate")?;
                if !self.golden.matches(id, &best, &report) {
                    return Err("winner differs from the golden file");
                }
                if !sink.tflops.contains_key(id) {
                    sink.tflops.insert(id.clone(), report.tflops);
                }
                Ok(())
            })()
            .map_err(|why: &str| format!("{id}: {why}"));
            if let Some(rec) = rec.as_deref_mut() {
                rec.next_op();
                let op = rec.record(span::OP, start, dur.as_nanos() as u64);
                rec.counts(
                    op,
                    vec![
                        ("candidates", result.stats.candidates as u64),
                        ("simulate_calls", result.stats.simulate_calls as u64),
                        ("analytic_pruned", result.stats.analytic_pruned as u64),
                        ("infeasible", result.stats.infeasible as u64),
                    ],
                );
                self.reenact(sweep, &result, rec);
            }
            sink.timed(i, dur);
            sink.verdict(ok);
        }
        sink.ops_per_pass = self.sweeps.len() as u64;
        sink.pass_ms.push(pass.as_secs_f64() * 1e3);
    }

    fn cases(&self) -> Vec<Case> {
        self.sweeps
            .iter()
            .zip(&self.exhaustive)
            .filter_map(|(sweep, best)| {
                Some(Case {
                    shape: sweep.shape.clone(),
                    opts: best.as_ref()?.0.clone(),
                })
            })
            .collect()
    }

    fn populate(&self, session: &CompileSession) {
        for sweep in &self.sweeps {
            let program = build_program(&sweep.shape);
            autotune_with_session(
                session,
                program.module(),
                program.spec(),
                &sweep.base,
                &sweep.space,
            );
        }
    }

    fn teardown(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// fleet_*

/// Which cache tiers a fleet pass runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// No disk, no daemon (the serve probe of the non-fleet workloads).
    InMemory,
    /// Fresh session, empty disk directory, empty daemon — every pass.
    ColdWriteback,
    /// Fresh session over the warm disk directory from set-up; no daemon.
    RestartWarm,
    /// Fresh session, no disk, the warm daemon from set-up.
    RemoteWarm,
}

/// A daemon over a fresh store under `dir`, on a Unix socket in `dir`.
pub fn spawn_daemon(dir: &Path) -> Result<ServerHandle, String> {
    let store = ShardedStore::open(dir.join("store")).map_err(|e| format!("store: {e}"))?;
    tawa_cached::spawn(store, &RemoteAddr::Unix(dir.join("d.sock")))
        .map_err(|e| format!("daemon on {}: {e}", dir.join("d.sock").display()))
}

/// The trace every fleet workload replays.
pub fn fleet_trace(ctx: &Ctx) -> Trace {
    generate(&if ctx.smoke {
        TraceParams::quick("bench", ctx.seed, 24)
    } else {
        TraceParams::llama_mix("bench", ctx.seed, 512)
    })
}

/// Golden-file key of a fleet shape.
pub fn fleet_key(shape: &Request) -> String {
    format!("fleet {}", shape_line(shape))
}

/// A fleet workload: one op is one request of the trace, replayed through
/// a single-request `Replay::run`.
pub struct Fleet {
    mode: FleetMode,
    dev: Device,
    golden: Golden,
    trace: Trace,
    singles: Vec<Trace>,
    dir: PathBuf,
    daemon: Option<ServerHandle>,
    passes: u32,
    /// Tuned winner of every distinct shape, from the first pass.
    winners: BTreeMap<String, (Request, CompileOptions)>,
    /// Phase aggregates of the first (cold) pass; every later pass must
    /// reproduce them bit for bit.
    reference: Option<Vec<PhaseStats>>,
}

impl Fleet {
    /// Generates the trace and pre-warms the tiers the mode reads from.
    ///
    /// # Errors
    /// Directory creation or daemon start-up failures.
    pub fn new(ctx: &Ctx, dir: &Path, mode: FleetMode) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let trace = fleet_trace(ctx);
        let singles = trace
            .requests
            .iter()
            .map(|r| Trace::from_requests("bench", ctx.seed, vec![r.clone()]))
            .collect();
        let mut fleet = Fleet {
            mode,
            dev: ctx.dev.clone(),
            golden: ctx.golden.clone(),
            trace,
            singles,
            dir: dir.to_path_buf(),
            daemon: None,
            passes: 0,
            winners: BTreeMap::new(),
            reference: None,
        };
        // Pre-warm: one cold replay that writes back into the tier the
        // measured passes will read.
        match mode {
            FleetMode::InMemory | FleetMode::ColdWriteback => {}
            FleetMode::RestartWarm => {
                let session = CompileSession::in_memory(&fleet.dev)
                    .with_disk_cache(dir.join("disk"))
                    .map_err(|e| format!("disk tier: {e}"))?;
                fleet.replay(&session, &mut Sink::default(), None, false);
            }
            FleetMode::RemoteWarm => {
                let daemon = spawn_daemon(dir)?;
                let session =
                    CompileSession::in_memory(&fleet.dev).with_remote_cache(daemon.addr().clone());
                fleet.daemon = Some(daemon);
                fleet.replay(&session, &mut Sink::default(), None, false);
            }
        }
        Ok(fleet)
    }

    /// Replays the trace request by request over `session`. `warm` passes
    /// must not compile or simulate.
    fn replay(
        &mut self,
        session: &CompileSession,
        sink: &mut Sink,
        mut rec: Option<&mut Recorder>,
        warm: bool,
    ) {
        let mut replay = Replay::new(session);
        let mut pass = Duration::ZERO;
        // Per request: its wall time and either the index of its outcome
        // or why it already failed.
        let mut ops: Vec<Result<usize, String>> = Vec::with_capacity(self.singles.len());
        for (kind, single) in self.singles.iter().enumerate() {
            // The op: one request through a single-request replay.
            let start = Instant::now();
            let result = replay.run(single);
            let dur = start.elapsed();
            pass += dur;
            sink.timed(kind, dur);

            let index = replay.outcomes().len().wrapping_sub(1);
            let Some(outcome) = replay.outcomes().last().filter(|_| result.is_ok()) else {
                let why = result.err().map(|e| e.to_string()).unwrap_or_default();
                ops.push(Err(format!("{}: {why}", single.requests[0].to_line())));
                continue;
            };
            sink.cache_delta(&outcome.cache);
            if outcome.tuned {
                sink.first_sight_ms.push(dur.as_secs_f64() * 1e3);
            } else {
                sink.repeat_us.push(dur.as_secs_f64() * 1e6);
            }
            ops.push(
                if warm && outcome.compiles() + outcome.simulate_calls() > 0 {
                    Err(format!(
                        "{}: a warm pass compiled or simulated",
                        outcome.shape_key
                    ))
                } else {
                    Ok(index)
                },
            );
            if let Some(rec) = rec.as_deref_mut() {
                rec.next_op();
                let op = rec.record(span::OP, start, dur.as_nanos() as u64);
                let c = &outcome.cache;
                rec.counts(
                    op,
                    vec![
                        ("first_sight", u64::from(outcome.tuned)),
                        ("compiles", c.kernel_misses),
                        ("sim_runs", c.sim_misses),
                        ("memory_hits", c.kernel_hits + c.sim_hits),
                        ("disk_kernel_hits", c.disk.hits + c.disk.negative_hits),
                        ("disk_sim_hits", c.disk.sim_hits + c.disk.sim_negative_hits),
                        ("disk_writes", c.disk.writes),
                        ("remote_roundtrips", c.remote.roundtrips),
                    ],
                );
                // Re-enact a repeat request on the same session: what the
                // replay does for it is build the program, look its
                // report up (a memory hit) and snapshot the cache
                // counters four times. First sights (a whole sweep) are
                // not re-enacted.
                if let Some(opts) = replay
                    .winners()
                    .get(&outcome.shape_key)
                    .filter(|_| !outcome.tuned)
                {
                    let staged = rec.enter(span::STAGED);
                    let program = rec.span(span::DSL_BUILD, |_| build_program(&single.requests[0]));
                    rec.span(span::SIM_HIT, |_| {
                        let _ = session.compile_and_simulate_program(&program, opts);
                    });
                    for _ in 0..4 {
                        rec.span(span::CACHE_STATS, |_| {
                            std::hint::black_box(session.cache_stats());
                        });
                    }
                    rec.exit(staged);
                }
            }
        }

        // Per-shape checks, after the timed loop: the winner's report
        // (a memory hit by now) against the golden file, and every
        // request's simulated latency against that report.
        let mut shapes: BTreeMap<&str, Result<u64, String>> = BTreeMap::new();
        for request in &self.trace.requests {
            let line = request.to_line();
            let Some(opts) = replay.winners().get(&line) else {
                continue;
            };
            if !self.winners.contains_key(&line) {
                self.winners
                    .insert(line.clone(), (request.clone(), opts.clone()));
            }
        }
        for (line, (request, opts)) in &self.winners {
            let key = fleet_key(request);
            let verdict = match session.compile_and_simulate_program(&build_program(request), opts)
            {
                Ok(report) if self.golden.matches(&key, opts, &report) => {
                    sink.tflops.entry(key).or_insert(report.tflops);
                    Ok(report.total_time_us.to_bits())
                }
                Ok(_) => Err(format!("{key}: winner differs from the golden file")),
                Err(e) => Err(format!("{key}: {e}")),
            };
            shapes.insert(line, verdict);
        }
        let aggregates = PhaseStats::aggregate(replay.outcomes());
        let drifted = self
            .reference
            .as_ref()
            .is_some_and(|reference| *reference != aggregates);
        self.reference.get_or_insert(aggregates);

        let outcomes = replay.outcomes();
        for verdict in ops {
            let verdict = verdict.and_then(|index| {
                let outcome = &outcomes[index];
                match shapes.get(outcome.shape_key.as_str()) {
                    Some(Ok(bits)) if *bits == outcome.latency_us.to_bits() => Ok(()),
                    Some(Ok(_)) => Err(format!("{}: latency differs", outcome.shape_key)),
                    Some(Err(why)) => Err(why.clone()),
                    None => Err(format!("{}: no tuned winner", outcome.shape_key)),
                }
            });
            let verdict = if drifted {
                verdict.and(Err(
                    "phase aggregates differ from the first pass".to_string()
                ))
            } else {
                verdict
            };
            sink.verdict(verdict);
        }
        sink.ops_per_pass = self.singles.len() as u64;
        sink.pass_ms.push(pass.as_secs_f64() * 1e3);
    }
}

impl Workload for Fleet {
    fn pass(&mut self, sink: &mut Sink, rec: Option<&mut Recorder>) {
        self.passes += 1;
        let fresh = CompileSession::in_memory(&self.dev);
        match self.mode {
            FleetMode::InMemory => self.replay(&fresh, sink, rec, false),
            FleetMode::ColdWriteback => {
                // Fixture (untimed): an empty disk directory and an empty
                // daemon for this pass alone.
                let dir = self.dir.join(format!("pass-{}", self.passes));
                let tiers = std::fs::create_dir_all(&dir)
                    .map_err(|e| e.to_string())
                    .and_then(|()| spawn_daemon(&dir))
                    .and_then(|daemon| {
                        fresh
                            .with_disk_cache(dir.join("disk"))
                            .map(|s| (s.with_remote_cache(daemon.addr().clone()), daemon))
                            .map_err(|e| e.to_string())
                    });
                match tiers {
                    Ok((session, daemon)) => {
                        self.replay(&session, sink, rec, false);
                        daemon.shutdown();
                    }
                    Err(why) => sink.verdict(Err(format!("fixture: {why}"))),
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            FleetMode::RestartWarm => match fresh.with_disk_cache(self.dir.join("disk")) {
                Ok(session) => self.replay(&session, sink, rec, true),
                Err(why) => sink.verdict(Err(format!("fixture: {why}"))),
            },
            FleetMode::RemoteWarm => {
                let addr = self.daemon.as_ref().expect("set-up spawned it").addr();
                let session = fresh.with_remote_cache(addr.clone());
                self.replay(&session, sink, rec, true);
            }
        }
    }

    fn cases(&self) -> Vec<Case> {
        self.winners
            .values()
            .map(|(shape, opts)| Case {
                shape: shape.clone(),
                opts: opts.clone(),
            })
            .collect()
    }

    fn populate(&self, session: &CompileSession) {
        let _ = tawa_serve::replay_trace(session, &self.trace);
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
