//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions.
//!
//! A traced run has two parts. Alternating **untraced and traced
//! passes** of the workload give the tracing overhead and the spans of
//! the timed ops with their stage-by-stage re-enactment.
//! The **probes** then call every layer directly on the workload's own
//! kernels, keys and trace, so every per-layer metric has a value on
//! every workload; the few that cannot depend on the workload (the
//! Fig. 8–12 fidelity ratios, the Fig. 11 sweep comparison, the
//! parallel-classes speed-up) are fixed probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gpu_sim::{Device, SimOptions};
use tawa_bench::{fig10, fig11, fig12, fig8, Scale};
use tawa_core::autotune::SweepStrategy;
use tawa_core::cache::{CacheKey, EntryKind};
use tawa_core::{CompileSession, DiskCache, RemoteCache};
use tawa_kernels::templates::{ws_attention, ws_gemm, AttentionStrategy, GemmStrategy};
use tawa_serve::Request;
use tawa_wsir::Kernel;

use crate::manifest::PER_LAYER;
use crate::stage::{kernel_dynamic_instrs, kernel_static_instrs, span, Stager};
use crate::stats::{geomean, mean, Samples};
use crate::trace::Recorder;
use crate::workloads::{
    fleet_trace, run_sweep, spawn_daemon, Ctx, Fleet, FleetMode, Sink, Workload,
};
use crate::zoo::{build_program, fig11_sweeps, knobs, many_class_case, Case};

/// Span names of the probe-only layers.
mod probe {
    pub const PARENT: &str = "probe";
    pub const PRINT: &str = "ir.print";
    pub const PARSE: &str = "ir.parse";
    pub const ESTIMATE: &str = "sim.analytic.estimate";
    pub const ANALYZE_PERF: &str = "wsir.analyze_perf";
    pub const SERIALIZE: &str = "wsir.serialize";
    pub const DESERIALIZE: &str = "wsir.deserialize";
    pub const REPORT_ENCODE: &str = "sim.report_serde.encode";
    pub const REPORT_DECODE: &str = "sim.report_serde.decode";
    pub const COMPILE_COLD: &str = "core.session.compile_cold";
    pub const TEMPLATE: &str = "kernels.templates.build";
}

/// A metric value and the number of samples behind it.
pub type Metrics = BTreeMap<String, (f64, usize)>;

/// The analytic score and the perf lints of a compiled kernel — what a
/// guided sweep computes for every candidate. Returns the throughput
/// upper bound and the number of lints.
pub fn model_kernel(rec: &mut Recorder, kernel: &Kernel, dev: &Device) -> (f64, usize) {
    let bound = rec.span(probe::ESTIMATE, |_| {
        gpu_sim::estimate(kernel, dev).tflops_upper_bound
    });
    let lints = rec.span(probe::ANALYZE_PERF, |_| {
        tawa_wsir::analyze_kernel(kernel, &gpu_sim::perf_model(kernel, dev)).len()
    });
    (bound, lints)
}

/// Times `f` into the pool of `metric`.
fn timed<T>(
    pools: &mut BTreeMap<&'static str, Samples>,
    metric: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    time_us(pools.entry(metric).or_default(), f)
}

fn time_us<T>(pool: &mut Samples, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    pool.push(start.elapsed().as_secs_f64() * 1e6);
    out
}

/// Exact per-kernel facts gathered while probing the workload's cases.
#[derive(Default)]
struct CaseFacts {
    module_ops: Vec<f64>,
    cleaned_ops: Vec<f64>,
    static_instrs: Vec<f64>,
    wsir_bytes: Vec<f64>,
    lints: Vec<f64>,
    tightness: Vec<f64>,
    unsound: usize,
    tc_utilization: Vec<f64>,
    cycles: u64,
    stall_barrier: u64,
    stall_wgmma: u64,
    seq_ns: f64,
    seq_instrs: u64,
    seq_cycles: u64,
}

/// Probes every compiler, analysis, simulator and serialization layer on
/// one kernel of the workload.
fn probe_case(
    case: &Case,
    dev: &Device,
    rec: &mut Recorder,
    facts: &mut CaseFacts,
    first_round: bool,
) -> Result<(), String> {
    let staged = Stager::new(dev, rec)
        .compile_and_simulate(&case.shape, &case.opts)
        .map_err(|e| format!("{}: {e}", case.id()))?;
    let parent = rec.enter(probe::PARENT);
    let module = staged.program.module();
    let text = rec.span(probe::PRINT, |_| tawa_ir::print::print_module(module));
    rec.span(probe::PARSE, |_| tawa_ir::parse::parse_module(&text))
        .map_err(|e| format!("{}: printed IR does not parse: {}", case.id(), e.msg))?;
    rec.span(probe::COMPILE_COLD, |_| {
        CompileSession::in_memory(dev).compile_program(&staged.program, &case.opts)
    })
    .map_err(|e| format!("{}: {e}", case.id()))?;
    let (bound, perf_lints) = model_kernel(rec, &staged.kernel, dev);
    let wsir = rec.span(probe::SERIALIZE, |_| {
        tawa_wsir::serialize_kernel(&staged.kernel)
    });
    let kernel_back = rec
        .span(probe::DESERIALIZE, |_| tawa_wsir::deserialize_kernel(&wsir))
        .map_err(|e| format!("{}: {e}", case.id()))?;
    let encoded = rec.span(probe::REPORT_ENCODE, |_| {
        gpu_sim::serialize_report(&staged.report)
    });
    let report_back = rec
        .span(probe::REPORT_DECODE, |_| {
            gpu_sim::deserialize_report(&encoded)
        })
        .map_err(|e| format!("{}: {e}", case.id()))?;
    if kernel_back != staged.kernel || report_back != staged.report {
        return Err(format!("{}: serialization does not round-trip", case.id()));
    }
    // The sequential engine: the reference for host cost per instruction.
    let sequential = SimOptions {
        parallel_classes: false,
    };
    let start = Instant::now();
    let seq = gpu_sim::simulate_with(&staged.kernel, dev, &sequential);
    facts.seq_ns += start.elapsed().as_nanos() as f64;
    if seq.ok().as_ref() != Some(&staged.report) {
        return Err(format!("{}: sequential report differs", case.id()));
    }
    facts.seq_instrs += kernel_dynamic_instrs(&staged.kernel, dev.occupancy(&staged.kernel));
    facts.seq_cycles += staged.report.cycles;
    // The expert template of the same shape and knobs (grouped GEMM has
    // none).
    match &case.shape {
        Request::Prefill(cfg) => {
            let strategy = GemmStrategy {
                coop: case.opts.cooperative,
                d: case.opts.aref_depth,
                p: case.opts.mma_depth,
                persistent: case.opts.persistent,
                launch_ns: case.opts.launch_overhead_ns,
                iter_bubble: 0.0,
            };
            let _ = rec.span(probe::TEMPLATE, |_| ws_gemm(cfg, &strategy, dev));
        }
        Request::Decode(cfg) => {
            let strategy = AttentionStrategy {
                coop: case.opts.cooperative,
                d: case.opts.aref_depth,
                overlap: true,
                softmax_exposure: 1.0,
                launch_ns: case.opts.launch_overhead_ns,
                iter_bubble: 0.0,
            };
            let _ = rec.span(probe::TEMPLATE, |_| ws_attention(cfg, &strategy, dev));
        }
        Request::Moe(_) => {}
    }
    rec.exit(parent);

    if first_round {
        let r = &staged.report;
        facts.module_ops.push(staged.module_ops as f64);
        facts.cleaned_ops.push(staged.cleaned_ops as f64);
        facts
            .static_instrs
            .push(kernel_static_instrs(&staged.kernel) as f64);
        facts.wsir_bytes.push(wsir.len() as f64);
        facts
            .lints
            .push((tawa_wsir::analyze(&staged.kernel).len() + perf_lints) as f64);
        facts.tightness.push(bound / r.tflops);
        facts.unsound += usize::from(bound < r.tflops);
        facts.tc_utilization.push(r.tc_utilization);
        facts.cycles += r.wave_stats.cycles;
        facts.stall_barrier += r.wave_stats.stall_barrier;
        facts.stall_wgmma += r.wave_stats.stall_wgmma;
    }
    Ok(())
}

/// Probes the disk tier, the remote client, the daemon and the session's
/// hit paths on what the workload writes into them.
fn probe_tiers(
    workload: &dyn Workload,
    ctx: &Ctx,
    dir: &Path,
    rounds: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let daemon = spawn_daemon(dir)?;
    let writer = CompileSession::in_memory(&ctx.dev)
        .with_disk_cache(dir.join("disk"))
        .map_err(|e| e.to_string())?
        .with_remote_cache(daemon.addr().clone());
    workload.populate(&writer);
    drop(writer);

    // A fresh handle: its counters start at zero.
    let disk = DiskCache::open(dir.join("disk")).map_err(|e| e.to_string())?;
    let remote = RemoteCache::new(daemon.addr().clone());
    let entries = disk.entries();
    let miss = |key: &CacheKey| CacheKey {
        module_fp: !key.module_fp,
        env_fp: key.env_fp,
    };
    // Timing pools, keyed by the metric they become.
    let mut pools: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let before = daemon.daemon_stats();
    for _ in 0..rounds {
        for entry in &entries {
            match entry.kind {
                EntryKind::Kernel => {
                    let kernel = timed(&mut pools, "core.cache.load_kernel_us_p50", || {
                        disk.load(&entry.key)
                    })
                    .ok_or("disk tier lost a kernel entry")?;
                    timed(&mut pools, "core.cache.store_kernel_us_p50", || {
                        disk.store(&entry.key, &kernel)
                    });
                    timed(&mut pools, "core.cache.load_miss_us_p50", || {
                        disk.load(&miss(&entry.key))
                    });
                    let got = timed(&mut pools, "core.remote.get_kernel_us_p50", || {
                        remote.get_kernel(&entry.key)
                    });
                    if got.is_none() {
                        return Err("daemon lost a kernel entry".to_string());
                    }
                    timed(&mut pools, "core.remote.put_kernel_us_p50", || {
                        remote.put_kernel(&entry.key, &kernel)
                    });
                    timed(&mut pools, "core.remote.get_miss_us_p50", || {
                        remote.get_kernel(&miss(&entry.key))
                    });
                }
                EntryKind::SimReport => {
                    let outcome = timed(&mut pools, "core.cache.load_sim_us_p50", || {
                        disk.load_sim(&entry.key)
                    })
                    .ok_or("disk tier lost a sim entry")?;
                    timed(&mut pools, "core.cache.store_sim_us_p50", || {
                        disk.store_sim_outcome(&entry.key, &outcome)
                    });
                    let got = timed(&mut pools, "core.remote.get_sim_us_p50", || {
                        remote.get_sim(&entry.key)
                    });
                    if got.is_none() {
                        return Err("daemon lost a sim entry".to_string());
                    }
                    timed(&mut pools, "core.remote.put_sim_us_p50", || {
                        remote.put_sim(&entry.key, &outcome)
                    });
                }
                EntryKind::Infeasible => {}
            }
        }
        timed(&mut pools, "cached.server.stats_roundtrip_us_p50", || {
            remote.fetch_stats()
        })
        .ok_or("daemon stats unavailable")?;
    }
    let after = daemon.daemon_stats();

    // The session's hit paths, disk attached: the first call per case is
    // served from disk, the timed ones from memory.
    let session = CompileSession::in_memory(&ctx.dev)
        .with_disk_cache(dir.join("disk"))
        .map_err(|e| e.to_string())?;
    for case in workload.cases() {
        let program = build_program(&case.shape);
        session
            .compile_and_simulate_program(&program, &case.opts)
            .map_err(|e| format!("{}: {e}", case.id()))?;
        for _ in 0..rounds {
            timed(&mut pools, "core.session.compile_hit_us_p50", || {
                session.compile_program(&program, &case.opts)
            })
            .map_err(|e| e.to_string())?;
            timed(&mut pools, "core.session.sim_hit_us_p50", || {
                session.compile_and_simulate_program(&program, &case.opts)
            })
            .map_err(|e| e.to_string())?;
            timed(&mut pools, "core.session.cache_stats_us_p50", || {
                session.cache_stats()
            });
        }
    }
    let cold = session.cache_stats();
    if cold.kernel_misses + cold.sim_misses > 0 {
        return Err("a session over the populated disk tier compiled or simulated".to_string());
    }

    for (metric, samples) in pools {
        out.insert(metric.to_string(), (samples.p50(), samples.n()));
    }
    let requests = after.requests - before.requests;
    let exact = |v: f64| (v, 1);
    out.insert(
        "cached.server.connections_per_request".to_string(),
        exact((after.connections - before.connections) as f64 / requests.max(1) as f64),
    );
    out.insert(
        "cached.server.errors".to_string(),
        exact(after.errors as f64),
    );
    out.insert(
        "cached.store.entries".to_string(),
        exact(after.entries as f64),
    );
    out.insert("cached.store.bytes".to_string(), exact(after.bytes as f64));
    out.insert(
        "core.cache.invalidations".to_string(),
        exact(disk.stats().invalidations as f64),
    );
    out.insert(
        "core.remote.errors".to_string(),
        exact(remote.stats().errors as f64),
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The Fig. 11 sweep comparison: guided (the default strategy) against
/// exhaustive, each on fresh sessions.
fn probe_autotune(dev: &Device, rounds: usize, out: &mut Metrics) {
    let (mut guided_ms, mut exhaustive_ms) = (Samples::default(), Samples::default());
    let (mut guided_runs, mut exhaustive_runs, mut pruned, mut matches) =
        (0u64, 0u64, 0u64, 0usize);
    let sweeps = fig11_sweeps();
    for round in 0..rounds {
        for sweep in &sweeps {
            let start = Instant::now();
            let (gs, guided) = run_sweep(dev, sweep, SweepStrategy::default());
            guided_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let (es, exhaustive) = run_sweep(dev, sweep, SweepStrategy::Exhaustive);
            exhaustive_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if round == 0 {
                guided_runs += gs.cache_stats().sim_misses;
                exhaustive_runs += es.cache_stats().sim_misses;
                pruned += guided.stats.analytic_pruned as u64;
                let same = guided.best_tflops().map(f64::to_bits)
                    == exhaustive.best_tflops().map(f64::to_bits)
                    && guided.best_options(&sweep.base).as_ref().map(knobs)
                        == exhaustive.best_options(&sweep.base).as_ref().map(knobs);
                matches += usize::from(same && guided.best.is_some());
            }
        }
    }
    let n = sweeps.len();
    out.insert(
        "core.autotune.guided_ms_p50".into(),
        (guided_ms.p50(), guided_ms.n()),
    );
    out.insert(
        "core.autotune.exhaustive_ms_p50".into(),
        (exhaustive_ms.p50(), exhaustive_ms.n()),
    );
    out.insert(
        "core.autotune.guided_sim_runs".into(),
        (guided_runs as f64, n),
    );
    out.insert(
        "core.autotune.exhaustive_sim_runs".into(),
        (exhaustive_runs as f64, n),
    );
    out.insert("core.autotune.analytic_pruned".into(), (pruned as f64, n));
    out.insert(
        "core.autotune.winner_match_share".into(),
        (matches as f64 / n as f64, n),
    );
}

/// Sequential ÷ parallel host time of the engine on the kernel with the
/// most CTA classes.
fn probe_parallel_classes(dev: &Device, rounds: usize, out: &mut Metrics) -> Result<(), String> {
    let case = many_class_case();
    let kernel = CompileSession::in_memory(dev)
        .compile_program(&build_program(&case.shape), &case.opts)
        .map_err(|e| e.to_string())?;
    let (mut seq, mut par) = (Samples::default(), Samples::default());
    for _ in 0..rounds {
        for (pool, parallel_classes) in [(&mut seq, false), (&mut par, true)] {
            time_us(pool, || {
                gpu_sim::simulate_with(&kernel, dev, &SimOptions { parallel_classes })
            })
            .map_err(|e| e.to_string())?;
        }
    }
    out.insert(
        "sim.engine.parallel_classes_speedup".into(),
        (seq.p50() / par.p50(), rounds),
    );
    Ok(())
}

/// Paper fidelity: the simulated Fig. 8–12 ratios. The model has no
/// hardware reference in-tree — these are unvalidated against H100
/// measurements, so no error figure is given; they are pinned so that a
/// host-side speed-up cannot move them silently.
fn probe_fidelity(dev: &Device, scale: Scale, out: &mut Metrics) {
    let speedup = |figures: &[tawa_bench::Figure], a: &str, b: &str| {
        let ratios: Vec<f64> = figures
            .iter()
            .filter_map(|f| f.geomean_speedup(a, b))
            .collect();
        (geomean(ratios.iter().copied()), ratios.len())
    };
    let f8 = fig8::run(dev, scale);
    out.insert(
        "bench.fig8.tawa_over_cublas_geomean".into(),
        speedup(&f8, "Tawa", "cuBLAS"),
    );
    out.insert(
        "bench.fig8.tawa_over_triton_geomean".into(),
        speedup(&f8, "Tawa", "Triton"),
    );
    let f10 = fig10::run(dev, scale);
    out.insert(
        "bench.fig10.tawa_over_triton_geomean".into(),
        speedup(&f10, "Tawa", "Triton"),
    );
    out.insert(
        "bench.fig10.tawa_over_fa3_geomean".into(),
        speedup(&f10, "Tawa", "FA3 (CUTLASS)"),
    );
    let heatmaps = fig11::run(dev, scale);
    let best = heatmaps
        .iter()
        .map(|h| h.argmax().2)
        .fold(0.0_f64, f64::max);
    out.insert("bench.fig11.best_tflops".into(), (best, heatmaps.len()));
    let ablation = |a: &fig12::Ablation| match (a.steps.first(), a.steps.last()) {
        (Some(first), Some(last)) if first.tflops > 0.0 => last.tflops / first.tflops,
        _ => 0.0,
    };
    let session = CompileSession::in_memory(dev);
    out.insert(
        "bench.fig12.gemm_ablation_speedup".into(),
        (ablation(&fig12::run_gemm_with_session(&session, scale)), 1),
    );
    out.insert(
        "bench.fig12.mha_ablation_speedup".into(),
        (ablation(&fig12::run_mha_with_session(&session, scale)), 1),
    );
}

/// Share of the re-enacted ops' wall time that the staged layers do not
/// explain (glue), and each span name's share of that wall time (self
/// time). Ops without a re-enactment (first-sight fleet requests) are
/// left out of both.
fn layer_shares(rec: &Recorder) -> (f64, Vec<(String, f64)>) {
    let own = rec.self_times_ns();
    let staged_ops: std::collections::BTreeSet<u32> = rec
        .spans()
        .iter()
        .filter(|s| rec.name_of(s) == span::STAGED)
        .map(|s| s.op)
        .collect();
    let (mut op_ns, mut staged_ns, mut staged_own_ns) = (0u64, 0u64, 0u64);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in rec.spans().iter().zip(&own) {
        if !staged_ops.contains(&span.op) {
            continue;
        }
        match rec.name_of(span) {
            span::OP => op_ns += span.dur_ns(),
            span::STAGED => {
                staged_ns += span.dur_ns();
                staged_own_ns += own;
            }
            name => *by_name.entry(name).or_default() += own,
        }
    }
    if op_ns == 0 {
        return (0.0, Vec::new());
    }
    let explained = (staged_ns - staged_own_ns) as f64;
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / op_ns as f64))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    (1.0 - explained / op_ns as f64, shares)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a traced run produced.
pub struct TracedRun {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// The op counters of both stretches.
    pub sink: Sink,
    /// Self-time share of each layer in the timed ops (cold and sweep
    /// workloads), largest first.
    pub shares: Vec<(String, f64)>,
    /// The spans of the traced stretch and the case probes.
    pub recorder: Recorder,
}

/// Runs passes until `seconds` have elapsed (at least one).
pub fn run_for(
    workload: &mut dyn Workload,
    seconds: f64,
    smoke: bool,
    mut rec: Option<&mut Recorder>,
) -> Sink {
    let mut sink = Sink::default();
    let start = Instant::now();
    loop {
        workload.pass(&mut sink, rec.as_deref_mut());
        if smoke || start.elapsed().as_secs_f64() >= seconds {
            return sink;
        }
    }
}

/// The traced run of one workload.
///
/// # Errors
/// A probe that cannot run, or a probe whose own consistency check fails.
pub fn traced_run(
    workload: &mut dyn Workload,
    ctx: &Ctx,
    seconds: f64,
) -> Result<TracedRun, String> {
    let mut out = Metrics::new();
    let rounds = if ctx.smoke { 1 } else { 3 };
    // Memory is read first, right after set-up: a fixed amount of work,
    // whatever the machine then manages in the measured seconds.
    out.insert("peak_rss_mb".into(), (peak_rss_mb(), 1));

    // Untraced and traced passes alternate, so that drift over the run
    // touches both alike: the difference is the tracing overhead.
    let (mut untraced, mut traced) = (Sink::default(), Sink::default());
    let mut rec = Recorder::new();
    let start = Instant::now();
    loop {
        workload.pass(&mut untraced, None);
        workload.pass(&mut traced, Some(&mut rec));
        if ctx.smoke || start.elapsed().as_secs_f64() >= seconds * 3.0 / 8.0 {
            break;
        }
    }
    let (u, t) = (untraced.op_ms.p50(), traced.op_ms.p50());
    println!("op_ms_p50: {u:.6} untraced, {t:.6} traced");
    out.insert(
        "trace.overhead_share".into(),
        ((t - u) / u, traced.op_ms.n()),
    );
    // Before the probes add their own spans.
    let (staged_glue, shares) = layer_shares(&rec);
    let is_fleet = traced.first_sight_ms.n() > 0;
    let mut sink = untraced;
    sink.merge(traced);

    // Case probes: every layer, on each distinct kernel of the workload.
    let cases = workload.cases();
    let mut facts = CaseFacts::default();
    for round in 0..rounds {
        for case in &cases {
            probe_case(case, &ctx.dev, &mut rec, &mut facts, round == 0)?;
        }
    }
    // The SIMT lowering runs only for non-specialized baselines, which no
    // workload compiles: probe it on the workload's shapes directly.
    for case in &cases {
        let opts = tawa_core::CompileOptions {
            warp_specialize: false,
            ..case.opts.clone()
        };
        let mut stager = Stager::new(&ctx.dev, &mut rec);
        let program = stager.build(&case.shape);
        let mut cleaned = program.module().clone();
        let _ = stager.cleanup(&mut cleaned);
        let _ = stager.lower(&cleaned, program.spec(), &opts);
    }
    let pools = rec.self_time_pools_us();
    let p50 = |name: &str| {
        pools
            .get(name)
            .map_or((0.0, 0), |pool| (pool.p50(), pool.n()))
    };
    for (metric, span_name) in [
        ("frontend.dsl_build_us_p50", span::DSL_BUILD),
        ("ir.fingerprint_us_p50", span::FINGERPRINT),
        ("ir.print_us_p50", probe::PRINT),
        ("ir.parse_us_p50", probe::PARSE),
        ("ir.pass.const-fold_us_p50", "ir.pass.const-fold"),
        ("ir.pass.dce_us_p50", "ir.pass.dce"),
        (
            "core.pass.warp-specialize_us_p50",
            "core.pass.warp-specialize",
        ),
        (
            "core.pass.fine-grained-pipeline_us_p50",
            "core.pass.fine-grained-pipeline",
        ),
        (
            "core.pass.coarse-pipeline_us_p50",
            "core.pass.coarse-pipeline",
        ),
        ("core.lower.ws_us_p50", span::LOWER_WS),
        ("core.lower.simt_us_p50", span::LOWER_SIMT),
        ("core.session.compile_cold_us_p50", probe::COMPILE_COLD),
        ("wsir.serialize_us_p50", probe::SERIALIZE),
        ("wsir.deserialize_us_p50", probe::DESERIALIZE),
        ("wsir.analyze_us_p50", span::ANALYZE),
        ("wsir.analyze_perf_us_p50", probe::ANALYZE_PERF),
        ("sim.engine.simulate_us_p50", span::SIMULATE),
        ("sim.analytic.estimate_us_p50", probe::ESTIMATE),
        ("sim.report_serde.encode_us_p50", probe::REPORT_ENCODE),
        ("sim.report_serde.decode_us_p50", probe::REPORT_DECODE),
        ("kernels.templates.build_us_p50", probe::TEMPLATE),
    ] {
        out.insert(metric.to_string(), p50(span_name));
    }
    let n = cases.len();
    let exact = |v: f64| (v, n);
    out.insert("frontend.module_ops".into(), exact(mean(&facts.module_ops)));
    out.insert(
        "ir.ops_after_cleanup".into(),
        exact(mean(&facts.cleaned_ops)),
    );
    out.insert(
        "core.lower.wsir_instrs_static".into(),
        exact(mean(&facts.static_instrs)),
    );
    out.insert(
        "wsir.bytes_per_kernel".into(),
        exact(mean(&facts.wsir_bytes)),
    );
    out.insert(
        "wsir.analyze.lints_per_kernel".into(),
        exact(mean(&facts.lints)),
    );
    out.insert(
        "sim.analytic.tightness_geomean".into(),
        exact(geomean(facts.tightness.iter().copied())),
    );
    out.insert(
        "sim.analytic.unsound_count".into(),
        exact(facts.unsound as f64),
    );
    out.insert(
        "sim.model.tc_utilization_geomean".into(),
        exact(geomean(facts.tc_utilization.iter().copied())),
    );
    let cycles = facts.cycles.max(1) as f64;
    out.insert(
        "sim.model.stall_barrier_share".into(),
        exact(facts.stall_barrier as f64 / cycles),
    );
    out.insert(
        "sim.model.stall_wgmma_share".into(),
        exact(facts.stall_wgmma as f64 / cycles),
    );
    out.insert(
        "sim.engine.host_ns_per_instr".into(),
        (facts.seq_ns / facts.seq_instrs.max(1) as f64, n * rounds),
    );
    out.insert(
        "sim.engine.sim_cycles_per_host_us".into(),
        (
            facts.seq_cycles as f64 / (facts.seq_ns / 1e3).max(1e-9),
            n * rounds,
        ),
    );

    probe_tiers(workload, ctx, &ctx.scratch.join("probe"), rounds, &mut out)?;
    probe_autotune(&ctx.dev, rounds, &mut out);
    probe_parallel_classes(&ctx.dev, rounds, &mut out)?;
    // The smoke run only checks that the probe runs; its ratios are those
    // of the quick figure scale.
    let scale = if ctx.smoke { Scale::Quick } else { Scale::Full };
    probe_fidelity(&ctx.dev, scale, &mut out);

    // Serving: trace generation, and first-sight against repeat requests
    // — from the workload's own ops when it is a fleet workload, from one
    // cold in-memory replay of the same trace otherwise.
    let mut generate_ms = Samples::default();
    for _ in 0..rounds * 5 {
        time_us(&mut generate_ms, || fleet_trace(ctx));
    }
    out.insert(
        "serve.trace.generate_ms".into(),
        (generate_ms.p50() / 1e3, generate_ms.n()),
    );
    let mut serve = Sink::default();
    let serving = if is_fleet {
        &sink
    } else {
        let dir = ctx.scratch.join("serve-probe");
        let mut fleet = Box::new(Fleet::new(ctx, &dir, FleetMode::InMemory)?);
        fleet.pass(&mut serve, None);
        fleet.teardown();
        if serve.failed > 0 {
            return Err(format!("serve probe: {}", serve.failures.join("; ")));
        }
        &serve
    };
    let first_ms = serving.first_sight_ms.sum();
    let repeat_ms = serving.repeat_us.sum() / 1e3;
    out.insert(
        "serve.replay.first_sight_ms_p50".into(),
        (serving.first_sight_ms.p50(), serving.first_sight_ms.n()),
    );
    out.insert(
        "serve.replay.repeat_us_p50".into(),
        (serving.repeat_us.p50(), serving.repeat_us.n()),
    );
    out.insert(
        "serve.replay.first_sight_share".into(),
        (
            first_ms / (first_ms + repeat_ms),
            serving.first_sight_ms.n() + serving.repeat_us.n(),
        ),
    );

    // The deterministic end-to-end quantities and the per-op tier counts.
    let ops = sink.ops.max(1) as f64;
    let per_op = |count: u64| (count as f64 / ops, sink.ops as usize);
    out.insert("failed_share".into(), per_op(sink.failed));
    out.insert("compiles_per_op".into(), per_op(sink.compiles));
    out.insert("sim_runs_per_op".into(), per_op(sink.sim_runs));
    out.insert("core.cache.disk_hits_per_op".into(), per_op(sink.disk_hits));
    out.insert(
        "core.cache.disk_writes_per_op".into(),
        per_op(sink.disk_writes),
    );
    out.insert(
        "core.remote.roundtrips_per_op".into(),
        per_op(sink.roundtrips),
    );
    out.insert(
        "sim_tflops".into(),
        (geomean(sink.tflops.values().copied()), sink.tflops.len()),
    );
    // Per-layer timings are reported as measured; the chunk time of the
    // same run says how fast the machine was.
    out.insert(
        "calibration_chunk_us".into(),
        (sink.calibration.chunk_us(), sink.calibration.big_us.n()),
    );

    // Glue: the share of the re-enacted ops' time that the staged layers
    // do not explain.
    out.insert(
        "core.session.glue_share".into(),
        (staged_glue, sink.ops as usize),
    );

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| !out.contains_key(*name))
        .collect();
    if !missing.is_empty() || out.len() != PER_LAYER.len() {
        return Err(format!(
            "per-layer metrics out of step with the manifest (missing: {missing:?})"
        ));
    }
    Ok(TracedRun {
        metrics: out,
        sink,
        shares,
        recorder: rec,
    })
}
