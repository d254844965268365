//! Staged compiler sessions: declarative pipelines and a
//! content-addressed compile cache.
//!
//! A [`CompileSession`] owns everything one device's compilations share:
//!
//! * the [`PassRegistry`] with the Tawa passes registered
//!   (`warp-specialize`, `fine-grained-pipeline`, `coarse-pipeline`, plus
//!   the generic `const-fold`/`dce` cleanups),
//! * a **content-addressed cache** keyed by (module fingerprint,
//!   [`CompileOptions`], launch spec, device), holding per key a *kernel
//!   slot* (the compiled kernel, or the verdict that the configuration
//!   is [`CompileError::Infeasible`]) and a *sim slot* (the simulation
//!   report, a deterministic simulator failure — deadlock, unplaceable
//!   kernel — or the static gate's rejection), so repeated sweeps skip
//!   the compiler and the simulator, and a doomed configuration costs
//!   one run, not one per retry,
//! * a **cleanup-prefix cache**: the options-independent
//!   `fixpoint(const-fold,dce)` front of the pipeline runs once per
//!   distinct input module and is shared by every configuration the
//!   autotuner tries, and
//! * optionally, behind the in-memory tier, a **persistent on-disk
//!   tier** ([`crate::cache::DiskCache`]) and a **remote tier**
//!   ([`crate::remote::RemoteCache`], the `tawa-cached` daemon), so both
//!   slots survive process restarts and are shared by a fleet — a
//!   restart-warm or fleet-warm autotune sweep replays without invoking
//!   the compiler *or* the simulator.
//!
//! ## Cache key derivation
//!
//! Every tier is addressed by the same [`CacheKey`]: `module_fp` is the
//! FNV-1a fingerprint of the module's canonical printed IR
//! ([`tawa_ir::fingerprint::module_fingerprint`], streamed into the hash
//! — no text is buffered). Every entry point takes a [`Program`] and
//! reads the fingerprint it remembers ([`Program::fingerprint`]); an
//! autotune sweep hashes its module once for all its candidates, and
//! everything below takes `module_fp` as an argument.
//! `env_fp` hashes the `Debug` form of the
//! remaining compilation inputs — [`CompileOptions`] (every knob,
//! including the [`CompileOptions::pipeline`] override), the
//! [`LaunchSpec`] and the full [`Device`] (every calibration constant,
//! not just the name — simulation outcomes depend on all of them). Two
//! compilations share an entry
//! iff every input matches, which is why a cache hit is byte-identical
//! to a cold compile (property-tested in `tests/e2e_session.rs` and
//! `tests/e2e_disk_cache.rs`).
//!
//! ## Lookup order and invalidation
//!
//! There is **one cascade** ([`crate::tier`]). The session keeps an
//! ordered tier list — memory, then disk, then the remote daemon, as
//! attached — and both entry points walk it the same way:
//! [`lookup`] asks each tier for the key's slot,
//! the first hit wins and is *promoted* into every faster tier (never
//! published downward), and on a miss everywhere the value is computed
//! and [`publish`]ed — *written back* — to every
//! tier. [`CompileSession::compile_program`] is "kernel slot, else run
//! the compiler"; [`CompileSession::compile_and_simulate_program`] is
//! "sim slot, else the kernel slot as above, then the **static analysis
//! gate**
//! ([`tawa_wsir::analyze()`] — a definite-deadlock verdict fills the sim
//! slot without a single simulated cycle, see
//! [`CacheStats::static_rejections`]), then the simulator". A sim-slot
//! hit therefore skips the compiler too.
//!
//! Four rules ride on the cascade, each stated once in the code:
//!
//! 1. `compile_and_simulate_program` asks the *memory* kernel slot for an
//!    infeasibility verdict before any lower tier's sim slot: a sweep
//!    retries infeasible points, and a retry must not cost a `.sim`
//!    probe or a daemon round trip.
//! 2. Only memory hits move [`CacheStats::kernel_hits`] /
//!    [`CacheStats::sim_hits`]; the lower tiers count their own
//!    ([`CacheStats::disk`], [`CacheStats::remote`]).
//!    [`CacheStats::kernel_misses`] / [`CacheStats::sim_misses`] count
//!    compiler / simulator *runs* — a hit in any tier is not a miss, and
//!    neither is a static rejection.
//! 3. Within one tier's kernel slot the infeasibility verdict wins over
//!    a kernel (the disk tier probes `.neg` before `.wsir`, the daemon's
//!    `get-kernel` answers likewise).
//! 4. [`CompileSession::cache_stats`] is O(1) in cached entries: the
//!    memory tier counts its entries as it inserts them.
//!
//! Every tier is best-effort: a sick one answers "miss" and drops
//! writes, it never fails a compile. Disk entries that are corrupt,
//! truncated or carry a different [`crate::cache::DISK_FORMAT_VERSION`]
//! / [`tawa_wsir::FORMAT_VERSION`] / [`gpu_sim::COST_MODEL_VERSION`] are
//! silently invalidated and recomputed — a damaged cache directory can
//! cost time, never correctness.
//! [`CompileSession::clear_cache`] drops the in-memory tier only; use
//! [`crate::cache::DiskCache::clear`] to wipe the directory.
//!
//! An autotune sweep ([`crate::autotune`]) fans its candidate
//! configurations out across OS threads with [`std::thread::scope`]; the
//! caches are shared, so concurrent candidates reuse one cleaned prefix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use gpu_sim::{Device, SimReport};
use tawa_frontend::dsl::Program;
use tawa_ir::diag::Diagnostic;
use tawa_ir::fingerprint::fnv1a_fmt;
use tawa_ir::func::Module;
use tawa_ir::pass::PassError;
use tawa_ir::pipeline_spec::{PassRegistry, PipelineSpec};
use tawa_ir::spec::LaunchSpec;
use tawa_wsir::Kernel;

use crate::cache::{CacheKey, DiskCache, DiskCacheStats, SimOutcome};
use crate::envcfg::CacheEnv;
use crate::lower::{lower_simt, lower_ws, CompileError, CompileOptions};
use crate::partition::WarpSpecialize;
use crate::pipeline::{CoarsePipeline, FineGrainedPipeline};
use crate::remote::{RemoteAddr, RemoteCache, RemoteCacheStats};
use crate::tier::{lock, lookup, publish, Counter, KernelSlot, MemoryTier, Slot, Tier};

/// The options-independent cleanup prefix every compilation starts with.
pub const CLEANUP_PIPELINE: &str = "fixpoint(const-fold,dce)";

/// Environment variable naming a default disk-cache directory: when set
/// (and non-empty), [`CompileSession::new`] attaches a
/// [`DiskCache`] rooted there. Explicit
/// [`CompileSession::with_disk_cache`] calls override it.
pub const DISK_CACHE_ENV: &str = "TAWA_DISK_CACHE";

/// Name of the retired batch-worker override. Nothing reads it: the
/// worker cap is set with [`CompileSession::with_workers`]. It stays
/// public only because the benchmark clears it from its environment.
pub const COMPILE_WORKERS_ENV: &str = "TAWA_COMPILE_WORKERS";

/// Name of the retired static-analyzer fuel override. Nothing reads it:
/// the gate runs at [`tawa_wsir::DEFAULT_ANALYSIS_FUEL`]. It stays public
/// only because the benchmark clears it from its environment.
pub const ANALYZE_FUEL_ENV: &str = "TAWA_ANALYZE_FUEL";

/// Default ceiling on batch workers when
/// [`CompileSession::with_workers`] sets none.
const DEFAULT_WORKER_CAP: usize = 8;

fn env_fingerprint(spec: &LaunchSpec, opts: &CompileOptions, device: &Device) -> u64 {
    // `CompileOptions`, `LaunchSpec` and `Device` are plain data with
    // derived Debug; their debug form is a canonical serialization of
    // every field. The WHOLE device is hashed, not just its name: two
    // same-named devices with different calibration constants (a tweaked
    // preset, a test double) produce different kernels and different
    // simulation outcomes, and persisted cache entries keyed by name
    // alone would serve one device's results to the other. Runs on every
    // lookup, memory hits included, so the text goes straight into the
    // hash.
    fnv1a_fmt(format_args!("{opts:?}|{spec:?}|{device:?}"))
}

crate::counters! {
    /// Hit/miss counters of a session's caches.
    pub struct CacheStats / SessionCounters {
        counters {
            /// Kernel-slot hits in the memory tier.
            kernel_hits,
            /// Compiler runs (cold compiles).
            kernel_misses,
            /// Sim-slot hits in the memory tier.
            sim_hits,
            /// Simulator runs.
            sim_misses,
            /// Kernels rejected by the static analyzer
            /// ([`tawa_wsir::analyze()`]) before the simulator was ever
            /// invoked: each is a compile that succeeded but carried a
            /// definite-deadlock verdict, published straight into the sim
            /// slot.
            static_rejections,
        }
        gauges {
            /// Kernels cached in memory.
            kernel_entries: usize,
            /// Cached cleaned modules (shared pipeline prefixes).
            module_entries: usize,
            /// Simulation reports cached in memory.
            report_entries: usize,
            /// In-memory negative entries: configurations known
            /// infeasible plus configurations whose simulation fails
            /// deterministically or was rejected by the static gate.
            negative_entries: usize,
        }
        nested {
            /// Disk-cache counters (all zero when no disk cache is
            /// attached).
            disk: DiskCacheStats,
            /// Remote-tier counters (all zero when no remote cache is
            /// attached).
            remote: RemoteCacheStats,
        }
    }
}

impl CacheStats {
    /// Total cache hits: in-memory kernels and simulation reports, plus
    /// positive, negative and sim-tier disk hits, plus remote-tier hits.
    pub fn hits(&self) -> u64 {
        self.kernel_hits
            + self.sim_hits
            + self.disk.hits
            + self.disk.negative_hits
            + self.disk.sim_hits
            + self.disk.sim_negative_hits
            + self.remote.hits()
    }

    /// Total in-memory cache misses across kernels and simulation reports.
    /// Disk misses are not added: every disk miss is already counted as
    /// the kernel miss that triggered the cold compile.
    pub fn misses(&self) -> u64 {
        self.kernel_misses + self.sim_misses
    }
}

/// Performance-lint findings for one compiled kernel: the IR-level
/// dataflow lints (`dead-compute`, `uninitialized-tile-read`), computed
/// over the **raw input module** — the cleanup prefix's DCE would strip
/// the very dead ops those lints exist to report — merged with the
/// WSIR-level lints judged against the analytic performance model
/// ([`tawa_wsir::analyze_kernel`] under [`gpu_sim::perf_model`]).
///
/// Perf lints are advisory: they never gate compilation or simulation,
/// and an empty summary is the expected state of a well-tuned kernel.
#[derive(Debug, Clone, Default)]
pub struct PerfSummary {
    /// Every perf lint that fired, IR-level findings first, then the
    /// WSIR-level findings in analyzer order.
    pub lints: Vec<tawa_wsir::Lint>,
}

impl PerfSummary {
    /// Whether no perf lint fired.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// The kebab-case lint ids that fired, deduplicated, in id order —
    /// the compact "why this configuration lost" annotation autotune
    /// attaches to its points and `fleet-report` aggregates.
    pub fn ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = self.lints.iter().map(tawa_wsir::Lint::id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Lint-id histogram: kebab-case id → number of findings, id-sorted.
    pub fn counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for lint in &self.lints {
            *counts.entry(lint.id()).or_insert(0) += 1;
        }
        counts
    }
}

impl std::fmt::Display for PerfSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        for (i, lint) in self.lints.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{lint}")?;
        }
        Ok(())
    }
}

/// A compilation session: device + pass registry + caches.
///
/// See the module docs for what is shared. All entry points take `&self`;
/// the session is `Sync` and meant to be shared across threads.
pub struct CompileSession {
    device: Device,
    registry: PassRegistry,
    /// The fastest tier, also reachable as `tiers[0]`.
    memory: Arc<MemoryTier>,
    // A single Mutex on purpose: holding its lock across the cleanup run
    // is what deduplicates concurrent cold-prefix work (see
    // `cleaned_module`).
    cleaned: Mutex<HashMap<u64, Arc<Module>>>,
    disk: Option<Arc<DiskCache>>,
    remote: Option<Arc<RemoteCache>>,
    /// The cascade, fastest first: memory, then disk and the remote
    /// daemon when attached. Rebuilt by [`CompileSession::retiered`].
    tiers: Vec<Arc<dyn Tier>>,
    workers: Option<usize>,
    counters: SessionCounters,
}

impl std::fmt::Debug for CompileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileSession")
            .field("device", &self.device.name)
            .field("stats", &self.cache_stats())
            .finish()
    }
}

impl CompileSession {
    /// Creates a session for `device` with the full Tawa pass registry.
    ///
    /// This is the one place the library reads the process environment.
    /// The cache environment ([`crate::envcfg::CacheEnv`]) is honored:
    /// when [`DISK_CACHE_ENV`] names a directory, a [`DiskCache`] rooted
    /// there is attached automatically (silently skipped if the directory
    /// cannot be created — an unusable default must not break
    /// compilation; use [`CompileSession::with_disk_cache`] to surface
    /// the error), and when [`REMOTE_CACHE_ENV`] names a `tawa-cached`
    /// endpoint, a [`RemoteCache`] tier is attached behind it.
    ///
    /// [`REMOTE_CACHE_ENV`]: crate::remote::REMOTE_CACHE_ENV
    pub fn new(device: &Device) -> CompileSession {
        let env = CacheEnv::from_env();
        let mut session = Self::in_memory(device);
        session.disk = default_disk_cache(env.disk).map(Arc::new);
        session.remote = env.remote.map(|addr| Arc::new(RemoteCache::new(addr)));
        session.retiered()
    }

    /// Rebuilds the cascade in its one order — memory → disk → remote —
    /// after a constructor attached or replaced a lower tier.
    fn retiered(mut self) -> CompileSession {
        self.tiers = vec![self.memory.clone() as Arc<dyn Tier>];
        self.tiers
            .extend(self.disk.clone().map(|d| d as Arc<dyn Tier>));
        self.tiers
            .extend(self.remote.clone().map(|r| r as Arc<dyn Tier>));
        self
    }

    /// Creates a session with no disk or remote tier. It reads nothing
    /// from the environment; [`CompileSession::new`] is the one
    /// constructor that does.
    pub fn in_memory(device: &Device) -> CompileSession {
        let memory = Arc::new(MemoryTier::new());
        CompileSession {
            device: device.clone(),
            registry: tawa_pass_registry(),
            tiers: vec![memory.clone()],
            memory,
            cleaned: Mutex::new(HashMap::new()),
            disk: None,
            remote: None,
            workers: None,
            counters: SessionCounters::default(),
        }
    }

    /// Caps an autotune sweep's fan-out at `workers` OS threads (instead
    /// of the default `min(cores, 8)`). `0` restores the default. Large
    /// sweeps on many-core machines want this raised; contended CI
    /// machines want it lowered.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> CompileSession {
        self.workers = (workers > 0).then_some(workers);
        self
    }

    /// Attaches a persistent kernel cache rooted at `path` (replacing any
    /// previously attached disk tier, including the [`DISK_CACHE_ENV`]
    /// default).
    ///
    /// # Errors
    /// Propagates the failure to create the cache directory.
    pub fn with_disk_cache(
        self,
        path: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<CompileSession> {
        Ok(self.with_disk(DiskCache::open(path)?))
    }

    /// Attaches an already-configured [`DiskCache`] (e.g. one with a size
    /// budget from [`DiskCache::with_max_bytes`]).
    #[must_use]
    pub fn with_disk(mut self, cache: DiskCache) -> CompileSession {
        self.disk = Some(Arc::new(cache));
        self.retiered()
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_deref()
    }

    /// Attaches a remote `tawa-cached` tier at `addr` (replacing any
    /// previously attached remote, including the
    /// [`crate::remote::REMOTE_CACHE_ENV`] default). The tier is
    /// strictly best-effort: a dead or mis-speaking daemon latches the
    /// client down after one warning and the session runs on its local
    /// tiers — no compile ever fails because of the remote.
    #[must_use]
    pub fn with_remote_cache(mut self, addr: RemoteAddr) -> CompileSession {
        self.remote = Some(Arc::new(RemoteCache::new(addr)));
        self.retiered()
    }

    /// The attached remote-cache client, if any.
    pub fn remote_cache(&self) -> Option<&RemoteCache> {
        self.remote.as_deref()
    }

    /// The device this session compiles for.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The pass registry backing [`CompileSession::pipeline_spec`].
    pub fn registry(&self) -> &PassRegistry {
        &self.registry
    }

    /// Mutable access to the pass registry, so callers can register
    /// custom passes and select them per kernel via
    /// [`CompileOptions::pipeline`] — no driver fork required.
    pub fn registry_mut(&mut self) -> &mut PassRegistry {
        &mut self.registry
    }

    /// The declarative pipeline the session runs for `opts` — cleanup →
    /// task partitioning → multi-granularity pipelining (Fig. 2a), or
    /// cleanup followed by the [`CompileOptions::pipeline`] override when
    /// one is set. The returned spec round-trips through its string form.
    ///
    /// # Errors
    /// A malformed [`CompileOptions::pipeline`] override is reported as a
    /// diagnostic (the built-in pipeline text always parses), as is an
    /// override combined with `warp_specialize = false` — the SIMT path
    /// runs no configuration tail the override could replace, so it is
    /// rejected rather than silently ignored.
    pub fn pipeline_spec(opts: &CompileOptions) -> Result<PipelineSpec, Diagnostic> {
        let text = if opts.warp_specialize {
            format!("{CLEANUP_PIPELINE},{}", config_tail(opts))
        } else {
            if opts.pipeline.is_some() {
                return Err(pipeline_without_ws_error());
            }
            CLEANUP_PIPELINE.to_string()
        };
        PipelineSpec::parse(&text)
    }

    /// Current cache statistics: the session's counters, the memory
    /// tier's entry gauges (kept by the tier as it inserts — never by
    /// walking its maps) and each attached lower tier's own counters.
    pub fn cache_stats(&self) -> CacheStats {
        let (kernel_entries, report_entries, negative_entries) = self.memory.entries();
        CacheStats {
            kernel_entries,
            module_entries: lock(&self.cleaned).len(),
            report_entries,
            negative_entries,
            disk: self
                .disk
                .as_deref()
                .map(DiskCache::stats)
                .unwrap_or_default(),
            remote: self
                .remote
                .as_deref()
                .map(RemoteCache::stats)
                .unwrap_or_default(),
            ..self.counters.snapshot()
        }
    }

    /// Drops every *in-memory* cached kernel, negative verdict, cleaned
    /// module and simulation report. Counters are kept (they describe the
    /// session's lifetime), and the disk tier is untouched — wipe it with
    /// [`DiskCache::clear`] via [`CompileSession::disk_cache`].
    pub fn clear_cache(&self) {
        self.memory.clear();
        lock(&self.cleaned).clear();
    }

    /// Compiles a [`Program`] — a DSL-authored kernel, or a module read
    /// from IR text and wrapped with [`Program::from_parts`] — consulting
    /// the kernel cache.
    ///
    /// A cache hit returns the previously compiled kernel (byte-identical:
    /// the key is [`Program::fingerprint`] — the module's content hash
    /// over the canonical printed IR, which source locations never
    /// perturb — plus every compilation input). On a miss, the cleanup
    /// prefix is fetched from — or inserted into — the shared prefix
    /// cache before the configuration-specific passes run.
    ///
    /// # Errors
    /// Resource infeasibilities (P > D, registers, shared memory) as
    /// [`CompileError::Infeasible`]; pass failures as
    /// [`CompileError::Pass`] with structured diagnostics; unsupported
    /// kernel shapes as [`CompileError::Unsupported`].
    pub fn compile_program(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<Arc<Kernel>, CompileError> {
        self.compile_fp(
            program.fingerprint(),
            program.module(),
            program.spec(),
            opts,
        )
    }

    /// The kernel slot for a caller that already holds `module`'s
    /// fingerprint (a [`Program`], a sweep over one module): the module
    /// is not printed again.
    pub(crate) fn compile_fp(
        &self,
        module_fp: u64,
        module: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<Arc<Kernel>, CompileError> {
        self.compile_keyed(self.key(module_fp, spec, opts), module, spec, opts)
    }

    /// The address of one compilation in every tier (see the module docs'
    /// "Cache key derivation").
    fn key(&self, module_fp: u64, spec: &LaunchSpec, opts: &CompileOptions) -> CacheKey {
        CacheKey {
            module_fp,
            env_fp: env_fingerprint(spec, opts, &self.device),
        }
    }

    /// The cascade, once for both slots: look `key` up through the tiers
    /// (promoting a hit into the faster ones), else `compute` the value
    /// and publish it to all of them.
    fn through_tiers<S: Slot>(
        &self,
        key: &CacheKey,
        memory_hits: &Counter,
        compute: impl FnOnce() -> Result<S, CompileError>,
    ) -> Result<S, CompileError> {
        if let Some((depth, hit)) = lookup::<S>(&self.tiers, key) {
            // Only a memory hit is the session's hit: lower tiers count
            // their own, and a hit in any of them is not a miss either —
            // `kernel_misses` / `sim_misses` count compiler / simulator
            // runs, which `compute` reports.
            memory_hits.add(u64::from(depth == 0));
            return Ok(hit);
        }
        let value = compute()?;
        publish(&self.tiers, key, &value);
        Ok(value)
    }

    /// The kernel slot through the cascade: a cold key is compiled, and
    /// the kernel — or the infeasibility verdict — published.
    fn compile_keyed(
        &self,
        key: CacheKey,
        module: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<Arc<Kernel>, CompileError> {
        let slot = self.through_tiers(&key, &self.counters.kernel_hits, || {
            self.counters.kernel_misses.add(1);
            match self.compile_uncached(key.module_fp, module, spec, opts) {
                Ok(kernel) => Ok(KernelSlot::Kernel(Arc::new(kernel))),
                Err(CompileError::Infeasible(msg)) => Ok(KernelSlot::Infeasible(msg)),
                Err(uncacheable) => Err(uncacheable),
            }
        })?;
        match slot {
            KernelSlot::Kernel(kernel) => Ok(kernel),
            KernelSlot::Infeasible(msg) => Err(CompileError::Infeasible(msg)),
        }
    }

    /// Compiles `program` (through every cache tier) and collects its
    /// [`PerfSummary`]: IR-level dataflow lints over the raw input module
    /// — the cleaned (post-DCE) form no longer contains the dead compute
    /// those lints report — plus WSIR-level lints judged against
    /// [`gpu_sim::perf_model`] on this session's device. Purely advisory:
    /// a summary full of warnings still compiles, simulates and serves.
    ///
    /// # Errors
    /// Same as [`CompileSession::compile_program`] — the summary needs a
    /// compiled kernel to analyze.
    pub fn perf_summary_program(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<PerfSummary, CompileError> {
        let kernel = self.compile_program(program, opts)?;
        let mut lints = tawa_wsir::analyze_ir(program.module());
        lints.extend(tawa_wsir::analyze_kernel(
            &kernel,
            &gpu_sim::perf_model(&kernel, &self.device),
        ));
        Ok(PerfSummary { lints })
    }

    /// Compiles and immediately simulates `program` — the sim slot through
    /// the cascade (see the module docs): every attached tier is asked for
    /// the key's [`SimOutcome`] (keyed by [`gpu_sim::COST_MODEL_VERSION`],
    /// promoted into the faster tiers on a hit), and only a miss in all
    /// of them reaches the compiler and simulator. A hit skips *both*: a
    /// restart-warm or fleet-warm sweep never invokes the simulator.
    ///
    /// Every freshly obtained kernel (cold compile or served by a lower
    /// tier) first passes the **static analysis gate**:
    /// [`tawa_wsir::analyze()`] runs the abstract interpreter over the
    /// barrier protocol, and a definite-deadlock verdict
    /// ([`tawa_wsir::deadlock_verdict`]) fills the sim slot of every tier
    /// *without invoking the simulator*. Such rejections are counted in
    /// [`CacheStats::static_rejections`] and surface as
    /// [`CompileError::Simulation`], so autotuners treat them exactly
    /// like simulator-discovered deadlocks, only cheaper.
    ///
    /// Simulation failures are deterministic (deadlock, unplaceable
    /// kernel), so they are published like reports, and a doomed
    /// configuration costs one simulator run per cost model, not one per
    /// retry.
    ///
    /// # Errors
    /// Compilation errors from [`CompileSession::compile_program`];
    /// simulation failures (deadlock, placement) as
    /// [`CompileError::Simulation`] — distinct from
    /// [`CompileError::Infeasible`] so autotuners do not silently prune
    /// what is actually a scheduling bug.
    pub fn compile_and_simulate_program(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<SimReport, CompileError> {
        self.compile_and_simulate_fp(
            program.fingerprint(),
            program.module(),
            program.spec(),
            opts,
        )
    }

    /// The sim slot for a caller that already holds `module`'s
    /// fingerprint (see [`CompileSession::compile_fp`]).
    pub(crate) fn compile_and_simulate_fp(
        &self,
        module_fp: u64,
        module: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<SimReport, CompileError> {
        let key = self.key(module_fp, spec, opts);
        // A point known infeasible in memory is answered before any lower
        // tier's sim slot is asked: a sweep retries such points, and each
        // retry must not cost a `.sim` probe or a daemon round trip.
        if let Some(KernelSlot::Infeasible(msg)) = self.memory.get_kernel_slot(&key) {
            self.counters.kernel_hits.add(1);
            return Err(CompileError::Infeasible(msg));
        }
        let outcome = self.through_tiers(&key, &self.counters.sim_hits, || {
            let kernel = self.compile_keyed(key, module, spec, opts)?;
            Ok(self.gate_and_simulate(&kernel))
        })?;
        match outcome {
            SimOutcome::Report(report) => Ok(report),
            SimOutcome::Failed(msg) | SimOutcome::StaticRejection(msg) => {
                Err(CompileError::Simulation(msg))
            }
        }
    }

    /// What the sim slot of a freshly obtained kernel holds: the static
    /// gate's rejection if the abstract interpreter proves a deadlock —
    /// not a single simulated cycle is spent — else the simulator's
    /// report or its deterministic failure.
    fn gate_and_simulate(&self, kernel: &Kernel) -> SimOutcome {
        let lints = tawa_wsir::analyze(kernel);
        if let Some(verdict) = tawa_wsir::deadlock_verdict(&lints) {
            // Not a sim miss: `sim_misses` counts simulator runs.
            self.counters.static_rejections.add(1);
            return SimOutcome::StaticRejection(verdict);
        }
        self.counters.sim_misses.add(1);
        match gpu_sim::simulate(kernel, &self.device) {
            Ok(report) => SimOutcome::Report(report),
            Err(e) => SimOutcome::Failed(e.to_string()),
        }
    }

    /// Fans `f` out over the configurations `opts` across
    /// `std::thread::scope` workers, preserving input order in the
    /// results. Configurations over the same module reuse one cleaned
    /// prefix. Identical configurations running *concurrently* may both
    /// compile (last insert wins — the result is identical either way);
    /// once one finishes, later duplicates are cache hits.
    pub(crate) fn run_batch<T, F>(
        &self,
        opts: &[CompileOptions],
        f: F,
    ) -> Vec<Result<T, CompileError>>
    where
        T: Send,
        F: Fn(&CompileOptions) -> Result<T, CompileError> + Sync,
    {
        if opts.is_empty() {
            return Vec::new();
        }
        let cap = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(DEFAULT_WORKER_CAP)
        });
        let workers = cap.max(1).min(opts.len());
        let slots: Vec<Mutex<Option<Result<T, CompileError>>>> =
            opts.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= opts.len() {
                        break;
                    }
                    *lock(&slots[i]) = Some(f(&opts[i]));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every batch slot is filled by a worker")
            })
            .collect()
    }

    /// The cleaned (const-fold + DCE to fixpoint) form of `module`, cached
    /// by content fingerprint and shared across configurations.
    ///
    /// The cache lock is held across the cleanup run: concurrent batch
    /// workers hitting the same cold module must not each re-run the
    /// shared prefix — that is the reuse this cache exists for. Cleanup is
    /// microseconds-scale, so serializing it is cheaper than duplicating
    /// it across up to eight workers.
    fn cleaned_module(&self, fp: u64, module: &Module) -> Result<Arc<Module>, CompileError> {
        let mut cleaned = lock(&self.cleaned);
        if let Some(m) = cleaned.get(&fp) {
            return Ok(m.clone());
        }
        // Not an invariant: `registry_mut` lets a caller drop or replace
        // the cleanup passes.
        let mut pm = PipelineSpec::parse(CLEANUP_PIPELINE)
            .and_then(|spec| spec.build(&self.registry))
            .map_err(pipeline_override_error)?;
        let mut m = module.clone();
        pm.run(&mut m).map_err(CompileError::Pass)?;
        let m = Arc::new(m);
        cleaned.insert(fp, m.clone());
        Ok(m)
    }

    fn compile_uncached(
        &self,
        module_fp: u64,
        module: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<Kernel, CompileError> {
        if opts.warp_specialize && opts.mma_depth > opts.aref_depth {
            // Checked before running passes so autotuners can prune fast.
            return Err(CompileError::Infeasible(format!(
                "MMA pipeline depth P={} exceeds aref depth D={}",
                opts.mma_depth, opts.aref_depth
            )));
        }
        let cleaned = self.cleaned_module(module_fp, module)?;
        if opts.warp_specialize {
            let pipeline =
                PipelineSpec::parse(&config_tail(opts)).map_err(pipeline_override_error)?;
            let mut pm = pipeline
                .build(&self.registry)
                .map_err(pipeline_override_error)?;
            let mut m = (*cleaned).clone();
            pm.run(&mut m).map_err(CompileError::Pass)?;
            lower_ws(&m, spec, opts, &self.device)
        } else {
            if opts.pipeline.is_some() {
                // Reject rather than silently ignore: the SIMT path runs
                // no configuration tail the override could replace.
                return Err(pipeline_override_error(pipeline_without_ws_error()));
            }
            lower_simt(&cleaned, spec, opts, &self.device)
        }
    }
}

/// The configuration-specific tail of the warp-specialization pipeline:
/// the [`CompileOptions::pipeline`] override when set, otherwise the
/// default tail derived from the depth/cooperation knobs.
fn config_tail(opts: &CompileOptions) -> String {
    match &opts.pipeline {
        Some(text) => text.clone(),
        None => format!(
            "warp-specialize{{depth={}}},fine-grained-pipeline{{depth={}}},coarse-pipeline,dce",
            opts.aref_depth, opts.mma_depth
        ),
    }
}

/// Maps a pipeline that cannot be built — a bad
/// [`CompileOptions::pipeline`] override (parse failure or an unregistered
/// pass), or a built-in pass missing from a registry the caller edited —
/// onto [`CompileError::Pass`].
fn pipeline_override_error(diagnostic: Diagnostic) -> CompileError {
    CompileError::Pass(PassError::Failed {
        pass: "pipeline-override".to_string(),
        diagnostic: Box::new(diagnostic),
    })
}

/// The diagnostic for a [`CompileOptions::pipeline`] override on the SIMT
/// path, which runs no configuration tail the override could replace.
fn pipeline_without_ws_error() -> Diagnostic {
    Diagnostic::error(
        "CompileOptions::pipeline overrides the warp-specialization tail \
         and requires warp_specialize = true (the SIMT baseline path runs \
         no configuration passes)"
            .to_string(),
    )
}

/// Attaches the [`DISK_CACHE_ENV`] default resolved by
/// [`CacheEnv`]: silently skipped if the directory cannot be created.
/// Factored out of [`CompileSession::new`] so the policy is testable
/// without mutating the process-global environment.
fn default_disk_cache(path: Option<std::path::PathBuf>) -> Option<DiskCache> {
    path.and_then(|p| DiskCache::open(p).ok())
}

/// The full Tawa pass registry: generic cleanups plus the paper's
/// partitioning and pipelining passes.
pub fn tawa_pass_registry() -> PassRegistry {
    let mut r = PassRegistry::with_builtins();
    r.register("warp-specialize", |opts| {
        let depth = opts.int("depth").unwrap_or(2);
        if depth < 1 {
            return Err(Diagnostic::error(format!(
                "warp-specialize depth must be >= 1, got {depth}"
            )));
        }
        Ok(Box::new(WarpSpecialize {
            depth: depth as usize,
        }))
    });
    r.register("fine-grained-pipeline", |opts| {
        let depth = opts.int("depth").unwrap_or(2);
        if depth < 1 {
            return Err(Diagnostic::error(format!(
                "fine-grained-pipeline depth must be >= 1, got {depth}"
            )));
        }
        Ok(Box::new(FineGrainedPipeline {
            depth: depth as usize,
        }))
    });
    r.register("coarse-pipeline", |_| Ok(Box::new(CoarsePipeline)));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_frontend::config::GemmConfig;
    use tawa_frontend::kernels::gemm;
    use tawa_wsir::print_kernel;

    fn dev() -> Device {
        Device::h100_sxm5()
    }

    #[test]
    fn cache_hits_return_identical_kernels() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();
        let cold = session.compile_program(&p, &opts).unwrap();
        let hit = session.compile_program(&p, &opts).unwrap();
        assert!(Arc::ptr_eq(&cold, &hit), "hit must come from the cache");
        assert_eq!(print_kernel(&cold), print_kernel(&hit));
        let stats = session.cache_stats();
        assert_eq!(stats.kernel_hits, 1);
        assert_eq!(stats.kernel_misses, 1);
        assert_eq!(stats.kernel_entries, 1);
        assert_eq!(stats.module_entries, 1);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let a = CompileOptions::default();
        let b = CompileOptions {
            aref_depth: 3,
            ..CompileOptions::default()
        };
        let ka = session.compile_program(&p, &a).unwrap();
        let kb = session.compile_program(&p, &b).unwrap();
        assert_ne!(print_kernel(&ka), print_kernel(&kb));
        let stats = session.cache_stats();
        assert_eq!(stats.kernel_hits, 0);
        assert_eq!(stats.kernel_misses, 2);
        // The cleanup prefix ran once: both configs share the cleaned module.
        assert_eq!(stats.module_entries, 1);
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let all_opts: Vec<CompileOptions> = (1..=3)
            .map(|d| CompileOptions {
                aref_depth: d,
                mma_depth: 1,
                ..CompileOptions::default()
            })
            .collect();

        let sequential = CompileSession::in_memory(&dev());
        let seq: Vec<_> = all_opts
            .iter()
            .map(|o| sequential.compile_program(&p, o).unwrap())
            .collect();

        let batched = CompileSession::in_memory(&dev());
        let batch = batched.run_batch(&all_opts, |o| batched.compile_program(&p, o));
        assert_eq!(batch.len(), seq.len());
        for (s, b) in seq.iter().zip(&batch) {
            assert_eq!(print_kernel(s), print_kernel(b.as_ref().unwrap()));
        }
    }

    #[test]
    fn infeasible_jobs_fail_in_batch_without_poisoning() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let all_opts = [
            CompileOptions {
                aref_depth: 1,
                mma_depth: 3,
                ..CompileOptions::default()
            },
            CompileOptions::default(),
        ];
        let results = session.run_batch(&all_opts, |o| session.compile_program(&p, o));
        assert!(matches!(results[0], Err(CompileError::Infeasible(_))));
        assert!(results[1].is_ok());
    }

    #[test]
    fn simulation_reports_are_cached() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();
        let r1 = session.compile_and_simulate_program(&p, &opts).unwrap();
        let r2 = session.compile_and_simulate_program(&p, &opts).unwrap();
        assert_eq!(r1.tflops, r2.tflops);
        let stats = session.cache_stats();
        assert_eq!(stats.sim_hits, 1);
        assert_eq!(stats.sim_misses, 1);
        assert_eq!(stats.hits(), 1, "kernel cache untouched on report hit");

        // A pruned infeasible point never reaches the simulator, so it
        // must not count as a simulation miss.
        let infeasible = CompileOptions {
            aref_depth: 1,
            mma_depth: 3,
            ..CompileOptions::default()
        };
        assert!(session
            .compile_and_simulate_program(&p, &infeasible)
            .is_err());
        assert_eq!(session.cache_stats().sim_misses, 1);
    }

    /// A device on which the default GEMM *compiles* (per-thread register
    /// and shared-memory checks pass) but can never be *placed*: the SM
    /// register file is too small for even one CTA, so simulation fails
    /// with occupancy zero — the deterministic-failure path.
    fn unplaceable_dev() -> Device {
        let mut device = dev();
        device.regs_per_sm = 1024;
        device
    }

    #[test]
    fn failed_simulations_are_cached_not_recounted() {
        let session = CompileSession::in_memory(&unplaceable_dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();

        let first = session.compile_and_simulate_program(&p, &opts).unwrap_err();
        assert!(matches!(first, CompileError::Simulation(_)), "{first:?}");
        let stats = session.cache_stats();
        assert_eq!(stats.sim_misses, 1);
        assert_eq!(stats.negative_entries, 1);

        // A sweep retrying the same configuration must be served from the
        // negative tier: same verdict, still exactly one simulator run.
        let second = session.compile_and_simulate_program(&p, &opts).unwrap_err();
        assert_eq!(first.to_string(), second.to_string());
        let stats = session.cache_stats();
        assert_eq!(stats.sim_misses, 1, "{stats:?}");
        assert_eq!(stats.sim_hits, 1, "{stats:?}");

        // The verdict gates simulation only — the compiled kernel stays
        // obtainable (here from the kernel cache filled by the first try).
        assert!(session.compile_program(&p, &opts).is_ok());
    }

    #[test]
    fn sim_outcomes_persist_to_disk() {
        let dir = tmp_dir("sim-tier");
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();

        let cold = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        let report = cold.compile_and_simulate_program(&p, &opts).unwrap();
        // One kernel entry plus one sim entry.
        assert_eq!(cold.cache_stats().disk.writes, 2);

        // A restarted session must serve the report from disk without
        // compiling or simulating anything.
        let warm = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        let replay = warm.compile_and_simulate_program(&p, &opts).unwrap();
        assert_eq!(report, replay, "disk-served report must be identical");
        let stats = warm.cache_stats();
        assert_eq!(stats.disk.sim_hits, 1, "{stats:?}");
        assert_eq!(stats.sim_misses, 0, "{stats:?}");
        assert_eq!(stats.kernel_misses, 0, "{stats:?}");
        // And the promoted report serves in-memory thereafter.
        warm.compile_and_simulate_program(&p, &opts).unwrap();
        assert_eq!(warm.cache_stats().sim_hits, 1);
    }

    #[test]
    fn sim_failures_persist_to_disk() {
        let dir = tmp_dir("sim-negative");
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();

        let cold = CompileSession::in_memory(&unplaceable_dev())
            .with_disk_cache(&dir)
            .unwrap();
        let first = cold.compile_and_simulate_program(&p, &opts).unwrap_err();
        assert_eq!(cold.cache_stats().sim_misses, 1);

        let warm = CompileSession::in_memory(&unplaceable_dev())
            .with_disk_cache(&dir)
            .unwrap();
        let replay = warm.compile_and_simulate_program(&p, &opts).unwrap_err();
        assert!(matches!(replay, CompileError::Simulation(_)), "{replay:?}");
        assert_eq!(first.to_string(), replay.to_string());
        let stats = warm.cache_stats();
        assert_eq!(stats.disk.sim_negative_hits, 1, "{stats:?}");
        assert_eq!(stats.sim_misses, 0, "{stats:?}");
        assert_eq!(stats.kernel_misses, 0, "{stats:?}");
    }

    /// A kernel whose barrier protocol deadlocks: a circular wait with
    /// no initial credit anywhere. Structurally valid (every barrier is
    /// both signalled and awaited), so only the deep analysis tier —
    /// or the simulator — can see the deadlock.
    fn deadlocking_kernel() -> tawa_wsir::Kernel {
        use tawa_wsir::{Instr, Role};
        let mut k = tawa_wsir::Kernel::new("poisoned");
        k.uniform_grid(1);
        k.smem_bytes = 1024;
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier("empty", 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![
                Instr::MbarWait { bar: empty },
                Instr::TmaLoad {
                    bytes: 1024,
                    bar: full,
                },
            ],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::MbarWait { bar: full },
                Instr::MbarArrive { bar: empty },
            ],
        );
        k
    }

    #[test]
    fn static_gate_rejects_poisoned_kernels_without_simulating() {
        let dir = tmp_dir("static-gate");
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();

        let cold = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        cold.compile_program(&p, &opts).unwrap();

        // Replace the cached kernel with a protocol-deadlocking one — the
        // shape of a miscompiled or hand-damaged cache entry. The gate
        // must catch it on the disk-served path, where no fresh lowering
        // re-validates anything.
        let disk = cold.disk_cache().unwrap();
        let entry = disk
            .entries()
            .into_iter()
            .find(|e| e.kind == crate::cache::EntryKind::Kernel)
            .unwrap();
        disk.store(&entry.key, &deadlocking_kernel());

        let warm = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        match warm.compile_and_simulate_program(&p, &opts).unwrap_err() {
            CompileError::Simulation(msg) => {
                assert!(msg.contains("static deadlock"), "{msg}")
            }
            other => panic!("expected static rejection, got {other:?}"),
        }
        let stats = warm.cache_stats();
        assert_eq!(stats.static_rejections, 1, "{stats:?}");
        assert_eq!(stats.sim_misses, 0, "simulator must never run: {stats:?}");

        // In-memory retry: served from the negative tier as a report hit.
        warm.compile_and_simulate_program(&p, &opts).unwrap_err();
        let stats = warm.cache_stats();
        assert_eq!(stats.static_rejections, 1, "{stats:?}");
        assert_eq!(stats.sim_hits, 1, "{stats:?}");

        // Restarted session: the verdict itself is served from disk — the
        // gate never even re-runs the analyzer.
        let third = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        third.compile_and_simulate_program(&p, &opts).unwrap_err();
        let stats = third.cache_stats();
        assert_eq!(stats.disk.static_rejections, 1, "{stats:?}");
        assert_eq!(stats.static_rejections, 0, "{stats:?}");
        assert_eq!(stats.sim_misses, 0, "{stats:?}");
    }

    #[test]
    fn pipeline_spec_round_trips_and_matches_options() {
        let opts = CompileOptions {
            aref_depth: 3,
            mma_depth: 2,
            ..CompileOptions::default()
        };
        let spec = CompileSession::pipeline_spec(&opts).unwrap();
        let text = spec.to_string();
        assert!(text.starts_with(CLEANUP_PIPELINE), "{text}");
        assert!(text.contains("warp-specialize{depth=3}"), "{text}");
        assert!(text.contains("fine-grained-pipeline{depth=2}"), "{text}");
        assert_eq!(PipelineSpec::parse(&text).unwrap(), spec);
        // And it builds against the session registry.
        let session = CompileSession::in_memory(&dev());
        spec.build(session.registry()).unwrap();
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tawa-session-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_session_serves_disk_hits_byte_identical() {
        let dir = tmp_dir("warm");
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();

        let cold_session = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        let cold = cold_session.compile_program(&p, &opts).unwrap();
        assert_eq!(cold_session.cache_stats().disk.writes, 1);

        // A brand-new session (simulating a process restart) must serve
        // the kernel from disk without compiling.
        let warm_session = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        let warm = warm_session.compile_program(&p, &opts).unwrap();
        let stats = warm_session.cache_stats();
        assert_eq!(stats.disk.hits, 1, "{stats:?}");
        assert_eq!(stats.kernel_misses, 0, "disk hit must skip the compile");
        assert_eq!(print_kernel(&cold), print_kernel(&warm));
        assert_eq!(*cold, *warm);
    }

    #[test]
    fn infeasible_verdicts_are_negatively_cached() {
        let dir = tmp_dir("negative");
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let infeasible = CompileOptions {
            aref_depth: 1,
            mma_depth: 3,
            ..CompileOptions::default()
        };

        let first = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        assert!(matches!(
            first.compile_program(&p, &infeasible),
            Err(CompileError::Infeasible(_))
        ));
        // In-process repeat: served from the in-memory negative cache.
        assert!(first.compile_program(&p, &infeasible).is_err());
        assert_eq!(first.cache_stats().kernel_misses, 1);
        assert_eq!(first.cache_stats().negative_entries, 1);

        // Fresh session: the verdict comes from disk, skipping even the
        // pruning compile, with the same message.
        let second = CompileSession::in_memory(&dev())
            .with_disk_cache(&dir)
            .unwrap();
        match second.compile_program(&p, &infeasible) {
            Err(CompileError::Infeasible(msg)) => {
                assert!(msg.contains("exceeds"), "{msg}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        let stats = second.cache_stats();
        assert_eq!(stats.disk.negative_hits, 1, "{stats:?}");
        assert_eq!(stats.kernel_misses, 0, "{stats:?}");
    }

    #[test]
    fn env_default_attaches_disk_cache() {
        // The env-resolution policy is tested on the factored-out helper
        // rather than via set_var: mutating the process environment
        // races with every other test thread.
        let dir = tmp_dir("env");
        let env = CacheEnv::from_values(Some(dir.to_string_lossy().into_owned()), None);
        let disk = default_disk_cache(env.disk).expect("a usable directory must attach a cache");
        assert_eq!(disk.root(), dir.as_path());
        assert!(default_disk_cache(CacheEnv::from_values(None, None).disk).is_none());
        assert!(
            default_disk_cache(CacheEnv::from_values(Some(String::new()), None).disk).is_none()
        );
        // An unusable path is skipped, not fatal.
        assert!(default_disk_cache(Some("/proc/no/such/dir".into())).is_none());
    }

    #[test]
    fn pipeline_override_on_simt_path_is_rejected() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions {
            warp_specialize: false,
            pipeline: Some("dce".to_string()),
            ..CompileOptions::default()
        };
        match session.compile_program(&p, &opts) {
            Err(CompileError::Pass(e)) => assert_eq!(e.pass(), "pipeline-override"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(CompileSession::pipeline_spec(&opts).is_err());
    }

    #[test]
    fn pipeline_override_matches_equivalent_default() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let explicit = CompileOptions {
            pipeline: Some(
                "warp-specialize{depth=2},fine-grained-pipeline{depth=2},coarse-pipeline,dce"
                    .to_string(),
            ),
            ..CompileOptions::default()
        };
        let derived = CompileOptions::default();
        let a = session.compile_program(&p, &explicit).unwrap();
        let b = session.compile_program(&p, &derived).unwrap();
        // Equivalent pipelines, distinct cache entries (the override is
        // part of the environment fingerprint).
        assert_eq!(print_kernel(&a), print_kernel(&b));
        assert_eq!(session.cache_stats().kernel_entries, 2);
        // And pipeline_spec reflects the override.
        let spec_text = CompileSession::pipeline_spec(&explicit)
            .unwrap()
            .to_string();
        assert!(
            spec_text.contains("warp-specialize{depth=2}"),
            "{spec_text}"
        );
    }

    #[test]
    fn bad_pipeline_override_is_a_pass_error_not_a_panic() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        for bad in ["fixpoint(", "no-such-pass"] {
            let opts = CompileOptions {
                pipeline: Some(bad.to_string()),
                ..CompileOptions::default()
            };
            match session.compile_program(&p, &opts) {
                Err(CompileError::Pass(e)) => {
                    assert_eq!(e.pass(), "pipeline-override");
                }
                other => panic!("pipeline '{bad}': expected pass error, got {other:?}"),
            }
        }
    }

    #[test]
    fn custom_pass_injects_through_pipeline_override() {
        struct NopProbe;
        impl tawa_ir::pass::Pass for NopProbe {
            fn name(&self) -> &str {
                "nop-probe"
            }
            fn run(&self, _m: &mut Module) -> Result<bool, Diagnostic> {
                Ok(false)
            }
        }
        let mut session = CompileSession::in_memory(&dev());
        session
            .registry_mut()
            .register("nop-probe", |_| Ok(Box::new(NopProbe)));
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions {
            pipeline: Some(
                "nop-probe,warp-specialize{depth=2},fine-grained-pipeline{depth=2},\
                 coarse-pipeline,dce"
                    .to_string(),
            ),
            ..CompileOptions::default()
        };
        let k = session.compile_program(&p, &opts).unwrap();
        assert_eq!(
            print_kernel(&k),
            print_kernel(
                &session
                    .compile_program(&p, &CompileOptions::default())
                    .unwrap()
            ),
            "a no-op extra pass must not change the kernel"
        );
    }

    #[test]
    fn a_pass_emitting_a_foreign_value_id_fails_verification() {
        // `push_op` takes any id; the verifier must report it rather than
        // index the value arena with it.
        struct ForeignOperand;
        impl tawa_ir::pass::Pass for ForeignOperand {
            fn name(&self) -> &str {
                "foreign-operand"
            }
            fn run(&self, m: &mut Module) -> Result<bool, Diagnostic> {
                let f = &mut m.funcs[0];
                let b = f.body_block();
                let one = f.const_int(b, 1, tawa_ir::types::Type::i32());
                f.push_op(
                    b,
                    tawa_ir::op::OpKind::Add,
                    vec![tawa_ir::op::ValueId(u32::MAX), one],
                    vec![tawa_ir::types::Type::i32()],
                    tawa_ir::op::AttrMap::new(),
                );
                Ok(true)
            }
        }
        let mut session = CompileSession::in_memory(&dev());
        session
            .registry_mut()
            .register("foreign-operand", |_| Ok(Box::new(ForeignOperand)));
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions {
            pipeline: Some("foreign-operand,warp-specialize{depth=2}".to_string()),
            ..CompileOptions::default()
        };
        match session.compile_program(&p, &opts) {
            Err(CompileError::Pass(PassError::VerifyFailed { pass, errors })) => {
                assert_eq!(pass, "foreign-operand");
                let msgs: Vec<&str> = errors.iter().map(|e| e.msg.as_str()).collect();
                assert_eq!(
                    msgs,
                    ["operand %4294967295 is not a value of this function"]
                );
            }
            other => panic!("expected a verifier error, got {other:?}"),
        }
    }

    #[test]
    fn compile_program_shares_cache_keys_with_parsed_ir_text() {
        // A DSL Program and the same module printed, parsed back and
        // wrapped with `Program::from_parts` must address the SAME cache
        // entries: both slots of the second are served from the first's
        // memory tier, with no new miss.
        let session = CompileSession::in_memory(&dev());
        let program = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();
        let kernel = session.compile_program(&program, &opts).unwrap();
        let report = session
            .compile_and_simulate_program(&program, &opts)
            .unwrap();
        let text = tawa_ir::print::print_module(program.module());
        let parsed = Program::from_parts(
            tawa_ir::parse::parse_module(&text).unwrap(),
            program.spec().clone(),
        );
        let before = session.cache_stats();
        let via_text = session.compile_program(&parsed, &opts).unwrap();
        assert!(Arc::ptr_eq(&kernel, &via_text));
        assert_eq!(
            session
                .compile_and_simulate_program(&parsed, &opts)
                .unwrap(),
            report
        );
        let after = session.cache_stats();
        assert_eq!(after.misses(), before.misses(), "{after:?}");
        assert_eq!(after.kernel_hits, before.kernel_hits + 1);
        assert_eq!(after.sim_hits, before.sim_hits + 1);
        assert_eq!(after.module_entries, 1);
    }

    #[test]
    fn with_workers_caps_batch_and_matches_default() {
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let all_opts: Vec<CompileOptions> = (1..=4)
            .map(|d| CompileOptions {
                aref_depth: d,
                mma_depth: 1,
                ..CompileOptions::default()
            })
            .collect();
        let serial = CompileSession::in_memory(&dev()).with_workers(1);
        assert_eq!(serial.workers, Some(1));
        let wide = CompileSession::in_memory(&dev()).with_workers(32);
        let a = serial.run_batch(&all_opts, |o| serial.compile_program(&p, o));
        let b = wide.run_batch(&all_opts, |o| wide.compile_program(&p, o));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                print_kernel(x.as_ref().unwrap()),
                print_kernel(y.as_ref().unwrap())
            );
        }
        // with_workers(0) restores the default cap.
        assert_eq!(serial.with_workers(0).workers, None);
    }

    #[test]
    fn high_worker_batches_match_serial_and_preserve_counters() {
        // Contention probe for the sharded cache maps: a 16-worker batch
        // (`with_workers(16)`) over a sweep-shaped job list must produce
        // the same kernels and the same counter totals as a serial
        // session — sharding changes lock granularity, never semantics.
        let p = gemm(&GemmConfig::new(2048, 2048, 1024));
        let mut all_opts = Vec::new();
        for d in 1..=3usize {
            for p in 1..=3usize {
                all_opts.push(CompileOptions {
                    aref_depth: d,
                    mma_depth: p,
                    ..CompileOptions::default()
                });
            }
        }
        let serial = CompileSession::in_memory(&dev()).with_workers(1);
        let wide = CompileSession::in_memory(&dev()).with_workers(16);
        let a = serial.run_batch(&all_opts, |o| serial.compile_and_simulate_program(&p, o));
        let b = wide.run_batch(&all_opts, |o| wide.compile_and_simulate_program(&p, o));
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Ok(rx), Ok(ry)) => assert_eq!(rx, ry),
                (Err(ex), Err(ey)) => assert_eq!(ex.to_string(), ey.to_string()),
                other => panic!("serial/wide disagree: {other:?}"),
            }
        }
        let sa = serial.cache_stats();
        let sb = wide.cache_stats();
        assert_eq!(sa.kernel_misses, sb.kernel_misses);
        assert_eq!(sa.sim_misses, sb.sim_misses);
        assert_eq!(sa.kernel_entries, sb.kernel_entries);
        assert_eq!(sa.report_entries, sb.report_entries);
        assert_eq!(sa.negative_entries, sb.negative_entries);
    }

    #[test]
    fn a_pass_panicking_once_does_not_poison_the_session() {
        use std::sync::atomic::AtomicBool;
        static ARMED: AtomicBool = AtomicBool::new(true);
        struct PanicsOnce;
        impl tawa_ir::pass::Pass for PanicsOnce {
            fn name(&self) -> &str {
                "dce"
            }
            fn run(&self, _m: &mut Module) -> Result<bool, Diagnostic> {
                assert!(!ARMED.swap(false, Ordering::SeqCst), "pass bug");
                Ok(false)
            }
        }
        // Replacing `dce` puts the panic inside the cleanup prefix, i.e.
        // inside the critical section of the cleaned-module mutex.
        let mut session = CompileSession::in_memory(&dev());
        session
            .registry_mut()
            .register("dce", |_| Ok(Box::new(PanicsOnce)));
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        let opts = CompileOptions::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.compile_program(&p, &opts);
        }));
        assert!(unwound.is_err(), "the first compile must hit the pass bug");
        assert!(session.cleaned.is_poisoned(), "the panic held the lock");

        session.compile_program(&p, &opts).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.kernel_misses, 2, "{stats:?}");
        assert_eq!((stats.kernel_entries, stats.module_entries), (1, 1));
    }

    #[test]
    fn clear_cache_drops_entries_keeps_counters() {
        let session = CompileSession::in_memory(&dev());
        let p = gemm(&GemmConfig::new(1024, 1024, 512));
        session
            .compile_program(&p, &CompileOptions::default())
            .unwrap();
        session.clear_cache();
        let stats = session.cache_stats();
        assert_eq!(stats.kernel_entries, 0);
        assert_eq!(stats.module_entries, 0);
        assert_eq!(stats.kernel_misses, 1);
    }

    #[test]
    fn env_fingerprint_is_the_parents() {
        // Literals captured from the commit that still hashed
        // `format!("{opts:?}|{spec:?}|{device:?}")`: together with the
        // module pins in `tests/fingerprint_pins.rs` they show that no
        // existing cache key moved.
        use tawa_ir::spec::ParamValue;
        let spec = LaunchSpec::uniform(
            vec![
                ParamValue::Int(8192),
                ParamValue::Global {
                    shape: vec![8192, 512],
                    dtype: tawa_ir::types::DType::F16,
                },
            ],
            4096,
            1.5e12,
        );
        let default = CompileOptions::default();
        assert_eq!(env_fingerprint(&spec, &default, &dev()), 0xd53254714f250ed8);
        let persistent = CompileOptions {
            persistent: true,
            cooperative: 2,
            ..CompileOptions::default()
        };
        assert_eq!(
            env_fingerprint(&spec, &persistent, &dev()),
            0x62f1ae9607fad87e
        );
        assert_eq!(
            env_fingerprint(&spec, &default, &dev()),
            tawa_ir::fingerprint::fnv1a(format!("{default:?}|{spec:?}|{:?}", dev()).as_bytes())
        );
    }

    #[test]
    fn a_registry_without_dce_is_an_error_not_a_panic() {
        let mut session = CompileSession::in_memory(&dev());
        let opts = CompileOptions::default();
        let served = gemm(&GemmConfig::new(1024, 1024, 512));
        session.compile_program(&served, &opts).unwrap();

        // The caller owns the registry: nothing stops it from dropping a
        // cleanup pass.
        let mut without_dce = PassRegistry::new();
        without_dce.register("const-fold", |_| {
            Ok(Box::new(tawa_ir::transforms::ConstFold))
        });
        *session.registry_mut() = without_dce;

        let cold =
            gemm(&GemmConfig::new(1024, 1024, 512).with_dtype(tawa_ir::types::DType::F8E4M3));
        let err = session.compile_program(&cold, &opts).unwrap_err();
        let CompileError::Pass(err) = err else {
            panic!("expected a pass error, got {err}");
        };
        assert!(err.to_string().contains("dce"), "{err}");

        // Cached work is still served, and the cold module compiles once
        // the registry is whole again.
        session.compile_program(&served, &opts).unwrap();
        assert_eq!(session.cache_stats().kernel_hits, 1);
        *session.registry_mut() = tawa_pass_registry();
        session.compile_program(&cold, &opts).unwrap();
    }
}
