//! # tawa
//!
//! The complete Tawa toolchain — a Rust reproduction of "Tawa: Automatic
//! Warp Specialization for Modern GPUs with Asynchronous References"
//! (CGO 2026) — re-exported under one roof:
//!
//! * [`ir`] — the MLIR-like tile IR, printer/parser, verifier, passes,
//!   and source-location plumbing ([`Loc`] spans on ops and
//!   [`Diagnostic`]s);
//! * [`frontend`] — **[`dsl`]**, the typed,
//!   source-located tile-program authoring API
//!   ([`KernelBuilder`] → [`Program`], the only public way to write
//!   kernels), plus the Triton-style zoo (GEMM, batched/grouped GEMM,
//!   multi-head attention) written in it and the workload
//!   configurations;
//! * [`core`] — the Tawa compiler: aref semantics, task-aware
//!   partitioning, multi-granularity pipelining, WSIR code generation,
//!   the functional interpreter, the autotuner, and the
//!   [`CompileSession`] serving layer (declarative pass pipelines, a
//!   content-addressed compile cache, thread-scoped batch compilation
//!   and a persistent on-disk cache — [`DiskCache`], attached with
//!   [`CompileSession::with_disk_cache`] or the `TAWA_DISK_CACHE`
//!   environment variable — holding compiled kernels, infeasibility
//!   verdicts and simulation outcomes, so restart-warm sweeps skip the
//!   compiler and the simulator);
//! * [`wsir`] — the warp-specialized virtual ISA, including its stable
//!   serialization format (`tawa::wsir::serialize`);
//! * [`sim`] — the discrete-event Hopper-class GPU simulator, its
//!   versioned report serialization (`tawa::sim::report_serde`) and the
//!   `COST_MODEL_VERSION` that keys persisted reports;
//! * [`kernels`] — baseline frameworks (cuBLAS, FA3, TileLang,
//!   ThunderKittens, Triton);
//! * [`serve`] — the trace-driven LLM-serving harness: seeded
//!   request-mixture [`Trace`]s with a versioned text format, a
//!   deterministic [`Replay`] over one [`CompileSession`], and
//!   [`FleetReport`]s (per-phase latency percentiles, FLOP-weighted
//!   throughput, compiles / simulate-calls per thousand requests) —
//!   driven from the command line by the `tawa-serve` binary;
//! * [`cached`] — the fleet cache: the `tawa-cached` daemon sharing one
//!   fingerprint-sharded cache directory across every session over the
//!   versioned `tawa-cached 1` wire protocol
//!   ([`tawa::core::remote`](tawa_core::remote)); sessions join via
//!   `TAWA_CACHED` or [`CompileSession::with_remote_cache`], and a dead
//!   daemon degrades to the local tiers without ever failing a compile.
//!
//! ## Quickstart
//!
//! ```
//! use tawa::core::CompileOptions;
//! use tawa::frontend::config::GemmConfig;
//! use tawa::frontend::kernels::gemm;
//! use tawa::sim::Device;
//! use tawa::CompileSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = CompileSession::in_memory(&Device::h100_sxm5());
//! // A DSL-authored Program: verified tile IR + launch specialization.
//! let program = gemm(&GemmConfig::new(4096, 4096, 4096));
//! let report = session.compile_and_simulate_program(
//!     &program, &CompileOptions::default())?;
//! // The simulated kernel must make progress and report a finite,
//! // positive throughput. (Deliberately not a hard TFLOP/s floor: the
//! // absolute number shifts whenever the simulator's cost model is
//! // refined, and a doctest should not flake on model changes.)
//! assert!(report.cycles > 0);
//! assert!(report.tflops.is_finite() && report.tflops > 0.0);
//! // Recompiling the same (program, options, device) is a cache hit.
//! session.compile_and_simulate_program(&program, &CompileOptions::default())?;
//! assert_eq!(session.cache_stats().hits(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use gpu_sim as sim;
pub use tawa_cached as cached;
pub use tawa_core as core;
pub use tawa_frontend as frontend;
pub use tawa_ir as ir;
pub use tawa_kernels as kernels;
pub use tawa_serve as serve;
pub use tawa_wsir as wsir;

pub use tawa_core::{
    CacheEnv, CacheStats, CompileSession, DiskCache, DiskCacheStats, PerfSummary, RemoteAddr,
    RemoteCache, SimOutcome, DISK_CACHE_ENV, REMOTE_CACHE_ENV,
};
pub use tawa_frontend::{dsl, KernelBuilder, Program};
pub use tawa_ir::{Diagnostic, Loc, PassRegistry, PipelineSpec, Severity};
pub use tawa_serve::{FleetReport, Replay, Trace, TraceParams};

/// Compiles the code blocks of `docs/pipelines.md` as doctests, so the
/// pipeline-spec reference page cannot drift from the implementation.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/pipelines.md")]
pub struct PipelinesDocTests;

/// Compiles the code blocks of `docs/dsl.md` as doctests, so the DSL
/// reference page cannot drift from the implementation.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/dsl.md")]
pub struct DslDocTests;

/// Compiles the code blocks of `docs/lints.md` as doctests, so the
/// static-analysis lint reference cannot drift from the implementation.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/lints.md")]
pub struct LintsDocTests;
