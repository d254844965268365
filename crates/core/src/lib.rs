//! # tawa-core
//!
//! The Tawa compiler — the primary contribution of "Tawa: Automatic Warp
//! Specialization for Modern GPUs with Asynchronous References" (CGO 2026),
//! reproduced in Rust.
//!
//! Starting from an unannotated, Triton-style tile program (`tawa-ir` +
//! `tawa-frontend`), the compiler:
//!
//! 1. partitions it into producer/consumer warp groups with the task-aware
//!    graph cut of §III-C ([`partition`]),
//! 2. expresses all cross-warp-group communication with **asynchronous
//!    references** whose formal semantics ([`aref`], paper Fig. 4) are
//!    implemented as an executable specification and property-tested
//!    against the parity-based mbarrier lowering ([`parity`], §III-E),
//! 3. applies multi-granularity software pipelining ([`pipeline`], §III-D),
//! 4. and lowers to the warp-specialized virtual ISA WSIR ([`lower`]),
//!    including the cooperative-warp-group and persistent-kernel
//!    optimizations of §IV.
//!
//! [`compile::compile`] is the `enable_warp_specialization=True` entry
//! point; [`session::CompileSession`] is the production entry point —
//! declarative pass pipelines, a content-addressed compile cache, a
//! thread-scoped batch API and an optional **persistent on-disk kernel
//! cache** ([`cache::DiskCache`]) that survives process restarts and
//! negatively caches infeasible configurations; [`autotune`] sweeps the
//! (D, P, persistence, cooperation) space of §V-E over one session.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::Device;
//! use tawa_core::lower::CompileOptions;
//! use tawa_core::session::CompileSession;
//! use tawa_frontend::config::GemmConfig;
//! use tawa_frontend::kernels::gemm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = gemm(&GemmConfig::new(2048, 2048, 2048));
//! let session = CompileSession::in_memory(&Device::h100_sxm5());
//! let report =
//!     session.compile_and_simulate_program(&program, &CompileOptions::default())?;
//! // Deterministic sanity check: simulated execution made progress.
//! assert!(report.cycles > 0 && report.tflops > 0.0);
//! println!("{:.0} TFLOP/s", report.tflops);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod aref;
pub mod autotune;
pub mod cache;
pub mod compile;
pub mod consteval;
pub mod envcfg;
pub mod lower;
pub mod parity;
pub mod partition;
pub mod pipeline;
pub mod remote;
pub mod session;
pub mod tier;

pub use cache::{CacheEntry, DiskCache, DiskCacheStats, EntryKind, SimOutcome, SweepTotals};
pub use compile::{compile, compile_and_simulate};
pub use envcfg::CacheEnv;
pub use lower::{CompileError, CompileOptions};
pub use remote::{DaemonStats, RemoteAddr, RemoteCache, RemoteCacheStats, REMOTE_CACHE_ENV};
pub use session::{
    CacheStats, CompileJob, CompileSession, PerfSummary, ANALYZE_FUEL_ENV, COMPILE_WORKERS_ENV,
    DISK_CACHE_ENV,
};
pub use tier::{KernelSlot, Tier};
pub mod interp;
