//! Trace-driven LLM-serving harness: seeded request-mixture traces,
//! deterministic replay over a [`CompileSession`](tawa_core::CompileSession),
//! and fleet-level reports.
//!
//! A serving fleet does not launch one kernel — it serves a *mixture*:
//! prefill GEMMs, decode attention at many batch/seq shapes, and MoE
//! grouped GEMMs arriving as traffic. This crate makes that workload a
//! first-class artifact:
//!
//! - [`Trace`] — a seeded, parameterized request stream with a stable
//!   versioned text serialization (`trace 1`), so workloads are files,
//!   not code. Generate one with [`generate`] from [`TraceParams`], or
//!   author one with [`Trace::from_requests`].
//! - [`Replay`] — resolves each request against one compile session:
//!   first sight of a shape triggers a model-guided autotune sweep,
//!   repeats hit the memory/disk/sim cache tiers. Strictly sequential,
//!   so the aggregation is bit-reproducible.
//! - [`FleetReport`] — p50/p95/p99 simulated latency per phase,
//!   FLOP-weighted throughput, and compiles / simulate-calls per
//!   thousand requests, with its own versioned serde (`fleet-report 1`)
//!   and a JSON rendering for CI.
//!
//! The `tawa-serve` binary wraps the three steps as `gen`, `run` and
//! `report` subcommands.
//!
//! ```
//! use gpu_sim::Device;
//! use tawa_core::CompileSession;
//! use tawa_serve::{generate, replay_trace, TraceParams};
//!
//! let trace = generate(&TraceParams::quick("doc", 7, 4));
//! let session = CompileSession::in_memory(&Device::h100_sxm5());
//! let report = replay_trace(&session, &trace).unwrap();
//! assert_eq!(report.requests, 4);
//! ```

#![warn(missing_docs)]

pub mod replay;
pub mod report;
pub mod trace;

pub use replay::{replay_trace, Replay, ReplayError, RequestOutcome};
pub use report::{
    deserialize_fleet_report, serialize_fleet_report, FleetAccounting, FleetReport, PhaseStats,
    FLEET_REPORT_FORMAT_VERSION,
};
pub use trace::{
    deserialize_trace, generate, serialize_trace, Phase, Request, Trace, TraceParams,
    TRACE_FORMAT_VERSION,
};
