//! # gpu-sim
//!
//! A discrete-event Hopper-class GPU simulator: the hardware substrate of
//! the Tawa reproduction.
//!
//! Real warp specialization gains come from the interaction of asynchronous
//! units — TMA engines feeding shared memory behind transaction mbarriers,
//! Tensor Core WGMMA pipelines with bounded in-flight groups, CUDA-core
//! work, occupancy limits from shared memory and registers, grid wave
//! scheduling and kernel launch overheads. This crate models each of those
//! explicitly:
//!
//! * [`device`] — calibration constants (H100 SXM5) and the occupancy
//!   calculator,
//! * [`engine`] — the per-SM event engine executing WSIR warp-group
//!   programs (detects deadlocks rather than hanging, and skips the
//!   periodic steady state of every loop exactly); its loop cursors,
//!   transaction mbarriers and class-family walk are
//!   [`tawa_wsir::walk`]'s, shared with the static gate,
//! * [`run`] — wave-level scheduling, persistent-kernel handling and
//!   report generation,
//! * [`report_serde`] — the stable, versioned text serialization of
//!   [`SimReport`]s (the on-disk format behind `tawa-core`'s persistent
//!   simulation-report cache tier).
//!
//! Simulated numbers are only as stable as the model that produced them:
//! [`COST_MODEL_VERSION`] identifies the engine's timing/accounting model
//! and must be bumped whenever simulated results change, so persisted
//! reports from older models are invalidated instead of silently served.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{simulate, Device};
//! use tawa_wsir::{Instr, Kernel, MmaDtype, Role};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut k = Kernel::new("tiny");
//! k.uniform_grid(132);
//! k.smem_bytes = 64 * 1024;
//! let full = k.add_barrier("full", 1);
//! let empty = k.add_barrier_init("empty", 1, 1);
//! k.add_warp_group(Role::Producer, 24, vec![Instr::loop_const(16, vec![
//!     Instr::MbarWait { bar: empty },
//!     Instr::TmaLoad { bytes: 32 * 1024, bar: full },
//! ])]);
//! k.add_warp_group(Role::Consumer, 240, vec![Instr::loop_const(16, vec![
//!     Instr::MbarWait { bar: full },
//!     Instr::WgmmaIssue { m: 128, n: 128, k: 64, dtype: MmaDtype::F16 },
//!     Instr::WgmmaWait { pending: 0 },
//!     Instr::MbarArrive { bar: empty },
//! ])]);
//! k.useful_flops = 132.0 * 16.0 * 2.0 * 128.0 * 128.0 * 64.0;
//! let report = simulate(&k, &Device::h100_sxm5())?;
//! assert!(report.tflops > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod device;
pub mod engine;
pub mod report_serde;
pub mod run;

/// Version of the simulator's **cost model** — the timing and accounting
/// rules that turn a kernel into a [`SimReport`] (engine event costs,
/// bandwidth provisioning, wave scheduling, per-class grid accounting).
///
/// Bump this whenever a change makes the simulator produce different
/// numbers for the same kernel on the same device: calibration constants,
/// event ordering, new stall accounting, accounting bug fixes. Persistent
/// caches key stored reports by this version (alongside the compile cache
/// key), so a bump invalidates exactly the stale reports — cached
/// *kernels* are untouched, because the IR and lowering did not change.
///
/// Distinct from [`report_serde::REPORT_FORMAT_VERSION`], which covers
/// only the serialization syntax, and from
/// [`analytic::ANALYTIC_MODEL_VERSION`], which covers only the analytic
/// ranking model. *How* a simulation executes is also out of scope: the
/// engine's exact steady-state skip ([`engine`]) and its walking the CTA
/// classes of a kernel as one family ([`engine::run_classes`]) both
/// produce reports bit-identical to walking every trip of every class on
/// its own, so neither needs a bump here.
pub const COST_MODEL_VERSION: u32 = 1;

pub use analytic::{estimate, perf_model, AnalyticEstimate, BoundKind, ANALYTIC_MODEL_VERSION};
pub use device::Device;
pub use engine::{EngineCfg, EngineResult, EngineStats};
pub use report_serde::{deserialize_report, serialize_report, REPORT_FORMAT_VERSION};
pub use run::{simulate, simulate_with, SimError, SimOptions, SimReport};
