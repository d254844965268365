//! # tawa-ir
//!
//! An arena-based, MLIR-like SSA IR with a Triton-style tile dialect — the
//! compiler substrate of the Tawa reproduction ("Tawa: Automatic Warp
//! Specialization for Modern GPUs with Asynchronous References", CGO 2026).
//!
//! The crate provides:
//!
//! * a type system for tiles ([`types`]),
//! * an operation catalogue spanning `arith`, `tile`, `scf` and the paper's
//!   `tawa` dialect ([`op`]),
//! * the function/module arena with use-def manipulation ([`func`]),
//! * a typed [`builder`],
//! * a textual [`mod@print`]er and [`parse`]r that round-trip,
//! * a [`verify`]er,
//! * a [`pass`] framework with structured [`diag`]nostics, fixpoint stages
//!   and fingerprint-based change tracking ([`fingerprint`]), declarative
//!   pipelines ([`pipeline_spec`]), plus generic [`transforms`] (DCE,
//!   constant folding), and
//! * [`analysis`] helpers (backward slices, loop structure) used by the
//!   task-aware partitioning pass in `tawa-core`, plus a generic
//!   forward/backward worklist dataflow framework
//!   ([`analysis::DataflowAnalysis`]) with liveness, reaching-definitions
//!   and use-count instances backing the static performance analyzer in
//!   `tawa-wsir`.
//!
//! ## Example
//!
//! ```
//! use tawa_ir::builder::build_module;
//! use tawa_ir::print::print_module;
//! use tawa_ir::parse::parse_module;
//! use tawa_ir::types::Type;
//! use tawa_ir::verify::verify_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = build_module("axpy", &[Type::i32()], |b, args| {
//!     let two = b.const_i32(2);
//!     let _ = b.mul(args[0], two);
//! });
//! verify_module(&module).map_err(|e| format!("{e:?}"))?;
//! let text = print_module(&module);
//! let reparsed = parse_module(&text)?;
//! assert_eq!(print_module(&reparsed), text);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod diag;
pub mod fingerprint;
pub mod func;
pub mod loc;
pub mod op;
pub mod parse;
pub mod pass;
pub mod pipeline_spec;
pub mod print;
pub mod spec;
pub mod transforms;
pub mod types;
pub mod verify;

pub use analysis::{
    dead_result_ops, run_dataflow, DataflowAnalysis, DataflowResults, Direction, Liveness,
    ReachingDefs,
};
pub use builder::Builder;
pub use diag::{Diagnostic, Severity};
pub use fingerprint::module_fingerprint;
pub use func::{Func, Module};
pub use loc::Loc;
pub use op::{Attr, AttrMap, OpId, OpKind, ValueId};
pub use pipeline_spec::{PassRegistry, PipelineSpec, StageSpec};
pub use types::{DType, Shape, Type};
