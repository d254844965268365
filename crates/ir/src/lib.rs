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
//! * a textual [`mod@print`]er and [`parse`]r that round-trip — the text
//!   is how tests and tools write IR by hand; kernels are authored in
//!   `tawa-frontend`'s DSL, and passes rewrite through the [`func`] API,
//! * a [`verify`]er,
//! * a [`pass`] framework with structured [`diag`]nostics, fixpoint stages
//!   and fingerprint-based change tracking ([`fingerprint`]), declarative
//!   pipelines ([`pipeline_spec`]), plus generic [`transforms`] (DCE,
//!   constant folding), and
//! * [`analysis`] queries: loop structure, used by the passes in
//!   `tawa-core`, and the two IR queries behind the static performance
//!   analyzer in `tawa-wsir` — dead computation
//!   ([`analysis::dead_result_ops`]) and aref reads no write reaches
//!   ([`analysis::uninitialized_gets`]).
//!
//! ## Example
//!
//! ```
//! use tawa_ir::parse::parse_module;
//! use tawa_ir::print::print_module;
//! use tawa_ir::verify::verify_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = parse_module(
//!     "module {
//!        func @axpy(%x: i32) {
//!          %two = arith.const_int() {value = 2} : i32
//!          %0 = arith.mul(%x, %two) : i32
//!        }
//!      }",
//! )?;
//! verify_module(&module).map_err(|e| format!("{e:?}"))?;
//! // The printer's canonical form parses back to itself.
//! let text = print_module(&module);
//! assert!(text.contains("%0 = arith.mul(%x, %two) : i32"));
//! assert_eq!(print_module(&parse_module(&text)?), text);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
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

pub use analysis::{dead_result_ops, uninitialized_gets};
pub use diag::{Diagnostic, Severity};
pub use fingerprint::module_fingerprint;
pub use func::{Func, Module};
pub use loc::Loc;
pub use op::{Attr, AttrMap, OpId, OpKind, ValueId};
pub use pipeline_spec::{PassRegistry, PipelineSpec, StageSpec};
pub use types::{DType, Shape, Type};
