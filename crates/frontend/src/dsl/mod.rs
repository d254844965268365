//! # `tawa::dsl` — the typed, source-located tile-program DSL
//!
//! This module is the **only public way to author Tawa kernels**: a typed
//! builder API that writes plain tile programs — no warp-specialization
//! annotations anywhere — and lowers them to well-formed `tawa_ir`
//! modules plus a launch specialization, packaged as a [`Program`].
//! Everything downstream (the kernel zoo in [`crate::kernels`], the
//! compile session, the benchmark figures) consumes `Program`s.
//!
//! Three ideas define the surface:
//!
//! * **Typed handles.** Values are [`TileExpr<E>`], [`Scalar<E>`],
//!   [`Desc<E>`] and [`GlobalPtr<E>`], where `E` is an element marker
//!   from [`elem`] ([`elem::F16`], [`elem::F32`], [`elem::I32`], … or the
//!   dynamic [`elem::Any`]). Statically-typed kernels turn element
//!   mismatches into Rust type errors; precision-generic kernels use
//!   `Any` and get the same checks as construction-time diagnostics.
//!   Shapes are always checked at construction time (they are runtime
//!   values like `BLOCK_M`).
//! * **Source locations.** Every builder method is `#[track_caller]`: the
//!   author's `file:line:column` is captured as a [`tawa_ir::loc::Loc`],
//!   stamped on the emitted IR op, and carried through every verifier,
//!   pass and lowering [`tawa_ir::diag::Diagnostic`] — errors point at
//!   the kernel source line, not an IR op id. Locations ride outside the
//!   printed IR, so they never perturb fingerprints or cache keys.
//! * **No panics on misuse.** Shape/element mismatches, values escaping
//!   their region, kernels that never store: all are collected and
//!   reported by [`KernelBuilder::finish`] as source-located
//!   diagnostics. A `Program` that exists is well-formed by construction
//!   (and verified once more for belt and suspenders).
//!
//! ## Example
//!
//! ```
//! use tawa_frontend::dsl::{elem::F16, elem::F32, KernelBuilder};
//! use tawa_ir::types::DType;
//!
//! let mut k = KernelBuilder::new("scale_store");
//! let src = k.typed_desc_param::<F16>([1024, 1024]);
//! let dst = k.typed_ptr_param::<F16>([1024, 1024]);
//! let pid = k.program_id(0);
//! let c128 = k.i32(128);
//! let row = k.mul(pid, c128);
//! let zero = k.i32(0);
//! let tile = k.tma_load(src, &[row, zero], [128, 1024]);
//! let two = k.f32(2.0);
//! let twos = k.splat(two, [128, 1024]);
//! let wide = k.cast::<F32, _>(tile);
//! let scaled = k.mul(wide, twos);
//! let out = k.cast::<F16, _>(scaled);
//! // Address arithmetic for the store.
//! let rows = k.arange(0, 128);
//! let rows_g = k.add(rows, row);
//! let re = k.expand_dims(rows_g, 1);
//! let rb = k.broadcast_to(re, [128, 1024]);
//! let cols = k.arange(0, 1024);
//! let ce = k.expand_dims(cols, 0);
//! let cb = k.broadcast_to(ce, [128, 1024]);
//! let width = k.i32(1024);
//! let ws = k.splat(width, [128, 1024]);
//! let row_off = k.mul(rb, ws);
//! let offs = k.add(row_off, cb);
//! let addrs = k.addptr(dst, offs);
//! k.store(addrs, out);
//! k.launch_uniform(8, 0.0);
//! let program = k.finish().expect("well-formed kernel");
//! assert_eq!(program.spec().grid_size(), 8);
//! ```
//!
//! See `docs/dsl.md` for the full grammar and type rules, and
//! [`crate::kernels`] for the paper's evaluation workloads written in
//! this DSL.

pub mod elem;

mod builder;
mod value;

pub use builder::KernelBuilder;
pub use value::{Addrs, Carried, Desc, GlobalPtr, Join, Scalar, ScopeId, TileExpr, Value};

use std::sync::OnceLock;

use tawa_ir::fingerprint::module_fingerprint;
use tawa_ir::func::Module;
use tawa_ir::spec::LaunchSpec;

/// A finished tile program: a verified `tawa_ir` module plus the launch
/// specialization that binds its parameters — everything the compiler
/// needs. Produced by [`KernelBuilder::finish`]; consumed by
/// `CompileSession::compile_program` (and, decomposed via
/// [`Program::into_parts`], by every lower-level entry point).
#[derive(Debug, Clone)]
pub struct Program {
    module: Module,
    spec: LaunchSpec,
    // The module is immutable behind `module()`, so its fingerprint is
    // computed at most once and travels with clones.
    fingerprint: OnceLock<u64>,
}

impl Program {
    /// Reassembles a program from a module and launch spec (used by
    /// harnesses that re-specialize one kernel body for a different
    /// launch, e.g. grouped GEMM re-binding the fused GEMM module).
    pub fn from_parts(module: Module, spec: LaunchSpec) -> Program {
        Program {
            module,
            spec,
            fingerprint: OnceLock::new(),
        }
    }

    /// The tile-IR module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The launch specialization.
    pub fn spec(&self) -> &LaunchSpec {
        &self.spec
    }

    /// Kernel (first function) name.
    pub fn name(&self) -> &str {
        self.module
            .funcs
            .first()
            .map(|f| f.name.as_str())
            .unwrap_or("")
    }

    /// Decomposes into `(module, spec)`.
    pub fn into_parts(self) -> (Module, LaunchSpec) {
        (self.module, self.spec)
    }

    /// Re-specializes the same kernel body for a different launch.
    #[must_use]
    pub fn with_launch(mut self, spec: LaunchSpec) -> Program {
        self.spec = spec;
        self
    }

    /// Content fingerprint of the program's module — the module half of
    /// the compile-cache key ([`tawa_ir::fingerprint::module_fingerprint`]
    /// over the canonical printed IR, which source locations never
    /// perturb). Two programs with equal fingerprints share every cache
    /// tier, including entries written before they were authored in the
    /// DSL. Computed on first use and remembered — across clones and
    /// [`Program::with_launch`], which keep the module.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| module_fingerprint(&self.module))
    }
}
