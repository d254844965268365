//! # tawa-wsir
//!
//! WSIR — the warp-specialized low-level virtual ISA targeted by the Tawa
//! compiler and executed by the `gpu-sim` discrete-event simulator.
//!
//! WSIR corresponds to the PTX-level idioms described in §III-E of the Tawa
//! paper: asynchronous TMA bulk copies bound to transaction mbarriers
//! (`TmaLoad`), parity-disciplined mbarrier waits (`MbarWait`/`MbarArrive`),
//! asynchronous WGMMA issue groups with bounded in-flight waits
//! (`WgmmaIssue`/`WgmmaWait`), CUDA-core work, and structured loops. A
//! [`kernel::Kernel`] bundles one instruction stream per warp group plus
//! mbarrier declarations, shared-memory footprint and launch configuration.
//!
//! Kernels are checked by a two-tier **static analysis** ([`analyze()`]):
//! a cheap structural [`validate`] pass run on every lowered kernel, and a
//! deeper abstract interpretation of the mbarrier parity discipline that
//! proves freedom from static deadlock and shared-memory races before any
//! cycle is simulated, reporting structured [`Lint`]s.
//!
//! Kernels have a **stable, versioned serialization** ([`serialize`]) used
//! by the persistent on-disk kernel cache in `tawa-core`:
//! [`serialize_kernel`] renders a kernel to a self-describing text
//! document with a `wsir <version>` header, and [`deserialize_kernel`]
//! reads it back exactly (`deserialize ∘ serialize = id`, including float
//! bit patterns). Version mismatches and corrupted documents are reported
//! as typed [`DocError`]s so caches can fall back to recompiling. The
//! document toolkit under that format — and under every other versioned
//! Tawa text document — is [`doc`].
//!
//! ## Example
//!
//! ```
//! use tawa_wsir::{BarId, Instr, Kernel, MmaDtype, Role};
//!
//! let mut k = Kernel::new("toy");
//! k.uniform_grid(16);
//! let full = k.add_barrier("full", 1);
//! let empty = k.add_barrier_init("empty", 1, 1); // starts with one credit
//! k.add_warp_group(Role::Producer, 24, vec![
//!     Instr::loop_const(8, vec![
//!         Instr::MbarWait { bar: empty },
//!         Instr::TmaLoad { bytes: 32 * 1024, bar: full },
//!     ]),
//! ]);
//! k.add_warp_group(Role::Consumer, 240, vec![
//!     Instr::loop_const(8, vec![
//!         Instr::MbarWait { bar: full },
//!         Instr::WgmmaIssue { m: 128, n: 128, k: 64, dtype: MmaDtype::F16 },
//!         Instr::WgmmaWait { pending: 0 },
//!         Instr::MbarArrive { bar: empty },
//!     ]),
//! ]);
//! assert!(tawa_wsir::validate(&k).is_ok());
//! println!("{}", tawa_wsir::print_kernel(&k));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod doc;
pub mod instr;
pub mod kernel;
pub mod period;
pub mod print;
pub mod serialize;
pub mod walk;

pub use analyze::perf::{analyze_ir, analyze_kernel, PerfModel};
pub use analyze::{
    analyze, deadlock_verdict, validate, InstrPath, Lint, LintKind, Severity, ALL_LINT_IDS,
    DEFAULT_ANALYSIS_FUEL,
};
pub use doc::DocError;
pub use instr::{BarId, Count, Instr, MmaDtype, Role};
pub use kernel::{BarrierDecl, CtaClass, Kernel, SrcLoc, WarpGroup};
pub use print::print_kernel;
pub use serialize::{deserialize_kernel, serialize_kernel, FORMAT_VERSION};
