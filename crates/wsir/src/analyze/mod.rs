//! Static analysis of WSIR kernels: one diagnostic type, two tiers.
//!
//! The **structural tier** ([`validate`]) is a cheap shape check run on
//! every lowered kernel: dangling barrier ids, out-of-range loop
//! parameters, barriers that are waited on but never signalled, empty
//! programs. It is deliberately shallow — dynamic liveness of a
//! *structurally* sound kernel is left to the simulator so that broken
//! protocols still produce a diagnosable dynamic `deadlock:` report when
//! they are simulated directly.
//!
//! The **protocol tier** ([`analyze`]) goes much further: it abstractly
//! interprets every warp group's instruction stream (including `Loop`
//! bodies across iteration parities) against the mbarrier
//! phase/arrival-count lattice and a shared-memory tile ownership map
//! derived from the kernel's aref discipline (paper §III-E). It proves or
//! refutes the parity discipline before a single cycle is simulated,
//! reporting:
//!
//! - **static deadlock** — a wait whose matching arrive can never fire in
//!   some parity (phase mismatch, arrive count short of the barrier's
//!   expected count, missing transaction bytes from the TMA loads that
//!   feed it);
//! - **shared-memory races** — a tile slot written by one role and read by
//!   another with no barrier edge ordering the accesses in that parity;
//! - **protocol lints** — stranded arrivals (double-arrive), dead
//!   barriers, staging buffers sized below the deepest in-flight pipeline
//!   stage, TMA transfers that cannot fit shared memory at all.
//!
//! Diagnostics are structured [`Lint`]s carrying a machine-readable
//! [`LintKind`], an [`InstrPath`] into the warp-group instruction tree,
//! and — when lowering recorded one — a [`SrcLoc`] span pointing at the
//! DSL line that created the barrier involved, so a race report names the
//! author's `file:line` instead of a WSIR index.
//!
//! Every lint is declared once, as a row of the `lint_table!` below: its
//! fields and docs, stable id, severity, whether it is a definite
//! deadlock, and its message. [`LintKind`], [`ALL_LINT_IDS`],
//! [`LintKind::id`], [`LintKind::severity`], [`Lint::is_definite_deadlock`]
//! and the `Display` text are generated from it. Adding a lint is one row
//! there plus one row in `docs/lints.md`; a test in the `tawa` crate holds
//! the two lists to each other.
//!
//! What each barrier is used for — waited on, arrived on, fed by TMA, and
//! its first wait — is taken in one walk per kernel (`BarrierUse`), which
//! every entry point computes once and the structural, protocol and
//! performance tiers share. Lints drawn from it come in barrier-id order.
//!
//! `tawa-core` runs [`analyze`] as a gate inside
//! `CompileSession::compile_and_simulate_program`: a definite-deadlock verdict
//! ([`deadlock_verdict`]) becomes a typed negative cache entry without the
//! simulator ever being invoked. The `tawa-lint` binary exposes the same
//! checks over serialized `.wsir` files and cache directories.

use std::fmt;

use crate::instr::{BarId, Count, Instr, Role};
use crate::kernel::{Kernel, SrcLoc};

mod interp;
pub mod perf;

/// How serious a lint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious protocol shape; the kernel may still simulate correctly.
    Warning,
    /// The kernel is structurally invalid or provably misbehaves.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Path to an instruction inside a kernel: warp group index plus the
/// chain of instruction indices through nested `Loop` bodies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstrPath {
    /// Warp group index.
    pub wg: usize,
    /// Instruction indices, outermost body first.
    pub indices: Vec<usize>,
}

impl fmt::Display for InstrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wg{}", self.wg)?;
        if !self.indices.is_empty() {
            write!(f, "[")?;
            for (i, idx) in self.indices.iter().enumerate() {
                if i > 0 {
                    write!(f, ".")?;
                }
                write!(f, "{idx}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Declares [`LintKind`] and everything derived from it from one list, a
/// row per kind:
///
/// ```text
/// /// docs
/// Kind { /// docs
///        field: Type, .. } = "stable-id", Severity [+ deadlock], message;
/// ```
///
/// `+ deadlock` marks a definite deadlock ([`Lint::is_definite_deadlock`]).
/// The message is a format string over the fields, or `{ if flag "…" else
/// "…" }` for a two-branch message on a `bool` field.
macro_rules! lint_table {
    ($(
        $(#[$doc:meta])*
        $kind:ident $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty,)+ })?
            = $id:literal, $severity:ident $(+ $deadlock:ident)?, $msg:tt;
    )+) => {
        /// What a lint found. Every variant carries the data needed to
        /// render its message; its id, severity and deadlock class are
        /// declared beside it in the lint table.
        #[derive(Debug, Clone, PartialEq)]
        pub enum LintKind {
            $($(#[$doc])* $kind $({ $($(#[$fdoc])* $field: $ty,)+ })?,)+
        }

        /// Every stable lint id the analyzer can emit, in [`LintKind`]
        /// declaration order. `tawa-lint --deny` validates requested ids
        /// against this list (a typo in a CI gate must fail loudly, not
        /// silently match nothing), and a test checks every id has a
        /// catalog entry in `docs/lints.md`.
        pub const ALL_LINT_IDS: &[&str] = &[$($id,)+];

        impl LintKind {
            /// Stable kebab-case lint id (used by `tawa-lint` and docs/lints.md).
            pub fn id(&self) -> &'static str {
                match self {
                    $(LintKind::$kind { .. } => $id,)+
                }
            }

            /// Severity of this lint kind.
            pub fn severity(&self) -> Severity {
                match self {
                    $(LintKind::$kind { .. } => Severity::$severity,)+
                }
            }
        }

        impl Lint {
            /// True if this lint proves the kernel cannot terminate.
            pub fn is_definite_deadlock(&self) -> bool {
                match self.kind {
                    $(LintKind::$kind { .. } => lint_table!(@deadlock $($deadlock)?),)+
                }
            }
        }

        impl fmt::Display for LintKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(LintKind::$kind $({ $($field),+ })? => lint_table!(@write f, $msg),)+
                }
            }
        }
    };
    (@deadlock) => { false };
    (@deadlock deadlock) => { true };
    (@write $f:ident, $msg:literal) => { write!($f, $msg) };
    (@write $f:ident, { if $flag:ident $yes:literal else $no:literal }) => {
        if *$flag { write!($f, $yes) } else { write!($f, $no) }
    };
}

lint_table! {
    /// Kernel has no warp groups.
    NoWarpGroups = "no-warp-groups", Error, "kernel has no warp groups";
    /// Kernel has no CTA classes (empty grid).
    NoCtaClasses = "no-cta-classes", Error, "kernel has no CTA classes (empty grid)";
    /// A CTA class with zero multiplicity.
    ZeroMultiplicity {
        /// Class index.
        class: usize,
    } = "zero-multiplicity", Error, "CTA class {class} has zero multiplicity";
    /// A warp group with an empty instruction stream.
    EmptyBody {
        /// Role of the empty warp group.
        role: Role,
    } = "empty-body", Error, "warp group ({role}) has an empty body";
    /// A barrier id with no matching declaration.
    BarOutOfRange {
        /// The dangling id.
        bar: BarId,
    } = "bar-out-of-range", Error, "{bar} out of range";
    /// A TMA load of zero bytes.
    ZeroByteTma = "zero-byte-tma", Error, "zero-byte TMA load";
    /// A loop trip count reading past the class parameter vector.
    LoopParamOutOfRange {
        /// Parameter index used by the loop.
        param: usize,
        /// Smallest parameter count across classes.
        max: usize,
    } = "loop-param-out-of-range", Error, "loop param ${param} exceeds class params ({max})";
    /// A loop with no body.
    EmptyLoopBody = "empty-loop-body", Error, "empty loop body";
    /// A WGMMA with a zero dimension.
    DegenerateWgmma {
        /// M dimension.
        m: u32,
        /// N dimension.
        n: u32,
        /// K dimension.
        k: u32,
    } = "degenerate-wgmma", Error, "degenerate WGMMA {m}x{n}x{k}";
    /// A barrier declared with `arrive_count == 0`.
    ZeroArriveCount {
        /// Barrier id.
        bar: BarId,
        /// Barrier name.
        name: String,
    } = "zero-arrive-count", Error, "{bar} ({name}) has zero arrive count";
    /// A barrier that is waited on but never signalled.
    WaitNeverSignalled {
        /// Barrier id.
        bar: BarId,
        /// Barrier name.
        name: String,
    } = "wait-never-signalled", Error + deadlock,
        "{bar} ({name}) is waited on but never signalled — guaranteed deadlock";
    /// A wait that can never be satisfied: in CTA class `class`, warp
    /// group execution reaches a wait on `bar` for a phase whose matching
    /// arrivals can never fire.
    StaticDeadlock {
        /// CTA class the deadlock was proven in.
        class: usize,
        /// Role of the blocked warp group.
        role: Role,
        /// Barrier waited on.
        bar: BarId,
        /// Barrier name.
        name: String,
        /// Phase the warp group is waiting for (0-based).
        waiting_phase: u64,
        /// Phases the barrier has completed (including initial credits).
        completed_phases: u64,
        /// Arrivals stranded in the incomplete phase.
        arrivals: u32,
        /// Arrivals needed to complete a phase.
        arrive_count: u32,
    } = "static-deadlock", Error + deadlock,
        "class {class}: {role} warp group waits forever on {bar} ({name}) phase \
         {waiting_phase} — barrier stuck at {completed_phases} completed phases with \
         {arrivals}/{arrive_count} arrivals";
    /// A `Syncthreads` rendezvous that can never complete because at least
    /// one warp group exits (or blocks) without reaching it.
    SyncDeadlock {
        /// CTA class the deadlock was proven in.
        class: usize,
        /// Role of a blocked warp group.
        role: Role,
        /// Warp groups that reached the rendezvous.
        arrived: usize,
        /// Warp groups that must reach it.
        expected: usize,
    } = "sync-deadlock", Error + deadlock,
        "class {class}: {role} warp group blocks at syncthreads — only {arrived} of \
         {expected} warp groups can reach the rendezvous";
    /// A tile slot access with no barrier edge ordering it against the
    /// other role's access in the same parity.
    SharedMemRace {
        /// Barrier the slot's writes signal (`full`).
        data: BarId,
        /// Name of the data barrier.
        name: String,
        /// Barrier guarding slot reuse (`empty`).
        guard: BarId,
        /// Role of the racing warp group.
        role: Role,
        /// Slot generation (parity) at which ordering is first lost.
        generation: u64,
        /// True when an overwrite races a possibly in-flight read; false
        /// when a read races a possibly unfinished write.
        write: bool,
    } = "shared-mem-race", Error, {
        if write
            "{role} warp group overwrites the tile slot of {data} ({name}) in parity \
             {generation} without consuming a release on {guard} — a prior read may still be \
             in flight"
        else
            "{role} warp group releases the tile slot of {data} ({name}) via {guard} in parity \
             {generation} without having waited for the write — the read is unordered against \
             the producer"
    };
    /// Arrivals stranded mid-phase at kernel exit: some warp group arrived
    /// more often than waits consumed (double-arrive on a phase).
    DoubleArrive {
        /// Barrier id.
        bar: BarId,
        /// Barrier name.
        name: String,
        /// Stranded arrivals.
        residue: u32,
    } = "double-arrive", Warning,
        "{bar} ({name}) exits with {residue} stranded arrival(s) mid-phase — double-arrive on \
         a phase or a missing wait";
    /// A barrier that is never waited on and never signalled.
    DeadBarrier {
        /// Barrier id.
        bar: BarId,
        /// Barrier name.
        name: String,
    } = "dead-barrier", Warning, "{bar} ({name}) is never waited on or signalled";
    /// A barrier that is signalled but never waited on.
    UnawaitedBarrier {
        /// Barrier id.
        bar: BarId,
        /// Barrier name.
        name: String,
    } = "unawaited-barrier", Warning, "{bar} ({name}) is signalled but never waited on";
    /// In-flight staged bytes exceed the declared shared-memory footprint:
    /// buffer slots are sized below the deepest in-flight pipeline stage.
    SmemOverflow {
        /// Peak bytes staged at once.
        max_in_flight: u64,
        /// Declared shared memory per CTA.
        smem_bytes: u64,
    } = "smem-overflow", Warning,
        "deepest in-flight pipeline stage holds {max_in_flight} bytes but only {smem_bytes} \
         bytes of shared memory are declared";
    /// A single TMA transfer larger than all of shared memory — its
    /// destination coordinates cannot lie inside the staging buffer.
    OversizedTma {
        /// Transfer size.
        bytes: u64,
        /// Declared shared memory per CTA.
        smem_bytes: u64,
    } = "oversized-tma", Warning,
        "TMA transfer of {bytes} bytes cannot fit the {smem_bytes}-byte shared memory staging \
         buffer";
    /// The interpreter ran out of fuel before proving the protocol; no
    /// verdict for this class.
    AnalysisBudget {
        /// CTA class that exhausted the budget.
        class: usize,
        /// The instruction budget that was exhausted.
        budget: u64,
    } = "analysis-budget", Warning,
        "class {class}: interpretation budget of {budget} instructions exhausted before the \
         protocol was proven";
    /// A tile computation whose result never reaches a store or epilogue
    /// (performance tier, from the tile-IR def-use mark — see [`perf`]).
    DeadCompute {
        /// Mnemonic of the dead operation (e.g. `tile.dot`).
        op: String,
    } = "dead-compute", Warning,
        "result of {op} is never consumed by a store or epilogue — dead compute";
    /// An aref ring of depth 1 although the shared-memory budget admits a
    /// deeper ring: the producer and consumer serialize on one slot.
    SingleBufferedPipeline {
        /// Bytes staged per ring slot.
        slot_bytes: u64,
        /// Ring depth the shared-memory budget admits.
        admissible: u64,
    } = "single-buffered-pipeline", Warning,
        "aref ring is single-buffered ({slot_bytes}-byte slot) but shared memory admits depth \
         {admissible} — producer and consumer serialize on one slot";
    /// A barrier edge that orders no tile access: it is not part of any
    /// aref slot's full/empty pair and no TMA transfer posts to it, so the
    /// handshake only serializes warp groups.
    OverSynchronized {
        /// The barrier.
        bar: BarId,
        /// Barrier name.
        name: String,
    } = "over-synchronized", Warning,
        "{bar} ({name}) orders no tile access — the barrier edge only serializes warp groups";
    /// Producer/consumer per-iteration cost ratio outside the analytic
    /// model's overlap window: no ring depth can hide the loads.
    UnbalancedStages {
        /// Producer cycles per steady-loop iteration.
        producer_cycles: u64,
        /// Consumer cycles per steady-loop iteration.
        consumer_cycles: u64,
        /// Admissible producer/consumer ratio for full overlap.
        window: f64,
    } = "unbalanced-stages", Warning,
        "producer stage costs {producer_cycles} cycles/iteration against the consumer's \
         {consumer_cycles} — outside the {window}x overlap window, no ring depth hides the loads";
    /// The resource budget caps occupancy below the device's tensor-core
    /// saturation point while per-CTA serialization is the bottleneck.
    OccupancyCapped {
        /// Achieved resident CTAs per SM.
        occupancy: u32,
        /// CTAs per SM needed to saturate the tensor cores.
        saturation: u32,
        /// Resource capping occupancy (`smem`, `regs`, `threads`, `slots`).
        limiter: String,
    } = "occupancy-capped", Warning,
        "occupancy capped at {occupancy} CTA/SM by {limiter} — {saturation} CTA/SM needed to \
         saturate the tensor cores";
    /// An aref slot is read where no `tawa.put` on its ring reaches
    /// (performance tier, from the tile-IR put-before-get rule — see
    /// [`perf`]).
    UninitializedTileRead {
        /// Printable name of the slot value read too early.
        slot: String,
    } = "uninitialized-tile-read", Warning,
        "aref slot {slot} is read before any TMA or compute write reaches it";
}

/// One static-analysis diagnostic: a structured kind, an optional path to
/// the offending instruction, and an optional source span threaded from
/// the DSL through lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct Lint {
    /// What was found.
    pub kind: LintKind,
    /// Where in the kernel (warp group + instruction indices), if the
    /// lint is attributable to one instruction.
    pub path: Option<InstrPath>,
    /// The DSL source line involved, when lowering recorded one.
    pub loc: Option<SrcLoc>,
}

impl Lint {
    fn new(kind: LintKind) -> Lint {
        Lint {
            kind,
            path: None,
            loc: None,
        }
    }

    fn at(kind: LintKind, path: InstrPath) -> Lint {
        Lint {
            kind,
            path: Some(path),
            loc: None,
        }
    }

    /// Stable kebab-case lint id.
    pub fn id(&self) -> &'static str {
        self.kind.id()
    }

    /// Severity of this lint.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.id(), self.kind)?;
        if let Some(p) = &self.path {
            write!(f, " ({p})")?;
        }
        if let Some(l) = &self.loc {
            write!(f, " at {l}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Lint {}

/// Structural validation — the cheap tier. Returns all structural errors
/// found; a kernel that passes is well-formed enough to simulate (dynamic
/// liveness is the simulator's or [`analyze`]'s job).
pub fn validate(k: &Kernel) -> Result<(), Vec<Lint>> {
    let errs = structural(k, &barrier_use(k));
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Default instruction budget for the abstract interpreter. Real kernels
/// execute a few thousand abstract steps; the bound only exists so
/// adversarial trip counts cannot hang the compiler. The compile
/// session's static gate always runs at this budget.
pub const DEFAULT_ANALYSIS_FUEL: u64 = 2_000_000;

/// Full static analysis — both tiers, at the default interpretation
/// budget. Structural errors short-circuit the protocol tier (a malformed
/// kernel cannot be interpreted); otherwise the abstract interpreter's
/// findings are appended.
pub fn analyze(k: &Kernel) -> Vec<Lint> {
    analyze_counted(k, DEFAULT_ANALYSIS_FUEL).0
}

/// [`analyze`] with an explicit per-class interpretation budget, also
/// returning the abstract steps the interpreter executed over all
/// classes — its deterministic unit of host work, which the tests pin. A
/// class that exhausts `fuel` abstract steps reports
/// [`LintKind::AnalysisBudget`] carrying the budget instead of a verdict.
/// Not part of the product's surface.
#[doc(hidden)]
pub fn analyze_counted(k: &Kernel, fuel: u64) -> (Vec<Lint>, u64) {
    analyze_impl(k, fuel, true)
}

/// [`analyze_counted`] with the interpreter walking every trip of
/// every loop instead of skipping its steady state: the reference the
/// differential tests hold the shipped analyzer against. Not a mode of
/// the product — nothing outside tests calls it.
#[doc(hidden)]
pub fn analyze_reference(k: &Kernel, fuel: u64) -> Vec<Lint> {
    analyze_impl(k, fuel, false).0
}

fn analyze_impl(k: &Kernel, fuel: u64, fast_forward: bool) -> (Vec<Lint>, u64) {
    let uses = barrier_use(k);
    let mut lints = structural(k, &uses);
    if lints.iter().any(|l| l.severity() == Severity::Error) {
        return (lints, 0);
    }
    let (protocol, steps) = interp::check(k, &uses, fuel, fast_forward);
    lints.extend(protocol);
    lints.sort_by_key(|l| std::cmp::Reverse(l.severity()));
    (lints, steps)
}

/// Summarizes definite-deadlock lints into one message, or `None` if the
/// kernel is not provably deadlocked. `CompileSession` uses this verdict
/// to park a configuration in the negative cache without simulating it.
pub fn deadlock_verdict(lints: &[Lint]) -> Option<String> {
    let deadlocks: Vec<&Lint> = lints.iter().filter(|l| l.is_definite_deadlock()).collect();
    let first = deadlocks.first()?;
    let mut msg = format!("static deadlock: {}", first.kind);
    if let Some(loc) = &first.loc {
        msg.push_str(&format!(" at {loc}"));
    }
    if deadlocks.len() > 1 {
        msg.push_str(&format!(" (+{} more)", deadlocks.len() - 1));
    }
    Some(msg)
}

/// Pre-order visit of an instruction tree, tracking the index path.
fn visit_with_path<'a>(
    instrs: &'a [Instr],
    path: &mut Vec<usize>,
    f: &mut dyn FnMut(&'a Instr, &[usize]),
) {
    for (i, instr) in instrs.iter().enumerate() {
        path.push(i);
        f(instr, path);
        if let Instr::Loop { body, .. } = instr {
            visit_with_path(body, path, f);
        }
        path.pop();
    }
}

/// What a kernel's instruction streams do with one declared barrier: the
/// facts the structural, protocol and performance tiers share.
/// [`barrier_use`] takes them in one walk, indexed by barrier id.
#[derive(Clone, Default)]
struct BarrierUse {
    /// Some warp group waits on it.
    waited: bool,
    /// Some warp group arrives on it.
    arrived: bool,
    /// Some TMA load posts to it.
    tma_fed: bool,
    /// Its first wait, in warp-group then program order.
    first_wait: Option<InstrPath>,
}

impl BarrierUse {
    /// Some instruction can complete its phases.
    fn signalled(&self) -> bool {
        self.arrived || self.tma_fed
    }
}

/// Every declared barrier's [`BarrierUse`], by barrier id. Undeclared ids
/// are `bar-out-of-range`'s business and are skipped.
fn barrier_use(k: &Kernel) -> Vec<BarrierUse> {
    let mut uses = vec![BarrierUse::default(); k.barriers.len()];
    for (wi, wg) in k.warp_groups.iter().enumerate() {
        visit_with_path(&wg.body, &mut Vec::new(), &mut |i, p| match i {
            Instr::MbarWait { bar } => {
                if let Some(u) = uses.get_mut(bar.0 as usize) {
                    u.waited = true;
                    u.first_wait.get_or_insert_with(|| InstrPath {
                        wg: wi,
                        indices: p.to_vec(),
                    });
                }
            }
            Instr::MbarArrive { bar } => {
                if let Some(u) = uses.get_mut(bar.0 as usize) {
                    u.arrived = true;
                }
            }
            Instr::TmaLoad { bar, .. } => {
                if let Some(u) = uses.get_mut(bar.0 as usize) {
                    u.tma_fed = true;
                }
            }
            _ => {}
        });
    }
    uses
}

fn structural(k: &Kernel, uses: &[BarrierUse]) -> Vec<Lint> {
    let mut lints = Vec::new();

    if k.warp_groups.is_empty() {
        lints.push(Lint::new(LintKind::NoWarpGroups));
    }
    if k.classes.is_empty() {
        lints.push(Lint::new(LintKind::NoCtaClasses));
    }
    for (i, c) in k.classes.iter().enumerate() {
        if c.multiplicity == 0 {
            lints.push(Lint::new(LintKind::ZeroMultiplicity { class: i }));
        }
    }
    let min_params = k.classes.iter().map(|c| c.params.len()).min().unwrap_or(0);

    let nbars = k.barriers.len() as u32;

    for (wi, wg) in k.warp_groups.iter().enumerate() {
        if wg.body.is_empty() {
            lints.push(Lint::at(
                LintKind::EmptyBody { role: wg.role },
                InstrPath {
                    wg: wi,
                    indices: Vec::new(),
                },
            ));
        }
        let mut path = Vec::new();
        visit_with_path(&wg.body, &mut path, &mut |i, p| {
            let here = || InstrPath {
                wg: wi,
                indices: p.to_vec(),
            };
            match i {
                Instr::TmaLoad { bar, bytes } => {
                    if bar.0 >= nbars {
                        lints.push(Lint::at(LintKind::BarOutOfRange { bar: *bar }, here()));
                    }
                    if *bytes == 0 {
                        lints.push(Lint::at(LintKind::ZeroByteTma, here()));
                    }
                }
                Instr::MbarArrive { bar } | Instr::MbarWait { bar } if bar.0 >= nbars => {
                    lints.push(Lint::at(LintKind::BarOutOfRange { bar: *bar }, here()));
                }
                Instr::Loop { count, body } => {
                    if let Count::Param(p) = count {
                        if *p >= min_params {
                            lints.push(Lint::at(
                                LintKind::LoopParamOutOfRange {
                                    param: *p,
                                    max: min_params,
                                },
                                here(),
                            ));
                        }
                    }
                    if body.is_empty() {
                        lints.push(Lint::at(LintKind::EmptyLoopBody, here()));
                    }
                }
                Instr::WgmmaIssue { m, n, k: kk, .. } if (*m == 0 || *n == 0 || *kk == 0) => {
                    lints.push(Lint::at(
                        LintKind::DegenerateWgmma {
                            m: *m,
                            n: *n,
                            k: *kk,
                        },
                        here(),
                    ));
                }
                _ => {}
            }
        });
    }

    for (b, u) in uses.iter().enumerate() {
        if u.waited && !u.signalled() {
            let bar = BarId(b as u32);
            lints.push(Lint {
                kind: LintKind::WaitNeverSignalled {
                    bar,
                    name: k.barriers[b].name.clone(),
                },
                path: u.first_wait.clone(),
                loc: k.bar_loc(bar),
            });
        }
    }
    for (i, b) in k.barriers.iter().enumerate() {
        if b.arrive_count == 0 {
            lints.push(Lint::new(LintKind::ZeroArriveCount {
                bar: BarId(i as u32),
                name: b.name.clone(),
            }));
        }
    }

    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Count, Instr, MmaDtype, Role};
    use crate::kernel::{CtaClass, Kernel};

    fn skeleton() -> Kernel {
        let mut k = Kernel::new("t");
        k.uniform_grid(4);
        k
    }

    #[test]
    fn all_lint_ids_is_exhaustive_and_kebab_case() {
        // One exemplar per variant, in declaration order, with its
        // rendering (severity, id and message) and whether it is a
        // definite deadlock. The messages were captured before the lint
        // table replaced the hand-written matches, so they pin every text.
        let b = || "b".to_string();
        let exemplars: Vec<(LintKind, &str, bool)> = vec![
            (
                LintKind::NoWarpGroups,
                "error[no-warp-groups]: kernel has no warp groups",
                false,
            ),
            (
                LintKind::NoCtaClasses,
                "error[no-cta-classes]: kernel has no CTA classes (empty grid)",
                false,
            ),
            (
                LintKind::ZeroMultiplicity { class: 0 },
                "error[zero-multiplicity]: CTA class 0 has zero multiplicity",
                false,
            ),
            (
                LintKind::EmptyBody {
                    role: Role::Producer,
                },
                "error[empty-body]: warp group (producer) has an empty body",
                false,
            ),
            (
                LintKind::BarOutOfRange { bar: BarId(0) },
                "error[bar-out-of-range]: bar0 out of range",
                false,
            ),
            (
                LintKind::ZeroByteTma,
                "error[zero-byte-tma]: zero-byte TMA load",
                false,
            ),
            (
                LintKind::LoopParamOutOfRange { param: 0, max: 0 },
                "error[loop-param-out-of-range]: loop param $0 exceeds class params (0)",
                false,
            ),
            (
                LintKind::EmptyLoopBody,
                "error[empty-loop-body]: empty loop body",
                false,
            ),
            (
                LintKind::DegenerateWgmma { m: 0, n: 0, k: 0 },
                "error[degenerate-wgmma]: degenerate WGMMA 0x0x0",
                false,
            ),
            (
                LintKind::ZeroArriveCount {
                    bar: BarId(0),
                    name: b(),
                },
                "error[zero-arrive-count]: bar0 (b) has zero arrive count",
                false,
            ),
            (
                LintKind::WaitNeverSignalled {
                    bar: BarId(0),
                    name: b(),
                },
                "error[wait-never-signalled]: bar0 (b) is waited on but never signalled — \
                 guaranteed deadlock",
                true,
            ),
            (
                LintKind::StaticDeadlock {
                    class: 0,
                    role: Role::Consumer,
                    bar: BarId(0),
                    name: b(),
                    waiting_phase: 0,
                    completed_phases: 0,
                    arrivals: 0,
                    arrive_count: 1,
                },
                "error[static-deadlock]: class 0: consumer warp group waits forever on bar0 (b) \
                 phase 0 — barrier stuck at 0 completed phases with 0/1 arrivals",
                true,
            ),
            (
                LintKind::SyncDeadlock {
                    class: 0,
                    role: Role::Consumer,
                    arrived: 0,
                    expected: 1,
                },
                "error[sync-deadlock]: class 0: consumer warp group blocks at syncthreads — only \
                 0 of 1 warp groups can reach the rendezvous",
                true,
            ),
            (
                LintKind::SharedMemRace {
                    data: BarId(0),
                    name: b(),
                    guard: BarId(1),
                    role: Role::Producer,
                    generation: 0,
                    write: true,
                },
                "error[shared-mem-race]: producer warp group overwrites the tile slot of bar0 (b) \
                 in parity 0 without consuming a release on bar1 — a prior read may still be in \
                 flight",
                false,
            ),
            (
                LintKind::DoubleArrive {
                    bar: BarId(0),
                    name: b(),
                    residue: 1,
                },
                "warning[double-arrive]: bar0 (b) exits with 1 stranded arrival(s) mid-phase — \
                 double-arrive on a phase or a missing wait",
                false,
            ),
            (
                LintKind::DeadBarrier {
                    bar: BarId(0),
                    name: b(),
                },
                "warning[dead-barrier]: bar0 (b) is never waited on or signalled",
                false,
            ),
            (
                LintKind::UnawaitedBarrier {
                    bar: BarId(0),
                    name: b(),
                },
                "warning[unawaited-barrier]: bar0 (b) is signalled but never waited on",
                false,
            ),
            (
                LintKind::SmemOverflow {
                    max_in_flight: 1,
                    smem_bytes: 0,
                },
                "warning[smem-overflow]: deepest in-flight pipeline stage holds 1 bytes but only \
                 0 bytes of shared memory are declared",
                false,
            ),
            (
                LintKind::OversizedTma {
                    bytes: 1,
                    smem_bytes: 0,
                },
                "warning[oversized-tma]: TMA transfer of 1 bytes cannot fit the 0-byte shared \
                 memory staging buffer",
                false,
            ),
            (
                LintKind::AnalysisBudget {
                    class: 0,
                    budget: 1,
                },
                "warning[analysis-budget]: class 0: interpretation budget of 1 instructions \
                 exhausted before the protocol was proven",
                false,
            ),
            (
                LintKind::DeadCompute {
                    op: "tile.dot".into(),
                },
                "warning[dead-compute]: result of tile.dot is never consumed by a store or \
                 epilogue — dead compute",
                false,
            ),
            (
                LintKind::SingleBufferedPipeline {
                    slot_bytes: 1,
                    admissible: 2,
                },
                "warning[single-buffered-pipeline]: aref ring is single-buffered (1-byte slot) \
                 but shared memory admits depth 2 — producer and consumer serialize on one slot",
                false,
            ),
            (
                LintKind::OverSynchronized {
                    bar: BarId(0),
                    name: b(),
                },
                "warning[over-synchronized]: bar0 (b) orders no tile access — the barrier edge \
                 only serializes warp groups",
                false,
            ),
            (
                LintKind::UnbalancedStages {
                    producer_cycles: 2,
                    consumer_cycles: 1,
                    window: 1.5,
                },
                "warning[unbalanced-stages]: producer stage costs 2 cycles/iteration against the \
                 consumer's 1 — outside the 1.5x overlap window, no ring depth hides the loads",
                false,
            ),
            (
                LintKind::OccupancyCapped {
                    occupancy: 1,
                    saturation: 2,
                    limiter: "smem".into(),
                },
                "warning[occupancy-capped]: occupancy capped at 1 CTA/SM by smem — 2 CTA/SM \
                 needed to saturate the tensor cores",
                false,
            ),
            (
                LintKind::UninitializedTileRead { slot: "v0".into() },
                "warning[uninitialized-tile-read]: aref slot v0 is read before any TMA or \
                 compute write reaches it",
                false,
            ),
        ];
        for (kind, text, deadlock) in &exemplars {
            let lint = Lint::new(kind.clone());
            assert_eq!(lint.to_string(), *text);
            assert_eq!(lint.is_definite_deadlock(), *deadlock, "{text}");
        }
        // The second branch of the race message.
        let read = LintKind::SharedMemRace {
            data: BarId(0),
            name: b(),
            guard: BarId(1),
            role: Role::Consumer,
            generation: 2,
            write: false,
        };
        assert_eq!(
            read.to_string(),
            "consumer warp group releases the tile slot of bar0 (b) via bar1 in parity 2 \
             without having waited for the write — the read is unordered against the producer"
        );
        let ids: Vec<&str> = exemplars.iter().map(|(kind, ..)| kind.id()).collect();
        assert_eq!(
            ids, ALL_LINT_IDS,
            "ALL_LINT_IDS must track LintKind declaration order"
        );
        let mut unique = ALL_LINT_IDS.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ALL_LINT_IDS.len(), "duplicate lint id");
        for id in ALL_LINT_IDS {
            assert!(
                !id.is_empty()
                    && id.chars().all(|c| c.is_ascii_lowercase() || c == '-')
                    && !id.starts_with('-')
                    && !id.ends_with('-'),
                "{id} is not kebab-case"
            );
        }
    }

    #[test]
    fn accepts_valid_kernel() {
        let mut k = skeleton();
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier_init("empty", 1, 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(
                8,
                vec![
                    Instr::MbarWait { bar: empty },
                    Instr::TmaLoad {
                        bytes: 32768,
                        bar: full,
                    },
                ],
            )],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_const(
                8,
                vec![
                    Instr::MbarWait { bar: full },
                    Instr::WgmmaIssue {
                        m: 64,
                        n: 128,
                        k: 64,
                        dtype: MmaDtype::F16,
                    },
                    Instr::WgmmaWait { pending: 0 },
                    Instr::MbarArrive { bar: empty },
                ],
            )],
        );
        assert!(validate(&k).is_ok());
        let lints = analyze(&k);
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn rejects_unsignalled_barrier() {
        let mut k = skeleton();
        let b = k.add_barrier("full", 1);
        k.add_warp_group(Role::Consumer, 240, vec![Instr::MbarWait { bar: b }]);
        let errs = validate(&k).unwrap_err();
        let lint = errs
            .iter()
            .find(|e| matches!(e.kind, LintKind::WaitNeverSignalled { .. }))
            .unwrap_or_else(|| panic!("{errs:?}"));
        assert!(lint.to_string().contains("deadlock"), "{lint}");
        assert_eq!(
            lint.path,
            Some(InstrPath {
                wg: 0,
                indices: vec![0]
            })
        );
        assert!(lint.is_definite_deadlock());
        // The full analysis short-circuits on structural errors but still
        // produces a deadlock verdict.
        assert!(deadlock_verdict(&analyze(&k)).is_some());
    }

    #[test]
    fn unsignalled_waits_are_reported_in_barrier_order() {
        let mut k = skeleton();
        let bars: Vec<BarId> = (0..6).map(|i| k.add_barrier(&format!("b{i}"), 1)).collect();
        let waits = bars.iter().rev().map(|&bar| Instr::MbarWait { bar });
        k.add_warp_group(Role::Consumer, 240, waits.collect());
        for _ in 0..2 {
            let lints = analyze(&k);
            let order: Vec<BarId> = (lints.iter())
                .filter_map(|l| match l.kind {
                    LintKind::WaitNeverSignalled { bar, .. } => Some(bar),
                    _ => None,
                })
                .collect();
            assert_eq!(order, bars);
            let verdict = deadlock_verdict(&lints).unwrap();
            assert!(
                verdict.starts_with("static deadlock: bar0 (b0) is waited on"),
                "{verdict}"
            );
            assert!(verdict.ends_with("(+5 more)"), "{verdict}");
        }
    }

    #[test]
    fn rejects_out_of_range_barrier() {
        let mut k = skeleton();
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::TmaLoad {
                bytes: 1024,
                bar: BarId(7),
            }],
        );
        let errs = validate(&k).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e.kind, LintKind::BarOutOfRange { bar: BarId(7) })),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.to_string().contains("out of range")));
    }

    #[test]
    fn rejects_bad_loop_param() {
        let mut k = Kernel::new("t");
        k.classes = vec![CtaClass {
            params: vec![4],
            multiplicity: 2,
        }];
        k.add_warp_group(
            Role::Uniform,
            128,
            vec![Instr::Loop {
                count: Count::Param(3),
                body: vec![Instr::Syncthreads],
            }],
        );
        let errs = validate(&k).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| matches!(e.kind, LintKind::LoopParamOutOfRange { param: 3, max: 1 })),
            "{errs:?}"
        );
        assert!(errs
            .iter()
            .any(|e| e.to_string().contains("exceeds class params")));
    }

    #[test]
    fn rejects_empty_kernel_and_grid() {
        let k = Kernel::new("t");
        let errs = validate(&k).unwrap_err();
        assert!(errs.iter().any(|e| e.kind == LintKind::NoWarpGroups));
        assert!(errs.iter().any(|e| e.kind == LintKind::NoCtaClasses));
    }

    #[test]
    fn rejects_degenerate_wgmma_and_empty_loops() {
        let mut k = skeleton();
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::WgmmaIssue {
                    m: 0,
                    n: 64,
                    k: 16,
                    dtype: MmaDtype::F16,
                },
                Instr::loop_const(4, vec![]),
            ],
        );
        let errs = validate(&k).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e.kind, LintKind::DegenerateWgmma { .. })));
        let empty = errs
            .iter()
            .find(|e| e.kind == LintKind::EmptyLoopBody)
            .unwrap_or_else(|| panic!("{errs:?}"));
        // The path points at the loop instruction itself.
        assert_eq!(empty.path.as_ref().unwrap().indices, vec![1]);
    }

    #[test]
    fn lint_display_is_structured() {
        let mut k = skeleton();
        let b = k.add_barrier("full", 1);
        k.set_bar_loc(
            b,
            SrcLoc {
                file: "kernel.rs",
                line: 42,
                col: 7,
            },
        );
        k.add_warp_group(Role::Consumer, 240, vec![Instr::MbarWait { bar: b }]);
        let errs = validate(&k).unwrap_err();
        let msg = errs
            .iter()
            .find(|e| e.id() == "wait-never-signalled")
            .unwrap()
            .to_string();
        assert!(
            msg.starts_with("error[wait-never-signalled]:"),
            "unexpected rendering: {msg}"
        );
        assert!(msg.contains("kernel.rs:42:7"), "loc missing: {msg}");
    }
}
