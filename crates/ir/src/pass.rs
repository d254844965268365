//! Pass framework: a [`Pass`] trait and a [`PassManager`] that runs passes
//! in sequence, optionally verifying the IR between passes and recording
//! per-pass statistics (as the paper's compiler does on top of Triton's
//! pass infrastructure).
//!
//! Failures are reported as structured [`Diagnostic`]s rather than bare
//! strings. **Change detection is the pass's job**: [`Pass::run`] returns
//! whether it changed the module, and the manager takes that answer for
//! [`PassStat::changed`], skips verification after a pass that left the
//! module untouched, and ends an [`PassManager::add_fixpoint`] group at
//! the first round in which no pass changed anything (e.g. const-fold +
//! DCE to fixpoint). A release build never prints or hashes the module
//! here. A debug build — every `cargo test` — also fingerprints the
//! module around each pass
//! ([`crate::fingerprint::module_fingerprint`]) and panics when the
//! fingerprint moved under a pass that said "unchanged", so the test
//! suite polices every pass, custom ones included. Verification after
//! every changed pass is the default in every build: passes keep their
//! side tables over arena ids in id-indexed `Vec`s rather than hash maps,
//! and the verifier does too, which is what keeps that affordable.

use std::fmt;
use std::time::Instant;

use crate::diag::Diagnostic;
use crate::func::Module;
use crate::verify::{verify_module, VerifyError};

/// Default iteration cap for fixpoint groups: cleanup pipelines converge in
/// two or three rounds; anything past this indicates an oscillating pass.
pub const DEFAULT_FIXPOINT_ITERS: usize = 8;

/// Error produced when running a pass pipeline.
#[derive(Debug, Clone)]
pub enum PassError {
    /// The pass itself failed with a structured diagnostic.
    Failed {
        /// Pass name.
        pass: String,
        /// The failure diagnostic (boxed: diagnostics carry pass/func
        /// names and a source span, and errors should stay pointer-sized
        /// on the `Result` hot path).
        diagnostic: Box<Diagnostic>,
    },
    /// Verification failed after the named pass.
    VerifyFailed {
        /// Pass name after which verification failed.
        pass: String,
        /// Verifier diagnostics.
        errors: Vec<VerifyError>,
    },
}

impl PassError {
    /// Name of the pass the pipeline stopped at.
    pub fn pass(&self) -> &str {
        match self {
            PassError::Failed { pass, .. } | PassError::VerifyFailed { pass, .. } => pass,
        }
    }

    /// All diagnostics carried by the error, converting verifier errors to
    /// [`Diagnostic`]s so callers handle one shape.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            PassError::Failed { diagnostic, .. } => vec![(**diagnostic).clone()],
            PassError::VerifyFailed { pass, errors } => errors
                .iter()
                .map(|e| {
                    let mut d = Diagnostic::error(e.msg.clone())
                        .with_pass(pass.clone())
                        .with_func(e.func.clone())
                        .with_default_loc(e.loc);
                    d.op = e.op;
                    d
                })
                .collect(),
        }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Failed { pass, diagnostic } => {
                write!(f, "pass {pass} failed: {diagnostic}")
            }
            PassError::VerifyFailed { pass, errors } => {
                writeln!(f, "IR invalid after pass {pass}:")?;
                for e in errors {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PassError {}

/// A module-level transformation.
pub trait Pass {
    /// Stable pass name for diagnostics and statistics.
    fn name(&self) -> &str;

    /// Runs the transformation on `module` and returns whether it changed
    /// it — `true` iff the module would now print differently.
    ///
    /// Report precisely. Saying `true` for an untouched module is safe
    /// but costs a re-verification and, inside a fixpoint group, another
    /// round; saying `false` after a mutation is a bug — the manager would
    /// skip verification and stop a fixpoint early — which debug builds
    /// catch by panicking.
    ///
    /// # Errors
    /// Returns a [`Diagnostic`] if the pass cannot be applied (precondition
    /// violations, unsupported constructs). The manager attributes the
    /// diagnostic to the pass if the pass did not do so itself.
    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic>;
}

/// Timing/result record for one executed pass.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name.
    pub name: String,
    /// Wall-clock duration.
    pub micros: u128,
    /// Whether the pass changed the module, as reported by the pass
    /// (`false` for a pass that failed); cross-checked against the
    /// fingerprint in debug builds.
    pub changed: bool,
}

/// One pipeline entry: a single pass or a fixpoint group.
enum Item {
    Single(Box<dyn Pass>),
    Fixpoint {
        passes: Vec<Box<dyn Pass>>,
        max_iters: usize,
    },
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Single(p) => write!(f, "{}", p.name()),
            Item::Fixpoint { passes, max_iters } => write!(
                f,
                "fixpoint[{max_iters}]({})",
                passes
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }
}

/// Runs a sequence of passes with optional inter-pass verification.
pub struct PassManager {
    items: Vec<Item>,
    verify_each: bool,
    stats: Vec<PassStat>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("items", &self.items)
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates an empty pipeline with inter-pass verification enabled.
    pub fn new() -> PassManager {
        PassManager {
            items: Vec::new(),
            verify_each: true,
            stats: Vec::new(),
        }
    }

    /// Adds a pass to the end of the pipeline.
    pub fn add(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.items.push(Item::Single(pass));
        self
    }

    /// Adds a group of passes iterated until the module stops changing
    /// (bounded by `max_iters` rounds).
    pub fn add_fixpoint(&mut self, passes: Vec<Box<dyn Pass>>, max_iters: usize) -> &mut Self {
        self.items.push(Item::Fixpoint {
            passes,
            max_iters: max_iters.max(1),
        });
        self
    }

    /// Enables/disables verification after each pass.
    pub fn verify_each(&mut self, yes: bool) -> &mut Self {
        self.verify_each = yes;
        self
    }

    /// Runs the pipeline over `module`.
    ///
    /// A pass that reports the module unchanged is recorded as
    /// `changed = false` and skips re-verification; a fixpoint group ends
    /// after the first round in which every pass reported so.
    /// [`PassManager::stats`] reflects every pass that actually ran —
    /// including, on failure, the failing pass itself.
    ///
    /// # Errors
    /// Stops at the first failing pass or failed verification.
    ///
    /// # Panics
    /// In debug builds, when a pass reports the module unchanged and its
    /// fingerprint moved.
    pub fn run(&mut self, module: &mut Module) -> Result<(), PassError> {
        self.stats.clear();
        for item in &self.items {
            match item {
                Item::Single(pass) => {
                    run_one(pass.as_ref(), module, self.verify_each, &mut self.stats)?;
                }
                Item::Fixpoint { passes, max_iters } => {
                    for _round in 0..*max_iters {
                        let mut changed = false;
                        for pass in passes {
                            changed |=
                                run_one(pass.as_ref(), module, self.verify_each, &mut self.stats)?;
                        }
                        if !changed {
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-pass statistics from the last [`PassManager::run`]. Fixpoint
    /// groups contribute one entry per pass per executed round.
    pub fn stats(&self) -> &[PassStat] {
        &self.stats
    }
}

/// Runs one pass, records its stat (even on failure), verifies if the
/// pass changed the module, and returns whether it did.
fn run_one(
    pass: &dyn Pass,
    module: &mut Module,
    verify: bool,
    stats: &mut Vec<PassStat>,
) -> Result<bool, PassError> {
    let name = pass.name().to_string();
    #[cfg(debug_assertions)]
    let fp_before = crate::fingerprint::module_fingerprint(module);
    let start = Instant::now();
    let result = pass.run(module);
    let micros = start.elapsed().as_micros();
    let changed = matches!(result, Ok(true));
    #[cfg(debug_assertions)]
    assert!(
        result.is_err() || changed || crate::fingerprint::module_fingerprint(module) == fp_before,
        "pass `{name}` reported the module unchanged, but its fingerprint moved"
    );
    stats.push(PassStat {
        name: name.clone(),
        micros,
        changed,
    });
    result.map_err(|diagnostic| {
        // Back-fill the source location from the op the pass blamed, so
        // pass failures point at the author's kernel line when the
        // frontend recorded one.
        let loc = match (diagnostic.loc, diagnostic.op) {
            (None, Some(op)) => diagnostic
                .func
                .as_deref()
                .and_then(|name| module.func(name))
                .or_else(|| module.funcs.first())
                .and_then(|f| f.loc(op)),
            _ => None,
        };
        PassError::Failed {
            pass: name.clone(),
            diagnostic: Box::new(diagnostic.with_default_pass(&name).with_default_loc(loc)),
        }
    })?;
    if verify && changed {
        if let Err(errors) = verify_module(module) {
            return Err(PassError::VerifyFailed { pass: name, errors });
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Attr;
    use crate::parse::parse_module;

    /// A module holding one empty function `@f`.
    fn empty_module() -> Module {
        parse_module("module { func @f() { } }").unwrap()
    }

    struct TagPass(&'static str);

    impl Pass for TagPass {
        fn name(&self) -> &str {
            self.0
        }

        fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
            let changed = module.attrs.bool(self.0) != Some(true);
            module.attrs.set(self.0, Attr::Bool(true));
            Ok(changed)
        }
    }

    struct NopPass;

    impl Pass for NopPass {
        fn name(&self) -> &str {
            "nop"
        }

        fn run(&self, _m: &mut Module) -> Result<bool, Diagnostic> {
            Ok(false)
        }
    }

    struct FailPass;

    impl Pass for FailPass {
        fn name(&self) -> &str {
            "fail"
        }

        fn run(&self, _m: &mut Module) -> Result<bool, Diagnostic> {
            Err(Diagnostic::error("nope"))
        }
    }

    struct CorruptPass;

    impl Pass for CorruptPass {
        fn name(&self) -> &str {
            "corrupt"
        }

        fn run(&self, m: &mut Module) -> Result<bool, Diagnostic> {
            // Introduce a const_int without its required value attr.
            let f = &mut m.funcs[0];
            let b = f.body_block();
            f.push_op(
                b,
                crate::op::OpKind::ConstInt,
                vec![],
                vec![crate::types::Type::i32()],
                crate::op::AttrMap::new(),
            );
            Ok(true)
        }
    }

    /// Bumps a counter attribute until it reaches `target`, then goes
    /// quiescent — exercises fixpoint detection.
    struct CountTo(i64);

    impl Pass for CountTo {
        fn name(&self) -> &str {
            "count-to"
        }

        fn run(&self, m: &mut Module) -> Result<bool, Diagnostic> {
            let cur = m.attrs.int("count").unwrap_or(0);
            if cur < self.0 {
                m.attrs.set("count", Attr::Int(cur + 1));
            }
            Ok(cur < self.0)
        }
    }

    #[test]
    fn runs_passes_in_order_with_stats() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(TagPass("a"))).add(Box::new(TagPass("b")));
        pm.run(&mut m).unwrap();
        assert_eq!(m.attrs.bool("a"), Some(true));
        assert_eq!(m.attrs.bool("b"), Some(true));
        assert_eq!(pm.stats().len(), 2);
        assert_eq!(pm.stats()[0].name, "a");
        assert!(pm.stats().iter().all(|s| s.changed));
    }

    #[test]
    fn stops_on_failure_but_keeps_stats() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(TagPass("before")))
            .add(Box::new(FailPass))
            .add(Box::new(TagPass("after")));
        let err = pm.run(&mut m).unwrap_err();
        assert!(matches!(err, PassError::Failed { .. }));
        assert_eq!(m.attrs.bool("after"), None);
        // The failing pass and everything before it are visible in stats.
        let names: Vec<&str> = pm.stats().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["before", "fail"]);
        assert!(!pm.stats()[1].changed, "FailPass mutated nothing");
    }

    #[test]
    fn failure_diagnostic_is_attributed() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(FailPass));
        let err = pm.run(&mut m).unwrap_err();
        assert_eq!(err.pass(), "fail");
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass.as_deref(), Some("fail"));
        assert_eq!(diags[0].message, "nope");
    }

    #[test]
    fn verification_catches_corruption() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(CorruptPass));
        let err = pm.run(&mut m).unwrap_err();
        assert!(matches!(err, PassError::VerifyFailed { .. }), "{err}");
    }

    #[test]
    fn verification_can_be_disabled() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(CorruptPass)).verify_each(false);
        assert!(pm.run(&mut m).is_ok());
    }

    #[test]
    fn unchanged_module_skips_verification() {
        // Corrupt the module first with verification off; a no-op pass run
        // afterwards must not re-verify (the fingerprint did not move), so
        // the pre-existing corruption goes unnoticed — by design.
        let mut m = empty_module();
        let mut pm0 = PassManager::new();
        pm0.add(Box::new(CorruptPass)).verify_each(false);
        pm0.run(&mut m).unwrap();

        let mut pm = PassManager::new();
        pm.add(Box::new(NopPass)); // verify_each defaults to true
        pm.run(&mut m)
            .expect("nop over unchanged module skips verify");
        assert!(!pm.stats()[0].changed);

        // A pass that does change the module re-triggers verification and
        // finds the corruption.
        let mut pm2 = PassManager::new();
        pm2.add(Box::new(TagPass("touch")));
        let err = pm2.run(&mut m).unwrap_err();
        assert!(matches!(err, PassError::VerifyFailed { .. }));
    }

    #[test]
    fn fixpoint_iterates_until_stable() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add_fixpoint(vec![Box::new(CountTo(3))], DEFAULT_FIXPOINT_ITERS);
        pm.run(&mut m).unwrap();
        assert_eq!(m.attrs.int("count"), Some(3));
        // 3 changing rounds + 1 quiescent round to observe the fixpoint.
        assert_eq!(pm.stats().len(), 4);
        assert!(!pm.stats().last().unwrap().changed);
    }

    #[test]
    fn fixpoint_respects_iteration_cap() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add_fixpoint(vec![Box::new(CountTo(100))], 2);
        pm.run(&mut m).unwrap();
        assert_eq!(m.attrs.int("count"), Some(2), "capped at 2 rounds");
    }

    /// Mutates the module and reports it unchanged.
    struct LyingPass;

    impl Pass for LyingPass {
        fn name(&self) -> &str {
            "liar"
        }

        fn run(&self, m: &mut Module) -> Result<bool, Diagnostic> {
            m.attrs.set("touched", Attr::Bool(true));
            Ok(false)
        }
    }

    /// Touches nothing and reports a change every time.
    struct CryWolf;

    impl Pass for CryWolf {
        fn name(&self) -> &str {
            "cry-wolf"
        }

        fn run(&self, _m: &mut Module) -> Result<bool, Diagnostic> {
            Ok(true)
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pass `liar` reported the module unchanged")]
    fn under_reporting_pass_trips_the_debug_cross_check() {
        let mut m = empty_module();
        let mut pm = PassManager::new();
        pm.add(Box::new(LyingPass));
        let _ = pm.run(&mut m);
    }

    #[test]
    fn over_reporting_pass_stops_at_the_iteration_cap() {
        let mut m = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 1} : i32
             } }",
        )
        .unwrap();
        let before = crate::print::print_module(&m);
        let mut pm = PassManager::new();
        pm.add_fixpoint(vec![Box::new(CryWolf), Box::new(NopPass)], 3);
        pm.run(&mut m).unwrap();
        // Over-reporting is safe, only slow: every round runs (and
        // re-verifies), none is cut short, the module is intact.
        let changed: Vec<bool> = pm.stats().iter().map(|s| s.changed).collect();
        assert_eq!(changed, [true, false, true, false, true, false]);
        assert_eq!(crate::print::print_module(&m), before);
    }
}
