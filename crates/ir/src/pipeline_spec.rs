//! Declarative pass pipelines: a textual [`PipelineSpec`] and the
//! [`PassRegistry`] that instantiates it.
//!
//! The Tawa compile flow (cleanup → task partitioning → multi-granularity
//! pipelining) is described as data instead of hardcoded `PassManager`
//! chains, so drivers, tests and tools can construct, print and compare
//! pipelines. The syntax is a comma-separated stage list:
//!
//! ```text
//! fixpoint(const-fold,dce),warp-specialize{depth=2},
//!     fine-grained-pipeline{depth=2},coarse-pipeline,dce
//! ```
//!
//! * `name` — a pass registered in the [`PassRegistry`];
//! * `name{key=value,...}` — a pass with options (integers, booleans or
//!   bare strings, carried as an [`AttrMap`]);
//! * `fixpoint(stage,...)` — iterate the inner stages until the module
//!   fingerprint stops changing (bounded by
//!   [`crate::pass::DEFAULT_FIXPOINT_ITERS`] rounds).
//!
//! `parse → to_string → parse` round-trips; property-tested in the crate's
//! test suite.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::diag::Diagnostic;
use crate::op::{Attr, AttrMap};
use crate::pass::{Pass, PassManager, DEFAULT_FIXPOINT_ITERS};
use crate::transforms::{ConstFold, Dce};

/// Factory producing a pass from its option map.
pub type PassFactory = Box<dyn Fn(&AttrMap) -> Result<Box<dyn Pass>, Diagnostic> + Send + Sync>;

/// Name → factory table used to instantiate [`PipelineSpec`]s.
///
/// The IR crate registers its generic cleanup passes via
/// [`PassRegistry::with_builtins`]; downstream crates (the Tawa compiler in
/// `tawa-core`) register their domain passes on top.
#[derive(Default)]
pub struct PassRegistry {
    factories: BTreeMap<String, PassFactory>,
}

impl fmt::Debug for PassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassRegistry")
            .field("passes", &self.names())
            .finish()
    }
}

impl PassRegistry {
    /// An empty registry.
    pub fn new() -> PassRegistry {
        PassRegistry::default()
    }

    /// A registry pre-populated with the generic cleanup passes
    /// (`const-fold`, `dce`).
    pub fn with_builtins() -> PassRegistry {
        let mut r = PassRegistry::new();
        r.register("const-fold", |_| Ok(Box::new(ConstFold)));
        r.register("dce", |_| Ok(Box::new(Dce)));
        r
    }

    /// Registers (or replaces) a pass factory under `name`.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&AttrMap) -> Result<Box<dyn Pass>, Diagnostic> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Box::new(factory));
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered pass names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Instantiates the pass `name` with `options`.
    ///
    /// # Errors
    /// Unknown names and factory failures (bad options) are reported as
    /// diagnostics.
    pub fn create(&self, name: &str, options: &AttrMap) -> Result<Box<dyn Pass>, Diagnostic> {
        let factory = self.factories.get(name).ok_or_else(|| {
            Diagnostic::error(format!(
                "unknown pass '{name}' (registered: {})",
                self.names().join(", ")
            ))
        })?;
        factory(options).map_err(|d| d.with_default_pass(name))
    }
}

/// One stage of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum StageSpec {
    /// A single named pass with options.
    Pass {
        /// Registered pass name.
        name: String,
        /// Options forwarded to the pass factory.
        options: AttrMap,
    },
    /// Inner stages iterated until the module fingerprint stabilises.
    Fixpoint {
        /// Stages run on every round (must be plain passes; fixpoints do
        /// not nest).
        stages: Vec<StageSpec>,
    },
}

/// A declarative description of a pass pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineSpec {
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl PipelineSpec {
    /// An empty pipeline (valid: runs nothing).
    pub fn new() -> PipelineSpec {
        PipelineSpec::default()
    }

    /// Appends a plain pass stage.
    #[must_use]
    pub fn then(mut self, name: &str) -> PipelineSpec {
        self.stages.push(StageSpec::Pass {
            name: name.to_string(),
            options: AttrMap::new(),
        });
        self
    }

    /// Appends a pass stage with options.
    #[must_use]
    pub fn then_with(mut self, name: &str, options: AttrMap) -> PipelineSpec {
        self.stages.push(StageSpec::Pass {
            name: name.to_string(),
            options,
        });
        self
    }

    /// Appends a fixpoint group over the named passes (no options).
    #[must_use]
    pub fn then_fixpoint(mut self, names: &[&str]) -> PipelineSpec {
        self.stages.push(StageSpec::Fixpoint {
            stages: names
                .iter()
                .map(|n| StageSpec::Pass {
                    name: n.to_string(),
                    options: AttrMap::new(),
                })
                .collect(),
        });
        self
    }

    /// Parses the textual pipeline syntax (see module docs).
    ///
    /// # Errors
    /// Reports malformed syntax, unbalanced delimiters and nested
    /// `fixpoint` groups as diagnostics.
    pub fn parse(text: &str) -> Result<PipelineSpec, Diagnostic> {
        let stages = split_top_level(text)?
            .into_iter()
            .map(parse_stage)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PipelineSpec { stages })
    }

    /// Builds a runnable [`PassManager`] by resolving every stage against
    /// `registry`.
    ///
    /// # Errors
    /// Unknown pass names and factory failures are reported as diagnostics.
    pub fn build(&self, registry: &PassRegistry) -> Result<PassManager, Diagnostic> {
        let mut pm = PassManager::new();
        for stage in &self.stages {
            match stage {
                StageSpec::Pass { name, options } => {
                    pm.add(registry.create(name, options)?);
                }
                StageSpec::Fixpoint { stages } => {
                    let mut passes = Vec::new();
                    for inner in stages {
                        match inner {
                            StageSpec::Pass { name, options } => {
                                passes.push(registry.create(name, options)?);
                            }
                            StageSpec::Fixpoint { .. } => {
                                return Err(Diagnostic::error(
                                    "fixpoint groups do not nest".to_string(),
                                ));
                            }
                        }
                    }
                    pm.add_fixpoint(passes, DEFAULT_FIXPOINT_ITERS);
                }
            }
        }
        Ok(pm)
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in &self.stages {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            fmt_stage(stage, f)?;
        }
        Ok(())
    }
}

impl FromStr for PipelineSpec {
    type Err = Diagnostic;

    fn from_str(s: &str) -> Result<PipelineSpec, Diagnostic> {
        PipelineSpec::parse(s)
    }
}

fn fmt_stage(stage: &StageSpec, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match stage {
        StageSpec::Pass { name, options } => {
            write!(f, "{name}")?;
            if !options.is_empty() {
                write!(f, "{{")?;
                for (i, (key, value)) in options.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    match value {
                        Attr::Int(v) => write!(f, "{key}={v}")?,
                        Attr::Bool(v) => write!(f, "{key}={v}")?,
                        Attr::Str(v) => write!(f, "{key}={v}")?,
                        Attr::Float(v) => write!(f, "{key}={v}")?,
                        Attr::Ints(_) => write!(f, "{key}=<ints>")?,
                    }
                }
                write!(f, "}}")?;
            }
            Ok(())
        }
        StageSpec::Fixpoint { stages } => {
            write!(f, "fixpoint(")?;
            for (i, inner) in stages.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                fmt_stage(inner, f)?;
            }
            write!(f, ")")
        }
    }
}

/// Splits `text` on commas that are not nested inside `(...)` or `{...}`.
fn split_top_level(text: &str) -> Result<Vec<String>, Diagnostic> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' | '{' => {
                depth += 1;
                current.push(c);
            }
            ')' | '}' => {
                depth -= 1;
                if depth < 0 {
                    return Err(Diagnostic::error(format!(
                        "unbalanced '{c}' in pipeline spec '{text}'"
                    )));
                }
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if depth != 0 {
        return Err(Diagnostic::error(format!(
            "unbalanced delimiters in pipeline spec '{text}'"
        )));
    }
    if !current.trim().is_empty() || !parts.is_empty() {
        parts.push(current);
    }
    Ok(parts
        .into_iter()
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect())
}

fn parse_stage(text: String) -> Result<StageSpec, Diagnostic> {
    let text = text.trim();
    // Only `fixpoint(...)` is the group syntax; a registered pass may
    // legitimately be named e.g. `fixpoint-cleanup`.
    if let Some(rest) = text
        .strip_prefix("fixpoint")
        .map(str::trim)
        .filter(|r| r.starts_with('('))
    {
        let inner = rest
            .strip_prefix('(')
            .and_then(|r| r.strip_suffix(')'))
            .ok_or_else(|| {
                Diagnostic::error(format!("malformed fixpoint stage '{text}': expected (...)"))
            })?;
        let stages = split_top_level(inner)?
            .into_iter()
            .map(parse_stage)
            .collect::<Result<Vec<_>, _>>()?;
        if stages.is_empty() {
            return Err(Diagnostic::error("empty fixpoint group".to_string()));
        }
        if stages
            .iter()
            .any(|s| matches!(s, StageSpec::Fixpoint { .. }))
        {
            return Err(Diagnostic::error("fixpoint groups do not nest".to_string()));
        }
        return Ok(StageSpec::Fixpoint { stages });
    }
    let (name, options) = match text.find('{') {
        None => (text, AttrMap::new()),
        Some(brace) => {
            let opts_text = text[brace..]
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| Diagnostic::error(format!("malformed options in stage '{text}'")))?;
            (&text[..brace], parse_options(opts_text)?)
        }
    };
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(Diagnostic::error(format!("invalid pass name '{name}'")));
    }
    Ok(StageSpec::Pass {
        name: name.to_string(),
        options,
    })
}

fn parse_options(text: &str) -> Result<AttrMap, Diagnostic> {
    let mut map = AttrMap::new();
    for pair in text.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            Diagnostic::error(format!("option '{pair}' is not of the form key=value"))
        })?;
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            return Err(Diagnostic::error(format!("empty key or value in '{pair}'")));
        }
        let attr = if let Ok(i) = value.parse::<i64>() {
            Attr::Int(i)
        } else if value == "true" {
            Attr::Bool(true)
        } else if value == "false" {
            Attr::Bool(false)
        } else {
            Attr::Str(value.to_string())
        };
        map.set(key, attr);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn registry() -> PassRegistry {
        PassRegistry::with_builtins()
    }

    #[test]
    fn parse_simple_chain() {
        let spec = PipelineSpec::parse("const-fold,dce").unwrap();
        assert_eq!(spec.stages.len(), 2);
        assert_eq!(spec.to_string(), "const-fold,dce");
    }

    #[test]
    fn parse_options_and_fixpoint_round_trip() {
        let text = "fixpoint(const-fold,dce),warp-specialize{depth=2},dce";
        let spec = PipelineSpec::parse(text).unwrap();
        assert_eq!(spec.to_string(), text);
        let reparsed = PipelineSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PipelineSpec::parse("const-fold,(dce").is_err());
        assert!(PipelineSpec::parse("fixpoint(fixpoint(dce))").is_err());
        assert!(PipelineSpec::parse("fixpoint()").is_err());
        assert!(PipelineSpec::parse("d c e").is_err());
        assert!(PipelineSpec::parse("dce{depth}").is_err());
    }

    #[test]
    fn fixpoint_prefixed_pass_names_are_plain_passes() {
        let spec = PipelineSpec::parse("fixpoint-cleanup{depth=1}").unwrap();
        assert_eq!(spec.stages.len(), 1);
        assert!(
            matches!(&spec.stages[0], StageSpec::Pass { name, .. } if name == "fixpoint-cleanup")
        );
        assert_eq!(spec.to_string(), "fixpoint-cleanup{depth=1}");
    }

    #[test]
    fn builder_helpers_match_parse() {
        let built = PipelineSpec::new()
            .then_fixpoint(&["const-fold", "dce"])
            .then("dce");
        let parsed = PipelineSpec::parse("fixpoint(const-fold,dce),dce").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn unknown_pass_is_reported() {
        let spec = PipelineSpec::parse("not-a-pass").unwrap();
        let err = spec.build(&registry()).unwrap_err();
        assert!(err.message.contains("unknown pass"), "{err}");
        assert!(err.message.contains("const-fold"), "{err}");
    }

    #[test]
    fn built_pipeline_runs_cleanup_to_fixpoint() {
        // Two rounds of folding are needed: (6*7) feeds an add, whose fold
        // exposes further dead code for DCE.
        let mut module = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 6} : i32
               %1 = arith.const_int() {value = 7} : i32
               %2 = arith.mul(%0, %1) : i32
               %3 = arith.const_int() {value = 1} : i32
               %4 = arith.add(%2, %3) : i32
             } }",
        )
        .unwrap();

        let spec = PipelineSpec::parse("fixpoint(const-fold,dce)").unwrap();
        let mut pm = spec.build(&registry()).unwrap();
        pm.run(&mut module).unwrap();
        assert_eq!(
            module.funcs[0].walk().len(),
            0,
            "everything folds away:\n{}",
            crate::print::print_module(&module)
        );
    }

    #[test]
    fn options_reach_the_factory() {
        struct DepthProbe(i64);
        impl crate::pass::Pass for DepthProbe {
            fn name(&self) -> &str {
                "depth-probe"
            }
            fn run(&self, m: &mut crate::func::Module) -> Result<bool, Diagnostic> {
                m.attrs.set("probed-depth", Attr::Int(self.0));
                Ok(true)
            }
        }
        let mut reg = registry();
        reg.register("depth-probe", |opts| {
            let depth = opts
                .int("depth")
                .ok_or_else(|| Diagnostic::error("depth-probe requires depth"))?;
            Ok(Box::new(DepthProbe(depth)))
        });
        let spec = PipelineSpec::parse("depth-probe{depth=5}").unwrap();
        let mut pm = spec.build(&reg).unwrap();
        let mut m = parse_module("module { func @f(%arg0: i32) { } }").unwrap();
        pm.run(&mut m).unwrap();
        assert_eq!(m.attrs.int("probed-depth"), Some(5));

        // Missing option surfaces the factory diagnostic.
        let bad = PipelineSpec::parse("depth-probe").unwrap();
        let err = bad.build(&reg).unwrap_err();
        assert!(err.message.contains("requires depth"), "{err}");
        assert_eq!(err.pass.as_deref(), Some("depth-probe"));
    }
}
