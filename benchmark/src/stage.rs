//! Stage-by-stage re-enactment of what a cold `compile_and_simulate`
//! does, through the library's public functions, with a span around each
//! layer. The traced run executes this next to every timed op and checks
//! that the staged kernel and report equal the session's, so the per-layer
//! breakdown describes the same program the end-to-end number timed.

use std::time::Instant;

use gpu_sim::{Device, SimReport};
use tawa_core::lower::{lower_simt, lower_ws};
use tawa_core::session::{tawa_pass_registry, CLEANUP_PIPELINE};
use tawa_core::{CompileError, CompileOptions, CompileSession};
use tawa_frontend::Program;
use tawa_ir::func::Module;
use tawa_ir::pipeline_spec::{PassRegistry, PipelineSpec};
use tawa_ir::spec::LaunchSpec;
use tawa_serve::Request;
use tawa_wsir::{Instr, Kernel};

use crate::trace::Recorder;
use crate::zoo::build_program;

/// Span names of the staged layers (the per-layer metrics are derived
/// from pools keyed by these).
pub mod span {
    /// The timed end-to-end op.
    pub const OP: &str = "op";
    /// Parent of one staged re-enactment.
    pub const STAGED: &str = "staged";
    /// DSL program construction.
    pub const DSL_BUILD: &str = "frontend.dsl_build";
    /// Module content fingerprint.
    pub const FINGERPRINT: &str = "ir.fingerprint";
    /// Pipeline text parse + pass-manager construction.
    pub const PIPELINE_SPEC: &str = "ir.pipeline_spec";
    /// `PassManager::run`; its self time is the fingerprinting and
    /// verification between passes.
    pub const PASS_MANAGER: &str = "ir.pass_manager";
    /// Warp-specialized lowering to WSIR.
    pub const LOWER_WS: &str = "core.lower.ws";
    /// SIMT (non-specialized) lowering to WSIR.
    pub const LOWER_SIMT: &str = "core.lower.simt";
    /// The static barrier-protocol gate.
    pub const ANALYZE: &str = "wsir.analyze";
    /// The discrete-event engine, as the session calls it.
    pub const SIMULATE: &str = "sim.engine.simulate";
    /// A report lookup served from the session's memory tier.
    pub const SIM_HIT: &str = "core.session.sim_hit";
    /// One `CompileSession::cache_stats` snapshot.
    pub const CACHE_STATS: &str = "core.session.cache_stats";
}

/// Span name of one pass: generic IR cleanups are `ir.pass.*`, the paper's
/// partitioning and pipelining passes `core.pass.*`.
fn pass_span_name(builtins: &PassRegistry, pass: &str) -> String {
    if builtins.contains(pass) {
        format!("ir.pass.{pass}")
    } else {
        format!("core.pass.{pass}")
    }
}

/// Number of live ops in a module.
pub fn module_ops(module: &Module) -> usize {
    module.funcs.iter().map(|f| f.walk().len()).sum()
}

/// Instructions one CTA executes: loop bodies counted once per trip, the
/// loop header itself not at all.
pub fn dynamic_instrs(body: &[Instr], params: &[u64]) -> u64 {
    body.iter()
        .map(|instr| match instr {
            Instr::Loop { count, body } => count.resolve(params) * dynamic_instrs(body, params),
            _ => 1,
        })
        .sum()
}

/// Instructions the engine executes for `kernel`: one engine run per CTA
/// class over `occupancy` resident copies of that class's CTA.
pub fn kernel_dynamic_instrs(kernel: &Kernel, occupancy: u32) -> u64 {
    kernel
        .classes
        .iter()
        .map(|class| {
            let per_cta: u64 = kernel
                .warp_groups
                .iter()
                .map(|wg| dynamic_instrs(&wg.body, &class.params))
                .sum();
            per_cta * u64::from(occupancy)
        })
        .sum()
}

/// Static WSIR instruction count of a kernel.
pub fn kernel_static_instrs(kernel: &Kernel) -> usize {
    kernel
        .warp_groups
        .iter()
        .map(|wg| Instr::static_len(&wg.body))
        .sum()
}

/// What one staged cold compile + simulate produced.
#[derive(Debug, Clone)]
pub struct Staged {
    /// The DSL program.
    pub program: Program,
    /// Live ops of the raw module.
    pub module_ops: usize,
    /// Live ops after the cleanup prefix.
    pub cleaned_ops: usize,
    /// The lowered kernel.
    pub kernel: Kernel,
    /// The simulation report.
    pub report: SimReport,
}

/// Runs the compiler and simulator layer by layer, recording spans.
pub struct Stager<'a> {
    /// The device compiled for.
    pub dev: &'a Device,
    /// The span recorder.
    pub rec: &'a mut Recorder,
    registry: PassRegistry,
    builtins: PassRegistry,
    cleanup: PipelineSpec,
}

impl<'a> Stager<'a> {
    /// A stager over the full Tawa pass registry.
    pub fn new(dev: &'a Device, rec: &'a mut Recorder) -> Stager<'a> {
        Stager {
            dev,
            rec,
            registry: tawa_pass_registry(),
            builtins: PassRegistry::with_builtins(),
            cleanup: PipelineSpec::parse(CLEANUP_PIPELINE).expect("cleanup pipeline parses"),
        }
    }

    /// Builds the DSL program of `shape`.
    pub fn build(&mut self, shape: &Request) -> Program {
        self.rec.span(span::DSL_BUILD, |_| build_program(shape))
    }

    /// The configuration-specific tail of the pipeline the session runs
    /// for `opts`: everything after the shared cleanup prefix.
    fn tail_spec(&mut self, opts: &CompileOptions) -> Result<PipelineSpec, CompileError> {
        let full = self
            .rec
            .span(span::PIPELINE_SPEC, |_| CompileSession::pipeline_spec(opts))
            .map_err(|d| CompileError::Unsupported(d.to_string()))?;
        let split = self.cleanup.stages.len().min(full.stages.len());
        Ok(PipelineSpec {
            stages: full.stages[split..].to_vec(),
        })
    }

    /// Runs the shared cleanup prefix over `module`.
    pub fn cleanup(&mut self, module: &mut Module) -> Result<(), CompileError> {
        let spec = self.cleanup.clone();
        self.run_passes(&spec, module)
    }

    /// Runs `spec` over `module`, with one child span per executed pass
    /// (durations as reported by `PassManager::stats`).
    fn run_passes(&mut self, spec: &PipelineSpec, module: &mut Module) -> Result<(), CompileError> {
        let registry = &self.registry;
        let mut pm = self
            .rec
            .span(span::PIPELINE_SPEC, |_| spec.build(registry))
            .map_err(|d| CompileError::Unsupported(d.to_string()))?;
        let id = self.rec.enter(span::PASS_MANAGER);
        let start = Instant::now();
        let result = pm.run(module);
        // The pass manager reports durations, not start times: lay the
        // passes out back to back from the start of the run. Their sum
        // never exceeds the run, so they nest inside the parent span.
        let mut cursor = start;
        for stat in pm.stats() {
            let dur = std::time::Duration::from_micros(stat.micros as u64);
            let name = pass_span_name(&self.builtins, &stat.name);
            self.rec.record(&name, cursor, dur.as_nanos() as u64);
            cursor += dur;
        }
        self.rec.exit(id);
        result.map_err(CompileError::Pass)
    }

    /// Lowers a transformed module to WSIR.
    pub fn lower(
        &mut self,
        module: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<Kernel, CompileError> {
        let dev = self.dev;
        if opts.warp_specialize {
            self.rec
                .span(span::LOWER_WS, |_| lower_ws(module, spec, opts, dev))
        } else {
            self.rec
                .span(span::LOWER_SIMT, |_| lower_simt(module, spec, opts, dev))
        }
    }

    /// The session's configuration-specific half of a cold compile: the
    /// pipeline tail over a copy of the cleaned module, then lowering.
    pub fn compile_tail(
        &mut self,
        cleaned: &Module,
        spec: &LaunchSpec,
        opts: &CompileOptions,
    ) -> Result<Kernel, CompileError> {
        if opts.warp_specialize && opts.mma_depth > opts.aref_depth {
            return Err(CompileError::Infeasible("P > D".to_string()));
        }
        let tail = self.tail_spec(opts)?;
        let mut module = cleaned.clone();
        self.run_passes(&tail, &mut module)?;
        self.lower(&module, spec, opts)
    }

    /// The static gate and the simulator, as the session runs them on a
    /// freshly compiled kernel.
    pub fn gate_and_simulate(&mut self, kernel: &Kernel) -> Result<SimReport, CompileError> {
        let dev = self.dev;
        let lints = self.rec.span(span::ANALYZE, |_| tawa_wsir::analyze(kernel));
        if let Some(verdict) = tawa_wsir::deadlock_verdict(&lints) {
            return Err(CompileError::Simulation(verdict));
        }
        self.rec
            .span(span::SIMULATE, |_| gpu_sim::simulate(kernel, dev))
            .map_err(|e| CompileError::Simulation(e.to_string()))
    }

    /// One whole cold compile + simulate of `shape` under `opts`, inside
    /// a `staged` span.
    pub fn compile_and_simulate(
        &mut self,
        shape: &Request,
        opts: &CompileOptions,
    ) -> Result<Staged, CompileError> {
        let id = self.rec.enter(span::STAGED);
        let result = self.compile_and_simulate_inner(shape, opts);
        self.rec.exit(id);
        result
    }

    fn compile_and_simulate_inner(
        &mut self,
        shape: &Request,
        opts: &CompileOptions,
    ) -> Result<Staged, CompileError> {
        let program = self.build(shape);
        self.rec.span(span::FINGERPRINT, |_| {
            std::hint::black_box(tawa_ir::module_fingerprint(program.module()))
        });
        let mut cleaned = program.module().clone();
        self.cleanup(&mut cleaned)?;
        let kernel = self.compile_tail(&cleaned, program.spec(), opts)?;
        let report = self.gate_and_simulate(&kernel)?;
        Ok(Staged {
            module_ops: module_ops(program.module()),
            cleaned_ops: module_ops(&cleaned),
            program,
            kernel,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_wsir::{MmaDtype, Role};

    /// The crate-doc kernel of `gpu_sim`: a producer and a consumer warp
    /// group, each one 16-trip loop.
    fn tiny() -> Kernel {
        let mut k = Kernel::new("tiny");
        k.uniform_grid(132);
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier_init("empty", 1, 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![
                Instr::SetMaxNReg { regs: 24 },
                Instr::loop_const(
                    16,
                    vec![
                        Instr::MbarWait { bar: empty },
                        Instr::TmaLoad {
                            bytes: 1024,
                            bar: full,
                        },
                    ],
                ),
            ],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::loop_param(
                    0,
                    vec![
                        Instr::MbarWait { bar: full },
                        Instr::loop_const(
                            2,
                            vec![Instr::WgmmaIssue {
                                m: 64,
                                n: 64,
                                k: 16,
                                dtype: MmaDtype::F16,
                            }],
                        ),
                        Instr::WgmmaWait { pending: 0 },
                        Instr::MbarArrive { bar: empty },
                    ],
                ),
                Instr::TmaStore { bytes: 1024 },
            ],
        );
        k
    }

    #[test]
    fn dynamic_counter_matches_a_hand_count() {
        let mut k = tiny();
        k.classes[0].params = vec![16];
        // Producer: 1 + 16·2 = 33. Consumer: 16·(1 + 2·1 + 1 + 1) + 1 = 81.
        assert_eq!(dynamic_instrs(&k.warp_groups[0].body, &[16]), 33);
        assert_eq!(dynamic_instrs(&k.warp_groups[1].body, &[16]), 81);
        assert_eq!(kernel_dynamic_instrs(&k, 1), 114);
        assert_eq!(kernel_dynamic_instrs(&k, 2), 228);
        // A second class with a 4-trip consumer: 33 + 4·5 + 1 = 54 more.
        let mut second = k.classes[0].clone();
        second.params = vec![4];
        k.classes.push(second);
        assert_eq!(kernel_dynamic_instrs(&k, 1), 114 + 54);
    }

    #[test]
    fn staged_compile_equals_the_session() {
        let dev = Device::h100_sxm5();
        let mut rec = Recorder::new();
        for case in [&crate::zoo::short_zoo()[0], &crate::zoo::short_zoo()[14]] {
            let staged = Stager::new(&dev, &mut rec)
                .compile_and_simulate(&case.shape, &case.opts)
                .unwrap();
            let session = CompileSession::in_memory(&dev);
            let kernel = session
                .compile_program(&staged.program, &case.opts)
                .unwrap();
            let report = session
                .compile_and_simulate_program(&staged.program, &case.opts)
                .unwrap();
            assert_eq!(*kernel, staged.kernel);
            assert_eq!(report, staged.report);
        }
        let names: Vec<&str> = rec.spans().iter().map(|s| rec.name_of(s)).collect();
        for expected in [
            span::STAGED,
            span::DSL_BUILD,
            span::PASS_MANAGER,
            "ir.pass.dce",
            "core.pass.warp-specialize",
            span::LOWER_WS,
            span::ANALYZE,
            span::SIMULATE,
        ] {
            assert!(names.contains(&expected), "no {expected} span");
        }
    }
}
