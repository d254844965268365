//! WSIR code generation (paper §III-E plus §IV optimizations).
//!
//! Lowers a warp-specialized tile-IR function to a [`tawa_wsir::Kernel`]:
//! `aref` rings become `D`-slot `full`/`empty` mbarrier pairs with the
//! iteration-parity wait discipline; `put` becomes *wait-empty → TMA-load →
//! arrive-full-with-tx*; `get` becomes a full-barrier wait; `consumed`
//! becomes an empty-barrier arrival. Slot indices are made static by
//! unrolling cyclic loops by `D` (exactly why Triton unrolls pipelined
//! loops by `num_stages`), with parameterized trip counts for CTA classes
//! whose loops differ (causal attention).
//!
//! Two consumer templates implement the multi-granularity pipelines of
//! §III-D: the **fine-grained** template (single-dot loops) keeps up to `P`
//! WGMMA groups in flight and releases the aref slot of iteration `k-P+1`
//! after its MMA retires; the **coarse-grained** template instantiates
//! Algorithm 1's prologue/steady-state/epilogue for T/C/U loops, keeping
//! the CUDA-core softmax of iteration `j` overlapped with the downstream
//! Tensor Core stage of iteration `j-1`.
//!
//! The same module also contains the **non-warp-specialized** code
//! generator used for the Triton baseline: Ampere-style `cp.async`
//! software pipelining executed by uniform warp groups (§II-B), which is
//! what Triton emits without this work.

use gpu_sim::Device;
use tawa_ir::analysis::loop_info;
use tawa_ir::func::{Func, Module, ValueDef};
use tawa_ir::op::{OpClass, OpId, OpKind, ValueId};
use tawa_ir::spec::LaunchSpec;
use tawa_ir::types::{DType, Type};
use tawa_wsir::{BarId, Count, CtaClass, Instr, Kernel, MmaDtype, Role};

use crate::consteval::ConstEval;
use crate::pipeline::{identify_stages, warp_group_loop};

/// Compilation error.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The kernel shape is outside what the code generator supports.
    Unsupported(String),
    /// The configuration is infeasible on the device (register pressure,
    /// `P > D`, shared-memory overflow). Benchmarks report these as the
    /// zero entries of Fig. 11; the autotuner prunes on this variant.
    Infeasible(String),
    /// A pass in the pipeline failed; carries the structured diagnostics.
    Pass(tawa_ir::pass::PassError),
    /// The kernel compiled but failed in simulation (deadlock, placement).
    /// Distinct from [`CompileError::Infeasible`]: a simulation failure is
    /// a bug in the generated schedule, not a resource-pruning signal.
    Simulation(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unsupported(m) => write!(f, "unsupported kernel: {m}"),
            CompileError::Infeasible(m) => write!(f, "infeasible configuration: {m}"),
            CompileError::Pass(e) => write!(f, "pass pipeline failed: {e}"),
            CompileError::Simulation(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Knobs of the Tawa compilation flow (defaults follow the paper's
/// recommended operating point: `D = 2`, `P = 2`, warp specialization on).
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Enable automatic warp specialization (off = Triton-style SIMT
    /// software pipelining with `cp.async`).
    pub warp_specialize: bool,
    /// aref ring depth `D`.
    pub aref_depth: usize,
    /// Fine-grained MMA pipeline depth `P`.
    pub mma_depth: usize,
    /// Number of cooperative consumer warp groups (§IV-A).
    pub cooperative: usize,
    /// Enable the coarse-grained T/C/U pipeline for multi-dot loops.
    pub coarse_pipeline: bool,
    /// Persistent kernel transformation (§IV-B).
    pub persistent: bool,
    /// Host launch overhead in nanoseconds (a property of the framework
    /// runtime: ~5.5 µs for DSL runtimes, ~2.2 µs for cuBLAS).
    pub launch_overhead_ns: u64,
    /// Software pipeline stages for the non-WS baseline path.
    pub sw_stages: usize,
    /// Per-kernel override of the configuration-specific pass-pipeline
    /// tail (the stages after the shared `fixpoint(const-fold,dce)`
    /// cleanup prefix), in the textual
    /// [`tawa_ir::pipeline_spec::PipelineSpec`] syntax — e.g.
    /// `"warp-specialize{depth=3},my-pass,dce"`. Stage names resolve
    /// against the session's `PassRegistry`, so passes registered via
    /// `CompileSession::registry_mut` can be injected without forking the
    /// driver. `None` (the default) derives the tail from the knobs
    /// above; the override participates in the cache key like every
    /// other option. See `docs/pipelines.md`.
    pub pipeline: Option<String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            warp_specialize: true,
            aref_depth: 2,
            mma_depth: 2,
            cooperative: 1,
            coarse_pipeline: true,
            persistent: false,
            launch_overhead_ns: 5_500,
            sw_stages: 3,
            pipeline: None,
        }
    }
}

/// Per-class parameter table under construction.
struct ClassParams {
    values: Vec<Vec<u64>>,
}

impl ClassParams {
    fn new(classes: usize) -> ClassParams {
        ClassParams {
            values: vec![Vec::new(); classes],
        }
    }

    /// Interns a per-class value, returning `Const` when uniform.
    fn alloc(&mut self, vals: &[u64]) -> Count {
        debug_assert_eq!(vals.len(), self.values.len());
        if vals.windows(2).all(|w| w[0] == w[1]) {
            return Count::Const(vals[0]);
        }
        let idx = self.values[0].len();
        for (per_class, &v) in self.values.iter_mut().zip(vals.iter()) {
            per_class.push(v);
        }
        Count::Param(idx)
    }
}

/// Emits `trips[class]` iterations of a slot-cyclic body starting at
/// `start_slot`, unrolled by `d` so each position has a static slot.
fn emit_cyclic(
    out: &mut Vec<Instr>,
    trips: &[u64],
    d: usize,
    start_slot: usize,
    params: &mut ClassParams,
    mut emit_pos: impl FnMut(usize, &mut Vec<Instr>),
) {
    let steady: Vec<u64> = trips.iter().map(|&n| n / d as u64).collect();
    let mut block = Vec::new();
    for i in 0..d {
        emit_pos((start_slot + i) % d, &mut block);
    }
    if steady.iter().any(|&s| s > 0) {
        out.push(Instr::Loop {
            count: params.alloc(&steady),
            body: block,
        });
    }
    // Tail: position i executes iff i < trips mod d.
    for i in 0..d.saturating_sub(1) {
        let tails: Vec<u64> = trips
            .iter()
            .map(|&n| u64::from((n % d as u64) > i as u64))
            .collect();
        if tails.iter().all(|&t| t == 0) {
            continue;
        }
        let mut body = Vec::new();
        emit_pos((start_slot + i) % d, &mut body);
        out.push(Instr::Loop {
            count: params.alloc(&tails),
            body,
        });
    }
}

fn mma_dtype(dt: DType) -> MmaDtype {
    match dt {
        DType::F8E4M3 => MmaDtype::F8,
        _ => MmaDtype::F16,
    }
}

/// One dot's tile geometry extracted from operand types.
#[derive(Debug, Clone, Copy)]
struct DotShape {
    m: u32,
    n: u32,
    k: u32,
    dtype: MmaDtype,
}

fn dot_shape(f: &Func, dot: OpId) -> Result<DotShape, CompileError> {
    let operand = |i: usize| match f.op(dot).operands.get(i).map(|&v| f.ty(v)) {
        Some(Type::Tensor(s, d)) if s.rank() == 2 => Some((s.dim(0) as u32, s.dim(1) as u32, *d)),
        _ => None,
    };
    match (operand(0), operand(1)) {
        (Some((m, k, dt)), Some((_, n, _))) => Ok(DotShape {
            m,
            n,
            k,
            dtype: mma_dtype(dt),
        }),
        _ => Err(unsupported_at(f, dot, "dot operands must be rank-2 tiles")),
    }
}

/// CUDA-core work in a set of ops: `(fp32 flops, sfu ops)`, the sum of
/// each op's schema cost rule ([`tawa_ir::op::Cost`]).
fn cuda_cost(f: &Func, ops: &[OpId]) -> (u64, u64) {
    let numel = |v: Option<&ValueId>| v.and_then(|&v| f.ty(v).shape()).map(|s| s.numel() as u64);
    ops.iter().fold((0, 0), |(flops, sfu), &op| {
        let data = f.op(op);
        let (fl, sf) = data
            .kind
            .spec()
            .cost
            .of(numel(data.results.first()), numel(data.operands.first()));
        (flops + fl, sfu + sf)
    })
}

/// Result of analysing one warp-specialized function.
struct WsAnalysis {
    /// Per aref: payload tensor byte sizes.
    aref_payloads: Vec<Vec<u64>>,
    /// Per aref: the authoring span of its `CreateAref` op, when the
    /// frontend recorded one — threaded onto the lowered barriers so
    /// static-analysis diagnostics point at tile-program source.
    aref_locs: Vec<Option<tawa_ir::loc::Loc>>,
    /// Aref index of the ring consumed by the T dot / the U dot.
    t_aref: usize,
    u_aref: Option<usize>,
    /// Producer per-iteration scalar op count.
    producer_iter_ops: u64,
    producer_prologue_ops: u64,
    /// Consumer loop geometry.
    t_shape: DotShape,
    u_shape: Option<DotShape>,
    /// Per-iteration CUDA work in the consumer.
    iter_flops: u64,
    iter_sfu: u64,
    /// Consumer prologue: synchronous tile loads (Q) and scalar work.
    prologue_load_bytes: Vec<u64>,
    /// Authoring spans of the prologue loads, parallel to
    /// `prologue_load_bytes`.
    prologue_load_locs: Vec<Option<tawa_ir::loc::Loc>>,
    prologue_flops: u64,
    /// Consumer epilogue.
    epilogue_flops: u64,
    epilogue_sfu: u64,
    store_bytes: u64,
    /// Loop bounds for trip-count evaluation (consumer clone).
    loop_bounds: (ValueId, ValueId, ValueId),
    mma_depth: Option<usize>,
    coarse: bool,
}

/// Converts a frontend [`tawa_ir::loc::Loc`] into the WSIR diagnostic
/// side channel ([`tawa_wsir::SrcLoc`]); both carry `file:line:col`.
fn src_loc(loc: tawa_ir::loc::Loc) -> tawa_wsir::SrcLoc {
    tawa_wsir::SrcLoc {
        file: loc.file,
        line: loc.line,
        col: loc.col,
    }
}

/// Formats an unsupported-construct error, pointing at the tile-program
/// source line when the op (or its clone lineage) carries a frontend
/// [`tawa_ir::loc::Loc`].
fn unsupported_at(f: &Func, op: OpId, msg: &str) -> CompileError {
    match f.loc(op) {
        Some(loc) => CompileError::Unsupported(format!("{msg} (at {loc})")),
        None => CompileError::Unsupported(msg.to_string()),
    }
}

fn analyse_ws(f: &Func) -> Result<WsAnalysis, CompileError> {
    let err = |m: &str| CompileError::Unsupported(m.to_string());
    let body = f.body_block();
    let creates: Vec<OpId> = f
        .block(body)
        .ops
        .iter()
        .copied()
        .filter(|&o| !f.op(o).dead && f.op(o).kind == OpKind::CreateAref)
        .collect();
    if creates.is_empty() {
        return Err(err("no arefs: run warp-specialize first"));
    }
    let aref_vals: Vec<ValueId> = creates.iter().map(|&c| f.result(c)).collect();
    let aref_payloads: Vec<Vec<u64>> = aref_vals
        .iter()
        .map(|&a| match f.ty(a) {
            Type::Aref(_, p) => Ok(p.iter().map(|t| t.size_bytes() as u64).collect()),
            t => Err(err(&format!("create_aref result {a} has type {t}"))),
        })
        .collect::<Result<_, _>>()?;

    let wgs: Vec<OpId> = f
        .block(body)
        .ops
        .iter()
        .copied()
        .filter(|&o| !f.op(o).dead && f.op(o).kind == OpKind::WarpGroup)
        .collect();
    let producer = *wgs
        .iter()
        .find(|&&w| f.op(w).attrs.str("role") == Some("producer"))
        .ok_or_else(|| err("missing producer warp group"))?;
    let consumer = *wgs
        .iter()
        .find(|&&w| f.op(w).attrs.str("role") == Some("consumer"))
        .ok_or_else(|| err("missing consumer warp group"))?;

    // ---- producer ----
    let p_loop = warp_group_loop(f, producer).ok_or_else(|| err("producer has no loop"))?;
    let p_info = loop_info(f, p_loop).ok_or_else(|| err("malformed producer loop"))?;
    let p_block = f.entry_block(f.op(producer).regions[0]);
    let producer_prologue_ops = f
        .block(p_block)
        .ops
        .iter()
        .filter(|&&o| !f.op(o).dead && o != p_loop)
        .count() as u64;
    let producer_iter_ops = p_info
        .body_ops
        .iter()
        .filter(|&&o| !matches!(f.op(o).kind, OpKind::TmaLoad | OpKind::ArefPut))
        .count() as u64;

    // ---- consumer ----
    let c_loop = warp_group_loop(f, consumer).ok_or_else(|| err("consumer has no loop"))?;
    let c_info = loop_info(f, c_loop).ok_or_else(|| err("malformed consumer loop"))?;
    let c_block = f.entry_block(f.op(consumer).regions[0]);
    let stages = identify_stages(f, c_loop)
        .ok_or_else(|| unsupported_at(f, c_loop, "consumer loop has no dot"))?;
    let t_shape = dot_shape(f, stages.t_dot)?;
    let u_shape = stages.u_dot.map(|u| dot_shape(f, u)).transpose()?;

    // Map each dot to the aref feeding it (via its get).
    let dot_aref = |dot: OpId| -> Option<usize> {
        // Backward from the dot's first two operands to a get result.
        let mut frontier: Vec<ValueId> = f.op(dot).operands[..2].to_vec();
        let mut hops = 0;
        while let Some(v) = frontier.pop() {
            hops += 1;
            if hops > 64 {
                return None;
            }
            if let ValueDef::OpResult { op, .. } = f.value(v).def {
                if f.op(op).kind == OpKind::ArefGet {
                    let aref = f.op(op).operands[0];
                    return aref_vals.iter().position(|&a| a == aref);
                }
                if f.op(op).kind.class() == OpClass::View {
                    frontier.push(f.op(op).operands[0]);
                }
            }
        }
        None
    };
    let t_aref =
        dot_aref(stages.t_dot).ok_or_else(|| err("T dot does not consume an aref payload"))?;
    let u_aref = stages.u_dot.and_then(dot_aref);

    // Per-iteration CUDA work: everything in the body that is not a dot,
    // get, consumed or slot arithmetic.
    let cuda_ops: Vec<OpId> = c_info
        .body_ops
        .iter()
        .copied()
        .filter(|&o| {
            !matches!(
                f.op(o).kind,
                OpKind::Dot | OpKind::ArefGet | OpKind::ArefConsumed | OpKind::DotWait
            )
        })
        .filter(|&o| {
            f.results(o)
                .first()
                .map(|&r| f.ty(r).is_tensor())
                .unwrap_or(false)
        })
        .collect();
    let (iter_flops, iter_sfu) = cuda_cost(f, &cuda_ops);

    // Consumer prologue: ops before the loop.
    let c_pro: Vec<OpId> = f
        .block(c_block)
        .ops
        .iter()
        .copied()
        .take_while(|&o| o != c_loop)
        .filter(|&o| !f.op(o).dead)
        .collect();
    let prologue_loads: Vec<OpId> = c_pro
        .iter()
        .copied()
        .filter(|&o| f.op(o).kind == OpKind::TmaLoad)
        .collect();
    let prologue_load_bytes: Vec<u64> = prologue_loads
        .iter()
        .map(|&o| f.ty(f.result(o)).size_bytes() as u64)
        .collect();
    let prologue_load_locs: Vec<Option<tawa_ir::loc::Loc>> =
        prologue_loads.iter().map(|&o| f.loc(o)).collect();
    let (prologue_flops, _) = cuda_cost(f, &c_pro);

    // Consumer epilogue: ops after the loop.
    let c_epi: Vec<OpId> = f
        .block(c_block)
        .ops
        .iter()
        .copied()
        .skip_while(|&o| o != c_loop)
        .skip(1)
        .filter(|&o| !f.op(o).dead)
        .collect();
    let (epilogue_flops, epilogue_sfu) = cuda_cost(f, &c_epi);
    let store_bytes: u64 = c_epi
        .iter()
        .filter(|&&o| matches!(f.op(o).kind, OpKind::Store | OpKind::TmaStore))
        .map(|&o| {
            let v = *f.op(o).operands.last().expect("store has a value");
            f.ty(v).size_bytes() as u64
        })
        .sum();

    let mma_depth = f
        .walk()
        .into_iter()
        .find(|&o| f.op(o).kind == OpKind::WarpGroup && f.op(o).attrs.int("mma_depth").is_some())
        .and_then(|o| f.op(o).attrs.int("mma_depth"))
        .map(|d| d as usize);
    let coarse = f.walk().into_iter().any(|o| {
        f.op(o).kind == OpKind::WarpGroup && f.op(o).attrs.str("pipeline") == Some("coarse")
    });

    let aref_locs: Vec<Option<tawa_ir::loc::Loc>> = creates.iter().map(|&c| f.loc(c)).collect();

    Ok(WsAnalysis {
        aref_payloads,
        aref_locs,
        t_aref,
        u_aref,
        producer_iter_ops,
        producer_prologue_ops,
        t_shape,
        u_shape,
        iter_flops,
        iter_sfu,
        prologue_load_bytes,
        prologue_load_locs,
        prologue_flops,
        epilogue_flops,
        epilogue_sfu,
        store_bytes,
        loop_bounds: (c_info.lo, c_info.hi, c_info.step),
        mma_depth,
        coarse,
    })
}

/// Estimated registers per thread for a consumer warp group holding
/// `acc_elems` f32 accumulator elements plus `extra_elems` of live
/// fragments, across 128 threads.
fn consumer_regs(acc_elems: u64, extra_elems: u64) -> Result<u32, CompileError> {
    let regs = ((acc_elems + extra_elems) / 128 + 48) as u32;
    if regs > 255 {
        return Err(CompileError::Infeasible(format!(
            "consumer warp group needs {regs} registers/thread (max 255); \
             enable cooperative warp groups or shrink the tile"
        )));
    }
    Ok(regs)
}

/// Lowers a warp-specialized module to a WSIR kernel.
///
/// # Errors
/// [`CompileError::Unsupported`] for kernel shapes outside the templates;
/// [`CompileError::Infeasible`] for `P > D`, register or shared-memory
/// overflow.
pub fn lower_ws(
    module: &Module,
    spec: &LaunchSpec,
    opts: &CompileOptions,
    device: &Device,
) -> Result<Kernel, CompileError> {
    let f = &module.funcs[0];
    let a = analyse_ws(f)?;
    let d = opts.aref_depth;
    // Prefer the pipeline depth recorded in the IR by the fine-grained
    // pipelining pass (paper Fig. 2c's `pendings` annotation).
    let p = a.mma_depth.unwrap_or(opts.mma_depth);
    if p > d {
        return Err(CompileError::Infeasible(format!(
            "MMA pipeline depth P={p} exceeds aref depth D={d}: a slot would \
             be recycled while its WGMMA is still in flight"
        )));
    }
    let coop = opts.cooperative.clamp(1, 2);
    if a.t_shape.m % coop as u32 != 0 {
        return Err(CompileError::Unsupported(format!(
            "tile rows {} not divisible among {coop} cooperative warp groups",
            a.t_shape.m
        )));
    }

    // Trip counts per CTA class.
    let trips: Vec<u64> = spec
        .classes
        .iter()
        .map(|c| {
            let mut ev = ConstEval::new(f, spec, c.pid);
            ev.trip_count(a.loop_bounds.0, a.loop_bounds.1, a.loop_bounds.2)
                .ok_or_else(|| {
                    // Blame the author's loop bound when it carries a span.
                    let msg = "loop bounds are not launch-constant";
                    match f.value_loc(a.loop_bounds.1) {
                        Some(loc) => {
                            CompileError::Unsupported(format!("{msg} (bound defined at {loc})"))
                        }
                        None => CompileError::Unsupported(msg.into()),
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    let uniform_n = trips.windows(2).all(|w| w[0] == w[1]);

    let mut kernel = Kernel::new(&f.name);
    kernel.launch_overhead_ns = opts.launch_overhead_ns;
    kernel.useful_flops = spec.useful_flops;

    // ---- barriers -------------------------------------------------------
    // Per aref: D full + D empty barriers.
    let mut full_bars: Vec<Vec<BarId>> = Vec::new();
    let mut empty_bars: Vec<Vec<BarId>> = Vec::new();
    for (ai, payload) in a.aref_payloads.iter().enumerate() {
        let mut fulls = Vec::new();
        let mut empties = Vec::new();
        for s in 0..d {
            fulls.push(kernel.add_barrier(&format!("full{ai}_{s}"), payload.len() as u32));
            empties.push(kernel.add_barrier_init(&format!("empty{ai}_{s}"), coop as u32, 1));
        }
        full_bars.push(fulls);
        empty_bars.push(empties);
    }
    // Barriers for synchronous prologue loads (Q).
    let sync_bars: Vec<BarId> = (0..a.prologue_load_bytes.len())
        .map(|i| kernel.add_barrier(&format!("sync{i}"), 1))
        .collect();

    // Thread the authoring spans onto the barriers so static-analysis
    // diagnostics (races, deadlocks) point at the tile program's
    // `file:line`, not at the lowering.
    for (ai, loc) in a.aref_locs.iter().enumerate() {
        if let Some(loc) = loc {
            let src = src_loc(*loc);
            for s in 0..d {
                kernel.set_bar_loc(full_bars[ai][s], src);
                kernel.set_bar_loc(empty_bars[ai][s], src);
            }
        }
    }
    for (bar, loc) in sync_bars.iter().zip(&a.prologue_load_locs) {
        if let Some(loc) = loc {
            kernel.set_bar_loc(*bar, src_loc(*loc));
        }
    }

    let mut params = ClassParams::new(spec.classes.len());

    // ---- producer program -------------------------------------------------
    let mut prod = Vec::new();
    prod.push(Instr::SetMaxNReg { regs: 24 });
    if a.producer_prologue_ops > 0 {
        prod.push(Instr::CudaOp {
            flops: a.producer_prologue_ops * 32,
            sfu: 0,
            label: "producer-prologue",
        });
    }
    let payloads = a.aref_payloads.clone();
    emit_cyclic(&mut prod, &trips, d, 0, &mut params, |s, out| {
        if a.producer_iter_ops > 0 {
            out.push(Instr::CudaOp {
                flops: a.producer_iter_ops * 32,
                sfu: 0,
                label: "addr-gen",
            });
        }
        for (ai, payload) in payloads.iter().enumerate() {
            out.push(Instr::MbarWait {
                bar: empty_bars[ai][s],
            });
            for &bytes in payload {
                out.push(Instr::TmaLoad {
                    bytes,
                    bar: full_bars[ai][s],
                });
            }
        }
    });

    // ---- consumer program(s) ---------------------------------------------
    let m_wg = a.t_shape.m / coop as u32;
    let store_wg = a.store_bytes / coop as u64;
    let iter_flops_wg = a.iter_flops / coop as u64;
    let iter_sfu_wg = a.iter_sfu / coop as u64;
    let epi_flops_wg = a.epilogue_flops / coop as u64;
    let epi_sfu_wg = a.epilogue_sfu / coop as u64;

    let mut cons = Vec::new();
    for (&bytes, bar) in a.prologue_load_bytes.iter().zip(sync_bars.iter()) {
        cons.push(Instr::TmaLoad { bytes, bar: *bar });
        cons.push(Instr::MbarWait { bar: *bar });
    }
    if a.prologue_flops > 0 {
        cons.push(Instr::CudaOp {
            flops: a.prologue_flops / coop as u64,
            sfu: 0,
            label: "consumer-prologue",
        });
    }

    let use_coarse = a.coarse && a.u_shape.is_some() && opts.coarse_pipeline;
    if let (Some(u_shape), Some(u_aref), true) = (a.u_shape, a.u_aref, use_coarse) {
        // ---- coarse-grained T/C/U template (Algorithm 1) ----
        let t = a.t_shape;
        let ta = a.t_aref;
        if trips.contains(&0) {
            return Err(CompileError::Unsupported(
                "coarse pipeline requires at least one iteration per class".into(),
            ));
        }
        // Prologue: T0 to completion, then C0.
        cons.push(Instr::MbarWait {
            bar: full_bars[ta][0],
        });
        cons.push(Instr::WgmmaIssue {
            m: m_wg,
            n: t.n,
            k: t.k,
            dtype: t.dtype,
        });
        cons.push(Instr::WgmmaWait { pending: 0 });
        cons.push(Instr::MbarArrive {
            bar: empty_bars[ta][0],
        });
        cons.push(Instr::CudaOp {
            flops: iter_flops_wg,
            sfu: iter_sfu_wg,
            label: "softmax",
        });
        // Steady state over iterations 1..N.
        let steady_trips: Vec<u64> = trips.iter().map(|&n| n - 1).collect();
        emit_cyclic(&mut cons, &steady_trips, d, 1 % d, &mut params, |s, out| {
            let prev = (s + d - 1) % d;
            // U_{j-1}'s operands (P_{j-1} and V_{j-1}) are ready before
            // T_j's K tile, so U is enqueued first: its aref slot frees one
            // WGMMA earlier, keeping the producer's V prefetch unstalled.
            out.push(Instr::MbarWait {
                bar: full_bars[u_aref][prev],
            });
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: u_shape.n,
                k: u_shape.k,
                dtype: u_shape.dtype,
            });
            out.push(Instr::MbarWait {
                bar: full_bars[ta][s],
            });
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: t.n,
                k: t.k,
                dtype: t.dtype,
            });
            out.push(Instr::WgmmaWait { pending: 1 });
            out.push(Instr::MbarArrive {
                bar: empty_bars[u_aref][prev],
            });
            out.push(Instr::WgmmaWait { pending: 0 });
            out.push(Instr::MbarArrive {
                bar: empty_bars[ta][s],
            });
            out.push(Instr::CudaOp {
                flops: iter_flops_wg,
                sfu: iter_sfu_wg,
                label: "softmax",
            });
        });
        // Epilogue: U_{N-1}; its slot (N-1) mod D differs per class, so emit
        // D guarded variants of which exactly one runs.
        for v in 0..d {
            let guard: Vec<u64> = trips
                .iter()
                .map(|&n| u64::from((n - 1) % d as u64 == v as u64))
                .collect();
            if guard.iter().all(|&g| g == 0) {
                continue;
            }
            let body = vec![
                Instr::MbarWait {
                    bar: full_bars[u_aref][v],
                },
                Instr::WgmmaIssue {
                    m: m_wg,
                    n: u_shape.n,
                    k: u_shape.k,
                    dtype: u_shape.dtype,
                },
                Instr::WgmmaWait { pending: 0 },
                Instr::MbarArrive {
                    bar: empty_bars[u_aref][v],
                },
            ];
            cons.push(Instr::Loop {
                count: params.alloc(&guard),
                body,
            });
        }
    } else if let (Some(u_shape), Some(u_aref)) = (a.u_shape, a.u_aref) {
        // ---- serial T/C/U (coarse pipeline disabled: ablation) ----
        let t = a.t_shape;
        let ta = a.t_aref;
        emit_cyclic(&mut cons, &trips, d, 0, &mut params, |s, out| {
            out.push(Instr::MbarWait {
                bar: full_bars[ta][s],
            });
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: t.n,
                k: t.k,
                dtype: t.dtype,
            });
            out.push(Instr::WgmmaWait { pending: 0 });
            out.push(Instr::MbarArrive {
                bar: empty_bars[ta][s],
            });
            out.push(Instr::CudaOp {
                flops: iter_flops_wg,
                sfu: iter_sfu_wg,
                label: "softmax",
            });
            out.push(Instr::MbarWait {
                bar: full_bars[u_aref][s],
            });
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: u_shape.n,
                k: u_shape.k,
                dtype: u_shape.dtype,
            });
            out.push(Instr::WgmmaWait { pending: 0 });
            out.push(Instr::MbarArrive {
                bar: empty_bars[u_aref][s],
            });
        });
    } else {
        // ---- fine-grained single-dot template ----
        if !uniform_n {
            return Err(CompileError::Unsupported(
                "fine-grained pipeline requires a uniform trip count".into(),
            ));
        }
        let n = trips[0];
        let t = a.t_shape;
        let ta = a.t_aref;
        let p_eff = p.min(n.max(1) as usize).max(1);
        let peel = (p_eff - 1) as u64;
        // Peeled head: fill the MMA pipeline without waits/releases.
        for k in 0..peel.min(n) {
            let s = (k % d as u64) as usize;
            cons.push(Instr::MbarWait {
                bar: full_bars[ta][s],
            });
            if iter_flops_wg + iter_sfu_wg > 0 {
                cons.push(Instr::CudaOp {
                    flops: iter_flops_wg,
                    sfu: iter_sfu_wg,
                    label: "iter-transform",
                });
            }
            cons.push(Instr::WgmmaIssue {
                m: m_wg,
                n: t.n,
                k: t.k,
                dtype: t.dtype,
            });
        }
        // Steady state: issue, bounded wait, release slot k-P+1.
        let steady: Vec<u64> = trips.iter().map(|&x| x - peel.min(x)).collect();
        let start = (peel % d as u64) as usize;
        emit_cyclic(&mut cons, &steady, d, start, &mut params, |s, out| {
            out.push(Instr::MbarWait {
                bar: full_bars[ta][s],
            });
            if iter_flops_wg + iter_sfu_wg > 0 {
                out.push(Instr::CudaOp {
                    flops: iter_flops_wg,
                    sfu: iter_sfu_wg,
                    label: "iter-transform",
                });
            }
            out.push(Instr::WgmmaIssue {
                m: m_wg,
                n: t.n,
                k: t.k,
                dtype: t.dtype,
            });
            out.push(Instr::WgmmaWait {
                pending: peel as u32,
            });
            let rel = (s + d - (peel as usize % d)) % d;
            out.push(Instr::MbarArrive {
                bar: empty_bars[ta][rel],
            });
        });
        // Drain: wait for the last P-1 MMAs and release their slots.
        cons.push(Instr::WgmmaWait { pending: 0 });
        for i in 0..peel.min(n) {
            let k = n - peel + i;
            let s = (k % d as u64) as usize;
            cons.push(Instr::MbarArrive {
                bar: empty_bars[ta][s],
            });
        }
    }

    if epi_flops_wg + epi_sfu_wg > 0 {
        cons.push(Instr::CudaOp {
            flops: epi_flops_wg,
            sfu: epi_sfu_wg,
            label: "epilogue",
        });
    }
    if store_wg > 0 {
        cons.push(Instr::TmaStore { bytes: store_wg });
    }

    // ---- resources -----------------------------------------------------------
    let aref_smem: u64 = a
        .aref_payloads
        .iter()
        .map(|p| p.iter().sum::<u64>() * d as u64)
        .sum();
    let sync_smem: u64 = a.prologue_load_bytes.iter().sum();
    let barrier_smem = (kernel.barriers.len() * 8) as u64;
    kernel.smem_bytes = aref_smem + sync_smem + a.store_bytes + barrier_smem;
    if kernel.smem_bytes > device.smem_per_sm {
        return Err(CompileError::Infeasible(format!(
            "shared memory {} B exceeds the SM's {} B (D too deep for this tile)",
            kernel.smem_bytes, device.smem_per_sm
        )));
    }

    let acc_elems = (m_wg as u64) * a.t_shape.n as u64;
    let extra = a.u_shape.map(|u| m_wg as u64 * u.k as u64).unwrap_or(0);
    let c_regs = consumer_regs(
        match a.u_shape {
            Some(u) => m_wg as u64 * u.n as u64,
            None => acc_elems,
        },
        extra,
    )?;

    kernel.add_warp_group(Role::Producer, 24, prod);
    for _ in 0..coop {
        kernel.add_warp_group(Role::Consumer, c_regs, cons.clone());
    }

    // ---- classes / persistence -------------------------------------------------
    if opts.persistent {
        if !uniform_n {
            return Err(CompileError::Unsupported(
                "persistent kernels require uniform trip counts".into(),
            ));
        }
        let occ = device.occupancy(&kernel).max(1) as u64;
        let resident = (device.sms as u64 * occ).min(spec.grid_size()).max(1);
        let grid = spec.grid_size();
        let full = grid / resident;
        let rem = grid % resident;
        for wg in &mut kernel.warp_groups {
            let body = std::mem::take(&mut wg.body);
            wg.body = vec![Instr::Loop {
                count: Count::Param(0),
                body,
            }];
        }
        kernel.persistent = true;
        kernel.classes = Vec::new();
        if rem > 0 {
            kernel.classes.push(CtaClass {
                params: vec![full + 1],
                multiplicity: rem,
            });
        }
        if resident - rem > 0 && full > 0 {
            kernel.classes.push(CtaClass {
                params: vec![full],
                multiplicity: resident - rem,
            });
        }
    } else {
        kernel.classes = spec
            .classes
            .iter()
            .zip(params.values.iter())
            .map(|(c, vals)| CtaClass {
                params: vals.clone(),
                multiplicity: c.multiplicity,
            })
            .collect();
    }

    tawa_wsir::validate(&kernel)
        .map_err(|e| CompileError::Unsupported(format!("generated invalid WSIR: {e:?}")))?;
    Ok(kernel)
}

/// Lowers an **unspecialized** tile-IR module the way pre-Tawa Triton does
/// on Hopper: uniform warp groups (num_warps = 8), Ampere-style `cp.async`
/// software pipelining with `sw_stages` stages, `bar.sync` between the copy
/// and compute phases, and register-file address generation instead of TMA
/// (§II-B / §V-B: "Triton employs an Ampere-style software pipelining
/// scheme for asynchronous copies, which is less effective on Hopper").
///
/// # Errors
/// [`CompileError::Unsupported`] for kernel shapes outside the template.
pub fn lower_simt(
    module: &Module,
    spec: &LaunchSpec,
    opts: &CompileOptions,
    device: &Device,
) -> Result<Kernel, CompileError> {
    let f = &module.funcs[0];
    let err = |m: &str| CompileError::Unsupported(m.to_string());
    let main_loop =
        top_level_loops_with_loads(f).ok_or_else(|| err("no TMA-load-bearing loop in kernel"))?;
    let info = loop_info(f, main_loop).ok_or_else(|| err("malformed main loop"))?;

    let loads: Vec<u64> = info
        .body_ops
        .iter()
        .filter(|&&o| f.op(o).kind == OpKind::TmaLoad)
        .map(|&o| f.ty(f.result(o)).size_bytes() as u64)
        .collect();
    let dots: Vec<DotShape> = info
        .body_ops
        .iter()
        .filter(|&&o| f.op(o).kind == OpKind::Dot)
        .map(|&o| dot_shape(f, o))
        .collect::<Result<_, _>>()?;
    if dots.is_empty() {
        return Err(err("loop has no dot"));
    }
    let cuda_ops: Vec<OpId> = info
        .body_ops
        .iter()
        .copied()
        .filter(|&o| !matches!(f.op(o).kind, OpKind::Dot | OpKind::TmaLoad))
        .filter(|&o| {
            f.results(o)
                .first()
                .map(|&r| f.ty(r).is_tensor())
                .unwrap_or(false)
        })
        .collect();
    let (iter_flops, iter_sfu) = cuda_cost(f, &cuda_ops);

    let body_block = f.body_block();
    let all: Vec<OpId> = f.block(body_block).ops.clone();
    let pos = all.iter().position(|&o| o == main_loop).expect("loop");
    let prologue = &all[..pos];
    let epilogue = &all[pos + 1..];
    let prologue_loads: Vec<u64> = prologue
        .iter()
        .filter(|&&o| f.op(o).kind == OpKind::TmaLoad)
        .map(|&o| f.ty(f.result(o)).size_bytes() as u64)
        .collect();
    let (epi_flops, epi_sfu) = cuda_cost(f, epilogue);
    let store_bytes: u64 = epilogue
        .iter()
        .filter(|&&o| matches!(f.op(o).kind, OpKind::Store | OpKind::TmaStore))
        .map(|&o| {
            let v = *f.op(o).operands.last().expect("store value");
            f.ty(v).size_bytes() as u64
        })
        .sum();

    let trips: Vec<u64> = spec
        .classes
        .iter()
        .map(|c| {
            let mut ev = ConstEval::new(f, spec, c.pid);
            ev.trip_count(info.lo, info.hi, info.step)
                .ok_or_else(|| err("loop bounds are not launch-constant"))
        })
        .collect::<Result<_, _>>()?;
    let min_n = trips.iter().copied().min().unwrap_or(0);
    let stages = opts.sw_stages.max(1).min(min_n.max(1) as usize);

    let mut kernel = Kernel::new(&format!("{}_simt", f.name));
    kernel.launch_overhead_ns = opts.launch_overhead_ns;
    kernel.useful_flops = spec.useful_flops;
    let mut params = ClassParams::new(spec.classes.len());

    // Two uniform warp groups split the tile rows (num_warps = 8).
    const WGS: u64 = 2;
    let iter_load_bytes: u64 = loads.iter().sum::<u64>() / WGS;
    // Without TMA, Triton materializes a per-element pointer tensor (and
    // bounds masks) for every tile it copies: ~3 integer ops per element.
    let esz = dots[0].dtype.size_bytes();
    let addr_flops = 3 * loads.iter().sum::<u64>() / esz / WGS;
    let mut body = vec![
        Instr::CudaOp {
            flops: addr_flops.max(512),
            sfu: 0,
            label: "addr-gen",
        },
        Instr::CpAsync {
            bytes: iter_load_bytes,
        },
        Instr::CpAsyncWait {
            pending: stages as u32 - 1,
        },
        Instr::Syncthreads,
    ];
    if iter_flops + iter_sfu > 0 && dots.len() > 1 {
        // Attention-like: T, softmax, U — fully serial in the SIMT model.
        body.push(Instr::WgmmaIssue {
            m: dots[0].m / WGS as u32,
            n: dots[0].n,
            k: dots[0].k,
            dtype: dots[0].dtype,
        });
        body.push(Instr::WgmmaWait { pending: 0 });
        body.push(Instr::CudaOp {
            flops: iter_flops / WGS,
            sfu: iter_sfu / WGS,
            label: "softmax",
        });
        body.push(Instr::WgmmaIssue {
            m: dots[1].m / WGS as u32,
            n: dots[1].n,
            k: dots[1].k,
            dtype: dots[1].dtype,
        });
        body.push(Instr::WgmmaWait { pending: 0 });
    } else {
        if iter_flops + iter_sfu > 0 {
            body.push(Instr::CudaOp {
                flops: iter_flops / WGS,
                sfu: iter_sfu / WGS,
                label: "iter-transform",
            });
        }
        for dsh in &dots {
            body.push(Instr::WgmmaIssue {
                m: dsh.m / WGS as u32,
                n: dsh.n,
                k: dsh.k,
                dtype: dsh.dtype,
            });
            body.push(Instr::WgmmaWait { pending: 0 });
        }
    }
    body.push(Instr::Syncthreads);

    let mut wg = Vec::new();
    // Synchronous prologue loads (Q) through cp.async.
    for &bytes in &prologue_loads {
        wg.push(Instr::CpAsync { bytes: bytes / WGS });
        wg.push(Instr::CpAsyncWait { pending: 0 });
    }
    wg.push(Instr::Syncthreads);
    // Software-pipeline prologue: prefetch stages-1 tiles.
    for _ in 0..stages - 1 {
        wg.push(Instr::CudaOp {
            flops: addr_flops.max(512),
            sfu: 0,
            label: "addr-gen",
        });
        wg.push(Instr::CpAsync {
            bytes: iter_load_bytes,
        });
    }
    let main_trips: Vec<u64> = trips
        .iter()
        .map(|&n| n.saturating_sub(stages as u64 - 1))
        .collect();
    if main_trips.iter().any(|&t| t > 0) {
        wg.push(Instr::Loop {
            count: params.alloc(&main_trips),
            body,
        });
    }
    // Drain: the last stages-1 iterations compute without new prefetches.
    let mut drain = Vec::new();
    drain.push(Instr::CpAsyncWait { pending: 0 });
    drain.push(Instr::Syncthreads);
    for dsh in &dots {
        drain.push(Instr::WgmmaIssue {
            m: dsh.m / WGS as u32,
            n: dsh.n,
            k: dsh.k,
            dtype: dsh.dtype,
        });
        drain.push(Instr::WgmmaWait { pending: 0 });
    }
    if iter_flops + iter_sfu > 0 {
        drain.push(Instr::CudaOp {
            flops: iter_flops / WGS,
            sfu: iter_sfu / WGS,
            label: "drain-transform",
        });
    }
    if stages > 1 {
        wg.push(Instr::loop_const(stages as u64 - 1, drain));
    }
    if epi_flops + epi_sfu > 0 {
        wg.push(Instr::CudaOp {
            flops: epi_flops / WGS,
            sfu: epi_sfu / WGS,
            label: "epilogue",
        });
    }
    if store_bytes > 0 {
        wg.push(Instr::GlobalStore {
            bytes: store_bytes / WGS,
        });
    }

    // Registers: accumulator split across 2 WGs plus per-thread address
    // bookkeeping (the cost of not having TMA).
    let acc = dots
        .iter()
        .map(|dsh| dsh.m as u64 * dsh.n as u64)
        .max()
        .unwrap_or(0)
        / WGS;
    let regs = ((acc / 128) + 80).min(255) as u32;
    kernel.add_warp_group(Role::Uniform, regs, wg.clone());
    kernel.add_warp_group(Role::Uniform, regs, wg);

    kernel.smem_bytes =
        stages as u64 * loads.iter().sum::<u64>() + prologue_loads.iter().sum::<u64>() + 1024;
    if kernel.smem_bytes > device.smem_per_sm {
        return Err(CompileError::Infeasible(format!(
            "shared memory {} B exceeds the SM's {} B",
            kernel.smem_bytes, device.smem_per_sm
        )));
    }

    kernel.classes = spec
        .classes
        .iter()
        .zip(params.values.iter())
        .map(|(c, vals)| CtaClass {
            params: vals.clone(),
            multiplicity: c.multiplicity,
        })
        .collect();

    tawa_wsir::validate(&kernel)
        .map_err(|e| CompileError::Unsupported(format!("generated invalid WSIR: {e:?}")))?;
    Ok(kernel)
}

/// First top-level loop containing a TMA load.
fn top_level_loops_with_loads(f: &Func) -> Option<OpId> {
    tawa_ir::analysis::top_level_loops(f)
        .into_iter()
        .find(|&l| {
            let mut has = false;
            f.walk_region(f.op(l).regions[0], &mut |o| {
                has |= f.op(o).kind == OpKind::TmaLoad;
            });
            has
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::WarpSpecialize;
    use crate::pipeline::{CoarsePipeline, FineGrainedPipeline};
    use tawa_frontend::config::GemmConfig;
    use tawa_frontend::kernels::gemm;
    use tawa_ir::pass::Pass;
    use tawa_ir::transforms::{ConstFold, Dce};

    #[test]
    fn a_dot_over_a_non_tile_is_an_error_not_a_panic() {
        let program = gemm(&GemmConfig::new(512, 512, 256));
        let opts = CompileOptions::default();
        let passes: [Box<dyn Pass>; 5] = [
            Box::new(ConstFold),
            Box::new(Dce),
            Box::new(WarpSpecialize {
                depth: opts.aref_depth,
            }),
            Box::new(FineGrainedPipeline {
                depth: opts.mma_depth,
            }),
            Box::new(CoarsePipeline),
        ];
        let mut module = program.module().clone();
        for pass in &passes {
            pass.run(&mut module).unwrap();
        }
        let dev = Device::h100_sxm5();
        assert!(lower_ws(&module, program.spec(), &opts, &dev).is_ok());
        let f = &mut module.funcs[0];
        let dot = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::Dot)
            .unwrap();
        let lhs = f.op(dot).operands[0];
        f.value_mut(lhs).ty = Type::f32();
        match lower_ws(&module, program.spec(), &opts, &dev) {
            Err(CompileError::Unsupported(msg)) => assert!(msg.contains("rank-2"), "{msg}"),
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
    }
}
