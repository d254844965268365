//! WSIR code generation (paper §III-E plus §IV optimizations).
//!
//! [`lower_ws`] translates a warp-specialized tile-IR function op by op.
//! Each warp group's region is cut at its loop into a prologue, a loop
//! body and an epilogue, and each op becomes WSIR:
//!
//! | tile IR | WSIR |
//! |---|---|
//! | `tawa.create_aref` | a ring: `D` `full` and `D` `empty` mbarriers, and its payload bytes |
//! | `tawa.put` | `mbarrier.wait empty[s]`, then one `tma.load → full[s]` per payload |
//! | `tawa.get` feeding a dot | the dot's stage *acquire*: `mbarrier.wait full[s]` |
//! | `tile.dot` | the stage *issue*: `wgmma` over the warp group's share of the rows |
//! | `tawa.dot_wait` | the stage *wait*: `wgmma.wait` with `P-1` groups left in flight |
//! | `tawa.consumed` | the stage *release*: `mbarrier.arrive empty[s]` |
//! | prologue `tile.tma_load` | `tma.load → sync_i`, `mbarrier.wait sync_i` |
//! | other producer ops | one `cuda.op` of 32 flops per op, before and in the loop |
//! | other consumer ops | one `cuda.op` per prologue, loop body and epilogue, summed from each op's schema cost rule |
//! | consumer epilogue stores | one `tma.store` of the stored bytes |
//!
//! A dot's ring is the aref whose `get` feeds it, traced back through view
//! ops. Slot indices are made static by unrolling cyclic loops by `D`
//! (exactly why Triton unrolls pipelined loops by `num_stages`), with
//! parameterized trip counts for CTA classes whose loops differ (causal
//! attention).
//!
//! The consumer schedules are orderings of the same stage fragments, one
//! per multi-granularity pipeline of §III-D:
//!
//! * **fine-grained** (single-dot loops): acquire, issue, wait with `P-1`
//!   pending, release the slot of iteration `k-P+1`; the first `P-1`
//!   iterations are peeled without wait or release and drained at the end;
//! * **coarse-grained T/C/U** (Algorithm 1): T₀ and C₀ run ahead, then each
//!   steady-state iteration issues `U_{j-1}` before `T_j`, so the CUDA-core
//!   softmax of iteration `j` overlaps the downstream Tensor Core stage of
//!   iteration `j-1`, and `U_{N-1}` drains last;
//! * **serial T/C/U** (the ablation with the coarse pipeline off): each
//!   stage runs to completion in program order.
//!
//! Known defect (ROADMAP 13(a)): every cooperative consumer warp group
//! runs the same program, so a `coop = 2` kernel loads its prologue tiles
//! (attention's Q) once per warp group. Fixing it changes the simulated
//! reports of every cooperative attention kernel, which the benchmark's
//! golden reports pin, so it lands together with their re-bless; the fix
//! touches only the prologue-load translation in [`lower_ws`].
//!
//! [`lower_simt`] is the **non-warp-specialized** code generator used for
//! the Triton baseline: Ampere-style `cp.async` software pipelining
//! executed by uniform warp groups (§II-B), which is what Triton emits
//! without this work. It shares the region split, the trip-count
//! evaluation and the CTA-class assembly.

use gpu_sim::Device;
use tawa_ir::analysis::{loop_info, LoopInfo};
use tawa_ir::func::{Func, Module, ValueDef};
use tawa_ir::op::{OpClass, OpId, OpKind, ValueId};
use tawa_ir::spec::LaunchSpec;
use tawa_ir::types::{DType, Type};
use tawa_wsir::{BarId, Count, CtaClass, Instr, Kernel, MmaDtype, Role};

use crate::consteval::ConstEval;
use crate::pipeline::warp_group_loop;

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

    /// One CTA class per launch class, carrying its interned parameters.
    fn classes(self, spec: &LaunchSpec) -> Vec<CtaClass> {
        spec.classes
            .iter()
            .zip(self.values)
            .map(|(c, params)| CtaClass {
                params,
                multiplicity: c.multiplicity,
            })
            .collect()
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

impl DotShape {
    /// The WGMMA computing `m` of the dot's rows.
    fn issue(self, m: u32) -> Instr {
        Instr::WgmmaIssue {
            m,
            n: self.n,
            k: self.k,
            dtype: self.dtype,
        }
    }
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

/// Bytes of the tile `op` loads.
fn result_bytes(f: &Func, op: OpId) -> u64 {
    f.results(op)
        .first()
        .map_or(0, |&v| f.ty(v).size_bytes() as u64)
}

/// A straight-line run of ops — a prologue, a loop body, an epilogue —
/// translated op by op into what its instructions need: the CUDA-core
/// work of each op's schema cost rule ([`tawa_ir::op::Cost`]), its
/// `tile.tma_load`s and dots, and the bytes it stores.
#[derive(Default)]
struct Tally {
    flops: u64,
    sfu: u64,
    loads: Vec<OpId>,
    dots: Vec<OpId>,
    store_bytes: u64,
}

impl Tally {
    /// Tallies `ops`; in a loop body (`tiles_only`), only ops producing a
    /// tile are CUDA-core work, so scalar index math is free.
    fn of(f: &Func, ops: &[OpId], tiles_only: bool) -> Tally {
        let numel =
            |v: Option<&ValueId>| v.and_then(|&v| f.ty(v).shape()).map(|s| s.numel() as u64);
        let mut t = Tally::default();
        for &op in ops {
            let data = f.op(op);
            match data.kind {
                OpKind::TmaLoad => t.loads.push(op),
                OpKind::Dot => t.dots.push(op),
                OpKind::Store | OpKind::TmaStore => {
                    t.store_bytes += data
                        .operands
                        .last()
                        .map_or(0, |&v| f.ty(v).size_bytes() as u64);
                }
                _ => {}
            }
            let result = data.results.first();
            if !tiles_only || result.is_some_and(|&r| f.ty(r).is_tensor()) {
                let (flops, sfu) = data
                    .kind
                    .spec()
                    .cost
                    .of(numel(result), numel(data.operands.first()));
                t.flops += flops;
                t.sfu += sfu;
            }
        }
        t
    }

    fn load_bytes(&self, f: &Func) -> u64 {
        self.loads.iter().map(|&o| result_bytes(f, o)).sum()
    }
}

/// A region cut at its main loop: the ops before it, the loop and the
/// ops after it. Both lowerings translate these three parts.
struct Split {
    pro: Vec<OpId>,
    lp: LoopInfo,
    epi: Vec<OpId>,
}

impl Split {
    /// Cuts the block holding `lp` around it; `malformed` is the error
    /// when `lp` is not a loop [`loop_info`] can read.
    fn at(f: &Func, lp: OpId, malformed: &str) -> Result<Split, CompileError> {
        let info = loop_info(f, lp).ok_or_else(|| unsupported(malformed))?;
        let ops = f.op(lp).parent.map_or(&[][..], |b| &f.block(b).ops[..]);
        let at = ops.iter().position(|&o| o == lp).unwrap_or(ops.len());
        Ok(Split {
            pro: ops[..at].to_vec(),
            lp: info,
            epi: ops.get(at + 1..).unwrap_or_default().to_vec(),
        })
    }

    /// The loop's trip count in each CTA class.
    fn trips(&self, f: &Func, spec: &LaunchSpec) -> Result<Vec<u64>, CompileError> {
        let (lo, hi, step) = (self.lp.lo, self.lp.hi, self.lp.step);
        spec.classes
            .iter()
            .map(|c| {
                ConstEval::new(f, spec, c.pid)
                    .trip_count(lo, hi, step)
                    .ok_or_else(|| {
                        // Blame the author's loop bound when it carries a span.
                        let msg = "loop bounds are not launch-constant";
                        unsupported(match f.value_loc(hi) {
                            Some(loc) => format!("{msg} (bound defined at {loc})"),
                            None => msg.into(),
                        })
                    })
            })
            .collect()
    }
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

fn unsupported(msg: impl Into<String>) -> CompileError {
    CompileError::Unsupported(msg.into())
}

/// Formats an unsupported-construct error, pointing at the tile-program
/// source line when the op (or its clone lineage) carries a frontend
/// [`tawa_ir::loc::Loc`].
fn unsupported_at(f: &Func, op: OpId, msg: &str) -> CompileError {
    match f.loc(op) {
        Some(loc) => unsupported(format!("{msg} (at {loc})")),
        None => unsupported(msg),
    }
}

/// An aref lowered to a ring: `D` full and `D` empty barriers, and the
/// bytes of each payload tensor.
struct Ring {
    aref: ValueId,
    full: Vec<BarId>,
    empty: Vec<BarId>,
    payload: Vec<u64>,
}

/// The ring whose `get` feeds `dot`, traced back through view ops.
fn feeding_ring<'r>(f: &Func, rings: &'r [Ring], dot: OpId) -> Option<&'r Ring> {
    let mut frontier: Vec<ValueId> = f.op(dot).operands.get(..2)?.to_vec();
    for _ in 0..64 {
        if let ValueDef::OpResult { op, .. } = f.value(frontier.pop()?).def {
            let data = f.op(op);
            if data.kind == OpKind::ArefGet {
                return rings
                    .iter()
                    .find(|r| Some(&r.aref) == data.operands.first());
            }
            if data.kind.class() == OpClass::View {
                frontier.extend(data.operands.first());
            }
        }
    }
    None
}

/// A Tensor Core stage of the consumer loop bound to its ring: the
/// fragments — acquire, issue, wait, release — every schedule orders.
struct Stage<'r> {
    ring: &'r Ring,
    issue: Instr,
}

impl Stage<'_> {
    /// `tawa.get`: wait until slot `s` is full.
    fn acquire(&self, s: usize) -> Instr {
        Instr::MbarWait {
            bar: self.ring.full[s],
        }
    }

    /// `tawa.consumed`: hand slot `s` back to the producer.
    fn release(&self, s: usize) -> Instr {
        Instr::MbarArrive {
            bar: self.ring.empty[s],
        }
    }

    /// The stage run to completion on slot `s`.
    fn sync(&self, s: usize) -> [Instr; 4] {
        [
            self.acquire(s),
            self.issue.clone(),
            Instr::WgmmaWait { pending: 0 },
            self.release(s),
        ]
    }
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

/// The last step of both lowerings: the launch header and CTA classes,
/// then the structural check.
fn finish(
    mut kernel: Kernel,
    spec: &LaunchSpec,
    opts: &CompileOptions,
    classes: Vec<CtaClass>,
) -> Result<Kernel, CompileError> {
    kernel.launch_overhead_ns = opts.launch_overhead_ns;
    kernel.useful_flops = spec.useful_flops;
    kernel.classes = classes;
    tawa_wsir::validate(&kernel)
        .map_err(|e| unsupported(format!("generated invalid WSIR: {e:?}")))?;
    Ok(kernel)
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
    let d = opts.aref_depth;
    let coop = opts.cooperative.clamp(1, 2);
    let per_wg = |x: u64| x / coop as u64;
    let mut kernel = Kernel::new(&f.name);

    // ---- rings: one per `tawa.create_aref` --------------------------------
    let top = &f.block(f.body_block()).ops;
    let mut rings = Vec::new();
    for &create in top.iter().filter(|&&o| f.op(o).kind == OpKind::CreateAref) {
        let Some(&aref) = f.results(create).first() else {
            continue;
        };
        let Type::Aref(_, payload) = f.ty(aref) else {
            let ty = f.ty(aref);
            return Err(unsupported(format!(
                "create_aref result {aref} has type {ty}"
            )));
        };
        let ai = rings.len();
        let (mut full, mut empty) = (Vec::new(), Vec::new());
        for s in 0..d {
            full.push(kernel.add_barrier(&format!("full{ai}_{s}"), payload.len() as u32));
            empty.push(kernel.add_barrier_init(&format!("empty{ai}_{s}"), coop as u32, 1));
        }
        // Thread the authoring span onto the barriers so static-analysis
        // diagnostics (races, deadlocks) point at the tile program's
        // `file:line`, not at the lowering.
        if let Some(loc) = f.loc(create) {
            for &bar in full.iter().chain(&empty) {
                kernel.set_bar_loc(bar, src_loc(loc));
            }
        }
        let payload = payload.iter().map(|t| t.size_bytes() as u64).collect();
        rings.push(Ring {
            aref,
            full,
            empty,
            payload,
        });
    }
    if rings.is_empty() {
        return Err(unsupported("no arefs: run warp-specialize first"));
    }

    // ---- the two warp groups, each cut at its loop -------------------------
    let warp_group = |role: &str| {
        top.iter()
            .copied()
            .find(|&o| f.op(o).kind == OpKind::WarpGroup && f.op(o).attrs.str("role") == Some(role))
            .ok_or_else(|| unsupported(format!("missing {role} warp group")))
    };
    let (producer, consumer) = (warp_group("producer")?, warp_group("consumer")?);
    let split = |wg: OpId, role: &str| {
        let lp =
            warp_group_loop(f, wg).ok_or_else(|| unsupported(format!("{role} has no loop")))?;
        Split::at(f, lp, &format!("malformed {role} loop"))
    };
    let (prod, cons) = (split(producer, "producer")?, split(consumer, "consumer")?);

    // ---- the consumer loop's stages: its first dot T and second dot U ------
    let body = Tally::of(f, &cons.lp.body_ops, true);
    if body.dots.is_empty() {
        return Err(unsupported_at(f, cons.lp.op, "consumer loop has no dot"));
    }
    let shapes: Vec<DotShape> = body
        .dots
        .iter()
        .map(|&dot| dot_shape(f, dot))
        .collect::<Result<_, _>>()?;
    let (t, u) = (shapes[0], shapes.get(1).copied());
    let t_ring = feeding_ring(f, &rings, body.dots[0])
        .ok_or_else(|| unsupported("T dot does not consume an aref payload"))?;
    let u_ring = body
        .dots
        .get(1)
        .and_then(|&dot| feeding_ring(f, &rings, dot));

    // Prefer the pipeline depth recorded in the IR by the fine-grained
    // pipelining pass (paper Fig. 2c's `pendings` annotation).
    let attrs = &f.op(consumer).attrs;
    let p = attrs
        .int("mma_depth")
        .map_or(opts.mma_depth, |p| p as usize);
    if p > d {
        return Err(CompileError::Infeasible(format!(
            "MMA pipeline depth P={p} exceeds aref depth D={d}: a slot would \
             be recycled while its WGMMA is still in flight"
        )));
    }
    if t.m % coop as u32 != 0 {
        return Err(unsupported(format!(
            "tile rows {} not divisible among {coop} cooperative warp groups",
            t.m
        )));
    }
    let trips = cons.trips(f, spec)?;
    let uniform_n = trips.windows(2).all(|w| w[0] == w[1]);
    let mut params = ClassParams::new(spec.classes.len());

    // ---- producer: each `tawa.put` fills its ring's slot -------------------
    let (mut puts, mut addr_ops) = (Vec::new(), 0u64);
    for &op in &prod.lp.body_ops {
        match f.op(op).kind {
            OpKind::ArefPut => {
                let aref = f.op(op).operands.first();
                puts.extend(rings.iter().find(|r| Some(&r.aref) == aref));
            }
            // A put's payload load is the TMA the put issues.
            OpKind::TmaLoad => {}
            _ => addr_ops += 1,
        }
    }
    let mut prod_prog = vec![Instr::SetMaxNReg { regs: 24 }];
    let setup_ops = (prod.pro.len() + prod.epi.len()) as u64;
    if setup_ops > 0 {
        prod_prog.push(Instr::CudaOp {
            flops: setup_ops * 32,
            sfu: 0,
            label: "producer-prologue",
        });
    }
    emit_cyclic(&mut prod_prog, &trips, d, 0, &mut params, |s, out| {
        if addr_ops > 0 {
            out.push(Instr::CudaOp {
                flops: addr_ops * 32,
                sfu: 0,
                label: "addr-gen",
            });
        }
        for ring in &puts {
            out.push(Instr::MbarWait { bar: ring.empty[s] });
            let bar = ring.full[s];
            out.extend(
                ring.payload
                    .iter()
                    .map(|&bytes| Instr::TmaLoad { bytes, bar }),
            );
        }
    });

    // ---- consumer prologue -------------------------------------------------
    let mut cons_prog = Vec::new();
    let pro = Tally::of(f, &cons.pro, false);
    // Each prologue `tile.tma_load` is a synchronous load on its own
    // barrier. Every cooperative warp group runs this program, so with
    // `coop = 2` each tile is loaded twice (ROADMAP 13(a), see the module
    // docs); the fix belongs here, together with a re-bless of the golden
    // simulation reports it moves.
    for (i, &load) in pro.loads.iter().enumerate() {
        let bar = kernel.add_barrier(&format!("sync{i}"), 1);
        if let Some(loc) = f.loc(load) {
            kernel.set_bar_loc(bar, src_loc(loc));
        }
        let bytes = result_bytes(f, load);
        cons_prog.extend([Instr::TmaLoad { bytes, bar }, Instr::MbarWait { bar }]);
    }
    if pro.flops > 0 {
        cons_prog.push(Instr::CudaOp {
            flops: per_wg(pro.flops),
            sfu: 0,
            label: "consumer-prologue",
        });
    }

    // ---- consumer loop: a schedule of the stages' fragments ----------------
    let m_wg = t.m / coop as u32;
    let t_st = Stage {
        ring: t_ring,
        issue: t.issue(m_wg),
    };
    let u_st = u.zip(u_ring).map(|(u, ring)| Stage {
        ring,
        issue: u.issue(m_wg),
    });
    let transform = |label| Instr::CudaOp {
        flops: per_wg(body.flops),
        sfu: per_wg(body.sfu),
        label,
    };
    let wait = |pending| Instr::WgmmaWait { pending };
    let coarse = opts.coarse_pipeline && attrs.str("pipeline") == Some("coarse");
    match u_st {
        Some(u_st) if coarse => {
            // Coarse-grained T/C/U (Algorithm 1).
            if trips.contains(&0) {
                return Err(unsupported(
                    "coarse pipeline requires at least one iteration per class",
                ));
            }
            // Prologue: T0 to completion, then C0.
            cons_prog.extend(t_st.sync(0));
            cons_prog.push(transform("softmax"));
            // Steady state over iterations 1..N.
            let steady: Vec<u64> = trips.iter().map(|&n| n - 1).collect();
            emit_cyclic(&mut cons_prog, &steady, d, 1 % d, &mut params, |s, out| {
                let prev = (s + d - 1) % d;
                // U_{j-1}'s operands (P_{j-1} and V_{j-1}) are ready before
                // T_j's K tile, so U is enqueued first: its aref slot frees
                // one WGMMA earlier, keeping the producer's V prefetch
                // unstalled.
                out.extend([u_st.acquire(prev), u_st.issue.clone()]);
                out.extend([t_st.acquire(s), t_st.issue.clone(), wait(1)]);
                out.extend([u_st.release(prev), wait(0), t_st.release(s)]);
                out.push(transform("softmax"));
            });
            // Epilogue: U_{N-1}; its slot (N-1) mod D differs per class, so
            // emit D guarded variants of which exactly one runs.
            for v in 0..d {
                let guard: Vec<u64> = trips
                    .iter()
                    .map(|&n| u64::from((n - 1) % d as u64 == v as u64))
                    .collect();
                if guard.iter().any(|&g| g > 0) {
                    cons_prog.push(Instr::Loop {
                        count: params.alloc(&guard),
                        body: u_st.sync(v).to_vec(),
                    });
                }
            }
        }
        // Serial T/C/U (coarse pipeline disabled: the ablation).
        Some(u_st) => emit_cyclic(&mut cons_prog, &trips, d, 0, &mut params, |s, out| {
            out.extend(t_st.sync(s));
            out.push(transform("softmax"));
            out.extend(u_st.sync(s));
        }),
        // Fine-grained: up to P WGMMA groups in flight.
        None => {
            if !uniform_n {
                return Err(unsupported(
                    "fine-grained pipeline requires a uniform trip count",
                ));
            }
            let n = trips.first().copied().unwrap_or(0);
            let peel = (p.min(n.max(1) as usize).max(1) - 1) as u64;
            let head = |s: usize, out: &mut Vec<Instr>| {
                out.push(t_st.acquire(s));
                if per_wg(body.flops) + per_wg(body.sfu) > 0 {
                    out.push(transform("iter-transform"));
                }
                out.push(t_st.issue.clone());
            };
            // Peeled head: fill the MMA pipeline without waits/releases.
            for k in 0..peel.min(n) {
                head((k % d as u64) as usize, &mut cons_prog);
            }
            // Steady state: issue, bounded wait, release slot k-P+1.
            let steady: Vec<u64> = trips.iter().map(|&x| x - peel.min(x)).collect();
            let start = (peel % d as u64) as usize;
            emit_cyclic(&mut cons_prog, &steady, d, start, &mut params, |s, out| {
                head(s, out);
                out.push(wait(peel as u32));
                out.push(t_st.release((s + d - (peel as usize % d)) % d));
            });
            // Drain: wait for the last P-1 MMAs and release their slots.
            cons_prog.push(wait(0));
            for k in n - peel.min(n)..n {
                cons_prog.push(t_st.release((k % d as u64) as usize));
            }
        }
    }

    // ---- consumer epilogue -------------------------------------------------
    let epi = Tally::of(f, &cons.epi, false);
    if per_wg(epi.flops) + per_wg(epi.sfu) > 0 {
        cons_prog.push(Instr::CudaOp {
            flops: per_wg(epi.flops),
            sfu: per_wg(epi.sfu),
            label: "epilogue",
        });
    }
    if per_wg(epi.store_bytes) > 0 {
        cons_prog.push(Instr::TmaStore {
            bytes: per_wg(epi.store_bytes),
        });
    }

    // ---- resources -----------------------------------------------------------
    let aref_smem: u64 = rings
        .iter()
        .map(|r| r.payload.iter().sum::<u64>() * d as u64)
        .sum();
    let barrier_smem = (kernel.barriers.len() * 8) as u64;
    kernel.smem_bytes = aref_smem + pro.load_bytes(f) + epi.store_bytes + barrier_smem;
    if kernel.smem_bytes > device.smem_per_sm {
        return Err(CompileError::Infeasible(format!(
            "shared memory {} B exceeds the SM's {} B (D too deep for this tile)",
            kernel.smem_bytes, device.smem_per_sm
        )));
    }
    let rows = m_wg as u64;
    let c_regs = match u {
        Some(u) => consumer_regs(rows * u.n as u64, rows * u.k as u64)?,
        None => consumer_regs(rows * t.n as u64, 0)?,
    };
    kernel.add_warp_group(Role::Producer, 24, prod_prog);
    for _ in 0..coop {
        kernel.add_warp_group(Role::Consumer, c_regs, cons_prog.clone());
    }
    if !opts.persistent {
        return finish(kernel, spec, opts, params.classes(spec));
    }

    // ---- persistence: each resident CTA loops over its share of the grid ----
    if !uniform_n {
        return Err(unsupported(
            "persistent kernels require uniform trip counts",
        ));
    }
    let occ = device.occupancy(&kernel).max(1) as u64;
    let grid = spec.grid_size();
    let resident = (device.sms as u64 * occ).min(grid).max(1);
    let (full, rem) = (grid / resident, grid % resident);
    for wg in &mut kernel.warp_groups {
        let body = std::mem::take(&mut wg.body);
        wg.body = vec![Instr::Loop {
            count: Count::Param(0),
            body,
        }];
    }
    kernel.persistent = true;
    let mut classes = Vec::new();
    if rem > 0 {
        classes.push(CtaClass {
            params: vec![full + 1],
            multiplicity: rem,
        });
    }
    if resident - rem > 0 && full > 0 {
        classes.push(CtaClass {
            params: vec![full],
            multiplicity: resident - rem,
        });
    }
    finish(kernel, spec, opts, classes)
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
    let main_loop = top_level_loops_with_loads(f)
        .ok_or_else(|| unsupported("no TMA-load-bearing loop in kernel"))?;
    let split = Split::at(f, main_loop, "malformed main loop")?;
    let body = Tally::of(f, &split.lp.body_ops, true);
    let dots: Vec<DotShape> = body
        .dots
        .iter()
        .map(|&o| dot_shape(f, o))
        .collect::<Result<_, _>>()?;
    if dots.is_empty() {
        return Err(unsupported("loop has no dot"));
    }
    let loads = body.load_bytes(f);
    let prologue_loads: Vec<u64> = Tally::of(f, &split.pro, false)
        .loads
        .iter()
        .map(|&o| result_bytes(f, o))
        .collect();
    let epi = Tally::of(f, &split.epi, false);
    let trips = split.trips(f, spec)?;
    let min_n = trips.iter().copied().min().unwrap_or(0);
    let stages = opts.sw_stages.max(1).min(min_n.max(1) as usize);
    let mut params = ClassParams::new(spec.classes.len());

    // Two uniform warp groups split the tile rows (num_warps = 8).
    const WGS: u64 = 2;
    let (iter_flops, iter_sfu) = (body.flops, body.sfu);
    let iter_load_bytes = loads / WGS;
    // Without TMA, Triton materializes a per-element pointer tensor (and
    // bounds masks) for every tile it copies: ~3 integer ops per element.
    let addr_flops = 3 * loads / dots[0].dtype.size_bytes() / WGS;
    let addr_gen = || Instr::CudaOp {
        flops: addr_flops.max(512),
        sfu: 0,
        label: "addr-gen",
    };
    let transform = |label| Instr::CudaOp {
        flops: iter_flops / WGS,
        sfu: iter_sfu / WGS,
        label,
    };
    let mmas = |out: &mut Vec<Instr>, dots: &[DotShape]| {
        for dot in dots {
            out.extend([
                dot.issue(dot.m / WGS as u32),
                Instr::WgmmaWait { pending: 0 },
            ]);
        }
    };
    let mut body = vec![
        addr_gen(),
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
        mmas(&mut body, &dots[..1]);
        body.push(transform("softmax"));
        mmas(&mut body, &dots[1..2]);
    } else {
        if iter_flops + iter_sfu > 0 {
            body.push(transform("iter-transform"));
        }
        mmas(&mut body, &dots);
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
        wg.push(addr_gen());
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
    let mut drain = vec![Instr::CpAsyncWait { pending: 0 }, Instr::Syncthreads];
    mmas(&mut drain, &dots);
    if iter_flops + iter_sfu > 0 {
        drain.push(transform("drain-transform"));
    }
    if stages > 1 {
        wg.push(Instr::loop_const(stages as u64 - 1, drain));
    }
    if epi.flops + epi.sfu > 0 {
        wg.push(Instr::CudaOp {
            flops: epi.flops / WGS,
            sfu: epi.sfu / WGS,
            label: "epilogue",
        });
    }
    if epi.store_bytes > 0 {
        wg.push(Instr::GlobalStore {
            bytes: epi.store_bytes / WGS,
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
    let mut kernel = Kernel::new(&format!("{}_simt", f.name));
    kernel.add_warp_group(Role::Uniform, regs, wg.clone());
    kernel.add_warp_group(Role::Uniform, regs, wg);

    kernel.smem_bytes = stages as u64 * loads + prologue_loads.iter().sum::<u64>() + 1024;
    if kernel.smem_bytes > device.smem_per_sm {
        return Err(CompileError::Infeasible(format!(
            "shared memory {} B exceeds the SM's {} B",
            kernel.smem_bytes, device.smem_per_sm
        )));
    }
    finish(kernel, spec, opts, params.classes(spec))
}

/// First top-level loop containing a TMA load. A loop without a region (a
/// malformed module) contains none.
fn top_level_loops_with_loads(f: &Func) -> Option<OpId> {
    tawa_ir::analysis::top_level_loops(f)
        .into_iter()
        .find(|&l| {
            let mut has = false;
            for &region in &f.op(l).regions {
                f.walk_region(region, &mut |o| has |= f.op(o).kind == OpKind::TmaLoad);
            }
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

    #[test]
    fn the_pipeline_depth_recorded_in_the_ir_is_checked_against_d() {
        let program = gemm(&GemmConfig::new(512, 512, 256));
        let mut module = program.module().clone();
        WarpSpecialize { depth: 2 }.run(&mut module).unwrap();
        FineGrainedPipeline { depth: 3 }.run(&mut module).unwrap();
        // The options say P = 2, but the IR's `mma_depth = 3` wins.
        let opts = CompileOptions::default();
        match lower_ws(&module, program.spec(), &opts, &Device::h100_sxm5()) {
            Err(CompileError::Infeasible(msg)) => {
                assert!(
                    msg.starts_with("MMA pipeline depth P=3 exceeds aref depth D=2"),
                    "{msg}"
                );
            }
            other => panic!("expected Infeasible, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_loop_without_a_region_is_an_error_not_a_panic() {
        let parse = |text: &str| tawa_ir::parse::parse_module(text).unwrap();
        let spec = LaunchSpec::uniform(Vec::new(), 1, 0.0);
        let (opts, dev) = (CompileOptions::default(), Device::h100_sxm5());
        let simt = parse(
            "module {
               func @f() {
                 %0 = arith.const_int() {value = 0} : i32
                 scf.for(%0, %0, %0)
               }
             }",
        );
        match lower_simt(&simt, &spec, &opts, &dev) {
            Err(CompileError::Unsupported(msg)) => assert!(msg.contains("no TMA"), "{msg}"),
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
        let ws = parse(
            "module {
               func @f() {
                 %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<64x64xf16>>>
                 tawa.warp_group() {partition = 0, role = \"producer\"} {
                   ^bb():
                     %1 = arith.const_int() {value = 0} : i32
                     scf.for(%1, %1, %1)
                 }
                 tawa.warp_group() {partition = 1, role = \"consumer\"} {
                   ^bb():
                     %2 = arith.const_int() {value = 0} : i32
                     scf.for(%2, %2, %2)
                 }
               }
             }",
        );
        match lower_ws(&ws, &spec, &opts, &dev) {
            Err(CompileError::Unsupported(msg)) => {
                assert_eq!(msg, "malformed producer loop");
            }
            other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
        }
    }
}
