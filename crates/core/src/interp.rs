//! Functional interpreter for the tile IR, including warp-specialized
//! programs.
//!
//! The interpreter executes kernels on real data to validate that the
//! compiler's transformations are semantics-preserving: a partitioned,
//! pipelined program must compute bit-for-bit what the original SIMT
//! program computes. Warp groups run as cooperatively scheduled threads of
//! a round-robin scheduler that block on `aref` operations according to the
//! formal semantics of Fig. 4 ([`crate::aref::ArefRing`]) — so the
//! interpreter also *dynamically* checks deadlock freedom of the generated
//! communication structure.

use std::collections::HashMap;

use tawa_ir::func::Func;
use tawa_ir::op::{BlockId, CmpPred, OpId, OpKind, ValueId};
use tawa_ir::spec::{LaunchSpec, ParamValue};
use tawa_ir::types::{DType, Type};

use crate::aref::ArefRing;

/// A dense tensor value (f32 storage regardless of declared precision; the
/// declared dtype is kept for layout/size semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorVal {
    /// Shape.
    pub shape: Vec<usize>,
    /// Declared element type.
    pub dtype: DType,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl TensorVal {
    /// Creates a zero tensor.
    pub fn zeros(shape: Vec<usize>, dtype: DType) -> TensorVal {
        let n = shape.iter().product();
        TensorVal {
            shape,
            dtype,
            data: vec![0.0; n],
        }
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Integer scalar.
    I(i64),
    /// Float scalar.
    F(f64),
    /// Boolean scalar.
    B(bool),
    /// Tensor.
    T(TensorVal),
}

impl Val {
    fn as_i(&self) -> i64 {
        match self {
            Val::I(v) => *v,
            other => panic!("expected int scalar, got {other:?}"),
        }
    }

    fn as_tensor(&self) -> &TensorVal {
        match self {
            Val::T(t) => t,
            other => panic!("expected tensor, got {other:?}"),
        }
    }
}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError {
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interpreter error: {}", self.msg)
    }
}

impl std::error::Error for InterpError {}

fn ierr(msg: impl Into<String>) -> InterpError {
    InterpError { msg: msg.into() }
}

/// Global memory for a launch: one f32 buffer per `Global` parameter.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    /// Buffers indexed by parameter position.
    pub buffers: HashMap<usize, TensorVal>,
}

impl DeviceMemory {
    /// Allocates zeroed buffers for every global in the spec.
    pub fn from_spec(spec: &LaunchSpec) -> DeviceMemory {
        let mut buffers = HashMap::new();
        for (i, p) in spec.params.iter().enumerate() {
            if let ParamValue::Global { shape, dtype } = p {
                buffers.insert(i, TensorVal::zeros(shape.clone(), *dtype));
            }
        }
        DeviceMemory { buffers }
    }

    /// Fills buffer `i` with values from `f(linear_index)`.
    pub fn fill(&mut self, i: usize, f: impl Fn(usize) -> f32) {
        let buf = self.buffers.get_mut(&i).expect("global buffer exists");
        for (j, v) in buf.data.iter_mut().enumerate() {
            *v = f(j);
        }
    }

    /// Read-only access to buffer `i`.
    pub fn buffer(&self, i: usize) -> &TensorVal {
        &self.buffers[&i]
    }
}

/// Executes every CTA of `spec`'s grid over `mem`.
///
/// # Errors
/// Reports protocol violations (aref misuse), deadlocks, unsupported ops,
/// and buffers too large for exact functional addressing.
pub fn run_grid(f: &Func, spec: &LaunchSpec, mem: &mut DeviceMemory) -> Result<(), InterpError> {
    for buf in mem.buffers.values() {
        if buf.numel() as f32 >= PARAM_STRIDE {
            return Err(ierr(format!(
                "functional interpretation supports buffers up to {} elements \
                 (got {}); use smaller shapes for numeric validation",
                PARAM_STRIDE as u64,
                buf.numel()
            )));
        }
    }
    for class in &spec.classes {
        // Enumerate concrete pids for the class. Classes either pin pid[0]
        // (causal attention row tiles, spanning axis 1), or span the whole
        // grid (uniform).
        for r in 0..class.multiplicity {
            let pid = expand_pid(class.pid, r, spec);
            run_cta(f, spec, pid, mem)?;
        }
    }
    Ok(())
}

/// Reconstructs the concrete `program_id` triple for replica `r` of a
/// class, laying replicas out over the grid axes of `spec.grid_dims`.
fn expand_pid(base: [i64; 3], r: u64, spec: &LaunchSpec) -> [i64; 3] {
    let g = spec.grid_dims;
    if spec.classes.len() > 1 {
        // Pinned pid0 (per-row-tile classes): replicas span axis 1.
        [base[0], (r % g[1].max(1)) as i64, base[2]]
    } else {
        let p0 = r % g[0].max(1);
        let p1 = (r / g[0].max(1)) % g[1].max(1);
        [base[0] + p0 as i64, base[1] + p1 as i64, base[2]]
    }
}

struct Interp<'a> {
    f: &'a Func,
    spec: &'a LaunchSpec,
    pid: [i64; 3],
    env: HashMap<ValueId, Val>,
}

impl<'a> Interp<'a> {
    fn get(&self, v: ValueId) -> Result<Val, InterpError> {
        self.env
            .get(&v)
            .cloned()
            .ok_or_else(|| ierr(format!("value {v} not evaluated")))
    }
}

/// Runs one CTA. Warp-specialized functions execute their warp groups as
/// cooperatively scheduled threads communicating through `ArefRing`s;
/// plain functions execute straight-line.
pub fn run_cta(
    f: &Func,
    spec: &LaunchSpec,
    pid: [i64; 3],
    mem: &mut DeviceMemory,
) -> Result<(), InterpError> {
    let mut it = Interp {
        f,
        spec,
        pid,
        env: HashMap::new(),
    };
    // Bind parameters.
    for (i, (&p, pv)) in f.params().iter().zip(spec.params.iter()).enumerate() {
        let v = match pv {
            ParamValue::Int(x) => Val::I(*x),
            ParamValue::Global { .. } => Val::I(i as i64), // param index as handle
        };
        it.env.insert(p, v);
    }

    let body = f.body_block();
    let ops = f.block(body).ops.clone();
    // Allocate aref rings declared at the top level, collect warp groups.
    let mut rings: HashMap<ValueId, ArefRing<Vec<TensorVal>>> = HashMap::new();
    let mut wg_ops: Vec<OpId> = Vec::new();
    for &op in &ops {
        if f.op(op).dead {
            continue;
        }
        match f.op(op).kind {
            OpKind::CreateAref => {
                let depth = f.op(op).attrs.int("depth").unwrap_or(1) as usize;
                rings.insert(f.result(op), ArefRing::new(depth));
            }
            OpKind::WarpGroup => wg_ops.push(op),
            _ => {}
        }
    }

    // Non-specialized kernels run as a single thread over the body; warp
    // groups run as cooperatively scheduled threads over the aref rings.
    let mut threads: Vec<WgThread> = if wg_ops.is_empty() {
        vec![WgThread::new(f, body)]
    } else {
        wg_ops
            .iter()
            .map(|&wg| WgThread::new(f, f.entry_block(f.op(wg).regions[0])))
            .collect()
    };
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for th in &mut threads {
            if th.done {
                continue;
            }
            all_done = false;
            match th.run_until_block(&mut it, mem, &mut rings)? {
                StepOutcome::Progress => progressed = true,
                StepOutcome::Blocked => {}
            }
        }
        if all_done {
            return Ok(());
        }
        if !progressed {
            return Err(ierr("deadlock: all warp groups blocked on aref operations"));
        }
    }
}

enum StepOutcome {
    Progress,
    Blocked,
}

/// A warp group executing as a resumable thread over nested loop frames.
struct WgThread {
    frames: Vec<WgFrame>,
    done: bool,
}

struct WgFrame {
    block: BlockId,
    pc: usize,
    /// Loop bookkeeping: `(loop_op, current_iv, remaining_trips)`.
    looping: Option<(OpId, i64, u64)>,
}

impl WgThread {
    fn new(_f: &Func, block: BlockId) -> WgThread {
        WgThread {
            frames: vec![WgFrame {
                block,
                pc: 0,
                looping: None,
            }],
            done: false,
        }
    }

    /// Executes ops until the thread blocks on an aref or finishes.
    fn run_until_block(
        &mut self,
        it: &mut Interp<'_>,
        mem: &mut DeviceMemory,
        rings: &mut HashMap<ValueId, ArefRing<Vec<TensorVal>>>,
    ) -> Result<StepOutcome, InterpError> {
        let mut progressed = false;
        loop {
            let Some(frame) = self.frames.last_mut() else {
                self.done = true;
                return Ok(StepOutcome::Progress);
            };
            let ops = &it.f.block(frame.block).ops;
            if frame.pc >= ops.len() {
                // Block exhausted: loop backedge or frame pop.
                if let Some((loop_op, iv, remaining)) = frame.looping {
                    let step = it.get(it.f.op(loop_op).operands[2])?.as_i();
                    if remaining > 1 {
                        let new_iv = iv + step;
                        frame.pc = 0;
                        frame.looping = Some((loop_op, new_iv, remaining - 1));
                        bind_loop_iteration(it, loop_op, frame.block, new_iv)?;
                        continue;
                    }
                    // Loop done: bind results from final iter args.
                    finish_loop(it, loop_op, frame.block)?;
                }
                self.frames.pop();
                if self.frames.is_empty() {
                    self.done = true;
                    return Ok(StepOutcome::Progress);
                }
                continue;
            }
            let op = ops[frame.pc];
            if it.f.op(op).dead {
                frame.pc += 1;
                continue;
            }
            match it.f.op(op).kind {
                OpKind::For => {
                    let lo = it.get(it.f.op(op).operands[0])?.as_i();
                    let hi = it.get(it.f.op(op).operands[1])?.as_i();
                    let step = it.get(it.f.op(op).operands[2])?.as_i();
                    let trips = if step > 0 && hi > lo {
                        ((hi - lo + step - 1) / step) as u64
                    } else {
                        0
                    };
                    frame.pc += 1;
                    if trips == 0 {
                        // Results = inits.
                        let inits = it.f.op(op).operands[3..].to_vec();
                        let results = it.f.results(op).to_vec();
                        for (&i, &r) in inits.iter().zip(results.iter()) {
                            let v = it.get(i)?;
                            it.env.insert(r, v);
                        }
                        continue;
                    }
                    let body = it.f.entry_block(it.f.op(op).regions[0]);
                    // Bind iter args to inits and iv to lo.
                    let args = it.f.block(body).args.clone();
                    it.env.insert(args[0], Val::I(lo));
                    for (a, &init) in args[1..].iter().zip(it.f.op(op).operands[3..].iter()) {
                        let v = it.get(init)?;
                        it.env.insert(*a, v);
                    }
                    self.frames.push(WgFrame {
                        block: body,
                        pc: 0,
                        looping: Some((op, lo, trips)),
                    });
                    progressed = true;
                }
                OpKind::ArefPut => {
                    let aref = it.f.op(op).operands[0];
                    let ring = rings.get_mut(&aref).ok_or_else(|| ierr("unknown aref"))?;
                    if !ring.can_put() {
                        return Ok(if progressed {
                            StepOutcome::Progress
                        } else {
                            StepOutcome::Blocked
                        });
                    }
                    let payload: Vec<TensorVal> = it.f.op(op).operands[2..]
                        .iter()
                        .map(|&v| Ok(it.get(v)?.as_tensor().clone()))
                        .collect::<Result<_, InterpError>>()?;
                    let ring = rings.get_mut(&aref).expect("ring exists");
                    ring.put(payload)
                        .map_err(|e| ierr(format!("aref put: {e}")))?;
                    frame.pc += 1;
                    progressed = true;
                }
                OpKind::ArefGet => {
                    let aref = it.f.op(op).operands[0];
                    let ring = rings.get_mut(&aref).ok_or_else(|| ierr("unknown aref"))?;
                    if !ring.can_get() {
                        return Ok(if progressed {
                            StepOutcome::Progress
                        } else {
                            StepOutcome::Blocked
                        });
                    }
                    let payload = ring
                        .get()
                        .map_err(|e| ierr(format!("aref get: {e}")))?
                        .clone();
                    let results = it.f.results(op).to_vec();
                    for (r, t) in results.iter().zip(payload) {
                        it.env.insert(*r, Val::T(t));
                    }
                    frame.pc += 1;
                    progressed = true;
                }
                OpKind::ArefConsumed => {
                    let aref = it.f.op(op).operands[0];
                    let ring = rings.get_mut(&aref).ok_or_else(|| ierr("unknown aref"))?;
                    ring.consumed()
                        .map_err(|e| ierr(format!("aref consumed: {e}")))?;
                    frame.pc += 1;
                    progressed = true;
                }
                OpKind::Yield => {
                    // Stash yielded values onto the iter args for the next
                    // iteration (or final results at loop exit).
                    let (loop_op, _, _) = frame
                        .looping
                        .ok_or_else(|| ierr("yield outside of a loop frame"))?;
                    let yields = it.f.op(op).operands.clone();
                    let vals: Vec<Val> = yields
                        .iter()
                        .map(|&y| it.get(y))
                        .collect::<Result<_, _>>()?;
                    let body = it.f.entry_block(it.f.op(loop_op).regions[0]);
                    let args = it.f.block(body).args.clone();
                    for (a, v) in args[1..].iter().zip(vals) {
                        it.env.insert(*a, v);
                    }
                    frame.pc += 1;
                    progressed = true;
                }
                _ => {
                    exec_op(it, op, mem, rings)?;
                    frame.pc += 1;
                    progressed = true;
                }
            }
        }
    }
}

fn bind_loop_iteration(
    it: &mut Interp<'_>,
    loop_op: OpId,
    body: BlockId,
    iv: i64,
) -> Result<(), InterpError> {
    let _ = loop_op;
    let args = it.f.block(body).args.clone();
    it.env.insert(args[0], Val::I(iv));
    Ok(())
}

fn finish_loop(it: &mut Interp<'_>, loop_op: OpId, body: BlockId) -> Result<(), InterpError> {
    let args = it.f.block(body).args.clone();
    let results = it.f.results(loop_op).to_vec();
    for (&a, &r) in args[1..].iter().zip(results.iter()) {
        let v = it.get(a)?;
        it.env.insert(r, v);
    }
    Ok(())
}

fn scalar_binop(kind: OpKind, a: &Val, b: &Val) -> Result<Val, InterpError> {
    Ok(match (a, b) {
        (Val::I(x), Val::I(y)) => Val::I(int_binop(kind, *x, *y)?),
        (Val::F(x), Val::F(y)) => Val::F(float_binop(kind, *x, *y)),
        _ => return Err(ierr(format!("scalar binop type mismatch: {a:?} vs {b:?}"))),
    })
}

fn int_binop(kind: OpKind, x: i64, y: i64) -> Result<i64, InterpError> {
    kind.eval_int(x, y).ok_or_else(|| match kind {
        OpKind::Div => ierr("integer division by zero"),
        OpKind::Rem => ierr("integer remainder by zero"),
        other => ierr(format!("not an int binop: {other}")),
    })
}

fn float_binop(kind: OpKind, x: f64, y: f64) -> f64 {
    match kind {
        OpKind::Add => x + y,
        OpKind::Sub => x - y,
        OpKind::Mul => x * y,
        OpKind::Div => x / y,
        OpKind::Rem => x % y,
        OpKind::Min => x.min(y),
        OpKind::Max => x.max(y),
        _ => f64::NAN,
    }
}

fn tensor_binop(kind: OpKind, a: &TensorVal, b: &TensorVal) -> Result<TensorVal, InterpError> {
    if a.shape != b.shape {
        return Err(ierr(format!(
            "tensor binop shape mismatch {:?} vs {:?}",
            a.shape, b.shape
        )));
    }
    let mut out = a.clone();
    for (o, (&x, &y)) in out.data.iter_mut().zip(a.data.iter().zip(b.data.iter())) {
        *o = if a.dtype.is_int() {
            int_binop(kind, x as i64, y as i64)? as f32
        } else {
            float_binop(kind, x as f64, y as f64) as f32
        };
    }
    Ok(out)
}

fn broadcast_pair(kind: OpKind, a: &Val, b: &Val) -> Result<Val, InterpError> {
    match (a, b) {
        (Val::T(ta), Val::T(tb)) => Ok(Val::T(tensor_binop(kind, ta, tb)?)),
        (Val::T(ta), Val::I(s)) | (Val::I(s), Val::T(ta)) => {
            let mut sb = ta.clone();
            sb.data.fill(*s as f32);
            let (l, r) = if matches!(a, Val::T(_)) {
                (ta.clone(), sb)
            } else {
                (sb, ta.clone())
            };
            Ok(Val::T(tensor_binop(kind, &l, &r)?))
        }
        (Val::T(ta), Val::F(s)) | (Val::F(s), Val::T(ta)) => {
            let mut sb = ta.clone();
            sb.data.fill(*s as f32);
            let (l, r) = if matches!(a, Val::T(_)) {
                (ta.clone(), sb)
            } else {
                (sb, ta.clone())
            };
            Ok(Val::T(tensor_binop(kind, &l, &r)?))
        }
        _ => scalar_binop(kind, a, b),
    }
}

#[allow(clippy::too_many_lines)]
fn exec_op(
    it: &mut Interp<'_>,
    op: OpId,
    mem: &mut DeviceMemory,
    _rings: &mut HashMap<ValueId, ArefRing<Vec<TensorVal>>>,
) -> Result<(), InterpError> {
    let f = it.f;
    let data = f.op(op);
    let kind = data.kind;
    let operands = data.operands.clone();
    let result_val: Option<Val> = match kind {
        OpKind::ConstInt => Some(Val::I(data.attrs.int("value").unwrap_or(0))),
        OpKind::ConstFloat => Some(Val::F(data.attrs.float("value").unwrap_or(0.0))),
        OpKind::ConstTensor => {
            let ty = f.ty(f.result(op));
            let (shape, dtype) = match ty {
                Type::Tensor(s, d) => (s.0.clone(), *d),
                _ => return Err(ierr("const_tensor must be tensor-typed")),
            };
            let fill = data.attrs.float("value").unwrap_or(0.0) as f32;
            let mut t = TensorVal::zeros(shape, dtype);
            t.data.fill(fill);
            Some(Val::T(t))
        }
        OpKind::ProgramId => {
            let axis = data.attrs.int("axis").unwrap_or(0) as usize;
            Some(Val::I(it.pid[axis]))
        }
        OpKind::NumPrograms => Some(Val::I(it.spec.grid_size() as i64)),
        k if k.is_binary_arith() => {
            let a = it.get(operands[0])?;
            let b = it.get(operands[1])?;
            Some(broadcast_pair(k, &a, &b)?)
        }
        OpKind::Neg => match it.get(operands[0])? {
            Val::I(v) => Some(Val::I(v.wrapping_neg())),
            Val::F(v) => Some(Val::F(-v)),
            Val::T(mut t) => {
                for v in &mut t.data {
                    *v = -*v;
                }
                Some(Val::T(t))
            }
            other => return Err(ierr(format!("neg on {other:?}"))),
        },
        OpKind::Exp | OpKind::Exp2 => {
            let base2 = kind == OpKind::Exp2;
            match it.get(operands[0])? {
                Val::F(v) => Some(Val::F(if base2 { v.exp2() } else { v.exp() })),
                Val::T(mut t) => {
                    for v in &mut t.data {
                        *v = if base2 { v.exp2() } else { v.exp() };
                    }
                    Some(Val::T(t))
                }
                other => return Err(ierr(format!("exp on {other:?}"))),
            }
        }
        OpKind::Cmp => {
            let pred = data
                .attrs
                .str("pred")
                .and_then(CmpPred::parse)
                .ok_or_else(|| ierr("cmp without pred"))?;
            let a = it.get(operands[0])?;
            let b = it.get(operands[1])?;
            match (a, b) {
                (Val::T(ta), Val::T(tb)) => {
                    let mut out = TensorVal::zeros(ta.shape.clone(), DType::Bool);
                    for (o, (&x, &y)) in out.data.iter_mut().zip(ta.data.iter().zip(tb.data.iter()))
                    {
                        *o = f32::from(pred.holds(x, y));
                    }
                    Some(Val::T(out))
                }
                (Val::I(x), Val::I(y)) => Some(Val::B(pred.holds(x, y))),
                (Val::F(x), Val::F(y)) => Some(Val::B(pred.holds(x as f32, y as f32))),
                other => return Err(ierr(format!("cmp on {other:?}"))),
            }
        }
        OpKind::Select => {
            let c = it.get(operands[0])?;
            let a = it.get(operands[1])?;
            let b = it.get(operands[2])?;
            match (c, a, b) {
                (Val::T(tc), Val::T(ta), Val::T(tb)) => {
                    let mut out = ta.clone();
                    for i in 0..out.data.len() {
                        out.data[i] = if tc.data[i] != 0.0 {
                            ta.data[i]
                        } else {
                            tb.data[i]
                        };
                    }
                    Some(Val::T(out))
                }
                (Val::B(c), a, b) => Some(if c { a } else { b }),
                other => return Err(ierr(format!("select on {other:?}"))),
            }
        }
        OpKind::Cast => {
            let target = f.ty(f.result(op)).elem().unwrap_or(DType::F32);
            match it.get(operands[0])? {
                Val::T(mut t) => {
                    // Quantize through the target precision so FP16/FP8
                    // kernels show realistic rounding.
                    for v in &mut t.data {
                        *v = quantize(*v, target);
                    }
                    t.dtype = target;
                    Some(Val::T(t))
                }
                Val::I(v) => Some(if target.is_float() {
                    Val::F(v as f64)
                } else {
                    Val::I(v)
                }),
                Val::F(v) => Some(if target.is_float() {
                    Val::F(quantize(v as f32, target) as f64)
                } else {
                    Val::I(v as i64)
                }),
                other => return Err(ierr(format!("cast on {other:?}"))),
            }
        }
        OpKind::Arange => {
            let start = data.attrs.int("start").unwrap_or(0);
            let end = data.attrs.int("end").unwrap_or(0);
            let n = (end - start).max(0) as usize;
            let mut t = TensorVal::zeros(vec![n], DType::I32);
            for (i, v) in t.data.iter_mut().enumerate() {
                *v = (start + i as i64) as f32;
            }
            Some(Val::T(t))
        }
        OpKind::Splat => {
            let ty = f.ty(f.result(op));
            let (shape, dtype) = match ty {
                Type::Tensor(s, d) => (s.0.clone(), *d),
                _ => return Err(ierr("splat must produce tensor")),
            };
            let fill = match it.get(operands[0])? {
                Val::I(v) => v as f32,
                Val::F(v) => v as f32,
                other => return Err(ierr(format!("splat of {other:?}"))),
            };
            let mut t = TensorVal::zeros(shape, dtype);
            t.data.fill(fill);
            Some(Val::T(t))
        }
        OpKind::ExpandDims => {
            let t = it.get(operands[0])?.as_tensor().clone();
            let ty = f.ty(f.result(op));
            let shape = ty.shape().expect("expand_dims result").0.clone();
            Some(Val::T(TensorVal {
                shape,
                dtype: t.dtype,
                data: t.data,
            }))
        }
        OpKind::BroadcastTo => {
            let t = it.get(operands[0])?.as_tensor().clone();
            let out_shape = f.ty(f.result(op)).shape().expect("bcast result").0.clone();
            Some(Val::T(broadcast_to(&t, &out_shape)?))
        }
        OpKind::Transpose => {
            let t = it.get(operands[0])?.as_tensor().clone();
            let (r, c) = (t.shape[0], t.shape[1]);
            let mut out = TensorVal::zeros(vec![c, r], t.dtype);
            for i in 0..r {
                for j in 0..c {
                    out.data[j * r + i] = t.data[i * c + j];
                }
            }
            Some(Val::T(out))
        }
        OpKind::ReduceMax | OpKind::ReduceSum => {
            let t = it.get(operands[0])?.as_tensor().clone();
            let axis = data.attrs.int("axis").unwrap_or(0) as usize;
            Some(Val::T(reduce(&t, axis, kind == OpKind::ReduceMax)))
        }
        OpKind::Dot => {
            let a = it.get(operands[0])?.as_tensor().clone();
            let b = it.get(operands[1])?.as_tensor().clone();
            let acc = it.get(operands[2])?.as_tensor().clone();
            let (m, k) = (a.shape[0], a.shape[1]);
            let n = b.shape[1];
            let mut out = acc.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for l in 0..k {
                        s += a.data[i * k + l] * b.data[l * n + j];
                    }
                    out.data[i * n + j] += s;
                }
            }
            Some(Val::T(out))
        }
        OpKind::DotWait => Some(it.get(operands[0])?),
        OpKind::TmaLoad => {
            let param = it.get(operands[0])?.as_i() as usize;
            let coords: Vec<i64> = operands[1..]
                .iter()
                .map(|&c| Ok(it.get(c)?.as_i()))
                .collect::<Result<_, InterpError>>()?;
            let out_shape = f.ty(f.result(op)).shape().expect("tma result").0.clone();
            let dtype = f.ty(f.result(op)).elem().expect("tma elem");
            Some(Val::T(tma_read(
                mem.buffer(param),
                &coords,
                &out_shape,
                dtype,
            )?))
        }
        OpKind::TmaStore => {
            let param = it.get(operands[0])?.as_i() as usize;
            let tile = it.get(*operands.last().expect("tile"))?.as_tensor().clone();
            let coords: Vec<i64> = operands[1..operands.len() - 1]
                .iter()
                .map(|&c| Ok(it.get(c)?.as_i()))
                .collect::<Result<_, InterpError>>()?;
            let buf = mem
                .buffers
                .get_mut(&param)
                .ok_or_else(|| ierr("tma_store to unknown buffer"))?;
            tma_write(buf, &coords, &tile)?;
            None
        }
        OpKind::AddPtr => {
            // Addresses encode (param index, element offset) as
            // `param · PARAM_STRIDE + offset`, exact in f32 for the
            // functional test sizes enforced by `run_grid`.
            let param = it.get(operands[0])?.as_i();
            match it.get(operands[1])? {
                Val::T(offs) => {
                    let mut out = offs.clone();
                    out.dtype = DType::I64;
                    for v in &mut out.data {
                        *v += (param as f32) * PARAM_STRIDE;
                    }
                    Some(Val::T(out))
                }
                Val::I(off) => Some(Val::I(param * PARAM_STRIDE as i64 + off)),
                other => return Err(ierr(format!("addptr offsets {other:?}"))),
            }
        }
        OpKind::Load => {
            let addrs = it.get(operands[0])?.as_tensor().clone();
            let dtype = f.ty(f.result(op)).elem().expect("load elem");
            let mut out = TensorVal::zeros(addrs.shape.clone(), dtype);
            for (o, &a) in out.data.iter_mut().zip(addrs.data.iter()) {
                let (param, off) = decode_addr(a);
                let buf = mem.buffer(param);
                *o = *buf
                    .data
                    .get(off)
                    .ok_or_else(|| ierr(format!("load out of bounds: {off}")))?;
            }
            Some(Val::T(out))
        }
        OpKind::Store => {
            let addrs = it.get(operands[0])?.as_tensor().clone();
            let vals = it.get(operands[1])?.as_tensor().clone();
            for (&a, &v) in addrs.data.iter().zip(vals.data.iter()) {
                let (param, off) = decode_addr(a);
                let buf = mem
                    .buffers
                    .get_mut(&param)
                    .ok_or_else(|| ierr("store to unknown buffer"))?;
                *buf.data
                    .get_mut(off)
                    .ok_or_else(|| ierr(format!("store out of bounds: {off}")))? = v;
            }
            None
        }
        other => return Err(ierr(format!("unsupported op in interpreter: {other}"))),
    };
    if let Some(v) = result_val {
        it.env.insert(f.result(op), v);
    }
    Ok(())
}

/// Element stride separating parameter spaces in encoded addresses. Kept
/// at 2^18 so `param · stride + offset` stays exactly representable in f32
/// for every buffer the functional interpreter accepts.
const PARAM_STRIDE: f32 = 262_144.0; // 2^18

fn decode_addr(a: f32) -> (usize, usize) {
    let param = (a / PARAM_STRIDE).floor() as usize;
    let off = (a - param as f32 * PARAM_STRIDE) as usize;
    (param, off)
}

/// Rounds through reduced precision (f16: 11-bit mantissa, f8e4m3: 4-bit).
fn quantize(v: f32, dt: DType) -> f32 {
    match dt {
        DType::F16 | DType::BF16 => {
            // f16 via Rust's native conversion path: scale-free truncation
            // of the mantissa to 10 bits.
            let bits = v.to_bits();
            let truncated = bits & 0xFFFF_E000;
            f32::from_bits(truncated)
        }
        DType::F8E4M3 => {
            let bits = v.to_bits();
            let truncated = bits & 0xFFF0_0000;
            f32::from_bits(truncated)
        }
        _ => v,
    }
}

fn broadcast_to(t: &TensorVal, out_shape: &[usize]) -> Result<TensorVal, InterpError> {
    if t.shape.len() != out_shape.len() {
        return Err(ierr(format!(
            "broadcast rank mismatch {:?} -> {:?}",
            t.shape, out_shape
        )));
    }
    let mut out = TensorVal::zeros(out_shape.to_vec(), t.dtype);
    // Support rank-2 (the only case tiles use): [m,1] -> [m,n], [1,n] -> [m,n].
    match (t.shape.as_slice(), out_shape) {
        ([m, o], [m2, n]) if *o == 1 && m == m2 => {
            for i in 0..*m {
                for j in 0..*n {
                    out.data[i * n + j] = t.data[i];
                }
            }
        }
        ([o, n], [m, n2]) if *o == 1 && n == n2 => {
            for i in 0..*m {
                for j in 0..*n {
                    out.data[i * n + j] = t.data[j];
                }
            }
        }
        (a, b) if a == b => out.data.copy_from_slice(&t.data),
        _ => {
            return Err(ierr(format!(
                "unsupported broadcast {:?} -> {:?}",
                t.shape, out_shape
            )))
        }
    }
    Ok(out)
}

fn reduce(t: &TensorVal, axis: usize, is_max: bool) -> TensorVal {
    let (m, n) = (t.shape[0], *t.shape.get(1).unwrap_or(&1));
    if t.shape.len() == 1 {
        let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
        for &v in &t.data {
            acc = if is_max { acc.max(v) } else { acc + v };
        }
        return TensorVal {
            shape: vec![],
            dtype: t.dtype,
            data: vec![acc],
        };
    }
    if axis == 1 {
        let mut out = TensorVal::zeros(vec![m], t.dtype);
        for i in 0..m {
            let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
            for j in 0..n {
                let v = t.data[i * n + j];
                acc = if is_max { acc.max(v) } else { acc + v };
            }
            out.data[i] = acc;
        }
        out
    } else {
        let mut out = TensorVal::zeros(vec![n], t.dtype);
        for j in 0..n {
            let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
            for i in 0..m {
                let v = t.data[i * n + j];
                acc = if is_max { acc.max(v) } else { acc + v };
            }
            out.data[j] = acc;
        }
        out
    }
}

fn tma_read(
    buf: &TensorVal,
    coords: &[i64],
    tile: &[usize],
    dtype: DType,
) -> Result<TensorVal, InterpError> {
    let mut out = TensorVal::zeros(tile.to_vec(), dtype);
    match (buf.shape.len(), coords.len()) {
        // 2-D tensor, 2-D coords: rows x cols tile.
        (2, 2) => {
            let (rows, cols) = (tile[0], tile[1]);
            let (_br, bc) = (buf.shape[0], buf.shape[1]);
            for i in 0..rows {
                for j in 0..cols {
                    let r = coords[0] as usize + i;
                    let c = coords[1] as usize + j;
                    let v = if r < buf.shape[0] && c < bc {
                        buf.data[r * bc + c]
                    } else {
                        0.0 // TMA out-of-bounds reads return zero
                    };
                    out.data[i * cols + j] = v;
                }
            }
        }
        // 3-D tensor, 3-D coords: (plane, row, col) tile of shape [rows, cols].
        (3, 3) => {
            let (rows, cols) = (tile[0], tile[1]);
            let (planes, br, bc) = (buf.shape[0], buf.shape[1], buf.shape[2]);
            let p = coords[0] as usize;
            if p >= planes {
                return Err(ierr("tma plane out of bounds"));
            }
            for i in 0..rows {
                for j in 0..cols {
                    let r = coords[1] as usize + i;
                    let c = coords[2] as usize + j;
                    let v = if r < br && c < bc {
                        buf.data[(p * br + r) * bc + c]
                    } else {
                        0.0
                    };
                    out.data[i * cols + j] = v;
                }
            }
        }
        (br, bc) => {
            return Err(ierr(format!(
                "unsupported tma geometry: buffer rank {br}, coords {bc}"
            )))
        }
    }
    Ok(out)
}

fn tma_write(buf: &mut TensorVal, coords: &[i64], tile: &TensorVal) -> Result<(), InterpError> {
    match (buf.shape.len(), coords.len()) {
        (2, 2) => {
            let (rows, cols) = (tile.shape[0], tile.shape[1]);
            let bc = buf.shape[1];
            for i in 0..rows {
                for j in 0..cols {
                    let r = coords[0] as usize + i;
                    let c = coords[1] as usize + j;
                    if r < buf.shape[0] && c < bc {
                        buf.data[r * bc + c] = tile.data[i * cols + j];
                    }
                }
            }
            Ok(())
        }
        _ => Err(ierr("unsupported tma_store geometry")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_frontend::config::GemmConfig;
    use tawa_frontend::kernels::gemm;

    fn reference_gemm(a: &TensorVal, b: &TensorVal, m: usize, n: usize, k: usize) -> Vec<f32> {
        // C = A · Bᵀ with A: MxK, B: NxK.
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a.data[i * k + l] * b.data[j * k + l];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn sequential_gemm_matches_reference() {
        let cfg = GemmConfig {
            m: 256,
            n: 256,
            k: 128,
            ..GemmConfig::new(256, 256, 128)
        };
        let (module, spec) = gemm(&cfg).into_parts();
        let mut mem = DeviceMemory::from_spec(&spec);
        mem.fill(0, |i| ((i % 13) as f32 - 6.0) * 0.125);
        mem.fill(1, |i| ((i % 7) as f32 - 3.0) * 0.25);
        run_grid(&module.funcs[0], &spec, &mut mem).expect("interpret");
        let a = mem.buffer(0).clone();
        let b = mem.buffer(1).clone();
        let c = mem.buffer(2);
        let want = reference_gemm(&a, &b, 256, 256, 128);
        for (i, (&got, &w)) in c.data.iter().zip(want.iter()).enumerate() {
            assert!(
                (got - w).abs() <= 0.01 * w.abs().max(1.0),
                "C[{i}] = {got}, want {w}"
            );
        }
    }

    #[test]
    fn warp_specialized_gemm_matches_sequential() {
        let cfg = GemmConfig::new(256, 256, 128);
        let (module, spec) = gemm(&cfg).into_parts();
        // Sequential run.
        let mut mem_seq = DeviceMemory::from_spec(&spec);
        mem_seq.fill(0, |i| ((i * 7 % 23) as f32 - 11.0) * 0.0625);
        mem_seq.fill(1, |i| ((i * 5 % 17) as f32 - 8.0) * 0.125);
        run_grid(&module.funcs[0], &spec, &mut mem_seq).unwrap();

        // Warp-specialized run.
        let mut ws = module.clone();
        crate::partition::warp_specialize_func(&mut ws.funcs[0], 2).unwrap();
        let mut mem_ws = DeviceMemory::from_spec(&spec);
        mem_ws.fill(0, |i| ((i * 7 % 23) as f32 - 11.0) * 0.0625);
        mem_ws.fill(1, |i| ((i * 5 % 17) as f32 - 8.0) * 0.125);
        run_grid(&ws.funcs[0], &spec, &mut mem_ws).unwrap();

        assert_eq!(
            mem_seq.buffer(2).data,
            mem_ws.buffer(2).data,
            "warp specialization must be bit-exact"
        );
    }

    #[test]
    fn deadlock_detection_reports_misuse() {
        // A consumer-only function (get without any put) must be reported
        // as a deadlock, not hang.
        use tawa_ir::builder::build_module;
        use tawa_ir::types::Type as T;
        let m = build_module("bad", &[], |b, _| {
            let aref = b.create_aref(1, vec![T::tensor(vec![2, 2], DType::F16)]);
            b.warp_group(0, "consumer", |b| {
                let idx = b.const_i32(0);
                let _ = b.aref_get(aref, idx);
            });
        });
        let spec = LaunchSpec::uniform(vec![], 1, 0.0);
        let mut mem = DeviceMemory::from_spec(&spec);
        let err = run_grid(&m.funcs[0], &spec, &mut mem).unwrap_err();
        assert!(err.msg.contains("deadlock"), "{err}");
    }

    #[test]
    fn integer_overflow_wraps_and_agrees_with_const_fold() {
        use tawa_ir::builder::build_module;
        let mut vals = None;
        let m = build_module("wrap", &[], |b, _| {
            let min = b.const_i64(i64::MIN);
            let minus_one = b.const_i64(-1);
            let zero = b.const_i64(0);
            let q = b.div(min, minus_one);
            let r = b.rem(min, minus_one);
            let n = b.neg(min);
            let by_zero = b.div(min, zero);
            vals = Some((q, r, n, by_zero));
        });
        let (q, r, n, by_zero) = vals.unwrap();
        let f = &m.funcs[0];
        let spec = LaunchSpec::uniform(vec![], 1, 0.0);
        let mut mem = DeviceMemory::from_spec(&spec);
        let mut it = Interp {
            f,
            spec: &spec,
            pid: [0; 3],
            env: HashMap::new(),
        };
        let ops = f.block(f.body_block()).ops.clone();
        let (last, wrapping) = ops.split_last().unwrap();
        for &op in wrapping {
            exec_op(&mut it, op, &mut mem, &mut HashMap::new()).expect("no panic, no error");
        }
        // Division by zero stays an error.
        let err = exec_op(&mut it, *last, &mut mem, &mut HashMap::new()).unwrap_err();
        assert!(err.msg.contains("division by zero"), "{err}");
        let int = |v| it.get(v).unwrap().as_i();
        assert_eq!((int(q), int(r), int(n)), (i64::MIN, 0, i64::MIN));

        // Launch-constant evaluation gives the same values...
        let mut ce = crate::consteval::ConstEval::new(f, &spec, [0; 3]);
        assert_eq!(
            (ce.eval(q), ce.eval(r), ce.eval(n), ce.eval(by_zero)),
            (Some(i64::MIN), Some(0), Some(i64::MIN), None)
        );
        // ...and so does const-fold, which leaves `/ 0` alone.
        let mut folded = f.clone();
        assert_eq!(tawa_ir::transforms::run_const_fold(&mut folded), 2);
        let consts: Vec<i64> = folded
            .walk()
            .into_iter()
            .filter(|&op| folded.op(op).kind == OpKind::ConstInt)
            .filter_map(|op| folded.op(op).attrs.int("value"))
            .collect();
        assert_eq!(consts, [i64::MIN, -1, 0, i64::MIN, 0]);
    }

    #[test]
    fn integer_cmp_is_exact_above_f32_precision() {
        use tawa_ir::builder::build_module;
        // 2^24 and 2^24 + 1 round to the same f32.
        let (lo, hi) = (1_i64 << 24, (1_i64 << 24) + 1);
        assert_eq!(lo as f32, hi as f32);
        let mut cmps = Vec::new();
        let m = build_module("cmp", &[], |b, _| {
            let x = b.const_i64(hi);
            let y = b.const_i64(lo);
            for p in [CmpPred::Gt, CmpPred::Eq, CmpPred::Ne] {
                cmps.push((p, b.cmp(p, x, y)));
            }
        });
        let f = &m.funcs[0];
        let spec = LaunchSpec::uniform(vec![], 1, 0.0);
        let mut mem = DeviceMemory::from_spec(&spec);
        let mut it = Interp {
            f,
            spec: &spec,
            pid: [0; 3],
            env: HashMap::new(),
        };
        for op in f.block(f.body_block()).ops.clone() {
            exec_op(&mut it, op, &mut mem, &mut HashMap::new()).unwrap();
        }
        for (p, v) in cmps {
            let got = matches!(it.get(v).unwrap(), Val::B(true));
            assert_eq!(got, p.holds(hi, lo), "{hi} {} {lo}", p.name());
        }
    }
}
