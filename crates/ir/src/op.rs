//! Operation catalogue and attribute values.
//!
//! The IR uses a single flat [`OpKind`] enum covering four "dialects":
//!
//! * `arith` — scalar/elementwise arithmetic (polymorphic over scalars and
//!   same-shaped tiles, mirroring Triton's broadcasting-free core ops),
//! * `tile` — Triton-style tile operations (`tma_load`, `dot`, reductions),
//! * `scf` — structured control flow (`for`/`yield`),
//! * `tawa` — the asynchronous-reference dialect introduced by the paper
//!   (`create_aref`, `put`, `get`, `consumed`, `warp_group`, `dot_wait`).
//!
//! Keeping them in one enum (instead of MLIR's open dialect registry) keeps
//! pattern matching in passes exhaustive and checkable by the compiler.
//!
//! Each kind is declared once, in the `op_schema!` list below: its
//! mnemonic, operand and result [`Arity`], effect [`OpClass`] and
//! CUDA-core [`Cost`]. Its type rule is [`OpKind::infer`]. The parser and
//! printer, the DSL, the verifier, partitioning and lowering all read
//! these rather than listing kinds of their own.

use std::borrow::Cow;
use std::fmt;

use crate::types::{DType, Shape, Type};

/// Identifier of an operation inside a [`crate::func::Func`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Identifier of an SSA value inside a [`crate::func::Func`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifier of a basic block inside a [`crate::func::Func`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of a region inside a [`crate::func::Func`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Attribute values attachable to operations and functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Integer attribute (also used for booleans-as-flags where convenient).
    Int(i64),
    /// Floating-point attribute.
    Float(f64),
    /// String attribute.
    Str(String),
    /// Boolean attribute.
    Bool(bool),
    /// Integer-array attribute (shapes, permutations).
    Ints(Vec<i64>),
}

impl Attr {
    /// Integer payload, if this is an [`Attr::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float payload, if this is an [`Attr::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attr::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if this is an [`Attr::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attr::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean payload, if this is an [`Attr::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attr::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer-array payload, if this is an [`Attr::Ints`].
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Attr::Ints(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::Int(v) => write!(f, "{v}"),
            Attr::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Attr::Str(v) => write!(f, "{v:?}"),
            Attr::Bool(v) => write!(f, "{v}"),
            Attr::Ints(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// An ordered map of named attributes. Kept as a sorted-insert vector so
/// printing is deterministic and lookup stays cheap at IR scale.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrMap(Vec<(String, Attr)>);

impl AttrMap {
    /// Creates an empty attribute map.
    pub fn new() -> Self {
        AttrMap(Vec::new())
    }

    /// Sets (or replaces) the attribute `key`.
    pub fn set(&mut self, key: &str, value: Attr) {
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key.to_string(), value)),
        }
    }

    /// Looks up the attribute `key`.
    pub fn get(&self, key: &str) -> Option<&Attr> {
        self.0
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Removes the attribute `key`, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<Attr> {
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(self.0.remove(i).1),
            Err(_) => None,
        }
    }

    /// Shorthand for integer attributes.
    pub fn int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Attr::as_int)
    }

    /// Shorthand for string attributes.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Attr::as_str)
    }

    /// Shorthand for float attributes.
    pub fn float(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Attr::as_float)
    }

    /// Shorthand for boolean attributes.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Attr::as_bool)
    }

    /// Iterates over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Attr)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl FromIterator<(String, Attr)> for AttrMap {
    fn from_iter<I: IntoIterator<Item = (String, Attr)>>(iter: I) -> Self {
        let mut m = AttrMap::new();
        for (k, v) in iter {
            m.set(&k, v);
        }
        m
    }
}

/// Comparison predicates for [`OpKind::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpPred {
    /// Textual name used in attribute encoding.
    pub fn name(self) -> &'static str {
        match self {
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
        }
    }

    /// Parses the textual name.
    pub fn parse(s: &str) -> Option<CmpPred> {
        Some(match s {
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            _ => return None,
        })
    }

    /// Whether `x <pred> y` holds.
    pub fn holds<T: PartialOrd>(self, x: T, y: T) -> bool {
        match self {
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
        }
    }
}

/// How many operands or results an op kind takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly this many.
    Exactly(usize),
    /// This many or more.
    AtLeast(usize),
}

impl Arity {
    /// Whether `n` values fit this arity.
    pub fn admits(self, n: usize) -> bool {
        match self {
            Arity::Exactly(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

impl fmt::Display for Arity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arity::Exactly(k) => write!(f, "{k}"),
            Arity::AtLeast(k) => write!(f, "at least {k}"),
        }
    }
}

/// What an op does besides computing its results. Passes ask the class
/// instead of listing kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Elementwise binary arithmetic over scalars or same-shaped tiles.
    Binary,
    /// Elementwise unary arithmetic.
    Unary,
    /// Any other op that only computes its results; dead-code
    /// elimination drops it when they are unused.
    Pure,
    /// Derives one tile from another, element for element (transpose,
    /// cast, expand_dims, broadcast_to); dataflow walks from a load to
    /// its dot look through it.
    View,
    /// Reads global memory or an aref slot; no side effect.
    Read,
    /// Writes global memory or an aref's barrier state: a side effect.
    Write,
    /// A counted loop: one region.
    Loop,
    /// Ends its block.
    Terminator,
    /// A warp-group partition: one region, and a side effect.
    Partition,
}

/// An op's CUDA-core work, counted per element of its result or of its
/// first operand. A value that is not a tile counts as one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// No CUDA-core work (or work the TMA or tensor cores do).
    Free,
    /// One FP32 op per result element, and at least one.
    Flop,
    /// One SFU op per result element.
    Sfu,
    /// One FP32 op per operand element: a reduction reads its whole input.
    OperandFlop,
    /// One FP32 op per two result elements, floored per op, so a scalar
    /// cast costs nothing.
    HalfFlop,
}

impl Cost {
    /// `(fp32 flops, sfu ops)` of one op whose result and first operand
    /// have `result` and `operand` elements (`None`: not a tile).
    pub fn of(self, result: Option<u64>, operand: Option<u64>) -> (u64, u64) {
        match self {
            Cost::Free => (0, 0),
            Cost::Flop => (result.unwrap_or(1).max(1), 0),
            Cost::Sfu => (0, result.unwrap_or(1)),
            Cost::OperandFlop => (operand.unwrap_or(1), 0),
            Cost::HalfFlop => (result.unwrap_or(1) / 2, 0),
        }
    }
}

/// One op kind's declaration. The type rule is [`OpKind::infer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// The kind declared.
    pub kind: OpKind,
    /// The printable, parseable mnemonic, in `dialect.name` form.
    pub name: &'static str,
    /// What the op does besides computing its results.
    pub class: OpClass,
    /// How many operands it takes.
    pub operands: Arity,
    /// How many results it has.
    pub results: Arity,
    /// Its CUDA-core work.
    pub cost: Cost,
}

/// `operands -> results` arity, each a count or a `count..` minimum.
macro_rules! arity {
    ($o:literal -> $r:literal) => {
        (Arity::Exactly($o), Arity::Exactly($r))
    };
    ($o:literal.. -> $r:literal) => {
        (Arity::AtLeast($o), Arity::Exactly($r))
    };
    ($o:literal -> $r:literal..) => {
        (Arity::Exactly($o), Arity::AtLeast($r))
    };
    ($o:literal.. -> $r:literal..) => {
        (Arity::AtLeast($o), Arity::AtLeast($r))
    };
}

/// Declares [`OpKind`] and its schema from one list, an entry per kind:
/// `Kind = "mnemonic", class, [operands -> results], cost;`.
macro_rules! op_schema {
    ($($(#[$doc:meta])* $kind:ident = $name:literal, $class:ident, [$($arity:tt)+], $cost:ident;)+) => {
        /// The operation catalogue. See module docs for dialect grouping.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum OpKind {
            $($(#[$doc])* $kind,)+
        }

        /// Every kind's declaration, in [`OpKind`] order.
        const SCHEMA: &[OpSpec] = &[$(OpSpec {
            kind: OpKind::$kind,
            name: $name,
            class: OpClass::$class,
            operands: arity!($($arity)+).0,
            results: arity!($($arity)+).1,
            cost: Cost::$cost,
        },)+];

        /// Every kind, in [`OpKind`] order.
        const ALL: &[OpKind] = &[$(OpKind::$kind,)+];
    };
}

op_schema! {
    // ---- constants -----------------------------------------------------
    /// Integer constant. Attr `value: Int`. Result: scalar int.
    ConstInt = "arith.const_int", Pure, [0 -> 1], Free;
    /// Float constant. Attr `value: Float`. Result: scalar float.
    ConstFloat = "arith.const_float", Pure, [0 -> 1], Free;
    /// Splat-constant tile. Attr `value: Float`. Result: tensor.
    ConstTensor = "tile.const_tensor", Pure, [0 -> 1], Free;

    // ---- program structure ----------------------------------------------
    /// CTA index along `axis` (attr). Result: i32.
    ProgramId = "tile.program_id", Pure, [0 -> 1], Free;
    /// Grid extent along `axis` (attr). Result: i32.
    NumPrograms = "tile.num_programs", Pure, [0 -> 1], Free;

    // ---- arith (polymorphic over scalar / same-shape tensor) -------------
    /// Addition.
    Add = "arith.add", Binary, [2 -> 1], Flop;
    /// Subtraction.
    Sub = "arith.sub", Binary, [2 -> 1], Flop;
    /// Multiplication.
    Mul = "arith.mul", Binary, [2 -> 1], Flop;
    /// Division (integer division for ints).
    Div = "arith.div", Binary, [2 -> 1], Flop;
    /// Remainder.
    Rem = "arith.rem", Binary, [2 -> 1], Flop;
    /// Elementwise/scalar minimum.
    Min = "arith.min", Binary, [2 -> 1], Flop;
    /// Elementwise/scalar maximum.
    Max = "arith.max", Binary, [2 -> 1], Flop;
    /// Comparison. Attr `pred: Str` (one of `lt,le,gt,ge,eq,ne`).
    Cmp = "arith.cmp", Pure, [2 -> 1], Flop;
    /// Ternary select `(cond, then, else)`.
    Select = "arith.select", Pure, [3 -> 1], Flop;
    /// Negation.
    Neg = "arith.neg", Unary, [1 -> 1], Flop;
    /// Base-e exponential.
    Exp = "math.exp", Unary, [1 -> 1], Sfu;
    /// Base-2 exponential (maps onto the SFU `ex2` path like Triton).
    Exp2 = "math.exp2", Unary, [1 -> 1], Sfu;
    /// Type cast; target given by the result type.
    Cast = "arith.cast", View, [1 -> 1], HalfFlop;

    // ---- tile ------------------------------------------------------------
    /// `[start, end)` iota. Attrs `start: Int`, `end: Int`. Result
    /// `tensor<(end-start) x i32>`.
    Arange = "tile.arange", Pure, [0 -> 1], Free;
    /// Scalar → tensor broadcast; shape given by result type.
    Splat = "tile.splat", Pure, [1 -> 1], Free;
    /// Insert a size-1 axis. Attr `axis: Int`.
    ExpandDims = "tile.expand_dims", View, [1 -> 1], Free;
    /// Broadcast size-1 axes up to the result shape.
    BroadcastTo = "tile.broadcast_to", View, [1 -> 1], Free;
    /// 2-D transpose.
    Transpose = "tile.transpose", View, [1 -> 1], Free;
    /// Reduce-maximum along `axis` (attr), removing that axis.
    ReduceMax = "tile.reduce_max", Pure, [1 -> 1], OperandFlop;
    /// Reduce-sum along `axis` (attr), removing that axis.
    ReduceSum = "tile.reduce_sum", Pure, [1 -> 1], OperandFlop;
    /// Tile matrix-multiply-accumulate `(a, b, acc) -> acc + a·b`.
    /// Lowered to WGMMA on Hopper. Attr `async: Bool` is set by the
    /// fine-grained pipelining pass.
    Dot = "tile.dot", Pure, [3 -> 1], Free;
    /// Asynchronous bulk tile load `(desc, coords...) -> tensor` via the
    /// Tensor Memory Accelerator.
    TmaLoad = "tile.tma_load", Read, [1.. -> 1], Free;
    /// Asynchronous bulk tile store `(desc, coords..., tile)`.
    TmaStore = "tile.tma_store", Write, [2.. -> 0], Free;
    /// Pointer arithmetic: `(ptr, offsets) -> addrs` (an i64 tensor).
    AddPtr = "tile.addptr", Pure, [2 -> 1], Free;
    /// Gather load from computed addresses `(addrs) -> tensor`.
    Load = "tile.load", Read, [1 -> 1], Free;
    /// Scatter store to computed addresses `(addrs, value)`.
    Store = "tile.store", Write, [2 -> 0], Free;

    // ---- scf ---------------------------------------------------------------
    /// Counted loop: operands `(lo, hi, step, inits...)`, one region whose
    /// block takes `(iv, iters...)`, results are the final iter values.
    For = "scf.for", Loop, [3.. -> 0..], Free;
    /// Region terminator yielding iteration values.
    Yield = "scf.yield", Terminator, [0.. -> 0], Free;

    // ---- tawa ----------------------------------------------------------------
    /// Allocates a `D`-slot ring of asynchronous references. Attr
    /// `depth: Int`. Result: `aref` value.
    CreateAref = "tawa.create_aref", Pure, [0 -> 1], Free;
    /// Producer publication: `(aref, slot, payload...)` (paper: `put`).
    ArefPut = "tawa.put", Write, [3.. -> 0], Free;
    /// Consumer acquisition: `(aref, slot) -> payload...` (paper: `get`).
    ArefGet = "tawa.get", Read, [2 -> 0..], Free;
    /// Consumer release: `(aref, slot)` (paper: `consumed`).
    ArefConsumed = "tawa.consumed", Write, [2 -> 0], Free;
    /// A warp-group partition. Attr `partition: Int`, `role: Str`
    /// (`"producer"`/`"consumer"`). One region executed by one warp group.
    WarpGroup = "tawa.warp_group", Partition, [0 -> 0], Free;
    /// Barrier on an asynchronously issued [`OpKind::Dot`]: passes its
    /// operand through once at most `pendings` (attr) WGMMA groups remain
    /// in flight.
    DotWait = "tawa.dot_wait", Pure, [1 -> 1], Free;
}

/// The result types [`OpKind::infer`] derives. Most rules pass an
/// operand's or the stated type through, and those are borrowed: typing
/// an op allocates only where its rule builds a new type.
#[derive(Debug)]
pub enum Inferred<'t> {
    /// One result.
    One(Cow<'t, Type>),
    /// The types of these operands: a loop's carried values.
    Operands(&'t [&'t Type]),
    /// An aref's payload; empty for an op without results.
    Payload(&'t [Type]),
}

impl Inferred<'_> {
    /// How many results there are.
    pub(crate) fn len(&self) -> usize {
        match self {
            Inferred::One(_) => 1,
            Inferred::Operands(ts) => ts.len(),
            Inferred::Payload(ts) => ts.len(),
        }
    }

    /// The type of result `i`.
    pub(crate) fn get(&self, i: usize) -> Option<&Type> {
        match self {
            Inferred::One(t) => (i == 0).then_some(t.as_ref()),
            Inferred::Operands(ts) => ts.get(i).copied(),
            Inferred::Payload(ts) => ts.get(i),
        }
    }

    /// The result types, owned.
    pub fn into_vec(self) -> Vec<Type> {
        match self {
            Inferred::One(t) => vec![t.into_owned()],
            Inferred::Operands(ts) => ts.iter().map(|&t| t.clone()).collect(),
            Inferred::Payload(ts) => ts.to_vec(),
        }
    }
}

/// `Ok` when `ok`; otherwise the message `msg` builds, and only then.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The shape and element of tile `t`, or why `t` is not a tile.
fn tile(t: &Type) -> Result<(&Shape, DType), String> {
    match t {
        Type::Tensor(s, d) => Ok((s, *d)),
        other => Err(format!("expected a tile, got {other}")),
    }
}

/// The tile of `elem` with dimensions `dims`: `stated` itself when it is
/// that tile, so checking an op's stated result allocates nothing, and a
/// new type otherwise.
fn tile_of<'t>(
    stated: Option<&'t Type>,
    dims: impl Iterator<Item = usize> + Clone,
    elem: DType,
) -> Cow<'t, Type> {
    match stated {
        Some(t @ Type::Tensor(s, e)) if *e == elem && s.0.iter().copied().eq(dims.clone()) => {
            Cow::Borrowed(t)
        }
        _ => Cow::Owned(Type::Tensor(Shape(dims.collect()), elem)),
    }
}

/// The payload of aref `t`, or why `t` is not an aref.
fn payload(t: &Type) -> Result<&[Type], String> {
    match t {
        Type::Aref(_, p) => Ok(p),
        other => Err(format!("first operand must be aref, got {other}")),
    }
}

/// The `axis` attr, checked to be below `bound` (a dimension of `shape`
/// or, for an insertion, one past its last).
fn axis(attrs: &AttrMap, bound: usize, shape: &Shape) -> Result<usize, String> {
    let a = attrs
        .int("axis")
        .ok_or_else(|| "requires a valid `axis` attr".to_string())?;
    usize::try_from(a)
        .ok()
        .filter(|&a| a < bound)
        .ok_or_else(|| format!("axis {a} out of range for {shape}"))
}

/// TMA coordinates are `i32` scalars.
fn coords_i32(coords: &[&Type]) -> Result<(), String> {
    match coords
        .iter()
        .find(|t| !matches!(t, Type::Scalar(DType::I32)))
    {
        Some(t) => Err(format!("coords must be i32, got {t}")),
        None => Ok(()),
    }
}

impl OpKind {
    /// This kind's declaration.
    pub fn spec(self) -> &'static OpSpec {
        // `SCHEMA` is generated in `OpKind` order from the same list.
        &SCHEMA[self as usize]
    }

    /// The printable, parseable mnemonic, in `dialect.name` form.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Parses a mnemonic produced by [`OpKind::name`].
    pub fn parse(s: &str) -> Option<OpKind> {
        SCHEMA.iter().find(|e| e.name == s).map(|e| e.kind)
    }

    /// All op kinds, in declaration order.
    pub fn all() -> &'static [OpKind] {
        ALL
    }

    /// What the op does besides computing its results.
    pub fn class(self) -> OpClass {
        self.spec().class
    }

    /// Terminator ops end a block and may not be followed by other ops.
    pub fn is_terminator(self) -> bool {
        self.class() == OpClass::Terminator
    }

    /// Ops with memory or channel side effects; these anchor the backward
    /// traversal of the partitioning pass and are never dead-code-eliminated.
    pub fn has_side_effect(self) -> bool {
        matches!(
            self.class(),
            OpClass::Write | OpClass::Terminator | OpClass::Partition
        )
    }

    /// Pure elementwise binary arith ops (operate on scalars or tiles).
    pub fn is_binary_arith(self) -> bool {
        self.class() == OpClass::Binary
    }

    /// The integer semantics of a binary arith op, the one definition
    /// const-fold, launch-constant evaluation and the interpreter share:
    /// two's-complement wrapping, so `i64::MIN / -1` is `i64::MIN` and
    /// `i64::MIN % -1` is 0. `None` for division or remainder by zero and
    /// for kinds that are not binary arith.
    pub fn eval_int(self, x: i64, y: i64) -> Option<i64> {
        match self {
            OpKind::Add => Some(x.wrapping_add(y)),
            OpKind::Sub => Some(x.wrapping_sub(y)),
            OpKind::Mul => Some(x.wrapping_mul(y)),
            OpKind::Div => (y != 0).then(|| x.wrapping_div(y)),
            OpKind::Rem => (y != 0).then(|| x.wrapping_rem(y)),
            OpKind::Min => Some(x.min(y)),
            OpKind::Max => Some(x.max(y)),
            _ => None,
        }
    }

    /// Pure elementwise unary ops.
    pub fn is_unary_arith(self) -> bool {
        self.class() == OpClass::Unary
    }

    /// Ops that carry nested regions.
    pub fn has_regions(self) -> bool {
        matches!(self.class(), OpClass::Loop | OpClass::Partition)
    }

    /// The type rule: the result types of this kind over operands of
    /// types `operands` with attributes `attrs`, or what is wrong with
    /// them. `stated` is the result type the IR states rather than
    /// derives: that of a constant, an aref, a `splat`, `broadcast_to`,
    /// `cast`, `load` or `tma_load`. Other kinds derive their result, and
    /// hand `stated` back only where it equals what they derive. The DSL emits
    /// what this returns and the verifier checks every op against it, so
    /// the two cannot drift. A message is built only on failure, and a
    /// result type only where the rule makes a new one.
    pub fn infer<'t>(
        self,
        operands: &'t [&'t Type],
        attrs: &AttrMap,
        stated: Option<&'t Type>,
    ) -> Result<Inferred<'t>, String> {
        use OpKind::*;
        let arity = self.spec().operands;
        let arity_err = || format!("expected {arity} operands, got {}", operands.len());
        ensure(arity.admits(operands.len()), arity_err)?;
        let need_stated = || stated.ok_or_else(|| "needs a stated result type".to_string());
        let none = || Ok(Inferred::Payload(&[]));
        let one = match (self, operands) {
            (ConstInt, _) => {
                ensure(attrs.int("value").is_some(), || {
                    "const_int requires integer `value` attr".into()
                })?;
                let t = need_stated()?;
                ensure(matches!(t, Type::Scalar(d) if d.is_int()), || {
                    format!("const_int result must be int, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (ConstFloat, _) => {
                ensure(attrs.float("value").is_some(), || {
                    "const_float requires float `value` attr".into()
                })?;
                let t = need_stated()?;
                ensure(matches!(t, Type::Scalar(d) if d.is_float()), || {
                    format!("float constant requires a float type, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (ConstTensor, _) => {
                let t = need_stated()?;
                ensure(t.is_tensor(), || {
                    format!("const_tensor result must be tensor, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (ProgramId | NumPrograms, _) => match attrs.int("axis") {
                Some(0..=2) => Cow::Owned(Type::i32()),
                Some(a) => return Err(format!("axis must be 0, 1 or 2, got {a}")),
                None => return Err("requires a valid `axis` attr".into()),
            },
            (k, [a, b]) if k.is_binary_arith() => Cow::Borrowed(
                a.broadcast_with(b)
                    .ok_or_else(|| format!("incompatible operand types {a} and {b}"))?,
            ),
            (Cmp, [a, b]) => {
                ensure(attrs.str("pred").and_then(CmpPred::parse).is_some(), || {
                    "cmp requires valid `pred` attr".into()
                })?;
                match a.broadcast_with(b) {
                    Some(Type::Tensor(s, _)) => tile_of(stated, s.0.iter().copied(), DType::Bool),
                    Some(_) => Cow::Owned(Type::bool()),
                    None => return Err(format!("incompatible operand types {a} and {b}")),
                }
            }
            (Select, [c, t, e]) => {
                ensure(t == e, || format!("arms differ: {t} vs {e}"))?;
                if let (Some(sc), Some(st)) = (c.shape(), t.shape()) {
                    ensure(sc == st, || {
                        format!("condition shape {sc} does not match arms {st}")
                    })?;
                }
                Cow::Borrowed(*t)
            }
            (k, [a]) if k.is_unary_arith() => Cow::Borrowed(*a),
            (Cast, [a]) => {
                let t = need_stated()?;
                ensure(a.is_scalar() || a.is_tensor(), || {
                    format!("unsupported operand type {a}")
                })?;
                ensure(
                    a.is_scalar() == t.is_scalar() && a.shape() == t.shape(),
                    || format!("cast must preserve shape, got {a} to {t}"),
                )?;
                Cow::Borrowed(t)
            }
            (Arange, _) => match (attrs.int("start"), attrs.int("end")) {
                (Some(s), Some(e)) => match e.checked_sub(s) {
                    Some(n) if n > 0 => tile_of(stated, [n as usize].into_iter(), DType::I32),
                    _ => return Err(format!("empty range [{s}, {e})")),
                },
                _ => return Err("arange requires start < end attrs".into()),
            },
            (Splat, [a]) => {
                let t = need_stated()?;
                let Type::Scalar(d) = a else {
                    return Err(format!("operand must be scalar, got {a}"));
                };
                ensure(matches!(t, Type::Tensor(_, e) if e == d), || {
                    format!("result must be a tile of {d}, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (ExpandDims, [a]) => {
                let (s, d) = tile(a)?;
                let (before, after) = s.0.split_at(axis(attrs, s.rank() + 1, s)?);
                let dims = before.iter().chain(&[1]).chain(after).copied();
                tile_of(stated, dims, d)
            }
            (BroadcastTo, [a]) => {
                let t = need_stated()?;
                let (src, d) = tile(a)?;
                let fits = matches!(t, Type::Tensor(dst, e) if *e == d
                    && dst.rank() == src.rank()
                    && src.0.iter().zip(&dst.0).all(|(&s, &t)| s == t || s == 1));
                ensure(fits, || format!("cannot broadcast {a} to {t}"))?;
                Cow::Borrowed(t)
            }
            (Transpose, [a]) => {
                let (s, d) = tile(a)?;
                match s.0[..] {
                    [m, n] => tile_of(stated, [n, m].into_iter(), d),
                    _ => return Err(format!("rank-2 only, got {s}")),
                }
            }
            (ReduceMax | ReduceSum, [a]) => {
                let (s, d) = tile(a)?;
                let axis = axis(attrs, s.rank(), s)?;
                let dims = s.0.iter().enumerate().filter(|&(i, _)| i != axis);
                tile_of(stated, dims.map(|(_, &n)| n), d)
            }
            (Dot, [a, b, c]) => {
                let ((sa, da), (sb, db), (sc, _)) = (tile(a)?, tile(b)?, tile(c)?);
                let ([m, k], [k2, n], [cm, cn]) = (&sa.0[..], &sb.0[..], &sc.0[..]) else {
                    return Err("all operands must be rank-2 tiles".into());
                };
                ensure(da == db, || {
                    format!("input element types differ: {da} vs {db}")
                })?;
                ensure(k == k2, || {
                    format!("dot shape mismatch: contraction mismatch {sa} · {sb}")
                })?;
                ensure(cm == m && cn == n, || {
                    format!("dot shape mismatch: accumulator {sc} does not fit {sa} · {sb}")
                })?;
                Cow::Borrowed(*c)
            }
            (TmaLoad, [desc, coords @ ..]) => {
                let Type::TensorDesc(dd) = desc else {
                    return Err(format!("first operand must be desc, got {desc}"));
                };
                coords_i32(coords)?;
                let t = need_stated()?;
                ensure(matches!(t, Type::Tensor(_, e) if e == dd), || {
                    format!("result dtype must match desc<{dd}>, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (TmaStore, [desc, coords @ .., tile_ty]) => {
                let Type::TensorDesc(dd) = desc else {
                    return Err(format!("first operand must be desc, got {desc}"));
                };
                coords_i32(coords)?;
                let (_, d) = tile(tile_ty)?;
                ensure(d == *dd, || {
                    format!("tile element {d} does not match descriptor {dd}")
                })?;
                return none();
            }
            (AddPtr, [p, o]) => {
                ensure(matches!(p, Type::Ptr(_)), || {
                    format!("addptr base must be ptr, got {p}")
                })?;
                let (s, d) = tile(o)?;
                ensure(d.is_int(), || format!("offsets must be integers, got {d}"))?;
                tile_of(stated, s.0.iter().copied(), DType::I64)
            }
            (Load, [addrs]) => {
                let t = need_stated()?;
                let (s, _) = tile(addrs)?;
                ensure(t.shape() == Some(s), || {
                    format!("load result shape must match addrs {addrs}, got {t}")
                })?;
                Cow::Borrowed(t)
            }
            (Store, [addrs, value]) => {
                ensure(addrs.shape() == value.shape(), || {
                    format!("value shape of {value} does not match addresses {addrs}")
                })?;
                return none();
            }
            (For, [_, _, _, inits @ ..]) => return Ok(Inferred::Operands(inits)),
            (Yield | WarpGroup, _) => return none(),
            (CreateAref, _) => {
                let t = need_stated()?;
                let Type::Aref(depth, payload) = t else {
                    return Err(format!("create_aref result must be aref, got {t}"));
                };
                ensure(attrs.int("depth") == Some(*depth as i64), || {
                    "create_aref depth attr must match type".into()
                })?;
                ensure(!payload.is_empty(), || {
                    "aref payload must be nonempty".into()
                })?;
                Cow::Borrowed(t)
            }
            (ArefPut, [aref, _, given @ ..]) => {
                let payload = payload(aref)?;
                ensure(given.len() == payload.len(), || {
                    format!(
                        "put payload arity {} != aref payload {}",
                        given.len(),
                        payload.len()
                    )
                })?;
                if let Some(i) = given.iter().zip(payload).position(|(&g, p)| g != p) {
                    return Err(format!("put payload {i} type mismatch"));
                }
                return none();
            }
            (ArefGet, [aref, _]) => return Ok(Inferred::Payload(payload(aref)?)),
            (ArefConsumed, [aref, _]) => {
                payload(aref)?;
                return none();
            }
            (DotWait, [a]) => {
                ensure(attrs.int("pendings").is_some(), || {
                    "dot_wait requires pendings attr".into()
                })?;
                Cow::Borrowed(*a)
            }
            _ => return Err(arity_err()),
        };
        Ok(Inferred::One(one))
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opkind_name_parse_roundtrip() {
        assert_eq!(OpKind::all().len(), 39);
        for &k in OpKind::all() {
            assert_eq!(OpKind::parse(k.name()), Some(k), "mnemonic {k}");
            let spec = k.spec();
            assert_eq!(spec.kind, k, "schema order");
            // Every entry declares an arity and a class, and the derived
            // predicates read the class.
            assert!(matches!(
                spec.operands,
                Arity::Exactly(_) | Arity::AtLeast(_)
            ));
            assert!(matches!(
                spec.results,
                Arity::Exactly(_) | Arity::AtLeast(_)
            ));
            assert_eq!(k.class(), spec.class);
            let dialect = k.name().split('.').next();
            assert!(
                matches!(dialect, Some("arith" | "math" | "tile" | "scf" | "tawa")),
                "{k}"
            );
        }
        assert_eq!(OpKind::parse("bogus.op"), None);
    }

    /// The membership of every set derived from the classes, as it was
    /// when each set was still a hand-written list.
    #[test]
    fn derived_sets_are_the_parents() {
        use OpKind::*;
        let set = |p: &dyn Fn(OpKind) -> bool| -> Vec<OpKind> {
            OpKind::all().iter().copied().filter(|&k| p(k)).collect()
        };
        assert_eq!(
            set(&OpKind::has_side_effect),
            [TmaStore, Store, Yield, ArefPut, ArefConsumed, WarpGroup]
        );
        assert_eq!(set(&OpKind::is_terminator), [Yield]);
        assert_eq!(set(&OpKind::has_regions), [For, WarpGroup]);
        assert_eq!(
            set(&OpKind::is_binary_arith),
            [Add, Sub, Mul, Div, Rem, Min, Max]
        );
        assert_eq!(set(&OpKind::is_unary_arith), [Neg, Exp, Exp2]);
        assert_eq!(
            set(&|k| k.class() == OpClass::View),
            [Cast, ExpandDims, BroadcastTo, Transpose]
        );
    }

    /// The cost rules reproduce the lowering's hand-written CUDA-core
    /// arithmetic: a flop per result element (at least one) for binary
    /// arith, `select`, `cmp` and `neg`; an SFU op per result element for
    /// the exponentials; a flop per operand element for the reductions;
    /// half a flop per result element, floored, for `cast`.
    #[test]
    fn cost_rules_are_the_lowerings() {
        use OpKind::*;
        let with = |c: Cost| -> Vec<OpKind> {
            OpKind::all()
                .iter()
                .copied()
                .filter(|k| k.spec().cost == c)
                .collect()
        };
        assert_eq!(
            with(Cost::Flop),
            [Add, Sub, Mul, Div, Rem, Min, Max, Cmp, Select, Neg]
        );
        assert_eq!(with(Cost::Sfu), [Exp, Exp2]);
        assert_eq!(with(Cost::OperandFlop), [ReduceMax, ReduceSum]);
        assert_eq!(with(Cost::HalfFlop), [Cast]);
        assert_eq!(Cost::Flop.of(Some(64), None), (64, 0));
        assert_eq!(Cost::Flop.of(None, None), (1, 0));
        assert_eq!(Cost::Flop.of(Some(0), None), (1, 0));
        assert_eq!(Cost::Sfu.of(Some(0), None), (0, 0));
        assert_eq!(Cost::Sfu.of(Some(8), None), (0, 8));
        assert_eq!(Cost::OperandFlop.of(Some(128), Some(8192)), (8192, 0));
        assert_eq!(Cost::HalfFlop.of(Some(7), None), (3, 0));
        assert_eq!(Cost::HalfFlop.of(None, None), (0, 0));
        assert_eq!(Cost::Free.of(Some(1 << 20), Some(1 << 20)), (0, 0));
    }

    #[test]
    fn infer_derives_result_types() {
        let t = |s: &[usize], d| Type::tensor(s.to_vec(), d);
        let mut attrs = AttrMap::new();
        attrs.set("axis", Attr::Int(1));
        let a = t(&[128, 64], DType::F16);
        assert_eq!(
            OpKind::ExpandDims
                .infer(&[&a], &attrs, None)
                .map(Inferred::into_vec),
            Ok(vec![t(&[128, 1, 64], DType::F16)])
        );
        assert_eq!(
            OpKind::ReduceSum
                .infer(&[&a], &attrs, None)
                .map(Inferred::into_vec),
            Ok(vec![t(&[128], DType::F16)])
        );
        assert_eq!(
            OpKind::Transpose
                .infer(&[&a], &AttrMap::new(), None)
                .map(Inferred::into_vec),
            Ok(vec![t(&[64, 128], DType::F16)])
        );
        let mut pred = AttrMap::new();
        pred.set("pred", Attr::Str("lt".into()));
        assert_eq!(
            OpKind::Cmp
                .infer(&[&a, &Type::Scalar(DType::F16)], &pred, None)
                .map(Inferred::into_vec),
            Ok(vec![t(&[128, 64], DType::Bool)])
        );
        // Arity comes from the schema; a stated kind needs its statement.
        assert_eq!(
            OpKind::Add
                .infer(&[&a], &AttrMap::new(), None)
                .map(Inferred::into_vec),
            Err("expected 2 operands, got 1".into())
        );
        let mut value = AttrMap::new();
        value.set("value", Attr::Int(0));
        assert!(OpKind::ConstInt.infer(&[], &value, None).is_err());
        assert_eq!(
            OpKind::ConstInt
                .infer(&[], &value, Some(&Type::i64()))
                .map(Inferred::into_vec),
            Ok(vec![Type::i64()])
        );
    }

    #[test]
    fn attr_map_insert_lookup_replace() {
        let mut m = AttrMap::new();
        m.set("depth", Attr::Int(2));
        m.set("role", Attr::Str("producer".into()));
        m.set("depth", Attr::Int(3));
        assert_eq!(m.int("depth"), Some(3));
        assert_eq!(m.str("role"), Some("producer"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove("depth"), Some(Attr::Int(3)));
        assert!(m.get("depth").is_none());
    }

    #[test]
    fn attr_map_iteration_is_sorted() {
        let mut m = AttrMap::new();
        m.set("zeta", Attr::Int(1));
        m.set("alpha", Attr::Int(2));
        m.set("mid", Attr::Int(3));
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn cmp_pred_roundtrip() {
        for p in [
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
            CmpPred::Eq,
            CmpPred::Ne,
        ] {
            assert_eq!(CmpPred::parse(p.name()), Some(p));
        }
        assert_eq!(CmpPred::parse("xx"), None);
    }

    #[test]
    fn cmp_pred_holds_matches_operators() {
        // (pred, holds for 1 vs 2, 2 vs 2, 3 vs 2)
        for (p, expect) in [
            (CmpPred::Lt, [true, false, false]),
            (CmpPred::Le, [true, true, false]),
            (CmpPred::Gt, [false, false, true]),
            (CmpPred::Ge, [false, true, true]),
            (CmpPred::Eq, [false, true, false]),
            (CmpPred::Ne, [true, false, true]),
        ] {
            let got = [1, 2, 3].map(|x: i64| p.holds(x, 2));
            assert_eq!(got, expect, "{}", p.name());
            let got = [1.0, 2.0, 3.0].map(|x: f32| p.holds(x, 2.0));
            assert_eq!(got, expect, "{} on f32", p.name());
            // NaN is unordered: only `ne` holds.
            assert_eq!(p.holds(f32::NAN, 2.0), p == CmpPred::Ne, "{}", p.name());
        }
    }

    #[test]
    fn eval_int_wraps_and_rejects_zero_divisors() {
        assert_eq!(OpKind::Add.eval_int(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(OpKind::Sub.eval_int(i64::MIN, 1), Some(i64::MAX));
        assert_eq!(OpKind::Mul.eval_int(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(OpKind::Div.eval_int(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(OpKind::Rem.eval_int(i64::MIN, -1), Some(0));
        // Division truncates toward zero; the remainder takes the
        // dividend's sign.
        assert_eq!(OpKind::Div.eval_int(-7, 2), Some(-3));
        assert_eq!(OpKind::Rem.eval_int(-7, 2), Some(-1));
        assert_eq!(OpKind::Min.eval_int(-3, 2), Some(-3));
        assert_eq!(OpKind::Max.eval_int(-3, 2), Some(2));
        assert_eq!(OpKind::Div.eval_int(1, 0), None);
        assert_eq!(OpKind::Rem.eval_int(1, 0), None);
        for &k in OpKind::all() {
            assert_eq!(
                k.eval_int(6, 3).is_some(),
                k.is_binary_arith(),
                "eval_int defined exactly on binary arith, {k}"
            );
        }
    }

    #[test]
    fn attr_display() {
        assert_eq!(Attr::Int(5).to_string(), "5");
        assert_eq!(Attr::Float(2.0).to_string(), "2.0");
        assert_eq!(Attr::Float(0.5).to_string(), "0.5");
        assert_eq!(Attr::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Attr::Bool(true).to_string(), "true");
        assert_eq!(Attr::Ints(vec![1, 2]).to_string(), "[1, 2]");
    }
}
