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

use std::fmt;

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

/// The operation catalogue. See module docs for dialect grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    // ---- constants -----------------------------------------------------
    /// Integer constant. Attr `value: Int`. Result: scalar int.
    ConstInt,
    /// Float constant. Attr `value: Float`. Result: scalar float.
    ConstFloat,
    /// Splat-constant tile. Attr `value: Float`. Result: tensor.
    ConstTensor,

    // ---- program structure ----------------------------------------------
    /// CTA index along `axis` (attr). Result: i32.
    ProgramId,
    /// Grid extent along `axis` (attr). Result: i32.
    NumPrograms,

    // ---- arith (polymorphic over scalar / same-shape tensor) -------------
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division for ints).
    Div,
    /// Remainder.
    Rem,
    /// Elementwise/scalar minimum.
    Min,
    /// Elementwise/scalar maximum.
    Max,
    /// Comparison. Attr `pred: Str` (one of `lt,le,gt,ge,eq,ne`).
    Cmp,
    /// Ternary select `(cond, then, else)`.
    Select,
    /// Negation.
    Neg,
    /// Base-e exponential.
    Exp,
    /// Base-2 exponential (maps onto the SFU `ex2` path like Triton).
    Exp2,
    /// Type cast; target given by the result type.
    Cast,

    // ---- tile ------------------------------------------------------------
    /// `[start, end)` iota. Attrs `start: Int`, `end: Int`. Result
    /// `tensor<(end-start) x i32>`.
    Arange,
    /// Scalar → tensor broadcast; shape given by result type.
    Splat,
    /// Insert a size-1 axis. Attr `axis: Int`.
    ExpandDims,
    /// Broadcast size-1 axes up to the result shape.
    BroadcastTo,
    /// 2-D transpose.
    Transpose,
    /// Reduce-maximum along `axis` (attr), removing that axis.
    ReduceMax,
    /// Reduce-sum along `axis` (attr), removing that axis.
    ReduceSum,
    /// Tile matrix-multiply-accumulate `(a, b, acc) -> acc + a·b`.
    /// Lowered to WGMMA on Hopper. Attr `async: Bool` is set by the
    /// fine-grained pipelining pass.
    Dot,
    /// Asynchronous bulk tile load `(desc, coords...) -> tensor` via the
    /// Tensor Memory Accelerator.
    TmaLoad,
    /// Asynchronous bulk tile store `(desc, coords..., tile)`.
    TmaStore,
    /// Pointer arithmetic: `(ptr, offsets) -> addrs` (i64 tensor/scalar).
    AddPtr,
    /// Gather load from computed addresses `(addrs [, mask]) -> tensor`.
    Load,
    /// Scatter store to computed addresses `(addrs, value [, mask])`.
    Store,

    // ---- scf ---------------------------------------------------------------
    /// Counted loop: operands `(lo, hi, step, inits...)`, one region whose
    /// block takes `(iv, iters...)`, results are the final iter values.
    For,
    /// Region terminator yielding iteration values.
    Yield,

    // ---- tawa ----------------------------------------------------------------
    /// Allocates a `D`-slot ring of asynchronous references. Attr
    /// `depth: Int`. Result: `aref` value.
    CreateAref,
    /// Producer publication: `(aref, slot, payload...)` (paper: `put`).
    ArefPut,
    /// Consumer acquisition: `(aref, slot) -> payload...` (paper: `get`).
    ArefGet,
    /// Consumer release: `(aref, slot)` (paper: `consumed`).
    ArefConsumed,
    /// A warp-group partition. Attr `partition: Int`, `role: Str`
    /// (`"producer"`/`"consumer"`). One region executed by one warp group.
    WarpGroup,
    /// Barrier on an asynchronously issued [`OpKind::Dot`]: passes its
    /// operand through once at most `pendings` (attr) WGMMA groups remain
    /// in flight.
    DotWait,
}

impl OpKind {
    /// The printable, parseable mnemonic, in `dialect.name` form.
    pub fn name(self) -> &'static str {
        use OpKind::*;
        match self {
            ConstInt => "arith.const_int",
            ConstFloat => "arith.const_float",
            ConstTensor => "tile.const_tensor",
            ProgramId => "tile.program_id",
            NumPrograms => "tile.num_programs",
            Add => "arith.add",
            Sub => "arith.sub",
            Mul => "arith.mul",
            Div => "arith.div",
            Rem => "arith.rem",
            Min => "arith.min",
            Max => "arith.max",
            Cmp => "arith.cmp",
            Select => "arith.select",
            Neg => "arith.neg",
            Exp => "math.exp",
            Exp2 => "math.exp2",
            Cast => "arith.cast",
            Arange => "tile.arange",
            Splat => "tile.splat",
            ExpandDims => "tile.expand_dims",
            BroadcastTo => "tile.broadcast_to",
            Transpose => "tile.transpose",
            ReduceMax => "tile.reduce_max",
            ReduceSum => "tile.reduce_sum",
            Dot => "tile.dot",
            TmaLoad => "tile.tma_load",
            TmaStore => "tile.tma_store",
            AddPtr => "tile.addptr",
            Load => "tile.load",
            Store => "tile.store",
            For => "scf.for",
            Yield => "scf.yield",
            CreateAref => "tawa.create_aref",
            ArefPut => "tawa.put",
            ArefGet => "tawa.get",
            ArefConsumed => "tawa.consumed",
            WarpGroup => "tawa.warp_group",
            DotWait => "tawa.dot_wait",
        }
    }

    /// Parses a mnemonic produced by [`OpKind::name`].
    pub fn parse(s: &str) -> Option<OpKind> {
        use OpKind::*;
        Some(match s {
            "arith.const_int" => ConstInt,
            "arith.const_float" => ConstFloat,
            "tile.const_tensor" => ConstTensor,
            "tile.program_id" => ProgramId,
            "tile.num_programs" => NumPrograms,
            "arith.add" => Add,
            "arith.sub" => Sub,
            "arith.mul" => Mul,
            "arith.div" => Div,
            "arith.rem" => Rem,
            "arith.min" => Min,
            "arith.max" => Max,
            "arith.cmp" => Cmp,
            "arith.select" => Select,
            "arith.neg" => Neg,
            "math.exp" => Exp,
            "math.exp2" => Exp2,
            "arith.cast" => Cast,
            "tile.arange" => Arange,
            "tile.splat" => Splat,
            "tile.expand_dims" => ExpandDims,
            "tile.broadcast_to" => BroadcastTo,
            "tile.transpose" => Transpose,
            "tile.reduce_max" => ReduceMax,
            "tile.reduce_sum" => ReduceSum,
            "tile.dot" => Dot,
            "tile.tma_load" => TmaLoad,
            "tile.tma_store" => TmaStore,
            "tile.addptr" => AddPtr,
            "tile.load" => Load,
            "tile.store" => Store,
            "scf.for" => For,
            "scf.yield" => Yield,
            "tawa.create_aref" => CreateAref,
            "tawa.put" => ArefPut,
            "tawa.get" => ArefGet,
            "tawa.consumed" => ArefConsumed,
            "tawa.warp_group" => WarpGroup,
            "tawa.dot_wait" => DotWait,
            _ => return None,
        })
    }

    /// All op kinds (used by the parser table and property tests).
    pub fn all() -> &'static [OpKind] {
        use OpKind::*;
        &[
            ConstInt,
            ConstFloat,
            ConstTensor,
            ProgramId,
            NumPrograms,
            Add,
            Sub,
            Mul,
            Div,
            Rem,
            Min,
            Max,
            Cmp,
            Select,
            Neg,
            Exp,
            Exp2,
            Cast,
            Arange,
            Splat,
            ExpandDims,
            BroadcastTo,
            Transpose,
            ReduceMax,
            ReduceSum,
            Dot,
            TmaLoad,
            TmaStore,
            AddPtr,
            Load,
            Store,
            For,
            Yield,
            CreateAref,
            ArefPut,
            ArefGet,
            ArefConsumed,
            WarpGroup,
            DotWait,
        ]
    }

    /// Terminator ops end a block and may not be followed by other ops.
    pub fn is_terminator(self) -> bool {
        matches!(self, OpKind::Yield)
    }

    /// Ops with memory or channel side effects; these anchor the backward
    /// traversal of the partitioning pass and are never dead-code-eliminated.
    pub fn has_side_effect(self) -> bool {
        matches!(
            self,
            OpKind::Store
                | OpKind::TmaStore
                | OpKind::ArefPut
                | OpKind::ArefConsumed
                | OpKind::Yield
                | OpKind::WarpGroup
        )
    }

    /// Pure elementwise binary arith ops (operate on scalars or tiles).
    pub fn is_binary_arith(self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Rem
                | OpKind::Min
                | OpKind::Max
        )
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
        matches!(self, OpKind::Neg | OpKind::Exp | OpKind::Exp2)
    }

    /// Ops that carry nested regions.
    pub fn has_regions(self) -> bool {
        matches!(self, OpKind::For | OpKind::WarpGroup)
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
        for &k in OpKind::all() {
            assert_eq!(OpKind::parse(k.name()), Some(k), "mnemonic {k}");
        }
        assert_eq!(OpKind::parse("bogus.op"), None);
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
    fn side_effects_and_terminators() {
        assert!(OpKind::Store.has_side_effect());
        assert!(OpKind::ArefPut.has_side_effect());
        assert!(!OpKind::Dot.has_side_effect());
        assert!(OpKind::Yield.is_terminator());
        assert!(!OpKind::For.is_terminator());
        assert!(OpKind::For.has_regions());
        assert!(OpKind::WarpGroup.has_regions());
        assert!(!OpKind::Dot.has_regions());
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
