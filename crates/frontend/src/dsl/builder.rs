//! The typed, source-located kernel builder.
//!
//! [`KernelBuilder`] is the authoring surface of `tawa::dsl`: every
//! operation is a `#[track_caller]` method, so the [`Loc`] of the author's
//! call site is stamped on the emitted IR op and travels with every
//! diagnostic the compiler later produces about it. Misuse — a shape or
//! element mismatch, a value escaping the region it was defined in, a
//! kernel that never stores — is collected as source-located
//! [`Diagnostic`]s and reported by [`KernelBuilder::finish`]; nothing in
//! the DSL panics on bad kernels. Every result type comes from
//! [`OpKind::infer`], the rule the IR verifier checks, and a shape or
//! element mismatch is its message, prefixed with the op's mnemonic. What
//! stays here is what is not a type rule: values from another builder or
//! escaping their region, descriptor rank against coordinate count, and a
//! kernel that never stores. A kernel that finishes successfully is
//! well-formed by construction (the IR verifier runs as a final belt and
//! suspenders).

use std::marker::PhantomData;

use tawa_ir::diag::Diagnostic;
use tawa_ir::func::{Func, Module};
use tawa_ir::loc::Loc;
use tawa_ir::op::{Attr, AttrMap, BlockId, CmpPred, OpId, OpKind, ValueId};
use tawa_ir::parse::MAX_REGION_DEPTH;
use tawa_ir::spec::{LaunchSpec, ParamValue, SpecClass};
use tawa_ir::types::{DType, Shape, Type};
use tawa_ir::verify::verify_module;

use super::elem::{Any, Bool, Elem, StaticElem, F32, I32, I64};
use super::value::{
    wrap_scalar, wrap_tile, Addrs, Carried, Desc, GlobalPtr, Join, Scalar, ScopeId, TileExpr, Value,
};
use super::Program;

/// Builds one tile-program kernel: parameters, body, launch geometry.
///
/// See the [module docs](crate::dsl) for the full grammar and the
/// `docs/dsl.md` reference. Construction never panics on a malformed
/// kernel; all misuse is reported by [`KernelBuilder::finish`].
pub struct KernelBuilder {
    func: Func,
    /// Insertion-point stack: the innermost open block.
    blocks: Vec<BlockId>,
    /// Process-unique id of this builder; baked into every handle's
    /// [`ScopeId`] so a handle from another builder is detected even
    /// when its `ValueId` happens to be in range here.
    builder_id: u32,
    /// Active structural scopes (root + every open region/branch).
    scopes: Vec<u32>,
    next_scope: u32,
    errors: Vec<Diagnostic>,
    params: Vec<ParamValue>,
    /// Global-tensor rank of each descriptor parameter, for checking
    /// `tma_load`/`tma_store` coordinate counts at the call site.
    desc_ranks: Vec<(ValueId, usize)>,
    launch: Option<(Vec<SpecClass>, [u64; 3], f64)>,
    has_store: bool,
    def_loc: Loc,
}

/// What the builder knows of an op's one result before typing it.
enum Given {
    /// The IR states the type (see [`OpKind::infer`]); poison takes it too.
    Stated(Type),
    /// The rule derives the type; poison takes this value's.
    Like(ValueId),
    /// The rule derives the type; poison takes this one.
    Or(Type),
}

/// Source of process-unique builder ids (see `KernelBuilder::builder_id`).
static NEXT_BUILDER_ID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

impl std::fmt::Debug for KernelBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBuilder")
            .field("kernel", &self.func.name)
            .field("params", &self.params.len())
            .field("errors", &self.errors.len())
            .finish()
    }
}

impl KernelBuilder {
    /// Starts a new kernel named `name`.
    #[track_caller]
    pub fn new(name: &str) -> KernelBuilder {
        let func = Func::new(name, &[]);
        let body = func.body_block();
        KernelBuilder {
            func,
            blocks: vec![body],
            builder_id: NEXT_BUILDER_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            scopes: vec![0],
            next_scope: 1,
            errors: Vec::new(),
            params: Vec::new(),
            desc_ranks: Vec::new(),
            launch: None,
            has_store: false,
            def_loc: Loc::caller(),
        }
    }

    /// The kernel name.
    pub fn name_str(&self) -> &str {
        &self.func.name
    }

    /// Diagnostics collected so far (misuse found before `finish`).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.errors
    }

    // ---- internals --------------------------------------------------------

    // The block and scope stacks start with the function body and the
    // root scope, and a region closes only what it opened, so neither
    // runs empty; the fallbacks name the bottom of each.
    fn cur_block(&self) -> BlockId {
        self.blocks
            .last()
            .copied()
            .unwrap_or_else(|| self.func.body_block())
    }

    fn cur_scope(&self) -> ScopeId {
        ScopeId {
            builder: self.builder_id,
            region: self.scopes.last().copied().unwrap_or(0),
        }
    }

    fn root_scope(&self) -> ScopeId {
        ScopeId {
            builder: self.builder_id,
            region: 0,
        }
    }

    fn diag(&mut self, loc: Loc, msg: impl Into<String>) {
        let name = self.func.name.clone();
        self.errors
            .push(Diagnostic::error(msg).with_func(name).with_loc(loc));
    }

    fn emit(
        &mut self,
        kind: OpKind,
        operands: Vec<ValueId>,
        results: Vec<Type>,
        attrs: AttrMap,
        loc: Loc,
    ) -> OpId {
        let block = self.cur_block();
        let op = self.func.push_op(block, kind, operands, results, attrs);
        self.func.set_loc(op, Some(loc));
        op
    }

    /// The result types [`OpKind::infer`] gives `kind` over `operands`,
    /// or `None` once its message is recorded as the located diagnostic
    /// `"{kind}: {msg}"`.
    fn infer(
        &mut self,
        kind: OpKind,
        operands: &[ValueId],
        attrs: &AttrMap,
        stated: Option<&Type>,
        loc: Loc,
    ) -> Option<Vec<Type>> {
        let tys: Vec<&Type> = operands.iter().map(|&v| self.func.ty(v)).collect();
        match kind.infer(&tys, attrs, stated) {
            Ok(results) => Some(results.into_vec()),
            Err(msg) => {
                self.diag(loc, format!("{kind}: {msg}"));
                None
            }
        }
    }

    /// Emits a one-result `kind` typed by [`OpKind::infer`]; on a type
    /// error, records it and returns poison typed as `given` says.
    fn typed(
        &mut self,
        kind: OpKind,
        operands: Vec<ValueId>,
        attrs: AttrMap,
        given: Given,
        loc: Loc,
    ) -> ValueId {
        let stated = match &given {
            Given::Stated(t) => Some(t),
            Given::Like(_) | Given::Or(_) => None,
        };
        match self.infer(kind, &operands, &attrs, stated, loc) {
            Some(results) => {
                let op = self.emit(kind, operands, results, attrs, loc);
                self.func.result(op)
            }
            None => {
                let ty = match given {
                    Given::Stated(t) | Given::Or(t) => t,
                    Given::Like(v) => self.ty_of(v),
                };
                self.poison(ty, loc)
            }
        }
    }

    /// A constant of `kind` holding `value`, of type `ty`.
    fn constant(&mut self, kind: OpKind, value: Attr, ty: Type, loc: Loc) -> ValueId {
        let mut a = AttrMap::new();
        a.set("value", value);
        self.typed(kind, vec![], a, Given::Stated(ty), loc)
    }

    /// A placeholder value of type `ty`, emitted after an error so kernel
    /// construction can continue and collect further independent
    /// diagnostics. Poison never escapes: `finish` fails whenever any
    /// diagnostic was recorded.
    fn poison(&mut self, ty: Type, loc: Loc) -> ValueId {
        let kind = match &ty {
            Type::Tensor(..) => OpKind::ConstTensor,
            _ => OpKind::ConstInt,
        };
        let mut attrs = AttrMap::new();
        match kind {
            OpKind::ConstTensor => attrs.set("value", Attr::Float(0.0)),
            _ => attrs.set("value", Attr::Int(0)),
        }
        let op = self.emit(kind, vec![], vec![ty], attrs, loc);
        self.func.result(op)
    }

    /// Registers a use of `v`, checking it belongs to this kernel and that
    /// its defining region is still open. Returns a typed value id either
    /// way (poison on a foreign value), so inference downstream proceeds.
    fn use_val(&mut self, v: impl Value, what: &str, fallback: Type, loc: Loc) -> ValueId {
        let id = v.value_id();
        let scope = v.scope();
        if scope.builder != self.builder_id || (id.0 as usize) >= self.func.num_values() {
            self.diag(
                loc,
                format!("{what}: value does not belong to this kernel builder"),
            );
            return self.poison(fallback, loc);
        }
        if !self.scopes.contains(&scope.region) {
            self.diag(
                loc,
                format!(
                    "{what}: value used outside the region it was defined in \
                     (loop-carried state must flow through the region's results)"
                ),
            );
        }
        id
    }

    fn ty_of(&self, id: ValueId) -> Type {
        self.func.ty(id).clone()
    }

    /// Element type of `id`, or `or` when it has none.
    fn elem_of(&self, id: ValueId, or: DType) -> DType {
        self.func.ty(id).elem().unwrap_or(or)
    }

    fn open_region(&mut self, block: BlockId) -> ScopeId {
        let s = self.open_scope();
        self.blocks.push(block);
        s
    }

    fn close_region(&mut self) {
        self.scopes.pop();
        self.blocks.pop();
    }

    fn open_scope(&mut self) -> ScopeId {
        let s = self.next_scope;
        self.next_scope += 1;
        self.scopes.push(s);
        ScopeId {
            builder: self.builder_id,
            region: s,
        }
    }

    fn close_scope(&mut self) {
        self.scopes.pop();
    }

    // ---- parameters -------------------------------------------------------

    fn push_param(&mut self, ty: Type, value: ParamValue) -> ValueId {
        let entry = self.func.body_block();
        self.params.push(value);
        self.func.add_block_arg(entry, ty)
    }

    /// Declares a TMA tensor-descriptor parameter over a global tensor of
    /// `global_shape` and element type `dt` (the launch binds the shape).
    #[track_caller]
    pub fn desc_param(&mut self, dt: DType, global_shape: impl Into<Vec<usize>>) -> Desc<Any> {
        let shape = global_shape.into();
        let rank = shape.len();
        let id = self.push_param(
            Type::TensorDesc(dt),
            ParamValue::Global { shape, dtype: dt },
        );
        self.desc_ranks.push((id, rank));
        Desc {
            id,
            scope: self.root_scope(),
            _elem: PhantomData,
        }
    }

    /// Statically-typed variant of [`KernelBuilder::desc_param`]: the
    /// element type comes from the marker (`typed_desc_param::<F16>(..)`).
    #[track_caller]
    pub fn typed_desc_param<E: StaticElem>(
        &mut self,
        global_shape: impl Into<Vec<usize>>,
    ) -> Desc<E> {
        let shape = global_shape.into();
        let rank = shape.len();
        let id = self.push_param(
            Type::TensorDesc(E::DT),
            ParamValue::Global {
                shape,
                dtype: E::DT,
            },
        );
        self.desc_ranks.push((id, rank));
        Desc {
            id,
            scope: self.root_scope(),
            _elem: PhantomData,
        }
    }

    /// Declares a global-memory pointer parameter with pointee type `dt`.
    #[track_caller]
    pub fn ptr_param(&mut self, dt: DType, global_shape: impl Into<Vec<usize>>) -> GlobalPtr<Any> {
        let id = self.push_param(
            Type::Ptr(dt),
            ParamValue::Global {
                shape: global_shape.into(),
                dtype: dt,
            },
        );
        GlobalPtr {
            id,
            scope: self.root_scope(),
            _elem: PhantomData,
        }
    }

    /// Statically-typed variant of [`KernelBuilder::ptr_param`].
    #[track_caller]
    pub fn typed_ptr_param<E: StaticElem>(
        &mut self,
        global_shape: impl Into<Vec<usize>>,
    ) -> GlobalPtr<E> {
        let id = self.push_param(
            Type::Ptr(E::DT),
            ParamValue::Global {
                shape: global_shape.into(),
                dtype: E::DT,
            },
        );
        GlobalPtr {
            id,
            scope: self.root_scope(),
            _elem: PhantomData,
        }
    }

    /// Declares an `i32` scalar parameter bound to `value` at launch.
    #[track_caller]
    pub fn i32_param(&mut self, value: i64) -> Scalar<I32> {
        let id = self.push_param(Type::i32(), ParamValue::Int(value));
        let scope = self.root_scope();
        wrap_scalar(id, scope)
    }

    // ---- launch geometry --------------------------------------------------

    /// Declares a uniform launch: `grid` CTAs whose timing behaviour is
    /// `program_id`-independent, performing `useful_flops` in total.
    #[track_caller]
    pub fn launch_uniform(&mut self, grid: u64, useful_flops: f64) {
        self.launch = Some((
            vec![SpecClass {
                pid: [0, 0, 0],
                multiplicity: grid,
            }],
            [grid, 1, 1],
            useful_flops,
        ));
    }

    /// Declares a general launch: explicit CTA classes and grid extents
    /// (CTAs that observe different `program_id`s and may run different
    /// trip counts each get a class; see [`SpecClass`]).
    #[track_caller]
    pub fn launch(&mut self, classes: Vec<SpecClass>, grid_dims: [u64; 3], useful_flops: f64) {
        self.launch = Some((classes, grid_dims, useful_flops));
    }

    // ---- constants --------------------------------------------------------

    /// `i32` constant.
    #[track_caller]
    pub fn i32(&mut self, v: i64) -> Scalar<I32> {
        let loc = Loc::caller();
        let id = self.constant(OpKind::ConstInt, Attr::Int(v), Type::i32(), loc);
        wrap_scalar(id, self.cur_scope())
    }

    /// `i64` constant.
    #[track_caller]
    pub fn i64(&mut self, v: i64) -> Scalar<I64> {
        let loc = Loc::caller();
        let id = self.constant(OpKind::ConstInt, Attr::Int(v), Type::i64(), loc);
        wrap_scalar(id, self.cur_scope())
    }

    /// `f32` scalar constant.
    #[track_caller]
    pub fn f32(&mut self, v: f64) -> Scalar<F32> {
        let loc = Loc::caller();
        let id = self.constant(OpKind::ConstFloat, Attr::Float(v), Type::f32(), loc);
        wrap_scalar(id, self.cur_scope())
    }

    /// Float scalar constant of runtime element type `dt`.
    #[track_caller]
    pub fn float_dt(&mut self, v: f64, dt: DType) -> Scalar<Any> {
        let loc = Loc::caller();
        let id = self.constant(OpKind::ConstFloat, Attr::Float(v), Type::Scalar(dt), loc);
        wrap_scalar(id, self.cur_scope())
    }

    fn full_impl(&mut self, shape: Shape, value: f64, dt: DType, loc: Loc) -> ValueId {
        let ty = Type::Tensor(shape, dt);
        self.constant(OpKind::ConstTensor, Attr::Float(value), ty, loc)
    }

    /// Splat-constant tile with element type from the marker.
    #[track_caller]
    pub fn full<E: StaticElem>(&mut self, shape: impl Into<Shape>, value: f64) -> TileExpr<E> {
        let loc = Loc::caller();
        let id = self.full_impl(shape.into(), value, E::DT, loc);
        wrap_tile(id, self.cur_scope())
    }

    /// Splat-constant tile of runtime element type `dt`.
    #[track_caller]
    pub fn full_dt(&mut self, shape: impl Into<Shape>, value: f64, dt: DType) -> TileExpr<Any> {
        let loc = Loc::caller();
        let id = self.full_impl(shape.into(), value, dt, loc);
        wrap_tile(id, self.cur_scope())
    }

    /// All-zero tile with element type from the marker.
    #[track_caller]
    pub fn zeros<E: StaticElem>(&mut self, shape: impl Into<Shape>) -> TileExpr<E> {
        let loc = Loc::caller();
        let id = self.full_impl(shape.into(), 0.0, E::DT, loc);
        wrap_tile(id, self.cur_scope())
    }

    /// All-zero tile of runtime element type `dt`.
    #[track_caller]
    pub fn zeros_dt(&mut self, shape: impl Into<Shape>, dt: DType) -> TileExpr<Any> {
        let loc = Loc::caller();
        let id = self.full_impl(shape.into(), 0.0, dt, loc);
        wrap_tile(id, self.cur_scope())
    }

    // ---- program structure ------------------------------------------------

    fn axis_op(&mut self, kind: OpKind, axis: usize, loc: Loc) -> Scalar<I32> {
        let mut a = AttrMap::new();
        a.set("axis", Attr::Int(i64::try_from(axis).unwrap_or(i64::MAX)));
        let id = self.typed(kind, vec![], a, Given::Or(Type::i32()), loc);
        wrap_scalar(id, self.cur_scope())
    }

    /// CTA id along `axis` (`tl.program_id`).
    #[track_caller]
    pub fn program_id(&mut self, axis: usize) -> Scalar<I32> {
        let loc = Loc::caller();
        self.axis_op(OpKind::ProgramId, axis, loc)
    }

    /// Grid extent along `axis` (`tl.num_programs`).
    #[track_caller]
    pub fn num_programs(&mut self, axis: usize) -> Scalar<I32> {
        let loc = Loc::caller();
        self.axis_op(OpKind::NumPrograms, axis, loc)
    }

    // ---- arithmetic -------------------------------------------------------

    fn binop<A, B>(&mut self, kind: OpKind, a: A, b: B, loc: Loc) -> A::Out
    where
        A: Join<B>,
        B: Value,
    {
        let what = kind.name();
        let ia = self.use_val(a, what, Type::i32(), loc);
        let ib = self.use_val(b, what, Type::i32(), loc);
        let id = self.typed(kind, vec![ia, ib], AttrMap::new(), Given::Like(ia), loc);
        A::wrap_out(id, self.cur_scope())
    }

    /// Addition (scalars broadcast against tiles).
    #[track_caller]
    pub fn add<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Add, a, b, loc)
    }

    /// Subtraction.
    #[track_caller]
    pub fn sub<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Sub, a, b, loc)
    }

    /// Multiplication.
    #[track_caller]
    pub fn mul<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Mul, a, b, loc)
    }

    /// Division (integer division for integer elements).
    #[track_caller]
    pub fn div<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Div, a, b, loc)
    }

    /// Remainder.
    #[track_caller]
    pub fn rem<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Rem, a, b, loc)
    }

    /// Elementwise/scalar minimum.
    #[track_caller]
    pub fn min<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Min, a, b, loc)
    }

    /// Elementwise/scalar maximum.
    #[track_caller]
    pub fn max<A: Join<B>, B: Value>(&mut self, a: A, b: B) -> A::Out {
        let loc = Loc::caller();
        self.binop(OpKind::Max, a, b, loc)
    }

    /// Ceiling division `(a + b - 1) / b` (`tl.cdiv`), expanded inline.
    #[track_caller]
    pub fn cdiv(&mut self, a: Scalar<I32>, b: Scalar<I32>) -> Scalar<I32> {
        let loc = Loc::caller();
        let one = self.constant(OpKind::ConstInt, Attr::Int(1), Type::i32(), loc);
        let one = wrap_scalar::<I32>(one, self.cur_scope());
        let bm1 = self.binop(OpKind::Sub, b, one, loc);
        let sum = self.binop(OpKind::Add, a, bm1, loc);
        self.binop(OpKind::Div, sum, b, loc)
    }

    /// Comparison producing a `bool`-element scalar or tile.
    #[track_caller]
    pub fn cmp<A: Join<B>, B: Value>(&mut self, pred: CmpPred, a: A, b: B) -> A::Pred {
        let loc = Loc::caller();
        let ia = self.use_val(a, "cmp", Type::i32(), loc);
        let ib = self.use_val(b, "cmp", Type::i32(), loc);
        let mut attrs = AttrMap::new();
        attrs.set("pred", Attr::Str(pred.name().into()));
        let id = self.typed(
            OpKind::Cmp,
            vec![ia, ib],
            attrs,
            Given::Or(Type::bool()),
            loc,
        );
        A::wrap_pred(id, self.cur_scope())
    }

    /// Tile-level predicated select: `cond ? then_t : else_t` elementwise.
    #[track_caller]
    pub fn select<E: Elem>(
        &mut self,
        cond: TileExpr<Bool>,
        then_t: TileExpr<E>,
        else_t: TileExpr<E>,
    ) -> TileExpr<E> {
        let loc = Loc::caller();
        let id = self.select_impl(cond, then_t.id, then_t.scope, else_t.id, else_t.scope, loc);
        wrap_tile(id, self.cur_scope())
    }

    fn select_impl(
        &mut self,
        cond: TileExpr<Bool>,
        then_id: ValueId,
        then_scope: ScopeId,
        else_id: ValueId,
        else_scope: ScopeId,
        loc: Loc,
    ) -> ValueId {
        let ic = self.use_val(cond, "select", Type::tensor(vec![1], DType::Bool), loc);
        let it = self.use_val(
            wrap_tile::<Any>(then_id, then_scope),
            "select",
            Type::tensor(vec![1], DType::F32),
            loc,
        );
        let ie = self.use_val(
            wrap_tile::<Any>(else_id, else_scope),
            "select",
            Type::tensor(vec![1], DType::F32),
            loc,
        );
        self.typed(
            OpKind::Select,
            vec![ic, it, ie],
            AttrMap::new(),
            Given::Like(it),
            loc,
        )
    }

    fn unary<A: Join<A>>(&mut self, kind: OpKind, a: A, loc: Loc) -> A::Out {
        let ia = self.use_val(a, kind.name(), Type::i32(), loc);
        let id = self.typed(kind, vec![ia], AttrMap::new(), Given::Like(ia), loc);
        A::wrap_out(id, self.cur_scope())
    }

    /// Negation.
    #[track_caller]
    pub fn neg<A: Join<A>>(&mut self, a: A) -> A::Out {
        let loc = Loc::caller();
        self.unary(OpKind::Neg, a, loc)
    }

    /// Base-e exponential.
    #[track_caller]
    pub fn exp<A: Join<A>>(&mut self, a: A) -> A::Out {
        let loc = Loc::caller();
        self.unary(OpKind::Exp, a, loc)
    }

    /// Base-2 exponential (the fast SFU `ex2` path, as in Triton).
    #[track_caller]
    pub fn exp2<A: Join<A>>(&mut self, a: A) -> A::Out {
        let loc = Loc::caller();
        self.unary(OpKind::Exp2, a, loc)
    }

    fn cast_impl(&mut self, id: ValueId, dt: DType, loc: Loc) -> ValueId {
        let to = match self.func.ty(id).shape() {
            Some(s) => Type::Tensor(s.clone(), dt),
            None => Type::Scalar(dt),
        };
        self.typed(
            OpKind::Cast,
            vec![id],
            AttrMap::new(),
            Given::Stated(to),
            loc,
        )
    }

    /// Shape-preserving cast to the marker's element type.
    #[track_caller]
    pub fn cast<To: StaticElem, E: Elem>(&mut self, t: TileExpr<E>) -> TileExpr<To> {
        let loc = Loc::caller();
        let id = self.use_val(t, "cast", Type::tensor(vec![1], DType::F32), loc);
        let id = self.cast_impl(id, To::DT, loc);
        wrap_tile(id, self.cur_scope())
    }

    /// Shape-preserving cast to a runtime element type.
    #[track_caller]
    pub fn cast_dt<E: Elem>(&mut self, t: TileExpr<E>, dt: DType) -> TileExpr<Any> {
        let loc = Loc::caller();
        let id = self.use_val(t, "cast", Type::tensor(vec![1], DType::F32), loc);
        let id = self.cast_impl(id, dt, loc);
        wrap_tile(id, self.cur_scope())
    }

    // ---- tile shape ops ---------------------------------------------------

    /// `[start, end)` iota tile (`tl.arange`).
    #[track_caller]
    pub fn arange(&mut self, start: i64, end: i64) -> TileExpr<I32> {
        let loc = Loc::caller();
        let mut a = AttrMap::new();
        a.set("start", Attr::Int(start));
        a.set("end", Attr::Int(end));
        let id = self.typed(
            OpKind::Arange,
            vec![],
            a,
            Given::Or(Type::tensor(vec![1], DType::I32)),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// Scalar → tile splat.
    #[track_caller]
    pub fn splat<E: Elem>(&mut self, v: Scalar<E>, shape: impl Into<Shape>) -> TileExpr<E> {
        let loc = Loc::caller();
        let iv = self.use_val(v, "splat", Type::i32(), loc);
        let to = Type::Tensor(shape.into(), self.elem_of(iv, DType::F32));
        let id = self.typed(
            OpKind::Splat,
            vec![iv],
            AttrMap::new(),
            Given::Stated(to),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// Insert a size-1 axis at `axis` (`tensor[:, None]` etc.).
    #[track_caller]
    pub fn expand_dims<E: Elem>(&mut self, t: TileExpr<E>, axis: usize) -> TileExpr<E> {
        let loc = Loc::caller();
        let it = self.use_val(t, "expand_dims", Type::tensor(vec![1], DType::F32), loc);
        let mut a = AttrMap::new();
        a.set("axis", Attr::Int(i64::try_from(axis).unwrap_or(i64::MAX)));
        let id = self.typed(OpKind::ExpandDims, vec![it], a, Given::Like(it), loc);
        wrap_tile(id, self.cur_scope())
    }

    /// Broadcast size-1 axes up to `shape`.
    #[track_caller]
    pub fn broadcast_to<E: Elem>(
        &mut self,
        t: TileExpr<E>,
        shape: impl Into<Shape>,
    ) -> TileExpr<E> {
        let loc = Loc::caller();
        let it = self.use_val(t, "broadcast_to", Type::tensor(vec![1], DType::F32), loc);
        let to = Type::Tensor(shape.into(), self.elem_of(it, DType::F32));
        let id = self.typed(
            OpKind::BroadcastTo,
            vec![it],
            AttrMap::new(),
            Given::Stated(to),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// 2-D transpose.
    #[track_caller]
    pub fn transpose<E: Elem>(&mut self, t: TileExpr<E>) -> TileExpr<E> {
        let loc = Loc::caller();
        let it = self.use_val(t, "transpose", Type::tensor(vec![1, 1], DType::F32), loc);
        let id = self.typed(
            OpKind::Transpose,
            vec![it],
            AttrMap::new(),
            Given::Like(it),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    fn reduce<E: Elem>(
        &mut self,
        kind: OpKind,
        t: TileExpr<E>,
        axis: usize,
        loc: Loc,
    ) -> TileExpr<E> {
        let it = self.use_val(t, kind.name(), Type::tensor(vec![1], DType::F32), loc);
        let mut a = AttrMap::new();
        a.set("axis", Attr::Int(i64::try_from(axis).unwrap_or(i64::MAX)));
        let id = self.typed(kind, vec![it], a, Given::Like(it), loc);
        wrap_tile(id, self.cur_scope())
    }

    /// Reduce-maximum along `axis`, removing that axis.
    #[track_caller]
    pub fn reduce_max<E: Elem>(&mut self, t: TileExpr<E>, axis: usize) -> TileExpr<E> {
        let loc = Loc::caller();
        self.reduce(OpKind::ReduceMax, t, axis, loc)
    }

    /// Reduce-sum along `axis`, removing that axis.
    #[track_caller]
    pub fn reduce_sum<E: Elem>(&mut self, t: TileExpr<E>, axis: usize) -> TileExpr<E> {
        let loc = Loc::caller();
        self.reduce(OpKind::ReduceSum, t, axis, loc)
    }

    /// Tile MMA `acc + a·b` (`tl.dot`). `a` and `b` share an input element
    /// type; the accumulator's element type (typically `f32`) is the
    /// result type.
    #[track_caller]
    pub fn dot<E: Elem, A: Elem>(
        &mut self,
        a: TileExpr<E>,
        b: TileExpr<E>,
        acc: TileExpr<A>,
    ) -> TileExpr<A> {
        let loc = Loc::caller();
        let ia = self.use_val(a, "dot", Type::tensor(vec![1, 1], DType::F16), loc);
        let ib = self.use_val(b, "dot", Type::tensor(vec![1, 1], DType::F16), loc);
        let ic = self.use_val(acc, "dot", Type::tensor(vec![1, 1], DType::F32), loc);
        let id = self.typed(
            OpKind::Dot,
            vec![ia, ib, ic],
            AttrMap::new(),
            Given::Like(ic),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    // ---- memory -----------------------------------------------------------

    /// Asynchronous TMA tile load from `desc` at `coords`, producing a
    /// tile of shape `tile`.
    #[track_caller]
    pub fn tma_load<E: Elem>(
        &mut self,
        desc: Desc<E>,
        coords: &[Scalar<I32>],
        tile: impl Into<Shape>,
    ) -> TileExpr<E> {
        let loc = Loc::caller();
        let idesc = self.use_val(desc, "tma_load", Type::TensorDesc(DType::F16), loc);
        self.check_desc_rank(idesc, coords.len(), "tma_load", loc);
        let mut operands = vec![idesc];
        for &c in coords {
            operands.push(self.use_val(c, "tma_load coordinate", Type::i32(), loc));
        }
        let to = Type::Tensor(tile.into(), self.elem_of(idesc, DType::F16));
        let id = self.typed(
            OpKind::TmaLoad,
            operands,
            AttrMap::new(),
            Given::Stated(to),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// Checks a TMA access supplies one coordinate per dimension of the
    /// descriptor's global tensor (known from its parameter declaration).
    fn check_desc_rank(&mut self, desc: ValueId, coords: usize, what: &str, loc: Loc) {
        if let Some(&(_, rank)) = self.desc_ranks.iter().find(|&&(id, _)| id == desc) {
            if coords != rank {
                self.diag(
                    loc,
                    format!(
                        "{what}: descriptor describes a rank-{rank} global tensor \
                         but {coords} coordinates were supplied"
                    ),
                );
            }
        }
    }

    /// Emits `kind`, which has no results, when [`OpKind::infer`] accepts
    /// its operands.
    fn effect(&mut self, kind: OpKind, operands: Vec<ValueId>, loc: Loc) {
        if self
            .infer(kind, &operands, &AttrMap::new(), None, loc)
            .is_some()
        {
            self.emit(kind, operands, vec![], AttrMap::new(), loc);
        }
    }

    /// Asynchronous TMA tile store of `tile` to `desc` at `coords`.
    #[track_caller]
    pub fn tma_store<E: Elem>(&mut self, desc: Desc<E>, coords: &[Scalar<I32>], tile: TileExpr<E>) {
        let loc = Loc::caller();
        let idesc = self.use_val(desc, "tma_store", Type::TensorDesc(DType::F16), loc);
        let itile = self.use_val(tile, "tma_store", Type::tensor(vec![1], DType::F16), loc);
        self.check_desc_rank(idesc, coords.len(), "tma_store", loc);
        let mut operands = vec![idesc];
        for &c in coords {
            operands.push(self.use_val(c, "tma_store coordinate", Type::i32(), loc));
        }
        operands.push(itile);
        self.effect(OpKind::TmaStore, operands, loc);
        self.has_store = true;
    }

    /// Pointer arithmetic: base pointer plus per-element integer offsets →
    /// a tile of global addresses.
    #[track_caller]
    pub fn addptr<E: Elem, O: Elem>(&mut self, ptr: GlobalPtr<E>, offsets: TileExpr<O>) -> Addrs {
        let loc = Loc::caller();
        let ip = self.use_val(ptr, "addptr", Type::Ptr(DType::F16), loc);
        let io = self.use_val(offsets, "addptr", Type::tensor(vec![1], DType::I32), loc);
        let id = self.typed(
            OpKind::AddPtr,
            vec![ip, io],
            AttrMap::new(),
            Given::Or(Type::tensor(vec![1], DType::I64)),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// Gather load of `dt` elements from computed addresses.
    #[track_caller]
    pub fn load_dt(&mut self, addrs: Addrs, dt: DType) -> TileExpr<Any> {
        let loc = Loc::caller();
        let ia = self.use_val(addrs, "load", Type::tensor(vec![1], DType::I64), loc);
        let shape = self.func.ty(ia).shape().cloned();
        let to = Type::Tensor(shape.unwrap_or_else(|| Shape(vec![1])), dt);
        let id = self.typed(
            OpKind::Load,
            vec![ia],
            AttrMap::new(),
            Given::Stated(to),
            loc,
        );
        wrap_tile(id, self.cur_scope())
    }

    /// Scatter store of `value` to computed addresses.
    #[track_caller]
    pub fn store<E: Elem>(&mut self, addrs: Addrs, value: TileExpr<E>) {
        let loc = Loc::caller();
        let ia = self.use_val(addrs, "store", Type::tensor(vec![1], DType::I64), loc);
        let iv = self.use_val(value, "store", Type::tensor(vec![1], DType::F16), loc);
        self.effect(OpKind::Store, vec![ia, iv], loc);
        self.has_store = true;
    }

    // ---- structured control flow ------------------------------------------

    /// A counted loop `for iv in (lo..hi).step_by(step)` carrying `inits`
    /// through its body. The closure receives the induction variable and
    /// the current iteration values and returns the next iteration values;
    /// `for_range` returns the final values. Values defined inside the
    /// body are scoped to it — letting one escape through a captured
    /// variable is reported as a diagnostic at the escaping use.
    #[track_caller]
    pub fn for_range<C: Carried>(
        &mut self,
        lo: Scalar<I32>,
        hi: Scalar<I32>,
        step: Scalar<I32>,
        inits: C,
        body: impl FnOnce(&mut KernelBuilder, Scalar<I32>, C) -> C,
    ) -> C {
        let loc = Loc::caller();
        let il = self.use_val(lo, "for_range lower bound", Type::i32(), loc);
        let ih = self.use_val(hi, "for_range upper bound", Type::i32(), loc);
        let is = self.use_val(step, "for_range step", Type::i32(), loc);
        let mut init_uses = Vec::new();
        inits.push_uses(&mut init_uses);
        let mut operands = vec![il, ih, is];
        for &(id, scope) in &init_uses {
            operands.push(self.use_val(
                wrap_scalar::<Any>(id, scope),
                "for_range initial value",
                Type::i32(),
                loc,
            ));
        }
        // Three bounds are always there, so this cannot fail; an empty
        // result list would leave the carried values unbound, which their
        // first use reports.
        let result_tys = self
            .infer(OpKind::For, &operands, &AttrMap::new(), None, loc)
            .unwrap_or_default();
        let for_op = self.emit(
            OpKind::For,
            operands,
            result_tys.clone(),
            AttrMap::new(),
            loc,
        );
        let (_, body_block) = self.func.add_region(for_op);
        let iv_id = self.func.add_block_arg(body_block, Type::i32());
        let iter_ids: Vec<ValueId> = result_tys
            .iter()
            .map(|ty| self.func.add_block_arg(body_block, ty.clone()))
            .collect();
        let body_scope = self.open_region(body_block);
        // The text form caps region nesting, so a deeper loop nest would
        // print but never parse back: refuse it at the first loop past
        // the cap (the block stack holds the body and each open loop).
        if self.blocks.len() == MAX_REGION_DEPTH + 2 {
            self.diag(
                loc,
                format!("for_range: loops nest deeper than {MAX_REGION_DEPTH} levels"),
            );
        }
        let iv = wrap_scalar::<I32>(iv_id, body_scope);
        let iters = C::rebind(&mut iter_ids.into_iter(), body_scope);
        let yields = body(self, iv, iters);
        let mut yield_uses = Vec::new();
        yields.push_uses(&mut yield_uses);
        let mut yield_ids = Vec::with_capacity(yield_uses.len());
        for (i, &(id, scope)) in yield_uses.iter().enumerate() {
            let id = self.use_val(
                wrap_scalar::<Any>(id, scope),
                "for_range yielded value",
                Type::i32(),
                loc,
            );
            let ty = self.func.ty(id);
            if let Some(init) = result_tys.get(i).filter(|&init| init != ty) {
                let msg = format!(
                    "for_range: iteration value {i} changed type across the loop: \
                     starts as {init} but is yielded as {ty}"
                );
                self.diag(loc, msg);
            }
            yield_ids.push(id);
        }
        self.emit(OpKind::Yield, yield_ids, vec![], AttrMap::new(), loc);
        self.close_region();
        let results = self.func.results(for_op).to_vec();
        C::rebind(&mut results.into_iter(), self.cur_scope())
    }

    /// Structured conditional over tile values, lowered to tile-level
    /// predication: both branches are evaluated and joined elementwise by
    /// `cond` with selects (the standard tile-language `where` semantics —
    /// there is no divergent control flow at tile granularity). All
    /// carried values must be tiles of the condition's shape.
    #[track_caller]
    pub fn if_<C: Carried>(
        &mut self,
        cond: TileExpr<Bool>,
        then_branch: impl FnOnce(&mut KernelBuilder) -> C,
        else_branch: impl FnOnce(&mut KernelBuilder) -> C,
    ) -> C {
        let loc = Loc::caller();
        if !C::all_tiles() {
            self.diag(
                loc,
                "if_ carries tile values only (scalar control flow must be \
                 expressed arithmetically, e.g. with min/max)",
            );
        }
        let then_ids = self.run_branch(then_branch, loc);
        let else_ids = self.run_branch(else_branch, loc);
        // Join the branch results with predicated selects. Branch values
        // live in the same block (predication, not divergence), so using
        // them here is structurally sound even though their branch scopes
        // have closed — the scopes exist to stop *user code* leaking them;
        // the results were use-checked inside `run_branch` while the
        // branch scope was still open.
        let joined: Vec<ValueId> = then_ids
            .iter()
            .zip(else_ids.iter())
            .map(|(&t, &e)| self.select_impl(cond, t, self.cur_scope(), e, self.cur_scope(), loc))
            .collect();
        C::rebind(&mut joined.into_iter(), self.cur_scope())
    }

    /// Runs one `if_` branch in a fresh scope and use-checks its results
    /// *before* the scope closes — so a foreign or out-of-scope handle
    /// returned from the branch is diagnosed (and replaced with poison)
    /// rather than silently aliasing a value of this kernel.
    fn run_branch<C: Carried>(
        &mut self,
        branch: impl FnOnce(&mut KernelBuilder) -> C,
        loc: Loc,
    ) -> Vec<ValueId> {
        self.open_scope();
        let vals = branch(self);
        let mut uses = Vec::new();
        vals.push_uses(&mut uses);
        let ids = uses
            .into_iter()
            .map(|(id, scope)| {
                self.use_val(
                    wrap_tile::<Any>(id, scope),
                    "if_ branch result",
                    Type::tensor(vec![1], DType::F32),
                    loc,
                )
            })
            .collect();
        self.close_scope();
        ids
    }

    // ---- misc -------------------------------------------------------------

    /// Names a value for readable IR dumps (`%acc` instead of `%12`).
    #[track_caller]
    pub fn name(&mut self, v: impl Value, hint: &str) {
        let loc = Loc::caller();
        let id = self.use_val(v, "name", Type::i32(), loc);
        self.func.set_name_hint(id, hint);
    }

    /// Finishes the kernel: reports collected misuse diagnostics, checks
    /// the kernel stores a result and declared its launch geometry, runs
    /// the IR verifier, and packages the result as a [`Program`].
    ///
    /// # Errors
    /// Every diagnostic collected during construction (source-located at
    /// the offending DSL call, such as a loop nest deeper than
    /// [`MAX_REGION_DEPTH`], whose printed module would not parse back),
    /// plus structural errors located at the [`KernelBuilder::new`] call
    /// site.
    pub fn finish(mut self) -> Result<Program, Vec<Diagnostic>> {
        if !self.has_store {
            let loc = self.def_loc;
            self.diag(
                loc,
                "kernel never stores a result: every tile program must end in \
                 a store or tma_store (dead kernels would be eliminated whole)",
            );
        }
        let launch = self.launch.take();
        if launch.is_none() {
            let loc = self.def_loc;
            self.diag(
                loc,
                "kernel never declared its launch geometry: call launch_uniform \
                 or launch before finish",
            );
        }
        let Some((classes, grid_dims, useful_flops)) = launch.filter(|_| self.errors.is_empty())
        else {
            return Err(self.errors);
        };
        let mut module = Module::new();
        module.add_func(self.func);
        if let Err(verrs) = verify_module(&module) {
            return Err(verrs
                .into_iter()
                .map(|e| {
                    let mut d = Diagnostic::error(e.msg)
                        .with_func(e.func)
                        .with_default_loc(e.loc);
                    d.op = e.op;
                    d
                })
                .collect());
        }
        Ok(Program::from_parts(
            module,
            LaunchSpec {
                params: self.params,
                classes,
                grid_dims,
                useful_flops,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::elem::F16;

    /// The inferred IR type of a handle.
    fn ty(k: &KernelBuilder, v: impl Value) -> Type {
        k.ty_of(v.value_id())
    }

    #[test]
    fn arithmetic_type_inference() {
        let mut k = KernelBuilder::new("t");
        let x = k.i32(3);
        let t = k.zeros::<F32>([4, 4]);
        let s = k.f32(1.0);
        let y = k.add(x, x);
        assert_eq!(ty(&k, y), Type::i32());
        let z = k.mul(t, s);
        assert_eq!(ty(&k, z), Type::tensor(vec![4, 4], DType::F32));
        let c = k.cmp(CmpPred::Lt, x, y);
        assert_eq!(ty(&k, c), Type::bool());
        let ct = k.cmp(CmpPred::Gt, t, s);
        assert_eq!(ty(&k, ct), Type::tensor(vec![4, 4], DType::Bool));
        assert!(k.diagnostics().is_empty(), "{:?}", k.diagnostics());
    }

    #[test]
    fn cdiv_expansion() {
        let mut k = KernelBuilder::new("t");
        let a = k.i32(10);
        let c = k.i32(4);
        let q = k.cdiv(a, c);
        assert_eq!(ty(&k, q), Type::i32());
        // const(10), const(4), const(1), sub, add, div
        let kinds: Vec<OpKind> = k.func.walk().iter().map(|&o| k.func.op(o).kind).collect();
        assert_eq!(
            kinds,
            [
                OpKind::ConstInt,
                OpKind::ConstInt,
                OpKind::ConstInt,
                OpKind::Sub,
                OpKind::Add,
                OpKind::Div
            ]
        );
    }

    #[test]
    fn shape_ops() {
        let mut k = KernelBuilder::new("t");
        let r = k.arange(0, 128);
        assert_eq!(ty(&k, r), Type::tensor(vec![128], DType::I32));
        let e = k.expand_dims(r, 1);
        assert_eq!(ty(&k, e), Type::tensor(vec![128, 1], DType::I32));
        let w = k.broadcast_to(e, [128, 64]);
        assert_eq!(ty(&k, w), Type::tensor(vec![128, 64], DType::I32));
        let t = k.transpose(w);
        assert_eq!(ty(&k, t), Type::tensor(vec![64, 128], DType::I32));
        let m = k.reduce_max(w, 1);
        assert_eq!(ty(&k, m), Type::tensor(vec![128], DType::I32));
        assert!(k.diagnostics().is_empty(), "{:?}", k.diagnostics());
    }

    #[test]
    fn dot_shape_check() {
        let mut k = KernelBuilder::new("t");
        let a = k.zeros::<F16>([128, 64]);
        let b = k.zeros::<F16>([64, 128]);
        let acc = k.zeros::<F32>([128, 128]);
        let d = k.dot(a, b, acc);
        assert_eq!(ty(&k, d), Type::tensor(vec![128, 128], DType::F32));
        assert!(k.diagnostics().is_empty(), "{:?}", k.diagnostics());
    }

    #[test]
    fn for_loop_structure() {
        let mut k = KernelBuilder::new("t");
        let lo = k.i32(0);
        let hi = k.i32(8);
        let step = k.i32(1);
        let init = k.i32(0);
        let res = k.for_range(lo, hi, step, init, |k, iv, acc| k.add(acc, iv));
        assert_eq!(ty(&k, res), Type::i32());
        // 4 consts + for + add + yield
        assert_eq!(k.func.walk().len(), 7);
        assert!(k.diagnostics().is_empty(), "{:?}", k.diagnostics());
    }
}
