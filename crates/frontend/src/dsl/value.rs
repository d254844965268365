//! Typed value handles and the traits that make the builder's operations
//! generic over them.
//!
//! Handles are small `Copy` tokens — a [`tawa_ir::op::ValueId`] plus the
//! [`ScopeId`] of the region they were defined in and a phantom element
//! marker ([`crate::dsl::elem`]). All type information lives in the
//! underlying [`tawa_ir::func::Func`] arena, so handles never go stale.

use std::marker::PhantomData;

use tawa_ir::op::ValueId;

use super::elem::{Any, Bool, Elem, I64};

/// Identifies one structural region (the kernel body, a `for_range` body,
/// an `if_` branch) of one specific [`crate::dsl::KernelBuilder`], for
/// use-scope checking. Values may only be used while their defining
/// region — or one of its ancestors — is still open, and only inside the
/// builder that created them; leaking a loop-body value through a
/// captured variable, or mixing handles across builders, is reported as
/// a source-located diagnostic instead of producing invalid IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId {
    /// Which `KernelBuilder` the value belongs to (process-unique).
    pub(super) builder: u32,
    /// Region index within that builder (0 = kernel body).
    pub(super) region: u32,
}

/// A tile (dense per-CTA tensor) expression of element type `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileExpr<E: Elem = Any> {
    pub(super) id: ValueId,
    pub(super) scope: ScopeId,
    pub(super) _elem: PhantomData<E>,
}

/// A scalar (index, size, flag) expression of element type `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar<E: Elem = Any> {
    pub(super) id: ValueId,
    pub(super) scope: ScopeId,
    pub(super) _elem: PhantomData<E>,
}

/// A TMA tensor-descriptor kernel parameter with element type `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desc<E: Elem = Any> {
    pub(super) id: ValueId,
    pub(super) scope: ScopeId,
    pub(super) _elem: PhantomData<E>,
}

/// A global-memory pointer kernel parameter with pointee type `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPtr<E: Elem = Any> {
    pub(super) id: ValueId,
    pub(super) scope: ScopeId,
    pub(super) _elem: PhantomData<E>,
}

/// A tile of computed global-memory addresses (the result of
/// [`crate::dsl::KernelBuilder::addptr`]), consumed by `load`/`store`.
pub type Addrs = TileExpr<I64>;

pub(super) fn wrap_tile<E: Elem>(id: ValueId, scope: ScopeId) -> TileExpr<E> {
    TileExpr {
        id,
        scope,
        _elem: PhantomData,
    }
}

pub(super) fn wrap_scalar<E: Elem>(id: ValueId, scope: ScopeId) -> Scalar<E> {
    Scalar {
        id,
        scope,
        _elem: PhantomData,
    }
}

impl<E: Elem> TileExpr<E> {
    /// Erases the static element marker (e.g. to mix a statically-typed
    /// tile into a kernel that is generic over its input precision).
    pub fn erased(self) -> TileExpr<Any> {
        wrap_tile(self.id, self.scope)
    }
}

impl<E: Elem> Scalar<E> {
    /// Erases the static element marker.
    pub fn erased(self) -> Scalar<Any> {
        wrap_scalar(self.id, self.scope)
    }
}

/// Anything that denotes an SSA value: tiles, scalars, descriptors,
/// pointers. Used by builder operations that accept any operand kind.
pub trait Value: Copy {
    /// The underlying IR value.
    fn value_id(self) -> ValueId;
    /// The region the value was defined in.
    fn scope(self) -> ScopeId;
}

impl<E: Elem> Value for TileExpr<E> {
    fn value_id(self) -> ValueId {
        self.id
    }
    fn scope(self) -> ScopeId {
        self.scope
    }
}

impl<E: Elem> Value for Scalar<E> {
    fn value_id(self) -> ValueId {
        self.id
    }
    fn scope(self) -> ScopeId {
        self.scope
    }
}

impl<E: Elem> Value for Desc<E> {
    fn value_id(self) -> ValueId {
        self.id
    }
    fn scope(self) -> ScopeId {
        self.scope
    }
}

impl<E: Elem> Value for GlobalPtr<E> {
    fn value_id(self) -> ValueId {
        self.id
    }
    fn scope(self) -> ScopeId {
        self.scope
    }
}

/// Broadcast typing for binary operations: pairs an operand kind with a
/// compatible right-hand side and names the result kinds. A scalar
/// combined with a tile broadcasts up to the tile; comparisons produce
/// the boolean variant of the joined kind. Both operands must share the
/// element marker `E`, which is what makes `f16 + f32` a Rust type error
/// when the kernel is statically typed.
pub trait Join<Rhs: Value>: Value {
    /// Result kind of an arithmetic combination.
    type Out;
    /// Result kind of a comparison (`Bool` element).
    type Pred;
    /// Wraps the emitted arithmetic result.
    fn wrap_out(id: ValueId, scope: ScopeId) -> Self::Out;
    /// Wraps the emitted comparison result.
    fn wrap_pred(id: ValueId, scope: ScopeId) -> Self::Pred;
}

impl<E: Elem> Join<Scalar<E>> for Scalar<E> {
    type Out = Scalar<E>;
    type Pred = Scalar<Bool>;
    fn wrap_out(id: ValueId, scope: ScopeId) -> Scalar<E> {
        wrap_scalar(id, scope)
    }
    fn wrap_pred(id: ValueId, scope: ScopeId) -> Scalar<Bool> {
        wrap_scalar(id, scope)
    }
}

impl<E: Elem> Join<TileExpr<E>> for Scalar<E> {
    type Out = TileExpr<E>;
    type Pred = TileExpr<Bool>;
    fn wrap_out(id: ValueId, scope: ScopeId) -> TileExpr<E> {
        wrap_tile(id, scope)
    }
    fn wrap_pred(id: ValueId, scope: ScopeId) -> TileExpr<Bool> {
        wrap_tile(id, scope)
    }
}

impl<E: Elem> Join<Scalar<E>> for TileExpr<E> {
    type Out = TileExpr<E>;
    type Pred = TileExpr<Bool>;
    fn wrap_out(id: ValueId, scope: ScopeId) -> TileExpr<E> {
        wrap_tile(id, scope)
    }
    fn wrap_pred(id: ValueId, scope: ScopeId) -> TileExpr<Bool> {
        wrap_tile(id, scope)
    }
}

impl<E: Elem> Join<TileExpr<E>> for TileExpr<E> {
    type Out = TileExpr<E>;
    type Pred = TileExpr<Bool>;
    fn wrap_out(id: ValueId, scope: ScopeId) -> TileExpr<E> {
        wrap_tile(id, scope)
    }
    fn wrap_pred(id: ValueId, scope: ScopeId) -> TileExpr<Bool> {
        wrap_tile(id, scope)
    }
}

/// Values carried through a structured region: the loop-carried state of
/// [`crate::dsl::KernelBuilder::for_range`] and the per-branch results of
/// [`crate::dsl::KernelBuilder::if_`]. Implemented for single handles and
/// tuples of up to four.
pub trait Carried: Copy {
    /// Appends the underlying `(value, defining scope)` pairs in
    /// declaration order.
    fn push_uses(&self, out: &mut Vec<(ValueId, ScopeId)>);
    /// Number of carried values.
    fn len() -> usize;
    /// Rebuilds the handle set over fresh values (block arguments or
    /// region results), all belonging to `scope`. `ids` yields exactly
    /// [`Carried::len`] values.
    fn rebind(ids: &mut dyn Iterator<Item = ValueId>, scope: ScopeId) -> Self;
    /// True if every leaf is a tile (required by `if_`, which lowers to
    /// tile-level predicated selects).
    fn all_tiles() -> bool;
}

/// The next of the ids a [`Carried::rebind`] caller passes, one per leaf.
/// Should one be missing, the leaf gets an id no builder owns, and its
/// first use is diagnosed as foreign rather than panicking here.
fn next_id(ids: &mut dyn Iterator<Item = ValueId>) -> ValueId {
    ids.next().unwrap_or(ValueId(u32::MAX))
}

impl<E: Elem> Carried for TileExpr<E> {
    fn push_uses(&self, out: &mut Vec<(ValueId, ScopeId)>) {
        out.push((self.id, self.scope));
    }
    fn len() -> usize {
        1
    }
    fn rebind(ids: &mut dyn Iterator<Item = ValueId>, scope: ScopeId) -> Self {
        wrap_tile(next_id(ids), scope)
    }
    fn all_tiles() -> bool {
        true
    }
}

impl<E: Elem> Carried for Scalar<E> {
    fn push_uses(&self, out: &mut Vec<(ValueId, ScopeId)>) {
        out.push((self.id, self.scope));
    }
    fn len() -> usize {
        1
    }
    fn rebind(ids: &mut dyn Iterator<Item = ValueId>, scope: ScopeId) -> Self {
        wrap_scalar(next_id(ids), scope)
    }
    fn all_tiles() -> bool {
        false
    }
}

macro_rules! carried_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Carried),+> Carried for ($($t,)+) {
            fn push_uses(&self, out: &mut Vec<(ValueId, ScopeId)>) {
                $(self.$i.push_uses(out);)+
            }
            fn len() -> usize {
                0 $(+ $t::len())+
            }
            fn rebind(ids: &mut dyn Iterator<Item = ValueId>, scope: ScopeId) -> Self {
                ($($t::rebind(ids, scope),)+)
            }
            fn all_tiles() -> bool {
                true $(&& $t::all_tiles())+
            }
        }
    };
}

carried_tuple!(A.0);
carried_tuple!(A.0, B.1);
carried_tuple!(A.0, B.1, C.2);
carried_tuple!(A.0, B.1, C.2, D.3);
