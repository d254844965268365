//! Function-level IR arena: operations, values, blocks and regions.
//!
//! A [`Func`] owns four arenas indexed by the id types in [`crate::op`].
//! Operations reference operand values by id; values record their defining
//! op (or block argument). Regions contain blocks; blocks contain an ordered
//! list of op ids. Erased ops stay in the arena flagged dead so ids remain
//! stable across transformations — passes must not traverse dead ops, and
//! the printer and verifier skip them.

use crate::loc::Loc;
use crate::op::{Attr, AttrMap, BlockId, OpId, OpKind, RegionId, ValueId};
use crate::types::Type;

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `idx`-th result of operation `op`.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result index.
        idx: usize,
    },
    /// The `idx`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument index.
        idx: usize,
    },
}

/// Arena record for an SSA value.
#[derive(Debug, Clone)]
pub struct ValueData {
    /// Static type of the value.
    pub ty: Type,
    /// Provenance of the value.
    pub def: ValueDef,
    /// Optional human-readable name used by the printer (`%acc` vs `%12`).
    pub name_hint: Option<String>,
}

/// Arena record for an operation.
#[derive(Debug, Clone)]
pub struct OpData {
    /// Which operation this is.
    pub kind: OpKind,
    /// Operand values, in signature order.
    pub operands: Vec<ValueId>,
    /// Result values, in signature order.
    pub results: Vec<ValueId>,
    /// Named attributes.
    pub attrs: AttrMap,
    /// Nested regions (loops, warp groups).
    pub regions: Vec<RegionId>,
    /// Block containing this op, if inserted.
    pub parent: Option<BlockId>,
    /// True once erased; dead ops are skipped by all traversals.
    pub dead: bool,
    /// Source location of the tile-program statement this op came from,
    /// when the frontend captured one. Deliberately *not* an attribute:
    /// locations never appear in the printed IR, so two modules that
    /// differ only in spans share one canonical text, one fingerprint and
    /// one cache entry.
    pub loc: Option<Loc>,
}

/// Arena record for a basic block.
#[derive(Debug, Clone, Default)]
pub struct BlockData {
    /// Block arguments (loop induction variables, iter args).
    pub args: Vec<ValueId>,
    /// Ordered list of live ops.
    pub ops: Vec<OpId>,
    /// Region that owns this block.
    pub parent: Option<RegionId>,
}

/// Arena record for a region.
#[derive(Debug, Clone, Default)]
pub struct RegionData {
    /// Blocks of the region. The IR is structured: all regions used by the
    /// tile dialect are single-block.
    pub blocks: Vec<BlockId>,
    /// Op owning this region (`None` for the function body).
    pub parent_op: Option<OpId>,
}

/// A function: name, parameters and a body region.
#[derive(Debug, Clone)]
pub struct Func {
    /// Symbol name.
    pub name: String,
    /// Function attributes (e.g. `num_warps`, tuning selections).
    pub attrs: AttrMap,
    /// Body region id.
    pub body: RegionId,
    ops: Vec<OpData>,
    values: Vec<ValueData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
}

impl Func {
    /// Creates an empty function with the given parameter types.
    ///
    /// Parameters become the arguments of the body's entry block.
    pub fn new(name: &str, params: &[Type]) -> Func {
        let mut f = Func {
            name: name.to_string(),
            attrs: AttrMap::new(),
            body: RegionId(0),
            ops: Vec::new(),
            values: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
        };
        let region = f.new_region(None);
        let block = f.new_block(region);
        f.body = region;
        for ty in params {
            f.add_block_arg(block, ty.clone());
        }
        f
    }

    // ---- arena allocation -------------------------------------------------

    /// Allocates a fresh region (optionally owned by `parent_op`).
    pub fn new_region(&mut self, parent_op: Option<OpId>) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData {
            blocks: Vec::new(),
            parent_op,
        });
        id
    }

    /// Allocates a fresh block appended to `region`.
    pub fn new_block(&mut self, region: RegionId) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            parent: Some(region),
        });
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Appends a new argument of type `ty` to `block`, returning its value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let idx = self.blocks[block.0 as usize].args.len();
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty,
            def: ValueDef::BlockArg { block, idx },
            name_hint: None,
        });
        self.blocks[block.0 as usize].args.push(v);
        v
    }

    fn new_result(&mut self, op: OpId, idx: usize, ty: Type) -> ValueId {
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty,
            def: ValueDef::OpResult { op, idx },
            name_hint: None,
        });
        v
    }

    /// Creates an op appended to `block`. Returns its id; result values are
    /// accessible through [`Func::results`].
    pub fn push_op(
        &mut self,
        block: BlockId,
        kind: OpKind,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let results = result_types
            .into_iter()
            .enumerate()
            .map(|(i, ty)| self.new_result(id, i, ty))
            .collect();
        self.ops.push(OpData {
            kind,
            operands,
            results,
            attrs,
            regions: Vec::new(),
            parent: Some(block),
            dead: false,
            loc: None,
        });
        self.blocks[block.0 as usize].ops.push(id);
        id
    }

    /// Creates an op inserted *before* `before` in the same block.
    ///
    /// # Panics
    /// Panics if `before` is not inserted in a block.
    pub fn insert_op_before(
        &mut self,
        before: OpId,
        kind: OpKind,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
    ) -> OpId {
        let block = self.ops[before.0 as usize]
            .parent
            .expect("insertion anchor must be in a block");
        let id = self.push_op(block, kind, operands, result_types, attrs);
        // push_op appended; move into position.
        let ops = &mut self.blocks[block.0 as usize].ops;
        ops.pop();
        let pos = ops
            .iter()
            .position(|&o| o == before)
            .expect("anchor in parent block");
        ops.insert(pos, id);
        id
    }

    /// Attaches a new empty single-block region to `op`, returning
    /// `(region, block)`.
    pub fn add_region(&mut self, op: OpId) -> (RegionId, BlockId) {
        let region = self.new_region(Some(op));
        let block = self.new_block(region);
        self.ops[op.0 as usize].regions.push(region);
        (region, block)
    }

    // ---- accessors ----------------------------------------------------------

    /// Immutable access to an op record.
    pub fn op(&self, id: OpId) -> &OpData {
        &self.ops[id.0 as usize]
    }

    /// Mutable access to an op record.
    pub fn op_mut(&mut self, id: OpId) -> &mut OpData {
        &mut self.ops[id.0 as usize]
    }

    /// Immutable access to a value record.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    /// Mutable access to a value record.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.0 as usize]
    }

    /// Immutable access to a block record.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block record.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.0 as usize]
    }

    /// Immutable access to a region record.
    pub fn region(&self, id: RegionId) -> &RegionData {
        &self.regions[id.0 as usize]
    }

    /// Type of a value.
    pub fn ty(&self, v: ValueId) -> &Type {
        &self.values[v.0 as usize].ty
    }

    /// Result values of `op`.
    pub fn results(&self, op: OpId) -> &[ValueId] {
        &self.ops[op.0 as usize].results
    }

    /// Sole result of `op`.
    ///
    /// # Panics
    /// Panics if the op does not have exactly one result.
    pub fn result(&self, op: OpId) -> ValueId {
        let r = self.results(op);
        assert_eq!(r.len(), 1, "{} has {} results", self.op(op).kind, r.len());
        r[0]
    }

    /// Entry block of a region.
    ///
    /// # Panics
    /// Panics if the region has no blocks.
    pub fn entry_block(&self, region: RegionId) -> BlockId {
        self.regions[region.0 as usize].blocks[0]
    }

    /// Entry block of the function body.
    pub fn body_block(&self) -> BlockId {
        self.entry_block(self.body)
    }

    /// Function parameters (arguments of the body's entry block).
    pub fn params(&self) -> &[ValueId] {
        &self.blocks[self.entry_block(self.body).0 as usize].args
    }

    /// Number of op slots allocated (including dead ops). Useful as a
    /// monotonic traversal bound.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of value slots allocated.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Iterates over all live op ids in arbitrary (arena) order.
    pub fn live_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.dead && o.parent.is_some())
            .map(|(i, _)| OpId(i as u32))
    }

    // ---- mutation -------------------------------------------------------------

    /// Erases `op` from its block and marks it dead. Nested regions become
    /// unreachable (their ops are marked dead too). The op's results must be
    /// unused; this is the caller's responsibility and is checked by the
    /// verifier, not here.
    pub fn erase_op(&mut self, op: OpId) {
        if let Some(block) = self.ops[op.0 as usize].parent.take() {
            self.blocks[block.0 as usize].ops.retain(|&o| o != op);
        }
        self.ops[op.0 as usize].dead = true;
        let regions = self.ops[op.0 as usize].regions.clone();
        for r in regions {
            for b in self.regions[r.0 as usize].blocks.clone() {
                for o in self.blocks[b.0 as usize].ops.clone() {
                    self.erase_op(o);
                }
            }
        }
    }

    /// Replaces every use of `from` with `to` throughout the function.
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        for op in &mut self.ops {
            if op.dead {
                continue;
            }
            for operand in &mut op.operands {
                if *operand == from {
                    *operand = to;
                }
            }
        }
    }

    /// Computes the set of `(op, operand_index)` uses of `v`, in
    /// deterministic arena order.
    pub fn uses(&self, v: ValueId) -> Vec<(OpId, usize)> {
        let mut out = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            if op.dead || op.parent.is_none() {
                continue;
            }
            for (j, &operand) in op.operands.iter().enumerate() {
                if operand == v {
                    out.push((OpId(i as u32), j));
                }
            }
        }
        out
    }

    /// The op defining `v`, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value(v).def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// Clones op `src` (without regions) into `dst_block`, remapping
    /// operands through `vmap`, which is indexed by value id; operands it
    /// does not map are kept as-is. The clone's results are registered in
    /// `vmap` (old → new), which grows to cover every value `src` reaches.
    ///
    /// Region-carrying ops are cloned recursively: nested blocks, block
    /// arguments and ops are duplicated and remapped.
    pub fn clone_op_into(
        &mut self,
        src: OpId,
        dst_block: BlockId,
        vmap: &mut Vec<Option<ValueId>>,
    ) -> OpId {
        if vmap.len() < self.values.len() {
            vmap.resize(self.values.len(), None);
        }
        let data = &self.ops[src.0 as usize];
        let (kind, attrs, loc) = (data.kind, data.attrs.clone(), data.loc);
        let (old_results, src_regions) = (data.results.clone(), data.regions.clone());
        let operands: Vec<ValueId> = data
            .operands
            .iter()
            .map(|&v| vmap.get(v.0 as usize).copied().flatten().unwrap_or(v))
            .collect();
        let result_types: Vec<Type> = old_results
            .iter()
            .map(|&r| self.values[r.0 as usize].ty.clone())
            .collect();
        let new_op = self.push_op(dst_block, kind, operands, result_types, attrs);
        self.ops[new_op.0 as usize].loc = loc;
        for (i, &old_r) in old_results.iter().enumerate() {
            let new_r = self.ops[new_op.0 as usize].results[i];
            self.map_value(vmap, old_r, new_r);
        }
        for src_region in src_regions {
            let (_, new_block) = self.add_region(new_op);
            let src_blocks = self.regions[src_region.0 as usize].blocks.clone();
            // Structured IR: single-block regions.
            for src_block in src_blocks {
                let args = self.blocks[src_block.0 as usize].args.clone();
                for a in args {
                    let ty = self.values[a.0 as usize].ty.clone();
                    let new_a = self.add_block_arg(new_block, ty);
                    self.map_value(vmap, a, new_a);
                }
                let ops = self.blocks[src_block.0 as usize].ops.clone();
                for o in ops {
                    self.clone_op_into(o, new_block, vmap);
                }
            }
        }
        new_op
    }

    /// Records `old → new` in a clone's value map and carries the
    /// printer's name hint over.
    fn map_value(&mut self, vmap: &mut [Option<ValueId>], old: ValueId, new: ValueId) {
        if let Some(slot) = vmap.get_mut(old.0 as usize) {
            *slot = Some(new);
        }
        let hint = self.values[old.0 as usize].name_hint.clone();
        self.values[new.0 as usize].name_hint = hint;
    }

    /// Walks all live ops in `region` recursively, pre-order, invoking `f`.
    pub fn walk_region(&self, region: RegionId, f: &mut dyn FnMut(OpId)) {
        for &block in &self.regions[region.0 as usize].blocks {
            for &op in &self.blocks[block.0 as usize].ops {
                if self.ops[op.0 as usize].dead {
                    continue;
                }
                f(op);
                for &r in &self.ops[op.0 as usize].regions {
                    self.walk_region(r, f);
                }
            }
        }
    }

    /// Collects all live ops of the function body, pre-order.
    pub fn walk(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk_region(self.body, &mut |op| out.push(op));
        out
    }

    /// Sets the printer name hint for a value (used for readable IR dumps).
    pub fn set_name_hint(&mut self, v: ValueId, hint: &str) {
        self.values[v.0 as usize].name_hint = Some(hint.to_string());
    }

    /// Source location of `op`, if the frontend recorded one. Out-of-range
    /// ids (e.g. from a diagnostic that outlived a transformation) are
    /// simply unlocated rather than a panic.
    pub fn loc(&self, op: OpId) -> Option<Loc> {
        self.ops.get(op.0 as usize).and_then(|o| o.loc)
    }

    /// Attaches a source location to `op` (see [`OpData::loc`]).
    pub fn set_loc(&mut self, op: OpId, loc: Option<Loc>) {
        self.ops[op.0 as usize].loc = loc;
    }

    /// Source location of the op defining `v`, walking to the defining op
    /// for op results (block arguments have no location).
    pub fn value_loc(&self, v: ValueId) -> Option<Loc> {
        self.defining_op(v).and_then(|op| self.loc(op))
    }

    /// Convenience: builds an integer-constant op in `block`.
    pub fn const_int(&mut self, block: BlockId, value: i64, ty: Type) -> ValueId {
        let mut attrs = AttrMap::new();
        attrs.set("value", Attr::Int(value));
        let op = self.push_op(block, OpKind::ConstInt, vec![], vec![ty], attrs);
        self.result(op)
    }
}

/// A module: an ordered set of functions plus module attributes.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module attributes (e.g. `num_warps`).
    pub attrs: AttrMap,
    /// Functions in definition order.
    pub funcs: Vec<Func>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Adds a function and returns its index.
    pub fn add_func(&mut self, f: Func) -> usize {
        self.funcs.push(f);
        self.funcs.len() - 1
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a function by name, mutably.
    pub fn func_mut(&mut self, name: &str) -> Option<&mut Func> {
        self.funcs.iter_mut().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DType;

    fn simple_func() -> Func {
        // f(%a: i32) { %c = const 7; %s = add %a, %c }
        let mut f = Func::new("f", &[Type::i32()]);
        let b = f.body_block();
        let a = f.params()[0];
        let c = f.const_int(b, 7, Type::i32());
        f.push_op(
            b,
            OpKind::Add,
            vec![a, c],
            vec![Type::i32()],
            AttrMap::new(),
        );
        f
    }

    #[test]
    fn build_and_walk() {
        let f = simple_func();
        let ops = f.walk();
        assert_eq!(ops.len(), 2);
        assert_eq!(f.op(ops[0]).kind, OpKind::ConstInt);
        assert_eq!(f.op(ops[1]).kind, OpKind::Add);
    }

    #[test]
    fn uses_and_replace() {
        let mut f = simple_func();
        let a = f.params()[0];
        let uses = f.uses(a);
        assert_eq!(uses.len(), 1);
        let b = f.body_block();
        let z = f.const_int(b, 0, Type::i32());
        f.replace_all_uses(a, z);
        assert!(f.uses(a).is_empty());
        assert_eq!(f.uses(z).len(), 1);
    }

    #[test]
    fn erase_removes_from_block() {
        let mut f = simple_func();
        let ops = f.walk();
        let add = ops[1];
        f.erase_op(add);
        assert_eq!(f.walk().len(), 1);
        assert!(f.op(add).dead);
    }

    #[test]
    fn insert_before_keeps_order() {
        let mut f = simple_func();
        let ops = f.walk();
        let add = ops[1];
        let neg = f.insert_op_before(
            add,
            OpKind::Neg,
            vec![f.params()[0]],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let ops = f.walk();
        assert_eq!(ops, vec![ops[0], neg, add]);
    }

    #[test]
    fn regions_and_blocks() {
        let mut f = Func::new("g", &[]);
        let b = f.body_block();
        let lo = f.const_int(b, 0, Type::i32());
        let hi = f.const_int(b, 4, Type::i32());
        let step = f.const_int(b, 1, Type::i32());
        let init = f.const_int(b, 0, Type::i32());
        let for_op = f.push_op(
            b,
            OpKind::For,
            vec![lo, hi, step, init],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let (_, body) = f.add_region(for_op);
        let iv = f.add_block_arg(body, Type::i32());
        let acc = f.add_block_arg(body, Type::i32());
        let sum = f.push_op(
            b,
            OpKind::Add,
            vec![iv, acc],
            vec![Type::i32()],
            AttrMap::new(),
        );
        // move the add into the loop body for the test
        let sum_id = sum;
        f.block_mut(b).ops.retain(|&o| o != sum_id);
        f.op_mut(sum_id).parent = Some(body);
        f.block_mut(body).ops.push(sum_id);
        let sum_v = f.result(sum_id);
        let y = f.push_op(body, OpKind::Yield, vec![sum_v], vec![], AttrMap::new());
        assert_eq!(f.walk().len(), 7);
        assert_eq!(f.op(y).kind, OpKind::Yield);
        assert_eq!(f.block(body).args.len(), 2);
    }

    #[test]
    fn clone_op_with_region() {
        let mut f = Func::new("g", &[]);
        let b = f.body_block();
        let lo = f.const_int(b, 0, Type::i32());
        let hi = f.const_int(b, 4, Type::i32());
        let step = f.const_int(b, 1, Type::i32());
        let for_op = f.push_op(b, OpKind::For, vec![lo, hi, step], vec![], AttrMap::new());
        let (_, body) = f.add_region(for_op);
        let iv = f.add_block_arg(body, Type::i32());
        let dbl = f.push_op(
            body,
            OpKind::Add,
            vec![iv, iv],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let dv = f.result(dbl);
        f.push_op(body, OpKind::Yield, vec![dv], vec![], AttrMap::new());

        let mut vmap = Vec::new();
        let clone = f.clone_op_into(for_op, b, &mut vmap);
        assert_eq!(f.op(clone).kind, OpKind::For);
        assert_eq!(f.op(clone).regions.len(), 1);
        let cloned_body = f.entry_block(f.op(clone).regions[0]);
        assert_eq!(f.block(cloned_body).args.len(), 1);
        assert_eq!(f.block(cloned_body).ops.len(), 2);
        // The cloned add must use the cloned induction variable.
        let cloned_add = f.block(cloned_body).ops[0];
        let new_iv = f.block(cloned_body).args[0];
        assert_eq!(f.op(cloned_add).operands, vec![new_iv, new_iv]);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.add_func(simple_func());
        assert!(m.func("f").is_some());
        assert!(m.func("h").is_none());
        m.func_mut("f")
            .unwrap()
            .attrs
            .set("num_warps", Attr::Int(8));
        assert_eq!(m.func("f").unwrap().attrs.int("num_warps"), Some(8));
    }

    #[test]
    fn value_types_tracked() {
        let mut f = Func::new("t", &[]);
        let b = f.body_block();
        let t = f.push_op(
            b,
            OpKind::ConstTensor,
            vec![],
            vec![Type::tensor(vec![16, 16], DType::F32)],
            AttrMap::new(),
        );
        let v = f.result(t);
        assert_eq!(f.ty(v).shape().unwrap().numel(), 256);
    }
}
