//! IR verifier.
//!
//! Checks structural invariants (SSA scoping, terminators, region shapes)
//! and per-op typing rules (the result types the DSL infers). Run
//! between passes by the [`crate::pass::PassManager`], after every pass
//! that changed the module, in every build: it borrows from the function
//! it checks and keeps its scope in a table indexed by value id (an id
//! past the value arena is reported, never indexed), so that stays cheap.

use std::fmt;

use crate::func::{Func, Module};
use crate::loc::Loc;
use crate::op::{CmpPred, OpId, OpKind, RegionId, ValueId};
use crate::types::Type;

/// A single verifier diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function in which the error occurred.
    pub func: String,
    /// Offending op, if attributable.
    pub op: Option<OpId>,
    /// Tile-program source location of the offending op, when the
    /// frontend recorded one.
    pub loc: Option<Loc>,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.loc, self.op) {
            (Some(loc), _) => write!(f, "[{}] {}: {}", self.func, loc, self.msg),
            (None, Some(op)) => write!(f, "[{}] {}: {}", self.func, op, self.msg),
            (None, None) => write!(f, "[{}] {}", self.func, self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module. Returns all diagnostics found.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for f in &m.funcs {
        if let Err(mut e) = verify_func(f) {
            errs.append(&mut e);
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verifies a single function.
pub fn verify_func(f: &Func) -> Result<(), Vec<VerifyError>> {
    let mut v = Verifier {
        f,
        errs: Vec::new(),
        defined: Vec::new(),
        in_scope: vec![false; f.num_values()],
    };
    for &p in f.params() {
        v.define(p);
    }
    v.verify_region(f.body, None);
    if v.errs.is_empty() {
        Ok(())
    } else {
        Err(v.errs)
    }
}

struct Verifier<'f> {
    f: &'f Func,
    errs: Vec<VerifyError>,
    /// Values defined so far, innermost last; a block truncates it back to
    /// its length on entry when it ends.
    defined: Vec<ValueId>,
    /// `in_scope[v]`: `v` is in `defined`.
    in_scope: Vec<bool>,
}

impl<'f> Verifier<'f> {
    fn error(&mut self, op: Option<OpId>, msg: String) {
        self.errs.push(VerifyError {
            func: self.f.name.clone(),
            op,
            loc: op.and_then(|o| self.f.loc(o)),
            msg,
        });
    }

    fn is_value(&self, v: ValueId) -> bool {
        (v.0 as usize) < self.in_scope.len()
    }

    fn visible(&self, v: ValueId) -> bool {
        self.in_scope.get(v.0 as usize).copied().unwrap_or(false)
    }

    fn define(&mut self, v: ValueId) {
        if let Some(seen) = self.in_scope.get_mut(v.0 as usize) {
            *seen = true;
            self.defined.push(v);
        }
    }

    fn end_scope(&mut self, mark: usize) {
        for v in self.defined.drain(mark..) {
            if let Some(seen) = self.in_scope.get_mut(v.0 as usize) {
                *seen = false;
            }
        }
    }

    fn verify_region(&mut self, region: RegionId, parent_op: Option<OpId>) {
        let f = self.f;
        let blocks = &f.region(region).blocks;
        if blocks.is_empty() {
            self.error(parent_op, "region has no blocks".into());
            return;
        }
        for &block in blocks {
            let mark = self.defined.len();
            let block = f.block(block);
            for &a in &block.args {
                self.define(a);
            }
            for (i, &op) in block.ops.iter().enumerate() {
                if f.op(op).dead {
                    self.error(Some(op), "dead op still in block list".into());
                    continue;
                }
                let is_last = i + 1 == block.ops.len();
                if f.op(op).kind.is_terminator() && !is_last {
                    self.error(Some(op), "terminator not at end of block".into());
                }
                self.verify_op(op);
                for &v in f.results(op) {
                    self.define(v);
                }
            }
            self.end_scope(mark);
        }
    }

    fn ty(&self, v: ValueId) -> &'f Type {
        self.f.ty(v)
    }

    fn check_operand_count(&mut self, op: OpId, want: usize) -> bool {
        let got = self.f.op(op).operands.len();
        if got != want {
            self.error(Some(op), format!("expected {want} operands, got {got}"));
            false
        } else {
            true
        }
    }

    fn check_result_count(&mut self, op: OpId, want: usize) -> bool {
        let got = self.f.op(op).results.len();
        if got != want {
            self.error(Some(op), format!("expected {want} results, got {got}"));
            false
        } else {
            true
        }
    }

    fn verify_op(&mut self, op: OpId) {
        let f = self.f;
        let data = f.op(op);
        let kind = data.kind;
        let operands = &data.operands[..];
        let results = &data.results[..];
        // Ids first: a pass may push any `ValueId`, and the type rules
        // below index the value arena.
        let mut foreign = false;
        for &o in operands {
            if !self.is_value(o) {
                foreign = true;
                self.error(
                    Some(op),
                    format!("operand {o} is not a value of this function"),
                );
            } else if !self.visible(o) {
                // SSA scoping: all operands must be visible here.
                self.error(Some(op), format!("operand {o} does not dominate this use"));
            }
        }
        for &r in results {
            if !self.is_value(r) {
                foreign = true;
                self.error(
                    Some(op),
                    format!("result {r} is not a value of this function"),
                );
            }
        }
        // Region arity.
        let want_regions = usize::from(kind.has_regions());
        if data.regions.len() != want_regions {
            self.error(
                Some(op),
                format!(
                    "{kind} expects {want_regions} regions, has {}",
                    data.regions.len()
                ),
            );
        }
        if foreign {
            return;
        }
        match kind {
            OpKind::ConstInt => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) {
                    if data.attrs.int("value").is_none() {
                        self.error(Some(op), "const_int requires integer `value` attr".into());
                    }
                    let t = self.ty(results[0]);
                    if !matches!(t, Type::Scalar(d) if d.is_int()) {
                        self.error(Some(op), format!("const_int result must be int, got {t}"));
                    }
                }
            }
            OpKind::ConstFloat => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) {
                    if data.attrs.float("value").is_none() {
                        self.error(Some(op), "const_float requires float `value` attr".into());
                    }
                    let t = self.ty(results[0]);
                    if !matches!(t, Type::Scalar(d) if d.is_float()) {
                        self.error(
                            Some(op),
                            format!("const_float result must be float, got {t}"),
                        );
                    }
                }
            }
            OpKind::ConstTensor => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) && !self.ty(results[0]).is_tensor() {
                    self.error(Some(op), "const_tensor result must be tensor".into());
                }
            }
            OpKind::ProgramId | OpKind::NumPrograms => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) {
                    let axis = data.attrs.int("axis");
                    if !matches!(axis, Some(0..=2)) {
                        self.error(Some(op), "axis attr must be 0, 1 or 2".into());
                    }
                }
            }
            k if k.is_binary_arith()
                && self.check_operand_count(op, 2)
                && self.check_result_count(op, 1) =>
            {
                let ta = self.ty(operands[0]);
                let tb = self.ty(operands[1]);
                match ta.broadcast_with(tb) {
                    Some(rt) => {
                        let tr = self.ty(results[0]);
                        if *tr != rt {
                            self.error(
                                Some(op),
                                format!("result type {tr} does not match inferred {rt}"),
                            );
                        }
                    }
                    None => self.error(
                        Some(op),
                        format!("incompatible operand types {ta} and {tb}"),
                    ),
                }
            }
            k if k.is_unary_arith()
                && self.check_operand_count(op, 1)
                && self.check_result_count(op, 1) =>
            {
                let ta = self.ty(operands[0]);
                let tr = self.ty(results[0]);
                if ta != tr {
                    self.error(Some(op), format!("unary op type mismatch {ta} vs {tr}"));
                }
            }
            OpKind::Cmp if self.check_operand_count(op, 2) && self.check_result_count(op, 1) => {
                match data.attrs.str("pred").and_then(CmpPred::parse) {
                    Some(_) => {}
                    None => self.error(Some(op), "cmp requires valid `pred` attr".into()),
                }
            }
            OpKind::Select if self.check_operand_count(op, 3) && self.check_result_count(op, 1) => {
                let tt = self.ty(operands[1]);
                let te = self.ty(operands[2]);
                if tt != te {
                    self.error(Some(op), format!("select arms differ: {tt} vs {te}"));
                }
            }
            OpKind::Cast
                if self.check_operand_count(op, 1)
                    && self.check_result_count(op, 1)
                    && self.ty(operands[0]).shape() != self.ty(results[0]).shape() =>
            {
                self.error(Some(op), "cast must preserve shape".into());
            }
            OpKind::Arange => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) {
                    let a = data.attrs.int("start");
                    let b = data.attrs.int("end");
                    match (a, b, self.ty(results[0]).shape()) {
                        (Some(s), Some(e), Some(shape)) if e > s => {
                            if shape.rank() != 1 || shape.dim(0) != (e - s) as usize {
                                self.error(
                                    Some(op),
                                    format!("arange result shape {shape} != {}", e - s),
                                );
                            }
                        }
                        _ => self.error(Some(op), "arange requires start < end attrs".into()),
                    }
                }
            }
            OpKind::Splat if self.check_operand_count(op, 1) && self.check_result_count(op, 1) => {
                if !self.ty(operands[0]).is_scalar() {
                    self.error(Some(op), "splat operand must be scalar".into());
                }
                if !self.ty(results[0]).is_tensor() {
                    self.error(Some(op), "splat result must be tensor".into());
                }
            }
            OpKind::ExpandDims | OpKind::BroadcastTo | OpKind::Transpose
                if self.check_operand_count(op, 1)
                    && self.check_result_count(op, 1)
                    && (!self.ty(operands[0]).is_tensor() || !self.ty(results[0]).is_tensor()) =>
            {
                self.error(Some(op), format!("{kind} requires tensor in/out"));
            }
            OpKind::ReduceMax | OpKind::ReduceSum
                if self.check_operand_count(op, 1) && self.check_result_count(op, 1) =>
            {
                let axis = data.attrs.int("axis");
                match (axis, self.ty(operands[0]).shape()) {
                    (Some(a), Some(s)) if (a as usize) < s.rank() => {
                        let mut want = s.0.clone();
                        want.remove(a as usize);
                        if self.ty(results[0]).shape().map(|r| &r.0) != Some(&want) {
                            self.error(Some(op), "reduce result shape mismatch".into());
                        }
                    }
                    _ => self.error(Some(op), "reduce requires valid axis attr".into()),
                }
            }
            OpKind::Dot if self.check_operand_count(op, 3) && self.check_result_count(op, 1) => {
                let sa = self.ty(operands[0]).shape();
                let sb = self.ty(operands[1]).shape();
                let sc = self.ty(operands[2]).shape();
                match (sa, sb, sc) {
                    (Some(a), Some(b), Some(c))
                        if a.rank() == 2 && b.rank() == 2 && c.rank() == 2 =>
                    {
                        if a.dim(1) != b.dim(0) || c.dim(0) != a.dim(0) || c.dim(1) != b.dim(1) {
                            self.error(Some(op), format!("dot shape mismatch {a} · {b} -> {c}"));
                        }
                    }
                    _ => self.error(Some(op), "dot requires rank-2 tensors".into()),
                }
                if self.ty(operands[2]) != self.ty(results[0]) {
                    self.error(Some(op), "dot result type must equal acc type".into());
                }
            }
            OpKind::TmaLoad => {
                if results.len() != 1 {
                    self.error(Some(op), "tma_load has exactly one result".into());
                } else if operands.is_empty()
                    || !matches!(self.ty(operands[0]), Type::TensorDesc(_))
                {
                    self.error(Some(op), "tma_load first operand must be desc".into());
                } else {
                    let desc_dt = self.ty(operands[0]).elem();
                    let res_dt = self.ty(results[0]).elem();
                    if desc_dt != res_dt {
                        self.error(Some(op), "tma_load result dtype must match desc".into());
                    }
                    for &c in &operands[1..] {
                        if *self.ty(c) != Type::i32() {
                            self.error(Some(op), "tma_load coords must be i32".into());
                        }
                    }
                }
            }
            OpKind::TmaStore => {
                if operands.len() < 2 {
                    self.error(Some(op), "tma_store needs desc, coords..., tile".into());
                } else if !matches!(self.ty(operands[0]), Type::TensorDesc(_)) {
                    self.error(Some(op), "tma_store first operand must be desc".into());
                }
                self.check_result_count(op, 0);
            }
            OpKind::AddPtr
                if self.check_operand_count(op, 2)
                    && self.check_result_count(op, 1)
                    && !matches!(self.ty(operands[0]), Type::Ptr(_)) =>
            {
                self.error(Some(op), "addptr base must be ptr".into());
            }
            OpKind::Load
                if self.check_operand_count(op, 1)
                    && self.check_result_count(op, 1)
                    && self.ty(operands[0]).shape() != self.ty(results[0]).shape() =>
            {
                self.error(Some(op), "load result shape must match addrs".into());
            }
            OpKind::Store => {
                if self.check_operand_count(op, 2)
                    && self.ty(operands[0]).shape() != self.ty(operands[1]).shape()
                {
                    self.error(Some(op), "store value shape must match addrs".into());
                }
                self.check_result_count(op, 0);
            }
            OpKind::For => {
                if operands.len() < 3 {
                    self.error(Some(op), "for needs (lo, hi, step, inits...)".into());
                } else {
                    let n_iter = operands.len() - 3;
                    if results.len() != n_iter {
                        self.error(
                            Some(op),
                            format!("for has {n_iter} iter args but {} results", results.len()),
                        );
                    }
                    let body = data
                        .regions
                        .first()
                        .and_then(|&r| f.region(r).blocks.first());
                    if let Some(&body) = body {
                        let args = &f.block(body).args;
                        if args.len() != n_iter + 1 {
                            self.error(
                                Some(op),
                                format!(
                                    "for body must take iv + {n_iter} args, takes {}",
                                    args.len()
                                ),
                            );
                        } else {
                            for (i, (&a, &init)) in
                                args[1..].iter().zip(operands[3..].iter()).enumerate()
                            {
                                if self.ty(a) != self.ty(init) {
                                    self.error(
                                        Some(op),
                                        format!("iter arg {i} type mismatch with init"),
                                    );
                                }
                            }
                        }
                        // Body must end in a yield of the iter types.
                        match f.block(body).ops.last() {
                            Some(&last) if f.op(last).kind == OpKind::Yield => {
                                let yops = &f.op(last).operands;
                                if yops.len() != n_iter {
                                    self.error(
                                        Some(op),
                                        format!(
                                            "for body yields {} values, expected {n_iter}",
                                            yops.len()
                                        ),
                                    );
                                } else {
                                    // A foreign yield operand is the
                                    // yield's own error, reported below.
                                    for (i, (&y, &r)) in yops.iter().zip(results).enumerate() {
                                        if self.is_value(y) && self.ty(y) != self.ty(r) {
                                            self.error(
                                                Some(op),
                                                format!("yield value {i} type mismatch"),
                                            );
                                        }
                                    }
                                }
                            }
                            _ => self.error(Some(op), "for body must end with scf.yield".into()),
                        }
                    }
                }
                // verify the nested region with the loop scope
                for &r in &data.regions {
                    self.verify_region(r, Some(op));
                }
            }
            OpKind::Yield => {
                self.check_result_count(op, 0);
            }
            OpKind::CreateAref => {
                self.check_operand_count(op, 0);
                if self.check_result_count(op, 1) {
                    match self.ty(results[0]) {
                        Type::Aref(depth, payload) => {
                            if data.attrs.int("depth") != Some(*depth as i64) {
                                self.error(
                                    Some(op),
                                    "create_aref depth attr must match type".into(),
                                );
                            }
                            if payload.is_empty() {
                                self.error(Some(op), "aref payload must be nonempty".into());
                            }
                        }
                        t => self.error(
                            Some(op),
                            format!("create_aref result must be aref, got {t}"),
                        ),
                    }
                }
            }
            OpKind::ArefPut => {
                if operands.len() < 3 {
                    self.error(Some(op), "put needs (aref, slot, payload...)".into());
                } else if let Type::Aref(_, payload) = self.ty(operands[0]) {
                    let given = &operands[2..];
                    if given.len() != payload.len() {
                        self.error(
                            Some(op),
                            format!(
                                "put payload arity {} != aref payload {}",
                                given.len(),
                                payload.len()
                            ),
                        );
                    } else {
                        for (i, (&g, p)) in given.iter().zip(payload).enumerate() {
                            if self.ty(g) != p {
                                self.error(Some(op), format!("put payload {i} type mismatch"));
                            }
                        }
                    }
                } else {
                    self.error(Some(op), "put first operand must be aref".into());
                }
            }
            OpKind::ArefGet if self.check_operand_count(op, 2) => {
                if let Type::Aref(_, payload) = self.ty(operands[0]) {
                    if results.len() != payload.len() {
                        self.error(Some(op), "get result arity != aref payload".into());
                    } else {
                        for (i, (&r, p)) in results.iter().zip(payload).enumerate() {
                            if self.ty(r) != p {
                                self.error(Some(op), format!("get result {i} type mismatch"));
                            }
                        }
                    }
                } else {
                    self.error(Some(op), "get first operand must be aref".into());
                }
            }
            OpKind::ArefConsumed
                if self.check_operand_count(op, 2)
                    && !matches!(self.ty(operands[0]), Type::Aref(..)) =>
            {
                self.error(Some(op), "consumed first operand must be aref".into());
            }
            OpKind::WarpGroup => {
                self.check_operand_count(op, 0);
                self.check_result_count(op, 0);
                if data.attrs.int("partition").is_none() {
                    self.error(Some(op), "warp_group requires partition attr".into());
                }
                for &r in &data.regions {
                    self.verify_region(r, Some(op));
                }
            }
            OpKind::DotWait
                if self.check_operand_count(op, 1) && self.check_result_count(op, 1) =>
            {
                if data.attrs.int("pendings").is_none() {
                    self.error(Some(op), "dot_wait requires pendings attr".into());
                }
                if self.ty(operands[0]) != self.ty(results[0]) {
                    self.error(Some(op), "dot_wait is type-preserving".into());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AttrMap;
    use crate::parse::{parse_func_str, parse_module};
    use crate::types::DType;

    /// The results of `f`'s top-level ops, in order.
    fn body_values(f: &Func) -> Vec<ValueId> {
        f.block(f.body_block())
            .ops
            .iter()
            .flat_map(|&op| f.results(op).to_vec())
            .collect()
    }

    #[test]
    fn accepts_wellformed_ir() {
        let m = parse_module(
            "module { func @f(%arg0: i32) {
               %0 = arith.const_int() {value = 2} : i32
               %1 = arith.add(%arg0, %0) : i32
               %2 = arith.const_int() {value = 0} : i32
               %3 = arith.const_int() {value = 1} : i32
               %4 = scf.for(%2, %1, %3, %0) : i32 {
                 ^bb(%5: i32, %6: i32):
                   %7 = arith.add(%6, %5) : i32
                   scf.yield(%7)
               }
             } }",
        )
        .unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_type_mismatch_in_add() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        let x = f.const_int(b, 1, Type::i32());
        let y = f.const_int(b, 2, Type::i64());
        f.push_op(
            b,
            OpKind::Add,
            vec![x, y],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let errs = verify_func(&f).unwrap_err();
        assert!(
            errs.iter().any(|e| e.msg.contains("incompatible")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        let x = f.const_int(b, 1, Type::i32());
        let add = f.push_op(
            b,
            OpKind::Add,
            vec![x, x],
            vec![Type::i32()],
            AttrMap::new(),
        );
        // Move the add before its operand's def.
        f.block_mut(b).ops.swap(0, 1);
        let _ = add;
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("dominate")), "{errs:?}");
    }

    #[test]
    fn rejects_for_without_yield() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        let c = f.const_int(b, 0, Type::i32());
        let for_op = f.push_op(b, OpKind::For, vec![c, c, c], vec![], AttrMap::new());
        let (_, body) = f.add_region(for_op);
        f.add_block_arg(body, Type::i32());
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("scf.yield")), "{errs:?}");
    }

    #[test]
    fn rejects_bad_dot_shapes() {
        let mut f = parse_func_str(
            "func @f() {
               %0 = tile.const_tensor() {value = 0.0} : tensor<16x8xf16>
               %1 = tile.const_tensor() {value = 0.0} : tensor<16x16xf32>
               %2 = tile.const_tensor() {value = 0.0} : tensor<4x16xf16>
             }",
        )
        .unwrap();
        let v = body_values(&f);
        let (a, c, b_) = (v[0], v[1], v[2]);
        let blk = f.body_block();
        f.push_op(
            blk,
            OpKind::Dot,
            vec![a, b_, c],
            vec![Type::tensor(vec![16, 16], DType::F32)],
            AttrMap::new(),
        );
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("dot shape")), "{errs:?}");
    }

    #[test]
    fn accepts_tma_and_aref_ops() {
        let src = "module { func @f(%arg0: desc<f16>) {
               %0 = arith.const_int() {value = 0} : i32
               %1 = tile.tma_load(%arg0, %0, %0) : tensor<128x64xf16>
               %2 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<128x64xf16>>>
               tawa.put(%2, %0, %1)
               %3 = tawa.get(%2, %0) : tensor<128x64xf16>
               tawa.consumed(%2, %0)
             } }";
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok(), "{:?}", verify_module(&m));
        let f = &m.funcs[0];
        let v = body_values(f);
        let tile = Type::tensor(vec![128, 64], DType::F16);
        assert_eq!(f.ty(v[1]), &tile);
        assert_eq!(f.ty(v[3]), &tile);
        // A TMA tile takes its descriptor's element type.
        let m = parse_module(&src.replacen("tensor<128x64xf16>", "tensor<128x64xf32>", 1)).unwrap();
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.msg.contains("match desc")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_aref_payload_mismatch() {
        let mut f = parse_func_str(
            "func @f() {
               %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<8x8xf16>>>
               %1 = arith.const_int() {value = 0} : i32
               %2 = tile.const_tensor() {value = 0.0} : tensor<4x4xf16>
             }",
        )
        .unwrap();
        let v = body_values(&f);
        let (aref, idx, wrong) = (v[0], v[1], v[2]);
        let blk = f.body_block();
        f.push_op(
            blk,
            OpKind::ArefPut,
            vec![aref, idx, wrong],
            vec![],
            AttrMap::new(),
        );
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("payload")), "{errs:?}");
    }

    #[test]
    fn rejects_warp_group_without_partition() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        let wg = f.push_op(b, OpKind::WarpGroup, vec![], vec![], AttrMap::new());
        f.add_region(wg);
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("partition")), "{errs:?}");
    }

    #[test]
    fn rejects_const_without_value() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        f.push_op(
            b,
            OpKind::ConstInt,
            vec![],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let errs = verify_func(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("value")), "{errs:?}");
    }

    #[test]
    fn rejects_terminator_midblock() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        f.push_op(b, OpKind::Yield, vec![], vec![], AttrMap::new());
        f.const_int(b, 1, Type::i32());
        let errs = verify_func(&f).unwrap_err();
        assert!(
            errs.iter().any(|e| e.msg.contains("terminator")),
            "{errs:?}"
        );
    }

    #[test]
    fn error_display_mentions_func() {
        let e = VerifyError {
            func: "k".into(),
            op: Some(OpId(3)),
            loc: None,
            msg: "boom".into(),
        };
        assert_eq!(e.to_string(), "[k] op3: boom");
        let located = VerifyError {
            loc: Some(Loc {
                file: "kernel.rs",
                line: 4,
                col: 2,
            }),
            ..e
        };
        assert_eq!(located.to_string(), "[k] kernel.rs:4:2: boom");
    }

    #[test]
    fn dot_wait_requires_pendings() {
        let f = parse_func_str(
            "func @f() {
               %0 = tile.const_tensor() {value = 0.0} : tensor<8x8xf32>
               %1 = tawa.dot_wait(%0) {pendings = 1} : tensor<8x8xf32>
             }",
        )
        .unwrap();
        assert!(verify_func(&f).is_ok());
    }

    /// Runs the verifier and returns its messages, asserting it failed.
    fn messages(m: &crate::func::Module) -> Vec<String> {
        let errs = verify_module(m).unwrap_err();
        errs.into_iter().map(|e| e.msg).collect()
    }

    #[test]
    fn rejects_loop_body_value_used_after_the_loop() {
        let m = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 0} : i32
               scf.for(%0, %0, %0) {
                 ^bb(%1: i32):
                   %2 = arith.add(%1, %1) : i32
                   scf.yield()
               }
               %3 = arith.add(%2, %0) : i32
             } }",
        )
        .unwrap();
        let msgs = messages(&m);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("does not dominate"), "{msgs:?}");
    }

    #[test]
    fn rejects_loop_block_argument_used_outside_the_loop() {
        let m = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 0} : i32
               %1 = scf.for(%0, %0, %0, %0) : i32 {
                 ^bb(%2: i32, %3: i32):
                   scf.yield(%3)
               }
               %4 = arith.add(%2, %0) : i32
             } }",
        )
        .unwrap();
        let msgs = messages(&m);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("does not dominate"), "{msgs:?}");
    }

    #[test]
    fn rejects_ssa_edge_between_warp_groups() {
        // The partitioner's invariant: warp groups talk only through arefs.
        let m = parse_module(
            r#"module { func @f() {
                 tawa.warp_group() {partition = 0, role = "producer"} {
                   ^bb():
                     %0 = arith.const_int() {value = 1} : i32
                 }
                 tawa.warp_group() {partition = 1, role = "consumer"} {
                   ^bb():
                     %1 = arith.const_int() {value = 1} : i32
                     %2 = arith.add(%0, %1) : i32
                 }
               } }"#,
        )
        .unwrap();
        let msgs = messages(&m);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("does not dominate"), "{msgs:?}");
    }

    #[test]
    fn foreign_value_id_is_reported_not_indexed() {
        let mut f = Func::new("f", &[]);
        let b = f.body_block();
        let x = f.const_int(b, 1, Type::i32());
        let bogus = ValueId(u32::MAX);
        f.push_op(
            b,
            OpKind::Add,
            vec![bogus, x],
            vec![Type::i32()],
            AttrMap::new(),
        );
        let errs = verify_func(&f).unwrap_err();
        let msgs: Vec<&str> = errs.iter().map(|e| e.msg.as_str()).collect();
        assert_eq!(
            msgs,
            ["operand %4294967295 is not a value of this function"]
        );
        // A result id the arena never allocated is reported the same way.
        let mut f = Func::new("g", &[]);
        let b = f.body_block();
        let c = f.const_int(b, 1, Type::i32());
        let op = f.defining_op(c).unwrap();
        f.op_mut(op).results = vec![bogus];
        let errs = verify_func(&f).unwrap_err();
        assert_eq!(
            errs[0].msg,
            "result %4294967295 is not a value of this function"
        );
        assert_eq!(errs.len(), 1, "{errs:?}");
    }
}
