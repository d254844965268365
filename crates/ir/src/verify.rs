//! IR verifier.
//!
//! Checks structural invariants (SSA scoping, foreign ids, terminators,
//! region shapes, the `scf.for` body and yield, `warp_group`'s partition)
//! and each op's arity and result types against the op schema
//! ([`OpKind::spec`], [`OpKind::infer`]) — the same rule the DSL emits
//! its result types from. Run
//! between passes by the [`crate::pass::PassManager`], after every pass
//! that changed the module, in every build: it borrows from the function
//! it checks and keeps its scope in a table indexed by value id (an id
//! past the value arena is reported, never indexed), so that stays cheap.

use std::fmt;

use crate::func::{Func, Module};
use crate::loc::Loc;
use crate::op::{OpId, OpKind, RegionId, ValueId};
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
        operand_tys: Vec::new(),
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
    /// The operand types of the op being typed, kept to reuse its buffer.
    operand_tys: Vec<&'f Type>,
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

    fn verify_op(&mut self, op: OpId) {
        let f = self.f;
        let data = f.op(op);
        let kind = data.kind;
        let operands = &data.operands[..];
        let results = &data.results[..];
        // Ids first: a pass may push any `ValueId`, and the type rule
        // below indexes the value arena.
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
        let spec = kind.spec();
        let arity_ok = spec.operands.admits(operands.len());
        if !arity_ok {
            let (want, got) = (spec.operands, operands.len());
            self.error(Some(op), format!("expected {want} operands, got {got}"));
        }
        if !spec.results.admits(results.len()) {
            let (want, got) = (spec.results, results.len());
            self.error(Some(op), format!("expected {want} results, got {got}"));
        } else if arity_ok {
            self.check_types(op);
        }
        match kind {
            OpKind::For if operands.len() >= 3 => self.verify_for_body(op),
            OpKind::WarpGroup if data.attrs.int("partition").is_none() => {
                self.error(Some(op), "warp_group requires partition attr".into());
            }
            _ => {}
        }
        for &r in &data.regions {
            self.verify_region(r, Some(op));
        }
    }

    /// The per-kind typing: `op`'s results are what [`OpKind::infer`]
    /// derives from its operands, attributes and first result.
    fn check_types(&mut self, op: OpId) {
        let f = self.f;
        let data = f.op(op);
        let mut tys = std::mem::take(&mut self.operand_tys);
        tys.clear();
        tys.extend(data.operands.iter().map(|&o| f.ty(o)));
        let stated = data.results.first().map(|&r| f.ty(r));
        let kind = data.kind;
        match kind.infer(&tys, &data.attrs, stated) {
            Err(msg) => self.error(Some(op), format!("{kind}: {msg}")),
            Ok(want) if want.len() != data.results.len() => self.error(
                Some(op),
                format!(
                    "{kind}: expected {} results, got {}",
                    want.len(),
                    data.results.len()
                ),
            ),
            Ok(want) => {
                for (i, &r) in data.results.iter().enumerate() {
                    let got = f.ty(r);
                    // A stated result comes back as the very same type.
                    let differs = |&w: &&Type| !std::ptr::eq(got, w) && got != w;
                    if let Some(w) = want.get(i).filter(differs) {
                        self.error(
                            Some(op),
                            format!("{kind}: result {i} type {got} does not match inferred {w}"),
                        );
                    }
                }
            }
        }
        self.operand_tys = tys;
    }

    /// An `scf.for`'s body block takes the induction variable and one
    /// argument per init, typed like it, and ends in a yield of values
    /// typed like the loop's results.
    fn verify_for_body(&mut self, op: OpId) {
        let f = self.f;
        let data = f.op(op);
        let inits = &data.operands[3..];
        let n_iter = inits.len();
        let Some(&body) = data
            .regions
            .first()
            .and_then(|&r| f.region(r).blocks.first())
        else {
            return;
        };
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
            for (i, (&a, &init)) in args[1..].iter().zip(inits).enumerate() {
                if self.ty(a) != self.ty(init) {
                    self.error(Some(op), format!("iter arg {i} type mismatch with init"));
                }
            }
        }
        match f.block(body).ops.last() {
            Some(&last) if f.op(last).kind == OpKind::Yield => {
                let yops = &f.op(last).operands;
                if yops.len() != n_iter {
                    self.error(
                        Some(op),
                        format!("for body yields {} values, expected {n_iter}", yops.len()),
                    );
                } else {
                    // A foreign yield operand is the yield's own error,
                    // reported when its block is verified.
                    for (i, (&y, &r)) in yops.iter().zip(&data.results).enumerate() {
                        if self.is_value(y) && self.ty(y) != self.ty(r) {
                            self.error(Some(op), format!("yield value {i} type mismatch"));
                        }
                    }
                }
            }
            _ => self.error(Some(op), "for body must end with scf.yield".into()),
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

    /// Verifies `body` as the body of a parameterless function and
    /// returns the messages, asserting it failed.
    fn rejected(body: &str) -> Vec<String> {
        messages(&parse_module(&format!("module {{ func @f() {{ {body} }} }}")).unwrap())
    }

    #[test]
    fn rejects_transpose_that_does_not_swap() {
        let msgs = rejected(
            "%0 = tile.const_tensor() {value = 0.0} : tensor<16x8xf16>
             %1 = tile.transpose(%0) : tensor<16x8xf16>",
        );
        assert_eq!(
            msgs,
            ["tile.transpose: result 0 type tensor<16x8xf16> does not match inferred tensor<8x16xf16>"]
        );
    }

    #[test]
    fn rejects_incompatible_broadcast_to() {
        let msgs = rejected(
            "%0 = tile.const_tensor() {value = 0.0} : tensor<8x2xf32>
             %1 = tile.broadcast_to(%0) : tensor<8x64xf32>",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("cannot broadcast"), "{msgs:?}");
    }

    #[test]
    fn rejects_cmp_without_bool_result() {
        let msgs = rejected(
            r#"%0 = arith.const_int() {value = 1} : i32
               %1 = arith.cmp(%0, %0) {pred = "lt"} : i32"#,
        );
        assert_eq!(
            msgs,
            ["arith.cmp: result 0 type i32 does not match inferred bool"]
        );
    }

    #[test]
    fn rejects_dot_with_mixed_input_elements() {
        let msgs = rejected(
            "%0 = tile.const_tensor() {value = 0.0} : tensor<16x8xf16>
             %1 = tile.const_tensor() {value = 0.0} : tensor<8x16xf8e4m3>
             %2 = tile.const_tensor() {value = 0.0} : tensor<16x16xf32>
             %3 = tile.dot(%0, %1, %2) : tensor<16x16xf32>",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("input element types differ"), "{msgs:?}");
    }

    #[test]
    fn rejects_expand_dims_with_wrong_shape() {
        let msgs = rejected(
            "%0 = tile.const_tensor() {value = 0.0} : tensor<128xi32>
             %1 = tile.expand_dims(%0) {axis = 1} : tensor<1x128xi32>",
        );
        assert_eq!(
            msgs,
            ["tile.expand_dims: result 0 type tensor<1x128xi32> does not match inferred tensor<128x1xi32>"]
        );
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
