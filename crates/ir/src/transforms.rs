//! Generic cleanup passes: dead-code elimination and integer constant
//! folding. These run before and after the Tawa-specific transformations to
//! keep the IR small (node duplication in the partitioner intentionally
//! creates redundancy that folding/DCE then tidies per partition).

use crate::diag::Diagnostic;
use crate::func::{Func, Module, ValueDef};
use crate::op::{Attr, OpId, OpKind, ValueId};
use crate::pass::Pass;

/// Dead code elimination: deletes pure ops whose results are all unused,
/// iterating to a fixpoint. Region-carrying ops are kept if any nested op
/// has a side effect or any loop result is used.
#[derive(Debug, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
        // Every erased op is a printed line gone.
        let erased: usize = module.funcs.iter_mut().map(run_dce).sum();
        Ok(erased > 0)
    }
}

/// Runs DCE over one function; returns the number of erased ops.
pub fn run_dce(f: &mut Func) -> usize {
    let mut erased = 0;
    loop {
        let live = f.walk();
        let mut used = vec![false; f.num_values()];
        for &op in &live {
            for &v in &f.op(op).operands {
                if let Some(u) = used.get_mut(v.0 as usize) {
                    *u = true;
                }
            }
        }
        let mut to_erase: Vec<OpId> = Vec::new();
        for op in live {
            let data = f.op(op);
            if data.kind.has_side_effect() {
                continue;
            }
            if data.kind.has_regions() {
                // Keep loops whose results are used or that contain effects.
                let mut has_effect = false;
                for &r in &data.regions {
                    f.walk_region(r, &mut |inner| {
                        if f.op(inner).kind.has_side_effect() && f.op(inner).kind != OpKind::Yield {
                            has_effect = true;
                        }
                    });
                }
                if has_effect {
                    continue;
                }
            }
            let is_used = |r: &ValueId| used.get(r.0 as usize).copied().unwrap_or(false);
            if !data.results.iter().any(is_used) {
                to_erase.push(op);
            }
        }
        if to_erase.is_empty() {
            return erased;
        }
        for op in to_erase {
            if !f.op(op).dead {
                f.erase_op(op);
                erased += 1;
            }
        }
    }
}

/// Folds integer arithmetic over `arith.const_int` operands and collapses
/// trivial identities (`x + 0`, `x * 1`, `x * 0`).
#[derive(Debug, Default)]
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &str {
        "const-fold"
    }

    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
        // Every fold erases an op (replacing it by a constant or by one of
        // its operands).
        let folds: usize = module.funcs.iter_mut().map(run_const_fold).sum();
        Ok(folds > 0)
    }
}

fn const_int_of(f: &Func, v: ValueId) -> Option<i64> {
    if let ValueDef::OpResult { op, .. } = f.value(v).def {
        if f.op(op).kind == OpKind::ConstInt && !f.op(op).dead {
            return f.op(op).attrs.int("value");
        }
    }
    None
}

/// Runs constant folding over one function; returns folds applied.
pub fn run_const_fold(f: &mut Func) -> usize {
    let mut folds = 0;
    loop {
        let mut changed = false;
        for op in f.walk() {
            let data = f.op(op);
            if !data.kind.is_binary_arith() || data.results.len() != 1 {
                continue;
            }
            if !matches!(f.ty(data.results[0]), crate::types::Type::Scalar(d) if d.is_int()) {
                continue;
            }
            let (a, b) = (data.operands[0], data.operands[1]);
            let kind = data.kind;
            let result = f.results(op)[0];
            let (ca, cb) = (const_int_of(f, a), const_int_of(f, b));
            // Full fold when both sides are constants.
            if let (Some(x), Some(y)) = (ca, cb) {
                if let Some(value) = kind.eval_int(x, y) {
                    let ty = f.ty(result).clone();
                    let new_op = f.insert_op_before(
                        op,
                        OpKind::ConstInt,
                        vec![],
                        vec![ty],
                        [("value".to_string(), Attr::Int(value))]
                            .into_iter()
                            .collect(),
                    );
                    let new_v = f.result(new_op);
                    f.replace_all_uses(result, new_v);
                    f.erase_op(op);
                    folds += 1;
                    changed = true;
                    continue;
                }
            }
            // Identities.
            let replacement = match (kind, ca, cb) {
                (OpKind::Add, Some(0), _) => Some(b),
                (OpKind::Add, _, Some(0)) => Some(a),
                (OpKind::Sub, _, Some(0)) => Some(a),
                (OpKind::Mul, _, Some(1)) => Some(a),
                (OpKind::Mul, Some(1), _) => Some(b),
                (OpKind::Div, _, Some(1)) => Some(a),
                _ => None,
            };
            if let Some(r) = replacement {
                f.replace_all_uses(result, r);
                f.erase_op(op);
                folds += 1;
                changed = true;
            }
        }
        if !changed {
            return folds;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_func_str, parse_module};
    use crate::verify::verify_func;

    #[test]
    fn dce_removes_unused_pure_ops() {
        let mut f = parse_func_str(
            "func @f(%arg0: ptr<f32>) {
               %0 = arith.const_int() {value = 42} : i32
               %1 = tile.arange() {start = 0, end = 4} : tensor<4xi32>
               %2 = tile.addptr(%arg0, %1) : tensor<4xi64>
               %3 = tile.const_tensor() {value = 0.0} : tensor<4xf32>
               tile.store(%2, %3)
             }",
        )
        .unwrap();
        let before = f.walk().len();
        let erased = run_dce(&mut f);
        assert_eq!(erased, 1);
        assert_eq!(f.walk().len(), before - 1);
        verify_func(&f).unwrap();
    }

    #[test]
    fn dce_keeps_loops_with_effects() {
        let mut f = parse_func_str(
            "func @f(%arg0: ptr<f32>) {
               %0 = arith.const_int() {value = 0} : i32
               %1 = arith.const_int() {value = 4} : i32
               %2 = arith.const_int() {value = 1} : i32
               scf.for(%0, %1, %2) {
                 ^bb(%3: i32):
                   %4 = tile.arange() {start = 0, end = 4} : tensor<4xi32>
                   %5 = tile.addptr(%arg0, %4) : tensor<4xi64>
                   %6 = tile.const_tensor() {value = 0.0} : tensor<4xf32>
                   tile.store(%5, %6)
                   scf.yield()
               }
             }",
        )
        .unwrap();
        let before = f.walk().len();
        run_dce(&mut f);
        assert_eq!(f.walk().len(), before);
    }

    #[test]
    fn dce_removes_unused_result_loops() {
        let mut f = parse_func_str(
            "func @f() {
               %0 = arith.const_int() {value = 0} : i32
               %1 = arith.const_int() {value = 4} : i32
               %2 = arith.const_int() {value = 1} : i32
               %3 = arith.const_int() {value = 0} : i32
               %4 = scf.for(%0, %1, %2, %3) : i32 {
                 ^bb(%5: i32, %6: i32):
                   %7 = arith.add(%6, %5) : i32
                   scf.yield(%7)
               }
             }",
        )
        .unwrap();
        run_dce(&mut f);
        assert_eq!(f.walk().len(), 0);
    }

    #[test]
    fn const_fold_binary() {
        let mut f = parse_func_str(
            "func @f(%arg0: ptr<f32>) {
               %0 = arith.const_int() {value = 6} : i32
               %1 = arith.const_int() {value = 7} : i32
               %2 = arith.mul(%0, %1) : i32
               %3 = tile.arange() {start = 0, end = 4} : tensor<4xi32>
               %4 = tile.addptr(%arg0, %3) : tensor<4xi64>
               %5 = tile.splat(%2) : tensor<4xi32>
               %6 = arith.cast(%5) : tensor<4xf32>
               tile.store(%4, %6)
             }",
        )
        .unwrap();
        run_const_fold(&mut f);
        run_dce(&mut f);
        verify_func(&f).unwrap();
        // The multiply should be gone, replaced by const 42.
        let kinds: Vec<_> = f.walk().iter().map(|&o| f.op(o).kind).collect();
        assert!(!kinds.contains(&OpKind::Mul));
        let c42 = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::ConstInt && f.op(o).attrs.int("value") == Some(42));
        assert!(c42.is_some());
    }

    #[test]
    fn const_fold_identities() {
        // `(x + 0) * 1`, kept alive by nothing: both identities fold.
        let mut f = parse_func_str(
            "func @f(%arg0: i32) {
               %0 = arith.const_int() {value = 0} : i32
               %1 = arith.const_int() {value = 1} : i32
               %2 = arith.add(%arg0, %0) : i32
               %3 = arith.mul(%2, %1) : i32
               %4 = tile.arange() {start = 0, end = 1} : tensor<1xi32>
               %5 = tile.splat(%3) : tensor<1xi32>
               %6 = arith.add(%4, %5) : tensor<1xi32>
             }",
        )
        .unwrap();
        let folds = run_const_fold(&mut f);
        assert!(
            folds >= 2,
            "expected at least two identity folds, got {folds}"
        );
    }

    #[test]
    fn passes_implement_trait() {
        let mut m = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 1} : i32
               %1 = arith.const_int() {value = 2} : i32
               %2 = arith.add(%0, %1) : i32
             } }",
        )
        .unwrap();
        let mut pm = crate::pass::PassManager::new();
        pm.add(Box::new(ConstFold)).add(Box::new(Dce));
        pm.run(&mut m).unwrap();
        assert_eq!(m.funcs[0].walk().len(), 0);
    }
}
