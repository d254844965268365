//! Launch-time constant evaluation.
//!
//! Like Triton, Tawa JIT-specializes kernels to a concrete launch: problem
//! sizes arrive as scalar parameters and `program_id`s are known per CTA
//! class. This module folds those bindings through scalar IR to recover
//! static loop trip counts, tile coordinates and grid maths needed by the
//! WSIR code generator.

use std::collections::HashMap;

use tawa_ir::func::{Func, ValueDef};
use tawa_ir::op::{CmpPred, OpKind, ValueId};
use tawa_ir::spec::{LaunchSpec, ParamValue};

/// Evaluates scalar integer values of `f` under a launch binding.
#[derive(Debug)]
pub struct ConstEval<'f> {
    f: &'f Func,
    env: HashMap<ValueId, i64>,
    pid: [i64; 3],
}

impl<'f> ConstEval<'f> {
    /// Creates an evaluator binding function parameters from `spec` and
    /// `program_id(axis)` from `pid`.
    pub fn new(f: &'f Func, spec: &LaunchSpec, pid: [i64; 3]) -> ConstEval<'f> {
        let mut env = HashMap::new();
        for (&p, v) in f.params().iter().zip(spec.params.iter()) {
            if let ParamValue::Int(x) = v {
                env.insert(p, *x);
            }
        }
        ConstEval { f, env, pid }
    }

    /// Evaluates `v` to a scalar integer if possible.
    ///
    /// Loop-carried values and tensors evaluate to `None`.
    pub fn eval(&mut self, v: ValueId) -> Option<i64> {
        if let Some(&x) = self.env.get(&v) {
            return Some(x);
        }
        let op = match self.f.value(v).def {
            ValueDef::OpResult { op, .. } => op,
            ValueDef::BlockArg { .. } => return None, // unbound block arg
        };
        let data = self.f.op(op);
        let result = match data.kind {
            OpKind::ConstInt => data.attrs.int("value"),
            OpKind::ProgramId => {
                let axis = data.attrs.int("axis")? as usize;
                Some(self.pid[axis])
            }
            OpKind::NumPrograms => None,
            k if k.is_binary_arith() => {
                let a = self.eval(data.operands[0])?;
                let b = self.eval(data.operands[1])?;
                k.eval_int(a, b)
            }
            OpKind::Neg => self.eval(data.operands[0]).map(i64::wrapping_neg),
            OpKind::Cast => self.eval(data.operands[0]),
            OpKind::Select => {
                // Only fold selects with a foldable comparison condition.
                let cond_op = self.f.defining_op(data.operands[0])?;
                let cond = self.f.op(cond_op);
                if cond.kind != OpKind::Cmp {
                    return None;
                }
                let a = self.eval(cond.operands[0])?;
                let b = self.eval(cond.operands[1])?;
                let pred = cond.attrs.str("pred").and_then(CmpPred::parse)?;
                let pick = if pred.holds(a, b) {
                    data.operands[1]
                } else {
                    data.operands[2]
                };
                self.eval(pick)
            }
            _ => None,
        };
        if let Some(x) = result {
            self.env.insert(v, x);
        }
        result
    }

    /// Trip count of a loop given its `(lo, hi, step)` operands.
    ///
    /// Returns `None` when any bound is not launch-constant.
    pub fn trip_count(&mut self, lo: ValueId, hi: ValueId, step: ValueId) -> Option<u64> {
        let lo = self.eval(lo)?;
        let hi = self.eval(hi)?;
        let step = self.eval(step)?;
        if step <= 0 || hi <= lo {
            return Some(0);
        }
        Some(((hi - lo + step - 1) / step) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_frontend::config::{AttentionConfig, GemmConfig};
    use tawa_frontend::kernels::{attention, gemm};
    use tawa_ir::analysis::{loop_info, top_level_loops};
    use tawa_ir::types::DType;

    #[test]
    fn gemm_trip_count_from_launch_spec() {
        let (m, spec) = gemm(&GemmConfig::new(8192, 8192, 4096)).into_parts();
        let f = &m.funcs[0];
        let loops = top_level_loops(f);
        let info = loop_info(f, loops[0]);
        let mut ev = ConstEval::new(f, &spec, [0, 0, 0]);
        assert_eq!(ev.trip_count(info.lo, info.hi, info.step), Some(64));
    }

    #[test]
    fn causal_attention_trips_depend_on_pid() {
        let cfg = AttentionConfig::paper(2048, true, DType::F16);
        let (m, spec) = attention(&cfg).into_parts();
        let f = &m.funcs[0];
        let loops = top_level_loops(f);
        let info = loop_info(f, loops[0]);
        for qt in 0..cfg.q_tiles() {
            let mut ev = ConstEval::new(f, &spec, [qt as i64, 0, 0]);
            let trips = ev.trip_count(info.lo, info.hi, info.step);
            assert_eq!(trips, Some(cfg.kv_tiles(qt)), "tile {qt}");
        }
    }

    #[test]
    fn noncausal_trips_are_uniform() {
        let cfg = AttentionConfig::paper(4096, false, DType::F16);
        let (m, spec) = attention(&cfg).into_parts();
        let f = &m.funcs[0];
        let loops = top_level_loops(f);
        let info = loop_info(f, loops[0]);
        let mut ev = ConstEval::new(f, &spec, [17, 3, 0]);
        assert_eq!(ev.trip_count(info.lo, info.hi, info.step), Some(32));
    }

    #[test]
    fn loop_carried_values_are_not_constant() {
        let (m, spec) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        let f = &m.funcs[0];
        let loops = top_level_loops(f);
        let info = loop_info(f, loops[0]);
        let mut ev = ConstEval::new(f, &spec, [0, 0, 0]);
        assert_eq!(ev.eval(info.iter_args[1]), None, "o_k is loop-carried");
        assert_eq!(ev.eval(info.iv), None, "induction variable is dynamic");
    }
}
