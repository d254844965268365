//! IR analyses over the structured op tree: loop structure queries
//! ([`top_level_loops`], [`loop_info`]) and the two queries behind the
//! IR-level performance lints of `tawa_wsir::analyze::perf`.
//!
//! [`dead_result_ops`] is the backward walk from the side-effecting sinks
//! that the paper's task-aware partitioning starts with (§III-C; the
//! partition pass keeps its own closure): one mark over the def-use graph,
//! with loop-carried values followed through their loop. Ops it leaves
//! unmarked feed no sink. [`uninitialized_gets`] finds aref reads that no
//! write reaches, by one put-before-get rule over pre-order and the
//! enclosing loops and warp groups. Both return [`OpId`]s, so source
//! locations survive: `f.loc(op)` maps any finding back to the DSL line
//! that produced it.

use crate::func::{Func, ValueDef};
use crate::op::{OpClass, OpId, OpKind, ValueId};

/// Finds the outermost `scf.for` loops in the function body (not nested in
/// another loop or warp group).
pub fn top_level_loops(f: &Func) -> Vec<OpId> {
    let body = f.body_block();
    f.block(body)
        .ops
        .iter()
        .copied()
        .filter(|&op| !f.op(op).dead && f.op(op).kind == OpKind::For)
        .collect()
}

/// Describes an `scf.for` op: bounds, step, inits, body block parts.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop op.
    pub op: OpId,
    /// Lower bound operand.
    pub lo: ValueId,
    /// Upper bound operand.
    pub hi: ValueId,
    /// Step operand.
    pub step: ValueId,
    /// Loop-carried initial values.
    pub inits: Vec<ValueId>,
    /// Induction variable (first body block arg).
    pub iv: ValueId,
    /// Iteration block args (excluding the induction variable).
    pub iter_args: Vec<ValueId>,
    /// Values yielded at the end of the body.
    pub yields: Vec<ValueId>,
    /// Ops of the body block, excluding the terminator.
    pub body_ops: Vec<OpId>,
    /// The yield terminator op.
    pub yield_op: OpId,
}

/// Extracts structured information about a `scf.for` op, or `None` if
/// `op` is not one the verifier would accept: bounds, a body block with
/// an induction variable, and a trailing `scf.yield`.
pub fn loop_info(f: &Func, op: OpId) -> Option<LoopInfo> {
    let data = f.op(op);
    let (OpKind::For, [lo, hi, step, inits @ ..]) = (data.kind, data.operands.as_slice()) else {
        return None;
    };
    let body = *f.region(*data.regions.first()?).blocks.first()?;
    let (&iv, iter_args) = f.block(body).args.split_first()?;
    let (&yield_op, rest) = f.block(body).ops.split_last()?;
    (f.op(yield_op).kind == OpKind::Yield).then(|| LoopInfo {
        op,
        lo: *lo,
        hi: *hi,
        step: *step,
        inits: inits.to_vec(),
        iv,
        iter_args: iter_args.to_vec(),
        yields: f.op(yield_op).operands.clone(),
        body_ops: rest.to_vec(),
        yield_op,
    })
}

/// The region op whose body holds `op`, if `op` is nested in one.
fn enclosing_op(f: &Func, op: OpId) -> Option<OpId> {
    f.region(f.block(f.op(op).parent?).parent?).parent_op
}

/// Sets `marks[id]`, returning `true` if it was clear (`false` for an id
/// out of range, which is then never marked).
fn mark(marks: &mut [bool], id: u32) -> bool {
    match marks.get_mut(id as usize) {
        Some(m) if !*m => {
            *m = true;
            true
        }
        _ => false,
    }
}

/// Ops computing values nothing ever needs, in pre-order; pair with
/// [`Func::loc`] for source spans.
///
/// One mark over the def-use graph from the roots: the side-effecting
/// sinks (`Write`-class ops, and `tawa.get`, whose slot acquisition keeps
/// the aref ring in step even when its payload is dead) and every region
/// op enclosing one. A marked op marks its operands, and a marked value
/// marks its defining op. Loop-carried values follow the loop: result `i`
/// marks yield operand `i`, iter-arg `i` marks init `i` and yield operand
/// `i`, and a marked loop marks its bounds and every init. An op with
/// results is dead when it is unmarked, so whole chains feeding no sink
/// are dead — including loops whose carried accumulators reach none.
pub fn dead_result_ops(f: &Func) -> Vec<OpId> {
    let ops = f.walk();
    let mut live_ops = vec![false; f.num_ops()];
    let mut live_values = vec![false; f.num_values()];
    let mut work = Vec::new();
    let mut mark_op = |op: OpId, work: &mut Vec<ValueId>| {
        if mark(&mut live_ops, op.0) {
            work.extend_from_slice(&f.op(op).operands);
        }
    };
    for &op in &ops {
        let kind = f.op(op).kind;
        if kind.class() == OpClass::Write || kind == OpKind::ArefGet {
            let mut root = Some(op);
            while let Some(r) = root {
                mark_op(r, &mut work);
                root = enclosing_op(f, r);
            }
        }
    }
    while let Some(v) = work.pop() {
        if !mark(&mut live_values, v.0) {
            continue;
        }
        match f.value(v).def {
            ValueDef::OpResult { op, idx } => {
                mark_op(op, &mut work);
                if let Some(l) = loop_info(f, op) {
                    work.extend(l.yields.get(idx));
                }
            }
            ValueDef::BlockArg { block, .. } => {
                let owner = f.block(block).parent.and_then(|r| f.region(r).parent_op);
                let Some(l) = owner.and_then(|op| loop_info(f, op)) else {
                    continue;
                };
                if let Some(i) = l.iter_args.iter().position(|&a| a == v) {
                    work.extend(l.inits.get(i));
                    work.extend(l.yields.get(i));
                }
            }
        }
    }
    ops.into_iter()
        .filter(|&op| {
            !live_ops.get(op.0 as usize).is_some_and(|&m| m) && !f.op(op).results.is_empty()
        })
        .collect()
}

/// `tawa.get` ops that read a `tawa.create_aref` ring no `tawa.put` on the
/// same handle reaches, in pre-order. A put reaches a get when it comes
/// first in pre-order, or when an `scf.for` or `tawa.warp_group` encloses
/// both: the loop's back edge, or the sibling partitions of one warp
/// group, which run in parallel, carry the put around to the get. So the
/// verdict is conservative — a pipelined producer that fills a slot in
/// another partition or iteration is never flagged.
pub fn uninitialized_gets(f: &Func) -> Vec<OpId> {
    // Every region op is an `scf.for` or a `tawa.warp_group`, so two ops
    // share an enclosing one exactly when they share the outermost.
    let outermost = |op: OpId| {
        let mut outer = None;
        let mut at = enclosing_op(f, op);
        while let Some(o) = at {
            outer = Some(o);
            at = enclosing_op(f, o);
        }
        outer
    };
    let ops = f.walk();
    let handle = |op: OpId, kind: OpKind| {
        let data = f.op(op);
        data.operands.first().copied().filter(|_| data.kind == kind)
    };
    let puts: Vec<(usize, ValueId, Option<OpId>)> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, &op)| Some((i, handle(op, OpKind::ArefPut)?, outermost(op))))
        .collect();
    let mut out = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let Some(ring) = handle(op, OpKind::ArefGet) else {
            continue;
        };
        let created = f
            .defining_op(ring)
            .is_some_and(|d| f.op(d).kind == OpKind::CreateAref);
        let outer = outermost(op);
        let reached = puts
            .iter()
            .any(|&(j, h, o)| h == ring && (j < i || (o.is_some() && o == outer)));
        if created && !reached {
            out.push(op);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_func_str;

    /// An accumulator carried through a 16-trip loop, as `%4`.
    const ACC_LOOP: &str = "
        %0 = arith.const_int() {value = 0} : i32
        %1 = arith.const_int() {value = 16} : i32
        %2 = arith.const_int() {value = 1} : i32
        %3 = tile.const_tensor() {value = 0.0} : tensor<8xf32>
        %4 = scf.for(%0, %1, %2, %3) : tensor<8xf32> {
          ^bb(%5: i32, %6: tensor<8xf32>):
            %7 = arith.const_float() {value = 1.0} : f32
            %8 = arith.add(%6, %7) : tensor<8xf32>
            scf.yield(%8)
        }";

    fn loop_func() -> Func {
        parse_func_str(&format!(
            "func @f(%arg0: ptr<f32>) {{ {ACC_LOOP}
               %9 = tile.arange() {{start = 0, end = 8}} : tensor<8xi32>
               %10 = tile.addptr(%arg0, %9) : tensor<8xi64>
               tile.store(%10, %4)
             }}"
        ))
        .unwrap()
    }

    #[test]
    fn loop_info_extracts_structure() {
        let f = loop_func();
        let loops = top_level_loops(&f);
        let info = loop_info(&f, loops[0]).unwrap();
        assert_eq!(info.inits.len(), 1);
        assert_eq!(info.iter_args.len(), 1);
        assert_eq!(info.yields.len(), 1);
        assert_eq!(info.body_ops.len(), 2); // const_float, add
        assert_eq!(f.op(info.yield_op).kind, OpKind::Yield);
    }

    #[test]
    fn loop_info_is_none_for_malformed_loops() {
        // A body without its `scf.yield`, and an op that is no loop.
        let f = parse_func_str(
            "func @f() {
               %0 = arith.const_int() {value = 0} : i32
               scf.for(%0, %0, %0) {
                 ^bb(%1: i32):
                   %2 = arith.add(%1, %1) : i32
               }
             }",
        )
        .unwrap();
        let ops = &f.block(f.body_block()).ops;
        assert!(loop_info(&f, ops[1]).is_none());
        assert!(loop_info(&f, ops[0]).is_none());
    }

    /// A function with one stored dot and one dot whose result feeds only a
    /// dead add chain — nothing downstream consumes it.
    fn dead_dot_func() -> (Func, OpId, OpId) {
        let f = parse_func_str(
            "func @f(%arg0: ptr<f32>) {
               %0 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
               %1 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
               %2 = tile.const_tensor() {value = 0.0} : tensor<16x16xf32>
               %live = tile.dot(%0, %1, %2) : tensor<16x16xf32>
               %dead = tile.dot(%0, %1, %2) : tensor<16x16xf32>
               %3 = arith.add(%dead, %dead) : tensor<16x16xf32>
               %4 = tile.arange() {start = 0, end = 16} : tensor<16xi32>
               %5 = tile.addptr(%arg0, %4) : tensor<16xi64>
               tile.store(%5, %live)
             }",
        )
        .unwrap();
        let ops = &f.block(f.body_block()).ops;
        let (live_op, dead_op) = (ops[3], ops[4]);
        (f, live_op, dead_op)
    }

    #[test]
    fn liveness_separates_dead_from_live_dots() {
        let (f, live_op, dead_op) = dead_dot_func();
        let dead = dead_result_ops(&f);
        assert!(dead.contains(&dead_op), "unconsumed dot must be dead");
        assert!(!dead.contains(&live_op), "stored dot must be live");
        // Transitivity: the add consuming only the dead dot is dead too.
        let kinds: Vec<OpKind> = dead.iter().map(|&o| f.op(o).kind).collect();
        assert!(kinds.contains(&OpKind::Add), "{kinds:?}");
    }

    #[test]
    fn liveness_tracks_loop_carried_accumulators() {
        // Accumulator yielded through a loop and stored: everything live.
        let f = loop_func();
        assert_eq!(dead_result_ops(&f), vec![]);

        // Same loop, result never stored: the whole chain is dead,
        // including the const_float and add inside the loop body.
        let g = parse_func_str(&format!("func @g(%arg0: ptr<f32>) {{ {ACC_LOOP} }}")).unwrap();
        let dead = dead_result_ops(&g);
        let kinds: Vec<OpKind> = dead.iter().map(|&o| g.op(o).kind).collect();
        assert!(kinds.contains(&OpKind::For), "{kinds:?}");
        assert!(kinds.contains(&OpKind::Add), "{kinds:?}");
    }

    #[test]
    fn reaching_defs_cross_warp_group_partitions() {
        // Producer partition puts into the ring, consumer partition gets:
        // the put comes first in pre-order, so it reaches the get.
        let f = parse_func_str(
            r#"func @ws() {
                 %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<16x16xf16>>>
                 %1 = arith.const_int() {value = 0} : i32
                 tawa.warp_group() {partition = 0, role = "producer"} {
                   ^bb():
                     %2 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
                     tawa.put(%0, %1, %2)
                 }
                 tawa.warp_group() {partition = 1, role = "consumer"} {
                   ^bb():
                     %3 = tawa.get(%0, %1) : tensor<16x16xf16>
                 }
               }"#,
        )
        .unwrap();
        assert_eq!(
            uninitialized_gets(&f),
            vec![],
            "sibling-partition put must reach the get"
        );
    }

    #[test]
    fn reaching_defs_flag_unwritten_handles() {
        let f = parse_func_str(
            "func @cold() {
               %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<16x16xf16>>>
               %1 = arith.const_int() {value = 0} : i32
               %2 = tawa.get(%0, %1) : tensor<16x16xf16>
               %3 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
               tawa.put(%0, %1, %3)
             }",
        )
        .unwrap();
        // Straight-line get before any put: nothing reaches it.
        let get = f.block(f.body_block()).ops[2];
        assert_eq!(f.op(get).kind, OpKind::ArefGet);
        assert_eq!(uninitialized_gets(&f), vec![get]);
    }

    #[test]
    fn reaching_defs_loop_back_edge_counts() {
        // put after the get, but inside a loop: iteration 2 sees it.
        let f = parse_func_str(
            "func @ring() {
               %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<16x16xf16>>>
               %1 = arith.const_int() {value = 0} : i32
               %2 = arith.const_int() {value = 8} : i32
               %3 = arith.const_int() {value = 1} : i32
               scf.for(%1, %2, %3) {
                 ^bb(%4: i32):
                   %5 = tawa.get(%0, %4) : tensor<16x16xf16>
                   %6 = tile.const_tensor() {value = 0.0} : tensor<16x16xf16>
                   tawa.put(%0, %4, %6)
                   scf.yield()
               }
             }",
        )
        .unwrap();
        assert_eq!(
            uninitialized_gets(&f),
            vec![],
            "back-edge put must reach the get"
        );
    }
}
