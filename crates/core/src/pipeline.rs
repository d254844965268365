//! Multi-granularity software pipelining (paper §III-D).
//!
//! Two mechanisms, applied to the *consumer* warp group produced by
//! [`crate::partition`]:
//!
//! * **Fine-grained MMA pipeline** (§III-D-1): for loops dominated by a
//!   single matrix-multiply, WGMMA issue is decoupled from completion with
//!   a bounded pipeline of depth `P`: `tawa.dot_wait {pendings = P-1}` lets
//!   up to `P` WGMMA groups fly before the consumer stalls, and the aref
//!   slot of iteration `k-P+1` is released only after its MMA retires. The
//!   IR carries the `pendings` annotation (paper Fig. 2c); prologue/epilogue
//!   peeling and drain are performed by the code generator.
//!
//! * **Coarse-grained T/C/U pipeline** (§III-D-2, Algorithm 1): *stage
//!   identification* partitions the per-iteration subgraph into a Tensor
//!   Core stage `T` (first dot), a CUDA-core transform `C` (elementwise /
//!   reduction / SFU work reading T's output) and an optional downstream
//!   Tensor Core stage `U` (second dot consuming C's output). The stages
//!   are annotated on the IR; the code generator then emits the
//!   prologue/steady-state/epilogue assembly line of Algorithm 1.

use tawa_ir::analysis::loop_info;
use tawa_ir::diag::Diagnostic;
use tawa_ir::func::{Func, Module};
use tawa_ir::op::{Attr, AttrMap, OpId, OpKind};
use tawa_ir::pass::Pass;

use crate::partition::{contains, insert, op_set};

/// Identified pipeline stages of a consumer loop body.
#[derive(Debug, Clone)]
pub struct Stages {
    /// The first Tensor Core stage (e.g. `QKᵀ`).
    pub t_dot: OpId,
    /// CUDA-core transform ops between the dots (e.g. softmax).
    pub c_ops: Vec<OpId>,
    /// Optional downstream Tensor Core stage (e.g. `P·V`).
    pub u_dot: Option<OpId>,
}

/// Finds the consumer warp groups of a warp-specialized function.
pub fn consumer_warp_groups(f: &Func) -> Vec<OpId> {
    f.walk()
        .into_iter()
        .filter(|&o| {
            f.op(o).kind == OpKind::WarpGroup && f.op(o).attrs.str("role") == Some("consumer")
        })
        .collect()
}

/// Finds the single `scf.for` loop directly inside a warp group region.
pub fn warp_group_loop(f: &Func, wg: OpId) -> Option<OpId> {
    let region = *f.op(wg).regions.first()?;
    let block = f.entry_block(region);
    f.block(block)
        .ops
        .iter()
        .copied()
        .find(|&o| !f.op(o).dead && f.op(o).kind == OpKind::For)
}

/// Stage identification on a loop body (paper §III-D-2): `T` is the first
/// dot; `C` is the set of elementwise/reduction ops downstream of `T`'s
/// output; `U` is a second dot reading `C`'s results. Returns `None` if the
/// body contains no dot.
pub fn identify_stages(f: &Func, loop_op: OpId) -> Option<Stages> {
    let info = loop_info(f, loop_op)?;
    let dots: Vec<OpId> = info
        .body_ops
        .iter()
        .copied()
        .filter(|&o| f.op(o).kind == OpKind::Dot)
        .collect();
    let t_dot = *dots.first()?;
    let u_dot = dots.get(1).copied();
    // C: ops reachable forward from T's result, stopping at U.
    let body_set = op_set(f.num_ops(), &info.body_ops);
    let mut c_ops = Vec::new();
    let mut frontier = vec![f.results(t_dot)[0]];
    let mut seen = vec![false; f.num_ops()];
    while let Some(v) = frontier.pop() {
        for (user, _) in f.uses(v) {
            if !contains(&body_set, user) || Some(user) == u_dot || user == t_dot {
                continue;
            }
            if !insert(&mut seen, user) {
                continue;
            }
            let k = f.op(user).kind;
            // The elementwise and reduction work of the paper's C stage.
            // Not a schema class: it takes `splat` but not `transpose`, and
            // moving a kind in or out of it changes which ops the coarse
            // pipeline reorders.
            let is_transform = k.is_binary_arith()
                || k.is_unary_arith()
                || matches!(
                    k,
                    OpKind::ReduceMax
                        | OpKind::ReduceSum
                        | OpKind::Select
                        | OpKind::Cmp
                        | OpKind::Cast
                        | OpKind::ExpandDims
                        | OpKind::BroadcastTo
                        | OpKind::Splat
                );
            if is_transform {
                c_ops.push(user);
                for &r in f.results(user) {
                    frontier.push(r);
                }
            }
        }
    }
    Some(Stages {
        t_dot,
        c_ops,
        u_dot,
    })
}

/// The fine-grained MMA pipelining pass: inserts `tawa.dot_wait` with
/// `pendings = P-1` after single-dot consumer loops and records the pipeline
/// depth on the warp group.
#[derive(Debug)]
pub struct FineGrainedPipeline {
    /// Pipeline depth `P` (`1` = fully synchronous, the paper sweeps 1..3).
    pub depth: usize,
}

impl Pass for FineGrainedPipeline {
    fn name(&self) -> &str {
        "fine-grained-pipeline"
    }

    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
        if self.depth == 0 {
            return Err(Diagnostic::error("MMA pipeline depth must be >= 1"));
        }
        let mut changed = false;
        for f in &mut module.funcs {
            for wg in consumer_warp_groups(f) {
                let Some(loop_op) = warp_group_loop(f, wg) else {
                    continue;
                };
                let Some(stages) = identify_stages(f, loop_op) else {
                    continue;
                };
                if stages.u_dot.is_some() {
                    continue; // multi-dot loops take the coarse pipeline
                }
                let dot = stages.t_dot;
                // Mark the dot asynchronous and splice a dot_wait between
                // the dot and its users.
                f.op_mut(dot).attrs.set("async", Attr::Bool(true));
                let dot_res = f.results(dot)[0];
                let users = f.uses(dot_res);
                let ty = f.ty(dot_res).clone();
                let mut attrs = AttrMap::new();
                attrs.set("pendings", Attr::Int(self.depth as i64 - 1));
                // Insert immediately after the dot: before the next op in
                // the block (the dot is never the terminator).
                let block = f.op(dot).parent.expect("dot is in a block");
                let pos = f
                    .block(block)
                    .ops
                    .iter()
                    .position(|&o| o == dot)
                    .expect("dot in parent");
                let next = f.block(block).ops[pos + 1];
                let wait =
                    f.insert_op_before(next, OpKind::DotWait, vec![dot_res], vec![ty], attrs);
                let wait_res = f.result(wait);
                for (user, idx) in users {
                    if user != wait {
                        f.op_mut(user).operands[idx] = wait_res;
                    }
                }
                f.op_mut(wg)
                    .attrs
                    .set("mma_depth", Attr::Int(self.depth as i64));
                // A spliced-in `dot_wait` is a new printed line.
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// The coarse-grained pipelining pass: annotates T/C/U stages on multi-dot
/// consumer loops (Algorithm 1 is instantiated by the code generator).
#[derive(Debug)]
pub struct CoarsePipeline;

impl Pass for CoarsePipeline {
    fn name(&self) -> &str {
        "coarse-pipeline"
    }

    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
        let mut changed = false;
        for f in &mut module.funcs {
            for wg in consumer_warp_groups(f) {
                let Some(loop_op) = warp_group_loop(f, wg) else {
                    continue;
                };
                let Some(stages) = identify_stages(f, loop_op) else {
                    continue;
                };
                let Some(u) = stages.u_dot else {
                    continue;
                };
                changed |= annotate(f, stages.t_dot, "stage", "T");
                changed |= annotate(f, u, "stage", "U");
                for c in stages.c_ops {
                    changed |= annotate(f, c, "stage", "C");
                }
                changed |= annotate(f, wg, "pipeline", "coarse");
            }
        }
        Ok(changed)
    }
}

/// Sets the string attribute `key = value` on `op`; returns whether that
/// moved it (an already-annotated loop prints the same).
fn annotate(f: &mut Func, op: OpId, key: &str, value: &str) -> bool {
    let attrs = &mut f.op_mut(op).attrs;
    let moved = attrs.str(key) != Some(value);
    attrs.set(key, Attr::Str(value.into()));
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::warp_specialize_func;
    use tawa_frontend::config::{AttentionConfig, GemmConfig};
    use tawa_frontend::kernels::{attention, gemm};
    use tawa_ir::pass::PassManager;
    use tawa_ir::types::DType;
    use tawa_ir::verify::verify_module;

    fn specialized_gemm() -> tawa_ir::Module {
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        warp_specialize_func(&mut m.funcs[0], 2).unwrap();
        m
    }

    fn specialized_attention(causal: bool) -> tawa_ir::Module {
        let (mut m, _) = attention(&AttentionConfig::paper(1024, causal, DType::F16)).into_parts();
        warp_specialize_func(&mut m.funcs[0], 2).unwrap();
        m
    }

    #[test]
    fn fine_pipeline_inserts_dot_wait() {
        let mut m = specialized_gemm();
        let mut pm = PassManager::new();
        pm.add(Box::new(FineGrainedPipeline { depth: 2 }));
        pm.run(&mut m).unwrap();
        verify_module(&m).unwrap();
        let f = &m.funcs[0];
        let waits: Vec<OpId> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::DotWait)
            .collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(f.op(waits[0]).attrs.int("pendings"), Some(1));
        // The yield must now consume the dot_wait result, not the raw dot.
        let wait_res = f.results(waits[0])[0];
        assert_eq!(f.uses(wait_res).len(), 1);
        let wgs = consumer_warp_groups(f);
        assert_eq!(f.op(wgs[0]).attrs.int("mma_depth"), Some(2));
    }

    #[test]
    fn attention_stages_identified() {
        let m = specialized_attention(false);
        let f = &m.funcs[0];
        let wg = consumer_warp_groups(f)[0];
        let loop_op = warp_group_loop(f, wg).unwrap();
        let stages = identify_stages(f, loop_op).unwrap();
        assert!(stages.u_dot.is_some());
        // Softmax work: sub, exp2, reduces, max, muls... at least 8 ops.
        assert!(stages.c_ops.len() >= 8, "c_ops = {}", stages.c_ops.len());
        // The C stage must include the exp2.
        assert!(stages.c_ops.iter().any(|&o| f.op(o).kind == OpKind::Exp2));
    }

    #[test]
    fn coarse_pipeline_annotates_attention() {
        let mut m = specialized_attention(true);
        let mut pm = PassManager::new();
        pm.add(Box::new(CoarsePipeline));
        pm.run(&mut m).unwrap();
        let f = &m.funcs[0];
        let wg = consumer_warp_groups(f)[0];
        assert_eq!(f.op(wg).attrs.str("pipeline"), Some("coarse"));
        let staged: Vec<&str> = f
            .walk()
            .into_iter()
            .filter_map(|o| f.op(o).attrs.str("stage"))
            .collect();
        assert!(staged.contains(&"T"));
        assert!(staged.contains(&"U"));
        assert!(staged.contains(&"C"));
    }

    #[test]
    fn fine_pipeline_skips_multi_dot_loops() {
        let mut m = specialized_attention(false);
        let mut pm = PassManager::new();
        pm.add(Box::new(FineGrainedPipeline { depth: 3 }));
        pm.run(&mut m).unwrap();
        let f = &m.funcs[0];
        assert!(
            !f.walk().iter().any(|&o| f.op(o).kind == OpKind::DotWait),
            "attention must not get the fine-grained transform"
        );
    }

    #[test]
    fn depth_zero_rejected() {
        let mut m = specialized_gemm();
        let p = FineGrainedPipeline { depth: 0 };
        assert!(p.run(&mut m).is_err());
    }
}
