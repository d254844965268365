//! Task-aware partitioning and loop distribution (paper §III-C).
//!
//! The pass turns an unannotated tile-level kernel into a warp-specialized
//! one:
//!
//! 1. **Semantic tagging** — a backward traversal from the TMA loads marks
//!    *iteration statements* (address computation, including loop-carried
//!    offset updates that are textually separated from the loads, like
//!    `o_k += Kt`); everything transforming or consuming tiles is a *tile
//!    statement*.
//! 2. **Graph cut with duplication** — the producer partition is the
//!    dependency-closed set of iteration statements plus the TMA loads they
//!    dominate; the consumer partition is the tile statements plus
//!    dependents. Nodes needed by both sides (e.g. an offset feeding both a
//!    load and a mask) are *duplicated* so neither partition depends on the
//!    other through SSA values — the only cross-partition edges left are
//!    `aref` channels.
//! 3. **Aref creation** — for each cross-partition tile edge an aref ring
//!    of depth `D` is created; loads consumed by the same `dot` share one
//!    aref with a tuple payload (the A/B optimization of §III-C-2).
//! 4. **Loop distribution** — the main loop is cloned into producer and
//!    consumer `tawa.warp_group` regions, each carrying only its own
//!    loop-carried values; `put`/`get`/`consumed` operate on slot
//!    `(iv - lo)/step mod D`. The epilogue is attached to the consumer so
//!    output writes occur exactly once.

use tawa_ir::analysis::{loop_info, top_level_loops, LoopInfo};
use tawa_ir::diag::Diagnostic;
use tawa_ir::func::{Func, Module, ValueDef};
use tawa_ir::op::{Attr, AttrMap, BlockId, OpClass, OpId, OpKind, ValueId};
use tawa_ir::pass::Pass;
use tawa_ir::types::Type;

/// Statistics about one partitioning run (used by tests and diagnostics).
#[derive(Debug, Clone, Default)]
pub struct PartitionReport {
    /// Ops assigned to the producer partition (loop body).
    pub producer_ops: usize,
    /// Ops assigned to the consumer partition (loop body).
    pub consumer_ops: usize,
    /// Ops duplicated into both partitions.
    pub duplicated_ops: usize,
    /// Arefs created (after tuple grouping).
    pub arefs: usize,
    /// Total payload tensors communicated per iteration.
    pub payload_tensors: usize,
}

/// The warp-specialization pass. Transforms every function in the module
/// that contains a TMA-load-bearing top-level loop.
#[derive(Debug)]
pub struct WarpSpecialize {
    /// Ring depth `D` for every aref created.
    pub depth: usize,
}

impl Pass for WarpSpecialize {
    fn name(&self) -> &str {
        "warp-specialize"
    }

    fn run(&self, module: &mut Module) -> Result<bool, Diagnostic> {
        for f in &mut module.funcs {
            let name = f.name.clone();
            warp_specialize_func(f, self.depth)
                .map_err(|msg| Diagnostic::error(msg).with_func(name))?;
        }
        // A function is either rewritten into warp groups or an error.
        Ok(!module.funcs.is_empty())
    }
}

/// Applies warp specialization to one function. Returns the report, or an
/// error if the kernel shape is unsupported.
///
/// # Errors
/// Fails when there is no TMA-bearing loop, or when a tensor-typed
/// loop-carried value would be needed by both partitions (which cannot be
/// duplicated without communication).
pub fn warp_specialize_func(f: &mut Func, depth: usize) -> Result<PartitionReport, String> {
    if depth == 0 {
        return Err("aref depth must be >= 1".into());
    }
    let loops = top_level_loops(f);
    let main_loop = loops
        .into_iter()
        .find(|&l| {
            let mut has_load = false;
            for &r in &f.op(l).regions {
                f.walk_region(r, &mut |o| {
                    has_load |= f.op(o).kind == OpKind::TmaLoad;
                });
            }
            has_load
        })
        .ok_or_else(|| "no TMA-load-bearing top-level loop to specialize".to_string())?;
    let info = loop_info(f, main_loop).ok_or("malformed scf.for: no body ending in scf.yield")?;

    // ---- 1+2. semantic tagging + graph cut ------------------------------
    let body = f.entry_block(f.op(main_loop).regions[0]);
    let body_ops: Vec<OpId> = info.body_ops.clone();
    // Op sets below are dense tables over the ops that exist now.
    let n_ops = f.num_ops();
    let body_set = op_set(n_ops, &body_ops);
    let in_body = |f: &Func, v: ValueId| -> Option<OpId> {
        match f.value(v).def {
            ValueDef::OpResult { op, .. } if contains(&body_set, op) => Some(op),
            _ => None,
        }
    };

    let loads: Vec<OpId> = body_ops
        .iter()
        .copied()
        .filter(|&o| f.op(o).kind == OpKind::TmaLoad)
        .collect();
    if loads.is_empty() {
        return Err("main loop has no TMA loads".to_string());
    }

    // Producer slice: loads + address computation, iterated to a fixpoint
    // over loop-carried update chains (o_k += Kt).
    let mut p_slice = vec![false; n_ops];
    close(f, &body_set, &mut p_slice, &loads, true);
    loop {
        let mut grew = false;
        for (i, &arg) in info.iter_args.iter().enumerate() {
            let used_by_producer = f
                .uses(arg)
                .iter()
                .any(|&(op, _)| contains(&p_slice, op) && contains(&body_set, op));
            if used_by_producer {
                if let Some(def) = in_body(f, info.yields[i]) {
                    grew |= close(f, &body_set, &mut p_slice, &[def], true);
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Consumer slice: everything else, closed backwards (may re-include
    // scalar producer ops => duplication), but never the loads themselves.
    let c_roots: Vec<OpId> = body_ops
        .iter()
        .copied()
        .filter(|&o| !contains(&p_slice, o))
        .collect();
    let mut c_slice = vec![false; n_ops];
    close(f, &body_set, &mut c_slice, &c_roots, false);
    let duplicated_ops = (0..n_ops).filter(|&i| p_slice[i] && c_slice[i]).count();

    // ---- iter-arg assignment ------------------------------------------------
    #[derive(Clone, Copy, PartialEq)]
    enum ArgSide {
        Producer,
        Consumer,
        Both,
    }
    let mut arg_sides = Vec::new();
    for (i, &arg) in info.iter_args.iter().enumerate() {
        let users: Vec<OpId> = f
            .uses(arg)
            .iter()
            .map(|&(op, _)| op)
            .filter(|&op| contains(&body_set, op))
            .collect();
        let in_p = users.iter().any(|&u| contains(&p_slice, u));
        let in_c = users.iter().any(|&u| contains(&c_slice, u));
        let side = match (in_p, in_c) {
            (true, true) => ArgSide::Both,
            (true, false) => ArgSide::Producer,
            _ => ArgSide::Consumer, // unused args default to the consumer
        };
        if side == ArgSide::Both && f.ty(arg).is_tensor() {
            return Err(format!(
                "tensor loop-carried value {arg} is needed by both partitions"
            ));
        }
        // A producer-side arg's yield chain was pulled into p_slice above;
        // if the consumer also carries it, its chain must be in c_slice too.
        if matches!(side, ArgSide::Both) {
            if let Some(def) = in_body(f, info.yields[i]) {
                close(f, &body_set, &mut c_slice, &[def], false);
            }
        }
        arg_sides.push(side);
    }

    // ---- 3. aref grouping: loads consumed by the same dot share an aref --
    // Follow forward through shape-preserving tile ops to the first dot.
    let consuming_dot = |f: &Func, load: OpId| -> Option<OpId> {
        let mut frontier = vec![f.results(load)[0]];
        let mut hops = 0;
        while let Some(v) = frontier.pop() {
            hops += 1;
            if hops > 64 {
                return None;
            }
            for (user, _) in f.uses(v) {
                if !contains(&body_set, user) {
                    continue;
                }
                match f.op(user).kind {
                    OpKind::Dot => return Some(user),
                    k if k.class() == OpClass::View => frontier.push(f.results(user)[0]),
                    _ => {}
                }
            }
        }
        None
    };
    let mut groups: Vec<(Option<OpId>, Vec<OpId>)> = Vec::new();
    for &load in &loads {
        let dot = consuming_dot(f, load);
        match groups.iter_mut().find(|(d, _)| dot.is_some() && *d == dot) {
            Some((_, g)) => g.push(load),
            None => groups.push((dot, vec![load])),
        }
    }

    // ---- 4. rebuild: create_aref + two warp groups ------------------------
    let body_block = f.body_block();
    let all_body: Vec<OpId> = f.block(body_block).ops.clone();
    let loop_pos = all_body
        .iter()
        .position(|&o| o == main_loop)
        .ok_or_else(|| "main loop is not in the function body".to_string())?;
    let prologue: Vec<OpId> = all_body[..loop_pos].to_vec();
    let epilogue: Vec<OpId> = all_body[loop_pos + 1..].to_vec();

    // External deps of a set of body/epilogue ops that live in the prologue.
    let prologue_set = op_set(n_ops, &prologue);
    let prologue_closure = |f: &Func, slice: &[bool], extra: &[ValueId]| -> Vec<bool> {
        // Values the partition reads from outside the loop body.
        let reads = body_ops.iter().filter(|&&o| contains(slice, o));
        let roots: Vec<OpId> = (reads.flat_map(|&o| &f.op(o).operands).chain(extra))
            .filter_map(|&v| f.defining_op(v))
            .collect();
        let mut set = vec![false; n_ops];
        close(f, &prologue_set, &mut set, &roots, true);
        set
    };
    let p_extra: Vec<ValueId> = {
        let mut v = vec![info.lo, info.hi, info.step];
        for (i, side) in arg_sides.iter().enumerate() {
            if matches!(side, ArgSide::Producer | ArgSide::Both) {
                v.push(info.inits[i]);
            }
        }
        v
    };
    let c_extra: Vec<ValueId> = {
        let mut v = vec![info.lo, info.hi, info.step];
        for (i, side) in arg_sides.iter().enumerate() {
            if matches!(side, ArgSide::Consumer | ArgSide::Both) {
                v.push(info.inits[i]);
            }
        }
        for &e in &epilogue {
            for &o in &f.op(e).operands {
                v.push(o);
            }
        }
        v
    };
    let p_prologue = prologue_closure(f, &p_slice, &p_extra);
    let c_prologue = prologue_closure(f, &c_slice, &c_extra);

    // Allocate arefs (shared between the two warp groups).
    let mut aref_vals: Vec<ValueId> = Vec::new();
    for (_, group) in &groups {
        let payload: Vec<Type> = group.iter().map(|&l| f.ty(f.result(l)).clone()).collect();
        let mut attrs = AttrMap::new();
        attrs.set("depth", Attr::Int(depth as i64));
        let aref = f.push_op(
            body_block,
            OpKind::CreateAref,
            vec![],
            vec![Type::Aref(depth, payload)],
            attrs,
        );
        // The aref inherits the span of the load it transports, so the
        // barriers lowered from it can point diagnostics at the tile
        // program's `file:line` rather than at this rewrite.
        f.set_loc(aref, f.loc(group[0]));
        aref_vals.push(f.result(aref));
    }

    let report = PartitionReport {
        producer_ops: p_slice.iter().filter(|&&m| m).count(),
        consumer_ops: c_slice.iter().filter(|&&m| m).count(),
        duplicated_ops,
        arefs: groups.len(),
        payload_tensors: groups.iter().map(|(_, g)| g.len()).sum(),
    };

    // --- producer warp group -------------------------------------------------
    let depth_i = depth as i64;
    let aref_groups: Vec<(ValueId, Vec<OpId>)> = aref_vals
        .iter()
        .copied()
        .zip(groups.iter().map(|(_, g)| g.clone()))
        .collect();
    build_warp_group(
        f,
        body_block,
        0,
        "producer",
        &prologue,
        &p_prologue,
        &info,
        &body_ops,
        |op, _f| contains(&p_slice, op),
        &arg_sides
            .iter()
            .map(|s| matches!(s, ArgSide::Producer | ArgSide::Both))
            .collect::<Vec<_>>(),
        &[],
        &aref_groups,
        false,
        depth_i,
    )?;

    // --- consumer warp group ---------------------------------------------------
    build_warp_group(
        f,
        body_block,
        1,
        "consumer",
        &prologue,
        &c_prologue,
        &info,
        &body_ops,
        |op, f2| contains(&c_slice, op) && f2.op(op).kind != OpKind::TmaLoad,
        &arg_sides
            .iter()
            .map(|s| matches!(s, ArgSide::Consumer | ArgSide::Both))
            .collect::<Vec<_>>(),
        &epilogue,
        &aref_groups,
        true,
        depth_i,
    )?;

    // ---- erase the original (now fully duplicated) program -----------------
    for &op in all_body.iter().rev() {
        f.erase_op(op);
    }
    let _ = body; // body block of the old loop is unreachable after erasure

    f.attrs.set("warp_specialized", Attr::Bool(true));
    f.attrs.set("aref_depth", Attr::Int(depth_i));
    Ok(report)
}

/// Clones one partition into a fresh `tawa.warp_group`.
///
/// `keep` selects which loop-body ops belong to this partition; `arg_keep`
/// selects the loop-carried values it carries. For the consumer partition
/// (`is_consumer`), `tawa.get`s are emitted at the top of the loop body and
/// every original `TmaLoad` result is remapped to the corresponding `get`
/// result before the tile statements are cloned; a `tawa.consumed` per aref
/// closes each iteration. The producer instead emits one `tawa.put` per
/// aref after its cloned loads.
///
/// # Errors
/// Fails when an aref is not aref-typed or a load it carries was not
/// cloned into the producer.
#[allow(clippy::too_many_arguments)]
fn build_warp_group(
    f: &mut Func,
    body_block: BlockId,
    partition: usize,
    role: &str,
    prologue: &[OpId],
    prologue_keep: &[bool],
    info: &LoopInfo,
    body_ops: &[OpId],
    keep: impl Fn(OpId, &Func) -> bool,
    arg_keep: &[bool],
    epilogue: &[OpId],
    aref_groups: &[(ValueId, Vec<OpId>)],
    is_consumer: bool,
    depth: i64,
) -> Result<(), String> {
    let mut attrs = AttrMap::new();
    attrs.set("partition", Attr::Int(partition as i64));
    attrs.set("role", Attr::Str(role.to_string()));
    let wg = f.push_op(body_block, OpKind::WarpGroup, vec![], vec![], attrs);
    let (_, wg_block) = f.add_region(wg);

    // The value map is indexed by the original value's id.
    let mut vmap: Vec<Option<ValueId>> = vec![None; f.num_values()];
    let lookup = |vmap: &[Option<ValueId>], v: ValueId| vmap.get(v.0 as usize).copied().flatten();
    let map_v = |vmap: &[Option<ValueId>], v: ValueId| lookup(vmap, v).unwrap_or(v);
    let bind = |vmap: &mut [Option<ValueId>], from: ValueId, to: ValueId| {
        if let Some(slot) = vmap.get_mut(from.0 as usize) {
            *slot = Some(to);
        }
    };
    // Clone the needed prologue ops in original order.
    for &op in prologue {
        if contains(prologue_keep, op) {
            f.clone_op_into(op, wg_block, &mut vmap);
        }
    }
    // Build the distributed loop.
    let lo = map_v(&vmap, info.lo);
    let hi = map_v(&vmap, info.hi);
    let step = map_v(&vmap, info.step);
    let mut operands = vec![lo, hi, step];
    let mut kept_args: Vec<usize> = Vec::new();
    for (i, &keep_arg) in arg_keep.iter().enumerate() {
        if keep_arg {
            operands.push(map_v(&vmap, info.inits[i]));
            kept_args.push(i);
        }
    }
    let result_types: Vec<Type> = kept_args
        .iter()
        .map(|&i| f.ty(info.iter_args[i]).clone())
        .collect();
    let for_op = f.push_op(
        wg_block,
        OpKind::For,
        operands,
        result_types.clone(),
        AttrMap::new(),
    );
    let (_, loop_block) = f.add_region(for_op);
    let iv = f.add_block_arg(loop_block, Type::i32());
    bind(&mut vmap, info.iv, iv);
    for (&i, ty) in kept_args.iter().zip(result_types.iter()) {
        let arg = f.add_block_arg(loop_block, ty.clone());
        bind(&mut vmap, info.iter_args[i], arg);
    }

    // Slot index: (iv - lo) / step mod D.
    let lo_in = map_v(&vmap, info.lo);
    let step_in = map_v(&vmap, info.step);
    let shifted = f.push_op(
        loop_block,
        OpKind::Sub,
        vec![iv, lo_in],
        vec![Type::i32()],
        AttrMap::new(),
    );
    let shifted_v = f.result(shifted);
    let normed = f.push_op(
        loop_block,
        OpKind::Div,
        vec![shifted_v, step_in],
        vec![Type::i32()],
        AttrMap::new(),
    );
    let normed_v = f.result(normed);
    let d_const = f.const_int(loop_block, depth, Type::i32());
    let slot_op = f.push_op(
        loop_block,
        OpKind::Rem,
        vec![normed_v, d_const],
        vec![Type::i32()],
        AttrMap::new(),
    );
    let slot = f.result(slot_op);
    f.set_name_hint(slot, "slot");

    // Consumer: emit `get`s and remap every original TmaLoad result to the
    // corresponding get result before cloning the tile statements.
    if is_consumer {
        for (aref, group) in aref_groups {
            let payload_types: Vec<Type> = match f.ty(*aref) {
                Type::Aref(_, p) => p.clone(),
                t => return Err(format!("aref {aref} has type {t}, not an aref")),
            };
            let get = f.push_op(
                loop_block,
                OpKind::ArefGet,
                vec![*aref, slot],
                payload_types,
                AttrMap::new(),
            );
            let got = f.results(get).to_vec();
            for (&load, &g) in group.iter().zip(got.iter()) {
                bind(&mut vmap, f.result(load), g);
            }
        }
    }

    // Clone the partition's body ops in order.
    for &op in body_ops {
        if keep(op, f) {
            f.clone_op_into(op, loop_block, &mut vmap);
        }
    }
    if is_consumer {
        for (aref, _) in aref_groups {
            f.push_op(
                loop_block,
                OpKind::ArefConsumed,
                vec![*aref, slot],
                vec![],
                AttrMap::new(),
            );
        }
    } else {
        for (aref, group) in aref_groups {
            let mut operands = vec![*aref, slot];
            for &load in group {
                let cloned = lookup(&vmap, f.result(load))
                    .ok_or_else(|| format!("load {load} was not cloned into the producer"))?;
                operands.push(cloned);
            }
            f.push_op(
                loop_block,
                OpKind::ArefPut,
                operands,
                vec![],
                AttrMap::new(),
            );
        }
    }

    // Yield the kept iteration values.
    let yields: Vec<ValueId> = kept_args
        .iter()
        .map(|&i| map_v(&vmap, info.yields[i]))
        .collect();
    f.push_op(loop_block, OpKind::Yield, yields, vec![], AttrMap::new());

    // Map original loop results to the distributed loop's results, then
    // clone the epilogue (consumer only).
    let new_results = f.results(for_op).to_vec();
    for (j, &i) in kept_args.iter().enumerate() {
        bind(&mut vmap, f.results(info.op)[i], new_results[j]);
    }
    for &op in epilogue {
        f.clone_op_into(op, wg_block, &mut vmap);
    }
    Ok(())
}

/// A dense op set over `n_ops` ids holding `ops`.
pub(crate) fn op_set(n_ops: usize, ops: &[OpId]) -> Vec<bool> {
    let mut set = vec![false; n_ops];
    for &op in ops {
        insert(&mut set, op);
    }
    set
}

/// Membership in a dense op set; an id past its end is absent.
pub(crate) fn contains(set: &[bool], op: OpId) -> bool {
    set.get(op.0 as usize).copied().unwrap_or(false)
}

/// Adds `op` to a dense op set; true if it was absent (and in range).
pub(crate) fn insert(set: &mut [bool], op: OpId) -> bool {
    match set.get_mut(op.0 as usize) {
        Some(member) if !*member => {
            *member = true;
            true
        }
        _ => false,
    }
}

/// Adds to `set` the ops of `domain` that `roots` reach backwards through
/// operands, the roots included; true if `set` grew. Without `loads` it
/// walks through the TMA loads but leaves them out (the consumer's side).
fn close(f: &Func, domain: &[bool], set: &mut [bool], roots: &[OpId], loads: bool) -> bool {
    let mut grew = false;
    let mut stack: Vec<OpId> = roots.to_vec();
    while let Some(op) = stack.pop() {
        if !contains(domain, op) {
            continue;
        }
        if loads || f.op(op).kind != OpKind::TmaLoad {
            if !insert(set, op) {
                continue;
            }
            grew = true;
        }
        stack.extend(f.op(op).operands.iter().filter_map(|&v| f.defining_op(v)));
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tawa_frontend::config::{AttentionConfig, GemmConfig};
    use tawa_frontend::kernels::{attention, gemm};
    use tawa_ir::types::DType;
    use tawa_ir::verify::verify_module;

    fn specialize(module: &mut Module, depth: usize) -> PartitionReport {
        let r = warp_specialize_func(&mut module.funcs[0], depth).expect("specialize");
        verify_module(module).unwrap_or_else(|e| {
            panic!(
                "post-partition IR invalid: {e:?}\n{}",
                tawa_ir::print::print_module(module)
            )
        });
        r
    }

    #[test]
    fn gemm_partitions_into_two_warp_groups() {
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        let report = specialize(&mut m, 2);
        let f = &m.funcs[0];
        let wgs: Vec<OpId> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::WarpGroup)
            .collect();
        assert_eq!(wgs.len(), 2);
        assert_eq!(f.op(wgs[0]).attrs.str("role"), Some("producer"));
        assert_eq!(f.op(wgs[1]).attrs.str("role"), Some("consumer"));
        // A and B feed the same dot: one aref, two payload tensors.
        assert_eq!(report.arefs, 1);
        assert_eq!(report.payload_tensors, 2);
    }

    #[test]
    fn gemm_producer_has_loads_consumer_has_dot() {
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        specialize(&mut m, 2);
        let f = &m.funcs[0];
        let wgs: Vec<OpId> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::WarpGroup)
            .collect();
        let kinds_in = |wg: OpId| {
            let mut kinds = Vec::new();
            f.walk_region(f.op(wg).regions[0], &mut |o| kinds.push(f.op(o).kind));
            kinds
        };
        let prod = kinds_in(wgs[0]);
        let cons = kinds_in(wgs[1]);
        assert!(prod.contains(&OpKind::TmaLoad));
        assert!(prod.contains(&OpKind::ArefPut));
        assert!(!prod.contains(&OpKind::Dot));
        assert!(!prod.contains(&OpKind::Store), "writes only in consumer");
        assert!(cons.contains(&OpKind::ArefGet));
        assert!(cons.contains(&OpKind::Dot));
        assert!(cons.contains(&OpKind::ArefConsumed));
        assert!(cons.contains(&OpKind::Store));
        assert!(!cons.contains(&OpKind::TmaLoad), "loop loads all via aref");
    }

    #[test]
    fn no_cross_partition_ssa_edges() {
        // The only values shared between warp groups must be the arefs and
        // function parameters / top-level constants defined before the WGs.
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        specialize(&mut m, 2);
        let f = &m.funcs[0];
        let wgs: Vec<OpId> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::WarpGroup)
            .collect();
        let mut defined_in: HashMap<ValueId, usize> = HashMap::new();
        for (i, &wg) in wgs.iter().enumerate() {
            f.walk_region(f.op(wg).regions[0], &mut |o| {
                for &r in f.results(o) {
                    defined_in.insert(r, i);
                }
            });
        }
        for (i, &wg) in wgs.iter().enumerate() {
            f.walk_region(f.op(wg).regions[0], &mut |o| {
                for &v in &f.op(o).operands {
                    if let Some(&owner) = defined_in.get(&v) {
                        assert_eq!(owner, i, "value {v} crosses partitions at {o:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn attention_gets_two_arefs() {
        let (mut m, _) = attention(&AttentionConfig::paper(1024, false, DType::F16)).into_parts();
        let report = specialize(&mut m, 2);
        // K feeds the first dot, V the second: separate arefs.
        assert_eq!(report.arefs, 2);
        assert_eq!(report.payload_tensors, 2);
        let f = &m.funcs[0];
        // Q's prologue load lands in the consumer warp group (synchronous).
        let wgs: Vec<OpId> = f
            .walk()
            .into_iter()
            .filter(|&o| f.op(o).kind == OpKind::WarpGroup)
            .collect();
        let mut consumer_loads = 0;
        f.walk_region(f.op(wgs[1]).regions[0], &mut |o| {
            if f.op(o).kind == OpKind::TmaLoad {
                consumer_loads += 1;
            }
        });
        assert_eq!(consumer_loads, 1, "Q load stays with the consumer");
    }

    #[test]
    fn causal_attention_duplicates_shared_offset() {
        let (mut m, _) = attention(&AttentionConfig::paper(1024, true, DType::F16)).into_parts();
        let report = specialize(&mut m, 2);
        // o_kv = j·Bc feeds both the loads (producer) and the mask
        // (consumer): it must be duplicated.
        assert!(
            report.duplicated_ops >= 1,
            "expected duplication, report: {report:?}"
        );
    }

    #[test]
    fn pass_runs_through_pass_manager() {
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        let mut pm = tawa_ir::pass::PassManager::new();
        pm.add(Box::new(WarpSpecialize { depth: 3 }));
        pm.run(&mut m).expect("pipeline");
        assert_eq!(m.funcs[0].attrs.int("aref_depth"), Some(3));
        assert_eq!(m.funcs[0].attrs.bool("warp_specialized"), Some(true));
    }

    #[test]
    fn depth_zero_rejected() {
        let (mut m, _) = gemm(&GemmConfig::new(512, 512, 256)).into_parts();
        assert!(warp_specialize_func(&mut m.funcs[0], 0).is_err());
    }

    #[test]
    fn kernel_without_loads_rejected() {
        let mut m = tawa_ir::parse::parse_module(
            "module {
               func @f() {
                 %0 = arith.const_int() {value = 3} : i32
               }
             }",
        )
        .unwrap();
        assert!(warp_specialize_func(&mut m.funcs[0], 2).is_err());
    }

    #[test]
    fn loop_without_a_region_is_an_error_not_a_panic() {
        let mut m = tawa_ir::parse::parse_module(
            "module {
               func @f() {
                 %0 = arith.const_int() {value = 0} : i32
                 scf.for(%0, %0, %0)
               }
             }",
        )
        .unwrap();
        assert!(warp_specialize_func(&mut m.funcs[0], 2).is_err());
    }
}
