//! IR analyses used by the Tawa passes: loop structure queries and a
//! generic worklist dataflow framework. (The backward traversal from the
//! side-effecting sinks that the paper's task-aware partitioning starts
//! with, §III-C, is the partition pass's own closure.)
//!
//! The dataflow layer ([`DataflowAnalysis`] + [`run_dataflow`]) runs
//! forward or backward monotone analyses over the structured op tree,
//! with `scf.for` bodies iterated to a fixpoint across the back edge and
//! `tawa.warp_group` sibling partitions joined to a common fixpoint (they
//! run in parallel and exchange tiles through aref channels). [`Liveness`]
//! and [`ReachingDefs`] are the two instances the static performance
//! analyzer (`tawa_wsir::analyze::perf`) builds its IR-level lints on.
//! All results are keyed by [`OpId`], so source locations survive:
//! `f.loc(op)` maps any finding back to the DSL line that produced it.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::func::Func;
use crate::op::{BlockId, OpClass, OpId, OpKind, ValueId};

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

/// Returns ops of `f`'s body block in order (no recursion into regions).
pub fn body_ops(f: &Func) -> Vec<OpId> {
    f.block(f.body_block()).ops.clone()
}

// ---- generic dataflow framework --------------------------------------------

/// Traversal direction of a [`DataflowAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from function entry toward the end (reaching definitions).
    Forward,
    /// Facts flow from the end toward the entry (liveness).
    Backward,
}

/// A monotone dataflow problem over the structured op tree of a [`Func`].
///
/// [`run_dataflow`] walks blocks in execution order (or reverse), applies
/// [`DataflowAnalysis::transfer`] per op, and handles the two region ops of
/// the tile dialect structurally: `scf.for` bodies iterate to a fixpoint
/// with loop-carried values renamed across the back edge
/// ([`DataflowAnalysis::substitute`]), and `tawa.warp_group` sibling
/// partitions — which execute in parallel and exchange tiles through aref
/// channels — are joined to a common fixpoint so facts established in one
/// partition reach its siblings.
///
/// Facts must form a join-semilattice of finite height: `join` reports
/// whether anything changed and the runner iterates until nothing does.
pub trait DataflowAnalysis {
    /// Lattice element attached to every program point.
    type Fact: Clone;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: function entry for forward analyses,
    /// function exit for backward ones.
    fn boundary(&self, f: &Func) -> Self::Fact;

    /// Joins `other` into `into`, returning `true` if `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Applies the effect of `op` to `fact` (in the analysis direction:
    /// backward transfers see the *after* fact and produce the *before*).
    fn transfer(&self, f: &Func, op: OpId, fact: &mut Self::Fact);

    /// Renames values across a region boundary: every occurrence of
    /// `from[i]` becomes `to[i]`; a `from[i]` with no counterpart in `to`
    /// is dropped. The default keeps the fact unchanged, which is correct
    /// for analyses whose facts never mention loop-carried values.
    fn substitute(&self, _fact: &mut Self::Fact, _from: &[ValueId], _to: &[ValueId]) {}
}

/// Per-op facts computed by [`run_dataflow`].
///
/// `before` and `after` are in *execution* order regardless of the analysis
/// direction: `before[op]` is the fact at the program point immediately
/// preceding `op`. Keys are [`OpId`]s, so [`Func::loc`] recovers the source
/// span of any op a finding points at.
#[derive(Debug)]
pub struct DataflowResults<F> {
    /// Fact immediately before each op (execution order).
    pub before: HashMap<OpId, F>,
    /// Fact immediately after each op (execution order).
    pub after: HashMap<OpId, F>,
}

/// Fixpoint iteration cap for loop and warp-group bodies. Set lattices over
/// a function's values converge in a handful of passes; the cap only bounds
/// a hypothetical non-monotone instance.
const MAX_FIXPOINT_ITERS: usize = 64;

/// Runs `analysis` over the body of `f` to a fixpoint.
pub fn run_dataflow<A: DataflowAnalysis>(f: &Func, analysis: &A) -> DataflowResults<A::Fact> {
    let mut results = DataflowResults {
        before: HashMap::new(),
        after: HashMap::new(),
    };
    let entry = f.body_block();
    let boundary = analysis.boundary(f);
    match analysis.direction() {
        Direction::Forward => {
            flow_forward(f, analysis, entry, boundary, &mut results);
        }
        Direction::Backward => {
            flow_backward(f, analysis, entry, boundary, &mut results);
        }
    }
    results
}

/// The structural pieces of an `scf.for` the runner renames across region
/// boundaries. `None` for malformed loops, which are then treated as opaque.
struct ForParts {
    inits: Vec<ValueId>,
    iv: ValueId,
    iter_args: Vec<ValueId>,
    yields: Vec<ValueId>,
    results: Vec<ValueId>,
    body: BlockId,
}

fn for_parts(f: &Func, op: OpId) -> Option<ForParts> {
    let data = f.op(op);
    let region = *data.regions.first()?;
    let body = *f.region(region).blocks.first()?;
    let args = f.block(body).args.clone();
    let (&yield_op, _) = f.block(body).ops.split_last()?;
    if f.op(yield_op).kind != OpKind::Yield {
        return None;
    }
    Some(ForParts {
        inits: data.operands.get(3..).unwrap_or(&[]).to_vec(),
        iv: *args.first()?,
        iter_args: args.get(1..).unwrap_or(&[]).to_vec(),
        yields: f.op(yield_op).operands.clone(),
        results: data.results.clone(),
        body,
    })
}

fn flow_forward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    block: BlockId,
    entry: A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    let mut fact = entry;
    for &op in &f.block(block).ops.clone() {
        if f.op(op).dead {
            continue;
        }
        results.before.insert(op, fact.clone());
        let after = match f.op(op).kind {
            OpKind::For => flow_for_forward(f, a, op, &fact, results),
            OpKind::WarpGroup => flow_wg_forward(f, a, op, &fact, results),
            _ => {
                let mut t = fact.clone();
                a.transfer(f, op, &mut t);
                t
            }
        };
        results.after.insert(op, after.clone());
        fact = after;
    }
    fact
}

fn flow_for_forward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    op: OpId,
    fact: &A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    let Some(p) = for_parts(f, op) else {
        let mut t = fact.clone();
        a.transfer(f, op, &mut t);
        return t;
    };
    let mut entry = fact.clone();
    a.substitute(&mut entry, &p.inits, &p.iter_args);
    let mut exit = entry.clone();
    for _ in 0..MAX_FIXPOINT_ITERS {
        exit = flow_forward(f, a, p.body, entry.clone(), results);
        let mut back = exit.clone();
        a.substitute(&mut back, &p.yields, &p.iter_args);
        a.substitute(&mut back, &[p.iv], &[]);
        if !a.join(&mut entry, &back) {
            break;
        }
    }
    // After the loop: its own effect, joined with the body exit (the
    // incoming fact stays joined in for the zero-trip path).
    let mut after = fact.clone();
    a.transfer(f, op, &mut after);
    let mut out = exit;
    a.substitute(&mut out, &p.yields, &p.results);
    a.substitute(&mut out, &[p.iv], &[]);
    a.join(&mut after, &out);
    after
}

fn flow_wg_forward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    op: OpId,
    fact: &A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    let regions = f.op(op).regions.clone();
    let mut joined = fact.clone();
    for _ in 0..MAX_FIXPOINT_ITERS {
        let mut next = joined.clone();
        let mut changed = false;
        for &r in &regions {
            if f.region(r).blocks.is_empty() {
                continue;
            }
            let out = flow_forward(f, a, f.entry_block(r), joined.clone(), results);
            changed |= a.join(&mut next, &out);
        }
        joined = next;
        if !changed {
            break;
        }
    }
    a.transfer(f, op, &mut joined);
    joined
}

fn flow_backward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    block: BlockId,
    exit: A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    let mut fact = exit;
    for &op in f.block(block).ops.clone().iter().rev() {
        if f.op(op).dead {
            continue;
        }
        results.after.insert(op, fact.clone());
        let before = match f.op(op).kind {
            OpKind::For => flow_for_backward(f, a, op, &fact, results),
            OpKind::WarpGroup => flow_wg_backward(f, a, op, &fact, results),
            _ => {
                let mut t = fact.clone();
                a.transfer(f, op, &mut t);
                t
            }
        };
        results.before.insert(op, before.clone());
        fact = before;
    }
    fact
}

fn flow_for_backward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    op: OpId,
    fact: &A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    let Some(p) = for_parts(f, op) else {
        let mut t = fact.clone();
        a.transfer(f, op, &mut t);
        return t;
    };
    // Loop results observed downstream map onto the yielded values at the
    // body's exit point.
    let mut body_exit = fact.clone();
    a.substitute(&mut body_exit, &p.results, &p.yields);
    let mut head = body_exit.clone();
    for _ in 0..MAX_FIXPOINT_ITERS {
        head = flow_backward(f, a, p.body, body_exit.clone(), results);
        let mut back = head.clone();
        a.substitute(&mut back, &p.iter_args, &p.yields);
        a.substitute(&mut back, &[p.iv], &[]);
        if !a.join(&mut body_exit, &back) {
            break;
        }
    }
    // Before the loop: its own effect (computed against the after fact,
    // where the loop results are still visible), minus the values the loop
    // defines, plus the body head with iter args renamed to inits.
    let mut before = fact.clone();
    a.transfer(f, op, &mut before);
    a.substitute(&mut before, &p.results, &[]);
    let mut pre = head;
    a.substitute(&mut pre, &p.iter_args, &p.inits);
    a.substitute(&mut pre, &[p.iv], &[]);
    a.join(&mut before, &pre);
    before
}

fn flow_wg_backward<A: DataflowAnalysis>(
    f: &Func,
    a: &A,
    op: OpId,
    fact: &A::Fact,
    results: &mut DataflowResults<A::Fact>,
) -> A::Fact {
    // Parallel partitions: each region's exit sees the after fact; their
    // heads join into the before fact. SSA scoping keeps sibling values
    // out of each other's facts, so one pass per region suffices.
    let regions = f.op(op).regions.clone();
    let mut before = fact.clone();
    a.transfer(f, op, &mut before);
    for &r in &regions {
        if f.region(r).blocks.is_empty() {
            continue;
        }
        let head = flow_backward(f, a, f.entry_block(r), fact.clone(), results);
        a.join(&mut before, &head);
    }
    before
}

// ---- liveness ---------------------------------------------------------------

/// Backward liveness over a function: which SSA values may still be needed
/// at each program point.
///
/// An op *generates* its operands when it is a root (a side-effecting sink
/// that must execute — see [`Liveness::is_root`]) or when any of its
/// results is live downstream. Pure ops whose results are never consumed
/// contribute nothing, so whole dead computation chains — including loops
/// whose carried accumulators feed no sink — stay dead. This is the
/// property the `dead-compute` perf lint keys on; [`dead_result_ops`]
/// packages the query.
pub struct Liveness {
    roots: HashSet<OpId>,
}

/// Sink ops that anchor liveness: they must execute for the kernel to have
/// its effect. `scf.yield` is deliberately absent — yielded values are
/// renamed across the loop boundary by the runner and become live only when
/// the corresponding loop result (or a carried use) is. The sinks are the
/// `Write` class plus `tawa.get`, whose slot acquisition keeps the aref
/// ring in step even when its payload is dead.
fn is_liveness_sink(kind: OpKind) -> bool {
    kind.class() == OpClass::Write || kind == OpKind::ArefGet
}

impl Liveness {
    /// Prepares liveness over `f`, precomputing the root set: sink ops plus
    /// every region op transitively containing one (the region must run for
    /// its sinks to run).
    pub fn new(f: &Func) -> Liveness {
        let mut roots = HashSet::new();
        for op in f.walk() {
            if !is_liveness_sink(f.op(op).kind) {
                continue;
            }
            roots.insert(op);
            let mut block = f.op(op).parent;
            while let Some(b) = block {
                let Some(region) = f.block(b).parent else {
                    break;
                };
                let Some(parent_op) = f.region(region).parent_op else {
                    break;
                };
                roots.insert(parent_op);
                block = f.op(parent_op).parent;
            }
        }
        Liveness { roots }
    }

    /// True if `op` anchors liveness by itself (a sink, or a region op
    /// containing one).
    pub fn is_root(&self, op: OpId) -> bool {
        self.roots.contains(&op)
    }
}

impl DataflowAnalysis for Liveness {
    type Fact = HashSet<ValueId>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, _f: &Func) -> Self::Fact {
        HashSet::new()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        let before = into.len();
        into.extend(other.iter().copied());
        into.len() != before
    }

    fn transfer(&self, f: &Func, op: OpId, fact: &mut Self::Fact) {
        let data = f.op(op);
        if data.kind == OpKind::Yield {
            return; // handled by the runner's region renaming
        }
        if self.roots.contains(&op) || data.results.iter().any(|r| fact.contains(r)) {
            fact.extend(data.operands.iter().copied());
        }
        for r in &data.results {
            fact.remove(r);
        }
    }

    fn substitute(&self, fact: &mut Self::Fact, from: &[ValueId], to: &[ValueId]) {
        let present: Vec<usize> = (0..from.len())
            .filter(|&i| fact.contains(&from[i]))
            .collect();
        for v in from {
            fact.remove(v);
        }
        for i in present {
            if let Some(&t) = to.get(i) {
                fact.insert(t);
            }
        }
    }
}

/// Ops computing values nothing ever needs: not a liveness root, at least
/// one result, and no result live immediately after the op. Detection is
/// transitive — an op feeding only dead ops is itself dead. Returned in
/// pre-order; pair with [`Func::loc`] for source spans.
pub fn dead_result_ops(f: &Func) -> Vec<OpId> {
    let liveness = Liveness::new(f);
    let results = run_dataflow(f, &liveness);
    f.walk()
        .into_iter()
        .filter(|&op| {
            let data = f.op(op);
            !liveness.is_root(op)
                && data.kind != OpKind::Yield
                && !data.results.is_empty()
                && results
                    .after
                    .get(&op)
                    .is_none_or(|fact| data.results.iter().all(|r| !fact.contains(r)))
        })
        .collect()
}

// ---- reaching definitions ---------------------------------------------------

/// Forward may-analysis mapping storage *handles* (aref rings, pointers) to
/// the set of write ops that may have executed before each program point.
///
/// Two hooks shape an instance: `decls` introduces a tracked handle with an
/// empty definition set, `writes` records a definition through one. A read
/// whose handle maps to the empty set is provably uninitialized on every
/// path — the `uninitialized-tile-read` perf lint. Loop back edges and
/// parallel warp-group siblings count as reaching (the runner's fixpoints),
/// so the verdict is conservative: no false positives from pipelined
/// producers that fill a slot in a different partition or iteration.
pub struct ReachingDefs {
    decls: fn(&Func, OpId) -> Option<ValueId>,
    writes: fn(&Func, OpId) -> Option<ValueId>,
}

impl ReachingDefs {
    /// Builds an instance from the two hooks.
    pub fn new(
        decls: fn(&Func, OpId) -> Option<ValueId>,
        writes: fn(&Func, OpId) -> Option<ValueId>,
    ) -> ReachingDefs {
        ReachingDefs { decls, writes }
    }

    /// Tracks aref rings: `tawa.create_aref` declares a handle,
    /// `tawa.put` writes a slot through it.
    pub fn aref_slots() -> ReachingDefs {
        ReachingDefs::new(
            |f, op| {
                (f.op(op).kind == OpKind::CreateAref)
                    .then(|| f.results(op).first().copied())
                    .flatten()
            },
            |f, op| {
                (f.op(op).kind == OpKind::ArefPut)
                    .then(|| f.op(op).operands.first().copied())
                    .flatten()
            },
        )
    }
}

impl DataflowAnalysis for ReachingDefs {
    type Fact = BTreeMap<ValueId, BTreeSet<OpId>>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _f: &Func) -> Self::Fact {
        BTreeMap::new()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        let mut changed = false;
        for (handle, defs) in other {
            let entry = into.entry(*handle).or_insert_with(|| {
                changed = true;
                BTreeSet::new()
            });
            for &d in defs {
                changed |= entry.insert(d);
            }
        }
        changed
    }

    fn transfer(&self, f: &Func, op: OpId, fact: &mut Self::Fact) {
        if let Some(handle) = (self.decls)(f, op) {
            fact.entry(handle).or_default();
        }
        if let Some(handle) = (self.writes)(f, op) {
            fact.entry(handle).or_default().insert(op);
        }
    }

    fn substitute(&self, fact: &mut Self::Fact, from: &[ValueId], to: &[ValueId]) {
        for (i, v) in from.iter().enumerate() {
            if let Some(defs) = fact.remove(v) {
                if let Some(&t) = to.get(i) {
                    fact.entry(t).or_default().extend(defs);
                }
            }
        }
    }
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

    /// The result of `f`'s first top-level op: the aref handle in the
    /// reaching-definition tests.
    fn first_value(f: &Func) -> ValueId {
        f.result(f.block(f.body_block()).ops[0])
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
        // the put must reach the get through the parallel-region fixpoint.
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
        let aref = first_value(&f);
        let analysis = ReachingDefs::aref_slots();
        let results = run_dataflow(&f, &analysis);
        let get_op = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::ArefGet)
            .unwrap();
        let before = &results.before[&get_op];
        assert_eq!(
            before.get(&aref).map(|d| d.len()),
            Some(1),
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
        let aref = first_value(&f);
        let results = run_dataflow(&f, &ReachingDefs::aref_slots());
        let get_op = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::ArefGet)
            .unwrap();
        // Straight-line get before any put: tracked handle, zero defs.
        assert_eq!(results.before[&get_op].get(&aref).map(|d| d.len()), Some(0));
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
        let aref = first_value(&f);
        let results = run_dataflow(&f, &ReachingDefs::aref_slots());
        let get_op = f
            .walk()
            .into_iter()
            .find(|&o| f.op(o).kind == OpKind::ArefGet)
            .unwrap();
        assert_eq!(
            results.before[&get_op].get(&aref).map(|d| d.len()),
            Some(1),
            "back-edge put must reach the get"
        );
    }
}
