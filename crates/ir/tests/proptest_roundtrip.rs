//! Property tests: random well-typed modules, built op by op through
//! `Func::push_op` with explicit result types, must verify, print, re-parse
//! and re-print to a fixpoint, preserving structure; the streamed module
//! hash must equal the hash of the printed text; and the cleanup passes
//! must report `changed` exactly.

use proptest::prelude::*;

use tawa_ir::fingerprint::{fnv1a, module_fingerprint};
use tawa_ir::func::{Func, Module};
use tawa_ir::op::{Attr, AttrMap, BlockId, CmpPred, OpKind, ValueId};
use tawa_ir::parse::parse_module;
use tawa_ir::pass::Pass;
use tawa_ir::print::print_module;
use tawa_ir::transforms::{ConstFold, Dce};
use tawa_ir::types::{DType, Type};
use tawa_ir::verify::verify_module;

/// A recipe for one random op, interpreted against the current stack of
/// available i32 values.
#[derive(Debug, Clone)]
enum Step {
    Const(i64),
    Bin(u8, usize, usize),
    Cmp(u8, usize, usize),
    Loop(u8, Vec<Step>),
    Arange(u8),
    SplatAndReduce(usize, u8),
}

fn step_strategy(depth: u32) -> impl Strategy<Value = Step> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Step::Const),
        (0u8..7, 0usize..8, 0usize..8).prop_map(|(k, a, b)| Step::Bin(k, a, b)),
        (0u8..6, 0usize..8, 0usize..8).prop_map(|(k, a, b)| Step::Cmp(k, a, b)),
        (1u8..64).prop_map(Step::Arange),
        (0usize..8, 1u8..16).prop_map(|(v, n)| Step::SplatAndReduce(v, n)),
    ];
    leaf.prop_recursive(depth, 24, 6, |inner| {
        (1u8..5, prop::collection::vec(inner, 1..4)).prop_map(|(trip, body)| Step::Loop(trip, body))
    })
}

/// Appends a one-result op to `block`.
fn emit(
    f: &mut Func,
    block: BlockId,
    kind: OpKind,
    operands: Vec<ValueId>,
    ty: Type,
    attrs: AttrMap,
) -> ValueId {
    let op = f.push_op(block, kind, operands, vec![ty], attrs);
    f.result(op)
}

fn attr(key: &str, value: i64) -> AttrMap {
    let mut attrs = AttrMap::new();
    attrs.set(key, Attr::Int(value));
    attrs
}

/// Reduces a rank-1 `i32` tile to a rank-0 one (the result is unused;
/// the step pushes a constant instead, to keep the stack scalar).
fn reduce(f: &mut Func, block: BlockId, kind: OpKind, tile: ValueId) {
    let rank0 = Type::tensor(Vec::<usize>::new(), DType::I32);
    emit(f, block, kind, vec![tile], rank0, attr("axis", 0));
}

fn apply_steps(f: &mut Func, block: BlockId, stack: &mut Vec<ValueId>, steps: &[Step]) {
    for s in steps {
        match s {
            Step::Const(v) => stack.push(f.const_int(block, *v, Type::i32())),
            Step::Bin(k, ia, ib) => {
                let a = stack[ia % stack.len()];
                let c = stack[ib % stack.len()];
                let kind = [
                    OpKind::Add,
                    OpKind::Sub,
                    OpKind::Mul,
                    OpKind::Min,
                    OpKind::Max,
                    OpKind::Div,
                    OpKind::Rem,
                ][*k as usize % 7];
                stack.push(emit(
                    f,
                    block,
                    kind,
                    vec![a, c],
                    Type::i32(),
                    AttrMap::new(),
                ));
            }
            Step::Cmp(k, ia, ib) => {
                let a = stack[ia % stack.len()];
                let c = stack[ib % stack.len()];
                let pred = [
                    CmpPred::Lt,
                    CmpPred::Le,
                    CmpPred::Gt,
                    CmpPred::Ge,
                    CmpPred::Eq,
                    CmpPred::Ne,
                ][*k as usize % 6];
                let mut attrs = AttrMap::new();
                attrs.set("pred", Attr::Str(pred.name().into()));
                let cond = emit(f, block, OpKind::Cmp, vec![a, c], Type::bool(), attrs);
                let r = emit(
                    f,
                    block,
                    OpKind::Select,
                    vec![cond, a, c],
                    Type::i32(),
                    AttrMap::new(),
                );
                stack.push(r);
            }
            Step::Loop(trip, body) => {
                let lo = f.const_int(block, 0, Type::i32());
                let hi = f.const_int(block, *trip as i64, Type::i32());
                let st = f.const_int(block, 1, Type::i32());
                let init = *stack.last().expect("stack nonempty");
                let for_op = f.push_op(
                    block,
                    OpKind::For,
                    vec![lo, hi, st, init],
                    vec![Type::i32()],
                    AttrMap::new(),
                );
                let (_, body_block) = f.add_region(for_op);
                let iv = f.add_block_arg(body_block, Type::i32());
                let iter = f.add_block_arg(body_block, Type::i32());
                let mut inner_stack = vec![iv, iter];
                apply_steps(f, body_block, &mut inner_stack, body);
                // Every step leaves an i32 on top, so the yield type-checks.
                let out = *inner_stack.last().unwrap();
                f.push_op(body_block, OpKind::Yield, vec![out], vec![], AttrMap::new());
                stack.push(f.result(for_op));
            }
            Step::Arange(n) => {
                let mut attrs = attr("start", 0);
                attrs.set("end", Attr::Int(*n as i64));
                let ty = Type::tensor(vec![*n as usize], DType::I32);
                let t = emit(f, block, OpKind::Arange, vec![], ty, attrs);
                reduce(f, block, OpKind::ReduceSum, t);
                stack.push(f.const_int(block, *n as i64, Type::i32()));
            }
            Step::SplatAndReduce(v, n) => {
                let s = stack[v % stack.len()];
                let ty = Type::tensor(vec![*n as usize], DType::I32);
                let t = emit(f, block, OpKind::Splat, vec![s], ty, AttrMap::new());
                reduce(f, block, OpKind::ReduceMax, t);
                stack.push(f.const_int(block, *n as i64, Type::i32()));
            }
        }
    }
}

fn build_random_module(steps: &[Step], attrs: &[(String, i64)]) -> Module {
    let mut f = Func::new("rand_kernel", &[Type::i32(), Type::i32()]);
    let mut stack = f.params().to_vec();
    let body = f.body_block();
    apply_steps(&mut f, body, &mut stack, steps);
    let mut m = Module::new();
    for (k, v) in attrs {
        m.attrs.set(k, Attr::Int(*v));
    }
    m.add_func(f);
    m
}

/// The printer as it was before it became generic over `fmt::Write` —
/// kept verbatim (it built one `String`, cloning every value name) as the
/// byte-for-byte reference for the streaming one.
mod reference {
    use std::fmt::Write as _;

    use tawa_ir::func::{Func, Module};
    use tawa_ir::op::{AttrMap, BlockId, OpId, RegionId, ValueId};

    pub fn print_module(m: &Module) -> String {
        let mut out = String::new();
        if m.attrs.is_empty() {
            out.push_str("module {\n");
        } else {
            let _ = writeln!(out, "module attributes {} {{", fmt_attrs(&m.attrs));
        }
        for f in &m.funcs {
            print_func_into(f, 1, &mut out);
        }
        out.push_str("}\n");
        out
    }

    struct Namer<'f> {
        func: &'f Func,
        names: Vec<Option<String>>,
        used: std::collections::HashSet<String>,
        next: usize,
    }

    impl<'f> Namer<'f> {
        fn new(func: &'f Func) -> Namer<'f> {
            Namer {
                func,
                names: vec![None; func.num_values()],
                used: std::collections::HashSet::new(),
                next: 0,
            }
        }

        fn name(&mut self, v: ValueId) -> String {
            if let Some(n) = &self.names[v.0 as usize] {
                return n.clone();
            }
            let base = self.func.value(v).name_hint.clone();
            let name = match base {
                Some(hint) if !self.used.contains(&hint) => hint,
                Some(hint) => {
                    let mut i = 1;
                    loop {
                        let cand = format!("{hint}_{i}");
                        if !self.used.contains(&cand) {
                            break cand;
                        }
                        i += 1;
                    }
                }
                None => loop {
                    let cand = format!("{}", self.next);
                    self.next += 1;
                    if !self.used.contains(&cand) {
                        break cand;
                    }
                },
            };
            self.used.insert(name.clone());
            self.names[v.0 as usize] = Some(name.clone());
            name
        }
    }

    fn fmt_attrs(attrs: &AttrMap) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{k} = {v}");
        }
        s.push('}');
        s
    }

    fn print_func_into(f: &Func, indent: usize, out: &mut String) {
        let mut namer = Namer::new(f);
        let pad = "  ".repeat(indent);
        let _ = write!(out, "{pad}func @{}(", f.name);
        let params = f.params().to_vec();
        for (i, &p) in params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Default param names: arg0, arg1, ... unless hinted.
            if f.value(p).name_hint.is_none() {
                let n = format!("arg{i}");
                namer.used.insert(n.clone());
                namer.names[p.0 as usize] = Some(n);
            }
            let _ = write!(out, "%{}: {}", namer.name(p), f.ty(p));
        }
        out.push(')');
        if !f.attrs.is_empty() {
            let _ = write!(out, " attributes {}", fmt_attrs(&f.attrs));
        }
        out.push_str(" {\n");
        print_block_ops(f, f.body_block(), indent + 1, &mut namer, out);
        let _ = writeln!(out, "{pad}}}");
    }

    fn print_block_ops(
        f: &Func,
        block: BlockId,
        indent: usize,
        namer: &mut Namer<'_>,
        out: &mut String,
    ) {
        for &op in &f.block(block).ops {
            if f.op(op).dead {
                continue;
            }
            print_op(f, op, indent, namer, out);
        }
    }

    fn print_region(
        f: &Func,
        region: RegionId,
        indent: usize,
        namer: &mut Namer<'_>,
        out: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        out.push_str(" {\n");
        for &block in &f.region(region).blocks {
            let _ = write!(out, "{pad}  ^bb(");
            for (i, &a) in f.block(block).args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "%{}: {}", namer.name(a), f.ty(a));
            }
            out.push_str("):\n");
            print_block_ops(f, block, indent + 2, namer, out);
        }
        let _ = write!(out, "{pad}}}");
    }

    fn print_op(f: &Func, op: OpId, indent: usize, namer: &mut Namer<'_>, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&pad);
        let data = f.op(op);
        if !data.results.is_empty() {
            for (i, &r) in data.results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "%{}", namer.name(r));
            }
            out.push_str(" = ");
        }
        let _ = write!(out, "{}(", data.kind);
        for (i, &o) in data.operands.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "%{}", namer.name(o));
        }
        out.push(')');
        if !data.attrs.is_empty() {
            let _ = write!(out, " {}", fmt_attrs(&data.attrs));
        }
        if !data.results.is_empty() {
            out.push_str(" : ");
            if data.results.len() == 1 {
                let _ = write!(out, "{}", f.ty(data.results[0]));
            } else {
                out.push('(');
                for (i, &r) in data.results.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}", f.ty(r));
                }
                out.push(')');
            }
        }
        for &region in &data.regions {
            print_region(f, region, indent, namer, out);
        }
        out.push('\n');
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_modules_verify(steps in prop::collection::vec(step_strategy(2), 1..24)) {
        let m = build_random_module(&steps, &[]);
        prop_assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn print_parse_print_fixpoint(
        steps in prop::collection::vec(step_strategy(2), 1..24),
        attr in 0i64..100,
    ) {
        let m = build_random_module(&steps, &[("num_warps".to_string(), attr)]);
        let s1 = print_module(&m);
        let reparsed = parse_module(&s1).expect("reparse printed IR");
        let s2 = print_module(&reparsed);
        prop_assert_eq!(&s1, &s2);
        // Parsed module must also verify and preserve op count.
        prop_assert!(verify_module(&reparsed).is_ok());
        prop_assert_eq!(m.funcs[0].walk().len(), reparsed.funcs[0].walk().len());
    }

    #[test]
    fn streamed_hash_and_generic_printer_match_the_buffered_original(
        steps in prop::collection::vec(step_strategy(2), 1..24),
        attr in 0i64..100,
        hints in prop::collection::vec((0usize..256, 0usize..4), 0..6),
    ) {
        let mut m = build_random_module(&steps, &[("num_warps".to_string(), attr)]);
        // Hints that collide with each other, with the automatic numbering
        // and with the default parameter names.
        let f = &mut m.funcs[0];
        for (v, h) in hints {
            let v = ValueId((v % f.num_values()) as u32);
            f.set_name_hint(v, ["acc", "0", "7", "arg1"][h]);
        }
        // The re-parsed module carries a hint on every value.
        let reparsed = parse_module(&print_module(&m)).expect("reparse printed IR");
        for m in [&m, &reparsed] {
            let text = print_module(m);
            prop_assert_eq!(&text, &reference::print_module(m));
            prop_assert_eq!(module_fingerprint(m), fnv1a(text.as_bytes()));
        }
    }

    #[test]
    fn cleanup_passes_report_changed_exactly(
        steps in prop::collection::vec(step_strategy(2), 1..24),
    ) {
        let mut m = build_random_module(&steps, &[]);
        let mut fp = module_fingerprint(&m);
        let passes: [&dyn Pass; 4] = [&ConstFold, &Dce, &ConstFold, &Dce];
        for pass in passes {
            let reported = pass.run(&mut m).expect("cleanup passes never fail");
            let after = module_fingerprint(&m);
            prop_assert_eq!(reported, after != fp, "{}", pass.name());
            fp = after;
        }
    }

    #[test]
    fn parse_rejects_mutations(
        steps in prop::collection::vec(step_strategy(1), 1..8),
        cut in 10usize..60,
    ) {
        // Truncating a printed module mid-stream must never panic, only error.
        let m = build_random_module(&steps, &[]);
        let s = print_module(&m);
        if cut < s.len() {
            let truncated = &s[..cut];
            let _ = parse_module(truncated); // must not panic
        }
    }
}

#[test]
fn dce_preserves_semantics_of_stores() {
    // A deterministic sanity companion to the random tests: DCE on a module
    // with only dead ops empties it; the printer then emits a empty func.
    let m = build_random_module(&[Step::Const(5), Step::Bin(0, 0, 1)], &[]);
    let mut m2 = m.clone();
    for f in &mut m2.funcs {
        tawa_ir::transforms::run_dce(f);
    }
    assert_eq!(m2.funcs[0].walk().len(), 0);
    assert!(verify_module(&m2).is_ok());
}
