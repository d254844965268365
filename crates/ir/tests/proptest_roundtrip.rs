//! Property tests: random well-typed modules must verify, print, re-parse
//! and re-print to a fixpoint, preserving structure; the streamed module
//! hash must equal the hash of the printed text; and the cleanup passes
//! must report `changed` exactly.

use proptest::prelude::*;

use tawa_ir::builder::Builder;
use tawa_ir::fingerprint::{fnv1a, module_fingerprint};
use tawa_ir::func::{Func, Module};
use tawa_ir::op::{Attr, CmpPred, ValueId};
use tawa_ir::parse::parse_module;
use tawa_ir::pass::Pass;
use tawa_ir::print::print_module;
use tawa_ir::transforms::{ConstFold, Dce};
use tawa_ir::types::Type;
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

fn apply_steps(b: &mut Builder<'_>, stack: &mut Vec<tawa_ir::ValueId>, steps: &[Step]) {
    for s in steps {
        match s {
            Step::Const(v) => stack.push(b.const_i32(*v)),
            Step::Bin(k, ia, ib) => {
                let a = stack[ia % stack.len()];
                let c = stack[ib % stack.len()];
                let r = match k % 7 {
                    0 => b.add(a, c),
                    1 => b.sub(a, c),
                    2 => b.mul(a, c),
                    3 => b.min(a, c),
                    4 => b.max(a, c),
                    5 => b.div(a, c),
                    _ => b.rem(a, c),
                };
                stack.push(r);
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
                let cond = b.cmp(pred, a, c);
                let r = b.select(cond, a, c);
                stack.push(r);
            }
            Step::Loop(trip, body) => {
                let lo = b.const_i32(0);
                let hi = b.const_i32(*trip as i64);
                let st = b.const_i32(1);
                let init = *stack.last().expect("stack nonempty");
                let res = b.for_loop(lo, hi, st, &[init], |b, iv, iters| {
                    let mut inner_stack = vec![iv, iters[0]];
                    apply_steps(b, &mut inner_stack, body);
                    let out = *inner_stack.last().unwrap();
                    // Ensure the yielded value is i32 (all our steps produce i32).
                    vec![out]
                });
                stack.push(res[0]);
            }
            Step::Arange(n) => {
                let t = b.arange(0, *n as i64);
                let r = b.reduce_sum(t, 0);
                // reduce of rank-1 gives rank-0 tensor; keep scalar land by
                // pushing a const instead to avoid mixing types.
                let _ = r;
                stack.push(b.const_i32(*n as i64));
            }
            Step::SplatAndReduce(v, n) => {
                let s = stack[v % stack.len()];
                let t = b.splat(s, vec![*n as usize]);
                let red = b.reduce_max(t, 0);
                let _ = red;
                stack.push(b.const_i32(*n as i64));
            }
        }
    }
}

fn build_random_module(steps: &[Step], attrs: &[(String, i64)]) -> Module {
    let mut f = Func::new("rand_kernel", &[Type::i32(), Type::i32()]);
    let params = f.params().to_vec();
    {
        let mut b = Builder::at_body(&mut f);
        let mut stack = params;
        apply_steps(&mut b, &mut stack, steps);
    }
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
