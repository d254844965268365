//! Textual IR printer.
//!
//! The format is a uniform, parse-friendly MLIR flavour:
//!
//! ```text
//! module attributes {num_warps = 8} {
//!   func @matmul(%arg0: desc<f16>, %arg1: desc<f16>) {
//!     %0 = arith.const_int() {value = 0} : i32
//!     %1 = tile.tma_load(%arg0, %0, %0) : tensor<128x64xf16>
//!     %2 = scf.for(%0, %hi, %step, %init) : i32 {
//!       ^bb(%iv: i32, %acc: i32):
//!         %3 = arith.add(%acc, %iv) : i32
//!         scf.yield(%3)
//!     }
//!   }
//! }
//! ```
//!
//! Every op prints as `results = mnemonic(operands) {attrs} : types` followed
//! by brace-delimited regions. [`crate::parse`] accepts exactly this format;
//! `print → parse → print` is a fixpoint (covered by property tests).

use std::fmt::{self, Write};

use crate::func::{Func, Module};
use crate::op::{AttrMap, BlockId, OpId, RegionId, ValueId};

/// Pretty-prints a module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = write_module(m, &mut out);
    out
}

/// Pretty-prints a single function (without a module wrapper).
pub fn print_func(f: &Func) -> String {
    let mut out = String::new();
    let _ = write_func(f, 0, &mut out);
    out
}

/// Writes the canonical text of `m` into any sink: a `String` for
/// [`print_module`], the hash itself for
/// [`crate::fingerprint::module_fingerprint`]. Fails only if the sink does.
pub(crate) fn write_module<W: Write>(m: &Module, out: &mut W) -> fmt::Result {
    if m.attrs.is_empty() {
        out.write_str("module {\n")?;
    } else {
        out.write_str("module attributes ")?;
        write_attrs(&m.attrs, out)?;
        out.write_str(" {\n")?;
    }
    for f in &m.funcs {
        write_func(f, 1, out)?;
    }
    out.write_str("}\n")
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

    /// The printed name of `v`, assigned on first use.
    fn name(&mut self, v: ValueId) -> &str {
        let slot = v.0 as usize;
        if self.names[slot].is_none() {
            let name = match &self.func.value(v).name_hint {
                Some(hint) if !self.used.contains(hint) => hint.clone(),
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
                    let cand = self.next.to_string();
                    self.next += 1;
                    if !self.used.contains(&cand) {
                        break cand;
                    }
                },
            };
            self.used.insert(name.clone());
            self.names[slot] = Some(name);
        }
        self.names[slot].as_deref().unwrap_or_default()
    }
}

fn write_indent<W: Write>(indent: usize, out: &mut W) -> fmt::Result {
    (0..indent).try_for_each(|_| out.write_str("  "))
}

/// Writes `items` separated by `", "`.
fn write_list<W: Write, T>(
    items: impl IntoIterator<Item = T>,
    out: &mut W,
    mut each: impl FnMut(T, &mut W) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        each(item, out)?;
    }
    Ok(())
}

fn write_attrs<W: Write>(attrs: &AttrMap, out: &mut W) -> fmt::Result {
    out.write_char('{')?;
    write_list(attrs.iter(), out, |(k, v), out| write!(out, "{k} = {v}"))?;
    out.write_char('}')
}

fn write_func<W: Write>(f: &Func, indent: usize, out: &mut W) -> fmt::Result {
    let mut namer = Namer::new(f);
    write_indent(indent, out)?;
    write!(out, "func @{}(", f.name)?;
    write_list(f.params().iter().enumerate(), out, |(i, &p), out| {
        // Default param names: arg0, arg1, ... unless hinted.
        if f.value(p).name_hint.is_none() {
            let n = format!("arg{i}");
            namer.used.insert(n.clone());
            namer.names[p.0 as usize] = Some(n);
        }
        write!(out, "%{}: {}", namer.name(p), f.ty(p))
    })?;
    out.write_char(')')?;
    if !f.attrs.is_empty() {
        out.write_str(" attributes ")?;
        write_attrs(&f.attrs, out)?;
    }
    out.write_str(" {\n")?;
    write_block_ops(f, f.body_block(), indent + 1, &mut namer, out)?;
    write_indent(indent, out)?;
    out.write_str("}\n")
}

fn write_block_ops<W: Write>(
    f: &Func,
    block: BlockId,
    indent: usize,
    namer: &mut Namer<'_>,
    out: &mut W,
) -> fmt::Result {
    for &op in &f.block(block).ops {
        if !f.op(op).dead {
            write_op(f, op, indent, namer, out)?;
        }
    }
    Ok(())
}

fn write_region<W: Write>(
    f: &Func,
    region: RegionId,
    indent: usize,
    namer: &mut Namer<'_>,
    out: &mut W,
) -> fmt::Result {
    out.write_str(" {\n")?;
    for &block in &f.region(region).blocks {
        write_indent(indent + 1, out)?;
        out.write_str("^bb(")?;
        write_list(&f.block(block).args, out, |&a, out| {
            write!(out, "%{}: {}", namer.name(a), f.ty(a))
        })?;
        out.write_str("):\n")?;
        write_block_ops(f, block, indent + 2, namer, out)?;
    }
    write_indent(indent, out)?;
    out.write_char('}')
}

fn write_op<W: Write>(
    f: &Func,
    op: OpId,
    indent: usize,
    namer: &mut Namer<'_>,
    out: &mut W,
) -> fmt::Result {
    write_indent(indent, out)?;
    let data = f.op(op);
    if !data.results.is_empty() {
        write_list(&data.results, out, |&r, out| {
            write!(out, "%{}", namer.name(r))
        })?;
        out.write_str(" = ")?;
    }
    write!(out, "{}(", data.kind)?;
    write_list(&data.operands, out, |&o, out| {
        write!(out, "%{}", namer.name(o))
    })?;
    out.write_char(')')?;
    if !data.attrs.is_empty() {
        out.write_char(' ')?;
        write_attrs(&data.attrs, out)?;
    }
    match data.results.as_slice() {
        [] => {}
        [one] => write!(out, " : {}", f.ty(*one))?,
        many => {
            out.write_str(" : (")?;
            write_list(many, out, |&r, out| write!(out, "{}", f.ty(r)))?;
            out.write_char(')')?;
        }
    }
    for &region in &data.regions {
        write_region(f, region, indent, namer, out)?;
    }
    out.write_char('\n')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_func_str, parse_module};

    #[test]
    fn prints_simple_func() {
        let m = parse_module(
            "module { func @f(%arg0: i32) {
               %0 = arith.const_int() {value = 7} : i32
               %1 = arith.add(%arg0, %0) : i32
             } }",
        )
        .unwrap();
        let s = print_module(&m);
        assert!(s.contains("module {"), "{s}");
        assert!(s.contains("func @f(%arg0: i32) {"), "{s}");
        assert!(s.contains("arith.const_int() {value = 7} : i32"), "{s}");
        assert!(s.contains("arith.add(%arg0, %0) : i32"), "{s}");
    }

    #[test]
    fn prints_loop_with_region() {
        let m = parse_module(
            "module { func @f() {
               %0 = arith.const_int() {value = 0} : i32
               %1 = arith.const_int() {value = 4} : i32
               %2 = arith.const_int() {value = 1} : i32
               %3 = arith.const_int() {value = 0} : i32
               %4 = scf.for(%0, %1, %2, %3) : i32 {
                 ^bb(%5: i32, %6: i32):
                   %7 = arith.add(%6, %5) : i32
                   scf.yield(%7)
               }
             } }",
        )
        .unwrap();
        let s = print_module(&m);
        assert!(s.contains("scf.for("), "{s}");
        assert!(s.contains("^bb(%"), "{s}");
        assert!(s.contains("scf.yield("), "{s}");
    }

    #[test]
    fn name_hints_are_used_and_deduped() {
        let mut f = parse_func_str(
            "func @f() {
               %0 = arith.const_int() {value = 1} : i32
               %1 = arith.const_int() {value = 2} : i32
             }",
        )
        .unwrap();
        let ops = f.block(f.body_block()).ops.clone();
        let (x, y) = (f.result(ops[0]), f.result(ops[1]));
        f.set_name_hint(x, "acc");
        f.set_name_hint(y, "acc");
        let s = print_func(&f);
        assert!(s.contains("%acc ="), "{s}");
        assert!(s.contains("%acc_1 ="), "{s}");
    }

    #[test]
    fn prints_multi_result_ops() {
        let f = parse_func_str(
            "func @f() {
               %a = tawa.create_aref() {depth = 2}
                 : aref<2, tuple<tensor<8x8xf16>, tensor<8x8xf16>>>
               %i = arith.const_int() {value = 0} : i32
               %x, %y = tawa.get(%a, %i) : (tensor<8x8xf16>, tensor<8x8xf16>)
             }",
        )
        .unwrap();
        let s = print_func(&f);
        assert!(s.contains(": (tensor<8x8xf16>, tensor<8x8xf16>)"), "{s}");
    }

    #[test]
    fn prints_module_attrs() {
        let mut m = parse_module("module { func @f() { } }").unwrap();
        m.attrs.set("num_warps", crate::op::Attr::Int(8));
        let s = print_module(&m);
        assert!(s.starts_with("module attributes {num_warps = 8} {"), "{s}");
    }
}
