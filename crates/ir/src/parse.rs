//! Textual IR parser — the inverse of [`crate::print`].
//!
//! Hand-written lexer + recursive-descent parser. The accepted grammar is
//! exactly the printer's output language:
//!
//! ```text
//! module   := 'module' ('attributes' attrs)? '{' func* '}'
//! func     := 'func' '@' IDENT '(' params? ')' ('attributes' attrs)? '{' op* '}'
//! op       := (values '=')? MNEMONIC '(' values? ')' attrs? (':' types)? region*
//! region   := '{' ('^bb' '(' params? ')' ':' op*)+ '}'
//! params   := VALUE ':' type (',' VALUE ':' type)*
//! types    := type | '(' type (',' type)* ')'
//! attrs    := '{' IDENT '=' attr (',' IDENT '=' attr)* '}'
//! ```
//!
//! A function name may also contain `-` and `.`, and a string attribute
//! is read back from the `{:?}` form the printer writes, escapes and
//! UTF-8 included.

use std::collections::HashMap;
use std::fmt;

use crate::func::{Func, Module};
use crate::op::{Attr, AttrMap, BlockId, OpKind, ValueId};
use crate::types::{DType, Type};

/// Ceiling on region nesting in a module, and on aref payload nesting in
/// a type. The parser recurses once per level, and so do the printer, the
/// verifier and the fingerprint, so without a bound a few kilobytes of
/// nested `scf.for`s overflow the stack: an abort, not an error. Deeper
/// input is a [`ParseError`]. Mirrors WSIR's `MAX_LOOP_DEPTH`; the
/// compiler nests two regions deep (a warp group around its loop).
pub const MAX_REGION_DEPTH: usize = 64;

/// Error produced by the parser, with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Line at which the error was detected.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    ValueName(String),
    Symbol(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char),
    Caret,
    Eof,
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '%' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if start == i {
                    return Err(ParseError {
                        line,
                        msg: "empty value name after '%'".into(),
                    });
                }
                toks.push((Tok::ValueName(src[start..i].to_string()), line));
            }
            '@' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b"_-.".contains(&b[i])) {
                    i += 1;
                }
                toks.push((Tok::Symbol(src[start..i].to_string()), line));
            }
            '^' => {
                i += 1;
                // consume the 'bb' label if present
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Caret, line));
            }
            '"' => {
                let (s, len) = unescape(&src[i + 1..]).map_err(|msg| ParseError {
                    line,
                    msg: msg.into(),
                })?;
                i += 1 + len;
                toks.push((Tok::Str(s), line));
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    // exponent part: e[-]digits
                    let save = i;
                    let mut j = i + 1;
                    if j < b.len() && (b[j] == b'-' || b[j] == b'+') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    } else {
                        i = save;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    let v = text.parse::<f64>().map_err(|e| ParseError {
                        line,
                        msg: format!("bad float {text}: {e}"),
                    })?;
                    toks.push((Tok::Float(v), line));
                } else {
                    let v = text.parse::<i64>().map_err(|e| ParseError {
                        line,
                        msg: format!("bad int {text}: {e}"),
                    })?;
                    toks.push((Tok::Int(v), line));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_string()), line));
            }
            '(' | ')' | '{' | '}' | '<' | '>' | '[' | ']' | ',' | '=' | ':' => {
                toks.push((Tok::Punct(c), line));
                i += 1;
            }
            other => {
                return Err(ParseError {
                    line,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

/// Decodes a string literal's body as `{:?}` writes it, through the
/// closing quote; returns the text and the bytes consumed. An escape it
/// does not name (`\\`, `\"`, `\'`) stands for its character.
fn unescape(body: &str) -> Result<(String, usize), &'static str> {
    let mut out = String::new();
    let mut chars = body.chars();
    loop {
        match chars.next().ok_or("unterminated string")? {
            '"' => return Ok((out, body.len() - chars.as_str().len())),
            '\\' => match chars.next().ok_or("unterminated string")? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                '0' => out.push('\0'),
                'u' => {
                    let (hex, rest) = chars
                        .as_str()
                        .strip_prefix('{')
                        .and_then(|r| r.split_once('}'))
                        .ok_or("bad \\u escape")?;
                    let c = u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or("bad \\u escape")?;
                    out.push(c);
                    chars = rest.chars();
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(ParseError {
                line: self.line(),
                msg: format!("expected {c:?}, got {other:?}"),
            }),
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(ParseError {
                line: self.line(),
                msg: format!("expected keyword {kw}, got {other:?}"),
            }),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Tok::Punct(p) if *p == c) {
            self.next();
            true
        } else {
            false
        }
    }
}

/// Parses a module from its textual form.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut lx = Lexer { toks, pos: 0 };
    lx.expect_ident("module")?;
    let mut module = Module::new();
    if matches!(lx.peek(), Tok::Ident(s) if s == "attributes") {
        lx.next();
        module.attrs = parse_attrs(&mut lx)?;
    }
    lx.expect_punct('{')?;
    while matches!(lx.peek(), Tok::Ident(s) if s == "func") {
        module.funcs.push(parse_func(&mut lx)?);
    }
    lx.expect_punct('}')?;
    match lx.peek() {
        Tok::Eof => Ok(module),
        other => Err(lx.err(format!("trailing tokens after module: {other:?}"))),
    }
}

/// Parses a single function from its textual form.
pub fn parse_func_str(src: &str) -> Result<Func, ParseError> {
    let toks = lex(src)?;
    let mut lx = Lexer { toks, pos: 0 };
    parse_func(&mut lx)
}

fn parse_func(lx: &mut Lexer) -> Result<Func, ParseError> {
    lx.expect_ident("func")?;
    let name = match lx.next() {
        Tok::Symbol(s) => s,
        other => return Err(lx.err(format!("expected @name, got {other:?}"))),
    };
    lx.expect_punct('(')?;
    let mut param_names = Vec::new();
    let mut param_types = Vec::new();
    if !lx.eat_punct(')') {
        loop {
            let pname = match lx.next() {
                Tok::ValueName(s) => s,
                other => return Err(lx.err(format!("expected %param, got {other:?}"))),
            };
            lx.expect_punct(':')?;
            let ty = parse_type(lx)?;
            param_names.push(pname);
            param_types.push(ty);
            if lx.eat_punct(')') {
                break;
            }
            lx.expect_punct(',')?;
        }
    }
    let mut func = Func::new(&name, &param_types);
    if matches!(lx.peek(), Tok::Ident(s) if s == "attributes") {
        lx.next();
        func.attrs = parse_attrs(lx)?;
    }
    let mut values: HashMap<String, ValueId> = HashMap::new();
    for (n, &v) in param_names.iter().zip(func.params().to_vec().iter()) {
        if !n.starts_with("arg") {
            func.set_name_hint(v, n);
        }
        values.insert(n.clone(), v);
    }
    lx.expect_punct('{')?;
    let entry = func.body_block();
    parse_ops_until_brace(lx, &mut func, entry, &mut values, 0)?;
    Ok(func)
}

fn parse_ops_until_brace(
    lx: &mut Lexer,
    func: &mut Func,
    block: BlockId,
    values: &mut HashMap<String, ValueId>,
    depth: usize,
) -> Result<(), ParseError> {
    loop {
        if lx.eat_punct('}') {
            return Ok(());
        }
        parse_op(lx, func, block, values, depth)?;
    }
}

/// Parses one op into `block`, which is `depth` regions deep.
fn parse_op(
    lx: &mut Lexer,
    func: &mut Func,
    block: BlockId,
    values: &mut HashMap<String, ValueId>,
    depth: usize,
) -> Result<(), ParseError> {
    // result list
    let mut result_names = Vec::new();
    while matches!(lx.peek(), Tok::ValueName(_)) {
        if let Tok::ValueName(n) = lx.next() {
            result_names.push(n);
        }
        if !lx.eat_punct(',') {
            break;
        }
    }
    if !result_names.is_empty() {
        lx.expect_punct('=')?;
    }
    let mnemonic = match lx.next() {
        Tok::Ident(s) => s,
        other => return Err(lx.err(format!("expected op mnemonic, got {other:?}"))),
    };
    let kind = OpKind::parse(&mnemonic)
        .ok_or_else(|| lx.err(format!("unknown op mnemonic {mnemonic}")))?;
    lx.expect_punct('(')?;
    let mut operands = Vec::new();
    if !lx.eat_punct(')') {
        loop {
            match lx.next() {
                Tok::ValueName(n) => {
                    let v = values
                        .get(&n)
                        .copied()
                        .ok_or_else(|| lx.err(format!("use of undefined value %{n}")))?;
                    operands.push(v);
                }
                other => return Err(lx.err(format!("expected %operand, got {other:?}"))),
            }
            if lx.eat_punct(')') {
                break;
            }
            lx.expect_punct(',')?;
        }
    }
    let attrs = if matches!(lx.peek(), Tok::Punct('{')) && looks_like_attrs(lx) {
        parse_attrs(lx)?
    } else {
        AttrMap::new()
    };
    let mut result_types = Vec::new();
    if lx.eat_punct(':') {
        if lx.eat_punct('(') {
            loop {
                result_types.push(parse_type(lx)?);
                if lx.eat_punct(')') {
                    break;
                }
                lx.expect_punct(',')?;
            }
        } else {
            result_types.push(parse_type(lx)?);
        }
    }
    if result_types.len() != result_names.len() {
        return Err(lx.err(format!(
            "{mnemonic}: {} results named but {} types given",
            result_names.len(),
            result_types.len()
        )));
    }
    let op = func.push_op(block, kind, operands, result_types, attrs);
    for (name, &r) in result_names.iter().zip(func.results(op).to_vec().iter()) {
        if name.parse::<u64>().is_err() {
            func.set_name_hint(r, name);
        }
        values.insert(name.clone(), r);
    }
    // regions
    while matches!(lx.peek(), Tok::Punct('{')) {
        if depth >= MAX_REGION_DEPTH {
            return Err(lx.err(format!(
                "regions nest deeper than {MAX_REGION_DEPTH} levels"
            )));
        }
        lx.next();
        let (_, rblock) = func.add_region(op);
        // ^bb(%a: t, ...):
        match lx.next() {
            Tok::Caret => {}
            other => return Err(lx.err(format!("expected ^bb block header, got {other:?}"))),
        }
        lx.expect_punct('(')?;
        if !lx.eat_punct(')') {
            loop {
                let aname = match lx.next() {
                    Tok::ValueName(s) => s,
                    other => return Err(lx.err(format!("expected %blockarg, got {other:?}"))),
                };
                lx.expect_punct(':')?;
                let ty = parse_type(lx)?;
                let v = func.add_block_arg(rblock, ty);
                if aname.parse::<u64>().is_err() {
                    func.set_name_hint(v, &aname);
                }
                values.insert(aname, v);
                if lx.eat_punct(')') {
                    break;
                }
                lx.expect_punct(',')?;
            }
        }
        lx.expect_punct(':')?;
        parse_ops_until_brace(lx, func, rblock, values, depth + 1)?;
    }
    Ok(())
}

/// Distinguishes an attribute dict `{key = ...}` from a region `{^bb...}`
/// by one-token lookahead past the brace.
fn looks_like_attrs(lx: &Lexer) -> bool {
    matches!(lx.toks.get(lx.pos + 1).map(|(t, _)| t), Some(Tok::Ident(_)))
}

fn parse_attrs(lx: &mut Lexer) -> Result<AttrMap, ParseError> {
    lx.expect_punct('{')?;
    let mut attrs = AttrMap::new();
    if lx.eat_punct('}') {
        return Ok(attrs);
    }
    loop {
        let key = match lx.next() {
            Tok::Ident(s) => s,
            other => return Err(lx.err(format!("expected attribute name, got {other:?}"))),
        };
        lx.expect_punct('=')?;
        let value = match lx.next() {
            Tok::Int(v) => Attr::Int(v),
            Tok::Float(v) => Attr::Float(v),
            Tok::Str(s) => Attr::Str(s),
            Tok::Ident(s) if s == "true" => Attr::Bool(true),
            Tok::Ident(s) if s == "false" => Attr::Bool(false),
            Tok::Punct('[') => {
                let mut items = Vec::new();
                if !lx.eat_punct(']') {
                    loop {
                        match lx.next() {
                            Tok::Int(v) => items.push(v),
                            other => {
                                return Err(lx.err(format!("expected int in array, got {other:?}")))
                            }
                        }
                        if lx.eat_punct(']') {
                            break;
                        }
                        lx.expect_punct(',')?;
                    }
                }
                Attr::Ints(items)
            }
            other => return Err(lx.err(format!("expected attribute value, got {other:?}"))),
        };
        attrs.set(&key, value);
        if lx.eat_punct('}') {
            return Ok(attrs);
        }
        lx.expect_punct(',')?;
    }
}

fn parse_type(lx: &mut Lexer) -> Result<Type, ParseError> {
    parse_type_at(lx, 0)
}

/// Parses a type nested in `nesting` enclosing aref payloads.
fn parse_type_at(lx: &mut Lexer, nesting: usize) -> Result<Type, ParseError> {
    let head = match lx.next() {
        Tok::Ident(s) => s,
        other => return Err(lx.err(format!("expected type, got {other:?}"))),
    };
    if let Some(dt) = DType::parse(&head) {
        return Ok(Type::Scalar(dt));
    }
    match head.as_str() {
        "token" => Ok(Type::Token),
        "ptr" => {
            lx.expect_punct('<')?;
            let dt = parse_dtype(lx)?;
            lx.expect_punct('>')?;
            Ok(Type::Ptr(dt))
        }
        "desc" => {
            lx.expect_punct('<')?;
            let dt = parse_dtype(lx)?;
            lx.expect_punct('>')?;
            Ok(Type::TensorDesc(dt))
        }
        "tensor" => {
            lx.expect_punct('<')?;
            // Tokens inside are like: Int(128), Ident("x64xf16") or just
            // Ident("f32"). Collect the textual pieces until '>'.
            let mut text = String::new();
            loop {
                match lx.next() {
                    Tok::Punct('>') => break,
                    Tok::Int(v) => text.push_str(&v.to_string()),
                    Tok::Ident(s) => text.push_str(&s),
                    other => {
                        return Err(lx.err(format!("unexpected token in tensor type: {other:?}")))
                    }
                }
            }
            let mut dims = Vec::new();
            let parts: Vec<&str> = text.split('x').collect();
            let (shape_parts, dt_part) = parts.split_at(parts.len() - 1);
            for p in shape_parts {
                let d: usize = p
                    .parse()
                    .map_err(|_| lx.err(format!("bad tensor dimension {p:?} in tensor<{text}>")))?;
                dims.push(d);
            }
            let dt = DType::parse(dt_part[0])
                .ok_or_else(|| lx.err(format!("bad tensor dtype {:?}", dt_part[0])))?;
            Ok(Type::Tensor(dims.into(), dt))
        }
        "aref" => {
            lx.expect_punct('<')?;
            let depth = match lx.next() {
                Tok::Int(v) if v > 0 => v as usize,
                other => return Err(lx.err(format!("expected aref depth, got {other:?}"))),
            };
            lx.expect_punct(',')?;
            lx.expect_ident("tuple")?;
            lx.expect_punct('<')?;
            if nesting >= MAX_REGION_DEPTH {
                return Err(lx.err(format!(
                    "aref payloads nest deeper than {MAX_REGION_DEPTH} levels"
                )));
            }
            let mut payload = Vec::new();
            loop {
                payload.push(parse_type_at(lx, nesting + 1)?);
                if lx.eat_punct('>') {
                    break;
                }
                lx.expect_punct(',')?;
            }
            lx.expect_punct('>')?;
            Ok(Type::Aref(depth, payload))
        }
        other => Err(lx.err(format!("unknown type {other}"))),
    }
}

fn parse_dtype(lx: &mut Lexer) -> Result<DType, ParseError> {
    match lx.next() {
        Tok::Ident(s) => {
            DType::parse(&s).ok_or_else(|| lx.err(format!("unknown element type {s}")))
        }
        other => Err(lx.err(format!("expected element type, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::print_module;
    use crate::types::Type as T;

    fn roundtrip(src: &str) -> String {
        let m = parse_module(src).expect("parse");
        print_module(&m)
    }

    #[test]
    fn parses_empty_module() {
        let m = parse_module("module { }").unwrap();
        assert!(m.funcs.is_empty());
    }

    #[test]
    fn parse_print_fixpoint_simple() {
        let s1 = roundtrip(
            "module { func @f(%arg0: i32) {
               %0 = arith.const_int() {value = 7} : i32
               %1 = arith.add(%arg0, %0) : i32
             } }",
        );
        let s2 = roundtrip(&s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parse_print_fixpoint_loop() {
        let s1 = roundtrip(
            "module { func @f() {
               %0 = arith.const_int() {value = 0} : i32
               %1 = arith.const_int() {value = 4} : i32
               %2 = arith.const_int() {value = 1} : i32
               %3 = arith.const_float() {value = 0.0} : f32
               %4 = scf.for(%0, %1, %2, %3) : f32 {
                 ^bb(%5: i32, %6: f32):
                   %7 = math.exp(%6) : f32
                   scf.yield(%7)
               }
             } }",
        );
        let s2 = roundtrip(&s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parse_print_fixpoint_aref_and_warp_groups() {
        let s1 = roundtrip(
            "module { func @k(%arg0: desc<f16>) {
               %0 = tawa.create_aref() {depth = 2} : aref<2, tuple<tensor<128x64xf16>>>
               tawa.warp_group() {partition = 0, role = \"producer\"} {
                 ^bb():
                   %1 = arith.const_int() {value = 0} : i32
                   %2 = tile.tma_load(%arg0, %1, %1) : tensor<128x64xf16>
                   tawa.put(%0, %1, %2)
               }
               tawa.warp_group() {partition = 1, role = \"consumer\"} {
                 ^bb():
                   %3 = arith.const_int() {value = 0} : i32
                   %4 = tawa.get(%0, %3) : tensor<128x64xf16>
                   tawa.consumed(%0, %3)
               }
             } }",
        );
        let s2 = roundtrip(&s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parses_warp_group_region_and_attrs() {
        let m = parse_module(
            "module { func @f() {
               tawa.warp_group() {partition = 0, role = \"producer\"} {
                 ^bb():
                   %0 = arith.const_int() {value = 1} : i32
               }
             } }",
        )
        .unwrap();
        let f = &m.funcs[0];
        let wg = f.block(f.body_block()).ops[0];
        assert_eq!(f.op(wg).kind, OpKind::WarpGroup);
        assert_eq!(f.op(wg).regions.len(), 1);
        assert_eq!(f.op(wg).attrs.int("partition"), Some(0));
        assert_eq!(f.op(wg).attrs.str("role"), Some("producer"));
        let inner = f.entry_block(f.op(wg).regions[0]);
        assert_eq!(f.block(inner).ops.len(), 1);
        assert!(crate::verify::verify_module(&m).is_ok());
    }

    #[test]
    fn errors_on_undefined_value() {
        let src = "module { func @f() { %x = arith.add(%y, %y) : i32 } }";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("undefined value"), "{err}");
    }

    #[test]
    fn errors_on_unknown_op() {
        let src = "module { func @f() { bogus.op() } }";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("unknown op"), "{err}");
    }

    #[test]
    fn errors_on_result_type_mismatch() {
        let src = "module { func @f() { %a, %b = arith.const_int() {value = 1} : i32 } }";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("results named"), "{err}");
    }

    #[test]
    fn parses_all_attr_kinds() {
        let src = r#"module attributes {a = 1, b = 2.5, c = "s", d = true, e = [1, 2, 3]} { }"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.attrs.int("a"), Some(1));
        assert_eq!(m.attrs.float("b"), Some(2.5));
        assert_eq!(m.attrs.str("c"), Some("s"));
        assert_eq!(m.attrs.bool("d"), Some(true));
        assert_eq!(m.attrs.get("e"), Some(&Attr::Ints(vec![1, 2, 3])));
    }

    #[test]
    fn parses_tensor_types() {
        let src =
            "module { func @f(%a: tensor<128x64xf16>, %b: tensor<8xi32>, %c: aref<2, tuple<tensor<4x4xf32>>>) { } }";
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        assert_eq!(
            *f.ty(f.params()[0]),
            T::tensor(vec![128, 64], crate::types::DType::F16)
        );
        assert_eq!(
            *f.ty(f.params()[1]),
            T::tensor(vec![8], crate::types::DType::I32)
        );
        assert!(matches!(f.ty(f.params()[2]), T::Aref(2, _)));
    }

    /// Prints a module whose function `name` carries string attr `s`,
    /// parses it back, and returns the text and the attr it read.
    fn str_attr_roundtrip(name: &str, s: &str) -> (String, String, Option<String>) {
        let mut m = Module::new();
        m.add_func(Func::new(name, &[]));
        m.funcs[0].attrs.set("note", Attr::Str(s.to_string()));
        let printed = print_module(&m);
        let back = parse_module(&printed).expect("parse");
        let note = back.funcs[0].attrs.str("note").map(str::to_string);
        (printed, print_module(&back), note)
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "a\rb",
            "a\0b",
            "é",
            "tab\there \"q\" \\ '",
            "del\u{7f}",
            "\u{200b}",
        ] {
            let (printed, reprinted, note) = str_attr_roundtrip("f", s);
            assert_eq!(note.as_deref(), Some(s), "{printed}");
            assert_eq!(reprinted, printed);
        }
    }

    #[test]
    fn function_names_with_dashes_and_dots_roundtrip() {
        for name in ["my-kernel", "k.v2"] {
            let (printed, reprinted, _) = str_attr_roundtrip(name, "x");
            assert_eq!(reprinted, printed);
            assert_eq!(parse_module(&printed).unwrap().funcs[0].name, name);
        }
    }

    #[test]
    fn bad_string_escapes_are_errors() {
        for src in [
            r#"module attributes {a = "\u{110000}"} { }"#,
            r#"module attributes {a = "\u{zz}"} { }"#,
            r#"module attributes {a = "\u{41"} { }"#,
            r#"module attributes {a = "open"#,
        ] {
            assert!(parse_module(src).is_err(), "{src}");
        }
    }

    /// A module of `levels` nested `scf.for`s.
    fn nested_loops(levels: usize) -> String {
        let mut src =
            String::from("module { func @f() {\n%c = arith.const_int() {value = 0} : i32\n");
        for i in 0..levels {
            src.push_str(&format!("scf.for(%c, %c, %c) {{\n^bb(%i{i}: i32):\n"));
        }
        for _ in 0..levels {
            src.push_str("scf.yield()\n}\n");
        }
        src.push_str("} }");
        src
    }

    /// Runs `f` on a thread with a 2 MB stack, as a small worker has:
    /// a deep input must be an error there, not a stack overflow.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn region_nesting_up_to_the_ceiling_parses_and_verifies() {
        on_small_stack(|| {
            let m = parse_module(&nested_loops(MAX_REGION_DEPTH)).unwrap();
            crate::verify::verify_module(&m).unwrap();
            assert_eq!(
                parse_module(&crate::print::print_module(&m))
                    .unwrap()
                    .funcs
                    .len(),
                1
            );
        });
    }

    #[test]
    fn region_nesting_past_the_ceiling_is_an_error() {
        for levels in [MAX_REGION_DEPTH + 1, 2_000, 10_000] {
            let err = on_small_stack(move || parse_module(&nested_loops(levels)).unwrap_err());
            assert!(err.msg.contains("nest deeper than 64"), "{levels}: {err}");
        }
    }

    #[test]
    fn aref_payload_nesting_past_the_ceiling_is_an_error() {
        let nested = |levels: usize| {
            let ty = "aref<1, tuple<".repeat(levels) + "i32" + &">>".repeat(levels);
            format!("module {{ func @f(%a: {ty}) {{ }} }}")
        };
        on_small_stack(move || {
            assert!(parse_module(&nested(MAX_REGION_DEPTH)).is_ok());
            for levels in [MAX_REGION_DEPTH + 1, 10_000] {
                let err = parse_module(&nested(levels)).unwrap_err();
                assert!(err.msg.contains("nest deeper"), "{levels}: {err}");
            }
        });
    }

    #[test]
    fn reports_line_numbers() {
        let src = "module {\nfunc @f() {\n  %x = arith.add(%nope, %nope) : i32\n}\n}";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
