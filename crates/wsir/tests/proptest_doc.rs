//! Differential property test of the document lexer: the borrowed
//! tokenizer of `tawa_wsir::doc` against the allocating one it replaced.
//!
//! `mod reference` keeps the previous `tokenize` / `unquote` of
//! `serialize.rs` verbatim (one `String` per token, built character by
//! character). Over arbitrary lines — quotes, escapes, `key="a b"`,
//! tokens made of several quoted segments, non-ASCII whitespace — the
//! new lexer must yield the same token texts, or the same error message
//! at the same line.

use proptest::prelude::*;

use tawa_wsir::doc::{quote, tokenize, unquote};
use tawa_wsir::DocError;

mod reference {
    /// The one error shape the old lexer produced.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Malformed {
        pub line: usize,
        pub msg: String,
    }

    fn malformed(line: usize, msg: impl Into<String>) -> Malformed {
        Malformed {
            line,
            msg: msg.into(),
        }
    }

    pub fn tokenize(line: &str, no: usize) -> Result<Vec<String>, Malformed> {
        let mut tokens = Vec::new();
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            // A token is either a quoted string (possibly prefixed by `key=`)
            // or a bare word. Accumulate until whitespace outside quotes.
            let mut tok = String::new();
            let mut in_quotes = false;
            while let Some(&c) = chars.peek() {
                if !in_quotes && c.is_whitespace() {
                    break;
                }
                chars.next();
                if in_quotes {
                    if c == '\\' {
                        let esc = chars
                            .next()
                            .ok_or_else(|| malformed(no, "dangling escape in string"))?;
                        tok.push('\\');
                        tok.push(esc);
                    } else {
                        if c == '"' {
                            in_quotes = false;
                        }
                        tok.push(c);
                    }
                } else {
                    if c == '"' {
                        in_quotes = true;
                    }
                    tok.push(c);
                }
            }
            if in_quotes {
                return Err(malformed(no, "unterminated string"));
            }
            tokens.push(tok);
        }
        Ok(tokens)
    }

    pub fn unquote(tok: &str, no: usize) -> Result<String, Malformed> {
        let inner = tok
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .ok_or_else(|| malformed(no, format!("expected quoted string, got '{tok}'")))?;
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => {
                        return Err(malformed(
                            no,
                            format!("invalid escape '\\{}'", other.unwrap_or(' ')),
                        ))
                    }
                }
            } else {
                out.push(c);
            }
        }
        Ok(out)
    }
}

/// The new lexer's error in the old one's shape.
fn old_shape(e: DocError) -> reference::Malformed {
    match e {
        DocError::Malformed { format, line, msg } => {
            assert_eq!(format, "lexer");
            reference::Malformed { line, msg }
        }
        other => panic!("the lexer only reports Malformed, got {other:?}"),
    }
}

/// Pieces a line is assembled from: everything the lexer treats
/// specially, plus ordinary and multi-byte filler.
fn pieces() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\""),
        Just("\\"),
        Just("\\\""),
        Just("\\n"),
        Just("\\q"),
        Just(" "),
        Just("\t"),
        Just("\n"),
        Just("\u{a0}"),
        Just("\u{2003}"),
        Just("\u{3000}"),
        Just("="),
        Just("key="),
        Just("key=\"a b\""),
        Just("\"a\"\"b c\""),
        Just("{"),
        Just("word"),
        Just("é"),
        Just("日本"),
        Just("0x7FF8000000000000"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_borrowed_lexer_agrees_with_the_allocating_one(
        parts in prop::collection::vec(pieces(), 0..10),
        no in 0usize..1000,
    ) {
        let line = parts.concat();
        let new = tokenize("lexer", no, &line).map_err(old_shape);
        let old = reference::tokenize(&line, no);
        match (&new, &old) {
            (Ok(new), Ok(old)) => prop_assert_eq!(new, old, "{:?}", line),
            _ => prop_assert_eq!(new.as_ref().err(), old.as_ref().err(), "{:?}", line),
        }
        // Every token — and the raw line, which is rarely one — decodes
        // alike too.
        for tok in old.unwrap_or_default().iter().chain([&line]) {
            prop_assert_eq!(
                unquote("lexer", no, tok).map_err(old_shape),
                reference::unquote(tok, no),
                "{:?}",
                tok
            );
        }
        // And what the writer quotes, both decode back.
        let quoted = quote(&line);
        prop_assert_eq!(tokenize("lexer", no, &quoted).unwrap(), vec![quoted.as_str()]);
        prop_assert_eq!(unquote("lexer", no, &quoted).unwrap(), line);
    }
}
