//! The one toolkit behind every versioned Tawa text document.
//!
//! A compiled kernel and its simulated report are found once and then
//! *travel* — through the disk tier, the `tawa-cached` wire, trace and
//! fleet-report files — as line-oriented UTF-8 documents. This module
//! owns everything those documents share, once: the error type, the
//! lexer, the header and version check, the line cursor, typed field
//! access, the line writer, the field tables that drive a record's
//! writer, reader and JSON rendering from one list, and JSON escaping.
//! A format module (`serialize`, `gpu_sim::report_serde`,
//! `tawa_serve::{trace, report}`, the verdict lines of
//! `tawa_core::cache`, the `stats` line of `tawa_core::remote`) states
//! only its own grammar on top of it.
//!
//! ## Lexical rules
//!
//! * A document is a sequence of lines. Leading and trailing whitespace
//!   of a line is cosmetic and blank lines are skipped; line numbers in
//!   errors are 1-based and count every physical line (0 = end of input).
//! * A line is a sequence of whitespace-separated **tokens**. The first
//!   is the line's **keyword** ([`Line::keyword`]); the rest are
//!   positional words or `key=value` **fields** ([`Line::get`]).
//! * A double quote opens a string that runs to the next unescaped
//!   quote, whitespace included, so `"a b"` and `key="a b"` are single
//!   tokens. Inside a string `\\`, `\"`, `\n` and `\t` are the only
//!   escapes ([`Quoted`] writes them, [`unquote`] reads them).
//! * Floats travel as their IEEE-754 bit pattern, `0x` + 16 hex digits
//!   ([`Writer::bits`] / [`Line::f64_bits`]): NaN payloads, signed zeros
//!   and infinities round-trip exactly and "bit-identical" is checkable
//!   with `diff`.
//!
//! ## Header and version policy
//!
//! The first non-blank line of a document is `<format> <version>`
//! ([`Writer::open`] writes it, [`Doc::open`] checks it). A reader speaks
//! exactly one version: any other is [`DocError::VersionMismatch`], never
//! an attempt at migration — every document is cheap to regenerate, and
//! caches treat the mismatch as a miss. A format's version constant is
//! bumped whenever the syntax or the meaning of a field changes
//! incompatibly. Everything else that is wrong with a document —
//! truncation, corruption, a missing field (never a default), trailing
//! content — is [`DocError::Malformed`] with the line it was found at.
//! Readers return errors for arbitrary input; they do not panic.
//!
//! ## The torn-line rule
//!
//! An append-only log (`sweeps.log`) can be read while a writer's line
//! is half on disk, and a tear landing mid-number would parse
//! "successfully" with a wrong value. [`complete_lines`] keeps only the
//! newline-terminated part; the dropped tail is re-read whole once the
//! append lands.
//!
//! ## Why tokens borrow
//!
//! A token is always a contiguous substring of its line — escapes are
//! decoded by [`unquote`], not by the tokenizer — so [`tokenize`] returns
//! slices of the source text and a warm fleet loading thousands of
//! kernel lines allocates one `Vec` per line instead of one `String` per
//! token.
//!
//! ## Adding a format or a field
//!
//! A new format picks a header keyword and a version constant, writes
//! with [`Writer::open`] and reads with [`Doc::open`]; its error type is
//! [`DocError`]. A record whose line is a flat list of numeric fields
//! declares one [`field_table!`](crate::field_table) — names, order and
//! encoding — and gets [`Writer::fields`], [`Line::read`] and
//! [`json_object`] from it; adding a field is one row there (plus the
//! version bump the policy above asks for).

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Error produced when reading any Tawa text document. `format` is the
/// document's header keyword (`wsir`, `sim-report`, `trace`,
/// `fleet-report`, …), so one type reports for every format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The header names a format version this reader does not speak.
    VersionMismatch {
        /// Header keyword of the format being read.
        format: &'static str,
        /// Version found in the document header.
        found: u32,
        /// The one version this reader implements.
        expected: u32,
    },
    /// The document is structurally invalid (truncated, corrupted, or not
    /// a document of this format at all).
    Malformed {
        /// Header keyword of the format being read.
        format: &'static str,
        /// 1-based line number the reader stopped at (0 = end of input).
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl DocError {
    fn malformed(format: &'static str, line: usize, msg: impl Into<String>) -> DocError {
        DocError::Malformed {
            format,
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::VersionMismatch {
                format,
                found,
                expected,
            } => write!(
                f,
                "{format} format version mismatch: document is v{found}, reader speaks v{expected}"
            ),
            DocError::Malformed { format, line, msg } => {
                write!(f, "malformed {format} document at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for DocError {}

/// Displays a string as a double-quoted token with `\\`, `\"`, `\n` and
/// `\t` escapes — the string syntax of every Tawa text document.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                _ => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Renders `s` as a [`Quoted`] token.
pub fn quote(s: &str) -> String {
    Quoted(s).to_string()
}

/// Decodes a quoted token back into its string.
///
/// # Errors
/// [`DocError::Malformed`] (for `format`, at line `no`) when the token
/// is not a quoted string or contains an unknown escape.
pub fn unquote(format: &'static str, no: usize, tok: &str) -> Result<String, DocError> {
    let inner = tok
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| {
            DocError::malformed(format, no, format!("expected quoted string, got '{tok}'"))
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let esc = chars.next();
        out.push(match esc {
            Some('\\') => '\\',
            Some('"') => '"',
            Some('n') => '\n',
            Some('t') => '\t',
            _ => {
                let msg = format!("invalid escape '\\{}'", esc.unwrap_or(' '));
                return Err(DocError::malformed(format, no, msg));
            }
        });
    }
    Ok(out)
}

/// Splits a line into whitespace-separated tokens, keeping quoted
/// strings (with their escapes) as single tokens. The tokens borrow
/// from `line`; see the module docs for why they can.
///
/// # Errors
/// [`DocError::Malformed`] (for `format`, at line `no`) on a string that
/// never closes or an escape with nothing after it.
pub fn tokenize<'a>(
    format: &'static str,
    no: usize,
    line: &'a str,
) -> Result<Vec<&'a str>, DocError> {
    let mut tokens = Vec::new();
    let mut start = None;
    let mut in_quotes = false;
    let mut chars = line.char_indices();
    while let Some((i, c)) = chars.next() {
        if in_quotes {
            if c == '\\' && chars.next().is_none() {
                return Err(DocError::malformed(format, no, "dangling escape in string"));
            }
            in_quotes = c != '"';
        } else if c.is_whitespace() {
            if let Some(s) = start.take() {
                tokens.push(&line[s..i]);
            }
        } else {
            start.get_or_insert(i);
            in_quotes = c == '"';
        }
    }
    if in_quotes {
        return Err(DocError::malformed(format, no, "unterminated string"));
    }
    if let Some(s) = start {
        tokens.push(&line[s..]);
    }
    Ok(tokens)
}

/// The newline-terminated prefix of `text` — the torn-line rule of the
/// module docs. A text with no newline at all has no complete line.
pub fn complete_lines(text: &str) -> &str {
    text.rfind('\n').map_or("", |i| &text[..=i])
}

/// One tokenized line of a document: its keyword, its tokens, and typed
/// access to its `key=value` fields. Every accessor reports its failure
/// as [`DocError::Malformed`] at this line.
#[derive(Debug)]
pub struct Line<'a> {
    format: &'static str,
    no: usize,
    keyword: &'a str,
    tokens: Vec<&'a str>,
}

impl<'a> Line<'a> {
    /// Tokenizes `text` as line `no` of a `format` document.
    ///
    /// # Errors
    /// [`DocError::Malformed`] when the line does not tokenize or is
    /// blank (a line has a keyword by construction).
    pub fn parse(format: &'static str, no: usize, text: &'a str) -> Result<Line<'a>, DocError> {
        let tokens = tokenize(format, no, text)?;
        match tokens.first() {
            Some(&keyword) => Ok(Line {
                format,
                no,
                keyword,
                tokens,
            }),
            None => Err(DocError::malformed(format, no, "blank line")),
        }
    }

    /// The first token: what kind of line this is.
    pub fn keyword(&self) -> &'a str {
        self.keyword
    }

    /// Every token, keyword first — for grammars matched positionally
    /// with a slice pattern.
    pub fn tokens(&self) -> &[&'a str] {
        &self.tokens
    }

    /// A [`DocError::Malformed`] at this line.
    pub fn malformed(&self, msg: impl Into<String>) -> DocError {
        DocError::malformed(self.format, self.no, msg)
    }

    /// The quoted name that follows the keyword (`kernel "gemm" …`),
    /// decoded; `what` names it in the error.
    ///
    /// # Errors
    /// When the line ends after the keyword or the token is not a quoted
    /// string.
    pub fn name(&self, what: &str) -> Result<String, DocError> {
        match self.tokens.get(1) {
            Some(tok) => unquote(self.format, self.no, tok),
            None => Err(self.malformed(format!("{} line missing {what}", self.keyword))),
        }
    }

    /// The raw text of field `key`.
    ///
    /// # Errors
    /// When the line has no `key=` field.
    pub fn get(&self, key: &str) -> Result<&'a str, DocError> {
        self.tokens
            .iter()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| self.malformed(format!("missing field '{key}'")))
    }

    fn parsed<T: FromStr>(&self, key: &str, what: &str) -> Result<T, DocError> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| self.malformed(format!("field '{key}' is not {what}: '{v}'")))
    }

    /// Field `key` parsed as an integer of the type the caller stores it
    /// in (`u64`, `u32`, `usize`).
    ///
    /// # Errors
    /// When missing, not an integer, or out of the type's range.
    pub fn int<T: FromStr>(&self, key: &str) -> Result<T, DocError> {
        self.parsed(key, "an integer")
    }

    /// Field `key` parsed as a boolean (`true` / `false`).
    ///
    /// # Errors
    /// When missing or not a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, DocError> {
        self.parsed(key, "a boolean")
    }

    /// Field `key` parsed from the float-bits encoding — bit-exact.
    ///
    /// # Errors
    /// When missing or not `0x` + hex bits.
    pub fn f64_bits(&self, key: &str) -> Result<f64, DocError> {
        let v = self.get(key)?;
        v.strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .map(f64::from_bits)
            .ok_or_else(|| self.malformed(format!("field '{key}' is not float bits: '{v}'")))
    }

    /// Field `key` decoded from a quoted-string token.
    ///
    /// # Errors
    /// When missing or not a quoted string.
    pub fn string(&self, key: &str) -> Result<String, DocError> {
        unquote(self.format, self.no, self.get(key)?)
    }

    /// Reads every field of `table` into a record that is otherwise
    /// `R::default()`.
    ///
    /// # Errors
    /// On the first field that is missing or does not parse — a missing
    /// field is malformed, never a default.
    pub fn read<R: Default>(&self, table: &Table<R>) -> Result<R, DocError> {
        let mut rec = R::default();
        for (name, field) in table {
            match field {
                Field::U64(_, set) => set(&mut rec, self.int(name)?),
                Field::U32(_, set) => set(&mut rec, self.int(name)?),
                Field::F64(_, set) => set(&mut rec, self.f64_bits(name)?),
            }
        }
        Ok(rec)
    }
}

/// A document being read: the header is checked, the cursor stands on
/// the first body line. Lines come back trimmed, tokenized and numbered;
/// blank ones are skipped.
#[derive(Debug)]
pub struct Doc<'a> {
    format: &'static str,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Doc<'a> {
    /// Opens `text` as a `format` document of exactly `version`.
    ///
    /// # Errors
    /// [`DocError::Malformed`] when the text is empty or does not lead
    /// with a `<format> <version>` header; [`DocError::VersionMismatch`]
    /// when the header names another version.
    pub fn open(text: &'a str, format: &'static str, version: u32) -> Result<Doc<'a>, DocError> {
        let mut doc = Doc {
            format,
            lines: text.lines().enumerate(),
        };
        let (no, header) = doc
            .next_text()
            .ok_or_else(|| doc.truncated("empty document"))?;
        let found = header
            .strip_prefix(format)
            .and_then(|v| v.strip_prefix(' '))
            .and_then(|v| v.trim().parse::<u32>().ok())
            .ok_or_else(|| {
                DocError::malformed(format, no, format!("missing '{format} <version>' header"))
            })?;
        if found != version {
            return Err(DocError::VersionMismatch {
                format,
                found,
                expected: version,
            });
        }
        Ok(doc)
    }

    fn next_text(&mut self) -> Option<(usize, &'a str)> {
        self.lines
            .by_ref()
            .map(|(i, l)| (i + 1, l.trim()))
            .find(|(_, l)| !l.is_empty())
    }

    /// The next line, or `None` at the end of the document.
    ///
    /// # Errors
    /// When the line does not tokenize.
    pub fn next_line(&mut self) -> Result<Option<Line<'a>>, DocError> {
        self.next_text()
            .map(|(no, text)| Line::parse(self.format, no, text))
            .transpose()
    }

    /// The next line, which the grammar says is a `keyword` line.
    ///
    /// # Errors
    /// When the document ends here or the line is of another kind.
    pub fn line(&mut self, keyword: &str) -> Result<Line<'a>, DocError> {
        match self.next_line()? {
            Some(line) if line.keyword == keyword => Ok(line),
            Some(line) => Err(line.malformed(format!("expected '{keyword}' line"))),
            None => Err(self.truncated(format!("missing '{keyword}' line"))),
        }
    }

    /// A [`DocError::Malformed`] at line 0: the document ended before
    /// its grammar did.
    pub fn truncated(&self, msg: impl Into<String>) -> DocError {
        DocError::malformed(self.format, 0, msg)
    }

    /// Ends a document whose grammar allows nothing more.
    ///
    /// # Errors
    /// When a non-blank line remains.
    pub fn finish(mut self) -> Result<(), DocError> {
        match self.next_text() {
            Some((no, _)) => Err(DocError::malformed(self.format, no, "trailing content")),
            None => Ok(()),
        }
    }
}

/// Builds a document — or a single line — into one `String`. A line is
/// started with [`Writer::line`], grown token by token (each preceded by
/// one space) and closed with [`Writer::end`]; nothing is formatted into
/// a temporary on the way.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// Starts a document with its `<format> <version>` header line.
    pub fn open(format: &str, version: u32) -> Writer {
        // Nearly every document outgrows this; starting here spares the
        // doublings from zero that a short report would otherwise pay.
        let mut w = Writer {
            out: String::with_capacity(512),
        };
        w.line(format).word(version).end();
        w
    }

    /// Indents the line about to start by `depth` levels (cosmetic:
    /// readers trim).
    pub fn indent(&mut self, depth: usize) -> &mut Writer {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
        self
    }

    /// Starts a line with its keyword.
    pub fn line(&mut self, keyword: &str) -> &mut Writer {
        self.out.push_str(keyword);
        self
    }

    /// Appends a bare positional token.
    pub fn word(&mut self, word: impl fmt::Display) -> &mut Writer {
        self.out.push(' ');
        let _ = write!(self.out, "{word}");
        self
    }

    /// Appends a positional [`Quoted`] string.
    pub fn quoted(&mut self, s: &str) -> &mut Writer {
        self.word(Quoted(s))
    }

    /// Appends ` key=` and hands back the text for the value: the key is
    /// copied, not formatted.
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push('=');
        &mut self.out
    }

    /// Appends a `key=value` field.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut Writer {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a float field as its IEEE-754 bit pattern.
    pub fn bits(&mut self, key: &str, value: f64) -> &mut Writer {
        let _ = write!(self.key(key), "0x{:016X}", value.to_bits());
        self
    }

    /// Appends every field of `table`, in table order, as read from
    /// `rec`.
    pub fn fields<R>(&mut self, table: &Table<R>, rec: &R) -> &mut Writer {
        for (name, field) in table {
            match field {
                Field::U64(get, _) => self.field(name, get(rec)),
                Field::U32(get, _) => self.field(name, get(rec)),
                Field::F64(get, _) => self.bits(name, get(rec)),
            };
        }
        self
    }

    /// Ends the line.
    pub fn end(&mut self) {
        self.out.push('\n');
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// How one numeric field of a record `R` is encoded, with the getter
/// and setter [`field_table!`](crate::field_table) derives from the
/// field's name: integers in decimal, floats as bit patterns.
pub enum Field<R> {
    /// A `u64` counter.
    U64(fn(&R) -> u64, fn(&mut R, u64)),
    /// A `u32` counter.
    U32(fn(&R) -> u32, fn(&mut R, u32)),
    /// A float, bit-exact in text and `null` in JSON when non-finite.
    F64(fn(&R) -> f64, fn(&mut R, f64)),
}

/// The fields of a record `R` as they appear on its line: document key
/// (the field's own name) and encoding, in line order. The one list a
/// record's writer ([`Writer::fields`]), reader ([`Line::read`]) and
/// JSON rendering ([`json_object`]) all walk.
pub type Table<R> = [(&'static str, Field<R>)];

/// Declares a record's [`Table`](crate::doc::Table): `field: U64 | U32 |
/// F64` rows, in line order.
///
/// ```
/// use tawa_wsir::doc::{Line, Table, Writer};
///
/// #[derive(Default, PartialEq, Debug)]
/// struct Sweep { pruned: u64, share: f64 }
/// const SWEEP: &Table<Sweep> = &tawa_wsir::field_table!(Sweep { pruned: U64, share: F64 });
///
/// let mut w = Writer::default();
/// w.line("sweep").fields(SWEEP, &Sweep { pruned: 3, share: 0.5 });
/// let text = w.finish();
/// assert_eq!(text, "sweep pruned=3 share=0x3FE0000000000000");
/// let back: Sweep = Line::parse("demo", 1, &text)?.read(SWEEP)?;
/// assert_eq!(back, Sweep { pruned: 3, share: 0.5 });
/// # Ok::<(), tawa_wsir::DocError>(())
/// ```
#[macro_export]
macro_rules! field_table {
    ($rec:ty { $($field:ident: $kind:ident),* $(,)? }) => {
        [$((
            stringify!($field),
            $crate::doc::Field::$kind(|r: &$rec| r.$field, |r: &mut $rec, v| r.$field = v),
        )),*]
    };
}

/// Renders `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number; JSON has no NaN or infinity, so a
/// non-finite value becomes `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Renders already-rendered `members` one per line between `open` and
/// `close` — the nested sections of the two JSON reports (`tawa-serve`'s
/// and `tawa-lint`'s), which share a two-space layout. No members
/// renders as the bare brackets.
pub fn json_block(open: char, members: &[String], close: char) -> String {
    if members.is_empty() {
        return format!("{open}{close}");
    }
    format!("{open}\n    {}\n  {close}", members.join(",\n    "))
}

/// Renders the fields of `table`, in table order, as one flat JSON
/// object `{"key": value, …}`.
pub fn json_object<R>(table: &Table<R>, rec: &R) -> String {
    let mut out = String::from("{");
    for (i, (name, field)) in table.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = match field {
            Field::U64(get, _) => write!(out, "{sep}\"{name}\": {}", get(rec)),
            Field::U32(get, _) => write!(out, "{sep}\"{name}\": {}", get(rec)),
            Field::F64(get, _) => write!(out, "{sep}\"{name}\": {}", json_number(get(rec))),
        };
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        hits: u64,
        occupancy: u32,
        share: f64,
    }

    const TOY: &Table<Toy> = &crate::field_table!(Toy {
        hits: U64,
        occupancy: U32,
        share: F64,
    });

    #[test]
    fn writer_spells_headers_lines_and_tokens() {
        let mut w = Writer::open("toy", 7);
        w.line("name").quoted("a \"b\"\\\n\t").field("k", 3).end();
        w.indent(2).line("deep").word("{").bits("f", -0.0).end();
        assert_eq!(
            w.finish(),
            "toy 7\nname \"a \\\"b\\\"\\\\\\n\\t\" k=3\n    deep { f=0x8000000000000000\n"
        );
        assert_eq!(quote("a b"), "\"a b\"");
    }

    #[test]
    fn doc_checks_the_header_and_numbers_physical_lines() {
        let text = "\n  toy 7  \n\n  first a=1\n\t\nsecond \"x y\" b=\"p q\"\n";
        let mut doc = Doc::open(text, "toy", 7).unwrap();
        let first = doc.line("first").unwrap();
        assert_eq!((first.keyword(), first.get("a")), ("first", Ok("1")));
        assert_eq!(
            first.get("b"),
            Err(DocError::malformed("toy", 4, "missing field 'b'"))
        );
        let second = doc.next_line().unwrap().unwrap();
        assert_eq!(second.tokens(), ["second", "\"x y\"", "b=\"p q\""]);
        assert_eq!(second.name("label").unwrap(), "x y");
        assert_eq!(second.string("b").unwrap(), "p q");
        assert_eq!(
            second.int::<u32>("b"),
            Err(second.malformed("field 'b' is not an integer: '\"p q\"'"))
        );
        assert!(doc.next_line().unwrap().is_none());
        assert_eq!(doc.finish(), Ok(()));

        let mut doc = Doc::open("toy 7\nfirst\nextra\n", "toy", 7).unwrap();
        assert_eq!(
            doc.line("second").unwrap_err(),
            DocError::malformed("toy", 2, "expected 'second' line")
        );
        assert_eq!(
            doc.finish(),
            Err(DocError::malformed("toy", 3, "trailing content"))
        );
        let mut ended = Doc::open("toy 7", "toy", 7).unwrap();
        assert_eq!(
            ended.line("first").unwrap_err(),
            DocError::malformed("toy", 0, "missing 'first' line")
        );
    }

    #[test]
    fn headers_are_exact_about_format_and_version() {
        let open = |text| Doc::open(text, "toy", 7).map(drop);
        let header = |no| DocError::malformed("toy", no, "missing 'toy <version>' header");
        assert_eq!(open("toy 7"), Ok(()));
        assert_eq!(open("toy   7"), Ok(()));
        assert_eq!(
            open(" \n"),
            Err(DocError::malformed("toy", 0, "empty document"))
        );
        for bad in ["toy", "toy7", "toys 7", "toy 7 x", "toy -7", "toy seven"] {
            assert_eq!(open(bad), Err(header(1)), "{bad:?}");
        }
        assert_eq!(open("\n\ntoy-report 7"), Err(header(3)));
        assert_eq!(
            open("toy 8"),
            Err(DocError::VersionMismatch {
                format: "toy",
                found: 8,
                expected: 7
            })
        );
    }

    #[test]
    fn tables_drive_writer_reader_and_json_from_one_list() {
        for bits in [
            f64::NAN.to_bits() | 0xDEAD,
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0.25f64.to_bits(),
        ] {
            let toy = Toy {
                hits: u64::MAX,
                occupancy: 2,
                share: f64::from_bits(bits),
            };
            let mut w = Writer::default();
            w.line("toy").fields(TOY, &toy);
            let text = w.finish();
            assert_eq!(
                text,
                format!("toy hits=18446744073709551615 occupancy=2 share=0x{bits:016X}")
            );
            let line = Line::parse("toy", 1, &text).unwrap();
            let back: Toy = line.read(TOY).unwrap();
            assert_eq!(back.share.to_bits(), bits);
            assert_eq!((back.hits, back.occupancy), (toy.hits, toy.occupancy));
            // A missing field is malformed and named, never a default.
            for (name, _) in TOY {
                let without: Vec<&str> = text
                    .split(' ')
                    .filter(|t| !t.starts_with(&format!("{name}=")))
                    .collect();
                let line = without.join(" ");
                let err = Line::parse("toy", 1, &line).unwrap().read(TOY);
                let expected = DocError::malformed("toy", 1, format!("missing field '{name}'"));
                assert_eq!(err.map(|_: Toy| ()), Err(expected));
            }
            let share = if toy.share.is_finite() {
                toy.share.to_string()
            } else {
                "null".to_string()
            };
            assert_eq!(
                json_object(TOY, &toy),
                format!("{{\"hits\": 18446744073709551615, \"occupancy\": 2, \"share\": {share}}}")
            );
        }
        // An integer out of its field's range is malformed, not wrapped.
        let line = Line::parse("toy", 1, "toy hits=1 occupancy=4294967296 share=0x0").unwrap();
        assert!(line.read(TOY).map(|_: Toy| ()).is_err());
    }

    #[test]
    fn json_strings_escape_and_blocks_lay_out() {
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}é"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001é\""
        );
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_block('{', &[], '}'), "{}");
        let members = ["\"a\": 1".to_string(), "\"b\": 2".to_string()];
        assert_eq!(
            json_block('[', &members, ']'),
            "[\n    \"a\": 1,\n    \"b\": 2\n  ]"
        );
    }

    #[test]
    fn only_newline_terminated_lines_are_complete() {
        assert_eq!(complete_lines(""), "");
        assert_eq!(complete_lines("torn"), "");
        assert_eq!(complete_lines("a\nb\n"), "a\nb\n");
        assert_eq!(complete_lines("a\nb\ntor"), "a\nb\n");
    }

    #[test]
    fn blank_text_is_not_a_line() {
        assert!(Line::parse("toy", 3, " \t ").is_err());
        assert_eq!(
            Line::parse("toy", 3, "a \"b").unwrap_err(),
            DocError::malformed("toy", 3, "unterminated string")
        );
    }
}
