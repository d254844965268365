//! Source locations for tile programs.
//!
//! A [`Loc`] names the line of *user kernel source* an IR operation came
//! from. Frontends capture it with [`Loc::caller`] (a `#[track_caller]`
//! constructor, so the location is the DSL call site, not the frontend
//! internals) and attach it to ops through
//! [`crate::func::Func::set_loc`]. Locations ride in a side channel
//! of [`crate::func::OpData`] — they are **not** attributes, are never
//! printed by [`crate::print`] and therefore never perturb the canonical
//! IR text or the [`crate::fingerprint::module_fingerprint`] caches key
//! off. Diagnostics ([`crate::diag::Diagnostic`], verifier errors) carry
//! them so user-facing failures point at `kernel.rs:42:17` instead of an
//! opaque op id.

use std::fmt;

/// A captured source location: file, 1-based line, 1-based column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Source file path as the compiler recorded it.
    pub file: &'static str,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Loc {
    /// Captures the location of the *caller* of the surrounding
    /// `#[track_caller]` chain. Every public DSL entry point calls this
    /// first, so the recorded span is the user's kernel source line.
    #[must_use]
    #[track_caller]
    pub fn caller() -> Loc {
        let l = std::panic::Location::caller();
        Loc {
            file: l.file(),
            line: l.line(),
            col: l.column(),
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn capture() -> Loc {
        Loc::caller()
    }

    #[test]
    fn caller_points_at_call_site() {
        let first = capture();
        let second = capture();
        assert!(first.file.ends_with("loc.rs"), "{first}");
        // Two call sites on consecutive lines: the span is the call site,
        // not the shared body of `capture`.
        assert_eq!(second.line, first.line + 1);
        assert!(first.col > 0);
    }

    #[test]
    fn display_is_file_line_col() {
        let l = Loc {
            file: "kernel.rs",
            line: 7,
            col: 13,
        };
        assert_eq!(l.to_string(), "kernel.rs:7:13");
    }
}
