//! Content fingerprinting for modules.
//!
//! A [`module_fingerprint`] is a stable 64-bit hash of a module's canonical
//! textual form (the [`crate::print`] output, which `print → parse → print`
//! fixpoints on). Two modules with equal fingerprints print identically, so
//! the fingerprint can stand in for the module in caches.
//!
//! The printer is generic over [`fmt::Write`], and the hash is a
//! `fmt::Write` sink: the fingerprint is FNV-1a over exactly the bytes
//! [`crate::print::print_module`] would return, folded in as the printer
//! emits them — no text is ever buffered. [`fnv1a_fmt`] offers the same
//! sink to any `format_args!`.
//!
//! Who hashes, and when:
//!
//! * the `tawa-core` compile session fingerprints a module **once per
//!   public call** — the module half of its content-addressed cache key —
//!   and a DSL `Program` remembers its fingerprint, so a sweep or a
//!   repeated request hashes its module one time;
//! * the [`crate::pass::PassManager`] does **not** hash in release builds:
//!   passes report whether they changed the module. Debug builds keep the
//!   fingerprint as a cross-check on those reports.

use std::fmt;

use crate::func::Module;
use crate::print::write_module;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a (64-bit) as a text sink: every `write_str` folds its bytes into
/// the running hash.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Hashes a byte stream with FNV-1a (64-bit). Deterministic across runs
/// and platforms, unlike `std::hash::DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// Hashes the text `args` formats to — `fnv1a(format!(..).as_bytes())`
/// without the `String`.
pub fn fnv1a_fmt(args: fmt::Arguments<'_>) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    // The sink itself never fails, so neither do `Debug`/`Display` impls
    // that only forward its result (every derived one).
    let _ = fmt::Write::write_fmt(&mut h, args);
    h.0
}

/// Fingerprints a module by hashing its canonical printed form.
pub fn module_fingerprint(m: &Module) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    let _ = write_module(m, &mut h);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    /// `f(x) = x * c`.
    fn scale_by(c: i64) -> Module {
        parse_module(&format!(
            "module {{ func @f(%arg0: i32) {{
               %0 = arith.const_int() {{value = {c}}} : i32
               %1 = arith.mul(%arg0, %0) : i32
             }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn equal_modules_equal_fingerprints() {
        let mk = || scale_by(2);
        assert_eq!(module_fingerprint(&mk()), module_fingerprint(&mk()));
    }

    #[test]
    fn different_modules_differ() {
        let a = scale_by(2);
        let b_ = scale_by(3);
        assert_ne!(module_fingerprint(&a), module_fingerprint(&b_));
    }

    #[test]
    fn fingerprint_tracks_mutation() {
        let mut m = scale_by(2);
        let before = module_fingerprint(&m);
        crate::transforms::run_dce(&mut m.funcs[0]);
        assert_ne!(before, module_fingerprint(&m), "DCE must change the print");
    }
}
