//! `tawa-cache` — operate a persistent kernel-cache directory.
//!
//! Introspection tooling for the on-disk cache tier behind
//! `CompileSession` (the directory named by `TAWA_DISK_CACHE` or
//! `CompileSession::with_disk_cache`), built entirely on the public
//! [`tawa_core::cache::DiskCache`] API and the key-echo headers every
//! entry carries. It understands all three entry kinds: compiled
//! kernels (`.wsir`), infeasibility verdicts (`.neg`) and simulation
//! outcomes (`.sim`, keyed by the simulator's cost-model version):
//!
//! ```text
//! tawa-cache ls <dir>                 list entries (key, kind, size, age)
//! tawa-cache stats <dir>              per-kind totals + cached sim outcomes
//! tawa-cache verify <dir>             validate every entry; delete defects
//! tawa-cache gc <dir> --max-bytes N   evict LRU entries down to N bytes
//! ```
//!
//! All subcommands are safe on a live directory: writers publish entries
//! atomically, and deleting an entry only ever costs a recompile.

use std::process::ExitCode;
use std::time::SystemTime;

use tawa_core::cache::{CacheEntry, DiskCache, EntryKind, SimOutcome};
use tawa_core::remote::{RemoteAddr, RemoteCache, REMOTE_CACHE_ENV};
use tawa_core::CacheEnv;

const USAGE: &str = "usage:
  tawa-cache ls <dir>                 list entries (oldest first)
  tawa-cache stats <dir>              per-kind totals and cached sim outcomes
  tawa-cache stats --remote [addr]    query a live tawa-cached daemon
  tawa-cache verify <dir>             validate all entries, deleting defects
  tawa-cache gc <dir> --max-bytes N   evict least-recently-used entries to N bytes

The directory is a Tawa compile cache as written by CompileSession
(TAWA_DISK_CACHE): kernel, infeasible and sim-report entries. Keys are
printed as <module_fp>-<env_fp>. `stats --remote` takes a daemon address
(socket path or tcp:host:port), defaulting to $TAWA_CACHED.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A usage error prints the cheat sheet; an operational nonzero exit
    // (verify found defects) already explained itself and must not look
    // like a command-line mistake.
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tawa-cache: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "ls" => {
            let dir = one_dir(rest)?;
            let cache = open(&dir)?;
            ls(&cache);
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let mut rest = rest.to_vec();
            if let Some(i) = rest.iter().position(|a| a == "--remote") {
                rest.remove(i);
                let addr = match rest.as_slice() {
                    [] => CacheEnv::from_env().remote.ok_or_else(|| {
                        format!("stats --remote needs an address or {REMOTE_CACHE_ENV} set")
                    })?,
                    [addr] => RemoteAddr::parse(addr),
                    _ => return Err("stats --remote takes at most one address".into()),
                };
                remote_stats(addr)?;
                return Ok(ExitCode::SUCCESS);
            }
            let dir = one_dir(&rest)?;
            let cache = open(&dir)?;
            stats(&cache);
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let dir = one_dir(rest)?;
            let cache = open(&dir)?;
            Ok(verify(&cache))
        }
        "gc" => {
            gc(rest)?;
            Ok(ExitCode::SUCCESS)
        }
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn one_dir(rest: &[String]) -> Result<String, String> {
    match rest {
        [dir] => Ok(dir.clone()),
        _ => Err("expected exactly one cache directory".into()),
    }
}

fn open(dir: &str) -> Result<DiskCache, String> {
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("{dir}: not a directory"));
    }
    DiskCache::open(dir).map_err(|e| format!("{dir}: {e}"))
}

fn kind_str(kind: EntryKind) -> &'static str {
    match kind {
        EntryKind::Kernel => "kernel",
        EntryKind::Infeasible => "infeasible",
        EntryKind::SimReport => "sim-report",
    }
}

/// Like [`kind_str`] but peeks inside `.sim` entries so the listing
/// distinguishes simulator-discovered failures (`sim-error`) from
/// verdicts the static analyzer recorded without ever running the
/// simulator (`static-neg`).
fn entry_label(cache: &DiskCache, entry: &CacheEntry) -> &'static str {
    if entry.kind != EntryKind::SimReport {
        return kind_str(entry.kind);
    }
    match cache.peek_sim(entry) {
        Some(SimOutcome::Report(_)) => "sim-report",
        Some(SimOutcome::Failed(_)) => "sim-error",
        Some(SimOutcome::StaticRejection(_)) => "static-neg",
        None => "sim?",
    }
}

fn age_str(modified: SystemTime) -> String {
    match SystemTime::now().duration_since(modified) {
        Ok(age) => {
            let s = age.as_secs();
            if s < 120 {
                format!("{s}s")
            } else if s < 7200 {
                format!("{}m", s / 60)
            } else if s < 172_800 {
                format!("{}h", s / 3600)
            } else {
                format!("{}d", s / 86_400)
            }
        }
        Err(_) => "future".into(),
    }
}

fn ls(cache: &DiskCache) {
    let entries = cache.entries();
    println!(
        "{:<33}  {:>10}  {:>8}  {:>6}",
        "KEY", "KIND", "BYTES", "AGE"
    );
    let mut bytes = 0u64;
    for e in &entries {
        bytes += e.bytes;
        println!(
            "{:016x}-{:016x}  {:>10}  {:>8}  {:>6}",
            e.key.module_fp,
            e.key.env_fp,
            entry_label(cache, e),
            e.bytes,
            age_str(e.modified)
        );
    }
    println!("{} entries, {} bytes", entries.len(), bytes);
}

/// Aggregates the directory per entry label, then reports what the cache
/// saves: every cached sim outcome is a simulator run warm sweeps skip.
fn stats(cache: &DiskCache) {
    let entries = cache.entries();
    let mut by_label: Vec<(&'static str, usize, u64)> = Vec::new();
    for e in &entries {
        let label = entry_label(cache, e);
        match by_label.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, n, bytes)) => {
                *n += 1;
                *bytes += e.bytes;
            }
            None => by_label.push((label, 1, e.bytes)),
        }
    }
    println!("{:<12}  {:>7}  {:>10}", "KIND", "ENTRIES", "BYTES");
    for (label, n, bytes) in &by_label {
        println!("{label:<12}  {n:>7}  {bytes:>10}");
    }
    let total_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    println!("{:<12}  {:>7}  {:>10}", "total", entries.len(), total_bytes);

    let sim_cached = entries
        .iter()
        .filter(|e| e.kind == EntryKind::SimReport)
        .count();
    println!("\n{sim_cached} cached sim outcomes (simulator runs warm sweeps avoid)");
}

/// `stats --remote`: asks a live `tawa-cached` daemon for its counters
/// over the wire protocol instead of reading a directory.
fn remote_stats(addr: RemoteAddr) -> Result<(), String> {
    let client = RemoteCache::new(addr);
    let stats = client
        .fetch_stats()
        .ok_or_else(|| format!("no tawa-cached daemon answering at {}", client.addr()))?;
    println!("tawa-cached daemon at {}", client.addr());
    println!("  store: {} entries, {} bytes", stats.entries, stats.bytes);
    println!(
        "  kernels: {} hits, {} negative hits; sims: {} hits, {} negative hits; {} misses",
        stats.hits, stats.negative_hits, stats.sim_hits, stats.sim_negative_hits, stats.misses
    );
    println!(
        "  writes {}, invalidations {}, evictions {}",
        stats.writes, stats.invalidations, stats.evictions
    );
    println!(
        "  served {} requests over {} connections, {} protocol errors",
        stats.requests, stats.connections, stats.errors
    );
    Ok(())
}

fn verify(cache: &DiskCache) -> ExitCode {
    let entries = cache.entries();
    let mut ok = 0usize;
    let mut bad = 0usize;
    let mut lint_errors = 0usize;
    for e in &entries {
        if !cache.verify_entry(e) {
            bad += 1;
            println!(
                "invalid: {:016x}-{:016x} ({}) — removed",
                e.key.module_fp,
                e.key.env_fp,
                kind_str(e.kind)
            );
            continue;
        }
        ok += 1;
        // Structurally sound kernels additionally pass through the
        // static analyzer: a cached kernel whose barrier protocol is
        // broken would deadlock every simulation it seeds. Such entries
        // are reported but kept — recompiling reproduces the same
        // kernel, and the session's static gate rejects it at
        // simulate time anyway.
        if e.kind == EntryKind::Kernel {
            if let Some(kernel) = cache.peek_kernel(e) {
                let mut flagged = false;
                for lint in tawa_wsir::analyze(&kernel) {
                    if lint.severity() == tawa_wsir::Severity::Error {
                        flagged = true;
                        println!(
                            "lint: {:016x}-{:016x} {lint}",
                            e.key.module_fp, e.key.env_fp
                        );
                    }
                }
                if flagged {
                    lint_errors += 1;
                }
            }
        }
    }
    println!(
        "{ok} sound, {bad} defective (defects deleted; they recompile on demand), \
         {lint_errors} with lint errors (kept; the static gate rejects them before simulation)"
    );
    if bad == 0 && lint_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn gc(rest: &[String]) -> Result<(), String> {
    let (dir, max_bytes) = match rest {
        [dir, flag, n] if flag == "--max-bytes" => (
            dir.clone(),
            n.parse::<u64>()
                .map_err(|_| format!("--max-bytes: not a byte count: {n:?}"))?,
        ),
        _ => return Err("gc needs <dir> --max-bytes N".into()),
    };
    let cache = open(&dir)?;
    let before = cache.stats();
    let evicted = cache.gc(max_bytes);
    let after = cache.stats();
    println!(
        "evicted {evicted} entries: {} -> {} bytes ({} -> {} entries)",
        before.bytes, after.bytes, before.entries, after.entries
    );
    Ok(())
}
